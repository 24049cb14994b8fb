"""Deterministic reductions for mode sums and partition sums.

Every reported total in this package goes through `stable_sum`, which is
`math.fsum`: its result is the exactly rounded sum of its inputs, whatever
their order.  Totals are therefore bit-identical across runs and platforms
and independent of how the terms were produced.
"""

import math

import numpy as np

__all__ = ["stable_sum"]


def stable_sum(terms) -> float:
    """Exactly rounded sum of `terms`, in any order of the terms.

    For finite terms the result is the correctly rounded sum, unless a
    running partial sum overflows (`math.fsum` then raises OverflowError).
    The memoryview feeds `math.fsum` one double at a time, without a copy.
    """
    return math.fsum(memoryview(np.ascontiguousarray(terms, dtype=float).ravel()))

