"""Deterministic reductions for mode sums and partition sums.

Every reported total in this package goes through `stable_sum`, which is
`math.fsum`: its result is the exactly rounded sum of its inputs, whatever
their order.  Totals are therefore bit-identical across runs and platforms
and independent of how the terms were produced.

`weighted_sum` adds terms that occur with integer multiplicities, as the
mode sums do once modes are grouped by |n|^2 shell.  It splits each term
exactly into two halves of at most 26 significant bits (Veltkamp), so every
product multiplicity * half is an exact double and `stable_sum` of those
products is the exactly rounded value of sum_i w_i * t_i: the same double
as `stable_sum` over the terms repeated w_i times.
"""

import math

import numpy as np

from .errors import require

__all__ = ["MAX_WEIGHT", "stable_sum", "weighted_sum", "log_sum_exp"]

# Largest weight whose product with a 26-bit half still fits in 53 bits.
MAX_WEIGHT = 2 ** 27
_VELTKAMP = float(2 ** 27 + 1)


def stable_sum(terms) -> float:
    """Exactly rounded sum of `terms`, in any order of the terms.

    For finite terms the result is the correctly rounded sum, unless a
    running partial sum overflows (`math.fsum` then raises OverflowError).
    The memoryview feeds `math.fsum` one double at a time, without a copy.
    """
    return math.fsum(memoryview(np.ascontiguousarray(terms, dtype=float).ravel()))


def weighted_sum(terms, weights) -> float:
    """Exactly rounded sum of weights[i] * terms[i] for integer weights.

    Bit-identical to `stable_sum(np.repeat(terms, weights))` for weights in
    [0, MAX_WEIGHT] and finite terms below 2**996 in magnitude.  Larger or
    non-finite terms are not split and enter as weight * term.
    """
    t = np.asarray(terms, dtype=float).ravel()
    w = np.asarray(weights).ravel()
    require(w.shape == t.shape, "terms and weights must have the same length")
    require(w.size == 0 or (np.issubdtype(w.dtype, np.integer)
                            and int(w.min()) >= 0 and int(w.max()) <= MAX_WEIGHT),
            f"weights must be integers in [0, {MAX_WEIGHT}]")
    with np.errstate(over="ignore", invalid="ignore"):
        c = _VELTKAMP * t
        split = np.isfinite(c)
        hi = np.where(split, c - (c - t), t)
        lo = np.where(split, t - hi, 0.0)
    w = w.astype(float)
    return stable_sum(np.concatenate((w * hi, w * lo)))


def log_sum_exp(exponents) -> float:
    """log(sum(exp(x))) without overflow; the inner sum uses `stable_sum`."""
    arr = np.asarray(exponents, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = float(arr.max())
    if math.isinf(m):
        return m
    return m + math.log(stable_sum(np.exp(arr - m)))
