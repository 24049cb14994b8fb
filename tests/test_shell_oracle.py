"""The shell-sum oracle's own pieces: Veltkamp-weighted sums and Gamma((k+1)/2, x)."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_limits.errors import DomainError
from bose_limits.summation import stable_sum

from shell_oracle import MAX_WEIGHT, upper_gamma_half, weighted_sum

finite_terms = st.floats(allow_nan=False, allow_infinity=False,
                         min_value=-1e30, max_value=1e30)


@given(data=st.lists(st.tuples(finite_terms, st.integers(0, 50)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_weighted_sum_equals_repeated_terms(data):
    terms = np.array([t for t, _ in data], dtype=float)
    weights = np.array([w for _, w in data], dtype=np.int64)
    assert weighted_sum(terms, weights) == stable_sum(np.repeat(terms, weights))


def test_weighted_sum_exactly_rounded():
    tiny = 5e-324                                      # smallest subnormal
    cases = [
        ([0.1, 1.0 / 3.0, -2.0 ** -60], [MAX_WEIGHT, MAX_WEIGHT - 1, 3]),
        ([1.0 + 2.0 ** -52, -1.0], [MAX_WEIGHT, MAX_WEIGHT]),
        ([tiny, 3.0 * tiny, 2.0 ** -1022 - tiny], [MAX_WEIGHT, 12345, MAX_WEIGHT]),
        ([1e-300, math.pi * 1e-310, -1e-320], [7, MAX_WEIGHT, 99]),
        ([1e300, -1e300 * (1.0 - 2.0 ** -52), 1.0], [MAX_WEIGHT, MAX_WEIGHT, 1]),
    ]
    for terms, weights in cases:
        exact = sum(Fraction(t) * w for t, w in zip(terms, weights))
        value = weighted_sum(np.array(terms), np.array(weights))
        # int / int true division is correctly rounded, subnormals included.
        assert value == exact.numerator / exact.denominator


def test_weighted_sum_passes_infinite_terms_through():
    terms = np.array([math.inf, 1.0])
    weights = np.array([2, 3])
    assert weighted_sum(terms, weights) == stable_sum(np.repeat(terms, weights)) == math.inf


def test_weighted_sum_weight_guard():
    assert weighted_sum([], np.array([], dtype=np.int64)) == 0.0
    with pytest.raises(DomainError):
        weighted_sum([1.0], np.array([MAX_WEIGHT + 1]))
    with pytest.raises(DomainError):
        weighted_sum([1.0], np.array([-1]))
    with pytest.raises(DomainError):
        weighted_sum([1.0], np.array([1.5]))
    with pytest.raises(DomainError):
        weighted_sum([1.0, 2.0], np.array([1]))


class TestUpperGammaHalf:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 1.0, 7.5, 40.0, 300.0])
    def test_mpmath_oracle(self, k, x):
        with mp.workdps(40):
            oracle = mp.gammainc(mp.mpf(k + 1) / 2, mp.mpf(x))
        assert upper_gamma_half(k, x) == pytest.approx(float(oracle), rel=1e-14)
