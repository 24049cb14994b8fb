import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_limits.errors import DomainError
from bose_limits.summation import MAX_WEIGHT, log_sum_exp, stable_sum, weighted_sum


def test_reorder_invariance_bit_exact():
    rng = np.random.default_rng(7)
    terms = rng.uniform(-1.0, 1.0, size=5000) * np.logspace(-12, 3, 5000)
    reference = stable_sum(terms)
    for seed in range(5):
        shuffled = np.random.default_rng(seed).permutation(terms)
        assert stable_sum(shuffled) == reference


def test_exactly_rounded_against_fsum():
    terms = [1e16, 1.0, -1e16, 1.0]
    assert stable_sum(terms) == 2.0


def test_empty_sum():
    assert stable_sum([]) == 0.0


def test_log_sum_exp_matches_direct():
    x = np.array([-1.0, 0.5, 2.0])
    direct = math.log(sum(math.exp(v) for v in x))
    assert log_sum_exp(x) == pytest.approx(direct, rel=1e-15)


def test_log_sum_exp_avoids_overflow():
    x = np.array([5000.0, 5000.0 + math.log(2.0)])
    assert log_sum_exp(x) == pytest.approx(5000.0 + math.log(3.0), rel=1e-15)


def _exactly_rounded(terms):
    exact = sum(map(Fraction, terms), Fraction(0))
    # int / int true division is correctly rounded, subnormals included.
    return exact.numerator / exact.denominator


# Mixed signs, subnormals, signed zeros and decimal exponents -300..300.
wide_terms = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-300, 299)),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1022))))


@given(data=st.data(), terms=st.lists(wide_terms, max_size=60))
@settings(max_examples=300, deadline=None)
def test_stable_sum_exactly_rounded_in_any_order(data, terms):
    # Repeats, exact negations and a shuffle: the sum is still rounded once.
    terms = terms + terms[: len(terms) // 4] + [-t for t in terms[: len(terms) // 3]]
    shuffled = data.draw(st.permutations(terms))
    expected = _exactly_rounded(terms)
    assert stable_sum(shuffled) == expected
    assert stable_sum(np.array(shuffled)) == expected


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
