from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_limits.summation import stable_sum


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
