"""Symmetry-preserving square-root perturbation of the ideal Bose gas.

The zero mode carries the diagonal source -c*nu*sqrt(V)*sqrt(n0 + 1)
(coefficient c = 2 by default), so its grand-canonical pressure is the
log of a scalar series,

    (1/(beta*V)) * log sum_n exp(beta*V * g(n/V)),
    g(x) = mu*x + c*nu*sqrt(x + 1/V),

a Darboux sum whose infinite-volume value is sup g by the Laplace
principle.  This module evaluates the exponent family, its maximizer and
supremum, and the series itself with a certified geometric tail bound.

Series window: the term exponent e(n) = beta*V*g(n/V) is concave in n and
peaks at n* = round(V*x_star) with width sigma = 1/sqrt(|e''(n*)|), so
almost all of the mass lies within O(sqrt(V)) occupations of n*.  The
series is summed over [max(0, n* - W), n* + W] only.  By concavity, each
dropped side is bounded by a geometric series whose first term is the
first dropped term and whose ratio is e^Delta, Delta the exponent step
across that window edge.  W is chosen from scalar probes before any term
is formed (grow from 8*sigma, then bisect): both bounds must be below
rel_tol/2 times the geometric series under the chord of the exponent from
n* to n* + W, a floor on the window sum.  Exponents are formed relative to
e(n*) without cancellation, and the sum is accumulated relative to its peak
term; beta*V*g exceeds the floating-point exponent range long before the
physics gets large.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MAX_ALLOC_BYTES, DomainError, NonConvergenceError, require
from .lattice_ideal import (_EPS, PressureBreakdown, ThermoPoint, _log1m_exp,
                            _require_stable, pressure_ideal_limit,
                            pressure_ideal_primed)
from .summation import stable_sum

__all__ = [
    "ExponentFunction",
    "LaplaceResult",
    "exponent_eval",
    "exponent_second_derivative",
    "exponent_maximizer",
    "laplace_sup",
    "zero_mode_log_partition",
    "zero_mode_partial_logsum",
    "zero_mode_pressure_series",
    "pressure_sqrt_source",
    "pressure_sqrt_source_limit",
]

# Peak bytes per term of the window: four float arrays in
# `_window_exponents`.  The window length is known before it is allocated,
# so its term count is checked against this fixed ceiling first.
SERIES_BYTES_PER_TERM = 32
DEFAULT_MAX_SERIES_TERMS = MAX_ALLOC_BYTES // SERIES_BYTES_PER_TERM


@dataclass(frozen=True)
class ExponentFunction:
    """The concave exponent g(x) = mu*x + coefficient*nu*sqrt(x + 1/V).

    Defined on [0, inf); strictly concave wherever nu > 0.
    """

    mu: float
    nu: float
    volume: float
    coefficient: float = 2.0

    def __post_init__(self):
        require(self.volume > 0.0, "volume must be positive")
        require(self.nu >= 0.0, "nu must be nonnegative")
        require(self.coefficient > 0.0, "coefficient must be positive")


def exponent_eval(f: ExponentFunction, x: float) -> float:
    if x < 0.0:
        raise DomainError("exponent domain is [0, inf)")
    return f.mu * x + f.coefficient * f.nu * math.sqrt(x + 1.0 / f.volume)


def exponent_second_derivative(f: ExponentFunction, x: float) -> float:
    """Analytic g''(x) = -(coefficient*nu/4) * (x + 1/V)^(-3/2)."""
    if x < 0.0:
        raise DomainError("exponent domain is [0, inf)")
    return -0.25 * f.coefficient * f.nu * (x + 1.0 / f.volume) ** -1.5


def exponent_maximizer(f: ExponentFunction) -> float:
    """Global maximizer of g on [0, inf), clamped to the boundary at 0.

    The interior stationary point is (c*nu / (-2*mu))^2 - 1/V; for volumes
    too small to make it nonnegative the maximum sits at 0.
    """
    if f.mu >= 0.0:
        raise DomainError("maximizer requires mu < 0")
    # r * r, not r ** 2: it overflows to inf rather than raising.
    r = f.coefficient * f.nu / (-2.0 * f.mu)
    return max(0.0, r * r - 1.0 / f.volume)


def laplace_sup(f: ExponentFunction) -> float:
    """sup of g over [0, inf), evaluated at the (clamped) maximizer.

    Needs the decay hypothesis g(x) < -alpha*x for large x, which holds
    exactly when mu < 0.  For the interior case the value is
    c^2*nu^2/(-4*mu) - mu/V, with infinite-volume limit -c^2*nu^2/(4*mu).
    """
    if f.mu >= 0.0:
        raise DomainError("decay hypothesis fails for mu >= 0")
    x_star = exponent_maximizer(f)
    if x_star == 0.0:
        return exponent_eval(f, 0.0)
    return (0.5 * f.coefficient * f.nu) ** 2 / -f.mu - f.mu / f.volume


@dataclass(frozen=True)
class LaplaceResult:
    """Zero-mode series value together with its Laplace-principle data.

    gap = |numeric_log_sum - sup_value|; for the generic series path the
    signed difference lies in [0, log(terms_used)/(beta*V)] up to the
    reported tail bound, because every term is at most e^(beta*V*sup).
    mean_occupation is <n0> under the series weights, the mu-derivative of
    V*numeric_log_sum; occupation_bound bounds its absolute error.
    """

    maximizer: float
    sup_value: float
    numeric_log_sum: float
    gap: float
    terms_used: int
    tail_bound: float
    mean_occupation: float
    occupation_bound: float

    def __post_init__(self):
        require(self.maximizer >= 0.0, "maximizer must be >= 0")
        require(self.terms_used >= 1, "terms_used must be >= 1")
        require(self.gap >= 0.0, "gap must be >= 0")


def _series_exponents(beta: float, f: ExponentFunction, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    return beta * (f.mu * n + f.coefficient * f.nu * np.sqrt(f.volume * (n + 1.0)))


def _exponent_offset(beta: float, f: ExponentFunction, n_star: int, n, sqrt):
    """e(n) - e(n*) without cancellation, for a float n or a float array n.

    sqrt(n+1) - sqrt(n*+1) = (n - n*) / (sqrt(n+1) + sqrt(n*+1)).  Both
    `math.sqrt` and `np.sqrt` round correctly, so a scalar n gives the
    same double as the array element.
    """
    root_sum = sqrt(n + 1.0) + math.sqrt(n_star + 1.0)
    return beta * (n - n_star) * (f.mu + f.coefficient * f.nu * math.sqrt(f.volume) / root_sum)


def _window_exponents(beta: float, f: ExponentFunction, n_star: int,
                      lo: int, hi: int) -> np.ndarray:
    """e(n) - e(n*) for n = lo..hi."""
    return _exponent_offset(beta, f, n_star, np.arange(lo, hi + 1, dtype=float), np.sqrt)


def _side_bounds(beta: float, f: ExponentFunction, n_star: int, half: int,
                 weighted: bool = False) -> tuple:
    """Bounds on the terms left and right of [max(0, n* - half), n* + half].

    Both are relative to e^(e(n*)).  Concavity makes the exponent step
    across an edge an upper bound on every later step, so a dropped side is
    at most first / (1 - r), r = e^step; the left side has only n* - half
    terms, so it is also at most that many times its first term.  `weighted`
    adds two bounds on the sums of |n - n*| times the terms.  On either
    side |n - n*| runs half+1, half+2, ..., so the arithmetico-geometric
    series first * ((half+1)/(1-r) + r/(1-r)^2) bounds it; on the left,
    n* times the left bound does too, as |n - n*| <= n*.
    """
    def exponent(n):
        return _exponent_offset(beta, f, n_star, float(n), math.sqrt)

    def geometric(first, step):
        # The plain and the |n - n*|-weighted series from the first term on.
        plain = math.exp(first) / -math.expm1(step)
        return plain, plain * (half + 1 + math.exp(step) / -math.expm1(step))

    first = exponent(n_star + half + 1)
    step = first - exponent(n_star + half)
    right = right_weighted = math.inf
    if step < 0.0:
        right, right_weighted = geometric(first, step)
    count = n_star - half
    left = left_weighted = 0.0
    if count > 0:
        first = exponent(count - 1)
        step = first - exponent(count)
        left, left_weighted = count * math.exp(first), math.inf
        if step < 0.0:
            plain, left_weighted = geometric(first, step)
            left = min(left, plain)
        left_weighted = min(left_weighted, n_star * left)
    return (left, right, left_weighted, right_weighted) if weighted else (left, right)


def zero_mode_log_partition(beta: float, mu: float, nu: float, volume: float,
                            rel_tol: float = 1e-10, coefficient: float = 2.0) -> LaplaceResult:
    """Zero-mode pressure (1/(beta*V)) log sum_n e^(beta*V*g(n/V)) with tail bound.

    For nu = 0 the series is geometric and is returned in closed form
    (tail bound zero).  Otherwise it is summed over a window around the
    Laplace peak whose two dropped sides are bounded by geometric series
    (see the module docstring); `tail_bound` maps their sum, plus the
    rounding of the window sum, to pressure units, and `terms_used` is the
    window length.  `mean_occupation` <n0> comes from the same window
    weights; its bound weights the two dropped sides by |n - n*|.  For
    nu = 0 it is 1/(e^(-beta*mu) - 1), exactly.

    Raises NonConvergenceError if the window would exceed
    DEFAULT_MAX_SERIES_TERMS terms, or the peak lies beyond exactly
    representable occupations.  Both are decided before the window is
    allocated.
    """
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    f = ExponentFunction(mu=mu, nu=nu, volume=volume, coefficient=coefficient)

    if nu == 0.0:
        log_norm = _log1m_exp(beta * mu)
        value = -log_norm / (beta * volume)
        # Terms a direct summation would need to certify rel_tol.
        needed = (math.log(rel_tol) + log_norm) / (beta * mu)
        if math.isinf(needed):
            # Subnormal beta*mu: the count exceeds the float range, not int's.
            needed = Fraction(math.log(rel_tol) + log_norm) / Fraction(beta * mu)
        return LaplaceResult(maximizer=0.0, sup_value=0.0, numeric_log_sum=value,
                             gap=abs(value), terms_used=max(1, math.ceil(needed)),
                             tail_bound=0.0,
                             mean_occupation=1.0 / math.expm1(-beta * mu),
                             occupation_bound=0.0)

    x_star = exponent_maximizer(f)
    peak = volume * x_star
    if not peak < 2.0 ** 52:
        raise NonConvergenceError(
            f"zero-mode series peaks at n = {peak:.3g}, beyond exact occupations")
    n_star = int(round(peak))

    def certified(w):
        # The dropped sides against a floor on the window sum that needs no
        # terms: the exponent is concave, so t(n* + j) >= e^(j*s) for
        # j = 0..w, s the chord slope from n* to n* + w.
        s = _exponent_offset(beta, f, n_star, float(n_star + w), math.sqrt) / max(w, 1)
        floor = w + 1.0 if s == 0.0 else math.expm1((w + 1) * s) / math.expm1(s)
        return sum(_side_bounds(beta, f, n_star, w)) <= 0.5 * rel_tol * floor

    # Grow from 8 sigma (sigma^-2 = |e''(n*)|), then bisect; the floor is
    # not monotone in w, so only the upper end is kept certified.
    curvature = beta * coefficient * nu * math.sqrt(volume) / (4.0 * (n_star + 1.0) ** 1.5)
    max_half = (DEFAULT_MAX_SERIES_TERMS - 1) // 2
    half = int(min(max_half, 8.0 / math.sqrt(curvature) + 1.0)) if curvature > 0.0 \
        else max_half
    fails = -1
    while not certified(half):
        if half >= max_half:
            raise NonConvergenceError(
                f"zero-mode series needs more than {DEFAULT_MAX_SERIES_TERMS} terms")
        fails, half = half, min(2 * half, max_half)
    while half - fails > 1:
        w = (fails + half) // 2
        if certified(w):
            half = w
        else:
            fails = w
    lo = max(0, n_star - half)
    window = np.exp(_window_exponents(beta, f, n_star, lo, n_star + half))
    # sum (n - n*) t_n, for <n0>; formed before `stable_sum`, whose
    # temporaries then reuse its pages instead of faulting in new ones.
    moment = float(np.dot(np.arange(lo - n_star, half + 1, dtype=float), window))
    scaled = stable_sum(window)
    left, right, left_w, right_w = _side_bounds(beta, f, n_star, half, weighted=True)
    tail = left + right
    linear = beta * mu * n_star
    root = beta * coefficient * nu * math.sqrt(volume * (n_star + 1.0))
    log_sum = linear + root + math.log(scaled)
    value = log_sum / (beta * volume)
    sup = laplace_sup(f)
    # Error in the log from the dropped sides, mapped to pressure units.
    # Those bounds are nearly tight, so the bound also carries the rounding
    # of the peak exponent, the window sum and its log.
    rounding = _EPS * ((abs(linear) + root + abs(log_sum) + 4.0) / (beta * volume)
                       + abs(value))
    bound = math.log1p(tail / scaled) / (beta * volume) + rounding
    # Dropping the sides moves <n0> by at most (weighted tails + |offset| *
    # tail) / scaled.  Inside, |n - n*| <= half: the dot product rounds by
    # gamma_count, and each t_n by its exponent's error, a few ulps of
    # beta*|n - n*|*slope, once through the moment and once through the sum.
    offset = moment / scaled
    slope = abs(mu) + coefficient * nu * math.sqrt(volume / (n_star + 1.0))
    relative = (window.size * _EPS / (1.0 - window.size * _EPS)
                + _EPS * (16.0 * beta * half * slope + 8.0))
    occupation_bound = ((left_w + right_w + abs(offset) * tail) / scaled
                        + half * relative + _EPS * (n_star + 2.0 * abs(offset)))
    return LaplaceResult(maximizer=x_star, sup_value=sup, numeric_log_sum=value,
                         gap=abs(value - sup), terms_used=window.size,
                         tail_bound=bound, mean_occupation=n_star + offset,
                         occupation_bound=occupation_bound)


def zero_mode_partial_logsum(beta: float, mu: float, nu: float, volume: float,
                             n_max: int, coefficient: float = 2.0) -> float:
    """(1/(beta*V)) log of the series truncated at occupation n_max, no tail.

    Matches an exact diagonalization of the same zero-mode Hamiltonian on
    occupations 0..n_max, which is what cross-checks use it for.
    """
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    require(n_max >= 0, "n_max must be >= 0")
    f = ExponentFunction(mu=mu, nu=nu, volume=volume, coefficient=coefficient)
    expo = _series_exponents(beta, f, n_max)
    peak = float(expo.max())
    return (peak + math.log(stable_sum(np.exp(expo - peak)))) / (beta * volume)


def zero_mode_pressure_series(point: ThermoPoint, rel_tol: float = 1e-10,
                              coefficient: float = 2.0) -> LaplaceResult:
    """`zero_mode_log_partition` evaluated at a ThermoPoint."""
    return zero_mode_log_partition(point.beta, point.mu, point.nu, point.volume,
                                   rel_tol=rel_tol, coefficient=coefficient)


def pressure_sqrt_source(point: ThermoPoint, rel_tol: float = 1e-10,
                         coefficient: float = 2.0, primed: PressureBreakdown = None,
                         series: LaplaceResult = None) -> PressureBreakdown:
    """Finite-volume pressure of the square-root-source model.

    zero_mode comes from the series, primed from the ideal-gas modes on
    the point's lattice; there is no constant part.  The model has no
    phase parameter, so the result depends on nu only through nu itself.
    A caller that already holds `pressure_ideal_primed(point)` or
    `zero_mode_pressure_series(point, rel_tol, coefficient)` passes it as
    `primed` or `series`, so that sum is not formed again.
    """
    if series is None:
        series = zero_mode_pressure_series(point, rel_tol=rel_tol, coefficient=coefficient)
    if primed is None:
        primed = pressure_ideal_primed(point)
    return PressureBreakdown(zero_mode=series.numeric_log_sum, primed=primed.primed,
                             constant=0.0,
                             truncation_bound=primed.truncation_bound + series.tail_bound)


def pressure_sqrt_source_limit(beta: float, mu: float, nu: float, d: int = 3,
                               coefficient: float = 2.0) -> float:
    """Infinite-volume pressure c^2*nu^2/(-4*mu) + ideal-gas limit pressure.

    The zero mode has vanishing weight in the continuum, so the mode part
    equals the full ideal-gas limit pressure.
    """
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    require(nu >= 0.0, "nu must be nonnegative")
    constant = -(coefficient * nu) ** 2 / (4.0 * mu)
    return constant + pressure_ideal_limit(beta, mu, d)
