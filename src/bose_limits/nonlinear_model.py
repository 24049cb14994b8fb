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
peaks at n* next to V*x_star.  In s = sqrt(n + 1) the terms are exactly a
Gaussian, e^(-a (s - s0)^2) up to a constant factor (a = -beta*mu), so
the points where they fall by log(2/rel_tol) below the peak are known in
closed form.  The window [max(0, n* - W), n* + W] reaches the right one,
the farther from n*.  By concavity, each side outside it is bounded by a
geometric series whose first term is the first dropped term and whose
ratio is e^Delta, Delta the exponent step across that window edge.  One
scalar check decides W before any term is formed: both bounds must be
below rel_tol/2 times the geometric series under the chord of the
exponent from n* to n* + W, a floor on the window sum.  If it misses, W
doubles.

Closed form: from the left point on, the series is the trapezoidal rule
over an integral that is a closed form in exp and erfc, and its remainder
is bounded on a strip of the complex plane (Abel-Plana), where it falls
exponentially in the Laplace width; the left side keeps its geometric
bound.  That costs O(1) at any V and is used whenever the left bound, the
remainder and the rounding fit rel_tol/2 of the sum.  Narrower peaks sum
the window's terms.  Exponents are formed relative to e(n*) without
cancellation, and sums relative to the peak term; beta*V*g exceeds the
floating-point exponent range long before the physics gets large.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MAX_ALLOC_BYTES, DomainError, NonConvergenceError, require
from .lattice_ideal import (_EPS, PressureBreakdown, _free_zero_occupation,
                            _free_zero_pressure, _log1m_exp, _require_stable,
                            pressure_ideal_limit)
from .summation import stable_sum

__all__ = [
    "ExponentFunction",
    "LaplaceResult",
    "exponent_eval",
    "exponent_maximizer",
    "laplace_sup",
    "zero_mode_log_partition",
    "zero_mode_partial_logsum",
    "pressure_sqrt_source",
    "pressure_sqrt_source_limit",
]

# Peak bytes per term of the window: four float arrays in
# `_window_exponents`.  The window length is known before it is allocated,
# so its term count is checked against this fixed ceiling first.  The
# closed form allocates no window, so the ceiling does not bound it.
SERIES_BYTES_PER_TERM = 32
DEFAULT_MAX_SERIES_TERMS = MAX_ALLOC_BYTES // SERIES_BYTES_PER_TERM
_LOG_MAX = math.log(sys.float_info.max)


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
    V*numeric_log_sum; occupation_bound bounds its absolute error.  method
    names the path that certified them: "closed_form" (trapezoidal rule) or
    "window" for nu > 0, and "geometric" for nu = 0, whose value is the
    exact log-sum -log(1 - e^(beta*mu))/(beta*V) and whose terms_used
    counts the terms a direct sum would need.
    """

    maximizer: float
    sup_value: float
    numeric_log_sum: float
    terms_used: int
    tail_bound: float
    mean_occupation: float
    occupation_bound: float
    method: str = "window"

    def __post_init__(self):
        require(self.maximizer >= 0.0, "maximizer must be >= 0")
        require(self.terms_used >= 1, "terms_used must be >= 1")

    @property
    def gap(self) -> float:
        return abs(self.numeric_log_sum - self.sup_value)


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


def _side_bounds(beta: float, f: ExponentFunction, n_star: int, half: int) -> tuple:
    """Bounds on the terms left and right of [max(0, n* - half), n* + half].

    Returns (left, right, left weighted, right weighted), all relative to
    e^(e(n*)).  Concavity makes the exponent step across an edge an upper
    bound on every later step, so a dropped side is at most
    first / (1 - r), r = e^step; the left side has only n* - half terms, so
    it is also at most that many times its first term.  The weighted
    bounds are on the sums of |n - n*| times the terms.  On either
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
    return left, right, left_weighted, right_weighted


def _trapezoid(beta: float, f: ExponentFunction, n_star: int, half: int):
    """Sums of t_n and n*t_n over n >= max(0, n* - half) by the trapezoidal rule, or None.

    With m = n + 1 the terms are F(m) = e^h(m), h(m) = -a(m - 1) + b*sqrt(m),
    a = -beta*mu and b = beta*c*nu*sqrt(V).  From A = max(1, n* - half + 1)
    on, sum F = int_A^inf F + F(A)/2 + R.  The integral is a closed form in
    exp and erfc: with s = sqrt(m) = u + s0, s0 = b/(2a), it is
    2 e^(h_max) int_{u0}^inf (u + s0) e^(-a u^2) du, u0 = sqrt(A) - s0 < 0,
    and every part is positive.  By Abel-Plana on the strip |Im m| <= d, R
    is an integral over the edge m = A + iy, 0 < y < d, against
    1/(e^(2 pi y) - 1), plus integrals over the lines Im m = +-d against at
    most 1/(e^(2 pi d) - 1).  Re sqrt(x + iy) <= sqrt(x) + y^2/(8 x^1.5)
    gives |F(x + iy)| <= F(x) e^(k y^2) for x >= A, k = b/(8 A^1.5), and
    |h'(A + iy)| <= |h'(A)| + 2k|y|.  At d = pi/k, where k y^2 <= pi y, the
    lines contribute at most int F / sinh(pi d) and the edge at most
    F(A) (|h'(A)|/4 + 0.28 k), from int y^j / (2 sinh(pi y)) dy = 1/8,
    7 zeta(3)/(4 pi^3) and 1/16 for j = 1, 2, 3.  The moment is the same
    rule for m F, whose modulus carries |m| <= x + d, less the sum.
    Returns (sum, moment, sum error, moment error), relative to t_{n*};
    each error bounds R plus rounding.  None unless A lies left of the
    continuous peak s0^2.
    """
    lo = max(0, n_star - half)
    a = -beta * f.mu
    b = beta * f.coefficient * f.nu * math.sqrt(f.volume)
    edge = lo + 1.0
    s0 = b / (2.0 * a)
    u0 = math.sqrt(edge) - s0
    if not u0 < 0.0:
        return None
    # log(sup F / F(n* + 1)) = a*(sqrt(n* + 1) - s0)^2, without cancellation.
    delta = (n_star + 1.0 - s0 * s0) / (math.sqrt(n_star + 1.0) + s0)
    c = a * delta * delta
    if c > _LOG_MAX:  # e^c, the peak's height over t_{n*}, overflows
        return None
    # j_k = e^c * int_{u0}^inf u^k e^(-a u^2) du.  Only j2 has a negative
    # part, at most half of its positive one.
    gauss = math.exp(c - a * u0 * u0)
    j0 = 0.5 * math.sqrt(math.pi / a) * math.erfc(math.sqrt(a) * u0) * math.exp(c)
    j1 = gauss / (2.0 * a)
    j2 = (u0 * gauss + j0) / (2.0 * a)
    j3 = (a * u0 * u0 + 1.0) * gauss / (2.0 * a * a)
    integral = 2.0 * (j1 + s0 * j0)
    integral_moment = 2.0 * (j3 + 3.0 * s0 * j2 + (3.0 * s0 * s0 - 1.0) * j1
                             + s0 * (s0 * s0 - 1.0) * j0)
    t = math.exp(_exponent_offset(beta, f, n_star, float(lo), math.sqrt))
    w = float(lo)  # the weight m - 1 at A
    total = integral + 0.5 * t
    moment = integral_moment + 0.5 * w * t
    # h'(A) = -a*u0/sqrt(A) > 0, without cancellation; 1/sinh(pi d) for
    # d = pi/k, formed without overflow.
    slope = -a * u0 / math.sqrt(edge)
    k = b / (8.0 * edge ** 1.5)
    d = math.pi / k
    strip = 2.0 * math.exp(-math.pi * d) / -math.expm1(-2.0 * math.pi * d)
    remainder = integral * strip + t * (0.25 * slope + 0.28 * k)
    # The rule for m F adds its own: int m F = integral_moment + integral.
    remainder_moment = (remainder + (integral_moment + (1.0 + d) * integral) * strip
                        + t * (0.25 * (1.0 + edge * slope) + 0.14 * (slope + 2.0 * k * edge)
                               + 0.25 * k))
    # Rounding: a few ulps per operation and the exponents' absolute errors,
    # plus u0's error of ~2 ulps of s0, which moves an integral by its
    # integrand at A times 2*sqrt(A) <= 2*s0 per unit of u0.
    rho = _EPS * (64.0 + 8.0 * (a + c + a * u0 * u0))
    rounding = rho * (integral + t) + 8.0 * _EPS * s0 * s0 * t
    rounding_moment = rho * (integral_moment + w * t) + 8.0 * _EPS * s0 * s0 * w * t
    sums = (total, moment, remainder + rounding, remainder_moment + rounding_moment)
    return sums if all(map(math.isfinite, sums)) else None


def _closed_form_sums(beta: float, f: ExponentFunction, n_star: int, half: int,
                      rel_tol: float):
    """Series sum and <n0> from `_trapezoid`, or None if they miss rel_tol.

    Returns (sum relative to t_{n*}, bound on |log(series / sum)|, <n0>,
    bound on its error).  The terms left of n* - half are dropped and
    bounded by `_side_bounds`; all others are in the trapezoidal sums.  Both
    the sum's and the moment's errors must fit rel_tol/2 of their values.
    """
    closed = _trapezoid(beta, f, n_star, half)
    if closed is None:
        return None
    total, moment, total_error, moment_error = closed
    left, _, left_w, _ = _side_bounds(beta, f, n_star, half)
    mean = moment / total
    error = left + total_error
    # sum (n - <n0>) t_n moves by the moment's error plus <n0> times the
    # sum's, and on the left by at most left_w + |<n0> - n*| * left.
    moment_error += mean * total_error
    if not (error <= 0.5 * rel_tol * total and moment_error <= 0.5 * rel_tol * moment):
        return None
    occupation_bound = ((left_w + abs(mean - n_star) * left + moment_error)
                        / (total - error) + _EPS * mean)
    return total, -math.log1p(-error / total), mean, occupation_bound


def _window_sums(beta: float, f: ExponentFunction, n_star: int, half: int) -> tuple:
    """Series sum and <n0> over the window [max(0, n* - half), n* + half].

    Returns what `_closed_form_sums` does; both dropped sides are bounded
    by `_side_bounds`.
    """
    lo = max(0, n_star - half)
    window = np.exp(_window_exponents(beta, f, n_star, lo, n_star + half))
    # sum (n - n*) t_n, for <n0>; formed before `stable_sum`, whose
    # temporaries then reuse its pages instead of faulting in new ones.
    moment = float(np.dot(np.arange(lo - n_star, half + 1, dtype=float), window))
    scaled = stable_sum(window)
    left, right, left_w, right_w = _side_bounds(beta, f, n_star, half)
    tail = left + right
    # Dropping the sides moves <n0> by at most (weighted tails + |offset| *
    # tail) / scaled.  Inside, |n - n*| <= half: the dot product rounds by
    # gamma_count, and each t_n by its exponent's error, a few ulps of
    # beta*|n - n*|*slope, once through the moment and once through the sum.
    offset = moment / scaled
    slope = abs(f.mu) + f.coefficient * f.nu * math.sqrt(f.volume / (n_star + 1.0))
    relative = (window.size * _EPS / (1.0 - window.size * _EPS)
                + _EPS * (16.0 * beta * half * slope + 8.0))
    occupation_bound = ((left_w + right_w + abs(offset) * tail) / scaled
                        + half * relative + _EPS * (n_star + 2.0 * abs(offset)))
    return scaled, math.log1p(tail / scaled), n_star + offset, occupation_bound


def zero_mode_log_partition(beta: float, mu: float, nu: float, volume: float,
                            rel_tol: float = 1e-10, coefficient: float = 2.0) -> LaplaceResult:
    """Zero-mode pressure (1/(beta*V)) log sum_n e^(beta*V*g(n/V)) with tail bound.

    For nu = 0 the series is geometric and is returned in closed form
    (`method` "geometric", tail bound zero).  Otherwise the half-width W
    of a window around the Laplace peak is chosen first (see the module
    docstring), and `terms_used` is that window's length.  The series is
    then evaluated by the trapezoidal rule over the closed-form integral
    (`method` "closed_form") when its error fits rel_tol/2 of the sum, and
    otherwise summed over the window ("window").  `tail_bound` maps the
    bounded parts (the dropped sides, or the left side and the
    remainder), plus rounding, to pressure units.  `mean_occupation` <n0>
    comes from the same sums weighted by n, and `occupation_bound` bounds
    its error.  For nu = 0 it is 1/(e^(-beta*mu) - 1), exactly.

    Raises NonConvergenceError if the peak lies beyond exactly
    representable occupations, or if the closed form does not certify and
    the window would exceed DEFAULT_MAX_SERIES_TERMS terms.  Both are
    decided before any window is allocated.
    """
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    f = ExponentFunction(mu=mu, nu=nu, volume=volume, coefficient=coefficient)

    if nu == 0.0:
        value = _free_zero_pressure(beta, mu, volume)
        # Terms a direct summation would need to certify rel_tol.
        log_norm = _log1m_exp(beta * mu)
        needed = (math.log(rel_tol) + log_norm) / (beta * mu)
        if math.isinf(needed):
            # Subnormal beta*mu: the count exceeds the float range, not int's.
            needed = Fraction(math.log(rel_tol) + log_norm) / Fraction(beta * mu)
        return LaplaceResult(maximizer=0.0, sup_value=0.0, numeric_log_sum=value,
                             terms_used=max(1, math.ceil(needed)), tail_bound=0.0,
                             mean_occupation=_free_zero_occupation(beta, mu),
                             occupation_bound=0.0, method="geometric")

    x_star = exponent_maximizer(f)
    peak = volume * x_star
    if not peak < 2.0 ** 52:
        raise NonConvergenceError(
            f"zero-mode series peaks at n = {peak:.3g}, beyond exact occupations")
    # Every sum below is relative to t_{n*}, the largest term: by concavity
    # floor(V*x*) or the next, which at large beta differ by e^(beta*O(1)).
    n_star = math.floor(peak)
    if _exponent_offset(beta, f, n_star, n_star + 1.0, math.sqrt) > 0.0:
        n_star += 1

    def certified(w):
        # The dropped sides against a floor on the window sum that needs no
        # terms: the exponent is concave, so t(n* + j) >= e^(j*s) for
        # j = 0..w, s the chord slope from n* to n* + w.
        s = _exponent_offset(beta, f, n_star, float(n_star + w), math.sqrt) / max(w, 1)
        floor = w + 1.0 if s == 0.0 else math.expm1((w + 1) * s) / math.expm1(s)
        left, right = _side_bounds(beta, f, n_star, w)[:2]
        return left + right <= 0.5 * rel_tol * floor

    # One step: in s = sqrt(n + 1) the terms are e^(-a (s - s0)^2) up to a
    # factor, a = -beta*mu and s0 = c*nu*sqrt(V)/(2|mu|), so they fall by
    # L = log(2/rel_tol) below that Gaussian's top at s = s0 +- r,
    # r = sqrt(L/a).  The window reaches the right point, and doubles up to
    # its ceiling (or to n*, past which only the closed form runs) if its
    # sides miss.  The closed form cuts at the left point, or at n = 0.
    s0 = coefficient * nu * math.sqrt(volume) / (-2.0 * mu)
    fall = max(0.0, math.log(2.0 / rel_tol))
    r = math.sqrt(fall / (-beta * mu)) if beta * mu < 0.0 else math.inf
    right = (s0 + r) * (s0 + r) - (n_star + 1.0)
    cut = (s0 - r) * (s0 - r) if r < s0 else 0.0
    left = min(n_star, max(0, math.ceil(n_star + 1.0 - cut)))
    limit = max((DEFAULT_MAX_SERIES_TERMS - 1) // 2, n_star)
    half = max(0, math.ceil(right)) if right < math.inf else limit
    while not certified(half):
        if half >= limit:
            raise NonConvergenceError(
                f"zero-mode series needs more than {DEFAULT_MAX_SERIES_TERMS} terms")
        half = min(2 * half + 1, limit)
    terms_used = n_star + half - max(0, n_star - half) + 1
    method = "closed_form"
    sums = _closed_form_sums(beta, f, n_star, left, rel_tol)
    if sums is None:
        if terms_used > DEFAULT_MAX_SERIES_TERMS:
            raise NonConvergenceError(
                f"zero-mode series needs more than {DEFAULT_MAX_SERIES_TERMS} terms")
        method = "window"
        sums = _window_sums(beta, f, n_star, half)
    scaled, log_error, mean, occupation_bound = sums
    linear = beta * mu * n_star
    root = beta * coefficient * nu * math.sqrt(volume * (n_star + 1.0))
    log_sum = linear + root + math.log(scaled)
    value = log_sum / (beta * volume)
    sup = laplace_sup(f)
    # Error in the log from the dropped or bounded parts, mapped to pressure
    # units.  Those bounds are nearly tight, so the bound also carries the
    # rounding of the peak exponent, the sum and its log.
    rounding = _EPS * ((abs(linear) + root + abs(log_sum) + 4.0) / (beta * volume)
                       + abs(value))
    return LaplaceResult(maximizer=x_star, sup_value=sup, numeric_log_sum=value,
                         terms_used=terms_used,
                         tail_bound=log_error / (beta * volume) + rounding,
                         mean_occupation=mean, occupation_bound=occupation_bound,
                         method=method)


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
    n = np.arange(n_max + 1, dtype=float)
    expo = beta * (f.mu * n + f.coefficient * f.nu * np.sqrt(f.volume * (n + 1.0)))
    peak = float(expo.max())
    return (peak + math.log(stable_sum(np.exp(expo - peak)))) / (beta * volume)


def pressure_sqrt_source(primed: PressureBreakdown,
                         series: LaplaceResult) -> PressureBreakdown:
    """Finite-volume pressure of the square-root-source model.

    zero_mode is `series.numeric_log_sum`, the zero-mode series
    (`zero_mode_log_partition`) at the point's beta, mu, nu and volume;
    primed is `primed.primed`, the ideal-gas pressure of the p != 0 modes
    on its lattice.  There is no constant part, and the bound adds both
    parts' bounds.  The two parts carry all the result depends on.
    """
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
