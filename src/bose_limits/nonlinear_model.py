"""Symmetry-preserving square-root perturbation of the ideal Bose gas.

The zero mode carries the diagonal source -c*nu*sqrt(V)*sqrt(n0 + 1)
(coefficient c = 2 by default), so its grand-canonical pressure is the
log of a scalar series,

    (1/(beta*V)) * log sum_n exp(beta*V * g(n/V)),
    g(x) = (mu - lambda0)*x + c*nu*sqrt(x + 1/V),

a Darboux sum whose infinite-volume value is sup g by the Laplace
principle.  This module evaluates the exponent family, its maximizer and
supremum, and the series itself with a certified geometric tail bound.

Series truncation: beyond n0 = V*max(4*x_star, (2*c*nu/mu)^2) the term
exponents are dominated by beta*mu*n0/2 plus a constant, so the dropped
tail is bounded by an explicit geometric sum.  The partition sum is
accumulated relative to its largest term; beta*V*g can exceed the
floating-point exponent range long before the physics gets large.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, require
from .lattice_ideal import (PressureBreakdown, ThermoPoint, _log1m_exp,
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

DEFAULT_MAX_SERIES_TERMS = 50_000_000


@dataclass(frozen=True)
class ExponentFunction:
    """The concave exponent g(x) = (mu - lambda0)*x + coefficient*nu*sqrt(x + 1/V).

    Defined on [0, inf); strictly concave wherever nu > 0.  lambda0 is the
    zero-mode energy and is 0 for the models treated here; it is kept as a
    field so the concavity analysis stays reusable.
    """

    mu: float
    nu: float
    volume: float
    lambda0: float = 0.0
    coefficient: float = 2.0

    def __post_init__(self):
        require(self.volume > 0.0, "volume must be positive")
        require(self.nu >= 0.0, "nu must be nonnegative")
        require(self.coefficient > 0.0, "coefficient must be positive")


def exponent_eval(f: ExponentFunction, x: float) -> float:
    if x < 0.0:
        raise DomainError("exponent domain is [0, inf)")
    return (f.mu - f.lambda0) * x + f.coefficient * f.nu * math.sqrt(x + 1.0 / f.volume)


def exponent_second_derivative(f: ExponentFunction, x: float) -> float:
    """Analytic g''(x) = -(coefficient*nu/4) * (x + 1/V)^(-3/2)."""
    if x < 0.0:
        raise DomainError("exponent domain is [0, inf)")
    return -0.25 * f.coefficient * f.nu * (x + 1.0 / f.volume) ** -1.5


def exponent_maximizer(f: ExponentFunction) -> float:
    """Global maximizer of g on [0, inf), clamped to the boundary at 0.

    The interior stationary point is (c*nu / (2*(lambda0 - mu)))^2 - 1/V;
    for volumes too small to make it nonnegative the maximum sits at 0.
    """
    if f.mu >= f.lambda0:
        raise DomainError("maximizer requires mu < lambda0")
    interior = (f.coefficient * f.nu / (2.0 * (f.lambda0 - f.mu))) ** 2 - 1.0 / f.volume
    return max(0.0, interior)


def laplace_sup(f: ExponentFunction) -> float:
    """sup of g over [0, inf), evaluated at the (clamped) maximizer.

    Needs the decay hypothesis g(x) < -alpha*x for large x, which holds
    exactly when mu < lambda0.  For the interior case the value is
    c^2*nu^2/(4*(lambda0-mu)) + (lambda0-mu)/V, with infinite-volume limit
    -c^2*nu^2/(4*mu) at lambda0 = 0.
    """
    if f.mu >= f.lambda0:
        raise DomainError("decay hypothesis fails for mu >= lambda0")
    return exponent_eval(f, exponent_maximizer(f))


@dataclass(frozen=True)
class LaplaceResult:
    """Zero-mode series value together with its Laplace-principle data.

    gap = |numeric_log_sum - sup_value|; for the generic series path the
    signed difference lies in [0, log(terms_used)/(beta*V)] up to the
    reported tail bound, because every term is at most e^(beta*V*sup).
    """

    maximizer: float
    sup_value: float
    numeric_log_sum: float
    gap: float
    terms_used: int
    tail_bound: float

    def __post_init__(self):
        require(self.maximizer >= 0.0, "maximizer must be >= 0")
        require(self.terms_used >= 1, "terms_used must be >= 1")
        require(self.gap >= 0.0, "gap must be >= 0")


def _series_cutoff(f: ExponentFunction) -> int:
    x_star = exponent_maximizer(f)
    dominated = (2.0 * f.coefficient * f.nu / f.mu) ** 2
    return int(math.ceil(f.volume * max(4.0 * x_star, dominated))) + 64


def _series_exponents(beta: float, f: ExponentFunction, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    return beta * ((f.mu - f.lambda0) * n
                   + f.coefficient * f.nu * np.sqrt(f.volume * (n + 1.0)))


def zero_mode_log_partition(beta: float, mu: float, nu: float, volume: float,
                            rel_tol: float = 1e-10, coefficient: float = 2.0,
                            max_terms: int = DEFAULT_MAX_SERIES_TERMS) -> LaplaceResult:
    """Zero-mode pressure (1/(beta*V)) log sum_n e^(beta*V*g(n/V)) with tail bound.

    For nu = 0 the series is geometric and is returned in closed form
    (tail bound zero).  Otherwise the sum runs to the certified cutoff and
    is extended by doubling until the geometric tail bound is below
    rel_tol times the partial sum.

    Raises NonConvergenceError if `max_terms` would be exceeded.
    """
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    f = ExponentFunction(mu=mu, nu=nu, volume=volume, coefficient=coefficient)

    if nu == 0.0:
        value = -_log1m_exp(beta * mu) / (beta * volume)
        # Terms a direct summation would need to certify rel_tol.
        terms = max(1, int(math.ceil(math.log(rel_tol * -math.expm1(beta * mu))
                                     / (beta * mu))))
        return LaplaceResult(maximizer=0.0, sup_value=0.0, numeric_log_sum=value,
                             gap=abs(value), terms_used=terms, tail_bound=0.0)

    n_stop = _series_cutoff(f)
    while True:
        if n_stop > max_terms:
            raise NonConvergenceError(
                f"zero-mode series needs more than {max_terms} terms")
        expo = _series_exponents(beta, f, n_stop)
        peak = float(expo.max())
        scaled = stable_sum(np.exp(expo - peak))
        # Beyond n_stop the exponents obey e_n <= beta*mu*n/2 + const, so the
        # dropped tail is geometric with ratio e^(beta*mu/2).
        const = beta * (0.5 * coefficient * nu) * math.sqrt(volume / (n_stop + 1.0))
        log_tail_head = const + 0.5 * beta * mu * (n_stop + 1.0) - peak
        tail = math.exp(log_tail_head) / -math.expm1(0.5 * beta * mu) \
            if log_tail_head > -700.0 else 0.0
        if tail <= rel_tol * scaled:
            break
        n_stop *= 2

    value = (peak + math.log(scaled)) / (beta * volume)
    sup = laplace_sup(f)
    # Error in the log from the dropped tail, mapped to pressure units.
    bound = math.log1p(tail / scaled) / (beta * volume)
    return LaplaceResult(maximizer=exponent_maximizer(f), sup_value=sup,
                         numeric_log_sum=value, gap=abs(value - sup),
                         terms_used=n_stop + 1, tail_bound=bound)


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
                         coefficient: float = 2.0) -> PressureBreakdown:
    """Finite-volume pressure of the square-root-source model.

    zero_mode comes from the series, primed from the ideal-gas modes on
    the point's lattice; there is no constant part.  The model has no
    phase parameter, so the result depends on nu only through nu itself.
    """
    series = zero_mode_pressure_series(point, rel_tol=rel_tol, coefficient=coefficient)
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
