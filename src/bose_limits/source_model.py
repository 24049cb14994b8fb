"""Ideal Bose gas with a linear symmetry-breaking source on the zero mode.

The source term -nu*sqrt(V)*(a0*e^{-i phi} + a0^dagger*e^{i phi}) is removed
exactly by displacing the zero mode by -(nu/mu)*e^{i phi}*sqrt(V), which
leaves a free mode at energy -mu plus the extensive constant nu^2*V/mu.
All finite-volume quantities of this model therefore have closed forms,
and the displaced-field averages give the condensate amplitude directly.
The pressure does not depend on phi, so the package fixes phi = 0.

The zero-mode pressure is -(1/(beta*V))*log(1 - e^{beta*mu}), the positive
sign being fixed by the partition sum of the displaced mode,
sum_n e^{beta*mu*n} = (1 - e^{beta*mu})^{-1}; its mu-derivative reproduces
the depletion density (1/V)*(e^{-beta*mu} - 1)^{-1} term by term.
"""

import math

from .errors import require
from .lattice_ideal import (PressureBreakdown, ThermoPoint, _free_zero_occupation,
                            _free_zero_pressure, _require_stable, pressure_ideal_primed)

__all__ = [
    "pressure_source",
    "condensate_density_source",
    "zero_mode_depletion",
    "solve_mu_finite",
    "mu_star",
]


def pressure_source(point: ThermoPoint,
                    primed: PressureBreakdown = None) -> PressureBreakdown:
    """Exact finite-volume pressure of the linear-source model.

    zero_mode = -(1/(beta*V))*log(1 - e^{beta*mu}), constant = -nu^2/mu,
    primed = ideal-gas pressure of the p != 0 modes on the point's lattice.
    Both non-primed parts are nonnegative for mu < 0, nu >= 0.  A caller
    that already holds `pressure_ideal_primed(point)` passes it as `primed`,
    so the sum is not formed again.
    """
    beta, mu, nu = point.beta, point.mu, point.nu
    _require_stable(mu)
    if primed is None:
        primed = pressure_ideal_primed(point)
    return PressureBreakdown(zero_mode=_free_zero_pressure(beta, mu, point.volume),
                             primed=primed.primed, constant=-nu * nu / mu,
                             truncation_bound=primed.truncation_bound)


def condensate_density_source(mu: float, nu: float) -> float:
    """Condensate density nu^2/mu^2 (temperature independent)."""
    _require_stable(mu)
    require(nu >= 0.0, "nu must be nonnegative")
    return nu * nu / (mu * mu)


def zero_mode_depletion(beta: float, mu: float, volume: float) -> float:
    """Thermal population (1/V)*(e^{-beta*mu} - 1)^{-1} of the displaced mode."""
    require(beta > 0.0, "beta must be positive")
    require(volume > 0.0, "volume must be positive")
    _require_stable(mu)
    # Occupation first, then per volume, as the nu = 0 series mean divides.
    return _free_zero_occupation(beta, mu) / volume


def solve_mu_finite(beta: float, volume: float, rho0: float, nu: float) -> float:
    """Finite-volume chemical potential at fixed condensate density rho0.

    Solves the small-mu quadratic beta*V*rho0*mu^2 + mu - beta*V*nu^2 = 0
    and returns its negative root,
    mu = -(1 + sqrt(1 + (2*beta*V*nu)^2 * rho0)) / (2*beta*V*rho0).
    """
    require(beta > 0.0 and volume > 0.0, "beta and volume must be positive")
    require(rho0 > 0.0, "rho0 must be positive")
    require(nu >= 0.0, "nu must be nonnegative")
    a = beta * volume * rho0
    disc = 1.0 + (2.0 * beta * volume * nu) ** 2 * rho0
    return -(1.0 + math.sqrt(disc)) / (2.0 * a)


def mu_star(rho0: float, nu: float) -> float:
    """Infinite-volume chemical potential -nu/sqrt(rho0)."""
    require(rho0 > 0.0, "rho0 must be positive")
    require(nu >= 0.0, "nu must be nonnegative")
    return -nu / math.sqrt(rho0)
