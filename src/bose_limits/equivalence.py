"""Equivalence checks between the linear-source and square-root-source gases.

At infinite volume the two perturbed ideal gases have the same pressure
and the same temperature-independent condensate density nu^2/mu^2.  At
finite volume their pressure difference reduces exactly to zero-mode and
constant terms (the p != 0 parts cancel identically on a shared lattice),
which makes the convergence claim testable as a rate fit on a ladder of
box sides, and gives the condensate densities rho - rho' from the zero
mode alone.  Limit densities are recovered by differentiating pressures
in mu (convex in mu, so the derivative of the limit is the limit of the
derivatives wherever it exists).
"""

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import NonConvergenceError, StepSizeError, require
from .lattice_ideal import (_U, PressureBreakdown, ThermoPoint, _free_zero_pressure,
                            _theta_series, build_lattice, critical_density_limit)
from .nonlinear_model import (LaplaceResult, pressure_sqrt_source,
                              pressure_sqrt_source_limit, zero_mode_log_partition)
from .source_model import (condensate_density_source, pressure_source,
                           zero_mode_depletion)

__all__ = [
    "ConvergenceLadder",
    "CondensateDensity",
    "DensityReport",
    "RateFit",
    "EquivalenceResult",
    "PressurePair",
    "delta_pressure",
    "delta_pressure_closed_form",
    "density_from_pressure",
    "density_limit",
    "condensate_temperature_spread",
    "fit_rate",
    "pressure_pair",
    "pressure_pairs",
    "verify_equivalence",
]

# Pass thresholds of `verify_equivalence` and `density_from_pressure`.
RATE_THRESHOLD = 0.9
CONDENSATE_TOL = 1e-4
ONESIDED_TOL = 1e-3
CONVEXITY_TOL = 1e-10


@dataclass(frozen=True)
class ConvergenceLadder:
    """A quantity evaluated on increasing box sides, with an optional rate fit.

    `fitted_rate` is the exponent r in |value| ~ C * V^(-r),
    fitted in log-log coordinates over V = side^d; it is populated only
    when at least three rungs exist.
    """

    d: int
    sides: tuple
    values: tuple
    fitted_rate: Optional[float] = None
    fit_residual: Optional[float] = None

    def __post_init__(self):
        require(len(self.sides) == len(self.values), "sides/values length mismatch")
        require(all(b > a for a, b in zip(self.sides, self.sides[1:])),
                "sides must be strictly increasing")
        require(all(math.isfinite(v) for v in self.values), "values must be finite")

    @property
    def volumes(self) -> tuple:
        return tuple(float(s) ** self.d for s in self.sides)

    @property
    def gaps(self) -> tuple:
        return tuple(abs(v) for v in self.values)


class RateFit(NamedTuple):
    rate: float
    residual: float


class CondensateDensity(NamedTuple):
    """A condensate density rho_0 = rho - rho', formed from the zero mode alone."""

    rho_0: float


@dataclass(frozen=True)
class DensityReport:
    """Total, critical, and condensate densities at one point."""

    rho_total: float
    rho_c: float

    def __post_init__(self):
        require(self.rho_c >= 0.0, "rho_c must be nonnegative")

    @property
    def rho_0(self) -> float:
        return self.rho_total - self.rho_c


class PressurePair(NamedTuple):
    """Both models' pressures at one point, sharing their p != 0 part.

    `series` is the square-root model's zero-mode series, whose weights
    also give its condensate density.  `closed_form` is the pressure gap
    from `delta_pressure_closed_form`, assembled apart from the two
    breakdowns, so `identity_rel_err` checks their totals.
    """

    linear: PressureBreakdown
    sqrt: PressureBreakdown
    series: LaplaceResult
    closed_form: float

    @property
    def delta(self) -> float:
        """Linear source minus square-root source, as the totals subtract."""
        return self.linear.total - self.sqrt.total

    @property
    def identity_rel_err(self) -> float:
        """|delta - closed_form| relative to the closed form."""
        return abs(self.delta - self.closed_form) / max(abs(self.closed_form), 1e-300)

    @property
    def identity_bound(self) -> float:
        """What rounding alone can put between `delta` and `closed_form`.

        The forms share every part and differ in six additions: two in the
        linear total, one in the square-root total, their difference and
        two in the closed form.  Each rounds by at most u = 2^-53 times its
        result, and every part but the series is nonnegative, so no result
        exceeds |p_lin| + |p_sqrt| + |closed form|; gamma_6 = 6u/(1 - 6u)
        times that sum bounds all six.
        """
        return 6.0 * _U / (1.0 - 6.0 * _U) * (abs(self.linear.total) + abs(self.sqrt.total)
                                             + abs(self.closed_form))

    def passed(self, rel_tol: float) -> bool:
        """`delta` within `identity_bound` of the closed form, and each
        model's `truncation_bound` at most `rel_tol` times its total."""
        return (abs(self.delta - self.closed_form) <= self.identity_bound
                and all(p.truncation_bound <= rel_tol * abs(p.total)
                        for p in (self.linear, self.sqrt)))


def pressure_pairs(grids: Sequence, mus: Sequence[float], nus: Sequence[float],
                   rel_tol: float = 1e-10, coefficient: float = 2.0) -> list:
    """[(point, pair, seconds)] for each (beta, lattice) of `grids`, then each mu, then each nu.

    One `_theta_series` call gives each (beta, lattice, mu) the p != 0 sum
    both models share at every nu; each pair's zero-mode series serves the
    square-root model and the closed form.  `seconds` is the pair's own time
    plus an even share of the pass.  A total of 0 (both are positive for
    mu < 0) has underflowed, so no bound is rel_tol of it: NonConvergenceError.
    """
    start = time.perf_counter()
    sums = _theta_series(grids, mus, 1, rel_tol)
    share = (time.perf_counter() - start) / (len(grids) * len(mus) * len(nus))
    out = []
    for ((beta, lattice), by_mu), mu, nu in itertools.product(zip(grids, sums), mus, nus):
        start = time.perf_counter() - share
        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice)
        primed = PressureBreakdown(zero_mode=0.0, primed=by_mu[mu][0], constant=0.0,
                                   truncation_bound=by_mu[mu][1])
        series = zero_mode_log_partition(beta, mu, nu, point.volume, rel_tol=rel_tol,
                                         coefficient=coefficient)
        pair = PressurePair(linear=pressure_source(point, primed),
                            sqrt=pressure_sqrt_source(primed, series), series=series,
                            closed_form=delta_pressure_closed_form(point, series))
        if not (pair.linear.total > 0.0 and pair.sqrt.total > 0.0):
            raise NonConvergenceError(
                f"the pressures underflow (p_linear = {pair.linear.total}, p_sqrt = "
                f"{pair.sqrt.total} at beta*mu = {beta * mu}): no relative "
                f"certificate exists")
        out.append((point, pair, time.perf_counter() - start))
    return out


def pressure_pair(point: ThermoPoint, rel_tol: float = 1e-10,
                  coefficient: float = 2.0) -> PressurePair:
    """Both pressures at one point: `pressure_pairs` on the point alone."""
    ((_, pair, _),) = pressure_pairs(((point.beta, point.lattice),), (point.mu,), (point.nu,),
                                     rel_tol=rel_tol, coefficient=coefficient)
    return pair


def delta_pressure(point: ThermoPoint) -> float:
    """Finite-volume pressure difference, linear source minus sqrt source.

    Both models share one p != 0 sum on the point's lattice, so it cancels
    in the subtraction up to rounding and the result equals
    `delta_pressure_closed_form` to near machine precision.  Negative for
    nu > 0 at finite volume; tends to 0 as V grows.
    """
    return pressure_pair(point).delta


def delta_pressure_closed_form(point: ThermoPoint, series: LaplaceResult) -> float:
    """The same difference assembled from zero-mode and constant terms only.

    `series` is the point's zero-mode series (`zero_mode_log_partition`).
    """
    beta, mu, nu, v = point.beta, point.mu, point.nu, point.volume
    return (_free_zero_pressure(beta, mu, v) - nu * nu / mu) - series.numeric_log_sum


def density_from_pressure(pressure_of_mu: Callable[[float], float],
                          point: ThermoPoint,
                          h: float = None,
                          rho_c_of_mu: Callable[[float], float] = None) -> DensityReport:
    """Particle density as a central mu-derivative of a pressure evaluator.

    Parameters
    ----------
    pressure_of_mu : callable
        mu -> pressure at fixed (beta, nu, lattice or limit).
    point : ThermoPoint
        Supplies mu (and beta for defaults); mu + h must stay below 0.
    h : float, optional
        Step; defaults to max(1e-5, |mu| * 1e-4).  A second evaluation at
        h/2 is not performed here; instead the two one-sided differences
        must agree within ONESIDED_TOL, which bounds h * p'' directly.
    rho_c_of_mu : callable, optional
        mu -> critical density matched to the evaluator (finite or limit).
        Defaults to 0, in which case rho_0 equals rho_total.

    Raises
    ------
    StepSizeError
        If mu + h >= 0, the one-sided differences disagree by more than
        ONESIDED_TOL, or the three-point stencil violates convexity.
    """
    mu = point.mu
    if h is None:
        h = max(1e-5, abs(mu) * 1e-4)
    require(h > 0.0, "h must be positive")
    if mu + h >= 0.0:
        raise StepSizeError("mu + h must remain below 0")

    p_minus = pressure_of_mu(mu - h)
    p_center = pressure_of_mu(mu)
    p_plus = pressure_of_mu(mu + h)

    second = p_plus + p_minus - 2.0 * p_center
    if second < -CONVEXITY_TOL * max(1.0, abs(p_center)):
        raise StepSizeError(f"pressure stencil is not convex in mu (D2={second:.3e})")
    d_plus = (p_plus - p_center) / h
    d_minus = (p_center - p_minus) / h
    if abs(d_plus - d_minus) > ONESIDED_TOL:
        raise StepSizeError(
            f"one-sided differences disagree by {abs(d_plus - d_minus):.3e}; "
            "reduce the step h")

    rho_total = (p_plus - p_minus) / (2.0 * h)
    rho_c = rho_c_of_mu(mu) if rho_c_of_mu is not None else 0.0
    return DensityReport(rho_total=rho_total, rho_c=rho_c)


def density_limit(beta: float, mu: float, nu: float, d: int = 3) -> float:
    """Infinite-volume particle density nu^2/mu^2 + critical density."""
    return nu * nu / (mu * mu) + critical_density_limit(beta, mu, d)


def condensate_temperature_spread(mu: float, nu: float, d: int,
                                  betas: Sequence[float],
                                  h: float = 1e-5) -> tuple:
    """Finite-difference condensate densities across a beta grid.

    Returns (values, spread).  Each value differentiates the limit
    pressure of the sqrt-source model at its beta and subtracts the
    matching critical density; temperature independence of the condensate
    means the spread stays at rounding level.
    """
    values = []
    for beta in betas:
        point = ThermoPoint(beta=beta, mu=mu, nu=nu)
        rep = density_from_pressure(
            lambda m: pressure_sqrt_source_limit(beta, m, nu, d), point, h=h,
            rho_c_of_mu=lambda m: critical_density_limit(beta, m, d))
        values.append(rep.rho_0)
    return tuple(values), max(values) - min(values)


def fit_rate(ladder: ConvergenceLadder) -> RateFit:
    """Least-squares decay exponent of log|value| against log V.

    Requires at least three rungs with strictly positive gaps; an
    underflowing gap makes the fit degenerate and raises.
    """
    gaps = ladder.gaps
    require(len(gaps) >= 3, "rate fit needs at least 3 ladder points")
    if any(g <= 0.0 or not math.isfinite(g) for g in gaps):
        raise NonConvergenceError("degenerate rate fit: a ladder gap vanished")
    # Centred least squares of log|value| on log V.
    x, y = [math.log(v) for v in ladder.volumes], [math.log(g) for g in gaps]
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = [a - mx for a in x], [b - my for b in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    resid = math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy)) / len(x))
    return RateFit(rate=-slope, residual=resid)


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of the pressure-equivalence and condensate-equality checks.

    `rung_passed` holds each ladder rung's `PressurePair.passed`.
    `rung_durations` holds each rung's wall time in seconds, with an even
    share of the rungs' one theta pass; it is left out of `repr` and
    equality, so results compare by value.
    """

    ladder: ConvergenceLadder
    density_linear: CondensateDensity
    density_sqrt: CondensateDensity
    identity_rel_errors: tuple
    rung_passed: tuple
    passed: bool
    rung_durations: tuple = field(default=(), repr=False, compare=False)


def verify_equivalence(beta: float, mu: float, nu: float, d: int,
                       sides: Sequence[int], p_max: float = 10.0,
                       rel_tol: float = 1e-10) -> EquivalenceResult:
    """Pressure-gap ladder plus condensate comparison for both models.

    The ladder holds delta_pressure on each side, from one `pressure_pairs`
    call over every side.  The result passes when every rung's
    `PressurePair.passed` holds, the fitted decay rate in V reaches
    RATE_THRESHOLD and the condensates agree.  The condensate densities
    rho - rho' at the largest side are analytic, as the p != 0 parts
    cancel: nu^2/mu^2 + 1/(V*(e^(-beta*mu) - 1)) for the linear source,
    <n0>/V from the last rung's zero-mode series weights for the
    square-root source.  Their difference plus the occupation bound over V
    must stay within CONDENSATE_TOL.  For nu = 0 the gap vanishes
    identically and the rate fit is skipped.

    Raises NonConvergenceError if the gap ladder is not strictly
    decreasing in magnitude (nu > 0).
    """
    require(len(sides) >= 1, "at least one side required")
    rungs = pressure_pairs([(beta, build_lattice(d, side, p_max)) for side in sides],
                           (mu,), (nu,), rel_tol=rel_tol)
    values = tuple(pair.delta for _, pair, _ in rungs)
    rung_passed = tuple(pair.passed(rel_tol) for _, pair, _ in rungs)

    ladder = ConvergenceLadder(d=d, sides=tuple(sides), values=values)
    if nu > 0.0:
        gaps = ladder.gaps
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            raise NonConvergenceError("pressure-gap ladder is not monotone decreasing")
        if len(sides) >= 3:
            fit = fit_rate(ladder)
            ladder = replace(ladder, fitted_rate=fit.rate, fit_residual=fit.residual)

    point, pair, _ = rungs[-1]
    volume = point.volume
    rho0_lin = condensate_density_source(mu, nu) + zero_mode_depletion(beta, mu, volume)
    series = pair.series
    rho0_sqrt = series.mean_occupation / volume

    condensates_agree = (abs(rho0_lin - rho0_sqrt) + series.occupation_bound / volume
                         <= CONDENSATE_TOL)
    if nu == 0.0:
        gap_ok = all(v == 0.0 for v in values)
    else:
        gap_ok = ladder.fitted_rate is None or ladder.fitted_rate >= RATE_THRESHOLD
    return EquivalenceResult(ladder=ladder, density_linear=CondensateDensity(rho0_lin),
                             density_sqrt=CondensateDensity(rho0_sqrt),
                             identity_rel_errors=tuple(p.identity_rel_err for _, p, _ in rungs),
                             rung_passed=rung_passed,
                             passed=gap_ok and condensates_agree and all(rung_passed),
                             rung_durations=tuple(seconds for _, _, seconds in rungs))
