"""Ideal Bose gas on a periodic box: mode lattice and thermodynamics.

A box of side `l` in `d` dimensions with periodic boundary conditions
carries the dual momentum lattice p = 2*pi*n/l (n integer vector) with
single-particle dispersion |p|^2/2.  This module evaluates the ideal-gas
pressure and critical (thermal) density, at finite volume and in the
infinite-volume limit, and lists the lowest mode energies up to a momentum
cutoff for the exact-diagonalization models.  Every mode quantity depends
on n only through k = |n|^2, so the one mode enumeration is the shell count
r_d(k) (`_shell_counts`); no momentum vector is formed.

The finite-volume sums run over every p != 0 mode, with no cutoff: the
geometric series of the Bose functions turns each lattice sum into powers
of a Jacobi theta function, a series of positive terms whose exactly
rounded value is reported with a certificate (see the section below).

Chemical potentials are restricted to mu < 0 (mu <= 0 for the limiting
critical density); no ideal-gas quantity is evaluated outside that domain.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (MAX_ALLOC_BYTES, DomainError, NonConvergenceError,
                     ResourceGuardError, require)
from .summation import stable_sum

__all__ = [
    "ModeLattice",
    "ThermoPoint",
    "PressureBreakdown",
    "build_lattice",
    "pressure_ideal_primed",
    "pressure_ideal_limit",
    "critical_density_finite",
    "critical_density_limit",
    "polylog",
]

# Modes the full shell table may hold; `leading_energies` does not build it.
MAX_MODES = 20_000_000


@dataclass(frozen=True, eq=False)
class ModeLattice:
    """A periodic box and its dual-lattice modes with |p| <= p_max.

    The ideal-gas sums need only `d` and `l`.  `leading_energies` lists
    the lowest mode energies within p_max in ascending order, so the zero
    mode's, 0, comes first.  `shells` (the distinct k = |n|^2 within p_max,
    ascending from 0) and `multiplicities` (the r_d(k) vectors on each) are
    built on first use, at most once, and refused beyond MAX_MODES modes.
    """

    d: int
    l: float
    p_max: float

    @property
    def volume(self) -> float:
        return self.l ** self.d

    @property
    def _max_shell(self) -> float:
        """The largest |n|^2 within the cutoff, (p_max*l/(2*pi))^2, widened by 1e-14."""
        radius = self.p_max * self.l / (2.0 * math.pi)
        return radius * radius * (1.0 + 1e-14)

    # The shell table is read only by perfbench/tracer.py and tests/shell_oracle.py.
    @cached_property
    def _table(self) -> tuple:
        d = self.d
        radius = self.p_max * self.l / (2.0 * math.pi)
        # Ball-volume estimate of the mode count, in logs: no side or d overflows it.
        log_est = (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
                   + d * math.log1p(radius))
        if log_est > math.log(4.0 * MAX_MODES):
            raise ResourceGuardError(f"estimated mode count 10^{log_est / math.log(10):.3g} "
                                     f"exceeds the limit {MAX_MODES}")
        shells, mult = _shell_counts(d, math.floor(self._max_shell))
        n_modes = int(mult.sum())
        if n_modes > MAX_MODES:
            raise ResourceGuardError(f"mode count {n_modes} exceeds the limit {MAX_MODES}")
        shells.setflags(write=False)
        mult.setflags(write=False)
        return shells, mult

    @property
    def shells(self) -> np.ndarray:
        return self._table[0]

    @property
    def multiplicities(self) -> np.ndarray:
        return self._table[1]

    @property
    def n_modes(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def nonzero_energies(self) -> np.ndarray:
        """Energy |p|^2 / 2 of each p != 0 shell."""
        step = 2.0 * math.pi / self.l
        return 0.5 * step * step * self.shells[1:].astype(float)

    def leading_energies(self, count: int) -> np.ndarray:
        """Energies |p|^2/2 of the first `count` modes, in ascending order.

        Read from the shell counts up to kcut = R^2, with no shell table.
        The unit cubes around the n with |n| <= R lie in the ball of radius
        R + sqrt(d)/2, so R starts at r - sqrt(d)/2, r the radius of the
        ball of volume `count`, and grows by 1 until the shells hold `count`
        modes.  Raises ResourceGuardError if the shell counts at a kcut and
        the energies would allocate more than MAX_ALLOC_BYTES, checked
        before either is formed, and DomainError if fewer than `count`
        modes lie within p_max.
        """
        require(count >= 0, "count must be nonnegative")
        d, top = self.d, math.floor(self._max_shell)
        # The unit ball's volume is taken in logs: no d overflows it.
        log_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        radius = max(0.0, math.exp((math.log(max(count, 1)) - log_ball) / d) - 0.5 * math.sqrt(d))
        while True:
            kcut = math.floor(min(radius * radius, top))
            # `_shell_counts` holds at most five tables of kcut + 1 integers
            # (none in d = 1) and four of the squares; the energies take two arrays.
            nbytes = 8 * (5 * (kcut + 1) * (d > 1) + 4 * (math.isqrt(kcut) + 1) + 2 * count)
            if nbytes > MAX_ALLOC_BYTES:
                raise ResourceGuardError(f"the energies of {count} modes in d = {d} need "
                                         f"~{nbytes:.3g} bytes, above the ceiling of "
                                         f"{MAX_ALLOC_BYTES} bytes")
            shells, mult = _shell_counts(d, kcut)
            if mult.sum() >= count or kcut == top:
                break
            radius += 1.0
        if mult.sum() < count:
            raise DomainError(f"fewer than {count} modes lie within p_max = {self.p_max}")
        keep = np.clip(count - (np.cumsum(mult) - mult), 0, mult)
        step = 2.0 * math.pi / self.l
        return 0.5 * step * step * np.repeat(shells, keep).astype(float)


@dataclass(frozen=True)
class ThermoPoint:
    """A grand-canonical point (beta, mu, nu) on a lattice; the source phase is 0."""

    beta: float
    mu: float
    nu: float = 0.0
    lattice: ModeLattice = None

    def __post_init__(self):
        require(self.beta > 0.0, "beta must be positive")
        require(self.nu >= 0.0, "nu must be nonnegative")

    @property
    def volume(self) -> float:
        if self.lattice is None:
            raise DomainError("the point has no lattice, so no volume")
        return self.lattice.volume


@dataclass(frozen=True)
class PressureBreakdown:
    """A pressure split into zero-mode, p != 0, and constant parts.

    `total` is defined as the floating-point sum of the three parts, so the
    decomposition identity holds exactly at the arithmetic level.
    `truncation_bound` bounds the error of the parts: the certificate of
    the p != 0 theta series plus that of any truncated zero-mode series.
    """

    zero_mode: float
    primed: float
    constant: float
    truncation_bound: float

    def __post_init__(self):
        require(self.truncation_bound >= 0.0, "truncation_bound must be >= 0")

    @property
    def total(self) -> float:
        return self.zero_mode + self.primed + self.constant


def _require_stable(mu: float) -> None:
    if not mu < 0.0:
        raise DomainError("outside stability domain (mu must be < 0)")


def _log1m_exp(x: float) -> float:
    """log(1 - e^x) for x < 0, accurate also where e^x rounds to 1.

    Maechler's switch (2012): log(-expm1(x)) above -log 2, where e^x is
    close to 1, and log1p(-exp(x)) below it.  An x = beta*mu that
    underflowed to 0 leaves nothing to form: NonConvergenceError.
    """
    if not x < 0.0:
        raise NonConvergenceError(f"beta*mu = {x} underflows: log(1 - e^(beta*mu)) "
                                  f"cannot be formed")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def _free_zero_pressure(beta: float, mu: float, volume: float) -> float:
    """Pressure -log(1 - e^(beta*mu))/(beta*V) of a free zero mode at energy -mu."""
    return -_log1m_exp(beta * mu) / (beta * volume)


def _free_zero_occupation(beta: float, mu: float) -> float:
    """Occupation 1/(e^x - 1), x = -beta*mu, of a free zero mode at energy -mu.

    From x = 700 on, where e^x nears overflow, it is e^-x to the last bit."""
    x = -beta * mu
    return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)


def _shell_counts(d: int, kmax: int):
    """Distinct k = |n|^2 <= kmax over n in Z^d and their counts r_d(k).

    r_1 is the indicator of the squares (1 at k = 0, 2 at each j^2 > 0);
    every further axis convolves the running table with it.  While the
    table is sparse (as r_1 is) each nonzero entry k is spread over the
    squares up to kmax - k, one add per such pair; once it is dense, one
    slice-add per square costs O(sqrt(kmax) * kmax).  Either way no axis
    costs more than O(modes) time, and the table O(kmax) memory.
    """
    squares = np.arange(math.isqrt(kmax) + 1, dtype=np.int64) ** 2
    weights = np.full(squares.size, 2, dtype=np.int64)
    weights[0] = 1
    keys, counts, table = squares, weights, None
    for _ in range(d - 1):
        prev, table = table, np.zeros(kmax + 1, dtype=np.int64)
        if keys.size <= squares.size:
            for k, c in zip(keys.tolist(), counts.tolist()):
                m = math.isqrt(kmax - k) + 1
                table[k + squares[:m]] += c * weights[:m]
        else:
            for s, w in zip(squares.tolist(), weights.tolist()):
                table[s:] += w * prev[:kmax + 1 - s]
        keys = np.flatnonzero(table)
        counts = table[keys]
    return keys, counts


def build_lattice(d: int, l: float, p_max: float) -> ModeLattice:
    """The periodic box of side `l` in `d` dimensions, with cutoff `p_max`.

    Parameters
    ----------
    d : int
        Spatial dimension, >= 1.
    l : float
        Box side length, > 0.  The lattice spacing is 2*pi/l.
    p_max : float
        Euclidean momentum cutoff, > 0, of the mode energies
        (`leading_energies`, `shells`); the ideal-gas sums do not use it.

    Nothing is enumerated here.  Raises ResourceGuardError if the volume
    l**d is outside the range of normal floats.
    """
    require(d >= 1 and int(d) == d, "d must be an integer >= 1")
    require(l > 0.0, "l must be positive")
    require(p_max > 0.0, "p_max must be positive")
    d = int(d)
    if not abs(d * math.log(l)) < -math.log(sys.float_info.min):
        raise ResourceGuardError(f"volume {l:.3g}**{d} is outside the float range")
    return ModeLattice(d=d, l=float(l), p_max=float(p_max))


# ---------------------------------------------------------------------------
# The p != 0 mode sums by Jacobi-theta resummation.
#
# Expanding -log(1 - x) = sum_j x^j/j and x/(1 - x) = sum_j x^j in
# x = e^(beta*(mu - eps_n)) and summing over n in Z^d first gives
# sum_{n != 0} e^(-j*beta*eps_n) = theta(t_j)^d - 1, t_j = j*h,
# h = beta*(2*pi/l)^2/2, theta(t) = sum_{n in Z} e^(-t n^2).  So
# p' = S_1/(beta*V) and rho' = S_0/V over every p != 0 mode, with
#
#   S_power = sum_{j>=1} e^(j*beta*mu) j^-power (theta(t_j)^d - 1),
#
# all terms positive.  theta takes its direct form 1 + 2*sum e^(-t n^2) for
# t >= pi and the Poisson dual sqrt(pi/t)*(1 + 2*sum e^(-pi^2 m^2/t)) below,
# each with n, m <= 4.  theta(t) - 1 shrinks by at least e^(-s) when t grows
# by s, and so does (1 + x)^d - 1 (convex, zero at 0), so each term is at
# most q = e^(beta*mu - h) times the one before and the tail after term J is
# at most term_J * q/(1 - q); J = 1 + log(_J_TAIL*(1 - q))/log(q) puts it
# below _J_TAIL times the first term.  The certificate adds that tail, the dropped
# theta terms, a count of the roundings in every term, one rounding of the
# exactly rounded sum, and 2^-1074 per operation that could underflow.
# ---------------------------------------------------------------------------

_U = 2.0 ** -53       # unit roundoff
_TINY = 2.0 ** -1074  # smallest subnormal
_THETA_N2 = np.arange(1.0, 5.0) ** 2
# Dropped theta terms, at the worst case t = pi of each form: n^2 - 25 >=
# 11*(n - 5) for n >= 5 makes them geometric.  Relative to 2*sum e^(-t n^2)
# (direct) and to 1 (dual).
_THETA_DIRECT_TAIL = math.exp(-24.0 * math.pi) / -math.expm1(-11.0 * math.pi)
_THETA_DUAL_TAIL = 2.0 * math.exp(-25.0 * math.pi) / -math.expm1(-11.0 * math.pi)
_J_TAIL = 1e-17       # the j-series tail relative to its first term
_J_CHUNK = 4096       # j-terms evaluated per array pass
_J_BYTES = 8          # kept per term of a series: one double
# A pass's peak: per term, 14 doubles in `_theta_power_m1`, j and one mu's 5.
_J_PASS_BYTES = 20 * 8 * _J_CHUNK


def _theta_power_m1(t: np.ndarray, d: int) -> tuple:
    """theta(t)^d - 1 for t > 0 in any order, and a bound on each value's relative error.

    A mask gives each t < pi the dual form and every other t the direct
    form.  The bound counts roundings, with t carrying 8 and pow 1.  Direct
    form, expm1(d*log1p(x)) with x = 2*sum e^(-t n^2): x is off by (9t + 5)
    relative (an error in t moves e^(-t n^2) by t*n^2 times it), and log1p,
    the product and expm1 add one each, expm1 amplifying by at most 1 + z;
    t is clipped at 1e4, beyond which every e^(-t n^2) is 0.  Dual form,
    (P - 1) + P*expm1(d*log1p(y)) with P = (pi/t)^(d/2), pi/t off by 10
    and y = 2*sum e^(-s m^2), s = pi^2/t, off by (13s + 4): each part's
    error is bounded absolutely, then divided by the value.  P is not
    formed as an exponential, so its error does not grow with log V.
    """
    near = t < math.pi
    r = math.pi / t[near]
    s = math.pi * r
    y = 2.0 * np.exp(-np.multiply.outer(s, _THETA_N2)).sum(axis=1)
    zy = d * np.log1p(y)
    e = np.expm1(zy)
    p = r ** (0.5 * d)
    dual = (p - 1.0) + p * e
    rel_p = _U * (1.0 + 5.0 * d)
    rel_y = _U * (13.0 * np.minimum(s, 1e4) + 4.0)
    abs_e = (1.0 + e) * (d * (y * rel_y + _THETA_DUAL_TAIL) + 2.0 * _U * zy) + _U * e
    abs_dual = p * rel_p + _U * (p - 1.0 + dual) + p * e * (rel_p + _U) + p * abs_e

    far = t[~near]
    z = d * np.log1p(2.0 * np.exp(-np.multiply.outer(far, _THETA_N2)).sum(axis=1))
    rel_direct = ((1.0 + z) * (_U * (10.0 * np.minimum(far, 1e4) + 7.0)
                               + _THETA_DIRECT_TAIL) + _U)
    value, rel = np.empty((2, t.size))
    value[near], rel[near] = dual, abs_dual / dual
    value[~near], rel[~near] = np.expm1(z), rel_direct
    return value, rel


def _theta_passes(lengths):
    """Each array pass's pieces (series, start, n), the terms j = start + 1 .. start + n.

    Every series is cut into the blocks of _J_CHUNK terms it has alone, and
    a pass takes the next blocks, in order, up to _J_CHUNK terms in all.
    """
    pieces, used = [], 0
    for k, length in enumerate(lengths):
        for start in range(0, length, _J_CHUNK):
            n = min(_J_CHUNK, length - start)
            if used + n > _J_CHUNK:
                yield pieces
                pieces, used = [], 0
            pieces.append((k, start, n))
            used += n
    if pieces:
        yield pieces


def _theta_series(beta: float, lattices, mus, power: int, rel_tol: float = None) -> list:
    """[{mu: (S_power / (beta^power * V), certified bound)} for each lattice].

    The lattices share d, and theta(t)^d - 1 depends on t = j*h alone: one
    array pass (`_theta_passes`) serves pieces of consecutive lattices'
    series and every mu.  A series is summed and freed after its last
    piece, so each lattice gets the values, bounds and error it gets alone,
    and one series and one pass are held at once.  Raises, for the first
    lattice that fails, ResourceGuardError before forming its terms if
    they and a pass exceed MAX_ALLOC_BYTES or theta(t_1)^d is beyond the
    float range, and NonConvergenceError if `rel_tol` is given and a bound
    exceeds rel_tol times its value.
    """
    mus, d = list(dict.fromkeys(mus)), lattices[0].d
    for mu in mus:
        _require_stable(mu)
    grids, failure = [], None
    for lattice in lattices:
        l = lattice.l
        step = 2.0 * math.pi / l
        h = 0.5 * beta * step * step
        # theta(t) <= 1 + sqrt(pi/t), the sum against its integral.
        log_theta_max = d * math.log1p(math.sqrt(math.pi / h)) if h > 0.0 else math.inf
        if not log_theta_max < 600.0:
            failure = ResourceGuardError(f"theta(t)^d at side {l:.3g} is beyond the float range")
            break
        log_q = [beta * mu - h for mu in mus]
        terms = [(math.log(_J_TAIL) + math.log(-math.expm1(x))) / x for x in log_q]
        # A series keeps 1 + ceil(terms) <= terms + 2 doubles.
        if not _J_BYTES * math.fsum(t + 2.0 for t in terms) + _J_PASS_BYTES <= MAX_ALLOC_BYTES:
            more = f" (with {len(mus) - 1} more mu)" if len(mus) > 1 else ""
            failure = ResourceGuardError(
                f"the theta series needs ~{math.fsum(terms):.3g} terms at beta*mu = "
                f"{beta * max(mus):.3g}{more} and side {l:.3g}, above the ceiling of "
                f"{MAX_ALLOC_BYTES} bytes")
            break
        grids.append((lattice.volume, h, log_theta_max, log_q, [1 + math.ceil(t) for t in terms]))
    out = []
    for pieces in _theta_passes([max(grid[4]) for grid in grids]):
        g, rel_g = _theta_power_m1(np.concatenate(
            [np.arange(start + 1, start + n + 1, dtype=float) * grids[k][1]
             for k, start, n in pieces]), d)
        at = 0
        for k, start, n in pieces:
            volume, _, log_theta_max, log_q, lengths = grids[k]
            j = np.arange(start + 1, start + n + 1, dtype=float)
            if start == 0:
                series = [np.empty(length) for length in lengths]
                rounding, last_rel = [0.0] * len(mus), [None] * len(mus)
            for i, a in enumerate(series):
                chunk = a[start:start + n]
                if m := chunk.size:
                    x = j[:m] * (beta * mus[i])
                    chunk[:] = np.exp(x) * g[at:at + m] / j[:m] ** power
                    # e^(j*beta*mu): 2|j*beta*mu| + 1; the product and quotient: 2.
                    rel = _U * (2.0 * np.abs(x) + 3.0) + rel_g[at:at + m]
                    rounding[i] += float(chunk @ rel)
                    last_rel[i] = rel[-1]
            at += n
            if start + n < max(lengths):
                continue
            scale, sums = beta ** power * volume, {}
            for mu, a, x, r, last in zip(mus, series, log_q, rounding, last_rel):
                total = stable_sum(a)
                ratio = math.exp(x) / -math.expm1(x)
                tail = float(a[-1] * (1.0 + last)) * ratio * (1.0 + _U * (7.0 * -x + 10.0))
                underflow = (a.size + ratio) * _TINY * (4 * d + 1) * (math.exp(log_theta_max) + 1.0)
                value = total / scale
                # The volume, its product with beta and the quotient: 3 roundings.
                bound = (_U * total + r + tail + underflow) / scale + 3.0 * _U * value
                if rel_tol is not None and bound > rel_tol * max(value, 1e-300):
                    raise NonConvergenceError(
                        f"theta series bound {bound:.3e} exceeds rel_tol * value")
                sums[mu] = (value, bound)
            out.append(sums)
            del series, a, chunk  # no reference may hold a series once it is summed
    if failure:
        raise failure
    return out


def pressure_ideal_primed(point: ThermoPoint, rel_tol: float = None) -> PressureBreakdown:
    """Ideal-gas pressure carried by all p != 0 modes, with its certificate.

    -(1/(beta*V)) * sum_{p != 0} log(1 - e^(beta*(mu - |p|^2/2))) over every
    mode of the point's box, by the theta series; the lattice's p_max does
    not enter.  The zero-mode and constant parts of the returned breakdown
    are zero.  Raises as `_theta_series` does.
    """
    (sums,) = _theta_series(point.beta, (point.lattice,), (point.mu,), 1, rel_tol)
    return PressureBreakdown(zero_mode=0.0, primed=sums[point.mu][0], constant=0.0,
                             truncation_bound=sums[point.mu][1])


def pressure_ideal_limit(beta: float, mu: float, d: int = 3,
                         tol: float = 1e-15) -> float:
    """Infinite-volume ideal-gas pressure, polylog(d/2+1, e^(beta*mu)) based."""
    require(beta > 0.0, "beta must be positive")
    _require_stable(mu)
    z = math.exp(beta * mu)
    return polylog(d / 2.0 + 1.0, z, tol=tol) * (2.0 * math.pi * beta) ** (-d / 2.0) / beta


def critical_density_finite(point: ThermoPoint) -> float:
    """Thermal density of all p != 0 modes at finite volume, by the theta series.

    Raises as `_theta_series` does.
    """
    return _theta_series(point.beta, (point.lattice,), (point.mu,), 0)[0][point.mu][0]


def critical_density_limit(beta: float, mu: float, d: int = 3,
                           tol: float = 1e-9) -> float:
    """Infinite-volume critical density (2*pi*beta)^(-d/2) * polylog(d/2, e^(beta*mu)).

    mu = 0 is admissible for d >= 3 only; for d <= 2 the defining series
    diverges there and a NonConvergenceError is raised.
    """
    require(beta > 0.0, "beta must be positive")
    if mu > 0.0:
        raise DomainError("outside stability domain (mu must be <= 0 here)")
    z = 1.0 if mu == 0.0 else math.exp(beta * mu)
    return polylog(d / 2.0, z, tol=tol) * (2.0 * math.pi * beta) ** (-d / 2.0)


# ---------------------------------------------------------------------------
# Bose functions near z = 1.
#
# The defining series needs about 1/|log z| terms, which is where
# condensation lives.  For t = log z in (-_ROBINSON_SWITCH, 0) polylog uses
# Robinson's expansion (Phys. Rev. 83, 678 (1951); Wood, Kent TR 15-92),
#
#   Li_s(e^t) = Gamma(1-s) (-t)^(s-1) + sum_k zeta(s-k) t^k / k!,
#
# convergent for |t| < 2*pi, and at integer s = m its limit form, where the
# k = m-1 term and the Gamma pole combine into
# t^(m-1)/(m-1)! * (H_(m-1) - log(-t)).  For sigma = s - k < 0 the functional
# equation gives zeta(sigma) = sin(pi*sigma/2) * 2 Gamma(u) (2 pi)^-u zeta(u),
# u = 1 - sigma > 1, and the bounds 2 Gamma(u) (2 pi)^-u u/(u-1) |t|^k/k! on
# the terms shrink by a factor of at most |t|/(2 pi) per step in k; that
# geometric series bounds the truncated tail.  zeta(u) comes from
# Euler-Maclaurin with exact Bernoulli numbers and the first omitted term as
# remainder bound (Edwards, Riemann's Zeta Function, 6.4).  zeta(s-k) depends
# on the order s alone, and the model uses two orders (d/2, d/2 + 1), so _zeta
# is memoized.  At s >= _ROBINSON_MAX_ORDER no sigma = s - k < 0 bounds the
# tail, so polylog sums the defining series there (1-2 terms).
# ---------------------------------------------------------------------------

# Beyond |t| = 0.5 the defining series needs about 2*log(1/tol) positive
# terms, while Robinson's converge more slowly and round more as |t| grows.
_ROBINSON_SWITCH = 0.5
_ROBINSON_MAX_ORDER = 150   # k! and Gamma(k + 1 - s) stay below the float range
_EPS = sys.float_info.epsilon
_EM_CUT = 12         # Euler-Maclaurin sums n < N exactly and expands the rest
_EM_ORDER = 30       # Bernoulli corrections B_2 .. B_60, B_62 for the remainder


@lru_cache(maxsize=None)
def _bernoulli_even_coefficients(count: int) -> tuple:
    """B_2j / (2j)! for j = 1..count, each the double nearest the exact rational.

    c_n = B_n / n! obeys sum_{j<=m} c_j / (m+1-j)! = 0, and B_j = 0 for odd j > 1.
    Built in exact fractions on the first call, which no p != 0 sum makes.
    """
    c = {0: Fraction(1), 1: Fraction(-1, 2)}
    for m in range(2, 2 * count + 1, 2):
        c[m] = -sum(c[j] / math.factorial(m + 1 - j) for j in c)
    return tuple(float(c[2 * j]) for j in range(1, count + 1))


def _euler_maclaurin_zeta(sigma: float) -> tuple:
    """(zeta(sigma), error bound) for real sigma > 0, sigma != 1.

    sum_{n<N} n^-sigma + N^(1-sigma)/(sigma-1) + N^-sigma/2
    + sum_j B_2j/(2j)! (sigma)_(2j-1) N^(1-sigma-2j) at N = _EM_CUT, where
    (sigma)_m is the rising factorial.  For real sigma > 0 the remainder is
    at most the first omitted correction.  The bound adds eps times the
    summed magnitudes of the parts as their rounding error, which is what
    exposes the cancellation near the pole at sigma = 1.
    """
    n, coefficients = _EM_CUT, _bernoulli_even_coefficients(_EM_ORDER + 1)
    parts = [k ** -sigma for k in range(1, n)]
    parts += [n ** (1.0 - sigma) / (sigma - 1.0), 0.5 * n ** -sigma]
    magnitude = math.fsum(abs(v) for v in parts)
    rising, power = sigma, n ** (-sigma - 1.0)
    for j, coefficient in enumerate(coefficients, 1):
        term = coefficient * rising * power
        if j == len(coefficients) or abs(term) <= 1e-20 * magnitude:
            remainder = abs(term)
            break
        parts.append(term)
        magnitude += abs(term)
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
        power /= n * n
    return math.fsum(parts), remainder + _EPS * magnitude


def _sin_half_pi(x: float) -> float:
    """sin(pi*x/2), reduced exactly, so it is exactly 0 or +-1 at integer x."""
    sign = -1.0 if x < 0.0 else 1.0
    y = math.fmod(abs(x), 4.0)
    if y >= 2.0:
        sign, y = -sign, y - 2.0
    if y > 1.0:
        y = 2.0 - y
    return sign * math.sin(0.5 * math.pi * y)


@lru_cache(maxsize=4 * (_ROBINSON_MAX_ORDER + 1))
def _zeta(sigma: float) -> tuple:
    """(zeta(sigma), error bound) for real sigma != 1, -170 < sigma.

    Euler-Maclaurin for sigma > 0, zeta(0) = -1/2, and the functional
    equation for sigma < 0.
    """
    if sigma > 0.0:
        return _euler_maclaurin_zeta(sigma)
    if sigma == 0.0:
        return -0.5, 0.0
    # zeta(sigma) = sin(pi*sigma/2) * 2 Gamma(u) (2 pi)^-u zeta(u); the
    # rounding estimate counts Gamma's few ulps and pi's rounding raised to
    # the power u.
    u = 1.0 - sigma
    zeta, error = _euler_maclaurin_zeta(u)
    scale = _sin_half_pi(sigma) * 2.0 * math.gamma(u) * (2.0 * math.pi) ** -u
    return scale * zeta, abs(scale) * (error + (5.0 + u) * _EPS * zeta)


def _robinson(s: float, t: float, tol: float) -> tuple:
    """(Li_s(e^t), error bound) for -2*pi < t < 0 from Robinson's expansion.

    The error bound adds the geometric tail bound, the zeta errors carried
    through their coefficients, and a rounding estimate: eps times each
    term's magnitude, weighted by the roundings that formed it (t itself
    carries one from log z, amplified by the power it is raised to).  The
    rounding part is large where Gamma(1-s) and zeta(s-k) nearly cancel,
    at s close to but not equal to an integer.  The bound is infinite if
    the tail has not converged by order _ROBINSON_MAX_ORDER.
    """
    if float(s).is_integer():
        m = int(s)
        harmonic = math.fsum(1.0 / j for j in range(1, m))
        terms = [t ** (m - 1) / math.factorial(m - 1) * (harmonic - math.log(-t))]
        roundings = [2.0 + 1.5 * (m - 1)]
    else:
        # (-t)^s / (-t), not (-t)^(s-1): s - 1 may round, and the rounding
        # is amplified by |log(-t)|.
        terms = [math.gamma(1.0 - s) * (-t) ** s / -t]
        roundings = [6.5 + s]   # gamma to 4 eps, t's rounding to the power s
    ratio = -t / (2.0 * math.pi)
    error, tail = 0.0, math.inf
    for k in range(_ROBINSON_MAX_ORDER + 1):
        sigma = s - k
        if sigma == 1.0:
            continue    # the harmonic term above
        coefficient = t ** k / math.factorial(k)
        zeta, zeta_error = _zeta(sigma)
        terms.append(zeta * coefficient)
        roundings.append(1.5 + k if k else 0.0)
        error += zeta_error * abs(coefficient)
        if sigma < 0.0:
            # |zeta(sigma)| <= 2 Gamma(u) (2 pi)^-u zeta(u) with u = 1 - sigma,
            # and zeta(u) < u/(u-1); times |t|^k/k!, that bound shrinks by at
            # most |t|/(2 pi) per step in k.
            u = 1.0 - sigma
            bound = 2.0 * math.gamma(u) * (2.0 * math.pi) ** -u * u / (u - 1.0)
            tail = bound * abs(coefficient) * ratio / (1.0 - ratio)
            if tail <= 0.25 * tol * max(1.0, abs(math.fsum(terms))):
                break
    value = math.fsum(terms)
    rounding = math.fsum(c * abs(v) for c, v in zip(roundings, terms)) + 0.5 * abs(value)
    return value, tail + error + _EPS * rounding


def _direct_series(s: float, t: float, tol: float) -> float:
    """sum_{k<=K} e^(k*t) / k^s, K the fewest terms whose tail bound
    z^(K+1) / ((K+1)^s (1-z)), z = e^t, is at most tol.

    At x = K + 1 the bound's log over tol, f(x) = x*t - s*log(x) + c, is
    convex and decreasing, so a Newton step never passes its root: integer
    steps of at least 1 from x = 2 stop at the smallest x with f(x) <= 0.
    K is refused, before any term is formed, beyond MAX_ALLOC_BYTES / 8.
    """
    c = -_log1m_exp(t) - math.log(tol)
    x = 2
    while (f := x * t - s * math.log(x) + c) > 0.0 and _J_BYTES * (x - 1) <= MAX_ALLOC_BYTES:
        x = math.floor(x + max(1.0, f / (s / x - t)))
    count = x - 1
    if _J_BYTES * count > MAX_ALLOC_BYTES:
        raise NonConvergenceError(
            f"polylog({s:.17g}, e^{t:.3g}) needs over {MAX_ALLOC_BYTES // _J_BYTES} terms "
            f"for tol = {tol:.1e}, above the ceiling of {MAX_ALLOC_BYTES} bytes")
    terms = np.empty(count)
    for start in range(0, count, _J_CHUNK):
        k = np.arange(start + 1, min(start + _J_CHUNK, count) + 1, dtype=float)
        terms[start:start + k.size] = np.exp(k * t - s * np.log(k))
    return stable_sum(terms)


def polylog(s: float, z: float, tol: float = 1e-12) -> float:
    """Bose function sum_{k>=1} z^k / k^s with a certified truncation error.

    The returned value is within tol * max(1, |value|) of Li_s(z).
    * z = 1 (admissible for s > 1): zeta(s) by Euler-Maclaurin.
    * 1 > z > e^-0.5, s < 150: Robinson's expansion in t = log z (see
      above), O(1) terms however close z is to 1.  Where its error bound
      misses `tol` (s close to an integer, where two poles cancel), the
      direct series below is tried instead.
    * otherwise the defining series, to the fewest terms K whose geometric
      tail bound z^(K+1) / ((K+1)^s (1-z)) is at most `tol`, counted before
      any term is formed (at most ~71 at |log z| >= 0.5, tol = 1e-15).

    Raises
    ------
    DomainError
        If z is outside [0, 1] or s is not positive and finite.
    NonConvergenceError
        If z = 1 with s <= 1 (divergent), or no evaluation meets `tol`
        (the direct series would need over MAX_ALLOC_BYTES / 8 terms).
    """
    require(0.0 < s < math.inf, "s must be positive and finite")
    require(0.0 <= z <= 1.0, "z must lie in [0, 1]")
    if z == 0.0:
        return 0.0

    if z == 1.0:
        if s <= 1.0:
            raise NonConvergenceError(f"polylog series diverges at z=1 for s={s} <= 1")
        value, error = _zeta(s)
        if error > tol * max(1.0, abs(value)):
            raise NonConvergenceError(
                f"zeta({s}) error bound {error:.1e} exceeds tol={tol:.1e}")
        return value

    t = math.log(z)
    if t > -_ROBINSON_SWITCH and s < _ROBINSON_MAX_ORDER:
        value, error = _robinson(s, t, tol)
        if error <= tol * max(1.0, abs(value)):
            return value
    return _direct_series(s, t, tol)
