"""Test oracle: the p != 0 mode sums over |p| <= p_max, shell by shell.

The library sums over every p != 0 mode by theta resummation.  This
oracle sums the modes of the lattice's cutoff list instead, grouped by
|n|^2 shell: each shell's summand is evaluated once and weighted by its
exact integer multiplicity r_d(k) with `weighted_sum`, which gives the
same double as the exactly rounded sum over every listed mode.

The cutoff bound compares each discarded mode with a d-dimensional
Gaussian-tail integral over the region |p| > p_max - pi*sqrt(d)/l.  Both
summands are dominated by the radially decreasing function
C * exp(beta*mu) * exp(-beta*r^2/2); the average of that function,
evaluated half a cell diagonal h = pi*sqrt(d)/l closer to the origin, over
the lattice cell centered at a discarded mode is an upper bound for the
mode, and those cells are disjoint and lie in |q| > p_max - h.  In radial
coordinates

  (1/V) sum_{|p|>p_max} f(|p|)
    <= (2 pi)^-d S_{d-1} int_{r>a} exp(-beta*max(0, r-h)^2/2) r^(d-1) dr,

a = max(0, p_max - h).  The plateau piece r in (a, h) integrates to
(h^d - a^d)/d; beyond it the substitution u = r - h and a binomial
expansion of (u + h)^(d-1) reduce everything to upper incomplete gamma
functions Gamma((k+1)/2, x).  The bound is loose for p_max below a couple
of cell diagonals but remains valid there.  It covers the cutoff only,
not the rounding of the shell terms.
"""

import math

import numpy as np

from bose_limits.errors import NonConvergenceError, require
from bose_limits.summation import stable_sum

# Largest weight whose product with a 26-bit half still fits in 53 bits.
MAX_WEIGHT = 2 ** 27
_VELTKAMP = float(2 ** 27 + 1)


def weighted_sum(terms, weights) -> float:
    """Exactly rounded sum of weights[i] * terms[i] for integer weights.

    Each term is split exactly into two halves of at most 26 significant
    bits (Veltkamp), so every product weight * half is an exact double and
    `stable_sum` of those products is bit-identical to
    `stable_sum(np.repeat(terms, weights))` for weights in [0, MAX_WEIGHT]
    and finite terms below 2**996 in magnitude.  Larger or non-finite
    terms are not split and enter as weight * term.
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


def upper_gamma_half(k: int, x: float) -> float:
    """Gamma((k+1)/2, x) for x >= 0 by the upward recurrence.

    Gamma(a+1, x) = a*Gamma(a, x) + x^a e^-x, started from
    Gamma(1/2, x) = sqrt(pi)*erfc(sqrt(x)) or Gamma(1, x) = e^-x; every
    step adds nonnegative terms, so nothing cancels.
    """
    if k % 2 == 0:
        a, value = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    else:
        a, value = 1.0, math.exp(-x)
    while a < 0.5 * (k + 1):
        value = a * value + x ** a * math.exp(-x)
        a += 1.0
    return value


def _gaussian_moment_tail(beta: float, k: int, u0: float) -> float:
    """int_{u0}^inf u^k exp(-beta u^2/2) du, exact in closed form."""
    s = 0.5 * (k + 1)
    return 0.5 * (2.0 / beta) ** s * upper_gamma_half(k, 0.5 * beta * u0 * u0)


def _mode_tail_bound(beta: float, mu: float, d: int, l: float, p_max: float) -> float:
    """Bound on (1/V) * sum over |p| > p_max of exp(beta*(mu - |p|^2/2))."""
    h = math.pi * math.sqrt(d) / l
    a = max(0.0, p_max - h)
    u0 = max(0.0, a - h)
    try:
        plateau = (max(h, a) ** d - a ** d) / d
        decaying = sum(math.comb(d - 1, k) * h ** (d - 1 - k)
                       * _gaussian_moment_tail(beta, k, u0)
                       for k in range(d))
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:
        raise NonConvergenceError(
            f"cutoff tail bound overflows at side {l:.3g} in d = {d}") from None
    return ((2.0 * math.pi) ** (-d) * math.exp(beta * mu) * surface
            * (plateau + decaying))


def _nonzero_shells(lat):
    """Energies and multiplicities of the p != 0 shells of the cutoff list."""
    return lat.nonzero_energies, lat.multiplicities[1:]


def shell_primed_pressure(point, rel_tol: float = None) -> tuple:
    """(p', cutoff bound): -(1/(beta*V)) sum_{0<|p|<=p_max} log(1 - e^(beta*(mu - lam))).

    Raises NonConvergenceError when `rel_tol` is given and the cutoff bound
    exceeds rel_tol * |value|.
    """
    beta, mu, lat = point.beta, point.mu, point.lattice
    lam, mult = _nonzero_shells(lat)
    terms = -np.log1p(-np.exp(beta * (mu - lam))) / (beta * lat.volume)
    value = weighted_sum(terms, mult)
    # -log(1-x) <= x/(1-x) <= x/(1 - e^(beta*(mu - p_max^2/2))) for
    # x = e^(beta*(mu-lam)): every dropped mode has |p| > p_max.
    factor = 1.0 / (beta * -math.expm1(beta * (mu - 0.5 * lat.p_max ** 2)))
    bound = factor * _mode_tail_bound(beta, mu, lat.d, lat.l, lat.p_max)
    if rel_tol is not None and bound > rel_tol * max(abs(value), 1e-300):
        raise NonConvergenceError(
            f"cutoff tail bound {bound:.3e} exceeds rel_tol * |pressure|")
    return value, bound


def shell_critical_density(point) -> tuple:
    """(rho', cutoff bound): (1/V) sum_{0<|p|<=p_max} 1/(e^(beta*(lam - mu)) - 1)."""
    beta, mu, lat = point.beta, point.mu, point.lattice
    lam, mult = _nonzero_shells(lat)
    value = weighted_sum(1.0 / np.expm1(beta * (lam - mu)), mult) / lat.volume
    # x/(1-x) <= x/(1 - e^(beta*(mu - p_max^2/2))): every dropped mode has |p| > p_max.
    factor = 1.0 / -math.expm1(beta * (mu - 0.5 * lat.p_max ** 2))
    return value, factor * _mode_tail_bound(beta, mu, lat.d, lat.l, lat.p_max)
