"""Exact statistical mechanics of diagonal Bose models on truncated Fock spaces.

A full-diagonal Hamiltonian is a function of the occupation numbers only:
here sum_p lam(p)*n_p + (a/2V)(N^2 - N) - mu*N.  It reads a mode only
through its energy, so a truncation keeps the lowest energies lam_i of the
box, zero mode first, and no momentum.  With per-mode occupation cutoffs
c_i, Gibbs traces and expectations are finite sums.  Two external sources couple to the zero mode:

  * linear:  -nu*sqrt(V) * (a0 + a0^dagger), which breaks the particle
    number symmetry and makes the operator tridiagonal in the zero-mode
    occupation (off-diagonal elements -nu*sqrt(V)*sqrt(n0+1));
  * square root:  -coefficient*nu*sqrt(V)*sqrt(n0 + 1), diagonal, which
    commutes with the total number operator.

Pressure differences between the two are pinned by the two-sided
variational (Bogoliubov) inequality

    <(Ha - Hb)/V>_a  <=  p_b - p_a  <=  <(Ha - Hb)/V>_b,

and the difference operator D = H_linear - H_sqrt (with coefficient 2) is
positive semidefinite, since +-(a0 + a0^dagger) <= 2*sqrt(n0+1) holds
entrywise in the occupation basis.  With Ha the linear-source operator
and Hb the diagonal one the sandwich becomes a chain of nonnegative
quantities; `verify_sandwich` evaluates it together with its Jensen
relaxation.

All matrices are real symmetric by construction.  Neither source acts on
the p != 0 modes, so an operator is the direct sum, over the
configurations omega' of those modes, of tridiagonal blocks in n0 of
order c0 + 1 (c0 the zero-mode cutoff), and

    E(n0, omega') = sum_(i>=1) lam_i*omega_i + A*(N'^2 - N') - mu*N' + eps_N'(n0),
    eps_N'(n0) = n0*(lam_0 + A*(n0 + 2N' - 1) - mu) + the source,   A = a/(2V),

with N' = sum_(i>=1) omega_i the bosons with p != 0.  A block depends on
omega' through its key N' and a shift only, so one batched
eigendecomposition of the K = sum_(i>=1) c_i + 1 blocks eps_N'
(`OperatorMatrix.blocks`, none for a diagonal operator) serves every
configuration, and every Gibbs sum factors through the key weights

    G_N' = e^(-beta*(A*(N'^2 - N') - mu*N')) * [x^N'] prod_(i>=1) sum_(k<=c_i) (x*e^(-beta*lam_i))^k.

The product is formed by m - 1 convolutions of log coefficients
(`_primed_products`); no configuration is enumerated.  Every coefficient
is a sum of positive terms, so nothing cancels and no weight underflows
to 0 or NaN at any beta.  The products are not exactly rounded: a
convolution rounds each log coefficient l a few times, so log G_N'
carries an absolute error of order (sum_i c_i)*u*(|l| + 1), u = 2^-53.
The sums over keys and levels are exactly rounded (`stable_sum`).  A rung
costs O(m*N'max*c + K*c0^3) time for the largest p != 0 cutoff c,
whatever D = prod(c_i + 1); MAX_ALLOC_BYTES bounds what it allocates (see
FockTruncation).  `enumerate_configs`, `diagonal_energies`,
`OperatorMatrix.to_dense` and `zero_mode_annihilator` form
per-configuration arrays: they are the dense oracle for small D.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (MAX_ALLOC_BYTES, DomainError, NonConvergenceError,
                     ResourceGuardError, require)
from .lattice_ideal import ModeLattice
from .summation import stable_sum

__all__ = [
    "FockTruncation",
    "Configurations",
    "DiagonalModel",
    "OperatorMatrix",
    "GibbsState",
    "InequalityReport",
    "SandwichReport",
    "ZeroModeAverages",
    "truncate_lattice",
    "enumerate_configs",
    "diagonal_energies",
    "add_linear_source",
    "add_sqrt_source",
    "gibbs_trace",
    "gibbs_expectation",
    "zero_mode_annihilator",
    "quasiaverage_fd",
    "boundary_shell_weight",
    "verify_sandwich",
]

# Slack of every inequality in the sandwich chain, absolute.
SANDWICH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FockTruncation:
    """A finite window of Fock space: retained mode energies and occupation cutoffs.

    The Hamiltonian reads a mode only through its energy lam(p) = |p|^2/2,
    which vanishes at p = 0 alone, so the zero mode must be retained and
    listed first: energies[0] == 0.  `dimension` is the full configuration
    count D = prod(cutoff+1), a Python int.  Construction refuses a
    truncation whose rung would allocate more than MAX_ALLOC_BYTES: the
    block eigensolve, ~3*K*(c0+1)^2*8 bytes for the K = sum_(i>=1) c_i + 1
    keys, plus a convolution of the products, ~K*(c+1)*8 bytes for the
    largest p != 0 cutoff c.
    """

    energies: np.ndarray = field(repr=False)  # lam(p) per retained mode
    cutoffs: tuple
    _weights: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.energies.setflags(write=False)
        require(self.energies.shape[0] == len(self.cutoffs),
                "energies and cutoffs must agree in length")
        require(all(int(c) == c and c >= 1 for c in self.cutoffs),
                "cutoffs must be integers >= 1")
        if not self.energies[0] == 0.0:
            raise DomainError("the zero mode must be retained and listed first")
        c0, primed = self.cutoffs[0], self.cutoffs[1:]
        keys = sum(primed) + 1
        nbytes = 8 * keys * (3 * (c0 + 1) ** 2 + max(primed, default=0) + 1)
        if nbytes > MAX_ALLOC_BYTES:
            raise ResourceGuardError(
                f"Fock cutoffs {self.cutoffs} need ~{nbytes} bytes of block "
                f"eigensolve for {keys} blocks of zero-mode cutoff {c0}, above "
                f"the ceiling {MAX_ALLOC_BYTES}")
        require(self.dimension >= 2, "dimension must be >= 2")

    @property
    def n_modes(self) -> int:
        return self.energies.shape[0]

    @property
    def dimension(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)

    @property
    def zero_mode_stride(self) -> int:
        """Index offset between configurations differing by one zero-mode boson."""
        return math.prod(c + 1 for c in self.cutoffs[1:])

    def key_weights(self, beta: float):
        """Per key N' = 0, ..., K - 1 at `beta`: log [x^N'] of the p != 0
        product, and its shares with some p != 0 mode at its cutoff and with none.

        Neither source acts on the p != 0 modes, so every operator on this
        truncation shares them; they are kept until another beta is asked for.
        """
        if beta not in self._weights:
            self._weights.clear()
            inner, edge = _primed_products(self, beta)
            log_primed = np.logaddexp(inner, edge)
            self._weights[beta] = (log_primed, np.exp(edge - log_primed),
                                   np.exp(inner - log_primed))
        return self._weights[beta]


def truncate_lattice(lattice: ModeLattice, cutoffs: Sequence[int]) -> FockTruncation:
    """Keep the len(cutoffs) lowest mode energies of a lattice, from
    `ModeLattice.leading_energies`: a DomainError if p_max holds fewer modes."""
    require(len(cutoffs) >= 1, "at least one cutoff is required")
    return FockTruncation(energies=lattice.leading_energies(len(cutoffs)),
                          cutoffs=tuple(int(c) for c in cutoffs))


@dataclass(frozen=True, eq=False)
class Configurations:
    """All occupation configurations of a truncation, mixed-radix ordered.

    Row i of `occupations` is the configuration whose mixed-radix digits
    (zero mode most significant) encode i; N is the total occupation.
    """

    occupations: np.ndarray   # (dimension, n_modes) integers
    total: np.ndarray         # N(omega)


def enumerate_configs(trunc: FockTruncation) -> Configurations:
    """Every configuration, for the dense oracle: refused past MAX_ALLOC_BYTES.

    The table and its float copy take ~3*D*m*8 bytes for m modes.
    """
    table_bytes = 3 * trunc.dimension * trunc.n_modes * 8
    if table_bytes > MAX_ALLOC_BYTES:
        raise ResourceGuardError(
            f"Fock dimension {trunc.dimension} needs ~{table_bytes} bytes of "
            f"configuration table for {trunc.n_modes} modes, above the ceiling "
            f"{MAX_ALLOC_BYTES}")
    radices = [c + 1 for c in trunc.cutoffs]
    grids = np.meshgrid(*[np.arange(r, dtype=np.int64) for r in radices],
                        indexing="ij")
    occ = np.stack([g.ravel() for g in grids], axis=1)
    return Configurations(occupations=occ, total=occ.sum(axis=1))


def _zero_mode_occupation(trunc: FockTruncation) -> np.ndarray:
    """n0 of every configuration: its most significant mixed-radix digit."""
    return np.arange(trunc.dimension) // trunc.zero_mode_stride


def _block_occupations(trunc: FockTruncation) -> np.ndarray:
    """p != 0 occupations of zero-mode block b in row b, mixed-radix ordered."""
    radices = [c + 1 for c in trunc.cutoffs[1:]]
    return np.indices(radices).reshape(len(radices), trunc.zero_mode_stride).T


@dataclass(frozen=True)
class DiagonalModel:
    """Couplings of the mean-field diagonal Hamiltonian; a > 0 makes it superstable."""

    a: float
    mu: float


def diagonal_energies(model: DiagonalModel, trunc: FockTruncation,
                      volume: float) -> np.ndarray:
    """Grand-canonical energy E(omega) of every configuration (dense oracle).

    E = sum lam*omega + (a/2V)(N^2 - N) - mu*N.
    """
    require(volume > 0.0, "volume must be positive")
    cfg = enumerate_configs(trunc)
    n_tot = cfg.total.astype(float)
    energy = cfg.occupations.astype(float) @ trunc.energies
    energy += (model.a / (2.0 * volume)) * (n_tot * n_tot - n_tot)
    energy -= model.mu * n_tot
    return energy


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A diagonal model plus zero-mode sources: a real symmetric operator.

    The sources add -root*sqrt(n0 + 1) to the diagonal and the element
    linear*sqrt(n0 + 1) between n0 and n0 + 1 at equal p != 0 occupations.
    Gibbs quantities use `blocks` and `gibbs_state`, computed on first use
    from the keys N' alone; `to_dense` is a test oracle.
    """

    model: DiagonalModel
    truncation: FockTruncation
    volume: float
    linear: float = 0.0
    root: float = 0.0
    _states: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.truncation.dimension

    @cached_property
    def blocks(self):
        """Eigenpairs of the block eps_N' of each key N' = 0, ..., K - 1.

        Row j of a block is n0 = j.  Eigenvalues (K, c0+1) and eigenvectors
        (K, c0+1, c0+1), vectors in columns and unit vectors for a diagonal
        operator; both read-only.  A configuration omega' of key N' has the
        spectrum of block N' plus its shift (see the module docstring).
        """
        trunc, model = self.truncation, self.model
        k = trunc.cutoffs[0] + 1
        j = np.arange(k, dtype=float)
        n_primed = np.arange(sum(trunc.cutoffs[1:]) + 1.0)[:, None]
        a_half = model.a / (2.0 * self.volume)
        diag = (j * (trunc.energies[0] + a_half * (j + 2.0 * n_primed - 1.0) - model.mu)
                - self.root * np.sqrt(j + 1.0))
        if self.linear == 0.0:
            pairs = diag, np.broadcast_to(np.eye(k), diag.shape + (k,))
        else:
            i = np.arange(k)
            stack = np.zeros(diag.shape + (k,))
            stack[:, i, i] = diag
            stack[:, i[:-1], i[1:]] = stack[:, i[1:], i[:-1]] = self.linear * np.sqrt(j[1:])
            try:
                pairs = np.linalg.eigh(stack)
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(f"eigendecomposition failed: {exc}") from exc
        for a in pairs:
            a.setflags(write=False)
        return pairs

    def gibbs_state(self, beta: float) -> "GibbsState":
        """The Gibbs state at `beta`, kept until another beta is asked for."""
        if beta not in self._states:
            self._states.clear()
            self._states[beta] = _gibbs_state(self, beta)
        return self._states[beta]

    def to_dense(self) -> np.ndarray:
        """The D x D matrix in the configuration order of `enumerate_configs`."""
        trunc = self.truncation
        energies = diagonal_energies(self.model, trunc, self.volume)
        n0 = _zero_mode_occupation(trunc)
        out = np.diag(energies - self.root * np.sqrt(n0 + 1.0))
        if self.linear != 0.0:
            src = np.nonzero(n0 < trunc.cutoffs[0])[0]
            dst = src + trunc.zero_mode_stride
            out[src, dst] = out[dst, src] = self.linear * np.sqrt(n0[src] + 1.0)
        return out


def add_linear_source(model: DiagonalModel, trunc: FockTruncation, nu: float,
                      volume: float) -> OperatorMatrix:
    """Diagonal model plus the symmetry-breaking term -nu*sqrt(V)*(a0 + a0^dag).

    Matrix elements <.., n0+1, ..|H|.., n0, ..> = -nu*sqrt(V)*sqrt(n0+1);
    the phase is fixed to 0 so the matrix stays real symmetric.  For
    nu = 0 the operator is diagonal.
    """
    require(nu >= 0.0, "nu must be nonnegative")
    require(volume > 0.0, "volume must be positive")
    return OperatorMatrix(model=model, truncation=trunc, volume=volume,
                          linear=-nu * math.sqrt(volume))


def add_sqrt_source(model: DiagonalModel, trunc: FockTruncation, nu: float,
                    volume: float, coefficient: float = 2.0) -> OperatorMatrix:
    """Diagonal model plus -coefficient*nu*sqrt(V)*sqrt(n0 + 1), still diagonal."""
    require(nu >= 0.0, "nu must be nonnegative")
    require(coefficient > 0.0, "coefficient must be positive")
    require(volume > 0.0, "volume must be positive")
    return OperatorMatrix(model=model, truncation=trunc, volume=volume,
                          root=coefficient * nu * math.sqrt(volume))


def _log_convolve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Log coefficients of the products of the rows of p and q, cut to p's length.

    Rows hold log coefficients, -inf for a zero one; each product
    coefficient is the log of a sum of positive terms.
    """
    grid = np.full((q.shape[1],) + p.shape, -np.inf)
    for k, layer in enumerate(grid):
        layer[:, k:] = p[:, :p.shape[1] - k] + q[:, k, None]
    return np.logaddexp.reduce(grid, axis=0)


def _primed_products(trunc: FockTruncation, beta: float):
    """log [x^N'] of prod_(i>=1) sum_(k<=c_i) (x*e^(-beta*lam_i))^k, in two parts.

    Returns the rows (inner, edge) for N' = 0, ..., K - 1: inner sums the
    configurations with no p != 0 mode at its cutoff, edge those with at
    least one.  With mode i added, a configuration is an edge one if it
    was before, or if mode i sits at its cutoff and it was inner; so both
    parts stay sums of positive terms.
    """
    size = sum(trunc.cutoffs[1:]) + 1
    parts = np.full((2, size), -np.inf)  # inner, edge
    parts[0, 0] = 0.0
    for lam, c in zip(trunc.energies[1:], trunc.cutoffs[1:]):
        full = -beta * lam * np.arange(c + 1.0)
        at_cutoff = parts[0, :size - c] + full[-1]
        q = np.stack([full, full])
        q[0, -1] = -np.inf  # inner: mode i below its cutoff
        parts = _log_convolve(parts, q)
        parts[1, c:] = np.logaddexp(parts[1, c:], at_cutoff)
    return parts


@dataclass(frozen=True, eq=False)
class GibbsState:
    """An operator's Gibbs state at one beta, summed over the configurations of each key.

    weights[N', l] = e^(-beta*lam_l)*G_N' over the spectrum lam of block
    N', scaled by one constant, and z is their sum.  populations[N', j]
    and hops[N', j] sum z*<j|rho|j> and z*<j|rho|j+1> over the key's
    configurations.
    """

    weights: np.ndarray
    populations: np.ndarray
    hops: np.ndarray
    z: float
    log_z: float  # log Tr e^(-beta*H)


def _gibbs_state(op: OperatorMatrix, beta: float) -> GibbsState:
    require(beta > 0.0, "beta must be positive")
    log_primed = op.truncation.key_weights(beta)[0]
    n = np.arange(log_primed.size, dtype=float)
    a_half = op.model.a / (2.0 * op.volume)
    log_g = log_primed - beta * (a_half * (n * n - n) - op.model.mu * n)
    evals, vecs = op.blocks
    logw = log_g[:, None] - beta * evals
    top = logw.max()
    w = np.exp(logw - top)
    z = stable_sum(w)
    if op.linear == 0.0:  # unit eigenvectors: a diagonal state
        populations, hops = w, np.zeros((w.shape[0], w.shape[1] - 1))
    else:
        populations = np.einsum("kjl,kl->kj", vecs * vecs, w)
        hops = np.einsum("kjl,kjl,kl->kj", vecs[:, :-1], vecs[:, 1:], w)
    # A Python float: log Z/(beta*V) overflows to inf without a numpy warning.
    return GibbsState(weights=w, populations=populations, hops=hops, z=z,
                      log_z=float(top) + math.log(z))


def _average(op: OperatorMatrix, beta: float, diagonal: np.ndarray,
             coupling: Optional[np.ndarray] = None) -> float:
    """<f(n0) + C> in the Gibbs state of `op`.

    `diagonal` holds f at n0 = 0, ..., c0, and C couples n0 and n0 + 1
    with the symmetric element coupling[n0].  A diagonal state has exactly
    zero hops, which keeps symmetry selection rules exact.
    """
    st = op.gibbs_state(beta)
    terms = diagonal * st.populations
    if coupling is not None:
        terms = np.concatenate([terms.ravel(), (2.0 * coupling[:-1] * st.hops).ravel()])
    return stable_sum(terms) / st.z


def gibbs_trace(op: OperatorMatrix, beta: float, volume: float) -> float:
    """Pressure (1/(beta*V)) * log Tr e^(-beta*H); NonConvergenceError if it is not finite."""
    require(volume > 0.0, "volume must be positive")
    pressure = op.gibbs_state(beta).log_z / (beta * volume)
    if not math.isfinite(pressure):
        raise NonConvergenceError(f"the pressure log Z/(beta*V) = {pressure} is not finite")
    return pressure


def gibbs_expectation(observable, op: OperatorMatrix, beta: float) -> float:
    """Thermal average Tr(X e^(-beta*H)) / Tr e^(-beta*H), for small D.

    `observable` is either a per-configuration array (an operator diagonal
    in the occupation basis) or a dense matrix, in the configuration order
    of `enumerate_configs`.  The Gibbs state is block diagonal, so only the
    observable's blocks in n0 contribute; for a diagonal state only its
    diagonal does, which keeps symmetry selection rules exact.
    """
    x = np.asarray(observable, dtype=float)
    require(x.shape in ((op.dimension,), (op.dimension, op.dimension)),
            "observable shape mismatch")
    trunc, st = op.truncation, op.gibbs_state(beta)
    # Configuration omega' of key N' takes e^(-beta*sum lam_i*omega_i) / [x^N']
    # of its key's weight.
    occ = _block_occupations(trunc)
    keys = occ.sum(axis=1)
    share = np.exp(-beta * (occ @ trunc.energies[1:]) - trunc.key_weights(beta)[0][keys])
    k, nb = trunc.cutoffs[0] + 1, keys.size
    if x.ndim == 1:
        terms = x.reshape(k, nb) * st.populations[keys].T * share
    else:
        q = op.blocks[1][keys]
        blocks = np.einsum("jbib->bji", x.reshape(k, nb, k, nb))
        rotated = np.einsum("bjk,bjk->bk", q, blocks @ q)
        terms = rotated * st.weights[keys] * share[:, None]
    return stable_sum(terms) / st.z


@dataclass(frozen=True)
class InequalityReport:
    """Two-sided variational bounds on a pressure difference p_b - p_a."""

    lower: float
    upper: float
    delta_p: float

    @property
    def lower_margin(self) -> float:
        return self.delta_p - self.lower

    @property
    def upper_margin(self) -> float:
        return self.upper - self.delta_p

    @property
    def passed(self) -> bool:
        return (self.lower_margin >= -SANDWICH_TOL
                and self.upper_margin >= -SANDWICH_TOL)


def zero_mode_annihilator(trunc: FockTruncation) -> np.ndarray:
    """Dense matrix of a0: <.., n0-1, ..|a0|.., n0, ..> = sqrt(n0).

    Purely off-diagonal, so its average in any diagonal Gibbs state
    vanishes identically.
    """
    n0 = _zero_mode_occupation(trunc)
    stride = trunc.zero_mode_stride
    out = np.zeros((trunc.dimension, trunc.dimension))
    src = np.nonzero(n0 >= 1)[0]
    out[src - stride, src] = np.sqrt(n0[src].astype(float))
    return out


@dataclass(frozen=True)
class ZeroModeAverages:
    """<a0/sqrt(V)> and sqrt(<n0>/V) in one state."""

    a0_scaled: float
    sqrt_density: float


def quasiaverage_fd(op: OperatorMatrix, beta: float, volume: float) -> ZeroModeAverages:
    """Zero-mode averages of a (generally symmetry-broken) operator.

    At infinite volume the two members coincide for this model class with
    positive source; at finite truncation their difference is a
    diagnostic.  For the phase-free sources used here both are real and,
    for nu > 0, nonnegative.
    """
    n0 = np.arange(op.truncation.cutoffs[0] + 1.0)
    # The state is real symmetric, so <a0> = <a0 + a0^dag> / 2.
    a0_avg = _average(op, beta, np.zeros(n0.size),
                      0.5 * np.sqrt(n0 + 1.0)) / math.sqrt(volume)
    n0_avg = _average(op, beta, n0)
    return ZeroModeAverages(a0_scaled=a0_avg,
                            sqrt_density=math.sqrt(max(n0_avg, 0.0) / volume))


def boundary_shell_weight(op: OperatorMatrix, beta: float) -> float:
    """Gibbs weight of configurations with any mode at its cutoff.

    A configuration with a p != 0 mode at its cutoff counts at every n0,
    any other at n0 = c0 only.  Used to certify a truncation a posteriori:
    the retained window is adequate when this weight is negligible against 1.
    """
    st = op.gibbs_state(beta)
    _, edge, inner = op.truncation.key_weights(beta)
    terms = np.concatenate([(edge[:, None] * st.populations).ravel(),
                            inner * st.populations[:, -1]])
    return stable_sum(terms) / st.z


@dataclass(frozen=True)
class SandwichReport:
    """One rung of the pressure-difference sandwich for a model pair.

    delta_p = p_sqrt - p_linear >= 0, enclosed by
    chain_lower  = 2*nu*(<sqrt(rho0+1/V)>_lin - <a0/sqrt(V)>_lin)   (>= 0)
    chain_upper  = 2*nu*<sqrt(rho0+1/V)>_sqrt
    jensen_upper = 2*nu*sqrt(<rho0>_sqrt + 1/V)                    (Jensen)
    """

    cutoffs: tuple
    dimension: int
    volume: float
    pressure_linear: float
    pressure_sqrt: float
    inequality: InequalityReport
    chain_lower: float
    chain_upper: float
    jensen_upper: float
    linear_averages: ZeroModeAverages
    shell_weight: float

    @property
    def delta_p(self) -> float:
        return self.inequality.delta_p

    @property
    def chain_passed(self) -> bool:
        return (self.chain_lower >= -SANDWICH_TOL
                and self.inequality.passed
                and self.chain_upper <= self.jensen_upper + SANDWICH_TOL)


def verify_sandwich(model: DiagonalModel, truncations: Sequence[FockTruncation],
                    beta: float, nu: float, volume: float,
                    coefficient: float = 2.0) -> list:
    """Evaluate the two-sided pressure-difference chain on each truncation.

    For every truncation the linear-source and square-root-source
    operators are built on the same configuration set and the chain

        0 <= chain_lower <= delta_p <= chain_upper <= jensen_upper

    is evaluated, with delta_p = p_sqrt - p_linear and each inequality
    allowed SANDWICH_TOL of slack.  The identity
    chain_upper = <(H_lin - H_sqrt)/V> in the diagonal state holds because
    the linear part averages to zero there (selection rule).  Every sum is
    taken over the keys N', never over configurations.
    """
    require(nu >= 0.0, "nu must be nonnegative")
    reports = []
    for trunc in truncations:
        op_lin = add_linear_source(model, trunc, nu, volume)
        op_sqrt = add_sqrt_source(model, trunc, nu, volume, coefficient)
        n0 = np.arange(trunc.cutoffs[0] + 1.0)
        sqrt_shifted = np.sqrt(n0 / volume + 1.0 / volume)
        chain_upper = coefficient * nu * _average(op_sqrt, beta, sqrt_shifted)
        rho0_sqrt = _average(op_sqrt, beta, n0) / volume
        jensen_upper = coefficient * nu * math.sqrt(rho0_sqrt + 1.0 / volume)
        averages = quasiaverage_fd(op_lin, beta, volume)
        # <(H_lin - H_sqrt)/V>_lin; the a0 + a0^dag part always carries 2*nu.
        chain_lower = (coefficient * nu * _average(op_lin, beta, sqrt_shifted)
                       - 2.0 * nu * averages.a0_scaled)
        p_lin = gibbs_trace(op_lin, beta, volume)
        p_sqrt = gibbs_trace(op_sqrt, beta, volume)
        # H_lin - H_sqrt depends on n0 alone, so its two Bogoliubov bounds
        # are the chain's ends.
        ineq = InequalityReport(lower=chain_lower, upper=chain_upper,
                                delta_p=p_sqrt - p_lin)
        reports.append(SandwichReport(
            cutoffs=trunc.cutoffs, dimension=trunc.dimension, volume=volume,
            pressure_linear=p_lin, pressure_sqrt=p_sqrt,
            inequality=ineq, chain_lower=chain_lower, chain_upper=chain_upper,
            jensen_upper=jensen_upper, linear_averages=averages,
            shell_weight=boundary_shell_weight(op_lin, beta)))
    return reports
