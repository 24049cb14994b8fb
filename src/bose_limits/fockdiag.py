"""Exact statistical mechanics of diagonal Bose models on truncated Fock spaces.

A full-diagonal Hamiltonian is a function of the occupation numbers only:
here sum_p lam(p)*n_p + (a/2V)(N^2 - N) + (1/2V) sum v(p-p') n_p n_p' - mu*N.
On a finite set of modes with per-mode occupation cutoffs the model lives
on an explicit configuration list, and Gibbs traces and expectations are
ordinary finite sums.  Two external sources couple to the zero mode:

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

All matrices are real symmetric by construction.  The mixed-radix layout
puts n0 first, so configuration j*stride + b (n0 = j) couples only to
j*stride + b +- stride: a zero-mode-coupled operator is the direct sum of
`stride` tridiagonal blocks of order c0+1 (c0 the zero-mode cutoff) and is
never formed densely.  The Hamiltonian is quadratic in the occupations and
neither source depends on the p != 0 modes, so in block b

    E(n0, b) = E(0, b) + A*n0^2 + c_b*n0,   A = (a + v(0))/(2V),

where c_b depends on b only through N' (the bosons with p != 0) and, with
a pair kernel, sum_(p != 0) v(p)*omega_p.  Blocks with equal keys (N', that
sum) have the same eigenvectors, and their spectra differ by the shift
E(0, b).  So one batched eigendecomposition over the K distinct keys serves
every block (`OperatorMatrix.blocks`, once per operator since it does not
depend on beta), and every Gibbs sum factors through the per-key weights
G_key = sum over the key's blocks of e^(-beta*E(0, b)), each an exactly
rounded sum (never a stochastic estimator).  Without a kernel K is at most
sum_(i>=1) c_i + 1, and a rung costs O(K*c0^3 + stride + D) time for D
configurations, in place of O(D*c0^2).  MAX_ALLOC_BYTES bounds what a
truncation allocates (see FockTruncation).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

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
    """A finite window of Fock space: retained modes and occupation cutoffs.

    The zero mode must be present and sit first.  `dimension` is the full
    configuration count D = prod(cutoff+1).  Construction refuses a
    truncation whose rung would allocate more than MAX_ALLOC_BYTES: the
    configuration table and its float copy, ~3*D*m*8 bytes for m modes,
    plus the keyed block eigensolve, ~3*K*(c0+1)^2*8 bytes for K keys.
    Without a pair kernel K = min(stride, sum_(i>=1) c_i + 1); a kernel can
    split those keys, so `add_linear_source` counts such a model's keys
    (O(stride*m), no enumeration) and checks it against them first.
    """

    modes: np.ndarray = field(repr=False)     # shape (m, d)
    energies: np.ndarray = field(repr=False)  # lam(p) per retained mode
    cutoffs: tuple

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.energies.setflags(write=False)
        m = self.modes.shape[0]
        require(m == len(self.cutoffs) and m == self.energies.shape[0],
                "modes, energies and cutoffs must agree in length")
        require(all(int(c) == c and c >= 1 for c in self.cutoffs),
                "cutoffs must be integers >= 1")
        if not np.all(self.modes[0] == 0.0):
            raise DomainError("the zero mode must be retained and listed first")
        self.check_bytes(min(self.zero_mode_stride, sum(self.cutoffs[1:]) + 1))
        require(self.dimension >= 2, "dimension must be >= 2")

    def check_bytes(self, keys: int) -> None:
        """Refuse a rung whose table and eigensolve of `keys` blocks pass the ceiling."""
        table_bytes = 3 * self.dimension * self.n_modes * 8
        block_bytes = 3 * keys * (self.cutoffs[0] + 1) ** 2 * 8
        if table_bytes + block_bytes > MAX_ALLOC_BYTES:
            raise ResourceGuardError(
                f"Fock dimension {self.dimension} needs ~{table_bytes} bytes of "
                f"configuration table for {self.n_modes} modes and ~{block_bytes} "
                f"bytes of block eigensolve for {keys} blocks of zero-mode cutoff "
                f"{self.cutoffs[0]}, above the ceiling {MAX_ALLOC_BYTES}")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def dimension(self) -> int:
        return int(np.prod([c + 1 for c in self.cutoffs], dtype=object))

    @property
    def zero_mode_stride(self) -> int:
        """Index offset between configurations differing by one zero-mode boson."""
        return int(np.prod([c + 1 for c in self.cutoffs[1:]], dtype=np.int64)) \
            if len(self.cutoffs) > 1 else 1


def truncate_lattice(lattice: ModeLattice, cutoffs: Sequence[int]) -> FockTruncation:
    """Keep the first len(cutoffs) modes of a lattice (canonical order), from
    `ModeLattice.leading_modes`: a DomainError if p_max holds fewer."""
    require(len(cutoffs) >= 1, "at least one cutoff is required")
    modes, energies = lattice.leading_modes(len(cutoffs))
    return FockTruncation(modes=modes, energies=energies,
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
    """Couplings of a full-diagonal Hamiltonian.

    `a` is the mean-field coupling (a > 0 with kernel >= 0 gives a
    superstable model); `kernel`, when given, maps a momentum difference
    p - p' to a pair interaction v(p - p') and must be even and
    nonnegative.
    """

    a: float
    mu: float
    kernel: Optional[Callable] = None


def diagonal_energies(model: DiagonalModel, trunc: FockTruncation,
                      volume: float) -> np.ndarray:
    """Grand-canonical energy E(omega) of every configuration.

    E = sum lam*omega + (a/2V)(N^2 - N) + (1/2V) sum v(p-p') omega omega'
        - mu*N.
    """
    require(volume > 0.0, "volume must be positive")
    cfg = enumerate_configs(trunc)
    occ = cfg.occupations.astype(float)
    n_tot = cfg.total.astype(float)
    energy = occ @ trunc.energies
    energy += (model.a / (2.0 * volume)) * (n_tot * n_tot - n_tot)
    if model.kernel is not None:
        vmat = _pair_kernel(model, trunc)
        energy += 0.5 / volume * np.einsum("ci,ij,cj->c", occ, vmat, occ)
    energy -= model.mu * n_tot
    return energy


def _pair_kernel(model: DiagonalModel, trunc: FockTruncation) -> np.ndarray:
    """v(p - p') between the retained modes, checked even and nonnegative."""
    m = trunc.n_modes
    vmat = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            vmat[i, j] = model.kernel(trunc.modes[i] - trunc.modes[j])
    if not np.allclose(vmat, vmat.T, rtol=0.0, atol=1e-12):
        raise DomainError("interaction kernel must be even in p - p'")
    if np.any(vmat < 0.0):
        raise DomainError("interaction kernel must be nonnegative")
    return vmat


def _block_keys(model: DiagonalModel, trunc: FockTruncation) -> np.ndarray:
    """A key per zero-mode block; blocks with equal keys differ by a shift only.

    E(n0, b) - E(0, b) depends on b through N' and, with a kernel, through
    sum_(p != 0) v(p)*omega_p.  Without a kernel the key is N' itself, exact
    in integers.  Kernel sums that round apart only split a key.
    """
    occ = _block_occupations(trunc)
    n_primed = occ.sum(axis=1)
    if model.kernel is None:
        return n_primed
    vmat = _pair_kernel(model, trunc)
    pairs = np.column_stack([n_primed, occ @ (vmat[0, 1:] + vmat[1:, 0])])
    return np.unique(pairs, axis=0, return_inverse=True)[1].ravel()


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A real symmetric operator in the configuration basis.

    Either purely diagonal (`coupling` None) or diagonal plus a coupling
    between configurations that differ by one boson in the zero mode.
    `coupling[i]` is the matrix element between configuration i and
    i + stride, stored only where the zero-mode occupation of i is below
    its cutoff.  Zero-mode blocks b (configurations j*stride + b) with
    equal `keys[b]` differ only by the shift diagonal[b], their n0 = 0
    energy.  Gibbs quantities use `blocks` and `gibbs_state`, computed on
    first use; `to_dense` is a test oracle.
    """

    truncation: FockTruncation
    diagonal: np.ndarray
    keys: np.ndarray = field(repr=False)
    coupling: Optional[np.ndarray] = None
    _states: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for a in (self.diagonal, self.keys, self.coupling):
            if a is not None:
                a.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]

    @cached_property
    def key_groups(self):
        """(the key number of each block, the blocks of each key in order)."""
        index = np.unique(self.keys, return_inverse=True)[1].ravel()
        return index, np.split(np.argsort(index, kind="stable"),
                               np.cumsum(np.bincount(index))[:-1])

    @cached_property
    def blocks(self):
        """Eigenpairs of one zero-mode block per key.

        Row j of block b is configuration j*stride + b (n0 = j), so the
        diagonal and coupling arrays reshape to (c0+1, stride); a key's block
        is its first block less that block's shift.  Eigenvalues (K, c0+1)
        and eigenvectors (K, c0+1, c0+1), vectors in columns and unit vectors
        for a diagonal operator; both read-only.  Block b's spectrum is its
        key's plus diagonal[b].
        """
        k = self.truncation.cutoffs[0] + 1
        first = [group[0] for group in self.key_groups[1]]
        diag = self.diagonal.reshape(k, -1)[:, first]
        diag = (diag - diag[0]).T
        if self.coupling is None:
            pairs = diag, np.broadcast_to(np.eye(k), diag.shape + (k,))
        else:
            off = self.coupling.reshape(k, -1)[:-1, first].T
            j = np.arange(k)
            stack = np.zeros(diag.shape + (k,))
            stack[:, j, j] = diag
            stack[:, j[:-1], j[1:]] = off
            stack[:, j[1:], j[:-1]] = off
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
        out = np.diag(self.diagonal)
        if self.coupling is not None:
            stride = self.truncation.zero_mode_stride
            idx = np.nonzero(self.coupling)[0]
            out[idx, idx + stride] = self.coupling[idx]
            out[idx + stride, idx] = self.coupling[idx]
        return out


def add_linear_source(model: DiagonalModel, trunc: FockTruncation, nu: float,
                      volume: float) -> OperatorMatrix:
    """Diagonal model plus the symmetry-breaking term -nu*sqrt(V)*(a0 + a0^dag).

    Matrix elements <.., n0+1, ..|H|.., n0, ..> = -nu*sqrt(V)*sqrt(n0+1);
    the phase is fixed to 0 so the matrix stays real symmetric.  For
    nu = 0 the operator is returned in diagonal form.  A pair kernel is
    checked on its counted keys against the byte ceiling, before enumeration.
    """
    require(nu >= 0.0, "nu must be nonnegative")
    keys = _block_keys(model, trunc)
    if model.kernel is not None:
        trunc.check_bytes(int(keys.max()) + 1)
    diag = diagonal_energies(model, trunc, volume)
    if nu == 0.0:
        return OperatorMatrix(truncation=trunc, diagonal=diag, keys=keys)
    n0 = _zero_mode_occupation(trunc)
    coupling = np.zeros(trunc.dimension)
    open_up = n0 < trunc.cutoffs[0]
    coupling[open_up] = -nu * math.sqrt(volume) * np.sqrt(n0[open_up] + 1.0)
    return OperatorMatrix(truncation=trunc, diagonal=diag, coupling=coupling, keys=keys)


def add_sqrt_source(model: DiagonalModel, trunc: FockTruncation, nu: float,
                    volume: float, coefficient: float = 2.0) -> OperatorMatrix:
    """Diagonal model plus -coefficient*nu*sqrt(V)*sqrt(n0 + 1), still diagonal."""
    require(nu >= 0.0, "nu must be nonnegative")
    return _sqrt_source(add_linear_source(model, trunc, 0.0, volume), nu, volume,
                        coefficient)


def _sqrt_source(op: OperatorMatrix, nu: float, volume: float,
                 coefficient: float) -> OperatorMatrix:
    """The diagonal of `op` less coefficient*nu*sqrt(V)*sqrt(n0 + 1), same keys."""
    n0 = _zero_mode_occupation(op.truncation).astype(float)
    diag = op.diagonal - coefficient * nu * math.sqrt(volume) * np.sqrt(n0 + 1.0)
    return OperatorMatrix(truncation=op.truncation, diagonal=diag, keys=op.keys)


@dataclass(frozen=True, eq=False)
class GibbsState:
    """An operator's Gibbs state at one beta, summed over the blocks of each key.

    weights[key, l] = e^(-beta*lam_l)*G_key over the spectrum lam of the
    key's block, scaled by one constant, and z is their sum.
    populations[key, j] and hops[key, j] sum z*<j|rho|j> and z*<j|rho|j+1>
    over the key's blocks.  share[b] = e^(-beta*shift_b)/G_key.
    """

    weights: np.ndarray
    populations: np.ndarray
    hops: np.ndarray
    share: np.ndarray
    z: float
    log_z: float  # log Tr e^(-beta*H)


def _key_sums(op: OperatorMatrix, values: np.ndarray) -> np.ndarray:
    """Exactly rounded sums of per-block `values` over the blocks of each key."""
    return np.array([stable_sum(values[group]) for group in op.key_groups[1]])


def _gibbs_state(op: OperatorMatrix, beta: float) -> GibbsState:
    require(beta > 0.0, "beta must be positive")
    index, groups = op.key_groups
    evals, vecs = op.blocks
    # Each G_key in log scale from its largest term, so no key sums to 0.
    x = -beta * op.diagonal[:index.size]
    top = np.array([x[group].max() for group in groups])
    g = np.exp(x - top[index])
    g_sum = _key_sums(op, g)
    logw = (top + np.log(g_sum))[:, None] - beta * evals
    w = np.exp(logw - logw.max())
    z = stable_sum(w)
    return GibbsState(weights=w, populations=np.einsum("kjl,kl->kj", vecs * vecs, w),
                      hops=np.einsum("kjl,kjl,kl->kj", vecs[:, :-1], vecs[:, 1:], w),
                      share=g / g_sum[index], z=z, log_z=logw.max() + math.log(z))


def _average(op: OperatorMatrix, beta: float, diagonal: np.ndarray,
             coupling: Optional[np.ndarray] = None) -> float:
    """<diag(diagonal) + C> in the Gibbs state of `op`.

    `diagonal` holds one value per configuration, or one per n0 for an
    operator of n0 alone (the two agree for a single mode).  C couples
    configurations i and i + stride with the symmetric element coupling[i],
    given the same way.  A diagonal state has exactly zero hops, which keeps
    symmetry selection rules exact.
    """
    st = op.gibbs_state(beta)
    pops, hops = st.populations.T, st.hops.T
    if diagonal.size == op.dimension:  # spread each key's sums over its blocks
        index = op.key_groups[0]
        pops, hops = pops[:, index] * st.share, hops[:, index] * st.share
    terms = [diagonal.reshape(pops.shape[0], -1) * pops]
    if coupling is not None:
        terms.append(2.0 * coupling.reshape(pops.shape[0], -1)[:-1] * hops)
    return stable_sum(np.concatenate([t.ravel() for t in terms])) / st.z


def gibbs_trace(op: OperatorMatrix, beta: float, volume: float) -> float:
    """Pressure (1/(beta*V)) * log Tr e^(-beta*H)."""
    require(volume > 0.0, "volume must be positive")
    return op.gibbs_state(beta).log_z / (beta * volume)


def gibbs_expectation(observable, op: OperatorMatrix, beta: float) -> float:
    """Thermal average Tr(X e^(-beta*H)) / Tr e^(-beta*H).

    `observable` is either a per-configuration array (an operator diagonal
    in the occupation basis) or a dense matrix.  The Gibbs state is block
    diagonal, so only the observable's zero-mode blocks contribute; for a
    diagonal state only its diagonal does, which keeps symmetry selection
    rules exact.
    """
    x = np.asarray(observable, dtype=float)
    require(x.shape in ((op.dimension,), (op.dimension, op.dimension)),
            "observable shape mismatch")
    if x.ndim == 1:
        return _average(op, beta, x)
    st = op.gibbs_state(beta)
    index = op.key_groups[0]
    q = op.blocks[1][index]
    nb, k = q.shape[:2]
    blocks = np.einsum("jbib->bji", x.reshape(k, nb, k, nb))
    rotated = np.einsum("bjk,bjk->bk", q, blocks @ q)
    return stable_sum(rotated * st.weights[index] * st.share[:, None]) / st.z


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

    Used to certify a truncation a posteriori: the retained window is
    adequate when this weight is negligible against 1.
    """
    trunc = op.truncation
    st = op.gibbs_state(beta)
    edge = np.any(_block_occupations(trunc) == np.asarray(trunc.cutoffs[1:]), axis=1)
    # A block with a p != 0 mode at its cutoff counts whole, any other at n0 = c0.
    edge_share = _key_sums(op, np.where(edge, st.share, 0.0))
    inner_share = _key_sums(op, np.where(edge, 0.0, st.share))
    terms = np.concatenate([(edge_share[:, None] * st.populations).ravel(),
                            inner_share * st.populations[:, -1]])
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
                    beta: float, nu: float, volume: float = 1.0,
                    coefficient: float = 2.0) -> list:
    """Evaluate the two-sided pressure-difference chain on each truncation.

    For every truncation the linear-source and square-root-source
    operators are built on the same configuration set and the chain

        0 <= chain_lower <= delta_p <= chain_upper <= jensen_upper

    is evaluated, with delta_p = p_sqrt - p_linear and each inequality
    allowed SANDWICH_TOL of slack.  The identity
    chain_upper = <(H_lin - H_sqrt)/V> in the diagonal state holds because
    the linear part averages to zero there (selection rule).  Every sum is
    taken over the keys of the zero-mode blocks, never over configurations.
    """
    require(nu >= 0.0, "nu must be nonnegative")
    reports = []
    for trunc in truncations:
        op_lin = add_linear_source(model, trunc, nu, volume)
        op_sqrt = _sqrt_source(op_lin, nu, volume, coefficient)
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
