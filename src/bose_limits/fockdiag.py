"""Exact statistical mechanics of diagonal Bose models on truncated Fock spaces.

A full-diagonal Hamiltonian is a function of the occupation numbers only:
here sum_p lam(p)*n_p + (a/2V)(N^2 - N) + (1/2V) sum v(p-p') n_p n_p' - mu*N.
On a finite set of modes with per-mode occupation cutoffs the model lives
on an explicit configuration list, and Gibbs traces, probabilities and
expectations are ordinary finite sums.  Two external sources couple to
the zero mode:

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
never formed densely.  Traces, expectations, the shell weight and the
variational bounds go through one batched eigendecomposition of that
(stride, c0+1, c0+1) stack (never a stochastic estimator), in O(D*c0^2)
time and O(D*c0) memory for D configurations, once per operator since
the eigenpairs do not depend on beta (`OperatorMatrix.blocks`).
MAX_ALLOC_BYTES bounds what a truncation allocates (see FockTruncation).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (MAX_ALLOC_BYTES, DomainError, NonConvergenceError,
                     ResourceGuardError, require)
from .lattice_ideal import ModeLattice
from .summation import log_sum_exp, stable_sum

__all__ = [
    "FockTruncation",
    "Configurations",
    "DiagonalModel",
    "OperatorMatrix",
    "InequalityReport",
    "SandwichReport",
    "ZeroModeAverages",
    "truncate_lattice",
    "enumerate_configs",
    "diagonal_energies",
    "add_linear_source",
    "add_sqrt_source",
    "gibbs_trace",
    "gibbs_probabilities",
    "gibbs_expectation",
    "bogoliubov_bounds",
    "quasiaverage_fd",
    "boundary_shell_weight",
    "verify_sandwich",
]


@dataclass(frozen=True, eq=False)
class FockTruncation:
    """A finite window of Fock space: retained modes and occupation cutoffs.

    The zero mode must be present and sit first.  `dimension` is the full
    configuration count D = prod(cutoff+1).  Construction refuses a
    truncation whose rung would allocate more than MAX_ALLOC_BYTES: the
    configuration table and its float copy, ~3*D*m*8 bytes for m modes,
    plus the block eigensolve, ~3*D*(c0+1)*8 bytes.
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
        table_bytes = 3 * self.dimension * m * 8
        block_bytes = 3 * self.dimension * (self.cutoffs[0] + 1) * 8
        if table_bytes + block_bytes > MAX_ALLOC_BYTES:
            raise ResourceGuardError(
                f"Fock dimension {self.dimension} needs ~{table_bytes} bytes of "
                f"configuration table for {m} modes and ~{block_bytes} bytes of "
                f"block eigensolve for zero-mode cutoff {self.cutoffs[0]}, above "
                f"the ceiling {MAX_ALLOC_BYTES}")
        require(self.dimension >= 2, "dimension must be >= 2")

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
    (zero mode most significant) encode i; N is the total occupation and
    N_primed excludes the zero mode.
    """

    occupations: np.ndarray   # (dimension, n_modes) integers
    total: np.ndarray         # N(omega)
    total_primed: np.ndarray  # N'(omega)


def enumerate_configs(trunc: FockTruncation) -> Configurations:
    radices = [c + 1 for c in trunc.cutoffs]
    grids = np.meshgrid(*[np.arange(r, dtype=np.int64) for r in radices],
                        indexing="ij")
    occ = np.stack([g.ravel() for g in grids], axis=1)
    total = occ.sum(axis=1)
    return Configurations(occupations=occ, total=total,
                          total_primed=total - occ[:, 0])


def _zero_mode_occupation(trunc: FockTruncation) -> np.ndarray:
    """n0 of every configuration: its most significant mixed-radix digit."""
    return np.arange(trunc.dimension) // trunc.zero_mode_stride


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
        m = trunc.n_modes
        vmat = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                vmat[i, j] = model.kernel(trunc.modes[i] - trunc.modes[j])
        if not np.allclose(vmat, vmat.T, rtol=0.0, atol=1e-12):
            raise DomainError("interaction kernel must be even in p - p'")
        if np.any(vmat < 0.0):
            raise DomainError("interaction kernel must be nonnegative")
        energy += 0.5 / volume * np.einsum("ci,ij,cj->c", occ, vmat, occ)
    energy -= model.mu * n_tot
    return energy


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A real symmetric operator in the configuration basis.

    Either purely diagonal or diagonal plus a coupling between
    configurations that differ by one boson in the zero mode
    (`sparsity` is "diagonal" or "zero-mode-coupled").  `coupling[i]`
    is the matrix element between configuration i and i + stride, stored
    only where the zero-mode occupation of i is below its cutoff.  Gibbs
    quantities of a coupled operator use `blocks`, computed on first use;
    `to_dense` is a test oracle.
    """

    truncation: FockTruncation
    diagonal: np.ndarray
    coupling: Optional[np.ndarray] = None

    def __post_init__(self):
        self.diagonal.setflags(write=False)
        if self.coupling is not None:
            self.coupling.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]

    @property
    def sparsity(self) -> str:
        return "diagonal" if self.coupling is None else "zero-mode-coupled"

    @cached_property
    def blocks(self):
        """Eigenpairs of the zero-mode blocks of a coupled operator.

        Row j of block b is configuration j*stride + b (n0 = j), so the
        diagonal and coupling arrays reshape to (c0+1, stride) and transpose
        into the block stack.  Eigenvalues (stride, c0+1) and eigenvectors
        (stride, c0+1, c0+1), vectors in columns; both read-only.
        """
        k = self.truncation.cutoffs[0] + 1
        diag = self.diagonal.reshape(k, -1).T
        off = self.coupling.reshape(k, -1).T[:, :-1]
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
    nu = 0 the operator is returned in diagonal form.
    """
    require(nu >= 0.0, "nu must be nonnegative")
    diag = diagonal_energies(model, trunc, volume)
    if nu == 0.0:
        return OperatorMatrix(truncation=trunc, diagonal=diag)
    n0 = _zero_mode_occupation(trunc)
    coupling = np.zeros(trunc.dimension)
    open_up = n0 < trunc.cutoffs[0]
    coupling[open_up] = -nu * math.sqrt(volume) * np.sqrt(n0[open_up] + 1.0)
    return OperatorMatrix(truncation=trunc, diagonal=diag, coupling=coupling)


def add_sqrt_source(model: DiagonalModel, trunc: FockTruncation, nu: float,
                    volume: float, coefficient: float = 2.0) -> OperatorMatrix:
    """Diagonal model plus -coefficient*nu*sqrt(V)*sqrt(n0 + 1), still diagonal."""
    require(nu >= 0.0, "nu must be nonnegative")
    diag = diagonal_energies(model, trunc, volume)
    n0 = _zero_mode_occupation(trunc).astype(float)
    diag = diag - coefficient * nu * math.sqrt(volume) * np.sqrt(n0 + 1.0)
    return OperatorMatrix(truncation=trunc, diagonal=diag)


def _block_state(op: OperatorMatrix, beta: float):
    """Block eigenvectors Q, Gibbs weights w = e^(-beta*(E - E_min)), z = sum w."""
    evals, vecs = op.blocks
    logw = -beta * evals
    w = np.exp(logw - logw.max())
    return vecs, w, stable_sum(w)


def _average(op: OperatorMatrix, beta: float, diagonal: np.ndarray,
             coupling: Optional[np.ndarray] = None) -> float:
    """<diag(diagonal) + C> in the Gibbs state of `op`.

    C couples configurations i and i + stride with the symmetric element
    coupling[i].  A diagonal state sees only the diagonal part, which keeps
    symmetry selection rules exact.
    """
    if op.coupling is None:
        return stable_sum(diagonal * gibbs_probabilities(op, beta))
    q, w, z = _block_state(op, beta)
    # z*<i|rho|i> = sum_k Q_jk^2 w_k for i = j*stride + b, in configuration order.
    terms = [diagonal * np.einsum("bjk,bk->jb", q * q, w).ravel()]
    if coupling is not None:
        # z*<i|rho|i+stride> = sum_k Q_jk Q_(j+1)k w_k for the n0 < c0 rows.
        hop = np.einsum("bjk,bjk,bk->jb", q[:, :-1], q[:, 1:], w).ravel()
        terms.append(2.0 * coupling[:hop.size] * hop)
    return stable_sum(np.concatenate(terms)) / z


def gibbs_trace(op: OperatorMatrix, beta: float, volume: float) -> float:
    """Pressure (1/(beta*V)) * log Tr e^(-beta*H)."""
    require(beta > 0.0, "beta must be positive")
    require(volume > 0.0, "volume must be positive")
    spectrum = op.diagonal if op.coupling is None else op.blocks[0]
    return log_sum_exp(-beta * spectrum) / (beta * volume)


def gibbs_probabilities(op: OperatorMatrix, beta: float) -> np.ndarray:
    """Configuration probabilities e^(-beta*E) / Z of a diagonal operator."""
    require(beta > 0.0, "beta must be positive")
    if op.coupling is not None:
        raise DomainError("configuration probabilities need a diagonal operator")
    x = -beta * op.diagonal
    w = np.exp(x - x.max())
    return w / stable_sum(w)


def gibbs_expectation(observable, op: OperatorMatrix, beta: float) -> float:
    """Thermal average Tr(X e^(-beta*H)) / Tr e^(-beta*H).

    `observable` is either a per-configuration array (an operator diagonal
    in the occupation basis) or a dense matrix.  The Gibbs state is block
    diagonal, so only the observable's zero-mode blocks contribute; for a
    diagonal state only its diagonal does, which keeps symmetry selection
    rules exact.
    """
    require(beta > 0.0, "beta must be positive")
    x = np.asarray(observable, dtype=float)
    if x.ndim == 1:
        return _average(op, beta, x)
    require(x.shape == (op.dimension, op.dimension), "observable shape mismatch")
    if op.coupling is None:
        return _average(op, beta, np.diagonal(x))
    q, w, z = _block_state(op, beta)
    nb, k = w.shape
    blocks = np.einsum("jbib->bji", x.reshape(k, nb, k, nb))
    rotated = np.einsum("bjk,bjk->bk", q, blocks @ q)
    return stable_sum(rotated * w) / z


@dataclass(frozen=True)
class InequalityReport:
    """Two-sided variational bounds on a pressure difference p_b - p_a."""

    lower: float
    upper: float
    delta_p: float
    tolerance: float

    @property
    def lower_margin(self) -> float:
        return self.delta_p - self.lower

    @property
    def upper_margin(self) -> float:
        return self.upper - self.delta_p

    @property
    def passed(self) -> bool:
        return (self.lower_margin >= -self.tolerance
                and self.upper_margin >= -self.tolerance)


def bogoliubov_bounds(op_a: OperatorMatrix, op_b: OperatorMatrix, beta: float,
                      volume: float, tol: float = 1e-9) -> InequalityReport:
    """Check <(Ha-Hb)/V>_a <= p_b - p_a <= <(Ha-Hb)/V>_b.

    Both operators must live on the same truncation.  The inequality is a
    theorem (convexity of the pressure along the interpolation), so a
    failure beyond `tol` indicates an implementation or conditioning
    problem, never physics.
    """
    require(op_a.dimension == op_b.dimension,
            "operators must share a configuration basis")
    zero = np.zeros(op_a.dimension)
    diagonal = op_a.diagonal - op_b.diagonal
    coupling = ((zero if op_a.coupling is None else op_a.coupling)
                - (zero if op_b.coupling is None else op_b.coupling))
    lower = _average(op_a, beta, diagonal, coupling) / volume
    upper = _average(op_b, beta, diagonal, coupling) / volume
    delta_p = gibbs_trace(op_b, beta, volume) - gibbs_trace(op_a, beta, volume)
    return InequalityReport(lower=lower, upper=upper, delta_p=delta_p, tolerance=tol)


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
    """<a0/sqrt(V)> and sqrt(<n0>/V) in one state, with their mismatch."""

    a0_scaled: float
    sqrt_density: float

    @property
    def difference(self) -> float:
        return self.sqrt_density - self.a0_scaled


def quasiaverage_fd(op: OperatorMatrix, beta: float, volume: float) -> ZeroModeAverages:
    """Zero-mode averages of a (generally symmetry-broken) operator.

    At infinite volume the two members coincide for this model class with
    positive source; at finite truncation their difference is a
    diagnostic.  For the phase-free sources used here both are real and,
    for nu > 0, nonnegative.
    """
    n0 = _zero_mode_occupation(op.truncation).astype(float)
    # The state is real symmetric, so <a0> = <a0 + a0^dag> / 2.
    a0_avg = _average(op, beta, np.zeros(op.dimension),
                      0.5 * np.sqrt(n0 + 1.0)) / math.sqrt(volume)
    n0_avg = gibbs_expectation(n0, op, beta)
    return ZeroModeAverages(a0_scaled=a0_avg,
                            sqrt_density=math.sqrt(max(n0_avg, 0.0) / volume))


def boundary_shell_weight(op: OperatorMatrix, beta: float) -> float:
    """Gibbs weight of configurations with any mode at its cutoff.

    Used to certify a truncation a posteriori: the retained window is
    adequate when this weight is negligible against 1.
    """
    trunc = op.truncation
    cfg = enumerate_configs(trunc)
    at_edge = np.any(cfg.occupations == np.asarray(trunc.cutoffs)[None, :], axis=1)
    return _average(op, beta, at_edge.astype(float))


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
    tolerance: float

    @property
    def delta_p(self) -> float:
        return self.inequality.delta_p

    @property
    def chain_passed(self) -> bool:
        t = self.tolerance
        return (self.chain_lower >= -t
                and self.inequality.passed
                and self.chain_upper <= self.jensen_upper + t)


def verify_sandwich(model: DiagonalModel, truncations: Sequence[FockTruncation],
                    beta: float, nu: float, volume: float = 1.0,
                    coefficient: float = 2.0, tol: float = 1e-9) -> list:
    """Evaluate the two-sided pressure-difference chain on each truncation.

    For every truncation the linear-source and square-root-source
    operators are built on the same configuration set and the chain

        0 <= chain_lower <= delta_p <= chain_upper <= jensen_upper

    is evaluated, with delta_p = p_sqrt - p_linear.  The identity
    chain_upper = <(H_lin - H_sqrt)/V> in the diagonal state holds because
    the linear part averages to zero there (selection rule).
    """
    require(nu >= 0.0, "nu must be nonnegative")
    reports = []
    for trunc in truncations:
        op_lin = add_linear_source(model, trunc, nu, volume)
        op_sqrt = add_sqrt_source(model, trunc, nu, volume, coefficient=coefficient)
        ineq = bogoliubov_bounds(op_lin, op_sqrt, beta, volume, tol=tol)
        n0 = _zero_mode_occupation(trunc).astype(float)
        sqrt_shifted = np.sqrt(n0 / volume + 1.0 / volume)
        chain_upper = coefficient * nu * gibbs_expectation(sqrt_shifted, op_sqrt, beta)
        rho0_sqrt = gibbs_expectation(n0, op_sqrt, beta) / volume
        jensen_upper = coefficient * nu * math.sqrt(rho0_sqrt + 1.0 / volume)
        averages = quasiaverage_fd(op_lin, beta, volume)
        # <(H_lin - H_sqrt)/V>_lin; the a0 + a0^dag part always carries 2*nu.
        chain_lower = (coefficient * nu * gibbs_expectation(sqrt_shifted, op_lin, beta)
                       - 2.0 * nu * averages.a0_scaled)
        reports.append(SandwichReport(
            cutoffs=trunc.cutoffs, dimension=trunc.dimension, volume=volume,
            pressure_linear=gibbs_trace(op_lin, beta, volume),
            pressure_sqrt=gibbs_trace(op_sqrt, beta, volume),
            inequality=ineq, chain_lower=chain_lower, chain_upper=chain_upper,
            jensen_upper=jensen_upper, linear_averages=averages,
            shell_weight=boundary_shell_weight(op_lin, beta), tolerance=tol))
    return reports
