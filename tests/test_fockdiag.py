import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bose_limits.errors import DomainError, NonConvergenceError, ResourceGuardError
from bose_limits.fockdiag import (DiagonalModel, FockTruncation, _primed_products,
                                  add_linear_source, add_sqrt_source,
                                  boundary_shell_weight, diagonal_energies,
                                  enumerate_configs, gibbs_expectation, gibbs_trace,
                                  quasiaverage_fd, truncate_lattice, verify_sandwich,
                                  zero_mode_annihilator)
from bose_limits.lattice_ideal import build_lattice, pressure_ideal_primed
from bose_limits.nonlinear_model import zero_mode_partial_logsum
from bose_limits.source_model import pressure_source


def jensen_gap(concave_fn, observable, op, beta):
    """f(<X>) - <f(X)> for a concave scalar f and a diagonal observable X.

    Nonnegative by Jensen.  `observable` is a per-configuration array, so
    f(X) is again diagonal and is applied elementwise.
    """
    x = np.asarray(observable, dtype=float)
    fx = np.vectorize(concave_fn, otypes=[float])(x)
    return concave_fn(gibbs_expectation(x, op, beta)) - gibbs_expectation(fx, op, beta)


def single_mode_truncation(cutoff):
    lat = build_lattice(1, 1.0, 5.0)
    return truncate_lattice(lat, (cutoff,))


def two_mode_truncation(cutoffs=(14, 6), side=2.0):
    lat = build_lattice(3, side, 7.0)
    return truncate_lattice(lat, cutoffs)


class TestEnumerateConfigs:
    def test_single_mode(self):
        cfg = enumerate_configs(single_mode_truncation(2))
        assert cfg.occupations.tolist() == [[0], [1], [2]]

    def test_two_modes(self):
        trunc = two_mode_truncation((1, 1))
        cfg = enumerate_configs(trunc)
        assert len(cfg.occupations) == 4

    def test_exhaustive_count_and_primed_total(self):
        lat = build_lattice(3, 2.0, 7.0)
        trunc = truncate_lattice(lat, (3, 2, 2))
        cfg = enumerate_configs(trunc)
        oracle = list(itertools.product(range(4), range(3), range(3)))
        assert cfg.occupations.tolist() == [list(t) for t in oracle]
        assert len(cfg.occupations) == 36
        np.testing.assert_array_equal(cfg.total, cfg.occupations.sum(axis=1))


class TestDiagonalEnergies:
    def test_free_gas_reduction(self):
        trunc = two_mode_truncation((2, 2))
        model = DiagonalModel(a=0.0, mu=-0.7)
        energies = diagonal_energies(model, trunc, volume=8.0)
        cfg = enumerate_configs(trunc)
        oracle = cfg.occupations @ trunc.energies - (-0.7) * cfg.total * (-1.0)
        oracle = cfg.occupations @ trunc.energies + 0.7 * cfg.total
        np.testing.assert_allclose(energies, oracle, rtol=1e-14)

    def test_vacuum_config(self):
        trunc = single_mode_truncation(3)
        energies = diagonal_energies(DiagonalModel(a=1.0, mu=-1.0), trunc, 2.0)
        assert energies[0] == 0.0

    def test_mean_field_hand_value(self):
        # one zero mode, omega = 3, a = 1, V = 2, mu = -1:
        # (1/4)*(9 - 3) + 3 = 4.5
        trunc = single_mode_truncation(3)
        energies = diagonal_energies(DiagonalModel(a=1.0, mu=-1.0), trunc, 2.0)
        assert energies[3] == pytest.approx(4.5, rel=1e-14)

    def test_superstability_witness(self):
        # E(omega) + mu*N >= (a/2V)(N^2 - N) configuration by configuration
        trunc = two_mode_truncation((8, 4))
        model = DiagonalModel(a=1.0, mu=-0.5)
        vol = 8.0
        energies = diagonal_energies(model, trunc, vol)
        cfg = enumerate_configs(trunc)
        n = cfg.total.astype(float)
        witness = energies + model.mu * n - (model.a / (2 * vol)) * (n * n - n)
        assert np.all(witness >= -1e-12)


class TestOperatorConstruction:
    def test_linear_nu_zero_is_diagonal(self):
        trunc = single_mode_truncation(5)
        op = add_linear_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.0, 1.0)
        dense = op.to_dense()
        assert np.array_equal(dense, np.diag(np.diag(dense)))
        assert np.array_equal(op.blocks[1], np.broadcast_to(np.eye(6), (1, 6, 6)))

    def test_linear_two_by_two(self):
        trunc = single_mode_truncation(1)
        nu, vol = 0.3, 4.0
        op = add_linear_source(DiagonalModel(a=0.0, mu=-0.5), trunc, nu, vol)
        dense = op.to_dense()
        expected = np.array([[0.0, -nu * 2.0], [-nu * 2.0, 0.5]])
        np.testing.assert_allclose(dense, expected, atol=1e-15)

    def test_self_adjointness_exact(self):
        trunc = two_mode_truncation((6, 3))
        op = add_linear_source(DiagonalModel(a=1.0, mu=-0.5), trunc, 0.2, 8.0)
        dense = op.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_linear_breaks_number_symmetry(self):
        trunc = single_mode_truncation(6)
        op = add_linear_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.1, 1.0)
        n_op = np.diag(enumerate_configs(trunc).total.astype(float))
        h = op.to_dense()
        assert np.linalg.norm(h @ n_op - n_op @ h) > 1e-3

    def test_sqrt_preserves_number_symmetry(self):
        trunc = single_mode_truncation(6)
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.1, 1.0)
        n_op = np.diag(enumerate_configs(trunc).total.astype(float))
        h = op.to_dense()
        assert np.array_equal(h @ n_op, n_op @ h)

    def test_sqrt_nu_zero_reduction(self):
        trunc = single_mode_truncation(5)
        model = DiagonalModel(a=0.0, mu=-0.5)
        op = add_sqrt_source(model, trunc, 0.0, 1.0)
        np.testing.assert_array_equal(np.diag(op.to_dense()),
                                      diagonal_energies(model, trunc, 1.0))

    @pytest.mark.parametrize("coefficient", [0.0, -1.0])
    def test_sqrt_source_needs_a_positive_coefficient(self, coefficient):
        # As in ExponentFunction: at c <= 0, H_lin - H_sqrt is no longer
        # positive semidefinite and the sandwich has nothing to hold.
        with pytest.raises(DomainError, match="coefficient must be positive"):
            add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5), single_mode_truncation(5),
                            0.1, 1.0, coefficient)

    def test_sqrt_zero_mode_matches_series(self):
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 1.0
        trunc = single_mode_truncation(200)
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=mu), trunc, nu, vol)
        fock = gibbs_trace(op, beta, vol)
        series = zero_mode_partial_logsum(beta, mu, nu, vol, 200)
        assert fock == pytest.approx(series, rel=1e-12)


class TestGibbsTrace:
    def test_free_mode_cutoff_ladder(self):
        beta, mu, vol = 1.0, -0.5, 1.0
        closed = -math.log1p(-math.exp(beta * mu)) / (beta * vol)
        gaps = []
        for cutoff in (5, 10, 20, 40):
            op = add_linear_source(DiagonalModel(a=0.0, mu=mu),
                                   single_mode_truncation(cutoff), 0.0, vol)
            gaps.append(abs(gibbs_trace(op, beta, vol) - closed))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] < 1e-8

    def test_two_by_two_analytic_eigenvalues(self):
        beta, mu, nu, vol = 1.3, -0.8, 0.3, 4.0
        trunc = single_mode_truncation(1)
        op = add_linear_source(DiagonalModel(a=0.0, mu=mu), trunc, nu, vol)
        e0, e1 = 0.0, -mu
        mean = 0.5 * (e0 + e1)
        split = math.sqrt(0.25 * (e0 - e1) ** 2 + nu * nu * vol)
        oracle = math.log(math.exp(-beta * (mean - split))
                          + math.exp(-beta * (mean + split))) / (beta * vol)
        assert gibbs_trace(op, beta, vol) == pytest.approx(oracle, rel=1e-14)

    def test_pressure_beyond_float_range_is_refused(self):
        # log Z is finite, but log Z/(beta*V) overflows at beta = 1e-320.
        op = add_linear_source(DiagonalModel(a=1.0, mu=-0.5), two_mode_truncation((6, 2)),
                               0.1, 8.0)
        assert math.isfinite(gibbs_trace(op, 1e-300, 8.0))
        with pytest.raises(NonConvergenceError, match="not finite"):
            gibbs_trace(op, 1e-320, 8.0)

    def test_linear_source_against_closed_form(self):
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 1.0
        lat = build_lattice(1, 1.0, 5.0)
        from bose_limits.lattice_ideal import ThermoPoint

        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lat)
        closed = pressure_source(point, pressure_ideal_primed(point))
        target = closed.zero_mode + closed.constant
        gaps = []
        for cutoff in (25, 50, 100, 200):
            op = add_linear_source(DiagonalModel(a=0.0, mu=mu),
                                   single_mode_truncation(cutoff), nu, vol)
            gaps.append(abs(gibbs_trace(op, beta, vol) - target))
        assert gaps[0] >= gaps[-1]
        assert gaps[-1] < 1e-8


class TestGibbsExpectation:
    def test_identity(self):
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5),
                             single_mode_truncation(10), 0.1, 1.0)
        ones = np.ones(op.dimension)
        assert gibbs_expectation(ones, op, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_probabilities_normalized(self):
        op = add_sqrt_source(DiagonalModel(a=1.0, mu=-0.5),
                             two_mode_truncation((10, 5)), 0.1, 8.0)
        state = op.gibbs_state(1.0)
        probs = state.weights / state.z
        assert math.fsum(probs.ravel()) == pytest.approx(1.0, abs=1e-14)
        assert np.all(probs >= 0.0)
        # each key's eigenvectors are orthonormal, so its populations carry
        # its whole weight, and its edge and inner shares split it completely
        np.testing.assert_allclose(state.populations.sum(axis=1),
                                   state.weights.sum(axis=1), rtol=1e-14)
        _, edge, inner = op.truncation.key_weights(1.0)
        np.testing.assert_allclose(edge + inner, 1.0, rtol=1e-14)

    def test_zero_temperature_limit(self):
        trunc = single_mode_truncation(10)
        op = add_sqrt_source(DiagonalModel(a=1.0, mu=-0.5), trunc, 0.1, 1.0)
        n0 = enumerate_configs(trunc).occupations[:, 0].astype(float)
        ground = n0[int(np.argmin(np.diag(op.to_dense())))]
        assert gibbs_expectation(n0, op, 200.0) == pytest.approx(ground, abs=1e-10)

    def test_matrix_state_expectation(self):
        trunc = single_mode_truncation(60)
        op = add_linear_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.1, 1.0)
        n0 = enumerate_configs(trunc).occupations[:, 0].astype(float)
        # displaced thermal occupation: nu^2/mu^2 + depletion
        expected = 0.04 + 1.0 / math.expm1(0.5)
        assert gibbs_expectation(n0, op, 1.0) == pytest.approx(expected, abs=1e-6)


class TestBogoliubovBounds:
    """The sandwich's Bogoliubov bounds <H_lin - H_sqrt>/V in either state."""

    def test_equal_operators(self):
        # nu = 0: both sources vanish, so the two operators coincide
        (rep,) = verify_sandwich(DiagonalModel(a=1.0, mu=-0.5),
                                 [single_mode_truncation(12)], 1.0, 0.0, volume=1.0)
        ineq = rep.inequality
        assert ineq.lower == ineq.upper == ineq.delta_p == 0.0
        assert ineq.lower_margin == ineq.upper_margin == 0.0
        assert ineq.passed

    @pytest.mark.parametrize("beta,mu,nu", [(0.5, -2.0, 0.05), (1.0, -0.5, 0.1),
                                            (2.0, -1.0, 0.2)])
    def test_sandwich_holds(self, beta, mu, nu):
        (rep,) = verify_sandwich(DiagonalModel(a=1.0, mu=mu),
                                 [two_mode_truncation((12, 5))], beta, nu, volume=8.0)
        assert rep.inequality.passed
        assert rep.inequality.lower >= -1e-12  # difference operator is positive

    def test_orientation_sign(self):
        # delta_p = p_sqrt - p_linear, so both bounds and delta_p are >= 0
        (rep,) = verify_sandwich(DiagonalModel(a=1.0, mu=-0.5),
                                 [single_mode_truncation(20)], 1.0, 0.1, volume=1.0)
        ineq = rep.inequality
        assert 0.0 <= ineq.lower <= ineq.delta_p <= ineq.upper
        assert ineq.lower_margin > 0.0 and ineq.upper_margin > 0.0


class TestJensenGap:
    def test_constant_observable(self):
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5),
                             single_mode_truncation(10), 0.1, 1.0)
        x = np.full(op.dimension, 3.7)
        assert abs(jensen_gap(math.sqrt, x, op, 1.0)) < 1e-14

    def test_sqrt_gap_nonnegative(self):
        trunc = single_mode_truncation(30)
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.1, 1.0)
        n0 = enumerate_configs(trunc).occupations[:, 0].astype(float)
        gap = jensen_gap(math.sqrt, n0, op, 1.0)
        assert gap >= 0.0

    def test_log1p_gap_nonnegative(self):
        trunc = single_mode_truncation(30)
        op = add_sqrt_source(DiagonalModel(a=1.0, mu=-0.5), trunc, 0.2, 1.0)
        n0 = enumerate_configs(trunc).occupations[:, 0].astype(float)
        assert jensen_gap(math.log1p, n0, op, 0.7) >= -1e-12

    def test_linear_function_gap_vanishes(self):
        trunc = single_mode_truncation(25)
        op = add_sqrt_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.1, 1.0)
        n0 = enumerate_configs(trunc).occupations[:, 0].astype(float)
        assert abs(jensen_gap(lambda v: 2.0 * v + 1.0, n0, op, 1.0)) < 1e-13


class TestSelectionRules:
    @pytest.mark.parametrize("a,nu_sqrt", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.2),
                                           (1.0, 0.2)])
    def test_a0_average_vanishes_exactly(self, a, nu_sqrt):
        trunc = single_mode_truncation(15)
        op = add_sqrt_source(DiagonalModel(a=a, mu=-0.5), trunc, nu_sqrt, 2.0)
        a0 = zero_mode_annihilator(trunc)
        assert gibbs_expectation(a0, op, 1.0) == 0.0

    def test_quasiaverage_nu_zero(self):
        trunc = single_mode_truncation(15)
        op = add_linear_source(DiagonalModel(a=0.0, mu=-0.5), trunc, 0.0, 1.0)
        res = quasiaverage_fd(op, 1.0, 1.0)
        assert res.a0_scaled == 0.0

    def test_quasiaverage_matches_displacement(self):
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 1.0
        values = []
        for cutoff in (30, 60, 120):
            op = add_linear_source(DiagonalModel(a=0.0, mu=mu),
                                   single_mode_truncation(cutoff), nu, vol)
            values.append(quasiaverage_fd(op, beta, vol).a0_scaled)
        target = -nu / mu
        gaps = [abs(v - target) for v in values]
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] < 1e-10

    def test_quasiaverage_nonnegative_for_positive_source(self):
        trunc = two_mode_truncation((10, 4))
        op = add_linear_source(DiagonalModel(a=1.0, mu=-0.8), trunc, 0.15, 8.0)
        res = quasiaverage_fd(op, 1.2, 8.0)
        assert res.a0_scaled >= 0.0
        assert res.sqrt_density >= 0.0


class TestTruncationBehavior:
    def test_resource_guard(self):
        lat = build_lattice(1, 1.0, 5.0)
        with pytest.raises(ResourceGuardError):
            truncate_lattice(lat, (100000,))

    def test_guard_counts_bytes_not_configurations(self):
        # 26,901 configurations, but only ~3.7 MB of block eigensolve
        # (41 keys of order 61): accepted.
        lat = build_lattice(3, 2.0, 7.0)
        assert truncate_lattice(lat, (60, 20, 20)).dimension == 26_901

    def test_zero_mode_required(self):
        lat = build_lattice(1, 1.0, 5.0)
        with pytest.raises(DomainError):
            energies = lat.leading_energies(3)
            FockTruncation(energies=energies[1:3].copy(), cutoffs=(2, 2))

    def test_diagonal_pressure_nondecreasing_in_cutoff(self):
        beta, vol = 1.0, 1.0
        model = DiagonalModel(a=0.5, mu=-0.4)
        vals = [gibbs_trace(add_sqrt_source(model, single_mode_truncation(c),
                                            0.2, vol), beta, vol)
                for c in (4, 8, 16, 32)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matrix_pressure_nondecreasing_with_weyl_bound(self):
        beta, vol = 1.0, 1.0
        model = DiagonalModel(a=0.5, mu=-0.4)
        nu = 0.2
        small = add_linear_source(model, single_mode_truncation(10), nu, vol)
        big = add_linear_source(model, single_mode_truncation(14), nu, vol)
        p_small = gibbs_trace(small, beta, vol)
        p_big = gibbs_trace(big, beta, vol)
        assert p_big >= p_small
        # Split H_big = (H_small direct-sum new block) + connector; by Weyl
        # every eigenvalue drops by at most the connector norm |c|, and the
        # new block is floored by Gershgorin, so
        #   Z_big <= e^(beta*|c|) * (Z_small + m * e^(-beta*floor)).
        dense = big.to_dense()
        connector = abs(dense[10, 11])
        new_diag = np.diag(dense)[11:]
        new_coupling = abs(np.diag(dense, 1)[11:14])
        floor = (new_diag - 2.0 * new_coupling.max()).min()
        z_small = math.exp(beta * vol * p_small)
        gain = len(new_diag) * math.exp(-beta * floor)
        bound = connector / vol + math.log1p(gain / z_small) / (beta * vol)
        assert p_big - p_small <= bound

    def test_shell_weight_shrinks_with_cutoff(self):
        model = DiagonalModel(a=0.0, mu=-0.5)
        weights = [boundary_shell_weight(
            add_sqrt_source(model, single_mode_truncation(c), 0.1, 1.0), 1.0)
            for c in (10, 20, 45)]
        assert weights[0] > weights[1] > weights[2]
        assert weights[-1] < 1e-8


class TestVerifySandwich:
    def test_nu_zero_trivial(self):
        model = DiagonalModel(a=1.0, mu=-0.5)
        reports = verify_sandwich(model, [two_mode_truncation((8, 4))], 1.0, 0.0,
                                  volume=8.0)
        rep = reports[0]
        assert rep.delta_p == 0.0
        assert rep.chain_lower == 0.0
        assert rep.chain_upper == 0.0
        assert rep.chain_passed

    def test_chain_small_grid(self):
        model_grid = [(0.5, -1.0, 0.1), (1.0, -0.5, 0.1), (2.0, -0.5, 0.2)]
        trunc = two_mode_truncation((14, 6))
        for beta, mu, nu in model_grid:
            reports = verify_sandwich(DiagonalModel(a=1.0, mu=mu), [trunc],
                                      beta, nu, volume=8.0)
            rep = reports[0]
            assert rep.chain_passed
            assert 0.0 - 1e-12 <= rep.chain_lower <= rep.delta_p + 1e-12
            assert rep.delta_p <= rep.chain_upper + 1e-12
            assert rep.chain_upper <= rep.jensen_upper + 1e-12

    def test_reduces_to_source_model_gap(self):
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 1.0
        trunc = single_mode_truncation(200)
        reports = verify_sandwich(DiagonalModel(a=0.0, mu=mu), [trunc], beta, nu,
                                  volume=vol)
        fock_delta = reports[0].delta_p
        series = zero_mode_partial_logsum(beta, mu, nu, vol, 200)
        zero_lin = -math.log1p(-math.exp(beta * mu)) / (beta * vol) - nu * nu / mu
        assert fock_delta == pytest.approx(series - zero_lin, abs=1e-10)

    def test_delta_p_decreases_with_volume(self):
        model = DiagonalModel(a=1.0, mu=-0.5)
        deltas = []
        for side in (1.0, 2.0, 3.0):
            lat = build_lattice(3, side, 7.0)
            trunc = truncate_lattice(lat, (14, 6))
            rep = verify_sandwich(model, [trunc], 1.0, 0.1, volume=lat.volume)[0]
            deltas.append(rep.delta_p)
        assert deltas[0] > deltas[1] > deltas[2] > 0.0


def dense_state(op, beta):
    """Oracle: log Z and the normalized density matrix from a dense eigh."""
    evals, vecs = np.linalg.eigh(op.to_dense())
    logw = -beta * evals
    w = np.exp(logw - logw.max())
    return logw.max() + math.log(w.sum()), (vecs * (w / w.sum())) @ vecs.T


def assert_close(actual, oracle):
    # 1e-12 relative; the floor is the dense oracle's own roundoff on
    # normalized traces.
    assert actual == pytest.approx(oracle, rel=1e-12, abs=1e-15)


# (name, cutoffs, lattice (d, side, p_max), model, beta, nu); D <= ~1000.
ORACLE_CASES = [
    ("single-mode", (200,), (1, 1.0, 5.0), DiagonalModel(a=0.3, mu=-0.5), 1.0, 0.1),
    ("c0=1", (1, 4, 4), (3, 2.0, 7.0), DiagonalModel(a=1.0, mu=-0.4), 0.8, 0.2),
    ("14,6", (14, 6), (3, 2.0, 7.0), DiagonalModel(a=1.0, mu=-0.5), 1.0, 0.1),
    ("16,6,6", (16, 6, 6), (3, 2.0, 7.0), DiagonalModel(a=1.2, mu=-0.6), 1.1, 0.12),
    ("nu=0", (14, 6), (3, 2.0, 7.0), DiagonalModel(a=1.0, mu=-0.5), 1.0, 0.0),
    # Every key but N' = 0 weighs e^(-beta*E(0, b)) < 1e-300 of it.
    ("cold", (14, 6), (3, 2.0, 7.0), DiagonalModel(a=1.0, mu=-0.5), 800.0, 0.1),
    # Every p != 0 configuration but the empty one weighs < e^(-980) of it.
    ("beta=200", (16, 6, 6), (3, 2.0, 7.0), DiagonalModel(a=1.0, mu=-0.5), 200.0, 0.1),
]


def sandwich_oracle(trunc, beta, nu, vol, op_lin, op_sqrt):
    """Every SandwichReport field from dense eigendecompositions of both operators."""
    cfg = enumerate_configs(trunc)
    n0 = cfg.occupations[:, 0].astype(float)
    at_edge = np.any(cfg.occupations == np.asarray(trunc.cutoffs), axis=1)
    shifted = np.sqrt((n0 + 1.0) / vol)
    log_z_lin, rho_lin = dense_state(op_lin, beta)
    log_z_sqrt, rho_sqrt = dense_state(op_sqrt, beta)
    pop_lin, pop_sqrt = np.diagonal(rho_lin), np.diagonal(rho_sqrt)
    diff = op_lin.to_dense() - op_sqrt.to_dense()
    a0_scaled = np.sum(zero_mode_annihilator(trunc) * rho_lin) / math.sqrt(vol)
    return {
        "pressure_linear": log_z_lin / (beta * vol),
        "pressure_sqrt": log_z_sqrt / (beta * vol),
        "delta_p": (log_z_sqrt - log_z_lin) / (beta * vol),
        "lower": np.sum(diff * rho_lin) / vol,
        "upper": np.sum(diff * rho_sqrt) / vol,
        "chain_lower": 2.0 * nu * (shifted @ pop_lin - a0_scaled),
        "chain_upper": 2.0 * nu * (shifted @ pop_sqrt),
        "jensen_upper": 2.0 * nu * math.sqrt((n0 @ pop_sqrt + 1.0) / vol),
        "a0_scaled": a0_scaled,
        "sqrt_density": math.sqrt(n0 @ pop_lin / vol),
        "shell_weight": at_edge.astype(float) @ pop_lin,
    }


def report_fields(rep):
    return {
        "pressure_linear": rep.pressure_linear, "pressure_sqrt": rep.pressure_sqrt,
        "delta_p": rep.delta_p, "lower": rep.inequality.lower,
        "upper": rep.inequality.upper, "chain_lower": rep.chain_lower,
        "chain_upper": rep.chain_upper, "jensen_upper": rep.jensen_upper,
        "a0_scaled": rep.linear_averages.a0_scaled,
        "sqrt_density": rep.linear_averages.sqrt_density,
        "shell_weight": rep.shell_weight,
    }


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
class TestBlockEigensolveAgainstDenseOracle:
    """The per-n0-block eigensolve against np.linalg.eigh of the dense matrix."""

    def setup_ops(self, case):
        _, cutoffs, (d, side, p_max), model, beta, nu = case
        lat = build_lattice(d, side, p_max)
        trunc = truncate_lattice(lat, cutoffs)
        vol = lat.volume
        op_lin = add_linear_source(model, trunc, nu, vol)
        op_sqrt = add_sqrt_source(model, trunc, nu, vol)
        return trunc, model, beta, nu, vol, op_lin, op_sqrt

    def test_trace_and_expectations(self, case):
        trunc, _, beta, _, vol, op_lin, op_sqrt = self.setup_ops(case)
        cfg = enumerate_configs(trunc)
        n0 = cfg.occupations[:, 0].astype(float)
        observables = [n0, cfg.total.astype(float), np.sqrt(n0 + 1.0)]
        a0 = zero_mode_annihilator(trunc)
        for op in (op_lin, op_sqrt):
            log_z, rho = dense_state(op, beta)
            assert_close(gibbs_trace(op, beta, vol), log_z / (beta * vol))
            for x in observables:
                assert_close(gibbs_expectation(x, op, beta), x @ np.diagonal(rho))
            assert_close(gibbs_expectation(a0, op, beta), np.sum(a0 * rho))

    def test_shell_weight_and_quasiaverage(self, case):
        trunc, _, beta, _, vol, op_lin, _ = self.setup_ops(case)
        cfg = enumerate_configs(trunc)
        at_edge = np.any(cfg.occupations == np.asarray(trunc.cutoffs), axis=1)
        _, rho = dense_state(op_lin, beta)
        assert_close(boundary_shell_weight(op_lin, beta),
                     at_edge.astype(float) @ np.diagonal(rho))
        n0 = cfg.occupations[:, 0].astype(float)
        res = quasiaverage_fd(op_lin, beta, vol)
        assert_close(res.a0_scaled,
                     np.sum(zero_mode_annihilator(trunc) * rho) / math.sqrt(vol))
        assert_close(res.sqrt_density, math.sqrt(n0 @ np.diagonal(rho) / vol))

    def test_bogoliubov_bounds(self, case):
        trunc, model, beta, nu, vol, op_lin, op_sqrt = self.setup_ops(case)
        oracle = sandwich_oracle(trunc, beta, nu, vol, op_lin, op_sqrt)
        lower_margin = oracle["delta_p"] - oracle["lower"]
        upper_margin = oracle["upper"] - oracle["delta_p"]
        # Bogoliubov's inequality on the dense matrices themselves
        assert lower_margin >= -1e-12 and upper_margin >= -1e-12
        (rep,) = verify_sandwich(model, [trunc], beta, nu, volume=vol)
        # a margin is a difference, so its error is that of its larger term
        scale = 1e-12 * max(abs(oracle["delta_p"]), abs(oracle["lower"]),
                            abs(oracle["upper"])) + 1e-15
        assert abs(rep.inequality.lower_margin - lower_margin) <= scale
        assert abs(rep.inequality.upper_margin - upper_margin) <= scale
        assert rep.inequality.passed

    def test_verify_sandwich(self, case):
        trunc, model, beta, nu, vol, op_lin, op_sqrt = self.setup_ops(case)
        (rep,) = verify_sandwich(model, [trunc], beta, nu, volume=vol)
        actual = report_fields(rep)
        for key, value in sandwich_oracle(trunc, beta, nu, vol, op_lin, op_sqrt).items():
            assert actual[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
        assert rep.chain_passed


# Largest Fock dimension drawn, so that a dense eigh stays cheap.
DENSE_MAX = 2000


@st.composite
def sandwich_inputs(draw):
    primed = draw(st.lists(st.integers(1, 6), max_size=4))
    stride = math.prod(c + 1 for c in primed)
    assume(2 * stride <= DENSE_MAX)
    c0 = draw(st.integers(1, min(60, DENSE_MAX // stride - 1)))
    nu = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3)))
    model = DiagonalModel(a=draw(st.floats(0.0, 2.0)), mu=-draw(st.floats(0.05, 2.0)))
    return (c0, *primed), model, draw(st.floats(0.3, 5.0)), nu


@given(inputs=sandwich_inputs())
@settings(max_examples=25, deadline=None)
def test_product_sandwich_matches_dense_oracle(inputs):
    # The dense eigh rounds log Z by ~u*|H|, so the fields agree to ~1e-14
    # relative (some 45 ulps) above an absolute floor of 1e-15.
    cutoffs, model, beta, nu = inputs
    lat = build_lattice(3, 2.0, 7.0)
    trunc = truncate_lattice(lat, cutoffs)
    vol = lat.volume
    (rep,) = verify_sandwich(model, [trunc], beta, nu, volume=vol)
    op_lin = add_linear_source(model, trunc, nu, vol)
    op_sqrt = add_sqrt_source(model, trunc, nu, vol)
    oracle = sandwich_oracle(trunc, beta, nu, vol, op_lin, op_sqrt)
    actual = report_fields(rep)
    for key, value in oracle.items():
        assert actual[key] == pytest.approx(value, rel=1e-14, abs=1e-15), key


def test_beta_200_keeps_its_values():
    # Every p != 0 configuration but the empty one weighs < e^(-980) of it,
    # and the shell weight is that of n0 = c0 alone.
    lat = build_lattice(3, 2.0, 7.0)
    (rep,) = verify_sandwich(DiagonalModel(a=1.0, mu=-0.5),
                             [truncate_lattice(lat, (16, 4, 4, 4))], 200.0, 0.1,
                             volume=lat.volume)
    assert rep.pressure_linear == pytest.approx(0.0193663313169, rel=1e-12)
    assert rep.shell_weight == pytest.approx(8.707045245214e-31, rel=1e-12)
    assert rep.chain_passed


@pytest.mark.parametrize("cutoffs,beta", [((3, 2), 1.0), ((5, 3, 1, 2), 0.7),
                                          ((2, 4, 4, 4), 3.0)])
def test_primed_products_against_enumeration(cutoffs, beta):
    # The product's coefficients, split by whether a p != 0 mode sits at its
    # cutoff, against exactly rounded sums over the enumerated configurations,
    # within the stated rounding: (sum_i c_i)*u*(|log coefficient| + 1).
    lat = build_lattice(3, 2.0, 7.0)
    trunc = truncate_lattice(lat, cutoffs)
    inner, edge = _primed_products(trunc, beta)
    occ = np.array(list(itertools.product(*[range(c + 1) for c in cutoffs[1:]])))
    n_primed = occ.sum(axis=1)
    at_edge = np.any(occ == np.asarray(cutoffs[1:]), axis=1)
    terms = np.exp(-beta * (occ @ trunc.energies[1:]))
    for part, mask in ((inner, ~at_edge), (edge, at_edge)):
        oracle = np.array([math.fsum(terms[mask & (n_primed == n)])
                           for n in range(inner.size)])
        some = oracle > 0.0
        assert np.all(part[~some] == -np.inf)
        tol = sum(cutoffs[1:]) * 2.0 ** -53 * (np.abs(part[some]) + 1.0)
        assert np.all(np.abs(np.exp(part[some]) - oracle[some]) <= tol * oracle[some])


class TestBlockEigensolve:
    def test_sandwich_never_builds_dense_matrices(self, monkeypatch):
        from bose_limits import fockdiag

        def refuse(*args):
            raise AssertionError("dense operator or configuration table built")

        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            shapes.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(fockdiag.OperatorMatrix, "to_dense", refuse)
        monkeypatch.setattr(fockdiag.np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(fockdiag, "enumerate_configs", refuse)
        lat = build_lattice(3, 2.0, 7.0)
        trunc = truncate_lattice(lat, (16, 4, 4, 4))
        assert (trunc.dimension, trunc.zero_mode_stride) == (2125, 125)
        model = DiagonalModel(a=1.2, mu=-0.6)
        (rep,) = verify_sandwich(model, [trunc], 1.1, 0.12, volume=lat.volume)
        assert rep.chain_passed
        assert rep.shell_weight < 1e-4
        # One eigendecomposition, of one block per key, serves the whole
        # rung, and no configuration is enumerated.
        assert shapes == [(13, 17, 17)]  # N' = 0, ..., 12

    def test_many_modes_without_enumeration(self, monkeypatch):
        # 27 modes, D = 41 * 9^26 ~ 2.6e26: 209 keys of order 41.
        from bose_limits import fockdiag

        def refuse(trunc):
            raise AssertionError("configurations enumerated")

        monkeypatch.setattr(fockdiag, "enumerate_configs", refuse)
        lat = build_lattice(3, 4.0, 7.0)
        trunc = truncate_lattice(lat, (40,) + (8,) * 26)
        (rep,) = verify_sandwich(DiagonalModel(a=1.0, mu=-0.5), [trunc], 1.0, 0.1,
                                 volume=lat.volume)
        assert rep.dimension == 41 * 9 ** 26
        assert rep.chain_passed
        assert 0.0 < rep.shell_weight < 1.0

    def test_blocks_are_cached_and_read_only(self):
        op = add_linear_source(DiagonalModel(a=1.0, mu=-0.5), two_mode_truncation(),
                               0.1, 8.0)
        assert op.blocks is op.blocks
        assert not any(a.flags.writeable for a in op.blocks)

    def test_block_byte_guard(self):
        # 20,000 configurations, but the single zero-mode block would need ~9.6 GB.
        lat = build_lattice(1, 1.0, 5.0)
        with pytest.raises(ResourceGuardError, match="block eigensolve"):
            truncate_lattice(lat, (19999,))

    def test_block_byte_guard_counts_every_key(self):
        # (2363, 3): 4 keys of order 2364 need 8 * 4 * (3 * 2364^2 + 4) bytes,
        # just under the ceiling; (2364, 3) passes it.  Three keys would not.
        lat = build_lattice(3, 2.0, 7.0)
        truncate_lattice(lat, (2363, 3))
        with pytest.raises(ResourceGuardError,
                           match=rf"~{8 * 4 * (3 * 2365 ** 2 + 4)} bytes .* for 4 blocks"):
            truncate_lattice(lat, (2364, 3))

    def test_configuration_table_byte_guard(self, monkeypatch):
        # 2^23 configurations of 23 two-level modes: the rung needs 23 keys
        # of order 2, but the dense oracle's configuration table ~4.6 GB.
        # Refused before any allocation.
        from bose_limits import fockdiag

        lat = build_lattice(3, 2.0, 7.0)
        trunc = truncate_lattice(lat, (1,) * 23)
        monkeypatch.setattr(fockdiag.np, "meshgrid", None)
        with pytest.raises(ResourceGuardError, match="configuration table"):
            enumerate_configs(trunc)

    def test_oracle_guard_message_is_exact(self):
        # D = 41 * 9^26 overflows int64; the message carries exact integers.
        lat = build_lattice(3, 4.0, 7.0)
        trunc = truncate_lattice(lat, (40,) + (8,) * 26)
        dimension = 41 * 9 ** 26
        assert (trunc.dimension, trunc.zero_mode_stride) == (dimension, 9 ** 26)
        with pytest.raises(ResourceGuardError) as info:
            enumerate_configs(trunc)
        message = str(info.value)
        assert f"Fock dimension {dimension} needs ~{3 * dimension * 27 * 8} bytes" in message
        assert "-" not in message
