import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_limits.errors import DomainError
from bose_limits.lattice_ideal import ThermoPoint, build_lattice, pressure_ideal_primed
from bose_limits.source_model import (condensate_density_source, mu_star,
                                      pressure_source, solve_mu_finite,
                                      zero_mode_depletion)

TWO_PI = 2.0 * math.pi
INV_E_MINUS_1 = 0.58197670686932642439


@pytest.fixture(scope="module")
def zero_mode_lattice():
    # p_max below the lattice spacing lists only p = 0
    return build_lattice(3, TWO_PI, 0.5)


def solve_mu_exact(beta, volume, rho0, nu):
    """Root of nu^2/mu^2 + (1/V)(e^{-beta*mu}-1)^{-1} = rho0 on (-inf, 0).

    The oracle for `solve_mu_finite`: the left side is the exact
    finite-volume zero-mode density of the linear-source model and is
    strictly increasing in mu, so the root is unique and bracketable.
    """

    def f(mu):
        return nu * nu / (mu * mu) + zero_mode_depletion(beta, mu, volume) - rho0

    hi = -1e-12
    lo = solve_mu_finite(beta, volume, rho0, nu)
    while f(lo) > 0.0:
        lo *= 2.0
        assert lo >= -1e12, "failed to bracket the chemical potential"
    assert f(hi) > 0.0, "failed to bracket the chemical potential"
    # Bisection keeps f(lo) <= 0 < f(hi) until the bracket is within
    # 2*(1e-15 + 8.9e-16*|mu|); adjacent doubles always are, so it ends.
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * (1e-15 + 8.9e-16 * abs(mid)):
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


class TestPressureSource:
    def test_free_zero_mode(self, zero_mode_lattice):
        beta, mu = 1.0, -0.8
        point = ThermoPoint(beta=beta, mu=mu, nu=0.0, lattice=zero_mode_lattice)
        res = pressure_source(point)
        v = zero_mode_lattice.volume
        assert res.primed == pressure_ideal_primed(point).primed
        assert res.zero_mode + res.constant == pytest.approx(
            -math.log1p(-math.exp(beta * mu)) / (beta * v), rel=1e-14)

    def test_constant_term(self, lattice_d3_l16):
        point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.1, lattice=lattice_d3_l16)
        assert pressure_source(point).constant == pytest.approx(0.02, rel=1e-15)

    def test_eigendecomposition_oracle(self, zero_mode_lattice):
        # the truncated matrix model must reproduce the closed form
        from bose_limits.fockdiag import (DiagonalModel, add_linear_source,
                                          gibbs_trace, truncate_lattice)

        beta, mu, nu = 1.0, -0.5, 0.1
        lat = build_lattice(1, 1.0, 5.0)
        trunc = truncate_lattice(lat, (200,))
        op = add_linear_source(DiagonalModel(a=0.0, mu=mu), trunc, nu, 1.0)
        matrix_pressure = gibbs_trace(op, beta, 1.0)
        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lat)
        closed = pressure_source(point)
        assert matrix_pressure == pytest.approx(
            closed.zero_mode + closed.constant, abs=1e-10)

    def test_nu_zero_reduction_term_by_term(self, lattice_d3_l16):
        beta, mu = 1.0, -0.5
        with_source = pressure_source(
            ThermoPoint(beta=beta, mu=mu, nu=0.0, lattice=lattice_d3_l16))
        ideal = pressure_ideal_primed(
            ThermoPoint(beta=beta, mu=mu, lattice=lattice_d3_l16))
        assert with_source.primed == ideal.primed
        assert with_source.constant == 0.0
        v = lattice_d3_l16.volume
        assert with_source.zero_mode == -math.log1p(-math.exp(beta * mu)) / (beta * v)

    @given(mu=st.floats(-3.0, -0.05), nu=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_sign_contract(self, zero_mode_lattice, mu, nu):
        point = ThermoPoint(beta=1.0, mu=mu, nu=nu, lattice=zero_mode_lattice)
        res = pressure_source(point)
        assert res.zero_mode >= 0.0
        assert res.constant >= 0.0


class TestCondensateDensity:
    def test_nu_zero(self):
        assert condensate_density_source(-0.5, 0.0) == 0.0

    def test_values(self):
        assert condensate_density_source(-0.5, 0.1) == pytest.approx(0.04, rel=1e-15)
        assert condensate_density_source(-0.1, 0.1) == pytest.approx(1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            condensate_density_source(0.0, 0.1)


class TestZeroModeDepletion:
    def test_unit_volume(self):
        assert zero_mode_depletion(1.0, -1.0, 1.0) == pytest.approx(
            INV_E_MINUS_1, rel=1e-15)

    def test_inverse_volume_scaling(self):
        v1 = zero_mode_depletion(1.0, -1.0, 1.0)
        v6 = zero_mode_depletion(1.0, -1.0, 1e6)
        assert v6 == pytest.approx(v1 / 1e6, rel=1e-14)
        assert v6 == pytest.approx(5.8197670686932645e-07, rel=1e-12)

    def test_deep_mu(self):
        assert zero_mode_depletion(1.0, -50.0, 1.0) < 1e-20

    @pytest.mark.parametrize("beta, mu, volume", [(20.0, -40.0, 32768.0), (1.0, -720.0, 8.0)])
    def test_past_the_overflow_of_e_to_minus_beta_mu(self, beta, mu, volume):
        # e^(-beta*mu) overflows from beta*|mu| = 709.8 on; the occupation
        # is e^(beta*mu) there, to the last bit (0 at beta*|mu| = 800).
        value = zero_mode_depletion(beta, mu, volume)
        assert math.isfinite(value)
        assert value == math.exp(beta * mu) / volume


class TestChemicalPotentialSolvers:
    def test_worked_example(self):
        mu_l = solve_mu_finite(1.0, 1e6, 0.04, 0.1)
        assert mu_l == pytest.approx(-0.5000125, abs=1e-7)

    def test_against_root_oracle(self):
        beta, vol, rho0, nu = 1.0, 1e6, 0.04, 0.1
        a, c = beta * vol * rho0, beta * vol * nu * nu
        roots = np.roots([a, 1.0, -c])
        negative = min(roots)
        assert solve_mu_finite(beta, vol, rho0, nu) == pytest.approx(negative, rel=1e-12)

    def test_quadratic_residual(self):
        beta, vol, rho0, nu = 1.0, 1e6, 0.04, 0.1
        mu_l = solve_mu_finite(beta, vol, rho0, nu)
        a, c = beta * vol * rho0, beta * vol * nu * nu
        residual = a * mu_l * mu_l + mu_l - c
        assert abs(residual) / max(abs(a * mu_l * mu_l), abs(c)) < 1e-12

    def test_nu_zero_limit(self):
        assert solve_mu_finite(1.0, 100.0, 0.5, 0.0) == pytest.approx(
            -1.0 / (1.0 * 100.0 * 0.5), rel=1e-14)

    def test_volume_ladder_converges_to_mu_star(self):
        beta, rho0, nu = 1.0, 0.04, 0.1
        target = mu_star(rho0, nu)
        gaps = [abs(solve_mu_finite(beta, v, rho0, nu) - target)
                for v in (1e3, 1e4, 1e5, 1e6)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        rate = -np.polyfit(np.log([1e3, 1e4, 1e5, 1e6]), np.log(gaps), 1)[0]
        assert rate == pytest.approx(1.0, abs=0.02)

    def test_strictly_decreasing_in_nu(self):
        vals = [solve_mu_finite(1.0, 1e4, 0.04, nu) for nu in (0.05, 0.1, 0.2, 0.4)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_exact_solver_residual(self):
        beta, vol, rho0, nu = 1.0, 1e5, 0.04, 0.1
        mu = solve_mu_exact(beta, vol, rho0, nu)
        residual = nu * nu / (mu * mu) + zero_mode_depletion(beta, mu, vol) - rho0
        assert abs(residual) < 1e-10 * rho0
        assert mu < 0.0

    def test_exact_and_quadratic_agree_at_large_volume(self):
        # both solvers land mu* + O(1/V); their mutual gap is itself O(1/V)
        beta, rho0, nu = 1.0, 0.04, 0.1
        diffs = [abs(solve_mu_exact(beta, v, rho0, nu) - solve_mu_finite(beta, v, rho0, nu))
                 for v in (1e4, 1e6)]
        assert diffs[1] < diffs[0] / 50.0
        assert diffs[1] < 1e-5

    def test_mu_star(self):
        assert mu_star(0.04, 0.1) == pytest.approx(-0.5, rel=1e-14)
        assert mu_star(0.04, 0.0) == 0.0
