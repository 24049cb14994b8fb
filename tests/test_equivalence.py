import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bose_limits.errors import BoseLimitsError, NonConvergenceError, StepSizeError
from bose_limits.equivalence import (ConvergenceLadder, condensate_temperature_spread,
                                     delta_pressure,
                                     delta_pressure_closed_form, density_from_pressure,
                                     density_limit, fit_rate, pressure_pair, pressure_pairs,
                                     verify_equivalence)
from bose_limits.lattice_ideal import (ThermoPoint, build_lattice,
                                       critical_density_finite,
                                       critical_density_limit, pressure_ideal_limit)
from bose_limits.nonlinear_model import zero_mode_log_partition
from bose_limits.source_model import (condensate_density_source, pressure_source,
                                      zero_mode_depletion)


def mp_pressure_gap(beta, mu, nu, volume, n_terms):
    """Extended-precision zero-mode pressure gap, independent of the library."""
    with mp.workdps(30):
        s = mp.fsum(mp.exp(beta * (mu * n + 2 * nu * mp.sqrt(volume * (n + 1))))
                    for n in range(n_terms + 1))
        sqrt_part = mp.log(s) / (beta * volume)
        linear_part = -mp.log(1 - mp.exp(beta * mu)) / (beta * volume) \
            - mp.mpf(nu) ** 2 / mu
        return float(linear_part - sqrt_part)


class TestDeltaPressure:
    def test_nu_zero_is_exactly_zero(self, lattice_d3_l16):
        point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.0, lattice=lattice_d3_l16)
        assert delta_pressure(point) == 0.0

    @pytest.mark.parametrize("beta,mu,nu", [(1.0, -0.5, 0.1), (0.7, -1.3, 0.3),
                                            (2.0, -0.2, 0.05)])
    def test_decomposition_identity(self, lattice_d3_l16, beta, mu, nu):
        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice_d3_l16)
        dp = delta_pressure(point)
        closed = delta_pressure_closed_form(point)
        assert abs(dp - closed) / abs(closed) < 1e-12

    def test_matches_extended_precision_oracle(self, lattice_d3_l16):
        beta, mu, nu = 1.0, -0.5, 0.1
        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice_d3_l16)
        oracle = mp_pressure_gap(beta, mu, nu, lattice_d3_l16.volume, 12000)
        assert delta_pressure(point) == pytest.approx(oracle, rel=1e-9)

    def test_magnitude_decreases_along_ladder(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        vals = []
        for side in (8, 16, 32):
            lat = build_lattice(3, float(side), 8.0)
            vals.append(abs(delta_pressure(
                ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lat))))
        assert vals[0] > vals[1] > vals[2]


class TestPressurePair:
    @pytest.mark.parametrize("coefficient", [2.0, 3.0])
    def test_equals_the_model_pressures_bit_for_bit(self, lattice_d3_l16, coefficient):
        from bose_limits.nonlinear_model import pressure_sqrt_source

        point = ThermoPoint(beta=1.1, mu=-0.45, nu=0.09, lattice=lattice_d3_l16)
        pair = pressure_pair(point, coefficient=coefficient)
        assert pair.linear == pressure_source(point)
        assert pair.sqrt == pressure_sqrt_source(point, coefficient=coefficient)
        assert pair.delta == pair.linear.total - pair.sqrt.total
        assert pair.identity_rel_err <= 1e-12

    def test_closed_form_and_delta_match_the_public_functions(self, lattice_d3_l16):
        point = ThermoPoint(beta=0.8, mu=-0.7, nu=0.2, lattice=lattice_d3_l16)
        pair = pressure_pair(point)
        assert pair.closed_form == delta_pressure_closed_form(point)
        assert pair.delta == delta_pressure(point)
        pair3 = pressure_pair(point, coefficient=3.0)
        assert pair3.closed_form == delta_pressure_closed_form(point, coefficient=3.0)

    def test_identity_fails_on_a_wrong_breakdown(self, lattice_d3_l16, monkeypatch):
        # The closed form is assembled apart from the breakdowns, so an
        # error in one of them shows in identity_rel_err.
        import dataclasses

        import bose_limits.equivalence as eq

        original = eq.pressure_source

        def off_by_a_bit(point, **kwargs):
            res = original(point, **kwargs)
            return dataclasses.replace(res, constant=res.constant * (1 + 1e-9))

        monkeypatch.setattr(eq, "pressure_source", off_by_a_bit)
        point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.1, lattice=lattice_d3_l16)
        assert pressure_pair(point).identity_rel_err > 1e-9


def outcome(call):
    """What a call returns, or the package error it raises."""
    try:
        return call()
    except BoseLimitsError as exc:
        return exc


class TestPressurePairs:
    """One `pressure_pairs` pass against one `pressure_pair` per point."""

    @given(d=st.sampled_from([1, 2, 3]), beta=st.floats(0.5, 2.0),
           sides=st.lists(st.floats(1.5, 40.0), min_size=1, max_size=4),
           mus=st.lists(st.floats(-2.0, -1e-3), min_size=1, max_size=2),
           repeat=st.booleans(),
           nus=st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), min_size=1, max_size=2),
           rel_tol=st.sampled_from([1e-15, 1e-12, 1e-10]),
           coefficient=st.sampled_from([2.0, 3.0]))
    # Three lattices in one theta evaluation, a repeated mu and nu = 0.
    @example(d=3, beta=1.0, sides=[8.0, 16.0, 32.0], mus=[-0.5, -1e-3], repeat=True,
             nus=[0.1, 0.0], rel_tol=1e-10, coefficient=2.0)
    # Every theta series misses rel_tol 1e-15, alone as in the pass.
    @example(d=3, beta=1.0, sides=[8.0, 40.0], mus=[-1e-3], repeat=False, nus=[0.1],
             rel_tol=1e-15, coefficient=2.0)
    @settings(max_examples=40, deadline=None)
    def test_matches_one_pair_per_point(self, d, beta, sides, mus, repeat, nus, rel_tol,
                                        coefficient):
        mus = mus + mus[:1] if repeat else mus
        lattices = [build_lattice(d, side, 10.0) for side in sides]
        points = [ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice)
                  for lattice, mu, nu in itertools.product(lattices, mus, nus)]

        def readings(pairs):
            return [(point, repr(pair), pair.identity_rel_err, pair.passed(rel_tol))
                    for point, pair in pairs]

        together = outcome(lambda: readings(
            (point, pair) for point, pair, _ in pressure_pairs(beta, lattices, mus, nus,
                                                               rel_tol, coefficient)))
        alone = [outcome(lambda: readings([(point, pressure_pair(point, rel_tol, coefficient))]))
                 for point in points]
        errors = [repr(a) for a in alone if isinstance(a, BoseLimitsError)]
        if errors:
            # The pass stops at one of the errors its points raise alone.
            assert repr(together) in errors
        else:
            assert together == [reading for (reading,) in alone]


LADDER_TO_1024 = (8, 16, 32, 64, 128, 256, 512, 1024)


class TestPassRule:
    """`PressurePair.passed`: the identity within its rounding bound, and
    both truncation bounds within rel_tol of their totals."""

    def test_every_rung_to_1024_passes(self):
        # Identity errors reach 1.5e-11 at side 256 and 1.1e-9 at 1024,
        # relative to the shrinking gap; both are rounding.
        result = verify_equivalence(1.0, -0.5, 0.1, 3, LADDER_TO_1024)
        assert result.rung_passed == (True,) * len(LADDER_TO_1024)
        assert max(result.identity_rel_errors) > 1e-12

    @pytest.mark.parametrize("side", LADDER_TO_1024)
    def test_a_wrong_constant_fails_at_every_side(self, side, monkeypatch):
        import dataclasses

        import bose_limits.equivalence as eq

        original = eq.pressure_source

        def off_by_a_bit(point, **kwargs):
            res = original(point, **kwargs)
            return dataclasses.replace(res, constant=res.constant * (1 + 1e-9))

        point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.1,
                            lattice=build_lattice(3, float(side), 10.0))
        assert pressure_pair(point).passed(1e-10)
        monkeypatch.setattr(eq, "pressure_source", off_by_a_bit)
        assert not pressure_pair(point).passed(1e-10)

    def test_bound_is_tighter_than_1e12_at_small_sides(self):
        for side in (8, 16, 32):
            point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.1,
                                lattice=build_lattice(3, float(side), 10.0))
            pair = pressure_pair(point)
            assert pair.identity_bound < 1e-12 * abs(pair.closed_form)

    def test_a_loose_truncation_bound_fails(self, lattice_d3_l16):
        import dataclasses

        point = ThermoPoint(beta=1.0, mu=-0.5, nu=0.1, lattice=lattice_d3_l16)
        pair = pressure_pair(point)
        assert pair.passed(1e-10)
        loose = pair._replace(linear=dataclasses.replace(pair.linear, truncation_bound=1e-3))
        assert not loose.passed(1e-10)


class TestOneSumPerPoint:
    """The p != 0 sum and the zero-mode series run once per point."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        # Replace the function in every bose_limits namespace that holds it.
        import sys

        original = getattr(sys.modules[module], name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bose_limits"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counting)
        return calls

    def counters(self, monkeypatch):
        return (self.count_calls(monkeypatch, "bose_limits.lattice_ideal",
                                 "pressure_ideal_primed"),
                self.count_calls(monkeypatch, "bose_limits.nonlinear_model",
                                 "zero_mode_log_partition"))

    def test_once_per_ladder_rung(self, monkeypatch):
        # One theta pass serves every rung; each rung runs its own zero-mode series.
        primed, series = self.counters(monkeypatch)
        theta = self.count_calls(monkeypatch, "bose_limits.lattice_ideal", "_theta_series")
        sides = (4, 8, 12)
        result = verify_equivalence(1.0, -0.5, 0.1, 3, sides, p_max=8.0)
        assert (len(theta), len(primed), len(series)) == (1, 0, len(sides))
        assert len(result.rung_durations) == len(sides)

    def test_once_per_pressure_row(self, monkeypatch):
        from bose_limits.cli import parse_config, run

        cfg = parse_config(["--command", "pressure", "--mu=-0.5", "--nu", "0.1",
                            "--side", "6", "--pmax", "6", "--coefficient", "3"])
        primed, series = self.counters(monkeypatch)
        theta = self.count_calls(monkeypatch, "bose_limits.lattice_ideal", "_theta_series")
        code, (row,) = run(cfg)
        assert (len(theta), len(primed), len(series)) == (1, 0, 1)
        assert code == 0 and row["passed"] is True

    def test_sweep_sums_theta_once_per_beta(self, monkeypatch):
        from bose_limits.cli import parse_config, run

        cfg = parse_config(["--command", "sweep", "--beta", "0.5,1", "--mu=-1,-0.5,-0.25",
                            "--nu", "0.1,0.2", "--side", "6", "--pmax", "6"])
        primed, series = self.counters(monkeypatch)
        theta = self.count_calls(monkeypatch, "bose_limits.lattice_ideal", "_theta_series")
        code, rows = run(cfg)
        assert code == 0 and len(rows) == 12
        assert (len(theta), len(primed), len(series)) == (2, 0, 12)


class TestDensityFromPressure:
    def test_recovers_analytic_condensate(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        point = ThermoPoint(beta=beta, mu=mu, nu=nu)
        report = density_from_pressure(
            lambda m: -nu * nu / m + pressure_ideal_limit(beta, m, 3),
            point, h=1e-4,
            rho_c_of_mu=lambda m: critical_density_limit(beta, m, 3, tol=1e-14))
        assert report.rho_0 == pytest.approx(0.04, abs=1e-6)

    def test_depletion_derivative_identity(self):
        beta, vol = 1.0, 100.0
        point = ThermoPoint(beta=beta, mu=-0.5, nu=0.0)
        report = density_from_pressure(
            lambda m: -math.log1p(-math.exp(beta * m)) / (beta * vol),
            point, h=1e-4)
        assert report.rho_total == pytest.approx(
            zero_mode_depletion(beta, -0.5, vol), abs=1e-8)

    def test_nu_zero_condensate_is_finite_size_only(self):
        beta, mu = 1.0, -0.5
        lat = build_lattice(3, 8.0, 8.0)
        point = ThermoPoint(beta=beta, mu=mu, nu=0.0, lattice=lat)
        report = density_from_pressure(
            lambda m: pressure_source(
                ThermoPoint(beta=beta, mu=m, nu=0.0, lattice=lat)).total,
            point, h=1e-5,
            rho_c_of_mu=lambda m: critical_density_finite(
                ThermoPoint(beta=beta, mu=m, nu=0.0, lattice=lat)))
        v = lat.volume
        assert 0.0 < report.rho_0 < 5.0 / v

    def test_step_too_large(self):
        beta, nu = 1.0, 0.1
        point = ThermoPoint(beta=beta, mu=-0.5, nu=nu)
        with pytest.raises(StepSizeError):
            density_from_pressure(
                lambda m: -nu * nu / m + pressure_ideal_limit(beta, m, 3),
                point, h=0.2)

    def test_step_crossing_zero(self):
        point = ThermoPoint(beta=1.0, mu=-0.01, nu=0.1)
        with pytest.raises(StepSizeError):
            density_from_pressure(lambda m: -0.01 / m, point, h=0.02)


class TestCondensateLimit:
    def test_temperature_spread(self):
        values, spread = condensate_temperature_spread(
            -0.5, 0.1, 3, (0.5, 1.0, 2.0), h=1e-5)
        assert spread < 1e-10
        for v in values:
            assert v == pytest.approx(0.04, abs=1e-5)


class TestFitRate:
    def test_exact_inverse_volume(self):
        sides = (8, 16, 32, 64)
        values = tuple(2.5 / float(s) ** 3 for s in sides)
        ladder = ConvergenceLadder(d=3, sides=sides, values=values)
        fit = fit_rate(ladder)
        assert fit.rate == pytest.approx(1.0, abs=1e-6)

    def test_square_root_law(self):
        sides = (8, 16, 32, 64)
        values = tuple(1.0 / math.sqrt(float(s) ** 3) for s in sides)
        ladder = ConvergenceLadder(d=3, sides=sides, values=values)
        assert fit_rate(ladder).rate == pytest.approx(0.5, abs=1e-6)

    @given(sides=st.lists(st.integers(2, 4096), min_size=3, max_size=6, unique=True),
           log_gaps=st.lists(st.floats(-40.0, 0.0), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_polyfit(self, sides, log_gaps):
        # The centred closed form against numpy's least squares, to rounding.
        sides = sorted(sides)
        gaps = [math.exp(v) for v in log_gaps[:len(sides)]]
        fit = fit_rate(ConvergenceLadder(d=3, sides=tuple(sides), values=tuple(gaps)))
        x, y = np.log([float(s) ** 3 for s in sides]), np.log(gaps)
        slope, intercept = np.polyfit(x, y, 1)
        residual = math.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
        assert fit.rate == pytest.approx(-slope, rel=1e-12, abs=1e-12)
        assert fit.residual == pytest.approx(residual, rel=0.0, abs=1e-12)

    def test_degenerate_gap(self):
        ladder = ConvergenceLadder(d=3, sides=(8, 16, 32), values=(0.0, 0.0, 0.0))
        with pytest.raises(NonConvergenceError):
            fit_rate(ladder)

    def test_needs_three_points(self):
        ladder = ConvergenceLadder(d=3, sides=(8, 16), values=(1.0, 0.5))
        with pytest.raises(Exception):
            fit_rate(ladder)


class TestVerifyEquivalence:
    def test_ladder_against_extended_precision(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        sides = (8, 16, 32)
        result = verify_equivalence(beta, mu, nu, 3, sides, p_max=8.0)
        oracle_gaps = []
        for side in sides:
            v = float(side) ** 3
            n_terms = int(0.7 * v) + 200
            oracle_gaps.append(abs(mp_pressure_gap(beta, mu, nu, v, n_terms)))
        for ours, oracle in zip(result.ladder.gaps, oracle_gaps):
            assert ours == pytest.approx(oracle, rel=1e-9)
        oracle_rate = -np.polyfit(np.log([float(s) ** 3 for s in sides]),
                                  np.log(oracle_gaps), 1)[0]
        assert result.ladder.fitted_rate == pytest.approx(oracle_rate, abs=1e-6)
        # the gap carries a log(V)/V component, so the window rate sits
        # below the 0.9 pass threshold on these sides
        assert result.passed == (oracle_rate >= 0.9)

    def test_rung_durations_stay_out_of_repr_and_equality(self):
        a = verify_equivalence(1.0, -0.5, 0.1, 3, (4, 8), p_max=8.0)
        b = verify_equivalence(1.0, -0.5, 0.1, 3, (4, 8), p_max=8.0)
        assert len(a.rung_durations) == 2
        assert all(t > 0.0 for t in a.rung_durations)
        assert "rung_durations" not in repr(a)
        assert a == b and repr(a) == repr(b)

    def test_identity_errors_small(self):
        result = verify_equivalence(1.0, -0.5, 0.1, 3, (8, 16), p_max=8.0)
        assert all(err < 1e-12 for err in result.identity_rel_errors)

    def test_nu_zero_ladder_vanishes(self):
        result = verify_equivalence(1.0, -0.5, 0.0, 3, (4, 8, 12), p_max=8.0)
        assert all(v == 0.0 for v in result.ladder.values)
        assert result.ladder.fitted_rate is None
        assert result.passed

    def test_condensate_equality_bound(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        result = verify_equivalence(beta, mu, nu, 3, (8, 16), p_max=8.0)
        v = 16.0 ** 3
        bound = 2.0 * zero_mode_depletion(beta, mu, 1.0) / v + 1e-6
        diff = abs(result.density_linear.rho_0 - result.density_sqrt.rho_0)
        assert diff <= bound


class TestAnalyticCondensates:
    @pytest.mark.parametrize("beta, mu, nu", [(1.0, -0.5, 0.1), (1.1, -0.55, 0.11),
                                              (0.8, -0.3, 0.06)])
    def test_match_finite_differences_on_largest_side(self, beta, mu, nu):
        from bose_limits.nonlinear_model import pressure_sqrt_source

        sides = (8, 16, 32, 64)
        result = verify_equivalence(beta, mu, nu, 3, sides, p_max=10.0)
        lat = build_lattice(3, float(sides[-1]), 10.0)

        def at(m):
            return ThermoPoint(beta=beta, mu=m, nu=nu, lattice=lat)

        def rho_c(m):
            return critical_density_finite(at(m))

        fd_lin = density_from_pressure(lambda m: pressure_source(at(m)).total,
                                       at(mu), h=1e-5, rho_c_of_mu=rho_c)
        fd_sqrt = density_from_pressure(lambda m: pressure_sqrt_source(at(m)).total,
                                        at(mu), h=1e-5, rho_c_of_mu=rho_c)
        # rho_0 is reported as formed, with no rho' added in and taken out.
        volume = float(sides[-1]) ** 3
        assert result.density_linear.rho_0 == (condensate_density_source(mu, nu)
                                               + zero_mode_depletion(beta, mu, volume))
        assert result.density_sqrt.rho_0 == (
            zero_mode_log_partition(beta, mu, nu, volume).mean_occupation / volume)
        assert result.density_linear.rho_0 == pytest.approx(fd_lin.rho_0, abs=1e-9)
        assert result.density_sqrt.rho_0 == pytest.approx(fd_sqrt.rho_0, abs=1e-9)

    def test_no_critical_density_series(self, monkeypatch):
        import bose_limits.equivalence as equivalence
        import bose_limits.lattice_ideal as lattice_ideal

        powers = []
        theta_series = lattice_ideal._theta_series

        def record(beta, lattices, mus, power, rel_tol=None):
            powers.append((power, len(lattices)))
            return theta_series(beta, lattices, mus, power, rel_tol)

        monkeypatch.setattr(lattice_ideal, "_theta_series", record)
        monkeypatch.setattr(equivalence, "_theta_series", record)
        verify_equivalence(1.0, -0.5, 0.1, 3, (8, 16), p_max=8.0)
        assert powers == [(1, 2)]

    def test_no_finite_difference_call(self, monkeypatch):
        import bose_limits.equivalence as equivalence

        def refuse(*args, **kwargs):
            raise AssertionError("density_from_pressure called")

        monkeypatch.setattr(equivalence, "density_from_pressure", refuse)
        result = equivalence.verify_equivalence(1.0, -0.5, 0.1, 3, (8, 16), p_max=8.0)
        assert result.density_linear.rho_0 == pytest.approx(
            condensate_density_source(-0.5, 0.1) + zero_mode_depletion(1.0, -0.5, 16.0 ** 3),
            rel=1e-14)

    def test_nu_zero_condensates_equal(self):
        result = verify_equivalence(1.3, -0.6, 0.0, 3, (4, 8, 12), p_max=8.0)
        assert result.density_linear.rho_0 == result.density_sqrt.rho_0
        assert result.density_linear.rho_0 > 0.0
        assert result.passed

    def test_nu_zero_needs_every_rung(self, monkeypatch):
        import bose_limits.equivalence as equivalence

        monkeypatch.setattr(equivalence.PressurePair, "passed", lambda pair, rel_tol: False)
        result = verify_equivalence(1.3, -0.6, 0.0, 3, (4, 8, 12), p_max=8.0)
        assert result.rung_passed == (False,) * 3
        assert not result.passed

    def test_occupation_bound_gates_passed(self, monkeypatch):
        import bose_limits.equivalence as equivalence

        beta, mu, nu, sides = 1.0, -0.5, 0.1, (8, 16)
        base = verify_equivalence(beta, mu, nu, 3, sides, p_max=8.0)
        diff = abs(base.density_linear.rho_0 - base.density_sqrt.rho_0)
        volume = 16.0 ** 3
        slack = zero_mode_log_partition(beta, mu, nu, volume).occupation_bound / volume
        assert slack > 0.0
        for factor, expected in ((0.5, False), (2.0, True)):
            monkeypatch.setattr(equivalence, "CONDENSATE_TOL", diff + factor * slack)
            result = verify_equivalence(beta, mu, nu, 3, sides, p_max=8.0)
            assert result.passed is expected


class TestConvexityInvariant:
    @pytest.mark.parametrize("model", ["linear", "sqrt"])
    def test_pressure_convex_in_mu(self, model):
        from bose_limits.nonlinear_model import pressure_sqrt_source

        lat = build_lattice(3, 8.0, 8.0)
        mus = np.linspace(-1.5, -0.1, 10)
        vals = []
        for m in mus:
            point = ThermoPoint(beta=1.0, mu=m, nu=0.1, lattice=lat)
            if model == "linear":
                vals.append(pressure_source(point).total)
            else:
                vals.append(pressure_sqrt_source(point).total)
        assert np.all(np.diff(vals, 2) >= -1e-10)


class TestDerivativeConvergence:
    def test_rate_exceeds_threshold(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        target = density_limit(beta, mu, nu, 3)
        h = 1e-5
        gaps = []
        sides = (4, 6, 8, 10, 12)
        for side in sides:
            lat = build_lattice(3, float(side), 9.0)

            def p(m, lat=lat):
                return pressure_source(
                    ThermoPoint(beta=beta, mu=m, nu=nu, lattice=lat)).total

            rho = (p(mu + h) - p(mu - h)) / (2.0 * h)
            gaps.append(abs(rho - target))
        ladder = ConvergenceLadder(d=3, sides=sides, values=tuple(gaps))
        assert fit_rate(ladder).rate >= 0.9
