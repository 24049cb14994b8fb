import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import golden

from bose_limits.errors import DomainError, NonConvergenceError
from bose_limits.lattice_ideal import ThermoPoint, build_lattice, pressure_ideal_primed
from bose_limits.nonlinear_model import (DEFAULT_MAX_SERIES_TERMS, ExponentFunction,
                                         exponent_eval, exponent_maximizer, laplace_sup,
                                         pressure_sqrt_source,
                                         pressure_sqrt_source_limit,
                                         zero_mode_log_partition,
                                         zero_mode_partial_logsum, _side_bounds,
                                         _trapezoid)
from bose_limits.summation import stable_sum


def log_sum_exp(exponents):
    """log(sum(exp(x))) without overflow; the inner sum uses `stable_sum`."""
    m = float(np.max(exponents))
    return m + math.log(stable_sum(np.exp(exponents - m)))


def exponent_second_derivative(f, x):
    """Analytic g''(x) = -(coefficient*nu/4) * (x + 1/V)^(-3/2)."""
    return -0.25 * f.coefficient * f.nu * (x + 1.0 / f.volume) ** -1.5


@pytest.fixture
def window_only(monkeypatch):
    """Sum every nu > 0 series over its window, as for a narrow peak."""
    from bose_limits import nonlinear_model

    monkeypatch.setattr(nonlinear_model, "_trapezoid", lambda *args: None)


class TestExponentFunction:
    def test_value_at_origin(self):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=100.0)
        assert exponent_eval(f, 0.0) == pytest.approx(0.02, rel=1e-14)

    def test_linear_when_nu_zero(self):
        f = ExponentFunction(mu=-0.5, nu=0.0, volume=100.0)
        for x in (0.0, 0.3, 1.7):
            assert exponent_eval(f, x) == pytest.approx(-0.5 * x, abs=1e-16)

    def test_domain(self):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=100.0)
        with pytest.raises(DomainError):
            exponent_eval(f, -0.1)

    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0])
    def test_concavity_matches_finite_differences(self, x):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=100.0)
        h = 1e-5
        numeric = (exponent_eval(f, x + h) + exponent_eval(f, x - h)
                   - 2.0 * exponent_eval(f, x)) / (h * h)
        analytic = exponent_second_derivative(f, x)
        assert analytic < 0.0
        assert numeric == pytest.approx(analytic, rel=1e-5)


class TestExponentMaximizer:
    def test_interior_value(self):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=1000.0)
        assert exponent_maximizer(f) == pytest.approx(0.039, rel=1e-13)

    def test_nu_zero_boundary(self):
        f = ExponentFunction(mu=-0.5, nu=0.0, volume=1000.0)
        assert exponent_maximizer(f) == 0.0

    def test_small_volume_clamps_to_zero(self):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=10.0)
        assert exponent_maximizer(f) == 0.0
        # grid search confirms the boundary maximum
        xs = np.linspace(0.0, 1.0, 2001)
        vals = [exponent_eval(f, x) for x in xs]
        assert int(np.argmax(vals)) == 0

    def test_stationary_point(self):
        f = ExponentFunction(mu=-0.7, nu=0.3, volume=500.0)
        x_star = exponent_maximizer(f)
        h = 1e-7
        left = exponent_eval(f, x_star - h)
        right = exponent_eval(f, x_star + h)
        peak = exponent_eval(f, x_star)
        assert peak >= left and peak >= right


class TestLaplaceSup:
    def test_infinite_volume_constant(self):
        f = ExponentFunction(mu=-0.5, nu=0.1, volume=1e6)
        assert abs(laplace_sup(f) - 0.02) < 1e-6

    def test_nu_zero(self):
        f = ExponentFunction(mu=-0.5, nu=0.0, volume=100.0)
        assert laplace_sup(f) == 0.0

    @pytest.mark.parametrize("mu,nu,vol", [(-0.5, 0.1, 200.0), (-1.5, 0.4, 77.0),
                                           (-0.2, 0.05, 5000.0), (-0.5, 0.1, 10.0)])
    def test_golden_section_oracle(self, mu, nu, vol):
        f = ExponentFunction(mu=mu, nu=nu, volume=vol)
        xs = np.linspace(0.0, 4.0, 4001)
        grid_best = max(exponent_eval(f, x) for x in xs)
        x_min = golden(lambda x: -exponent_eval(f, max(x, 0.0)),
                       brack=(0.0, 4.0), tol=1e-14)
        refined = exponent_eval(f, max(x_min, 0.0))
        oracle = max(grid_best, refined, exponent_eval(f, 0.0))
        assert laplace_sup(f) == pytest.approx(oracle, abs=1e-12)

    def test_decay_hypothesis(self):
        with pytest.raises(DomainError):
            laplace_sup(ExponentFunction(mu=0.0, nu=0.1, volume=10.0))


class TestZeroModeSeries:
    def test_nu_zero_geometric_closed_form(self):
        beta, mu, vol = 1.3, -0.6, 250.0
        res = zero_mode_log_partition(beta, mu, 0.0, vol)
        exact = -math.log1p(-math.exp(beta * mu)) / (beta * vol)
        assert res.numeric_log_sum == exact
        assert res.tail_bound == 0.0

    def test_partial_sum_matches_extended_precision(self):
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 7.0
        ours = zero_mode_partial_logsum(beta, mu, nu, vol, 50)
        with mp.workdps(50):
            s = mp.fsum(mp.exp(beta * (mu * n + 2 * nu * mp.sqrt(vol * (n + 1))))
                        for n in range(51))
            oracle = float(mp.log(s) / (beta * vol))
        assert ours == pytest.approx(oracle, rel=1e-14)

    def test_gap_shrinks_along_volume_ladder(self):
        gaps = [zero_mode_log_partition(1.0, -0.5, 0.1, v).gap
                for v in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_within_counting_bound(self):
        for v in (1e2, 1e3, 1e4):
            res = zero_mode_log_partition(1.0, -0.5, 0.1, v)
            assert res.numeric_log_sum - res.sup_value >= -1e-15
            assert res.gap <= math.log(res.terms_used) / v + res.tail_bound

    def test_series_ceiling(self):
        # At rel_tol = 1e-15 the closed form's rounding misses the budget,
        # so V = 1e14 needs a ~55 M-term window, beyond the fixed ceiling; it
        # is refused from scalar probes, before any window is allocated.
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(NonConvergenceError, match="needs more than"):
                zero_mode_log_partition(1.0, -0.5, 0.1, 1e14, rel_tol=1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("rel_tol", [2.0, 5.0, 1e300])
    def test_loose_rel_tol_is_served(self, rel_tol):
        # At rel_tol >= 2 nothing needs to fall below the peak: the window
        # takes the peak's neighbours, and the bound stays sound.
        for volume in (100.0, 1e4):
            res = zero_mode_log_partition(1.0, -0.5, 0.1, volume, rel_tol=rel_tol)
            full = zero_mode_partial_logsum(1.0, -0.5, 0.1, volume, int(volume))
            assert abs(full - res.numeric_log_sum) <= res.tail_bound

    def test_closed_form_certifies_past_the_ceiling(self):
        res = zero_mode_log_partition(1.0, -0.5, 0.1, 1e14)
        assert res.method == "closed_form"
        assert res.terms_used > 3 * 2 ** 24
        assert 0.0 <= res.numeric_log_sum - res.sup_value <= (
            math.log(res.terms_used) / 1e14 + res.tail_bound)

    def test_domain(self):
        with pytest.raises(DomainError):
            zero_mode_log_partition(1.0, 0.0, 0.1, 100.0)

    @given(mu=st.floats(-2.0, -0.2), nu=st.floats(0.05, 0.5),
           vol=st.floats(200.0, 20000.0), beta=st.floats(0.5, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_laplace_sandwich_property(self, mu, nu, vol, beta):
        f = ExponentFunction(mu=mu, nu=nu, volume=vol)
        # keep the peak wider than the occupation grid spacing
        width_sq = vol / (beta * abs(exponent_second_derivative(
            f, exponent_maximizer(f))))
        assume(width_sq >= 4.0)
        res = zero_mode_log_partition(beta, mu, nu, vol)
        signed = res.numeric_log_sum - res.sup_value
        assert signed >= -1e-13
        assert signed <= math.log(res.terms_used) / (beta * vol) + res.tail_bound


def _half_width(res, volume):
    """Half-width W of the window [max(0, n* - W), n* + W] behind `res`."""
    n_star = round(volume * res.maximizer)
    span = res.terms_used - 1
    return span // 2 if span % 2 == 0 and span // 2 <= n_star else span - n_star


class TestZeroModeWindow:
    @pytest.mark.parametrize("volume", [8.0 ** 3, 16.0 ** 3, 32.0 ** 3, 64.0 ** 3,
                                        1e4, 1e5, 1e6])
    def test_matches_full_range_sum_within_bound(self, volume):
        beta, mu, nu = 1.0, -0.5, 0.1
        res = zero_mode_log_partition(beta, mu, nu, volume)
        # Past n = V*(2*c*nu/mu)^2 the terms fall below e^-(0.1*V) of the peak.
        n_max = int(math.ceil(volume * (4.0 * nu / mu) ** 2)) + 64
        full = zero_mode_partial_logsum(beta, mu, nu, volume, n_max)
        assert abs(full - res.numeric_log_sum) <= res.tail_bound

    @pytest.mark.parametrize("half", [0, 1, 3, 10, 30, 60, 150])
    def test_each_dropped_side_bounded(self, half):
        # Each side's bound must cover the brute-force sum of its terms.
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 4096.0
        f = ExponentFunction(mu=mu, nu=nu, volume=vol)
        n_star = round(vol * exponent_maximizer(f))
        n = np.arange(0, 4 * n_star, dtype=float)
        terms = np.exp(beta * (mu * (n - n_star) + 2.0 * nu * np.sqrt(vol)
                               * (np.sqrt(n + 1.0) - math.sqrt(n_star + 1.0))))
        left, right = _side_bounds(beta, f, n_star, half)[:2]
        assert terms[n < n_star - half].sum() <= left
        assert terms[n > n_star + half].sum() <= right

    def test_window_stays_sublinear_in_volume(self):
        res = zero_mode_log_partition(1.0, -0.5, 0.1, 1e8)
        assert res.terms_used < 500_000
        assert res.gap <= math.log(res.terms_used) / 1e8 + res.tail_bound

    def test_peak_beyond_float_occupations_refused(self):
        # (nu/mu)^2 overflows: the peak occupation is not representable.
        with pytest.raises(NonConvergenceError):
            zero_mode_log_partition(1.0, -1e-300, 0.1, 64.0)
        assert exponent_maximizer(ExponentFunction(mu=-1e-300, nu=0.1,
                                                   volume=64.0)) == math.inf

    @given(mu=st.floats(-2.0, -0.2), nu=st.floats(0.05, 0.5),
           vol=st.floats(200.0, 1e6), beta=st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_doubling_the_window_moves_less_than_bound(self, mu, nu, vol, beta):
        res = zero_mode_log_partition(beta, mu, nu, vol)
        n_star = round(vol * res.maximizer)
        half = _half_width(res, vol)
        n = np.arange(max(0, n_star - 2 * half), n_star + 2 * half + 1, dtype=float)
        exponents = beta * (mu * n + 2.0 * nu * np.sqrt(vol * (n + 1.0)))
        doubled = log_sum_exp(exponents) / (beta * vol)
        assert abs(doubled - res.numeric_log_sum) <= res.tail_bound

    @given(beta=st.floats(0.5, 2.0), mu=st.floats(-2.0, -0.2), nu=st.floats(0.05, 0.5),
           vol=st.floats(1.0, 1e6), rel_tol=st.sampled_from([1e-6, 1e-10, 1e-15]))
    @settings(max_examples=30, deadline=None)
    def test_mass_outside_window_within_half_rel_tol(self, beta, mu, nu, vol, rel_tol):
        # The half-width is chosen before any term is formed; brute force
        # checks that it holds all but rel_tol/2 of the mass.
        res = zero_mode_log_partition(beta, mu, nu, vol, rel_tol=rel_tol)
        n_star = round(vol * res.maximizer)
        half = _half_width(res, vol)
        lo, hi = max(0, n_star - half), n_star + half

        def terms(n):
            return np.exp(beta * (mu * (n - n_star) + 2.0 * nu * math.sqrt(vol)
                                  * (np.sqrt(n + 1.0) - math.sqrt(n_star + 1.0))))

        def side(start, step):
            # Terms from n = start outward in chunks, until n passes 0 or
            # they underflow to zero (concavity: all later ones do too).
            total = 0.0
            while start >= 0:
                chunk = terms(np.arange(start, max(start + step * 65536, -1), step,
                                        dtype=float))
                total += math.fsum(chunk)
                if chunk.max() == 0.0:
                    break
                start += step * 65536
            return total

        inside = math.fsum(terms(np.arange(lo, hi + 1, dtype=float)))
        outside = side(hi + 1, 1) + side(lo - 1, -1)
        assert outside <= 0.5 * rel_tol * inside


def _brute_mean_occupation(beta, mu, nu, volume):
    """Full-range weighted mean of n under the series terms, by fsum."""
    n_max = int(math.ceil(volume * (4.0 * nu / mu) ** 2)) + 64
    n = np.arange(n_max + 1, dtype=float)
    exponents = beta * (mu * n + 2.0 * nu * np.sqrt(volume * (n + 1.0)))
    terms = np.exp(exponents - exponents.max())
    return math.fsum(n * terms) / math.fsum(terms)


class TestMeanOccupation:
    @pytest.mark.parametrize("volume", [8.0 ** 3, 16.0 ** 3, 32.0 ** 3, 64.0 ** 3,
                                        1e4, 1e5, 1e6])
    @pytest.mark.parametrize("beta, mu, nu", [(1.0, -0.5, 0.1), (0.8, -0.3, 0.06),
                                              (1.0, -50.0, 19.687)])
    def test_matches_full_range_mean_within_bound(self, beta, mu, nu, volume):
        res = zero_mode_log_partition(beta, mu, nu, volume)
        brute = _brute_mean_occupation(beta, mu, nu, volume)
        assert abs(res.mean_occupation - brute) <= res.occupation_bound
        assert res.occupation_bound <= 1e-8 * res.mean_occupation

    @pytest.mark.parametrize("volume", [32.0 ** 3, 64.0 ** 3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    def test_bound_covers_both_dropped_sides(self, volume, rel_tol, window_only):
        # No cancellation between the two sides is assumed: the window's
        # bound covers the mass of both and their |n - n*|-weighted mass,
        # relative to the window sum.  At rel_tol = 1e-6 and V >= 1e5 the
        # left side holds 2e-9 to 2e-8 of the sum, more than the slack of
        # the right side's bound.
        beta, mu, nu = 1.0, -0.5, 0.1
        res = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        assert res.method == "window"
        n_star = round(volume * res.maximizer)
        half = _half_width(res, volume)
        assert n_star - half > 0
        n = np.arange(int(math.ceil(volume * (4.0 * nu / mu) ** 2)) + 64, dtype=float)
        exponents = beta * (mu * n + 2.0 * nu * np.sqrt(volume * (n + 1.0)))
        terms = np.exp(exponents - exponents.max())
        full = (exponents.max() + math.log(math.fsum(terms))) / (beta * volume)
        assert abs(full - res.numeric_log_sum) <= res.tail_bound
        inside = np.abs(n - n_star) <= half
        weighted = math.fsum(np.abs(n - n_star)[~inside] * terms[~inside])
        assert weighted / math.fsum(terms[inside]) <= res.occupation_bound

    def test_is_the_mu_derivative_of_the_log_sum(self):
        beta, mu, nu, vol, h = 1.0, -0.5, 0.1, 4096.0, 1e-5
        res = zero_mode_log_partition(beta, mu, nu, vol, rel_tol=1e-14)
        plus, minus = (zero_mode_log_partition(beta, m, nu, vol, rel_tol=1e-14)
                       for m in (mu + h, mu - h))
        derivative = vol * (plus.numeric_log_sum - minus.numeric_log_sum) / (2.0 * h)
        assert derivative == pytest.approx(res.mean_occupation, rel=1e-7)

    def test_nu_zero_closed_form(self):
        beta, mu = 1.3, -0.6
        res = zero_mode_log_partition(beta, mu, 0.0, 250.0)
        assert res.mean_occupation == 1.0 / math.expm1(-beta * mu)
        assert res.occupation_bound == 0.0

    @pytest.mark.parametrize("half", [0, 1, 3, 10, 30, 60, 150])
    def test_each_weighted_side_bounded(self, half):
        # Each side's |n - n*|-weighted bound must cover its brute-force sum.
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 4096.0
        f = ExponentFunction(mu=mu, nu=nu, volume=vol)
        n_star = round(vol * exponent_maximizer(f))
        n = np.arange(0, 4 * n_star, dtype=float)
        terms = np.abs(n - n_star) * np.exp(
            beta * (mu * (n - n_star) + 2.0 * nu * np.sqrt(vol)
                    * (np.sqrt(n + 1.0) - math.sqrt(n_star + 1.0))))
        left, right = _side_bounds(beta, f, n_star, half)[2:]
        assert terms[n < n_star - half].sum() <= left
        assert terms[n > n_star + half].sum() <= right

    def test_left_weighted_bound_nearly_tight(self):
        # At the window the series keeps, the left |n - n*|-weighted bound
        # covers its brute-force sum and exceeds it by a few percent only.
        beta, mu, nu, vol = 1.0, -0.5, 0.1, 1e6
        res = zero_mode_log_partition(beta, mu, nu, vol, rel_tol=1e-10)
        f = ExponentFunction(mu=mu, nu=nu, volume=vol)
        n_star = round(vol * exponent_maximizer(f))
        holds = (res.terms_used - 1) // 2
        assert n_star > holds  # the window is not clipped at n = 0
        n = np.arange(0, n_star - holds, dtype=float)
        brute = np.sum((n_star - n) * np.exp(
            beta * (mu * (n - n_star) + 2.0 * nu * np.sqrt(vol)
                    * (np.sqrt(n + 1.0) - math.sqrt(n_star + 1.0)))))
        left, _, left_weighted, _ = _side_bounds(beta, f, n_star, holds)
        assert brute <= left_weighted <= 1.1 * brute
        assert left_weighted < 0.1 * n_star * left

    def test_peak_bytes_per_term(self, monkeypatch):
        # The half-width is chosen from scalar probes; the window is formed once.
        import tracemalloc

        from bose_limits import nonlinear_model

        lengths = []
        window_exponents = nonlinear_model._window_exponents

        def recording(beta, f, n_star, lo, hi):
            lengths.append(hi - lo + 1)
            return window_exponents(beta, f, n_star, lo, hi)

        monkeypatch.setattr(nonlinear_model, "_window_exponents", recording)
        tracemalloc.start()
        try:
            zero_mode_log_partition(1.0, -0.5, 0.1, 1e9, rel_tol=1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lengths) == 1 and lengths[0] > 100_000
        # Four float arrays of the window, and the constant covers it.
        assert peak <= 4 * 8 * lengths[0] + 65536
        assert peak <= nonlinear_model.SERIES_BYTES_PER_TERM * lengths[0] + 65536


def _mpmath_series(beta, mu, nu, volume):
    """(log-sum in pressure units, <n0>) of the series by a 40-digit mpmath sum.

    With m = n + 1 the terms are e^(-a (sqrt(m) - s0)^2) times a constant,
    so every term outside sqrt(m) in s0 +- sqrt(100/a) is below e^-100 of
    the peak; those are left out, 1e-40 of the sum at most here.
    """
    with mp.workdps(40):
        a = -mp.mpf(beta) * mp.mpf(mu)
        s0 = mp.mpf(nu) * mp.sqrt(mp.mpf(volume)) / -mp.mpf(mu)
        reach = mp.sqrt(100 / a)
        lo = max(1, int(mp.floor((s0 - reach) ** 2))) if s0 > reach else 1
        total = moment = mp.mpf(0)
        for m in range(lo, int(mp.ceil((s0 + reach) ** 2)) + 1):
            term = mp.exp(-a * (mp.sqrt(m) - s0) ** 2)
            total += term
            moment += (m - 1) * term
        log_sum = a * (s0 * s0 + 1) + mp.log(total)
        return log_sum / (mp.mpf(beta) * mp.mpf(volume)), moment / total


class TestClosedForm:
    def test_method_follows_the_peak_width(self):
        # beta 1, mu -0.5, nu 0.1 at rel_tol 1e-10: the closed form takes over
        # between V = 1e3 (n* = 39, sigma = 13) and 1.8e3 (n* = 70,
        # sigma = 17), and holds the series workload's V = 1e4..1e8.  At
        # rel_tol 1e-14 its own rounding, ~300 ulps, never fits.
        volumes = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
        methods = [zero_mode_log_partition(1.0, -0.5, 0.1, v).method for v in volumes]
        assert methods == ["window"] + ["closed_form"] * 5
        methods = [zero_mode_log_partition(1.0, -0.5, 0.1, v, rel_tol=1e-14).method
                   for v in volumes]
        assert methods == ["window"] * 6

    @pytest.mark.parametrize("mu, nu, volume, rel_tol", [(-0.62, 0.39, 150.0, 1e-10),
                                                         (-0.44, 0.4, 50.0, 1e-6)])
    def test_strip_bound_decides_the_reach(self, mu, nu, volume, rel_tol):
        # The cut is at A = 2 and 1: the strip part, int F / sinh(pi^2/k), is
        # 2.8 and 3.5 times rel_tol/2 of the sum, while the left side, the
        # edge and the rounding together stay below a fifth of rel_tol/2.
        # The true remainder is far smaller, so only this pins the strip
        # bound's size: a tenth of it would hand both points to the closed
        # form.
        assert zero_mode_log_partition(1.0, mu, nu, volume, rel_tol=rel_tol).method == "window"

    @given(beta=st.floats(0.5, 2.0), mu=st.floats(-2.0, -0.2), nu=st.floats(0.05, 0.5),
           log_volume=st.floats(0.0, 6.0), rel_tol=st.sampled_from([1e-6, 1e-10, 1e-14]))
    # A window sum whose <n0> is off by 6e-12, ten times what its dropped
    # sides allow: only the rounding part of occupation_bound covers it.
    @example(beta=0.67, mu=-1.6, nu=0.33, log_volume=5.88, rel_tol=1e-14)
    @settings(max_examples=40, deadline=None)
    def test_certified_values_hold_against_mpmath(self, beta, mu, nu, log_volume, rel_tol):
        volume = 10.0 ** log_volume
        # Points whose 40-digit sum would take more than ~1 s are skipped.
        assume(nu * math.sqrt(volume) * 40.0 / (-mu * math.sqrt(-beta * mu)) <= 30_000)
        res = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        value, mean = _mpmath_series(beta, mu, nu, volume)
        assert abs(res.numeric_log_sum - value) <= res.tail_bound
        assert abs(res.mean_occupation - mean) <= res.occupation_bound

    @pytest.mark.parametrize("a, s0, edge", [(0.5, 20.0, 360.0), (0.5, 20.0, 300.0),
                                             (3.0, 1.5, 2.0), (10.0, 10.0, 90.0),
                                             (0.1, 3.0, 3.0), (1.0, 2.0, 1.0), (0.2, 5.0, 1.0)])
    def test_trapezoid_errors_hold(self, a, s0, edge):
        # The sums from A on, without the left side, against 40-digit sums
        # of every term from A to e^-100 below the peak.
        volume = 1e4
        f = ExponentFunction(mu=-a, nu=a * s0 / math.sqrt(volume), volume=volume)
        n_star = round(volume * exponent_maximizer(f))
        total, moment, total_error, moment_error = _trapezoid(
            1.0, f, n_star, n_star + 1 - int(edge))
        with mp.workdps(40):
            exact_s0 = mp.mpf(f.nu) * mp.sqrt(volume) / a

            def exponent(m):
                return -a * (mp.sqrt(m) - exact_s0) ** 2

            terms = [(m - 1, mp.exp(exponent(m) - exponent(n_star + 1)))
                     for m in range(int(edge), int((s0 + math.sqrt(100.0 / a)) ** 2) + 2)]
            exact = mp.fsum(t for _, t in terms)
            exact_moment = mp.fsum(n * t for n, t in terms)
        assert abs(total - exact) <= total_error
        assert abs(moment - exact_moment) <= moment_error

    def test_wide_peak_certifies_from_the_first_term(self):
        # n* = 5.4e6 lies inside the Laplace width sigma = 1e7, so the terms
        # reach below rel_tol only ~2e8 occupations out, beyond the window
        # ceiling.  The closed form runs from A = 1 with no left side, and
        # there its edge term carries most of the bound.
        beta, mu, nu = 0.7572334913542031, -1.3604235088190296e-07, 0.00017730487039401067
        volume, rel_tol = 3.1822426292332526, 7.069928165641368e-07
        res = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        assert res.method == "closed_form"
        assert res.terms_used > DEFAULT_MAX_SERIES_TERMS
        with mp.workdps(40):
            a = -mp.mpf(beta) * mp.mpf(mu)
            s0 = mp.mpf(nu) * mp.sqrt(mp.mpf(volume)) / -mp.mpf(mu)

            def term(m):
                return mp.exp(-a * (mp.sqrt(m) - s0) ** 2)

            def weighted(m):
                return (m - 1) * term(m)

            sums = [mp.sumem(g, [1, mp.inf], integral=mp.quad(g, [1, s0 * s0, mp.inf]))
                    for g in (term, weighted)]
            value = (a * (s0 * s0 + 1) + mp.log(sums[0])) / (mp.mpf(beta) * mp.mpf(volume))
            mean = sums[1] / sums[0]
        assert abs(res.numeric_log_sum - value) <= res.tail_bound
        assert abs(res.mean_occupation - mean) <= res.occupation_bound

    @pytest.mark.parametrize("beta, mu, nu", [(1.0, -0.5, 0.1), (0.8, -0.3, 0.06),
                                              (0.5, -2.0, 0.5)])
    @pytest.mark.parametrize("volume", [3e5, 1e6])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_brute_force_within_bounds(self, beta, mu, nu, volume, rel_tol):
        res = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        assert res.method == "closed_form"
        n_max = int(math.ceil(volume * (4.0 * nu / mu) ** 2)) + 64
        full = zero_mode_partial_logsum(beta, mu, nu, volume, n_max)
        assert abs(full - res.numeric_log_sum) <= res.tail_bound
        brute = _brute_mean_occupation(beta, mu, nu, volume)
        assert abs(res.mean_occupation - brute) <= res.occupation_bound

    @given(beta=st.floats(0.5, 2.0), mu=st.floats(-2.0, -0.2), nu=st.floats(0.05, 0.5),
           log_volume=st.floats(5.0, 9.0), rel_tol=st.sampled_from([1e-6, 1e-10]))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_window(self, beta, mu, nu, log_volume, rel_tol):
        from bose_limits import nonlinear_model

        volume = 10.0 ** log_volume
        closed = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        assume(closed.method == "closed_form" and closed.terms_used <= 1_000_000)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonlinear_model, "_trapezoid", lambda *args: None)
            window = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=rel_tol)
        assert window.method == "window"
        assert window.terms_used == closed.terms_used
        assert (abs(closed.numeric_log_sum - window.numeric_log_sum)
                <= closed.tail_bound + window.tail_bound)
        assert (abs(closed.mean_occupation - window.mean_occupation)
                <= closed.occupation_bound + window.occupation_bound)


class TestPressureSqrtSource:
    def test_nu_zero_equals_ideal_gas_with_zero_mode(self, lattice_d3_l16):
        beta, mu = 1.0, -0.5
        point = ThermoPoint(beta=beta, mu=mu, nu=0.0, lattice=lattice_d3_l16)
        res = pressure_sqrt_source(point)
        ideal_primed = pressure_ideal_primed(point).primed
        v = lattice_d3_l16.volume
        zero = -math.log1p(-math.exp(beta * mu)) / (beta * v)
        assert res.primed == ideal_primed
        assert res.zero_mode == zero
        assert res.constant == 0.0

    def test_no_phase_parameter(self):
        import inspect

        assert "phi" not in inspect.signature(pressure_sqrt_source).parameters
        assert "phi" not in inspect.signature(zero_mode_log_partition).parameters

    def test_converges_to_limit_pressure(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        limit = pressure_sqrt_source_limit(beta, mu, nu, 3)
        gaps = []
        for side in (8, 16, 32):
            lat = build_lattice(3, float(side), 8.0)
            point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lat)
            gaps.append(abs(pressure_sqrt_source(point).total - limit))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_stability_domain(self, lattice_d3_l16):
        point = ThermoPoint(beta=1.0, mu=-0.05, nu=0.1, lattice=lattice_d3_l16)
        assert math.isfinite(pressure_sqrt_source(point).total)
        with pytest.raises(DomainError):
            pressure_sqrt_source(ThermoPoint(beta=1.0, mu=0.0, nu=0.1,
                                             lattice=lattice_d3_l16))

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-14, 1e-15, 1e-17])
    def test_refuses_as_its_p_prime_sum_does(self, rel_tol):
        # The theta bound is 2.9e-15 of p' here, so p' refuses from rel_tol
        # 1e-15 on, and the model's pressure must refuse with it.
        point = ThermoPoint(beta=1.0, mu=-0.1, nu=0.1, lattice=build_lattice(3, 8.0, 10.0))

        def outcome(fn):
            try:
                fn(point, rel_tol=rel_tol)
            except NonConvergenceError as exc:
                return str(exc)
            return None

        refusal = outcome(pressure_ideal_primed)
        assert outcome(pressure_sqrt_source) == refusal
        assert (refusal is None) == (rel_tol >= 1e-14)


class TestLimitPressure:
    def test_constant_part(self):
        beta, mu, nu = 1.0, -0.5, 0.1
        expected = 0.02 + pressure_ideal_limit_check(beta, mu)
        assert pressure_sqrt_source_limit(beta, mu, nu, 3) == pytest.approx(
            expected, rel=1e-13)

    def test_nu_zero(self):
        beta, mu = 1.0, -0.5
        assert pressure_sqrt_source_limit(beta, mu, 0.0, 3) == pytest.approx(
            pressure_ideal_limit_check(beta, mu), rel=1e-14)

    def test_matches_linear_source_limit(self):
        # the two perturbed models share one limit pressure
        beta, mu, nu = 1.0, -0.5, 0.1
        linear_limit = -nu * nu / mu + pressure_ideal_limit_check(beta, mu)
        assert pressure_sqrt_source_limit(beta, mu, nu, 3) == pytest.approx(
            linear_limit, rel=1e-14)


def pressure_ideal_limit_check(beta, mu):
    from bose_limits.lattice_ideal import pressure_ideal_limit

    return pressure_ideal_limit(beta, mu, 3)
