import math
import time
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bose_limits import lattice_ideal
from bose_limits.errors import (BoseLimitsError, DomainError, NonConvergenceError,
                                ResourceGuardError)
from bose_limits.lattice_ideal import (ModeLattice, PressureBreakdown, ThermoPoint,
                                       build_lattice, critical_density_finite,
                                       critical_density_limit, polylog,
                                       pressure_ideal_limit,
                                       pressure_ideal_primed, _theta_power_m1,
                                       _theta_series, _zeta)
from bose_limits.summation import stable_sum

from conftest import (brute_force_density, brute_force_mode_vectors,
                      brute_force_primed_pressure)
from shell_oracle import shell_critical_density, shell_primed_pressure

TWO_PI = 2.0 * math.pi
# An oracle's own rounding, relative: a few roundings per shell or mode
# term, which the cutoff bound does not cover.
ORACLE_ROUNDING = 1e-15

# mpmath oracles, frozen at 40 digits
ZETA_3_HALVES = 2.6123753486854883433
RHO_C_MU0 = 0.16586920931302220587                # zeta(3/2) / (2 pi)^{3/2}
P_ID_LIMIT_B1_MM1 = 0.025126210220070685716       # polylog(5/2, 1/e) / (2 pi)^{3/2}
RHO_C_B1_MM05 = 0.051460985708211629023           # polylog(3/2, e^-1/2) / (2 pi)^{3/2}
POLYLOG_GRID = {
    (0.5, 0.1): 0.10770334016557236333,
    (0.5, 0.5): 0.80612672304285226132,
    (0.5, 0.9): 4.0219504274733606849,
    (1.5, 0.1): 0.10374145234616938205,
    (1.5, 0.5): 0.62483702081991385363,
    (1.5, 0.9): 1.6144385285663396263,
    (2.5, 0.1): 0.10183523303960215861,
    (2.5, 0.5): 0.55499727871751229321,
    (2.5, 0.9): 1.1390030252021567548,
}


def occupation(beta, mu, lam):
    """Mean occupation (e^(beta*(lam - mu)) - 1)^-1 of a mode at energy lam > mu."""
    return 1.0 / math.expm1(beta * (lam - mu))


def all_energies(lat):
    """Energies of every mode within the lattice's cutoff, ascending."""
    return lat.leading_energies(lat.n_modes)


def oracle_shells(d, l, p_max):
    """k = |n|^2 of every brute-force mode vector within p_max, ascending,
    and the sorted |p|^2 / 2 those vectors give."""
    step = TWO_PI / l
    vectors = brute_force_mode_vectors(d, l, p_max)
    shells = sorted(round(sum((x / step) ** 2 for x in p)) for p in vectors)
    return shells, sorted(0.5 * sum(x * x for x in p) for p in vectors)


class TestBuildLattice:
    def test_d1_unit_spacing(self):
        lat = build_lattice(1, TWO_PI, 2.5)
        assert all_energies(lat).tolist() == [0.0, 0.5, 0.5, 2.0, 2.0]
        assert lat.shells[0] == 0

    def test_d3_seven_modes(self):
        lat = build_lattice(3, TWO_PI, 1.0)
        assert lat.n_modes == 7
        # the zero mode, then the six unit vectors
        assert all_energies(lat).tolist() == [0.0] + [0.5] * 6

    def test_d3_count_matches_enumeration(self):
        lat = build_lattice(3, 4.0 * math.pi, 1.0)
        oracle = brute_force_mode_vectors(3, 4.0 * math.pi, 1.0)
        assert lat.n_modes == len(oracle) == 33

    def test_resource_guard(self):
        # ~1.7e13 modes within the cutoff: the shell table is refused, while
        # the leading energies are read without it.
        lat = build_lattice(3, 1e4, 10.0)
        with pytest.raises(ResourceGuardError):
            lat.n_modes
        step = TWO_PI / 1e4
        assert lat.leading_energies(7).tolist() == [0.0] + [0.5 * step * step] * 6
        assert "_table" not in vars(lat)

    def test_mode_list_is_built_on_first_use_only(self):
        lat = build_lattice(3, 1e4, 10.0)
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=lat)
        pressure_ideal_primed(point)
        critical_density_finite(point)
        assert "_table" not in vars(lat)
        small = build_lattice(3, 8.0, 4.0)
        assert small.shells is small.shells

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            build_lattice(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            build_lattice(1, -1.0, 1.0)

    @pytest.mark.parametrize("d,l,p_max", [(1, 7.0, 4.0), (2, 5.0, 3.0),
                                           (3, 4.0 * math.pi, 1.0), (4, 3.0, 5.0)])
    def test_shell_multiplicities_match_enumeration(self, d, l, p_max):
        lat = build_lattice(d, l, p_max)
        step = TWO_PI / l
        nsq = [round(sum(x * x for x in p) / step ** 2)
               for p in brute_force_mode_vectors(d, l, p_max)]
        shells, counts = np.unique(nsq, return_counts=True)
        assert lat.shells.tolist() == shells.tolist()
        assert lat.multiplicities.tolist() == counts.tolist()

    @pytest.mark.parametrize("d,l,n_modes", [(1, 1e6, 3_183_099), (2, 1000.0, 7_957_729)])
    def test_large_low_dimensional_counts(self, d, l, n_modes):
        lat = build_lattice(d, l, 10.0)
        assert lat.n_modes == n_modes

    @pytest.mark.parametrize("d,l,p_max", [(1, 7.0, 4.0), (2, 5.0, 3.0), (3, 8.0, 4.0),
                                           (4, 3.0, 5.0)])
    def test_leading_energies_are_a_prefix(self, d, l, p_max):
        lat = build_lattice(d, l, p_max)
        step = TWO_PI / l
        shells, energies = oracle_shells(d, l, p_max)
        assert len(shells) == lat.n_modes
        for count in sorted({0, 1, 2, 3, 7, 8, 19, lat.n_modes} & set(range(lat.n_modes + 1))):
            head = lat.leading_energies(count)
            np.testing.assert_array_equal(
                head, 0.5 * step * step * np.array(shells[:count], dtype=float))
            np.testing.assert_allclose(head, energies[:count], rtol=1e-14, atol=0.0)
        with pytest.raises(DomainError):
            lat.leading_energies(lat.n_modes + 1)

    def test_leading_energies_guard_bytes(self):
        # A billion energies, 8 GB and more: refused before the shell counts
        # or any energy is formed.
        lat = build_lattice(3, 1e6, 10.0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError):
                lat.leading_energies(10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_high_dimension_refused_without_overflow(self):
        # In d = 400 the unit ball's volume is beyond the float range; its
        # log is not.  A hundred million energies take 1.6 GB.
        with pytest.raises(ResourceGuardError):
            build_lattice(400, 2.0, 1e3).leading_energies(10 ** 8)

    @pytest.mark.parametrize("d", [13, 400])
    def test_high_dimension_reads_the_shells_it_needs(self, d):
        # 1 + 2d modes lie on shells 0 and 1, so the shell counts stop at
        # kcut = 1 however loose the ball-volume estimate is in high d.
        energies = build_lattice(d, 2.0, 7.0).leading_energies(2 * d + 1)
        assert energies.tolist() == [0.0] + [0.5 * math.pi ** 2] * (2 * d)
        lat = build_lattice(d, 2.0, 7.0)
        tracemalloc.start()
        try:
            lat.leading_energies(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestThermoPoint:
    def test_volume_without_lattice(self):
        with pytest.raises(DomainError, match="no lattice"):
            ThermoPoint(beta=1.0, mu=-0.5).volume


# (d, l, p_max, beta, mu) -> (primed pressure, critical density), both
# computed by exactly rounded summation over every explicit mode with
# |p| <= p_max.
PINNED_MODE_SUMS = {
    (3, 16.0, 10.0, 1.0, -0.5): ("0x1.665ce247e6ca0p-5", "0x1.a27c473ad6b3dp-5"),
    (3, 64.0, 10.0, 1.3, -0.7): ("0x1.d72e40a698316p-7", "0x1.4ebe70b4912cap-6"),
    (2, 7.0, 4.0, 0.8, -0.3): ("0x1.c55290cf26aa4p-3", "0x1.e2f3774f7e950p-3"),
}


@pytest.mark.parametrize("case", sorted(PINNED_MODE_SUMS))
def test_shell_sums_match_pinned_mode_sums(case):
    d, l, p_max, beta, mu = case
    point = ThermoPoint(beta=beta, mu=mu, lattice=build_lattice(d, l, p_max))
    primed, rho_c = PINNED_MODE_SUMS[case]
    assert shell_primed_pressure(point)[0] == float.fromhex(primed)
    assert shell_critical_density(point)[0] == float.fromhex(rho_c)


@pytest.mark.parametrize("d,l,p_max", [(1, 7.0, 4.0), (2, 7.0, 4.0), (3, 8.0, 6.0)])
def test_shell_sums_equal_per_mode_sums(d, l, p_max):
    lat = build_lattice(d, l, p_max)
    point = ThermoPoint(beta=0.7, mu=-0.4, lattice=lat)
    lam = all_energies(lat)[1:]
    terms = -np.log1p(-np.exp(0.7 * (-0.4 - lam))) / (0.7 * lat.volume)
    assert shell_primed_pressure(point)[0] == stable_sum(terms)
    density = stable_sum(1.0 / np.expm1(0.7 * (lam + 0.4))) / lat.volume
    assert shell_critical_density(point)[0] == density


def _exact_theta_series(beta, mu, d, l, power, dps=30):
    """The p != 0 sum over every mode, sum_j e^(j*beta*mu) j^-power
    (theta_3(0, e^(-t_j))^d - 1) / (beta^power * l^d), with mpmath's jtheta."""
    with mp.workdps(dps):
        h = mp.mpf(beta) * 2 * mp.pi ** 2 / mp.mpf(l) ** 2
        total, j = mp.mpf(0), 1
        while True:
            term = (mp.exp(j * mp.mpf(beta) * mp.mpf(mu)) / mp.mpf(j) ** power
                    * (mp.jtheta(3, 0, mp.exp(-j * h)) ** d - 1))
            total += term
            if term < total * mp.mpf(10) ** -(dps - 2):
                return total / (mp.mpf(beta) ** power * mp.mpf(l) ** d)
            j += 1


class TestThetaSeries:
    """The p != 0 sums over every mode, by Jacobi-theta resummation."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_theta_power_against_mpmath(self, d):
        # Both forms of theta, either side of t = pi, from t = 1e-6 up to
        # 700, where theta - 1 ~ 2e^(-t) is still a normal float.
        t = np.logspace(-6.0, math.log10(700.0), 61)
        value, rel = _theta_power_m1(t, d)
        for k, tk in enumerate(t.tolist()):
            # theta - 1 ~ 2e^(-t): t/log(10) more digits survive the subtraction.
            with mp.workdps(30 + int(tk)):
                exact = mp.jtheta(3, 0, mp.exp(-mp.mpf(tk))) ** d - 1
                assert abs(value[k] - exact) <= rel[k] * value[k]
        # Past t ~ 10 the bound grows as 10t roundings: e^(-t) carries t's error.
        assert np.all(rel[t < 10.0] < 1e-13)

    @pytest.mark.parametrize("d,l,beta,mu", [
        (3, 8.0, 1.0, -0.5), (1, 3.0, 0.7, -1e-3), (2, 12.0, 2.0, -0.05),
        (3, 2.0, 0.5, -1.5),
    ])
    def test_certificate_covers_the_error(self, d, l, beta, mu, monkeypatch):
        point = ThermoPoint(beta=beta, mu=mu, lattice=build_lattice(d, l, 1.0))
        exact = [_exact_theta_series(beta, mu, d, l, power) for power in (0, 1)]
        for power in (0, 1):
            value, bound = _theta_series([(beta, point.lattice)], (mu,), power)[0][mu]
            assert abs(value - exact[power]) <= bound <= 1e-14 * value
        # Stopped early, the j-tail dominates the certificate.
        monkeypatch.setattr(lattice_ideal, "_J_TAIL", 1e-6)
        for power in (0, 1):
            value, bound = _theta_series([(beta, point.lattice)], (mu,), power)[0][mu]
            assert 1e-13 * value < abs(value - exact[power]) <= bound

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h", [730.0, 740.0])
    def test_subnormal_terms_are_covered(self, d, h):
        # Past t_1 = h ~ 708 every term is subnormal, and each rounding can
        # be off by 2^-1075 absolute, far more than its relative count
        # allows: only the underflow allowance covers the error.
        l = TWO_PI / math.sqrt(2.0 * h)
        lattice = build_lattice(d, l, 1.0)
        with mp.workdps(40):
            t = 2 * mp.pi ** 2 / mp.mpf(l) ** 2
            # theta(jt)^d - 1 = sum_k binom(d, k) x^k, x = 2 sum_n e^(-jt n^2),
            # with nothing to cancel; by j = 3 the terms are below 1e-40 of the sum.
            x = [2 * mp.fsum(mp.exp(-j * t * n * n) for n in range(1, 6)) for j in (1, 2, 3)]
            g = [mp.fsum(mp.binomial(d, k) * xj ** k for k in range(1, d + 1)) for xj in x]
            for power in (0, 1):
                exact = mp.fsum(mp.exp(-0.5 * j) / j ** power * g[j - 1] for j in (1, 2, 3))
                exact /= mp.mpf(l) ** d
                value, bound = _theta_series([(1.0, lattice)], (-0.5,), power)[0][-0.5]
                assert 1e-12 * value < abs(value - exact) <= bound

    @given(beta=st.floats(0.5, 2.0), mu=st.floats(-2.0, -1e-3),
           side=st.floats(2.0, 64.0), d=st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_shell_oracle(self, beta, mu, side, d):
        point = ThermoPoint(beta=beta, mu=mu, lattice=build_lattice(d, side, 10.0))
        theta = pressure_ideal_primed(point)
        shell, cutoff = shell_primed_pressure(point)
        assert abs(theta.primed - shell) <= (cutoff + theta.truncation_bound
                                             + ORACLE_ROUNDING * shell)
        density, density_bound = _theta_series([(beta, point.lattice)], (mu,), 0)[0][mu]
        assert density == critical_density_finite(point)
        shell, cutoff = shell_critical_density(point)
        assert abs(density - shell) <= cutoff + density_bound + ORACLE_ROUNDING * shell

    def test_large_box_is_cheap_and_certified(self):
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=build_lattice(3, 1e4, 10.0))
        res = pressure_ideal_primed(point, rel_tol=1e-14)
        # The zero mode's share, log(1 - e^(beta*mu))/(beta*V), is ~1e-12.
        assert res.primed == pytest.approx(pressure_ideal_limit(1.0, -0.5, 3), rel=1e-9)
        # The density's own series certifies 1e-14 too.
        density = lattice_ideal._theta_series([(1.0, point.lattice)], (-0.5,), 0,
                                              rel_tol=1e-14)[0][-0.5][0]
        assert density == critical_density_finite(point) == pytest.approx(
            critical_density_limit(1.0, -0.5, 3, tol=1e-14), rel=1e-9)

    def test_long_series_refused_before_allocating(self):
        # mu -> 0- on a side of 1e6 would need ~3e12 terms.
        point = ThermoPoint(beta=1.0, mu=-1e-300, lattice=build_lattice(3, 1e6, 10.0))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceGuardError, match="theta series"):
                pressure_ideal_primed(point)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 2 ** 20

    def test_terms_are_kept_once(self):
        # ~2.5e6 j-terms at side 1000, mu = -1e-6: one double each, plus
        # the chunk temporaries.
        point = ThermoPoint(beta=1.0, mu=-1e-6, lattice=build_lattice(3, 1000.0, 10.0))
        log_q = -1e-6 - 0.5 * (TWO_PI / 1000.0) ** 2
        terms = 1 + math.ceil(math.log(1e-17 * -math.expm1(log_q)) / log_q)
        tracemalloc.start()
        try:
            pressure_ideal_primed(point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms > 2e6
        assert peak <= 10 * terms

    @pytest.mark.parametrize("d,l", [(1, 1e200), (2, 1e150)])
    def test_spacing_beyond_float_range_refused(self, d, l):
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=build_lattice(d, l, 10.0))
        with pytest.raises(ResourceGuardError, match="float range"):
            pressure_ideal_primed(point)


# Sides whose theta(t_1)^d is beyond the float range, by d.
RANGE_SIDE = {1: 1e200, 2: 1e150, 3: 1e90}


def outcome(call):
    """What `call()` returns, or the type and message of the error it raises."""
    try:
        return call()
    except BoseLimitsError as exc:
        return type(exc), str(exc)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestThetaPassOverLattices:
    """One `_theta_series` call over several (beta, lattice) grids against one call per grid."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_theta_power_does_not_depend_on_position(self, d):
        t = np.logspace(-6.0, math.log10(700.0), 4096)
        order = np.random.default_rng(43).permutation(t.size)
        value, rel = _theta_power_m1(t, d)
        shuffled_value, shuffled_rel = _theta_power_m1(t[order], d)
        assert shuffled_value.tobytes() == value[order].tobytes()
        assert shuffled_rel.tobytes() == rel[order].tobytes()

    @given(d=st.sampled_from([1, 2, 3]),
           betas=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
           sides=st.lists(st.one_of(st.floats(1.5, 40.0),
                                    st.sampled_from([100.0, 400.0, "range"])),
                          min_size=1, max_size=3),
           mus=st.lists(st.one_of(st.floats(-2.0, -1e-3), st.just(-1e-6)),
                        min_size=1, max_size=3),
           power=st.sampled_from([0, 1]), rel_tol=st.sampled_from([None, 1e-15, 1e-12]))
    # Several grids in one pass, t straddling pi, and series of 2.3e4 and
    # 4.7e4 terms at side 100, over 6 and 12 blocks, at two beta.
    @example(d=3, betas=[1.0, 0.5], sides=[8.0, 16.0, 100.0], mus=[-1e-3, -0.5, -1e-6],
             power=1, rel_tol=None)
    # The byte guard refuses side 200 at the second beta (1.9e5 terms) only.
    @example(d=3, betas=[2.0, 0.5], sides=[8.0, 200.0], mus=[-1e-6], power=1, rel_tol=None)
    # A theta-range refusal ahead of a byte-guard refusal, in grid order.
    @example(d=1, betas=[0.7, 1.3], sides=[8.0, "range", 400.0], mus=[-1e-6, -0.5],
             power=0, rel_tol=None)
    # A refusal by rel_tol at the first beta before a grid the byte guard refuses.
    @example(d=2, betas=[1.0, 1.5], sides=[8.0, 400.0], mus=[-1e-6], power=0, rel_tol=1e-15)
    @settings(max_examples=60, deadline=None)
    def test_matches_one_call_per_grid(self, d, betas, sides, mus, power, rel_tol):
        # Under a 2 MiB ceiling the byte guard refuses side 400 at mu = -1e-6
        # (~2e5 terms and more) and passes every series up to side 100.
        lattices = [build_lattice(d, RANGE_SIDE[d] if s == "range" else s, 10.0) for s in sides]
        grids = [(beta, lattice) for beta in betas for lattice in lattices]
        with mock.patch.object(lattice_ideal, "MAX_ALLOC_BYTES", 2 ** 21):
            together = outcome(lambda: _theta_series(grids, mus, power, rel_tol))
            alone = outcome(lambda: [_theta_series([grid], mus, power, rel_tol)[0]
                                     for grid in grids])
        assert repr(together) == repr(alone)

    def test_short_ladder_takes_one_theta_evaluation(self, monkeypatch):
        sizes = []

        def counting(t, d):
            sizes.append(t.size)
            return _theta_power_m1(t, d)

        monkeypatch.setattr(lattice_ideal, "_theta_power_m1", counting)
        lattices = [build_lattice(3, side, 10.0) for side in (8.0, 16.0, 32.0, 64.0)]
        _theta_series([(1.0, lattice) for lattice in lattices], (-0.5, -0.6), 1)
        # The longest series of each lattice, 49 to 81 terms.
        assert len(sizes) == 1 and 4 * 49 <= sizes[0] <= 4 * 81

    def test_every_lattice_is_guarded(self, monkeypatch):
        # Side 400 at mu = -1e-4 needs ~2e5 terms, above a 2 MiB ceiling;
        # side 8 ahead of it does not lift the guard from it.
        monkeypatch.setattr(lattice_ideal, "MAX_ALLOC_BYTES", 2 ** 21)
        lattices = [build_lattice(3, side, 10.0) for side in (8.0, 400.0)]
        with pytest.raises(ResourceGuardError, match="side 400"):
            _theta_series([(1.0, lattice) for lattice in lattices], (-1e-4,), 1)

    def test_ladder_peaks_at_its_largest_rung(self):
        # Each series is freed once summed, so a ladder of 7.8e4, 2.1e5 and
        # 3.7e5 terms holds no more than its largest rung alone and one pass.
        lattices = [build_lattice(3, side, 10.0) for side in (200.0, 400.0, 800.0)]
        grids = [(1.0, lattice) for lattice in lattices]
        ladder = traced_peak(lambda: _theta_series(grids, (-1e-4,), 1))
        largest = traced_peak(lambda: _theta_series([(1.0, lattices[-1])], (-1e-4,), 1))
        assert 8 * 3.6e5 < ladder <= largest + lattice_ideal._J_PASS_BYTES


class TestDispersion:
    """Mode energies |p|^2 / 2 at momenta p = (2 pi / L) n."""

    def test_zero(self):
        assert build_lattice(3, TWO_PI, 2.0).leading_energies(1).tolist() == [0.0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_vectors(self, d):
        lat = build_lattice(d, TWO_PI, 2.0)
        assert lat.nonzero_energies[0] == 0.5
        energies = lat.leading_energies(2 * d + 1)
        assert energies.tolist() == oracle_shells(d, TWO_PI, 1.0)[1] == [0.0] + [0.5] * (2 * d)

    def test_lattice_spacing(self):
        # halving the side doubles the spacing and quadruples every energy
        wide, narrow = build_lattice(2, TWO_PI, 3.0), build_lattice(2, math.pi, 3.0)
        assert narrow.nonzero_energies[0] == 2.0
        np.testing.assert_array_equal(
            wide.nonzero_energies[:narrow.shells.size - 1] * 4.0,
            narrow.nonzero_energies)
        np.testing.assert_array_equal(wide.shells[:narrow.shells.size], narrow.shells)


class TestPressureIdealPrimed:
    def test_d1_matches_brute_force_at_double_cutoff(self):
        lat = build_lattice(1, TWO_PI, 10.0)
        point = ThermoPoint(beta=1.0, mu=-1.0, lattice=lat)
        result = pressure_ideal_primed(point)
        oracle = brute_force_primed_pressure(1.0, -1.0, 1, TWO_PI, 20.0)
        wide = ThermoPoint(beta=1.0, mu=-1.0, lattice=build_lattice(1, TWO_PI, 20.0))
        assert abs(result.primed - oracle) <= (result.truncation_bound
                                               + shell_primed_pressure(wide)[1]
                                               + ORACLE_ROUNDING * oracle)

    def test_deep_mu_vanishes(self):
        lat = build_lattice(1, TWO_PI, 10.0)
        point = ThermoPoint(beta=1.0, mu=-50.0, lattice=lat)
        assert abs(pressure_ideal_primed(point).primed) < 1e-18

    def test_monotone_and_convex_in_mu(self):
        lat = build_lattice(3, 8.0, 6.0)
        mus = np.linspace(-2.0, -0.1, 12)
        vals = [pressure_ideal_primed(ThermoPoint(beta=1.0, mu=m, lattice=lat)).primed
                for m in mus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-12)

    def test_cutoff_soundness(self):
        for p_max in (4.0, 6.0):
            small = build_lattice(3, 16.0, p_max)
            large = build_lattice(3, 16.0, 2.0 * p_max)
            a, a_bound = shell_primed_pressure(ThermoPoint(beta=1.0, mu=-0.5, lattice=small))
            b, _ = shell_primed_pressure(ThermoPoint(beta=1.0, mu=-0.5, lattice=large))
            assert abs(b - a) < a_bound

    @pytest.mark.parametrize("p_max,side", [(1.0, 16.0), (2.0, 4.0), (3.0, 8.0)])
    def test_cutoff_bound_finite_and_sound_near_mu_zero(self, p_max, side):
        # Dropped modes have |p| > p_max, so the Bose factor of the bound is
        # taken there and stays finite where exp(beta*mu) rounds to 1.
        mu = -1e-300
        small = build_lattice(3, side, p_max)
        large = build_lattice(3, side, 4.0 * p_max + 8.0)
        a, a_bound = shell_primed_pressure(ThermoPoint(beta=1.0, mu=mu, lattice=small))
        b, _ = shell_primed_pressure(ThermoPoint(beta=1.0, mu=mu, lattice=large))
        assert math.isfinite(a_bound)
        assert b - a < a_bound
        point = ThermoPoint(beta=1.0, mu=mu, lattice=small)
        rho_large, _ = shell_critical_density(ThermoPoint(beta=1.0, mu=mu, lattice=large))
        rho_small, rho_bound = shell_critical_density(point)
        assert 0.0 < rho_large - rho_small < rho_bound < math.inf

    def test_breakdown_structure(self):
        lat = build_lattice(1, TWO_PI, 10.0)
        res = pressure_ideal_primed(ThermoPoint(beta=1.0, mu=-1.0, lattice=lat))
        assert res.zero_mode == 0.0 and res.constant == 0.0
        assert res.total == res.primed

    def test_rejects_loose_tolerance_request(self):
        lat = build_lattice(3, 8.0, 2.0)
        point = ThermoPoint(beta=1.0, mu=-0.1, lattice=lat)
        with pytest.raises(NonConvergenceError):
            shell_primed_pressure(point, rel_tol=1e-12)
        # Every mode enters the theta series: its certificate meets 1e-12
        # at any cutoff, and refuses a tolerance below its rounding.
        assert pressure_ideal_primed(point, rel_tol=1e-12).truncation_bound > 0.0
        with pytest.raises(NonConvergenceError):
            pressure_ideal_primed(point, rel_tol=1e-17)

    def test_deterministic(self):
        lat = build_lattice(3, 8.0, 6.0)
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=lat)
        assert pressure_ideal_primed(point).primed == pressure_ideal_primed(point).primed

    def test_domain(self):
        lat = build_lattice(1, TWO_PI, 2.0)
        with pytest.raises(DomainError):
            pressure_ideal_primed(ThermoPoint(beta=1.0, mu=0.0, lattice=lat))


class TestPressureIdealLimit:
    def test_frozen_value(self):
        assert pressure_ideal_limit(1.0, -1.0, 3) == pytest.approx(
            P_ID_LIMIT_B1_MM1, abs=1e-12)

    def test_quadrature_cross_check(self):
        beta, mu = 1.0, -1.0
        integrand = lambda r: (-math.log1p(-math.exp(beta * (mu - 0.5 * r * r)))
                               / beta * 4.0 * math.pi * r * r)
        val, err = quad(integrand, 0.0, 20.0, epsabs=1e-13, epsrel=1e-13)
        oracle = val / (2.0 * math.pi) ** 3
        assert pressure_ideal_limit(beta, mu, 3) == pytest.approx(oracle, abs=1e-9)

    def test_deep_mu_vanishes(self):
        assert pressure_ideal_limit(1.0, -50.0, 3) < 1e-20

    def test_finite_volume_consistency_ladder(self):
        beta, mu = 1.0, -0.5
        limit = pressure_ideal_limit(beta, mu, 3)
        gaps = []
        for side in (8, 16, 32):
            lat = build_lattice(3, float(side), 8.0)
            val = pressure_ideal_primed(ThermoPoint(beta=beta, mu=mu, lattice=lat)).primed
            gaps.append(abs(val - limit))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            pressure_ideal_limit(1.0, 0.0, 3)


class TestCriticalDensityFinite:
    def test_two_term_lattice(self):
        # pick p_max so only the -1, 0, +1 modes survive in d = 1
        lat = build_lattice(1, TWO_PI, 1.5)
        assert lat.n_modes == 3
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=lat)
        expected = 2.0 * occupation(1.0, -0.5, 0.5) / TWO_PI
        assert shell_critical_density(point)[0] == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force(self, lattice_d3_l16):
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=lattice_d3_l16)
        oracle = brute_force_density(1.0, -0.5, 3, 16.0, 10.0)
        assert critical_density_finite(point) == pytest.approx(oracle, rel=1e-13)

    def test_monotone_ladder_toward_limit(self):
        beta, mu = 1.0, -0.5
        limit = critical_density_limit(beta, mu, 3, tol=1e-12)
        vals = []
        for side in (8, 16, 32):
            lat = build_lattice(3, float(side), 8.0)
            vals.append(critical_density_finite(ThermoPoint(beta=beta, mu=mu, lattice=lat)))
        assert vals[0] < vals[1] < vals[2] < limit

    def test_tail_bound_positive(self, lattice_d3_l16):
        point = ThermoPoint(beta=1.0, mu=-0.5, lattice=lattice_d3_l16)
        assert shell_critical_density(point)[1] > 0.0


class TestCriticalDensityLimit:
    def test_condensation_threshold_value(self):
        assert critical_density_limit(1.0, 0.0, 3, tol=1e-9) == pytest.approx(
            RHO_C_MU0, abs=1e-8)

    def test_beta_scaling(self):
        v1 = critical_density_limit(1.0, 0.0, 3, tol=1e-9)
        v4 = critical_density_limit(4.0, 0.0, 3, tol=1e-9)
        assert v4 == pytest.approx(v1 / 8.0, rel=1e-12)

    def test_negative_mu_value(self):
        assert critical_density_limit(1.0, -0.5, 3, tol=1e-14) == pytest.approx(
            RHO_C_B1_MM05, abs=1e-12)

    def test_diverges_low_dimension(self):
        with pytest.raises(NonConvergenceError):
            critical_density_limit(1.0, 0.0, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_density_limit(1.0, 0.1, 3)


class TestPolylog:
    def test_zero_argument(self):
        assert polylog(2.0, 0.0) == 0.0

    def test_zeta_three_halves(self):
        assert polylog(1.5, 1.0, tol=1e-9) == pytest.approx(ZETA_3_HALVES, abs=1e-8)

    def test_log_closed_form(self):
        assert polylog(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("s,z", sorted(POLYLOG_GRID))
    def test_mpmath_grid(self, s, z):
        assert polylog(s, z, tol=1e-14) == pytest.approx(POLYLOG_GRID[(s, z)], rel=1e-12)

    def test_diverges(self):
        with pytest.raises(NonConvergenceError):
            polylog(1.0, 1.0)
        with pytest.raises(NonConvergenceError):
            polylog(0.5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            polylog(-1.0, 0.5)
        with pytest.raises(DomainError):
            polylog(1.5, 1.5)
        with pytest.raises(DomainError):
            polylog(math.inf, 0.5)

    def test_deterministic(self):
        assert polylog(1.5, 0.9) == polylog(1.5, 0.9)

    @given(s=st.floats(0.2, 4.0), z=st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_and_monotone_in_z(self, s, z):
        val = polylog(s, z, tol=1e-13)
        assert val >= z - 1e-15
        assert polylog(s, min(z + 0.02, 0.97), tol=1e-13) >= val


class TestZeta:
    @pytest.mark.parametrize("sigma", [2.5, 1.5, 0.5, -0.5, -7.5])
    def test_mpmath_oracle_within_bound(self, sigma):
        value, error = _zeta(sigma)
        with mp.workdps(40):
            oracle = mp.zeta(sigma)
        assert abs(value - oracle) <= error
        assert error <= 1e-14 * max(1.0, abs(value))

    def test_trivial_zeros_are_exact(self):
        assert _zeta(-2.0) == (0.0, 0.0)
        assert _zeta(-10.0)[0] == 0.0

    def test_error_bound_exposes_the_pole(self):
        value, error = _zeta(1.0 + 1e-9)
        assert value == pytest.approx(1e9, rel=1e-6)
        assert error > 1e-8


class TestPolylogNearOne:
    """Robinson's expansion in t = log z against mpmath, down to t = -1e-12."""

    TS = (-2.0 * math.pi, -3.0, -1.0, -0.5, -0.1, -1e-2, -1e-4, -1e-6, -1e-8,
          -1e-10, -1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("t", TS)
    def test_mpmath_oracle(self, s, t):
        z, tol = math.exp(t), 1e-14
        with mp.workdps(40):
            oracle = mp.polylog(s, mp.mpf(z))
        assert abs(polylog(s, z, tol=tol) - oracle) <= tol * max(1.0, abs(oracle))

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0])
    def test_zeta_at_one(self, s):
        with mp.workdps(40):
            oracle = mp.zeta(s)
        assert abs(polylog(s, 1.0, tol=1e-14) - oracle) <= 1e-14 * oracle

    def test_tight_tolerance_at_one(self):
        # The direct sum would need ~8e7 terms for this tolerance.
        assert polylog(1.5, 1.0, tol=1e-12) == pytest.approx(ZETA_3_HALVES, abs=1e-12)

    @pytest.mark.parametrize("s", [2.0 + 1e-9, 2.0 - 1e-9])
    @pytest.mark.parametrize("t", [-1.0, -1e-3, -1e-7, -1e-12])
    def test_near_integer_order_certified_or_refused(self, s, t):
        # Gamma(1-s) and zeta(s-1) have cancelling poles here: the result
        # meets tol, or the call refuses; it never returns an unchecked value.
        z, tol = math.exp(t), 1e-12
        try:
            value = polylog(s, z, tol=tol)
        except NonConvergenceError:
            return
        with mp.workdps(40):
            oracle = mp.polylog(s, mp.mpf(z))
        assert abs(value - oracle) <= tol * max(1.0, abs(oracle))

    @pytest.mark.parametrize("s,t,tol", [(2.0 + 1e-9, -1e-7, 1e-13),
                                         (2.0 + 1e-12, -1e-9, 1e-12)])
    def test_direct_series_refuses_before_summing(self, s, t, tol):
        # Robinson's bound misses tol here, and the defining series would
        # need ~9.4e7 and ~2.7e10 terms: over the byte ceiling, which is
        # known before any term is formed.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NonConvergenceError, match="ceiling"):
                polylog(s, math.exp(t), tol=tol)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 2 ** 20

    @pytest.mark.parametrize("s,z", [(1.5, 0.3), (2.5, 0.6), (0.5, math.exp(-0.5))])
    def test_direct_series_counts_the_fewest_terms(self, s, z, monkeypatch):
        # The count K is the smallest whose tail bound meets tol: K - 1
        # terms would not.
        counts = []
        original = lattice_ideal.stable_sum
        monkeypatch.setattr(lattice_ideal, "stable_sum",
                            lambda terms: counts.append(len(terms)) or original(terms))
        tol = 1e-15
        polylog(s, z, tol=tol)
        (k,) = counts
        assert k <= 71

        def tail(n):
            return z ** (n + 1) / ((n + 1) ** s * (1.0 - z))

        assert tail(k) <= tol < tail(k - 1)

    @pytest.mark.parametrize("s", [172.0, 300.0, 170.5, 200.5])
    @pytest.mark.parametrize("t", [-0.3, -1e-6])
    def test_large_order_sums_the_defining_series(self, s, t):
        # No zeta(s - k) with k <= _ROBINSON_MAX_ORDER is below 0, so Robinson
        # cannot certify; at integer s >= 172 its t^(m-1)/(m-1)! overflowed.
        z, tol = math.exp(t), 1e-14
        with mp.workdps(40):
            oracle = mp.polylog(s, mp.mpf(z))
        value = polylog(s, z, tol=tol)
        assert abs(value - oracle) <= tol * max(1.0, abs(oracle))
        assert value == lattice_ideal._direct_series(s, t, tol)

    def test_zeta_memo_is_bit_identical(self):
        points = [(s, t) for s in (0.5, 1.5, 2.0, 2.5, 3.5)
                  for t in (-0.49, -0.2, -1e-2, -1e-5, -1e-9, -1e-12)]
        warm = [polylog(s, math.exp(t), tol=1e-14) for s, t in points]
        cold = []
        for s, t in points:
            _zeta.cache_clear()
            cold.append(polylog(s, math.exp(t), tol=1e-14))
        assert cold == warm

    def test_zeta_coefficients_reused_across_z(self, monkeypatch):
        calls = []
        original = lattice_ideal._euler_maclaurin_zeta
        monkeypatch.setattr(lattice_ideal, "_euler_maclaurin_zeta",
                            lambda sigma: calls.append(sigma) or original(sigma))
        polylog(1.5, math.exp(-1e-3))
        calls.clear()
        polylog(1.5, math.exp(-2e-3))
        assert calls == []

    def test_critical_density_close_to_condensation(self):
        beta, mu = 1.0, -1e-7
        with mp.workdps(40):
            oracle = mp.polylog(1.5, mp.mpf(math.exp(beta * mu))) / (2 * mp.pi * beta) ** 1.5
        assert critical_density_limit(beta, mu, 3) == pytest.approx(float(oracle),
                                                                    rel=1e-9)
