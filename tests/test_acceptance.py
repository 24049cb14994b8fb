"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 asserts a fitted pressure-gap decay rate >= 0.9 on sides
{8,16,32,64}.  The gap's leading finite-size term is -log(V)/(2*beta*V)
(the width factor of the zero-mode partition sum), so the log-log slope
over that window is 0.877 and approaches 1 only like 1 - 1/log(V).  The
threshold is asserted as stated rather than loosened, and the test fails
with the measured rate in its message.
"""

import math
import time

import numpy as np
import pytest

from bose_limits.cli import main as cli_main
from bose_limits.equivalence import (condensate_temperature_spread,
                                     delta_pressure, delta_pressure_closed_form,
                                     verify_equivalence)
from bose_limits.fockdiag import (DiagonalModel, add_linear_source,
                                  add_sqrt_source, gibbs_expectation, gibbs_trace,
                                  quasiaverage_fd, truncate_lattice, verify_sandwich,
                                  zero_mode_annihilator)
from bose_limits.lattice_ideal import (ThermoPoint, build_lattice,
                                       critical_density_finite,
                                       critical_density_limit, pressure_ideal_primed)
from bose_limits.nonlinear_model import (ExponentFunction, laplace_sup,
                                         zero_mode_log_partition,
                                         zero_mode_partial_logsum)
from bose_limits.source_model import mu_star, pressure_source, solve_mu_finite

RHO_C_MU0 = 0.16586920931302220587   # zeta(3/2)/(2 pi)^{3/2}, frozen from mpmath

GRID_BETAS = (0.5, 0.8, 1.2, 2.0, 3.0)
GRID_MUS = (-2.0, -1.5, -1.0, -0.7, -0.5)
GRID_NUS = (0.05, 0.1, 0.2)
GRID_CUTOFFS = ((20,), (20, 10), (16, 6, 6))


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="session")
def sandwich_grid():
    """Sandwich reports for the mean-field model over the acceptance grid."""
    lattice = build_lattice(3, 2.0, 7.0)
    truncations = [truncate_lattice(lattice, c) for c in GRID_CUTOFFS]
    start = time.perf_counter()
    results = []
    for beta in GRID_BETAS:
        for mu in GRID_MUS:
            for nu in GRID_NUS:
                reports = verify_sandwich(DiagonalModel(a=1.0, mu=mu),
                                          truncations, beta, nu,
                                          volume=lattice.volume)
                for rep in reports:
                    results.append((beta, mu, nu, rep))
    return results, time.perf_counter() - start


def test_criterion_01_laplace_constant():
    start = time.perf_counter()
    mu, nu = -0.5, 0.1
    sup_errors = [abs(laplace_sup(ExponentFunction(mu=mu, nu=nu, volume=v)) - 0.02)
                  for v in (1e3, 1e4, 1e5, 1e6)]
    converges = all(b < a for a, b in zip(sup_errors, sup_errors[1:]))
    tight = sup_errors[-1] < 1e-6
    bounds_ok = True
    for volume in (1e2, 1e3, 1e4):
        res = zero_mode_log_partition(1.0, mu, nu, volume)
        bounds_ok &= res.gap <= math.log(res.terms_used) / volume + res.tail_bound
    elapsed = time.perf_counter() - start
    ok = converges and tight and bounds_ok and elapsed < 10.0
    report(1, "Laplace supremum reaches -nu^2/mu with certified series gap", ok,
           f"|sup-0.02|={sup_errors[-1]:.2e}, {elapsed:.2f}s")
    assert converges and tight and bounds_ok
    assert elapsed < 10.0


def test_criterion_02_finite_volume_identity():
    start = time.perf_counter()
    lattice = build_lattice(3, 16.0, 10.0)
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.5, 2.0)
        mu = rng.uniform(-2.0, -0.1)
        nu = rng.uniform(0.0, 0.5)
        point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice)
        dp = delta_pressure(point)
        closed = delta_pressure_closed_form(
            point, zero_mode_log_partition(beta, mu, nu, point.volume))
        if closed == 0.0:
            worst = max(worst, abs(dp))
        else:
            worst = max(worst, abs(dp - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 30.0
    report(2, "pressure-difference decomposition identity at 20 random points",
           ok, f"worst rel err={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


def test_criterion_03_pressure_gap_rate():
    start = time.perf_counter()
    result = verify_equivalence(1.0, -0.5, 0.1, 3, (8, 16, 32, 64), p_max=10.0)
    rate = result.ladder.fitted_rate
    elapsed = time.perf_counter() - start
    gaps = result.ladder.gaps
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = monotone and rate >= 0.9 and elapsed < 120.0
    report(3, "pressure-gap decay rate >= 0.9 on sides {8,16,32,64}", ok,
           f"fitted rate={rate:.4f}, {elapsed:.1f}s; gap ~ log(V)/V makes "
           "the window slope fall short of 0.9")
    assert monotone
    assert elapsed < 120.0
    assert rate >= 0.9, (
        f"fitted rate {rate:.4f} < 0.9: the exact gap carries a "
        "-log(V)/(2 beta V) term from the zero-mode partition width, so the "
        "log-log slope over V in [512, 262144] is below the stated threshold")


def test_criterion_04_condensate_value_and_temperature_independence():
    start = time.perf_counter()
    values, spread = condensate_temperature_spread(-0.5, 0.1, 3, (0.5, 1.0, 2.0),
                                                   h=1e-5)
    err_at_beta1 = abs(values[1] - 0.04)
    elapsed = time.perf_counter() - start
    ok = err_at_beta1 < 1e-5 and spread < 1e-10 and elapsed < 60.0
    report(4, "condensate density nu^2/mu^2, temperature independent", ok,
           f"|rho0-0.04|={err_at_beta1:.2e}, spread={spread:.2e}, {elapsed:.2f}s")
    assert err_at_beta1 < 1e-5
    assert spread < 1e-10
    assert elapsed < 60.0


def test_criterion_05_critical_density():
    start = time.perf_counter()
    limit_value = critical_density_limit(1.0, 0.0, 3, tol=1e-8)
    oracle_err = abs(limit_value - RHO_C_MU0)
    finite = []
    for side in (8, 16, 32, 64):
        lattice = build_lattice(3, float(side), 10.0)
        point = ThermoPoint(beta=1.0, mu=-1e-3, lattice=lattice)
        finite.append(critical_density_finite(point))
    increasing = all(b > a for a, b in zip(finite, finite[1:]))
    distances = [abs(v - limit_value) for v in finite]
    approaching = all(b < a for a, b in zip(distances, distances[1:]))
    elapsed = time.perf_counter() - start
    ok = oracle_err < 1e-6 and increasing and approaching and elapsed < 60.0
    report(5, "critical density series oracle and monotone ladder", ok,
           f"|rho_c-zeta|={oracle_err:.2e}, {elapsed:.1f}s")
    assert oracle_err < 1e-6
    assert increasing and approaching
    assert elapsed < 60.0


def test_criterion_06_chemical_potential_asymptotics():
    start = time.perf_counter()
    beta, rho0, nu = 1.0, 0.04, 0.1
    target = mu_star(rho0, nu)
    volumes = (1e3, 1e4, 1e5, 1e6)
    gaps, residuals = [], []
    for v in volumes:
        mu_l = solve_mu_finite(beta, v, rho0, nu)
        gaps.append(abs(mu_l - target))
        a, c = beta * v * rho0, beta * v * nu * nu
        res = abs(a * mu_l * mu_l + mu_l - c) / max(abs(a * mu_l * mu_l), abs(c))
        residuals.append(res)
    rate = -np.polyfit(np.log(volumes), np.log(gaps), 1)[0]
    elapsed = time.perf_counter() - start
    ok = (abs(rate - 1.0) < 0.05 and max(residuals) < 1e-12
          and gaps[-1] < 2e-5 and elapsed < 1.0)
    report(6, "finite-volume chemical potential converges to -nu/sqrt(rho0)", ok,
           f"rate={rate:.4f}, worst residual={max(residuals):.2e}, {elapsed:.3f}s")
    assert abs(rate - 1.0) < 0.05
    assert max(residuals) < 1e-12
    assert gaps[-1] < 2e-5
    assert elapsed < 1.0


def test_criterion_07_bogoliubov_sandwich(sandwich_grid):
    results, elapsed = sandwich_grid
    worst_margin = min(min(rep.inequality.lower_margin, rep.inequality.upper_margin)
                       for _, _, _, rep in results)
    ok = worst_margin >= -1e-9 and elapsed < 300.0
    report(7, "variational pressure bounds on the 5x5x3 grid", ok,
           f"{len(results)} reports, worst margin={worst_margin:.2e}, "
           f"{elapsed:.1f}s")
    assert worst_margin >= -1e-9
    assert elapsed < 300.0


def test_criterion_08_sandwich_chain_and_volume_trend(sandwich_grid):
    results, grid_elapsed = sandwich_grid
    start = time.perf_counter()
    tol = 1e-9
    chain_ok = all(
        rep.chain_lower >= -tol
        and rep.chain_lower <= rep.delta_p + tol
        and rep.delta_p <= rep.chain_upper + tol
        and rep.chain_upper <= rep.jensen_upper + tol
        for _, _, _, rep in results)
    # delta_p shrinks with growing volume at fixed couplings and truncation;
    # the limit equality of the two pressures is not reachable at desk
    # scale, this trend plus the chain stands in for it.
    deltas = []
    for side in (1.0, 2.0, 3.0):
        lattice = build_lattice(3, side, 7.0)
        trunc = truncate_lattice(lattice, (14, 6))
        rep = verify_sandwich(DiagonalModel(a=1.0, mu=-0.5), [trunc], 1.0, 0.1,
                              volume=lattice.volume)[0]
        deltas.append(rep.delta_p)
    decreasing = deltas[0] > deltas[1] > deltas[2] > 0.0
    elapsed = grid_elapsed + time.perf_counter() - start
    ok = chain_ok and decreasing and elapsed < 600.0
    report(8, "two-sided chain holds and the gap shrinks with volume", ok,
           f"deltas={[f'{d:.4f}' for d in deltas]}, {elapsed:.1f}s")
    assert chain_ok
    assert decreasing
    assert elapsed < 600.0


def test_criterion_09_cross_module_oracles():
    start = time.perf_counter()
    beta, mu, nu, volume = 1.0, -0.5, 0.1, 1.0
    lattice = build_lattice(1, 1.0, 5.0)
    trunc = truncate_lattice(lattice, (200,))
    model = DiagonalModel(a=0.0, mu=mu)

    op_lin = add_linear_source(model, trunc, nu, volume)
    matrix_pressure = gibbs_trace(op_lin, beta, volume)
    point = ThermoPoint(beta=beta, mu=mu, nu=nu, lattice=lattice)
    closed = pressure_source(point, pressure_ideal_primed(point))
    linear_err = abs(matrix_pressure - (closed.zero_mode + closed.constant))

    op_sqrt = add_sqrt_source(model, trunc, nu, volume)
    sqrt_err = abs(gibbs_trace(op_sqrt, beta, volume)
                   - zero_mode_partial_logsum(beta, mu, nu, volume, 200))
    elapsed = time.perf_counter() - start
    ok = linear_err < 1e-8 and sqrt_err < 1e-12 and elapsed < 30.0
    report(9, "eigendecomposition agrees with closed form and series", ok,
           f"linear err={linear_err:.2e}, sqrt err={sqrt_err:.2e}, {elapsed:.2f}s")
    assert linear_err < 1e-8
    assert sqrt_err < 1e-12
    assert elapsed < 30.0


def test_criterion_10_selection_rules(sandwich_grid):
    results, _ = sandwich_grid
    start = time.perf_counter()
    lattice = build_lattice(3, 2.0, 7.0)
    trunc = truncate_lattice(lattice, (12, 5))
    a0 = zero_mode_annihilator(trunc)
    exact_zero = True
    for a in (0.0, 1.0):
        for nu in (0.0, 0.1, 0.3):
            op = add_sqrt_source(DiagonalModel(a=a, mu=-0.5), trunc, nu,
                                 lattice.volume)
            exact_zero &= gibbs_expectation(a0, op, 1.0) == 0.0
    nonneg = all(rep.linear_averages.a0_scaled >= 0.0
                 and rep.linear_averages.sqrt_density >= 0.0
                 for _, _, nu, rep in results if nu > 0.0)
    elapsed = time.perf_counter() - start
    ok = exact_zero and nonneg and elapsed < 60.0
    report(10, "zero-mode average vanishes exactly in symmetric states", ok,
           f"{elapsed:.2f}s")
    assert exact_zero
    assert nonneg
    assert elapsed < 60.0


def strip_duration(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def test_criterion_11_csv_determinism(tmp_path):
    jobs = {
        "equivalence": ["--command", "equivalence", "--mu", "-0.5", "--nu", "0.1",
                        "--ladder", "4,6,8", "--pmax", "8"],
        "fulldiag": ["--command", "fulldiag", "--mu", "-0.5", "--nu", "0.1",
                     "--side", "2", "--pmax", "7", "--fock-cutoff", "14,6"],
        "sweep1": ["--command", "sweep", "--mu", "-1.0,-0.5", "--beta", "0.5,1.0",
                   "--nu", "0.1,0.2", "--side", "6", "--pmax", "6",
                   "--workers", "1"],
        "sweep2": ["--command", "sweep", "--mu", "-1.0,-0.5", "--beta", "0.5,1.0",
                   "--nu", "0.1,0.2", "--side", "6", "--pmax", "6",
                   "--workers", "2"],
    }
    outputs = {}
    for name, args in jobs.items():
        texts = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}.csv"
            cli_main(args + ["--out", str(out)])
            texts.append(strip_duration(out.read_text()))
        outputs[name] = texts
    repeat_ok = all(a == b for a, b in outputs.values())
    workers_ok = outputs["sweep1"][0] == outputs["sweep2"][0]
    ok = repeat_ok and workers_ok
    report(11, "byte-identical CSV across repeats and worker counts", ok)
    assert repeat_ok
    assert workers_ok
