"""The four benchmark workloads: seeded inputs, the operation, its check.

A workload's run is a sequence of passes.  Pass `k` of seed `s` draws its
physical points from `random.Random(f"{name}:{s}:{k}")`, so the same seed
always gives the same inputs.  The seed only moves points inside fixed
size strata: box sides, p_max, volumes, Fock truncations, |beta*mu|
decades and nu/|mu| (which sets the zero-mode series length) are the same
for every seed, so the amount of work in a pass does not depend on it.

Each operation ends in one of three outcomes:

* ``certified``: it returned and its output passed the check;
* ``refused``:   it raised `NonConvergenceError` on a point of a stratum
  where the package is known to stop at a size cap (the documented exit-3
  path); these are kept in the workload so the defect stays visible;
* ``failed``:    anything else, including a wrong output or a refusal
  outside the known capped strata.

Checks run after the timed passes and are not timed.
"""

import contextlib
import csv
import io
import math
import random

from bose_limits import cli, equivalence, fockdiag, lattice_ideal, nonlinear_model
from bose_limits.errors import NonConvergenceError

CERTIFIED, REFUSED, FAILED = "certified", "refused", "failed"


def _outcome(latency, problems):
    status = FAILED if problems else CERTIFIED
    return (latency, status, "; ".join(problems))


class Workload:
    """Defaults shared by the workloads; each overrides what differs.

    `pass_seconds` is a pass's typical wall time at the seed on the 2-core
    reference machine.  It only turns `--seconds` into a fixed pass count.
    """

    def outcomes(self, op):
        """Number of checked outcomes one operation yields."""
        return 1

    def refusal_expected(self, op):
        """Whether `op` lies in a stratum where the seed is known to refuse."""
        return False

    def refused(self, op, error):
        """Whether `error` is the documented refusal on a known capped stratum."""
        return isinstance(error, NonConvergenceError) and self.refusal_expected(op)

    def pool_usage(self, outputs):
        """(rows, summed row durations in s, pool workers) of CLI outputs."""
        return 0, 0.0, 0


class Ladder(Workload):
    """`verify_equivalence` in d=3 on sides (8, 16, 32, 64), p_max=10."""

    name = "ladder"
    pass_seconds = 9.0
    SIDES = (8, 16, 32, 64)
    P_MAX = 10.0
    NU_OVER_MU = 0.2

    def make_pass(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        mu = -rng.uniform(0.3, 0.8)
        return [{"beta": rng.uniform(0.8, 1.5), "mu": mu, "nu": self.NU_OVER_MU * -mu}]

    def warm_up(self):
        equivalence.verify_equivalence(1.0, -0.5, 0.1, 3, (4, 8, 16), p_max=self.P_MAX)

    def run(self, op):
        return equivalence.verify_equivalence(op["beta"], op["mu"], op["nu"], 3,
                                              self.SIDES, p_max=self.P_MAX)

    def check(self, op, res, latency):
        problems = []
        worst = max(res.identity_rel_errors)
        if not worst <= 1e-12:
            problems.append(f"identity_rel_err {worst:.3e} > 1e-12")
        gaps = res.ladder.gaps
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append("gap ladder not strictly decreasing")
        diff = abs(res.density_linear.rho_0 - res.density_sqrt.rho_0)
        if not diff <= 1e-4:
            problems.append(f"condensates differ by {diff:.3e} > 1e-4")
        if res.ladder.fitted_rate is None or not math.isfinite(res.ladder.fitted_rate):
            problems.append("no fitted rate")
        # passed=False from the 0.877 < 0.9 rate criterion is expected here.
        return [_outcome(latency, problems)]


class Sweep(Workload):
    """`bose-limits --command sweep` on a 4x4x2 grid, side 32, two workers."""

    name = "sweep"
    pass_seconds = 6.0
    BETAS = (0.5, 0.8, 1.2, 1.8)
    MUS = (-0.25, -0.4, -0.6, -0.9)
    NUS = (0.04, 0.12)
    SIDE = 32
    WORKERS = 2
    SPOT_CHECKS = 2

    def make_pass(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")

        def jitter(values):
            return sorted(v * (1.0 + 0.1 * rng.random()) for v in values)

        grid = {"beta": jitter(self.BETAS), "mu": jitter(self.MUS),
                "nu": jitter(self.NUS)}
        rows = len(self.BETAS) * len(self.MUS) * len(self.NUS)
        grid["spot_rows"] = sorted(rng.sample(range(rows), self.SPOT_CHECKS))
        return [grid]

    @staticmethod
    def _argv(betas, mus, nus, side, workers):
        def join(values):
            return ",".join(repr(v) for v in values)

        return ["--command", "sweep", f"--beta={join(betas)}", f"--mu={join(mus)}",
                f"--nu={join(nus)}", "--dim", "3", "--side", str(side),
                "--pmax", "10", "--workers", str(workers)]

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self):
        self._main(self._argv((1.0,), (-0.5,), (0.1,), 8, 1))

    def run(self, op):
        return self._main(self._argv(op["beta"], op["mu"], op["nu"], self.SIDE,
                                     self.WORKERS))

    def outcomes(self, op):
        return len(op["beta"]) * len(op["mu"]) * len(op["nu"])

    def pool_usage(self, outputs):
        durations = [float(row["duration_s"]) for output in outputs if output
                     for row in self._rows(output[1])]
        return len(durations), sum(durations), self.WORKERS

    @staticmethod
    def _rows(text):
        return list(csv.DictReader(io.StringIO(text)))

    def check(self, op, output, latency):
        code, text = output
        lines = text.splitlines()
        grid = [(b, m, n) for b in op["beta"] for m in op["mu"] for n in op["nu"]]
        if code != 0 or len(lines) != len(grid) + 1:
            detail = f"exit {code}, {len(lines)} lines"
            return [(latency / len(grid), FAILED, detail)] * len(grid)
        out = []
        for i, (line, row, point) in enumerate(zip(lines[1:], self._rows(text), grid)):
            problems = []
            if row["passed"] != "true":
                problems.append(f"identity_rel_err {row['identity_rel_err']} > 1e-12")
            got = (float(row["beta"]), float(row["mu"]), float(row["nu"]))
            if got != point:
                problems.append(f"row {i} holds {got}, expected {point}")
            if i in op["spot_rows"]:
                # The README promises byte-identical rows across --workers,
                # duration_s (the last column) aside.
                code1, text1 = self._main(self._argv(*([v] for v in point), self.SIDE, 1))
                ref = text1.splitlines()[1] if code1 == 0 else ""
                if ref.rsplit(",", 1)[0] != line.rsplit(",", 1)[0]:
                    problems.append(f"row {i} differs from the --workers 1 row")
            out.append(_outcome(float(row["duration_s"]), problems))
        return out


class Series(Workload):
    """Zero-mode series on the V ladder and continuum quantities near z = 1."""

    name = "series"
    pass_seconds = 6.5
    VOLUMES = (1e4, 1e5, 1e6, 1e7, 1e8)
    DECADES = (1, 2, 3, 4, 5, 6, 7, 8)          # |beta*mu| = 10^-k
    NU_OVER_MU = 0.2
    # The series terms depend on (beta, mu, nu, V) only through |beta*mu|*V
    # and nu/|mu|, so fixing |beta*mu| fixes the work of every series.
    ZERO_MODE_BETA_MU = 0.5
    # Known caps at the seed (ROADMAP item 4): 50 M series terms at V=1e8,
    # 50 M polylog terms for |beta*mu| <= 1e-7.
    CAPPED_VOLUME = 1e8
    CAPPED_DECADE = 7
    # The beta-spread needs 8 more polylog evaluations; below 1e-5 each
    # takes about a second, so the spread is evaluated on decades 1..5.
    SPREAD_DECADES = 5

    def make_pass(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for volume in self.VOLUMES:
            beta = rng.uniform(0.8, 1.5)
            mu = -self.ZERO_MODE_BETA_MU / beta
            ops.append({"kind": "zero_mode", "beta": beta, "mu": mu,
                        "nu": self.NU_OVER_MU * -mu, "volume": volume})
        for k in self.DECADES:
            beta = rng.uniform(0.8, 1.5)
            mu = -(10.0 ** -k) / beta
            ops.append({"kind": "continuum", "beta": beta, "mu": mu,
                        "nu": self.NU_OVER_MU * -mu, "decade": k,
                        "spread": k <= self.SPREAD_DECADES})
        return ops

    def warm_up(self):
        self.run({"kind": "zero_mode", "beta": 1.0, "mu": -0.5, "nu": 0.1,
                  "volume": 1e4})
        self.run({"kind": "continuum", "beta": 1.0, "mu": -0.1, "nu": 0.02,
                  "decade": 1, "spread": True})

    def run(self, op):
        beta, mu, nu = op["beta"], op["mu"], op["nu"]
        if op["kind"] == "zero_mode":
            res = nonlinear_model.zero_mode_log_partition(beta, mu, nu, op["volume"])
            sup = nonlinear_model.laplace_sup(
                nonlinear_model.ExponentFunction(mu=mu, nu=nu, volume=op["volume"]))
            return res, sup
        pressure = nonlinear_model.pressure_sqrt_source_limit(beta, mu, nu, 3)
        density = equivalence.density_limit(beta, mu, nu, 3)
        spread = None
        if op["spread"]:
            spread = equivalence.condensate_temperature_spread(
                mu, nu, 3, (beta, 2.0 * beta), h=1e-3 * -mu)
        return pressure, density, spread

    def refusal_expected(self, op):
        if op["kind"] == "zero_mode":
            return op["volume"] >= self.CAPPED_VOLUME
        return op["decade"] >= self.CAPPED_DECADE

    def check(self, op, output, latency):
        if op["kind"] == "zero_mode":
            return [_outcome(latency, self._check_zero_mode(op, *output))]
        return [_outcome(latency, self._check_continuum(op, *output))]

    @staticmethod
    def _check_zero_mode(op, res, sup):
        problems = []
        gap_bound = math.log(res.terms_used) / (op["beta"] * op["volume"])
        if not res.gap <= gap_bound + res.tail_bound:
            problems.append(f"Laplace gap {res.gap:.3e} > {gap_bound + res.tail_bound:.3e}")
        if res.sup_value != sup:
            problems.append("sup_value differs from laplace_sup")
        return problems

    @staticmethod
    def _check_continuum(op, pressure, density, spread):
        # Imported here, outside the timed set-up: mpmath is the check's
        # oracle, and bose_limits never imports it.
        import mpmath

        beta, mu, nu = op["beta"], op["mu"], op["nu"]
        z = mpmath.mpf(math.exp(beta * mu))
        scale = float((2 * mpmath.pi * beta) ** -1.5)
        li52 = float(mpmath.polylog(2.5, z))
        li32 = float(mpmath.polylog(1.5, z))
        problems = []
        # polylog's own tolerances (1e-15 for the pressure, 1e-9 for the
        # density) relative to max(1, Li), plus rounding of the assembly.
        expect_p = nu * nu / -mu + li52 * scale / beta
        tol_p = 1e-15 * max(1.0, li52) * scale / beta + 1e-13 * abs(expect_p)
        if not abs(pressure - expect_p) <= tol_p:
            problems.append(f"pressure off the mpmath oracle by {pressure - expect_p:.3e}")
        expect_d = nu * nu / (mu * mu) + li32 * scale
        tol_d = 1e-9 * max(1.0, li32) * scale + 1e-13 * abs(expect_d)
        if not abs(density - expect_d) <= tol_d:
            problems.append(f"density off the mpmath oracle by {density - expect_d:.3e}")
        if spread is not None:
            condensate = nu * nu / (mu * mu)
            values, _ = spread
            worst = max(abs(v - condensate) for v in values) / condensate
            if not worst <= 1e-4:
                problems.append(f"FD condensate off nu^2/mu^2 by {worst:.3e} (relative)")
        return problems


class Fock(Workload):
    """`verify_sandwich` for the mean-field diagonal model on the side-2 box."""

    name = "fock"
    pass_seconds = 4.0
    SIDE = 2.0
    P_MAX = 7.0
    # Fock dimensions 833, 1029, 1116, 1625 and 2125.  D = 3125, (24,4,4,4),
    # alone takes ~5.5 s, which left room for only two passes in a run.
    TRUNCATIONS = ((16, 6, 6), (20, 6, 6), (30, 5, 5), (12, 4, 4, 4), (16, 4, 4, 4))
    SHELL_WEIGHT_MAX = 1e-4

    def make_pass(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for cutoffs in self.TRUNCATIONS:
            mu = -rng.uniform(0.45, 0.8)
            ops.append({"cutoffs": cutoffs, "beta": rng.uniform(0.9, 1.5), "mu": mu,
                        "nu": 0.2 * -mu, "a": rng.uniform(0.9, 1.5)})
        return ops

    def warm_up(self):
        self.run({"cutoffs": (4, 2, 2), "beta": 1.0, "mu": -0.5, "nu": 0.1, "a": 1.0})

    def run(self, op):
        lattice = lattice_ideal.build_lattice(3, self.SIDE, self.P_MAX)
        trunc = fockdiag.truncate_lattice(lattice, op["cutoffs"])
        model = fockdiag.DiagonalModel(a=op["a"], mu=op["mu"])
        return fockdiag.verify_sandwich(model, [trunc], op["beta"], op["nu"],
                                        volume=lattice.volume)

    def check(self, op, reports, latency):
        (rep,) = reports
        problems = []
        if not rep.chain_passed:
            problems.append("sandwich chain failed")
        if not rep.shell_weight <= self.SHELL_WEIGHT_MAX:
            problems.append(f"shell weight {rep.shell_weight:.3e} not negligible")
        return [_outcome(latency, problems)]


WORKLOADS = {w.name: w for w in (Ladder(), Sweep(), Series(), Fock())}
