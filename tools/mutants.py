"""Mutation check of the certificates: each mutant must make its tests fail.

    python3 tools/mutants.py

A mutant is one exact replacement of text in one source file, written so
that a certificate claims less error than the code makes (a bound divided,
a term dropped), a pass rule passes more, or a guarded branch is dropped.
For each, the tool copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory, applies the replacement there,
runs pytest on the mutant's test files only and prints `caught` when they
fail or `missed` when they pass (`error` if pytest could not run them).
A mutant that drops a byte guard would allocate what the guard refuses, so
each run is capped at CHILD_BYTES of address space, where such an
allocation fails at once.  The checkout itself is never written.  A text
that does not occur exactly once is reported as `stale`.  The exit code
is 0 when every mutant is caught, 1 otherwise.
"""

import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Address space of each pytest run: the tests stay below the package's 512 MiB
# allocation ceiling, plus the interpreter and its libraries.
CHILD_BYTES = 3 * 2 ** 30
LATTICE = "src/bose_limits/lattice_ideal.py"
LATTICE_TESTS = ("tests/test_lattice_ideal.py",)
MODEL = "src/bose_limits/nonlinear_model.py"
MODEL_TESTS = ("tests/test_nonlinear_model.py",)
FOCK = "src/bose_limits/fockdiag.py"
FOCK_TESTS = ("tests/test_fockdiag.py",)
SOURCE = "src/bose_limits/source_model.py"
EQUIVALENCE = "src/bose_limits/equivalence.py"
EQUIVALENCE_TESTS = ("tests/test_equivalence.py", "tests/test_cli.py")

# (name, file, old text, new text, test files that must fail)
MUTANTS = (
    ("closed-form interior bound / 10", MODEL,
     "strip = 2.0 * math.exp(", "strip = 0.2 * math.exp(", MODEL_TESTS),
    ("closed-form edge term dropped", MODEL,
     "remainder = integral * strip + t * (0.25 * slope + 0.28 * k)",
     "remainder = integral * strip", MODEL_TESTS),
    ("closed-form left side dropped", MODEL,
     "error = left + total_error", "error = total_error", MODEL_TESTS),
    ("closed-form rounding dropped", MODEL,
     "sums = (total, moment, remainder + rounding, remainder_moment + rounding_moment)",
     "sums = (total, moment, remainder, remainder_moment)", MODEL_TESTS),
    ("closed-form overflow decline dropped", MODEL,
     "    if c > _LOG_MAX:", "    if False:", MODEL_TESTS),
    ("closed-form finite-sum decline dropped", MODEL,
     "return sums if all(map(math.isfinite, sums)) else None", "return sums", MODEL_TESTS),
    ("series peak left at round(V*x*)", MODEL,
     "n_star = math.floor(peak)\n    if _exponent_offset(beta, f, n_star, n_star + 1.0, "
     "math.sqrt) > 0.0:\n        n_star += 1\n", "n_star = int(round(peak))\n", MODEL_TESTS),
    ("window left side dropped", MODEL,
     "tail = left + right", "tail = right", MODEL_TESTS),
    ("window right side dropped", MODEL,
     "tail = left + right", "tail = left", MODEL_TESTS),
    ("window occupation rounding dropped", MODEL,
     "+ half * relative + _EPS * (n_star + 2.0 * abs(offset)))", ")", MODEL_TESTS),
    ("shell weight p != 0 edge terms dropped", FOCK,
     "parts[1, c:] = np.logaddexp(parts[1, c:], at_cutoff)", "pass", FOCK_TESTS),
    ("shell weight zero-mode edge term dropped", FOCK,
     "terms = np.concatenate([(edge[:, None] * st.populations).ravel(),\n"
     "                            inner * st.populations[:, -1]])",
     "terms = (edge[:, None] * st.populations).ravel()", FOCK_TESTS),
    ("fulldiag pressure finite check dropped", FOCK,
     "    if not math.isfinite(pressure):", "    if False:", FOCK_TESTS),
    ("square-root source coefficient check dropped", FOCK,
     'require(coefficient > 0.0, "coefficient must be positive")', "pass", FOCK_TESTS),
    ("keyed guard K undercounted by one", FOCK,
     "keys = sum(primed) + 1", "keys = sum(primed)", FOCK_TESTS),
    ("configuration table guard / 3", FOCK,
     "table_bytes = 3 * trunc.dimension", "table_bytes = trunc.dimension", FOCK_TESTS),
    ("theta tail dropped", LATTICE,
     "bound = (_U * total + r + tail + underflow) / scale",
     "bound = (_U * total + r + underflow) / scale", LATTICE_TESTS),
    ("theta rounding dropped", LATTICE,
     "bound = (_U * total + r + tail + underflow) / scale",
     "bound = (_U * total + tail + underflow) / scale", LATTICE_TESTS),
    ("theta underflow allowance dropped", LATTICE,
     "bound = (_U * total + r + tail + underflow) / scale",
     "bound = (_U * total + r + tail) / scale", LATTICE_TESTS),
    ("theta byte guard dropped", LATTICE,
     "if not _J_BYTES * math.fsum(t + 2.0 for t in terms) + _J_PASS_BYTES",
     "if not _J_PASS_BYTES", LATTICE_TESTS),
    ("theta byte guard counts only the first grid", LATTICE,
     "if not _J_BYTES * math.fsum(t + 2.0 for t in terms)",
     "if not plans and not _J_BYTES * math.fsum(t + 2.0 for t in terms)", LATTICE_TESTS),
    ("every grid uses the first grid's beta", LATTICE,
     "    for beta, lattice in grids:\n",
     "    for _, lattice in grids:\n        beta = grids[0][0]\n", LATTICE_TESTS),
    ("theta pass piece shifted by one j", LATTICE,
     "at += n", "at += n - 1", LATTICE_TESTS),
    ("energy guard counts the shell tables only", LATTICE,
     "4 * (math.isqrt(kcut) + 1) + 2 * count)", "4 * (math.isqrt(kcut) + 1))",
     LATTICE_TESTS),
    ("free zero-mode occupation always 1/expm1", LATTICE,
     "return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)",
     "return 1.0 / math.expm1(x)", ("tests/test_source_model.py",)),
    ("square-root pressure bound drops the series tail", MODEL,
     "truncation_bound=primed.truncation_bound + series.tail_bound)",
     "truncation_bound=primed.truncation_bound)", MODEL_TESTS),
    ("linear pressure bound drops the p' bound", SOURCE,
     "truncation_bound=primed.truncation_bound)", "truncation_bound=0.0)",
     ("tests/test_source_model.py",)),
    ("equivalence summary drops the rung requirement", EQUIVALENCE,
     "passed=gap_ok and condensates_agree and all(rung_passed),",
     "passed=gap_ok and condensates_agree,", EQUIVALENCE_TESTS),
)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES))


def run_mutant(path, old, new, tests):
    """'caught', 'missed', 'error' or 'stale' for one replacement."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=work,
                              capture_output=True, text=True,
                              preexec_fn=_cap_address_space)
        # pytest exits 1 when tests fail; 2-5 mean it could not run them.
        return {0: "missed", 1: "caught"}.get(proc.returncode, "error")


def main():
    ok = True
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(path, old, new, tests)
        ok = ok and verdict == "caught"
        print(f"{verdict:7} {time.perf_counter() - start:6.1f} s  {name}  ({path}; "
              f"{', '.join(tests)})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
