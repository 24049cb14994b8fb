"""Command line interface: parameter parsing, harness dispatch, reporting.

Commands
--------
pressure     both model pressures with breakdowns and bounds at one point
equivalence  pressure-gap ladder, rate fit, condensate comparison
laplace      zero-mode series against its Laplace-principle supremum
fulldiag     exact-diagonalization sandwich for a mean-field diagonal model
sweep        pressure rows over a (beta, mu, nu) grid, sharing each beta's p != 0 sums

Exit codes: 0 all checks passed, 1 checks ran but failed, 2 invalid input,
3 non-convergence or resource guard.  Output is CSV (default) or JSON
lines; floats are printed with 17 significant digits so they round-trip
exactly, and the wall-clock duration is segregated into the final column
so byte-level comparisons can drop it.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .equivalence import pressure_pairs, verify_equivalence
from .errors import (BoseLimitsError, DomainError, NonConvergenceError,
                     ResourceGuardError)
from .fockdiag import DiagonalModel, truncate_lattice, verify_sandwich
from .lattice_ideal import _free_zero_pressure, _require_stable, build_lattice
from .nonlinear_model import ExponentFunction, exponent_eval, zero_mode_log_partition

__all__ = ["RunConfig", "parse_config", "run", "emit_csv", "emit_json", "main"]

COMMANDS = ("pressure", "equivalence", "laplace", "fulldiag", "sweep")

_COLUMNS = {
    "pressure": [
        "command", "beta", "mu", "nu", "dim", "side", "volume", "pmax",
        "p_linear_zero_mode", "p_linear_primed", "p_linear_constant",
        "p_linear_total", "p_linear_bound",
        "p_sqrt_zero_mode", "p_sqrt_primed", "p_sqrt_total", "p_sqrt_bound",
        "delta_p", "identity_rel_err", "passed", "duration_s",
    ],
    "equivalence": [
        "command", "row", "beta", "mu", "nu", "dim", "side", "volume",
        "delta_p", "identity_rel_err", "fitted_rate", "fit_residual",
        "rho0_linear", "rho0_sqrt", "rho0_diff", "passed", "duration_s",
    ],
    "laplace": [
        "command", "beta", "mu", "nu", "dim", "side", "volume", "maximizer",
        "sup_value", "numeric_log_sum", "gap", "gap_bound", "terms_used",
        "tail_bound", "method", "passed", "duration_s",
    ],
    "fulldiag": [
        "command", "beta", "mu", "nu", "mf_a", "coefficient", "cutoffs",
        "dimension", "volume", "p_linear", "p_sqrt", "delta_p", "lower",
        "upper", "jensen_upper", "lower_margin", "upper_margin", "a0_scaled",
        "sqrt_rho0", "shell_weight", "passed", "duration_s",
    ],
}
_COLUMNS["sweep"] = _COLUMNS["pressure"]


@dataclass
class RunConfig:
    """Validated inputs of one CLI run."""

    command: str
    beta: tuple = (1.0,)
    mu: tuple = ()
    nu: tuple = (0.0,)
    dim: int = 3
    side: float = 16.0
    ladder: tuple = (8, 16, 32, 64)
    pmax: float = 10.0
    fock_cutoff: tuple = (20,)
    coefficient: float = 2.0
    mf_a: float = 1.0
    rel_tol: float = 1e-10
    workers: int = 1        # validated, no effect: sweep runs in one process
    out: str = "-"
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if not self.mu:
            raise DomainError("mu is required")
        for m in self.mu:
            _require_stable(m)
        for b in self.beta:
            if b <= 0.0:
                raise DomainError("beta must be positive")
        for n in self.nu:
            if n < 0.0:
                raise DomainError("nu must be nonnegative")
        if self.command != "sweep" and (len(self.beta), len(self.mu), len(self.nu)) != (1, 1, 1):
            raise DomainError(f"command {self.command} takes single beta/mu/nu values")
        if self.command == "equivalence" and self.coefficient != 2.0:
            # Its ladder and condensate checks hold the two models at c = 2.
            raise DomainError("equivalence compares the models at coefficient 2 only")
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.rel_tol <= 0.0:
            raise DomainError("rel_tol must be positive")
        if not self.ladder:
            raise DomainError("ladder must not be empty")
        if min(self.ladder) <= 0:
            raise DomainError("ladder sides must be positive")
        if self.format not in ("csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (tok.strip() for tok in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _list_of(convert):
    return lambda text: tuple(convert(tok) for tok in text.split(",") if tok.strip())


# Converter of each configuration key, applied to the string a flag or a
# config-file line gives; the keys are RunConfig's fields.  Floats are finite.
_CONVERTERS = {
    "command": str, "beta": _list_of(_finite), "mu": _list_of(_finite),
    "nu": _list_of(_finite), "dim": int, "side": _finite,
    "ladder": _list_of(int), "pmax": _finite, "fock_cutoff": _list_of(int),
    "coefficient": _finite, "mf_a": _finite, "rel_tol": _finite, "workers": int,
    "out": str, "format": str,
}
_FLAGS = ("--config",) + tuple("--" + key.replace("_", "-") for key in _CONVERTERS)


def _attach_values(argv):
    """Join each flag with its value ('--mu=-0.5,-1').

    Every flag here takes exactly one value; attaching it keeps argparse
    from mistaking negative numbers or comma lists for option names.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# Built once: building it costs more than a parse, and parsing leaves it unchanged.
_PARSER = argparse.ArgumentParser(prog="bose-limits", exit_on_error=False)
for _flag in _FLAGS:
    _PARSER.add_argument(_flag)


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Build a RunConfig from flags, with optional --config file underlay.

    Flags take precedence over config-file entries; validation failures,
    unknown flags and unparsable values raise DomainError naming the
    offending key.
    """
    try:
        ns, extra = _PARSER.parse_known_args(_attach_values(argv))
    except argparse.ArgumentError as exc:
        raise DomainError(str(exc)) from exc
    if extra:
        raise DomainError(f"unrecognized arguments: {' '.join(extra)}")

    merged = _read_config_file(ns.config) if ns.config is not None else {}
    merged.update((key, value) for key, value in vars(ns).items()
                  if key != "config" and value is not None)

    if "command" not in merged:
        raise DomainError("--command is required")

    kwargs = {}
    for key, value in merged.items():
        if key not in _CONVERTERS:
            raise DomainError(f"unknown configuration key {key!r}")
        try:
            kwargs[key] = _CONVERTERS[key](value)
        except ValueError as exc:
            raise DomainError(f"could not parse {key}={value!r}") from exc
    return RunConfig(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return "" if value is None else str(value)


def emit_csv(rows: Sequence[dict], stream, columns: Sequence[str]) -> None:
    """Header plus one line per row; 17 significant digits, stable order."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def emit_json(rows: Sequence[dict], stream, columns: Sequence[str]) -> None:
    """One JSON object per line, keys identical to the CSV header."""
    for row in rows:
        obj = {col: row.get(col) for col in columns}
        for key, value in obj.items():
            if isinstance(value, tuple):
                obj[key] = ";".join(str(v) for v in value)
        stream.write(json.dumps(obj) + "\n")


def _run_pressure(cfg: RunConfig) -> tuple:
    """Pressure rows over the (beta, mu, nu) grid (one point for `pressure`), in-process.

    One `pressure_pairs` pass per beta; `duration_s` is each pair's seconds.
    """
    rows = []
    for beta in cfg.beta:
        lattice = build_lattice(cfg.dim, cfg.side, cfg.pmax)
        for point, pair, seconds in pressure_pairs(beta, (lattice,), cfg.mu, cfg.nu,
                                                   cfg.rel_tol, cfg.coefficient):
            p_lin, p_sqrt = pair.linear, pair.sqrt
            rows.append({
                "command": cfg.command, "beta": beta, "mu": point.mu, "nu": point.nu,
                "dim": cfg.dim, "side": cfg.side, "volume": point.volume, "pmax": cfg.pmax,
                "p_linear_zero_mode": p_lin.zero_mode, "p_linear_primed": p_lin.primed,
                "p_linear_constant": p_lin.constant, "p_linear_total": p_lin.total,
                "p_linear_bound": p_lin.truncation_bound,
                "p_sqrt_zero_mode": p_sqrt.zero_mode, "p_sqrt_primed": p_sqrt.primed,
                "p_sqrt_total": p_sqrt.total, "p_sqrt_bound": p_sqrt.truncation_bound,
                "delta_p": pair.delta, "identity_rel_err": pair.identity_rel_err,
                "passed": pair.passed(cfg.rel_tol), "duration_s": seconds,
            })
    # Rows are emitted sorted by (beta, mu, nu), never in grid order.
    rows.sort(key=lambda r: (r["beta"], r["mu"], r["nu"]))
    code = 0 if all(r["passed"] for r in rows) else 1
    return code, rows


def _run_equivalence(cfg: RunConfig) -> tuple:
    start = time.perf_counter()
    beta, mu, nu = cfg.beta[0], cfg.mu[0], cfg.nu[0]
    result = verify_equivalence(beta, mu, nu, cfg.dim, cfg.ladder,
                                p_max=cfg.pmax, rel_tol=cfg.rel_tol)
    rows = []
    for i, side in enumerate(result.ladder.sides):
        rows.append({
            "command": cfg.command, "row": "ladder", "beta": beta, "mu": mu,
            "nu": nu, "dim": cfg.dim, "side": side,
            "volume": float(side) ** cfg.dim,
            "delta_p": result.ladder.values[i],
            "identity_rel_err": result.identity_rel_errors[i],
            "passed": result.rung_passed[i],
            "duration_s": result.rung_durations[i],
        })
    rows.append({
        "command": cfg.command, "row": "summary", "beta": beta, "mu": mu,
        "nu": nu, "dim": cfg.dim,
        "fitted_rate": result.ladder.fitted_rate,
        "fit_residual": result.ladder.fit_residual,
        "rho0_linear": result.density_linear.rho_0,
        "rho0_sqrt": result.density_sqrt.rho_0,
        "rho0_diff": result.density_linear.rho_0 - result.density_sqrt.rho_0,
        "passed": result.passed, "duration_s": time.perf_counter() - start,
    })
    return (0 if result.passed else 1), rows


def _run_laplace(cfg: RunConfig) -> tuple:
    beta, mu, nu = cfg.beta[0], cfg.mu[0], cfg.nu[0]
    rows = []
    all_ok = True
    for side in cfg.ladder:
        start = time.perf_counter()
        try:
            volume = float(side) ** cfg.dim
        except OverflowError as exc:
            raise DomainError(f"volume side**{cfg.dim} overflows a float at a side of "
                              f"{len(str(side))} digits") from exc
        res = zero_mode_log_partition(beta, mu, nu, volume, rel_tol=cfg.rel_tol,
                                      coefficient=cfg.coefficient)
        f = ExponentFunction(mu=mu, nu=nu, volume=volume, coefficient=cfg.coefficient)
        # The sum is at least its largest term and at most terms_used times
        # e^(beta*V*sup); by concavity the largest term sits next to V*x*.
        # A geometric series (nu = 0) has sup 0 and the free zero mode's
        # exact log-sum, formed apart from it, bounds it from both sides.
        peak = volume * res.maximizer
        lower = max(exponent_eval(f, n / volume)
                    for n in {math.floor(peak), math.ceil(peak)})
        gap_bound = math.log(res.terms_used) / (beta * volume)
        if res.method == "geometric":
            gap_bound = _free_zero_pressure(beta, mu, volume)
            lower = res.sup_value + gap_bound
        ok = (lower - res.tail_bound <= res.numeric_log_sum
              <= res.sup_value + gap_bound + res.tail_bound)
        all_ok = all_ok and ok
        rows.append({
            "command": cfg.command, "beta": beta, "mu": mu, "nu": nu,
            "dim": cfg.dim, "side": side, "volume": volume,
            "maximizer": res.maximizer, "sup_value": res.sup_value,
            "numeric_log_sum": res.numeric_log_sum, "gap": res.gap,
            "gap_bound": gap_bound, "terms_used": res.terms_used,
            "tail_bound": res.tail_bound, "method": res.method, "passed": ok,
            "duration_s": time.perf_counter() - start,
        })
    return (0 if all_ok else 1), rows


def _run_fulldiag(cfg: RunConfig) -> tuple:
    start = time.perf_counter()
    beta, mu, nu = cfg.beta[0], cfg.mu[0], cfg.nu[0]
    lattice = build_lattice(cfg.dim, cfg.side, cfg.pmax)
    trunc = truncate_lattice(lattice, cfg.fock_cutoff)
    model = DiagonalModel(a=cfg.mf_a, mu=mu)
    volume = lattice.volume
    reports = verify_sandwich(model, [trunc], beta, nu, volume=volume,
                              coefficient=cfg.coefficient)
    rows = []
    all_ok = True
    for rep in reports:
        # The chain certifies the truncated model; the truncation itself is
        # certified only when the cutoff shell carries at most rel_tol.
        passed = rep.chain_passed and rep.shell_weight <= cfg.rel_tol
        all_ok = all_ok and passed
        rows.append({
            "command": cfg.command, "beta": beta, "mu": mu, "nu": nu,
            "mf_a": cfg.mf_a, "coefficient": cfg.coefficient,
            "cutoffs": rep.cutoffs, "dimension": rep.dimension,
            "volume": rep.volume, "p_linear": rep.pressure_linear,
            "p_sqrt": rep.pressure_sqrt, "delta_p": rep.delta_p,
            "lower": rep.chain_lower, "upper": rep.chain_upper,
            "jensen_upper": rep.jensen_upper,
            "lower_margin": rep.inequality.lower_margin,
            "upper_margin": rep.inequality.upper_margin,
            "a0_scaled": rep.linear_averages.a0_scaled,
            "sqrt_rho0": rep.linear_averages.sqrt_density,
            "shell_weight": rep.shell_weight, "passed": passed,
            "duration_s": time.perf_counter() - start,
        })
    return (0 if all_ok else 1), rows


_RUNNERS = {
    "pressure": _run_pressure,
    "equivalence": _run_equivalence,
    "laplace": _run_laplace,
    "fulldiag": _run_fulldiag,
    "sweep": _run_pressure,
}


def run(config: RunConfig) -> tuple:
    """Dispatch a validated config; returns (exit_code, rows)."""
    return _RUNNERS[config.command](config)


def _write_rows(config: RunConfig, rows: Sequence[dict]) -> None:
    columns = _COLUMNS[config.command]
    emit = emit_csv if config.format == "csv" else emit_json
    if config.out == "-":
        emit(rows, sys.stdout, columns)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            emit(rows, fh, columns)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        code, rows = run(config)
        _write_rows(config, rows)
        return code
    except (BoseLimitsError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, (NonConvergenceError, ResourceGuardError)) else 2


if __name__ == "__main__":
    sys.exit(main())
