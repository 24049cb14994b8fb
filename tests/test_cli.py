import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bose_limits

from bose_limits import cli, equivalence
from bose_limits.cli import RunConfig, emit_csv, emit_json, main, parse_config, run
from bose_limits.errors import DomainError


def strip_duration(text: str) -> str:
    """Drop the final (duration) column from CSV text."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


class TestParseConfig:
    def test_requires_command(self):
        with pytest.raises(DomainError, match="command"):
            parse_config([])

    def test_defaults(self):
        cfg = parse_config(["--command", "pressure", "--mu", "-0.5"])
        assert cfg.beta == (1.0,)
        assert cfg.dim == 3
        assert cfg.coefficient == 2.0

    def test_rejects_unstable_mu(self):
        with pytest.raises(DomainError, match="outside stability domain"):
            parse_config(["--command", "pressure", "--mu", "0.5"])

    def test_ladder_parsing(self):
        cfg = parse_config(["--command", "equivalence", "--mu", "-0.5",
                            "--ladder", "8,16,32"])
        assert cfg.ladder == (8, 16, 32)

    def test_config_file_with_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = pressure\nmu = -1.0\nbeta = 2.0  # comment\n")
        cfg = parse_config(["--config", str(path), "--beta", "0.5"])
        assert cfg.command == "pressure"
        assert cfg.mu == (-1.0,)
        assert cfg.beta == (0.5,)

    def test_unknown_key_in_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = pressure\nmu = -1.0\nbogus = 3\n")
        with pytest.raises(DomainError, match="bogus"):
            parse_config(["--config", str(path)])

    def test_malformed_number(self):
        with pytest.raises(DomainError, match="mu"):
            parse_config(["--command", "pressure", "--mu", "minus-half"])

    def test_single_value_commands_reject_lists(self):
        with pytest.raises(DomainError):
            parse_config(["--command", "pressure", "--mu", "-0.5,-1.0"])

    def test_import_loads_no_argparse(self):
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bose_limits.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("args", [
        ["--mu", "-0.5"], ["--mu=-0.5"], ["--mu", "-1,-0.5"], ["--mu=-1,-0.5"],
        ["--mu", "-1e-8"], ["--mu=-1e-8"],
    ])
    def test_negative_values_attached_or_next(self, args):
        cfg = parse_config(["--command", "sweep", *args])
        assert cfg.mu == tuple(float(v) for v in args[-1].split("=")[-1].split(","))

    def test_value_that_looks_like_a_flag_is_taken(self):
        cfg = parse_config(["--command", "pressure", "--mu", "-0.5", "--out", "--format"])
        assert cfg.out == "--format"
        assert cfg.format == "csv"

    def test_last_occurrence_wins(self):
        cfg = parse_config(["--command", "sweep", "--mu=-1", "--beta=1e-8", "--mu", "-2",
                            "--command", "pressure", "--beta", "3"])
        assert (cfg.command, cfg.mu, cfg.beta) == ("pressure", (-2.0,), (3.0,))

    @pytest.mark.parametrize("args,rest", [
        (["--be", "2"], "--be 2"),                       # no abbreviations
        (["--rel_tol", "1e-8"], "--rel_tol 1e-8"),       # dashes, not underscores
        (["-mu", "-1"], "-mu -1"),
        (["pressure"], "pressure"),
        (["--bogus", "1", "--beta", "2"], "--bogus 1 --beta 2"),
        (["--"], "--"),
    ])
    def test_unknown_tokens_are_unrecognized(self, args, rest):
        with pytest.raises(DomainError) as info:
            parse_config(["--command", "pressure", "--mu=-0.5", *args])
        assert str(info.value) == f"unrecognized arguments: {rest}"

    @pytest.mark.parametrize("flag", ["--mu", "--config", "--rel-tol"])
    def test_flag_without_value(self, flag):
        with pytest.raises(DomainError) as info:
            parse_config(["--command", "pressure", "--mu=-0.5", flag])
        assert str(info.value) == f"argument {flag}: expected one argument"

    @pytest.mark.parametrize("args", [["-h"], ["--help"], ["--command", "pressure", "--help"]])
    def test_help_prints_the_module_docstring(self, args, capsys):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert (out, err) == (cli.__doc__, "")


class TestEmit:
    def test_zero_rows_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf, ["a", "b"])
        assert buf.getvalue() == "a,b\n"

    def test_one_row_two_lines(self):
        buf = io.StringIO()
        emit_csv([{"a": 1.0, "b": True}], buf, ["a", "b"])
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1] == "1,true"

    def test_float_round_trip(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 123456.789012345678, 1e-300]
        buf = io.StringIO()
        emit_csv([{"x": v} for v in values], buf, ["x"])
        parsed = [float(line) for line in buf.getvalue().splitlines()[1:]]
        assert parsed == values

    def test_json_lines(self):
        buf = io.StringIO()
        emit_json([{"a": 0.5, "b": "x"}, {"a": 1.5, "b": "y"}], buf, ["a", "b"])
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows == [{"a": 0.5, "b": "x"}, {"a": 1.5, "b": "y"}]


class TestRun:
    def test_pressure_row(self):
        cfg = parse_config(["--command", "pressure", "--mu", "-0.5", "--nu", "0.1",
                            "--side", "8", "--pmax", "6"])
        code, rows = run(cfg)
        assert code == 0
        assert len(rows) == 1
        row = rows[0]
        assert row["identity_rel_err"] < 1e-12
        assert row["p_linear_constant"] == pytest.approx(0.02, rel=1e-14)

    def test_pressure_passed_needs_both_certificates(self, monkeypatch):
        # A coarse cutoff no longer matters: every mode enters the sum.
        cfg = parse_config(["--command", "pressure", "--mu=-0.5", "--nu", "0.1",
                            "--side", "4", "--pmax", "1"])
        code, (row,) = run(cfg)
        assert code == 0 and row["passed"]
        for model in ("linear", "sqrt"):
            assert row[f"p_{model}_bound"] <= cfg.rel_tol * abs(row[f"p_{model}_total"])

        def loose(*args, **kwargs):
            pairs = equivalence.pressure_pairs(*args, **kwargs)
            return [(point, pair._replace(sqrt=dataclasses.replace(pair.sqrt, truncation_bound=1.0)),
                     seconds) for point, pair, seconds in pairs]

        monkeypatch.setattr(cli, "pressure_pairs", loose)
        code, (row,) = run(cfg)
        assert row["identity_rel_err"] <= 1e-12
        assert code == 1 and not row["passed"]

    def test_pressure_custom_coefficient(self, capsys):
        # The closed form shares the square-root model's coefficient.
        from bose_limits.nonlinear_model import zero_mode_log_partition

        code = main(["--command", "pressure", "--mu=-0.5", "--nu", "0.1",
                     "--side", "8", "--coefficient", "3"])
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert code == 0
        assert float(row["identity_rel_err"]) <= 1e-12
        series = zero_mode_log_partition(1.0, -0.5, 0.1, 512.0, coefficient=3.0)
        assert float(row["p_sqrt_zero_mode"]) == series.numeric_log_sum

    def test_sweep_custom_coefficient(self):
        code, rows = run(parse_config(["--command", "sweep", "--mu=-1.0,-0.5",
                                       "--nu", "0.1,0.3", "--side", "6", "--pmax", "6",
                                       "--coefficient", "3"]))
        assert code == 0
        assert all(r["identity_rel_err"] <= 1e-12 for r in rows)

    def test_equivalence_rows_read_the_pass_rule(self):
        code, rows = run(parse_config(["--command", "equivalence", "--mu=-0.5", "--nu", "0.1",
                                       "--ladder", "8,16,32,64,128,256,512,1024"]))
        ladder = [r for r in rows if r["row"] == "ladder"]
        assert len(ladder) == 8 and all(r["passed"] for r in ladder)
        assert max(r["identity_rel_err"] for r in ladder) > 1e-12

    def test_equivalence_summary_needs_every_rung(self):
        # Both rungs' square-root bounds exceed rel_tol of their totals,
        # while the two-rung ladder fits no rate and the condensates agree.
        point = ["--beta=13.968387891640242", "--mu=-0.11971497378806026",
                 "--nu=1.669552852929788e-05", "--dim", "3", "--rel-tol=1.8051772081056266e-13"]
        code, rows = run(parse_config(["--command", "equivalence", *point, "--ladder", "3,5"]))
        assert [r["passed"] for r in rows] == [False, False, False]
        assert code == 1
        code, (row,) = run(parse_config(["--command", "pressure", *point, "--side", "3"]))
        assert code == 1 and not row["passed"]

    def test_equivalence_past_the_depletion_overflow(self, capsys):
        # beta*|mu| = 800: e^(-beta*mu) overflows, the linear depletion does not.
        code = main(["--command", "equivalence", "--beta", "20", "--mu=-40", "--nu", "0.1",
                     "--ladder", "8,16,32"])
        out, err = capsys.readouterr()
        assert code in (0, 1) and err == ""
        assert len(out.splitlines()) == 5

    def test_generic_side64_grid_passes(self):
        # Rounding alone puts 177 of these 1000 rows above an
        # identity_rel_err of 1e-12 (up to 3.9e-11).
        def grid(start, step):
            return ",".join(repr(round(start + step * i, 10)) for i in range(10))

        code, rows = run(parse_config(["--command", "sweep", "--beta", grid(0.5, 0.1),
                                       f"--mu={grid(-0.05, -0.1)}", "--nu", grid(0.05, 0.05),
                                       "--side", "64"]))
        assert len(rows) == 1000
        assert code == 0
        assert max(r["identity_rel_err"] for r in rows) > 1e-12

    def test_equivalence_ladder_rows_timed(self):
        code, rows = run(parse_config(["--command", "equivalence", "--mu=-0.5",
                                       "--nu", "0.1", "--ladder", "4,6,8", "--pmax", "8"]))
        ladder = [r for r in rows if r["row"] == "ladder"]
        (summary,) = [r for r in rows if r["row"] == "summary"]
        assert len(ladder) == 3
        assert all(r["duration_s"] > 0.0 for r in ladder)
        assert sum(r["duration_s"] for r in ladder) <= summary["duration_s"]

    def test_laplace_rows(self):
        cfg = parse_config(["--command", "laplace", "--mu", "-0.5", "--nu", "0.1",
                            "--dim", "1", "--ladder", "100,1000"])
        code, rows = run(cfg)
        assert code == 0
        assert [r["side"] for r in rows] == [100, 1000]
        assert all(r["gap"] <= r["gap_bound"] + r["tail_bound"] for r in rows)

    def test_laplace_out_to_volume_1e12(self):
        # The closed form certifies V = 1e8 and 1e12 from O(1) scalars.
        code, rows = run(parse_config(["--command", "laplace", "--mu", "-0.5",
                                       "--nu", "0.1", "--dim", "1",
                                       "--ladder", "100000000,1000000000000"]))
        assert code == 0
        assert [r["passed"] for r in rows] == [True, True]
        assert [r["method"] for r in rows] == ["closed_form", "closed_form"]

    def test_laplace_rows_name_their_method(self, capsys):
        assert main(["--command", "laplace", "--mu=-0.5", "--nu", "0.1", "--dim", "1",
                     "--ladder", "100,1000000", "--format", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["method"] for r in rows] == ["window", "closed_form"]
        assert all(list(r)[-1] == "duration_s" for r in rows)

    def test_laplace_nu_zero_rows_pass(self):
        # At beta*mu = -30 one term certifies, and log(1) = 0 leaves no room
        # for the exact value's e^-30/V: the geometric path's own bound does.
        code, rows = run(parse_config(["--command", "laplace", "--mu=-30", "--nu", "0",
                                       "--dim", "1", "--ladder", "2,4,8"]))
        assert code == 0
        assert [r["method"] for r in rows] == ["geometric"] * 3
        assert [r["terms_used"] for r in rows] == [1, 1, 1]
        assert all(r["passed"] for r in rows)

    def test_laplace_nu_zero_far_below_zero_passes(self):
        # e^(-beta*mu) overflows a float at beta*mu = -800; <n0> = e^-800 = 0.
        code, (row,) = run(parse_config(["--command", "laplace", "--mu=-800", "--nu", "0",
                                         "--dim", "1", "--ladder", "8"]))
        assert code == 0 and row["passed"]

    @pytest.mark.parametrize("mu", [-30.0, -0.5, -1e-6])
    @pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.0 - 1e-12])
    def test_laplace_nu_zero_moved_value_fails(self, monkeypatch, mu, factor):
        exact = cli.zero_mode_log_partition

        def moved(*args, **kwargs):
            res = exact(*args, **kwargs)
            return dataclasses.replace(res, numeric_log_sum=res.numeric_log_sum * factor)

        monkeypatch.setattr(cli, "zero_mode_log_partition", moved)
        code, rows = run(parse_config(["--command", "laplace", f"--mu={mu}", "--nu", "0",
                                       "--dim", "1", "--ladder", "8"]))
        assert code == 1
        assert [r["passed"] for r in rows] == [False]

    @pytest.mark.parametrize("beta,mu,nu,dim,side", [
        (1.0, -50.0, 19.0, 1, 10),
        (1.0, -100.0, 50.0, 1, 10),
        (1.0, -100.0, 30.0, 3, 3),
        (1.0, -300.0, 50.0, 2, 10),
        (1.0, -300.0, 75.0, 3, 3),
        (1.0, -300.0, 100.0, 1, 10),
    ])
    def test_laplace_narrow_peak_passes(self, beta, mu, nu, dim, side):
        # A peak narrower than one occupation sits below sup g by more than
        # log(terms_used)/(beta*V); its lower bound is the largest term.
        code, rows = run(parse_config(["--command", "laplace", f"--beta={beta}",
                                       f"--mu={mu}", f"--nu={nu}", "--dim", str(dim),
                                       "--ladder", str(side)]))
        assert code == 0
        (row,) = rows
        assert row["passed"] is True
        assert row["sup_value"] - row["numeric_log_sum"] > row["gap_bound"] + row["tail_bound"]

    def test_sweep_sorted_rows(self):
        cfg = parse_config(["--command", "sweep", "--mu", "-1.0,-0.5",
                            "--beta", "1.0,0.5", "--nu", "0.1", "--side", "6",
                            "--pmax", "6"])
        code, rows = run(cfg)
        assert code == 0
        keys = [(r["beta"], r["mu"], r["nu"]) for r in rows]
        assert keys == sorted(keys)

    def test_fulldiag_row(self):
        cfg = parse_config(["--command", "fulldiag", "--mu", "-0.5", "--nu", "0.1",
                            "--side", "2", "--pmax", "7", "--fock-cutoff", "20,8"])
        code, rows = run(cfg)
        assert code == 0
        assert rows[0]["passed"] is True
        assert rows[0]["lower"] <= rows[0]["delta_p"] <= rows[0]["upper"]
        # The README row, bit for bit.
        assert rows[0]["p_linear"] == float.fromhex("0x1.cb8f27bd114e8p-4")
        assert rows[0]["p_sqrt"] == float.fromhex("0x1.939a3d56d8aa4p-3")
        assert rows[0]["shell_weight"] == float.fromhex("0x1.8f2492dbdbaadp-48")
        assert rows[0]["a0_scaled"] == float.fromhex("0x1.1fa1e6ce9ee85p-3")

    @pytest.mark.parametrize("args", [["--fock-cutoff", "3,1"],
                                      ["--fock-cutoff", "20,8", "--mf-a=-5"]],
                             ids=["small-cutoff", "attractive"])
    def test_fulldiag_fails_an_uncertified_truncation(self, args):
        # The chain holds on any truncation; these put 8% and ~100% of the
        # Gibbs weight on the cutoff shell, so the truncated model is not
        # the model and the row must not pass.
        cfg = parse_config(["--command", "fulldiag", "--mu=-0.5", "--nu", "0.1",
                            "--side", "2", "--pmax", "7", *args])
        code, (row,) = run(cfg)
        assert code == 1
        assert row["passed"] is False
        assert row["shell_weight"] > cfg.rel_tol
        assert row["lower"] <= row["delta_p"] <= row["upper"]


README_OUTPUTS = Path(__file__).parent / "readme_outputs"

# The README's five commands: (flags after --command, exit code, CSV lines).
README_COMMANDS = {
    "pressure": (["--beta", "1", "--mu=-0.5", "--nu", "0.1", "--dim", "3", "--side", "16"],
                 0, 2),
    "equivalence": (["--mu=-0.5", "--nu", "0.1", "--ladder", "8,16,32,64"], 1, 6),
    "laplace": (["--mu=-0.5", "--nu", "0.1", "--dim", "1", "--ladder", "100,1000,10000"],
                0, 4),
    "fulldiag": (["--mu=-0.5", "--nu", "0.1", "--side", "2", "--pmax", "7",
                  "--fock-cutoff", "20,8"], 0, 2),
    "sweep": (["--beta", "0.5,1", "--mu=-1,-0.5", "--nu", "0.1,0.2", "--side", "8",
               "--workers", "2"], 0, 9),
}


class TestReadmeOutputs:
    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_output_is_pinned(self, command, capsys):
        # Each command's CSV, bar `duration_s`, byte for byte as pinned in
        # tests/readme_outputs; exit 1 of `equivalence` is its rate fit.
        flags, code, lines = README_COMMANDS[command]
        assert main(["--command", command, *flags]) == code
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        pinned = (README_OUTPUTS / f"{command}.csv").read_text(encoding="utf-8")
        assert strip_duration(out).splitlines() == pinned.splitlines(), (
            f"the output of `bose-limits --command {command}` moved")


class TestMainExitCodes:
    def test_wide_peak_certifies(self, capsys):
        # n* = 5.4e6 < sigma = 1e7: the window would need ~2e8 terms, past
        # its ceiling, and the closed form runs from the first term.
        assert main(["--command", "pressure", "--mu=-1.3604235088190296e-07",
                     "--beta=0.7572334913542031", "--nu=0.00017730487039401067",
                     "--dim=1", "--side=3.1822426292332526",
                     "--rel-tol=7.069928165641368e-07"]) == 0
        header, line = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), line.split(",")))["passed"] == "true"

    def test_invalid_input_exits_2(self, capsys):
        assert main(["--command", "pressure", "--mu", "0.5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "stability domain" in err["message"]

    def test_two_level_modes_need_no_configuration_table(self, tmp_path, capsys):
        # 23 two-level modes, D = 2^23, whose configuration table would take
        # ~4.6 GB: the rung solves 23 keys of order 2 instead.  It exits 1,
        # since a zero-mode cutoff of 1 leaves a heavy shell.
        out = tmp_path / "x.csv"
        code = main(["--command", "fulldiag", "--mu", "-0.5", "--nu", "0.1",
                     "--side", "2", "--pmax", "7", "--fock-cutoff", ",".join(["1"] * 23),
                     "--out", str(out)])
        assert code == 1
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["dimension"] == str(2 ** 23)
        assert row["passed"] == "false"

    def test_high_dimension_fulldiag_reads_two_shells(self, tmp_path):
        # In d = 13 both energies lie on shells 0 and 1, which is all the
        # shell counts form.  It exits 1: cutoffs (2, 1) leave a heavy shell.
        out = tmp_path / "x.csv"
        code = main(["--command", "fulldiag", "--mu=-0.5", "--nu", "0.1", "--dim", "13",
                     "--side", "2", "--fock-cutoff", "2,1", "--out", str(out)])
        assert code == 1
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert (row["dimension"], row["volume"], row["passed"]) == ("6", "8192", "false")

    def test_fulldiag_runs_27_modes(self, capsys):
        # D = 41 * 9^26 ~ 2.6e26 configurations: 209 keys of order 41.
        cfg = parse_config(["--command", "fulldiag", "--mu=-0.5", "--nu", "0.1",
                            "--side", "4", "--pmax", "7",
                            "--fock-cutoff", ",".join(["40"] + ["8"] * 26)])
        code, (row,) = run(cfg)
        assert code == (0 if row["shell_weight"] <= cfg.rel_tol else 1)
        assert row["dimension"] == 41 * 9 ** 26
        assert row["lower"] <= row["delta_p"] <= row["upper"]
        assert 0.0 < row["shell_weight"] < 1e-4

    def test_block_byte_guard_exits_3(self, tmp_path, capsys):
        # The single zero-mode block of order 20,000 needs ~9.6 GB.
        out = tmp_path / "x.csv"
        code = main(["--command", "fulldiag", "--mu=-0.5", "--nu", "0.1",
                     "--fock-cutoff", "19999", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ResourceGuardError"
        assert "block eigensolve" in err["message"]

    @pytest.mark.parametrize("args,code", [(["--side", "200"], 1),
                                           (["--side", "2", "--pmax", "1"], 2)])
    def test_fulldiag_takes_its_modes_without_the_shell_table(self, args, code):
        # Side 200 holds ~1e8 modes within the default cutoff, of which the
        # run uses 2; at side 2, p_max = 1 holds only the zero mode.  At side
        # 200, n0 ~ nu^2 V/mu^2 = 3.2e5 lies far beyond the cutoff 14, so the
        # row is computed but its shell weight (0.085) fails it.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "fulldiag", "--mu=-0.5",
             "--nu", "0.1", "--fock-cutoff", "14,6", *args],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert json.loads(proc.stderr)["error"] == "DomainError"
        else:
            header, line = proc.stdout.splitlines()
            assert dict(zip(header.split(","), line.split(",")))["passed"] == "false"

    def test_fulldiag_solves_one_block_per_primed_count(self):
        # D = 482,601: one block per configuration of the four p != 0 modes
        # (2,401 of order 201) would need ~2.3 GB; the 25 values of N' need
        # ~24 MB of block eigensolve next to ~58 MB of configuration table.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "fulldiag", "--mu=-0.5",
             "--nu", "0.1", "--side", "2", "--pmax", "7",
             "--fock-cutoff", "200,6,6,6,6"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        header, line = proc.stdout.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["dimension"] == "482601"
        assert row["passed"] == "true"

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

    def test_success_writes_file(self, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["--command", "pressure", "--mu", "-0.5", "--nu", "0.1",
                     "--side", "6", "--pmax", "6", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("command,")
        assert len(text.splitlines()) == 2

    def test_json_output(self, tmp_path):
        out = tmp_path / "row.jsonl"
        code = main(["--command", "pressure", "--mu", "-0.5", "--nu", "0.1",
                     "--side", "6", "--pmax", "6", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text().splitlines()[0])
        assert row["command"] == "pressure"


class TestFlagErrors:
    def test_key_table_is_run_config(self):
        import dataclasses

        from bose_limits import cli

        fields = {field.name for field in dataclasses.fields(RunConfig)}
        assert set(cli._CONVERTERS) == fields

    @pytest.mark.parametrize("args", [
        ["--command", "bogus", "--mu=-0.5"],
        ["--command", "pressure", "--mu=-0.5", "--format", "xml"],
        ["--command", "pressure", "--mu=-0.5", "--dim", "x"],
        ["--command", "pressure", "--mu=-0.5", "--bogus-flag", "1"],
        ["--command", "equivalence", "--mu=-0.5", "--fd-step", "1e-4"],
        ["--command", "pressure", "--mu"],
    ])
    def test_bad_flags_exit_2_with_one_json_record(self, args, capsys):
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DomainError"

    @pytest.mark.parametrize("flag,value", [
        ("--rel-tol", "nan"), ("--mu", "nan"), ("--beta", "inf"), ("--mu", "-inf"),
        ("--nu", "inf"), ("--coefficient", "inf"), ("--side", "inf"), ("--pmax", "inf"),
        ("--mf-a", "-inf"), ("--nu", "0.1,nan"),
    ])
    def test_non_finite_numbers_exit_2_at_parse(self, flag, value, capsys):
        args = ["--command", "pressure", "--mu=-0.5", "--nu", "0.1", f"{flag}={value}"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "DomainError"
        key = flag[2:].replace("-", "_")
        assert record["message"] == f"could not parse {key}={value!r}"

    def test_pressure_and_sweep_header_has_no_phi(self, capsys):
        # The pressure does not depend on the source phase, which is fixed at 0.
        header = ("command,beta,mu,nu,dim,side,volume,pmax,p_linear_zero_mode,"
                  "p_linear_primed,p_linear_constant,p_linear_total,p_linear_bound,"
                  "p_sqrt_zero_mode,p_sqrt_primed,p_sqrt_total,p_sqrt_bound,delta_p,"
                  "identity_rel_err,passed,duration_s")
        for command in ("pressure", "sweep"):
            assert main(["--command", command, "--mu=-0.5", "--nu", "0.1",
                         "--side", "4"]) == 0
            assert capsys.readouterr().out.splitlines()[0] == header
        assert main(["--command", "pressure", "--mu=-0.5", "--phi", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "unrecognized arguments: --phi 0"}

    @pytest.mark.parametrize("coefficient", ["3", "1.5"])
    def test_equivalence_refuses_coefficient_other_than_2(self, coefficient, capsys):
        args = ["--command", "equivalence", "--mu=-0.5", "--nu", "0.1",
                "--ladder", "4,6,8", "--pmax", "8"]
        assert main(args + ["--coefficient", coefficient]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "DomainError",
            "message": "equivalence compares the models at coefficient 2 only"}
        assert main(args + ["--coefficient", "2"]) in (0, 1)
        assert capsys.readouterr().out.count("\n") == 5

    def test_nan_mu_outside_stability_domain(self):
        with pytest.raises(DomainError, match="stability domain"):
            RunConfig(command="pressure", mu=(math.nan,))

    @pytest.mark.parametrize("side,error", [
        ("1e120", "ResourceGuardError"),    # the volume overflows a float
        ("1e-103", "ResourceGuardError"),   # the volume underflows a float
        ("1e-60", "NonConvergenceError"),   # p' underflows to 0 with a bound > 0
    ])
    def test_extreme_sides_exit_3_with_one_json_record(self, side, error, capsys):
        args = ["--command", "pressure", "--mu=-0.5", "--nu", "0.1", "--side", side]
        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_equivalence_near_zero_mu_has_no_step_error(self, capsys):
        # The finite-difference step used to disagree by 0.36 here.
        code = main(["--command", "equivalence", "--mu=-3e-5", "--nu", "1e-7",
                     "--ladder", "8,16,32"])
        out, err = capsys.readouterr()
        assert code in (0, 1)
        assert err == ""
        summary = dict(zip(out.splitlines()[0].split(","), out.splitlines()[-1].split(",")))
        assert summary["row"] == "summary"
        assert math.isfinite(float(summary["rho0_linear"]))
        assert math.isfinite(float(summary["rho0_sqrt"]))


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["--command", "equivalence", "--mu", "-0.5", "--nu", "0.1",
                "--ladder", "4,6,8", "--pmax", "8"]
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"eq_{tag}.csv"
            main(args + ["--out", str(out)])
            outputs.append(strip_duration(out.read_text()))
        assert outputs[0] == outputs[1]

    def test_sweep_worker_count_invariance(self, monkeypatch, tmp_path):
        # No --workers value starts a process.
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("sweep started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        base = ["--command", "sweep", "--mu", "-1.0,-0.5", "--beta", "0.5,1.0",
                "--nu", "0.1,0.2", "--side", "6", "--pmax", "6"]
        outputs = []
        for workers in ("2", "1"):
            out = tmp_path / f"sweep_{workers}.csv"
            code = main(base + ["--workers", workers, "--out", str(out)])
            assert code == 0
            outputs.append(strip_duration(out.read_text()))
        assert outputs[0] == outputs[1]


class TestSweepInOneProcess:
    """`sweep` forms the p != 0 sums of every beta in one pass, in its own process."""

    @staticmethod
    def rows_by_point(capsys, argv):
        """{(beta, mu, nu) text: the row without `command` and `duration_s`}."""
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.startswith("command,") and header.endswith(",duration_s")
        cells = [line.split(",") for line in lines]
        return {tuple(c[1:4]): c[1:-1] for c in cells}

    def test_rows_equal_the_pressure_rows(self, capsys):
        # Under one beta the three mu need different j-counts, and at
        # mu = -1e-3 the series spans over ten chunks of _J_CHUNK terms.
        from bose_limits import lattice_ideal

        step_sq = (2.0 * math.pi / 1000.0) ** 2
        for beta in (0.5, 1.0):
            log_q = beta * (-1e-3 - 0.5 * step_sq)
            terms = math.log(lattice_ideal._J_TAIL * -math.expm1(log_q)) / log_q
            assert terms > 10 * lattice_ideal._J_CHUNK
        grid = ["--beta", "0.5,1", "--mu=-1e-3,-0.05,-0.5", "--nu", "0,0.1",
                "--side", "1000"]
        sweep = self.rows_by_point(capsys, ["--command", "sweep", *grid])
        assert len(sweep) == 12
        for beta, mu, nu in sweep:
            single = self.rows_by_point(capsys, [
                "--command", "pressure", f"--beta={beta}", f"--mu={mu}", f"--nu={nu}",
                "--side", "1000"])
            assert single == {(beta, mu, nu): sweep[beta, mu, nu]}

    def test_shuffled_and_repeated_mu_give_the_same_rows(self, capsys):
        base = ["--command", "sweep", "--nu", "0.1", "--side", "1000"]
        ordered = self.rows_by_point(capsys, base + ["--mu=-1e-3,-0.05,-0.5"])
        shuffled = self.rows_by_point(capsys, base + ["--mu=-0.5,-1e-3,-0.05,-1e-3"])
        assert shuffled == ordered

    def test_rows_share_the_commands_theta_time(self, monkeypatch):
        import time

        original = equivalence._theta_series

        def slow(*args, **kwargs):
            time.sleep(0.04)
            return original(*args, **kwargs)

        monkeypatch.setattr(equivalence, "_theta_series", slow)
        code, rows = run(parse_config(["--command", "sweep", "--beta", "0.5,1",
                                       "--mu=-1,-0.5", "--nu", "0.1,0.2", "--side", "8"]))
        assert code == 0 and len(rows) == 8
        # The command's one pass slept 40 ms and has eight rows.
        assert all(row["duration_s"] >= 0.04 / 8 for row in rows)

    @pytest.mark.parametrize("grid", [
        # The README's sweep, and the benchmark's 4x4x2 grid before its jitter,
        # which only shortens the series.
        ["--beta", "0.5,1", "--mu=-1,-0.5", "--nu", "0.1,0.2", "--side", "8"],
        ["--beta", "0.5,0.8,1.2,1.8", "--mu=-0.25,-0.4,-0.6,-0.9", "--nu", "0.04,0.12",
         "--side", "32"],
    ])
    def test_grid_takes_one_theta_evaluation(self, grid, monkeypatch):
        from bose_limits import lattice_ideal

        original, sizes = lattice_ideal._theta_power_m1, []

        def counting(t, d):
            sizes.append(t.size)
            return original(t, d)

        monkeypatch.setattr(lattice_ideal, "_theta_power_m1", counting)
        code, rows = run(parse_config(["--command", "sweep", *grid, "--workers", "2"]))
        assert code == 0 and len(sizes) == 1 and sizes[0] <= lattice_ideal._J_CHUNK

    def test_later_beta_theta_refusal_precedes_zero_mode_refusal(self, capsys):
        # At side 1e87 the theta factors of beta 0.1 leave the float range,
        # while beta 1's fit and its zero-mode series peaks beyond exact
        # occupations.  Every beta's theta series comes before any zero-mode
        # series, so beta 0.1's refusal is the one reported; both exit 3.
        base = ["--command", "sweep", "--mu=-0.5", "--nu", "0.1", "--side", "1e87"]
        errors = {}
        for beta in ("1", "0.1", "1,0.1"):
            assert main([*base, "--beta", beta]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            errors[beta] = json.loads(captured.err)
        assert errors["1"]["error"] == "NonConvergenceError"
        assert "zero-mode series" in errors["1"]["message"]
        assert errors["0.1"]["error"] == "ResourceGuardError"
        assert errors["1,0.1"] == errors["0.1"]

    def test_grid_over_the_byte_ceiling_exits_3_before_allocating(self, tmp_path, capsys):
        # At side 1e4 either mu alone needs ~4.4e7 terms, 0.35 GB, under
        # the 2^29-byte ceiling; the two together are over it.
        import tracemalloc

        from bose_limits import lattice_ideal
        from bose_limits.errors import MAX_ALLOC_BYTES

        log_q = -1e-6 - 0.5 * (2.0 * math.pi / 1e4) ** 2
        terms = math.log(lattice_ideal._J_TAIL * -math.expm1(log_q)) / log_q
        assert 8 * (terms + 2) + lattice_ideal._J_PASS_BYTES \
            < MAX_ALLOC_BYTES < 2 * 8 * terms
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = main(["--command", "sweep", "--mu=-1e-6,-1.1e-6", "--nu", "0.1",
                         "--side", "1e4", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ResourceGuardError"
        assert "theta series" in record["message"] and "1 more mu" in record["message"]
        assert peak < 2 ** 20


FULLDIAG = ["--side", "2", "--pmax", "7", "--fock-cutoff"]

# Draws over the documented domain (mu < 0) for every command: beta 1e-3 to
# 1e12, -mu 1e-9 to 1e4, nu = 0 and 1e-8 to 1e4, d = 1 to 4.  The last rows
# reproduce overflows that used to end in tracebacks or non-finite rows.
DOMAIN_SAMPLE = [
    ["pressure", "--beta=0.01", "--mu=-0.00024", "--nu=2.1e-07", "--dim", "1", "--side", "33"],
    ["pressure", "--beta=2e6", "--mu=-0.39", "--nu=1.8", "--dim", "2", "--side", "33"],
    ["pressure", "--beta=6.4e9", "--mu=-1800", "--nu=0", "--side", "8"],
    ["pressure", "--beta=4.5", "--mu=-2.6e-05", "--nu=0.059", "--dim", "4", "--side", "2"],
    ["pressure", "--beta=1.2e11", "--mu=-6.6e-09", "--nu=6.7e-08", "--dim", "4", "--side", "2"],
    ["pressure", "--beta=4.7", "--mu=-6.3", "--nu=5.8e-06", "--side", "2"],
    ["pressure", "--beta=0.3", "--mu=-1e4", "--nu=1e4", "--dim", "2", "--side", "3"],
    ["equivalence", "--beta=47000", "--mu=-4.4e-09", "--nu=3.4e-08", "--dim", "2",
     "--ladder", "8,10,100"],
    ["equivalence", "--beta=1.2", "--mu=-10", "--nu=6.1e-08", "--ladder", "10,32,100"],
    ["equivalence", "--beta=3.1e5", "--mu=-4500", "--nu=2500", "--dim", "2",
     "--ladder", "32,100,1000"],
    ["equivalence", "--beta=2.7e9", "--mu=-0.26", "--nu=0", "--dim", "4", "--ladder", "8,10,100"],
    ["equivalence", "--beta=18", "--mu=-0.98", "--nu=0.15", "--dim", "4", "--ladder", "4,8,32"],
    ["equivalence", "--beta=1.1e7", "--mu=-6.9e-05", "--nu=370", "--dim", "1",
     "--ladder", "4,32,100"],
    ["laplace", "--beta=6600", "--mu=-3.9e-09", "--nu=0.036", "--ladder", "8,10,32"],
    ["laplace", "--beta=6.5e9", "--mu=-91", "--nu=0.0051", "--dim", "1", "--ladder", "10,16,1000"],
    ["laplace", "--beta=0.41", "--mu=-2.6e-06", "--nu=0", "--dim", "2", "--ladder", "4,16,32"],
    ["laplace", "--beta=1.9e7", "--mu=-0.06", "--nu=0.45", "--dim", "4", "--ladder", "4,16,1000"],
    ["laplace", "--beta=1.2e6", "--mu=-1.1e-05", "--nu=0.00019", "--dim", "4", "--ladder", "4,8,100"],
    ["laplace", "--beta=8.5", "--mu=-4.3e-06", "--nu=1.6e-07", "--dim", "2", "--ladder", "10,32,100"],
    ["fulldiag", "--beta=4e5", "--mu=-0.00016", "--nu=0", *FULLDIAG, "9,6"],
    ["fulldiag", "--beta=3600", "--mu=-0.09", "--nu=2.1", *FULLDIAG, "17,4"],
    ["fulldiag", "--beta=2e11", "--mu=-10", "--nu=6.7e-06", *FULLDIAG, "3,6"],
    ["fulldiag", "--beta=6.9", "--mu=-890", "--nu=3400", *FULLDIAG, "18,6"],
    ["fulldiag", "--beta=380", "--mu=-1.3e-09", "--nu=1.3e-08", *FULLDIAG, "14,6"],
    ["fulldiag", "--beta=0.0012", "--mu=-0.0003", "--nu=0.02", *FULLDIAG, "20,8"],
    ["sweep", "--beta=0.12,3.9e8", "--mu=-0.00032,-3.1e-06", "--nu=0.00033,0.00061",
     "--dim", "1", "--side", "33"],
    ["sweep", "--beta=11,0.0022", "--mu=-880,-740", "--nu=1.9,1.4e-08", "--dim", "2", "--side", "2"],
    ["sweep", "--beta=5.3e7,0.023", "--mu=-0.0026,-0.57", "--nu=0.003,7.2e-08", "--side", "5"],
    ["sweep", "--beta=0.1,8800", "--mu=-0.44,-130", "--nu=16,3.6e-07", "--dim", "4", "--side", "16"],
    ["sweep", "--beta=5.8e7,0.0015", "--mu=-0.14,-4.8e-06", "--nu=19,1200", "--dim", "4",
     "--side", "16"],
    ["pressure", "--beta", "1e6", "--mu=-0.5", "--nu", "0.1", "--side", "8"],
    ["equivalence", "--beta", "1e10", "--mu=-0.5", "--nu", "0.1", "--ladder", "8,16,32"],
    ["laplace", "--beta", "1e200", "--mu=-0.5", "--nu", "0.1", "--ladder", "10,100"],
    ["pressure", "--beta=2e10", "--mu=-1475.1879986828694", "--nu=10.898417168233982",
     "--side", "40"],
    ["fulldiag", "--beta=1e-320", "--mu=-0.5", "--nu", "0.1", *FULLDIAG, "6,2"],
    ["fulldiag", "--coefficient", "0", "--mu=-0.5", "--nu", "0.1", *FULLDIAG, "6,2"],
]


def run_quietly(args, capsys):
    """(exit code, stdout, stderr) of main(args), with warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestDomainSample:
    @pytest.mark.parametrize("args", DOMAIN_SAMPLE, ids=lambda args: " ".join(args))
    def test_exits_with_finite_rows_or_one_record(self, args, capsys):
        code, out, err = run_quietly(["--command", *args], capsys)
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert out == ""
            (line,) = err.splitlines()
            assert json.loads(line)["error"]
            return
        assert err == ""
        header, *lines = (line.split(",") for line in out.splitlines())
        assert lines
        for line in lines:
            row = dict(zip(header, line))
            assert row["passed"] in ("true", "false")
            assert code == 1 or row["passed"] == "true"
            for key, value in row.items():
                if value and key not in ("command", "row", "method", "passed", "cutoffs"):
                    assert math.isfinite(float(value)), (key, value)

    @pytest.mark.parametrize("args", [
        ["pressure", "--beta", "1e6", "--mu=-0.5", "--nu", "0.1", "--side", "8"],
        ["equivalence", "--beta", "1e10", "--mu=-0.5", "--nu", "0.1", "--ladder", "8,16,32"],
        ["laplace", "--beta", "1e200", "--mu=-0.5", "--nu", "0.1", "--ladder", "10,100"],
    ])
    def test_closed_form_overflow_is_served_by_the_window(self, args, capsys):
        # The closed form's e^(a*delta^2) overflows here; it declines and
        # the window certifies the rows.
        code, out, err = run_quietly(["--command", *args], capsys)
        assert (code, err) == (0, "")
        header, *lines = (line.split(",") for line in out.splitlines())
        assert all(dict(zip(header, line))["passed"] == "true" for line in lines)
        if args[0] == "laplace":
            assert {dict(zip(header, line))["method"] for line in lines} == {"window"}

    def test_fulldiag_pressure_overflow_exits_3(self, capsys):
        # log Z/(beta*V) overflows at beta = 1e-320: nothing is left to certify.
        code, out, err = run_quietly(["--command", "fulldiag", "--beta=1e-320", "--mu=-0.5",
                                      "--nu", "0.1", *FULLDIAG, "6,2"], capsys)
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "NonConvergenceError"
        assert "not finite" in record["message"]

    @pytest.mark.parametrize("command,args", [
        ("fulldiag", FULLDIAG + ["6,2"]), ("pressure", ["--side", "4"]),
        ("laplace", ["--ladder", "10"]), ("sweep", ["--side", "4"]),
    ])
    @pytest.mark.parametrize("coefficient", ["0", "-1"])
    def test_nonpositive_coefficient_exits_2(self, command, args, coefficient, capsys):
        code, out, err = run_quietly(["--command", command, "--mu=-0.5", "--nu", "0.1",
                                      "--coefficient", coefficient, *args], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "coefficient must be positive"}


class TestModuleEntryPoint:
    def test_package_does_not_import_cli(self):
        assert "cli" not in bose_limits.__all__
        from bose_limits import cli
        assert cli.main is main

    def test_python_m_runs_without_warnings(self):
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bose_limits.cli", "--command",
             "pressure", "--mu=-0.5", "--nu", "0.1", "--side", "6", "--pmax", "6"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("command,")

    def test_fugacity_rounding_to_one_exits_cleanly(self):
        # exp(beta*mu) rounds to 1 at mu = -1e-300; the closed forms use
        # expm1, so the run ends with a row or a JSON error, never a traceback.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "pressure",
             "--mu=-1e-300", "--side", "4", "--pmax", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            row = proc.stdout.splitlines()[1].split(",")
            assert all(math.isfinite(float(v)) for v in row[9:13])
        else:
            assert json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("args", [["--mu=-1e-310"], ["--mu=-1e-300", "--nu", "0.1"]])
    def test_tiny_mu_exits_with_finite_row_or_json_error(self, args):
        # Subnormal mu (the nu = 0 term count) and mu = -1e-300 with nu > 0
        # (a peak occupation beyond float range) used to end in tracebacks.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "pressure",
             *args, "--side", "4", "--pmax", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            header, row = (line.split(",") for line in proc.stdout.splitlines())
            values = dict(zip(header, row))
            assert all(math.isfinite(float(values[key])) for key in header
                       if key.startswith(("p_", "delta_p", "identity")))
        else:
            assert json.loads(proc.stderr)["error"] == "NonConvergenceError"

    @pytest.mark.parametrize("command,args", [
        ("laplace", ["--ladder", "1" + "0" * 110]),
        ("laplace", ["--dim", "1", "--ladder", "1" + "0" * 400]),
        ("laplace", ["--dim", "400", "--ladder", "100000"]),
        ("pressure", ["--dim", "400", "--side", "100000"]),
        ("equivalence", ["--dim", "400", "--ladder", "99999,100000"]),
        ("equivalence", ["--dim", "1", "--ladder", "1" + "0" * 400]),
    ])
    def test_volume_beyond_float_range_exits_3(self, command, args, capsys):
        # build_lattice guards side**dim for every command alike, with one
        # JSON record on stderr, even for a side no float holds.
        assert main(["--command", command, "--mu=-0.5", "--nu", "0.1", *args]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ResourceGuardError"

    @pytest.mark.parametrize("command", ["laplace", "pressure"])
    def test_nonpositive_pmax_exits_2(self, command, capsys):
        assert main(["--command", command, "--mu=-0.5", "--nu", "0.1", "--pmax", "0"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"

    @pytest.mark.parametrize("command,ladder", [
        ("laplace", "-5"), ("laplace", "10,0"), ("equivalence", "8,-16,32"),
    ])
    def test_nonpositive_ladder_sides_exit_2(self, command, ladder):
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", command,
             "--mu=-0.5", "--nu", "0.1", "--dim", "2", f"--ladder={ladder}"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainError"
        assert "ladder" in record["message"]

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dim_below_one_exits_2(self, dim):
        # The config itself refuses d < 1, before any lattice is built.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "laplace",
             "--mu=-0.5", "--nu", "0.1", f"--dim={dim}", "--ladder", "10,100"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainError"
        assert "dim" in record["message"]

    @pytest.mark.parametrize("command,args", [
        ("laplace", ["--dim", "1", "--ladder", "10"]),
        ("pressure", ["--side", "4", "--pmax", "2"]),
    ])
    def test_underflowed_beta_mu_exits_3(self, command, args):
        # beta*mu = 0.5 * -5e-324 rounds to -0, where log(1 - e^(beta*mu))
        # has nothing left to form.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", command,
             "--mu=-5e-324", "--beta", "0.5", "--nu", "0", *args],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == "NonConvergenceError"
        assert "underflows" in record["message"]

    def test_underflowed_pressures_exit_3(self, capsys):
        # At mu = -800 and nu = 0 both pressures round to 0, so no bound can
        # be rel_tol of them: no relative certificate, not a failed check.
        assert main(["--command", "pressure", "--mu=-800", "--nu", "0",
                     "--side", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "NonConvergenceError"
        assert "underflow" in record["message"]

    def test_overlong_theta_series_exits_3(self):
        # mu -> 0- on a side of 1e6 would need ~3e12 theta-series terms.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bose_limits.cli", "--command", "pressure",
             "--mu=-1e-300", "--side", "1e6"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "ResourceGuardError"

    def test_pressure_run_leaves_the_bernoulli_table_unbuilt(self):
        # The exact-fraction Bernoulli table serves polylog's zeta only,
        # which no pressure row reaches: it is built on first use.
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os; from bose_limits import cli, lattice_ideal; "
             "code = cli.main(['--command', 'pressure', '--mu=-0.5', '--nu', '0.1', "
             "'--out', os.devnull]); "
             "print(code, lattice_ideal._bernoulli_even_coefficients.cache_info().misses)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(bose_limits.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bose_limits; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
