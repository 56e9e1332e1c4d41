"""Command-line surface: formats, exit codes, determinism, config files."""
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracrates import cli


def run_cli(argv):
    return cli.main(argv)


def strict_json(text):
    """Parse JSON, refusing the NaN/Infinity extensions."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestRate:
    def test_ground_inertial_total_zero(self, capsys):
        code = run_cli(
            ["rate", "--omega0", "1", "--accel", "0", "--coupling", "1",
             "--state", "ground", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_total"] == 0.0

    def test_excited_inertial_value(self, capsys):
        code = run_cli(
            ["rate", "--omega0", "1", "--accel", "0", "--coupling", "1",
             "--state", "excited", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_total"] == pytest.approx(-1 / (240 * math.pi**3))

    def test_unruh_temperature_json(self, capsys):
        run_cli(
            ["rate", "--omega0", "1", "--accel", "6.2832", "--coupling", "1",
             "--state", "ground", "--format", "json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["effective_temperature"] == pytest.approx(1.0, rel=1e-4, abs=0)

    def test_json_csv_agree(self, capsys):
        args = ["rate", "--omega0", "1.5", "--accel", "2", "--state", "excited"]
        run_cli(args + ["--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        run_cli(args + ["--format", "csv"])
        header, row = capsys.readouterr().out.strip().splitlines()
        as_csv = dict(zip(header.split(","), row.split(",")))
        for key in ("rate_vf", "rate_cross", "rate_total", "poly_factor"):
            assert float(as_csv[key]) == as_json[key]

    def test_si_accel_flag(self, capsys):
        run_cli(
            ["rate", "--omega0", "1e16", "--si-accel", "3e24",
             "--state", "ground", "--format", "json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["accel"] == pytest.approx(3e24 / 2.99792458e8)

    def test_radiation_reaction_annotation(self, capsys):
        run_cli(["rate", "--accel", "1", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert out["radiation_reaction"] == 0.0
        assert "mu^3" in out["radiation_reaction_note"]

    def test_beyond_expm1_range(self, capsys):
        code = run_cli(["rate", "--accel", "0.0086", "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["planck_n"] == math.exp(-2 * math.pi / 0.0086) > 0

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["rate", "--omega0", "not-a-number"])
        assert err.value.code == 2

    def test_invalid_value_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["rate", "--omega0", "-1"])
        assert err.value.code == 2


class TestSweep:
    def test_inertial_first_row(self, capsys):
        code = run_cli(
            ["sweep", "--omega0", "1", "--accel-min", "0", "--accel-max", "1",
             "--points", "2", "--state", "ground"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.0  # rate_total

    def test_monotone_ground_totals(self, capsys):
        run_cli(
            ["sweep", "--omega0", "1", "--accel-min", "0.1", "--accel-max", "20",
             "--points", "40", "--state", "ground"]
        )
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        totals = [float(r.split(",")[3]) for r in rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_log_sweep_quartic_dominance(self, capsys):
        run_cli(
            ["sweep", "--omega0", "1", "--accel-min", "0.1", "--accel-max", "100",
             "--points", "10", "--scale", "log", "--state", "ground"]
        )
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        a, total, planck_n = float(last[0]), float(last[3]), float(last[5])
        quartic_only = (
            (1 / (60 * math.pi**3)) * 0.25 * (4 * a**4) * planck_n
        )
        assert total / quartic_only == pytest.approx(1.0, rel=0.01, abs=0)

    def test_deterministic_output_file(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = run_cli(
                ["sweep", "--omega0", "2", "--accel-min", "0", "--accel-max", "5",
                 "--points", "20", "--state", "excited", "--output", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_crosses_expm1_band(self, capsys):
        # 2 pi omega0 / a runs through expm1's overflow (709.78, 745].
        code = run_cli(
            ["sweep", "--omega0", "1", "--accel-min", "0", "--accel-max", "0.009",
             "--points", "2001"]
        )
        assert code == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 2000
        band = [r for r in rows if 709.78 < 2 * math.pi / float(r[0]) <= 745]
        assert len(band) > 50
        for r in band:
            assert float(r[5]) == math.exp(-2 * math.pi / float(r[0])) > 0

    @pytest.mark.parametrize("state", ["ground", "excited"])
    @pytest.mark.parametrize(
        "grid",
        [["--accel-min", "0", "--accel-max", "30"],
         ["--accel-min", "0.01", "--accel-max", "1e6", "--scale", "log"]],
    )
    def test_row_matches_rate_csv(self, grid, state, capsys):
        # Both commands build their numbers in one place; the sweep's %.17g
        # template must print them as `rate` does.
        common = ["--omega0", "3.7", "--coupling", "0.3", "--state", state]
        run_cli(["sweep", "--points", "7"] + grid + common)
        rows = capsys.readouterr().out.splitlines()[1:]
        keys = ["accel", "rate_vf", "rate_cross", "rate_total", "poly_factor",
                "planck_n", "effective_temperature"]
        for row in rows:
            fields = row.split(",")
            run_cli(["rate", "--accel", fields[0], "--format", "csv"] + common)
            header, line = capsys.readouterr().out.splitlines()
            as_rate = dict(zip(header.split(","), line.split(",")))
            assert [as_rate[k] for k in keys] == fields

    def test_error_leaves_no_output(self, tmp_path):
        # The rates overflow part-way through the grid.
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(
                ["sweep", "--accel-min", "0", "--accel-max", "1e3", "--points", "5",
                 "--coupling", "1e150", "--output", str(out)]
            )
        assert err.value.code == 2
        assert not out.exists()

    def test_io_failure_exit_1(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--accel-min", "0", "--accel-max", "1", "--points", "2",
             "--output", str(tmp_path / "missing" / "out.csv")]
        )
        assert code == 1

    def test_missing_range_is_usage_error(self):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--accel-min", "0", "--points", "2"])


class TestVerify:
    def test_single_point_pass(self, capsys):
        code = run_cli(
            ["verify", "--omega0", "1", "--accel", "1", "--state", "ground",
             "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        entry = report["entries"][0]
        for key in (
            "accel", "state", "numeric_vf", "closed_vf", "numeric_cross",
            "closed_cross", "rel_err_vf", "rel_err_cross", "quadrature",
            "passed",
        ):
            assert key in entry

    @pytest.mark.parametrize(
        "omega0, accel",
        [("1e40", "1e46"), ("1", "1e55"), ("1", "1e61"), ("1", "2.9e62")],
    )
    def test_rates_beyond_a6_range(self, omega0, accel, capsys):
        # a^6 omega0 (~1e316 to ~1e375) is out of double range, the rates
        # (~1e266 to ~1.75e308, the largest a whose rates are finite) are not.
        code = run_cli(
            ["verify", "--omega0", omega0, "--accel", accel, "--format", "json"]
        )
        assert code == 0
        entries = strict_json(capsys.readouterr().out)["entries"]
        assert len(entries) == 2
        assert all(
            max(e["rel_err_vf"], e["rel_err_cross"]) < 1e-12 for e in entries
        )

    def test_unreachable_tolerance_exit_3(self, capsys):
        # At a/omega = 10 the trapezoid error estimate is ~1e-8 relative.
        code = run_cli(
            ["verify", "--accel", "10", "--state", "ground", "--tol", "1e-12"]
        )
        assert code == 3
        assert "CONVERGENCE" in capsys.readouterr().out

    def test_quadrature_block(self, capsys):
        code = run_cli(
            ["verify", "--accel", "1", "--state", "excited", "--format", "json"]
        )
        assert code == 0
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        quad = entry["quadrature"]
        assert set(quad) == {
            "s", "h", "nodes", "Y", "error_estimate_vf", "error_estimate_cross"
        }
        assert quad["s"] == pytest.approx(math.pi / 2)
        assert quad["error_estimate_vf"] <= 1e-3 * abs(entry["numeric_vf"])

    def test_default_grid_covers_quartic_regime(self, capsys):
        code = run_cli(["verify", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 100.0 in {e["accel"] for e in report["entries"]}
        assert all(
            max(e["rel_err_vf"], e["rel_err_cross"]) < 1e-9
            for e in report["entries"]
        )

    @pytest.mark.parametrize("accel", ["5e-324", "1e-320"])
    def test_subnormal_accel_node_limit(self, accel, capsys):
        # The step h underflows or the node count leaves float range.
        code = run_cli(
            ["verify", "--accel", accel, "--state", "ground", "--format", "json"]
        )
        assert code == 3
        (entry,) = strict_json(capsys.readouterr().out)["entries"]
        assert "above the limit" in entry["error"]
        assert entry["diagnostics"]["nodes"] is None


class TestSelfcheck:
    def test_passes(self, capsys):
        code = run_cli(["selfcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16 cases checked" in out
        assert out.count("pass") == 4


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("omega0 = 2\naccel = 1\nstate = excited\nformat = json\n")
        code = run_cli(["rate", "--config", str(cfg)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["omega0"] == 2.0
        assert out["state"] == "excited"

    def test_missing_config_exit_1(self, tmp_path, capsys):
        code = run_cli(["rate", "--config", str(tmp_path / "missing.cfg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("help_first", [True, False])
    def test_help_does_not_read_config(self, help_first, tmp_path, capsys):
        config = ["--config", str(tmp_path / "missing.cfg")]
        argv = ["rate"] + (["-h"] + config if help_first else config + ["--help"])
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: diracrates rate")
        assert captured.err == ""

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("omega0 = 2\naccel = 1\nformat = json\n")
        run_cli(["rate", "--config", str(cfg), "--omega0", "3"])
        out = json.loads(capsys.readouterr().out)
        assert out["omega0"] == 3.0
        assert out["accel"] == 1.0

    def test_sweep_config(self, tmp_path, capsys):
        # --accel-max is required; the file may supply it.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("omega0 = 1.3\naccel-min = 0.1\naccel_max = 50\n"
                       "points = 7\nscale = log\nstate = excited\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        run_cli(["sweep", "--omega0", "1.3", "--accel-min", "0.1", "--accel-max",
                 "50", "--points", "7", "--scale", "log", "--state", "excited"])
        assert from_config == capsys.readouterr().out
        assert len(from_config.splitlines()) == 8

    def test_verify_config(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("omega0 = 2\naccel = 3\nstate = ground\ntol = 1e-6\n"
                       "format = json\n")
        assert run_cli(["verify", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["omega0"], report["tol"]) == (2.0, 1e-6)
        assert [(e["accel"], e["state"]) for e in report["entries"]] == [
            (3.0, "ground")
        ]

    def test_flag_after_config_si_accel(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("si_accel = 2.99792458e8\nformat = json\n")
        run_cli(["rate", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["accel"] == 1.0
        run_cli(["rate", "--config", str(cfg), "--accel", "5"])
        assert json.loads(capsys.readouterr().out)["accel"] == 5.0

    @pytest.mark.parametrize(
        "flags, accel",
        [(["--accel", "5", "--si-accel", "2.99792458e8"], 1.0),
         (["--si-accel", "2.99792458e8", "--accel", "5"], 5.0)],
    )
    def test_later_of_accel_and_si_accel_wins(self, flags, accel, capsys):
        run_cli(["rate", "--format", "json"] + flags)
        assert json.loads(capsys.readouterr().out)["accel"] == accel

    @pytest.mark.parametrize(
        "command, line, named",
        [(["sweep", "--accel-max", "10"], "scale = Log", "'Log'"),
         (["rate"], "format = xml", "'xml'"),
         (["rate"], "omega_0 = 5", "--omega-0=5"),
         (["rate"], "accel = fast", "'fast'"),
         (["verify"], "format = csv", "'csv'")],
    )
    def test_config_checked_like_flags(self, command, line, named, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            run_cli(command + ["--config", str(cfg)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err.splitlines()[-1]

    def test_bad_config_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("omega0 = 2\njusttext\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["rate", "--config", str(cfg)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: bad config line: 'justtext'\n"

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_bytes("omega0 = 2\nstate = excité\n".encode("latin-1"))
        assert run_cli(["rate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(cfg) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--accel-max", "1", "--format", "json"],
        ["selfcheck", "--omega0", "2"],
        ["selfcheck", "--coupling", "2"],
        ["selfcheck", "--format", "human"],
        ["selfcheck", "--config", "recipe.cfg"],
        ["verify", "--accel", "1", "--state", "ground", "--format", "csv"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "recipe.cfg").write_text("omega0 = 2\n")
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def readme_cli_commands():
    """Each `diracrates ...` command in README's CLI code block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c, comments=True)[1:] for c in commands
            if c.startswith("diracrates ")]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--accel", "nan"],
        ["rate", "--accel", "inf"],
        ["rate", "--accel", "1e308"],
        ["rate", "--omega0", "1e60", "--accel", "1"],
        ["rate", "--omega0", "nan"],
        ["rate", "--accel", "1", "--coupling", "inf"],
        ["rate", "--accel", "1", "--coupling", "1e200"],
        # The closed forms leave double range, and so does the oracle.
        ["verify", "--accel", "1e63"],
        ["verify", "--accel", "nan"],
        ["verify", "--omega0", "1e-60", "--accel", "1e-60"],
        # 2 pi omega0 / a underflows to 0: the rates are infinite.
        ["rate", "--omega0", "1e-200", "--accel", "1e200"],
        ["rate", "--omega0", "1e-300", "--accel", "1e30"],
        ["sweep", "--omega0", "1e-300", "--accel-min", "0", "--accel-max", "1e30",
         "--points", "2"],
        ["verify", "--omega0", "1e-300", "--accel", "1e30"],
        ["verify", "--accel", "1", "--tol", "inf"],
    ],
)
def test_bad_number_exit_2(argv, capsys):
    # A traceback here would surface as an exception other than SystemExit.
    # sweep has no --format flag; it always writes CSV.
    if argv[0] != "sweep":
        argv = argv + ["--format", "json"]
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def main_exit(argv):
    """Exit code of cli.main, whether returned or raised as SystemExit."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code, usage",
    [
        (["rate", "--accel", "nan"], 2, False),
        (["rate", "--omega0", "1e-200", "--accel", "1e200"], 2, False),
        (["rate", "--config", "missing.cfg"], 1, False),
        (["rate", "--omega0", "x"], 2, True),
    ],
)
def test_readme_error_shapes(argv, code, usage, tmp_path, monkeypatch, capsys):
    # README: value, overflow and I/O errors print one `error:` line;
    # argparse usage errors print a usage block, then `<prog>: error: ...`.
    monkeypatch.chdir(tmp_path)
    assert main_exit(argv) == code
    err = capsys.readouterr().err
    if usage:
        lines = err.splitlines()
        assert lines[0].startswith("usage: diracrates rate")
        assert lines[-1].startswith("diracrates rate: error:")
    else:
        assert err.startswith("error:") and err.count("\n") == 1


# Drawn often on purpose; st.floats() alone reaches each only rarely.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-320, 1e-300,
               1.0, 1e300, 1e308, sys.float_info.max]
FORMATS = {"rate": ["json", "csv", "human"], "sweep": [None],
           "verify": ["json", "human"]}
NUMERIC_FLAGS = {
    "rate": ["--omega0", "--coupling", "--accel", "--si-accel"],
    "sweep": ["--omega0", "--coupling", "--accel-min", "--accel-max"],
    "verify": ["--omega0", "--coupling", "--accel", "--tol"],
}


@pytest.mark.parametrize("command", sorted(NUMERIC_FLAGS))
@settings(max_examples=200, database=None, deadline=None)
@given(data=st.data())
def test_any_float_gives_documented_exit(command, data):
    # Each numeric flag is omitted or takes any float (nan, inf and
    # subnormals included), alone or in combination.  A traceback would
    # surface here as an exception other than SystemExit.  The format is
    # one the command takes and sweep's required --accel-max is always
    # given, so that no example stops at argparse for want of a flag.
    fmt = data.draw(st.sampled_from(FORMATS[command]), label="--format")
    argv = [command] if fmt is None else [command, "--format", fmt]
    if command == "sweep":
        argv += ["--points", "3"]
    if command == "verify":
        argv += ["--state", "ground"]
    for flag in NUMERIC_FLAGS[command]:
        values = st.sampled_from(EDGE_FLOATS) | st.floats()
        if flag != "--accel-max":  # required by sweep
            values = st.none() | values
        value = data.draw(values, label=flag)
        if value is not None:
            argv.append(f"{flag}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 4)
    if code in (1, 2):
        assert err.getvalue().startswith(("error:", "usage:"))
    if fmt == "json" and code in (0, 3):
        strict_json(out.getvalue())


# Runs cli.main on each argv of the JSON list in sys.argv[1], in one fresh
# interpreter, and prints per step its exit code and whether numpy has been
# imported.
STARTUP_PROBE = """
import contextlib, io, json, sys
steps = []
import diracrates
steps.append([0, "numpy" in sys.modules])
from diracrates import cli
steps.append([0, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def startup_steps(argvs):
    """[exit code, numpy imported] after `import diracrates`, after
    `import diracrates.cli`, and after each argv, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


class TestStartup:
    def test_rate_and_sweep_do_not_import_numpy(self):
        rate = ["rate", "--omega0", "2", "--accel", "3", "--state", "excited"]
        argvs = [rate + ["--format", f] for f in ("human", "json", "csv")]
        argvs.append(["sweep", "--accel-max", "10", "--points", "5", "--scale", "linear"])
        steps = startup_steps(argvs)
        assert steps == [[0, False]] * (len(argvs) + 2)

    @pytest.mark.parametrize("argv", [["verify", "--accel", "1"], ["selfcheck"]])
    def test_verify_and_selfcheck_import_numpy(self, argv):
        assert startup_steps([argv]) == [[0, False], [0, False], [0, True]]


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "diracrates", "rate", "--omega0", "1",
             "--accel", "0", "--state", "ground", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rate_total"] == 0.0
