"""Command-line surface: formats, exit codes, determinism, config files."""
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import select
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diracrates
from diracrates import cli, oracle, rates
from diracrates.atom import TwoLevelAtom


# Subprocesses import the package from this tree's src, whatever the cwd.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


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

    def test_small_omega0_not_zero(self, capsys):
        # omega0^6 underflows to 0; omega0^6 f ~ 4 a^4 omega0^2 does not.
        code = run_cli(["rate", "--omega0", "1e-60", "--accel", "1", "--format", "csv"])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        out = dict(zip(header.split(","), row.split(",")))
        cross = -4e-120 / (480 * math.pi**3)
        assert float(out["rate_cross"]) == pytest.approx(cross, rel=1e-14, abs=0)
        assert out["rate_vf"] == out["rate_total"]
        assert float(out["rate_total"]) == pytest.approx(8.555e-65, rel=1e-4, abs=0)

    def test_tiny_coupling_not_zero(self, capsys):
        # mu^2 = 1e-320 is subnormal; the rates, ~1e-264, are normal floats.
        code = run_cli(["rate", "--omega0", "1e10", "--accel", "1e10", "--coupling",
                        "1e-160", "--state", "excited", "--format", "csv"])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        out = dict(zip(header.split(","), row.split(",")))
        assert out["rate_vf"] == "-6.744211580305743e-264"

    def test_huge_omega0_tiny_coupling_finite(self, capsys):
        # omega0^6 = 1e360 overflows; |cross| ~ 6.72e156 does not.
        code = run_cli(["rate", "--omega0", "1e60", "--accel", "1e60",
                        "--coupling", "1e-100", "--format", "json"])
        assert code == 0
        out = strict_json(capsys.readouterr().out)
        assert out["rate_cross"] == pytest.approx(-6.719e156, rel=1e-4, abs=0)

    # |cross| ~ 1.2e308, so twice it is out of double range while the ground
    # rates are not. At a = 0.008 n is 0, and the total comes from the two
    # halves of e^{-2 pi omega0 / a}.
    @pytest.mark.parametrize("accel, coupling, total", [
        ("1", "4.23e155", 4.498616227952955e305),
        ("0.008", "1.336e156", 1.93198e-33),
    ])
    def test_ground_total_near_double_max(self, accel, coupling, total, capsys):
        code = run_cli(["rate", "--accel", accel, "--coupling", coupling,
                        "--format", "json"])
        assert code == 0
        out = strict_json(capsys.readouterr().out)
        assert out["rate_vf"] > 1e308 and out["rate_cross"] < -1e308
        assert out["rate_total"] == pytest.approx(total, rel=1e-5, abs=0)

    def test_json_version(self, capsys):
        run_cli(["rate", "--accel", "1", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert list(out)[-1] == "version"
        assert out["version"] == diracrates.__version__

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_no_version_outside_json(self, fmt, capsys):
        run_cli(["rate", "--accel", "1", "--format", fmt])
        assert "version" not in capsys.readouterr().out

    # One point in each format, byte for byte: labels, their 21-column
    # width, the radiation-reaction note, the CSV keys and the JSON layout.
    PINNED = {
        "human": (
            "state                excited\n"
            "omega0               2\n"
            "accel                3\n"
            "coupling             0.7\n"
            "rate_vf              -0.0705897\n"
            "rate_cross           -0.0684808\n"
            "rate_total           -0.13907\n"
            "radiation_reaction   0  (order mu^3, neglected)\n"
            "poly_factor          32.5\n"
            "planck_n             0.0153981\n"
            "T_eff                0.477465\n"
        ),
        "csv": (
            "omega0,accel,coupling,state,rate_vf,rate_cross,rate_total,"
            "poly_factor,planck_n,effective_temperature\n"
            "2,3,0.69999999999999996,excited,-0.070589708879488747,"
            "-0.068480758113160248,-0.13907046699264899,32.5,"
            "0.01539812660107809,0.47746482927568601\n"
        ),
        "json": (
            '{\n'
            '  "omega0": 2.0,\n'
            '  "accel": 3.0,\n'
            '  "coupling": 0.7,\n'
            '  "state": "excited",\n'
            '  "rate_vf": -0.07058970887948875,\n'
            '  "rate_cross": -0.06848075811316025,\n'
            '  "rate_total": -0.139070466992649,\n'
            '  "radiation_reaction": 0.0,\n'
            '  "radiation_reaction_note": "order mu^3, neglected",\n'
            '  "poly_factor": 32.5,\n'
            '  "planck_n": 0.01539812660107809,\n'
            '  "effective_temperature": 0.477464829275686,\n'
            '  "version": VERSION\n'
            '}\n'
        ),
    }

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_output_pinned(self, fmt, capsys):
        assert run_cli(["rate", "--omega0", "2", "--accel", "3", "--state", "excited",
                        "--coupling", "0.7", "--format", fmt]) == 0
        out = capsys.readouterr().out
        version = json.dumps(diracrates.__version__)
        assert out == self.PINNED[fmt].replace("VERSION", version)

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_negative_zero_acceleration_prints_zero(self, fmt, capsys):
        # a = -0.0 prints as a = 0 does: its accel and T_eff are not "-0".
        assert run_cli(["rate", "--accel", "-0.0", "--format", fmt]) == 0
        negative = capsys.readouterr().out
        assert run_cli(["rate", "--accel", "0", "--format", fmt]) == 0
        assert negative == capsys.readouterr().out

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(["rate", "--omega0", "not-a-number"]) == 2

    def test_invalid_value_exit_2(self, capsys):
        assert run_cli(["rate", "--omega0", "-1"]) == 2


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

    def test_negative_zero_first_row_prints_zero(self, capsys):
        argv = ["sweep", "--accel-max", "1", "--points", "2"]
        assert run_cli(argv + ["--accel-min", "-0.0"]) == 0
        negative = capsys.readouterr().out
        assert run_cli(argv + ["--accel-min", "0"]) == 0
        assert negative == capsys.readouterr().out
        assert negative.splitlines()[1].startswith("0,")
        assert negative.splitlines()[1].endswith(",0")

    @pytest.mark.parametrize(
        "scale, amin, amax",
        [("log", 1e-3, 1e7), ("log", 1e-310, 1e-300), ("linear", 0.2, 0.9),
         ("linear", 0.7, 2.9)],
    )
    @pytest.mark.parametrize("points", [2, 3, 1001])
    def test_grid_endpoints_exact(self, scale, amin, amax, points):
        # The formulas give 0.0010000000000000002 and 10000000.000000006 for
        # the ends of the first grid, 0.8999999999999999 and
        # 2.9000000000000004 for the last rows of the linear ones.
        grid = list(cli._sweep_grid(amin, amax, points, scale, range(points)))
        assert len(grid) == points
        assert (grid[0], grid[-1]) == (amin, amax)
        last = points - 1
        if scale == "log":
            lo, hi = math.log(amin), math.log(amax)
            inner = [math.exp(lo + (hi - lo) * i / last) for i in range(1, last)]
        else:
            inner = [amin + (amax - amin) * i / last for i in range(1, last)]
        assert grid[1:-1] == inner
        # Any split of the rows gives the same grid.
        for k in (0, 1, points // 2, last, points):
            halves = [cli._sweep_grid(amin, amax, points, scale, rows)
                      for rows in (range(0, k), range(k, points))]
            assert [*halves[0], *halves[1]] == grid

    @settings(max_examples=200, database=None, deadline=None)
    @given(data=st.data(), points=st.integers(2, 300))
    @example(data=None, points=300)
    def test_rows_from_index_alone(self, data, points):
        # A split sweep's child builds its half in blocks of
        # ORPHAN_CHECK_ROWS, so each row must come from its index alone:
        # any range of rows is that slice of the whole grid, bit for bit.
        if data is None:  # the widest log grid: the ends are exact, not formulas
            scale, amin, amax, lo, hi = "log", 5e-324, sys.float_info.max, 150, 300
        else:
            scale = data.draw(st.sampled_from(["log", "linear"]))
            ends = st.floats(5e-324 if scale == "log" else 0.0, sys.float_info.max)
            amin, amax = sorted(data.draw(st.sets(ends, min_size=2, max_size=2)))
            if scale == "linear" and amin == 0.0 and data.draw(st.booleans()):
                amin = -0.0
            lo = data.draw(st.integers(0, points))
            hi = data.draw(st.integers(lo, points))
        full = [*map(float.hex, cli._sweep_grid(amin, amax, points, scale,
                                                range(points)))]
        assert len(full) == points
        assert (full[0], full[-1]) == (amin.hex(), amax.hex())
        rows = cli._sweep_grid(amin, amax, points, scale, range(lo, hi))
        assert [*map(float.hex, rows)] == full[lo:hi]

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

    def test_ground_rates_near_double_max(self, capsys):
        # Twice |cross| ~ 1.2e308 at a = 1 is out of double range; no rate is.
        code = run_cli(["sweep", "--accel-min", "0", "--accel-max", "1",
                        "--points", "3", "--coupling", "4.23e155"])
        assert code == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        assert all(math.isfinite(float(x)) for r in rows for x in r)
        assert float(rows[2][3]) == pytest.approx(4.4986e305, rel=1e-4, abs=0)

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

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["--scale", "log", "--accel-min", "0.01", "--accel-max", "1e6",
              "--points", "10000", "--state", "ground", "--omega0", "1"],
             "a293ec7aa3f20cc1b58f4fa1c7463a17ace8f0ac4f889976ff84171ee6431c2a"),
            (["--accel-min", "0", "--accel-max", "100", "--points", "10000",
              "--state", "excited", "--omega0", "3.7", "--coupling", "0.3"],
             "b704fae932ee42c056c4bcfa37080a2226acbb5503a2416c94be4ee35d9eb60c"),
            # Crosses expm1's overflow band, 2 pi omega0 / a in (709.78, 745].
            (["--accel-min", "0", "--accel-max", "0.009", "--points", "20000"],
             "f96df268d5c087911e478ed8131f331992ee9c9f501154b1333931c32e323785"),
            (["--scale", "log", "--accel-min", "1e-3", "--accel-max", "1e7",
              "--points", "100000", "--state", "excited", "--omega0", "2",
              "--coupling", "0.7"],
             "3b7dd2b0df175473b07ed26743c67eb191067321b2f409e67dd2e160530983f7"),
        ],
        ids=["log-ground", "linear-excited", "expm1-band", "log-excited-1e5"],
    )
    def test_golden_bytes(self, argv, sha256, tmp_path):
        # Any change that moves a bit of a sweep CSV fails here.
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--output", str(out)] + argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_small_omega0_row_matches_rate(self, capsys):
        run_cli(["sweep", "--omega0", "1e-60", "--accel-min", "0", "--accel-max", "1",
                 "--points", "2"])
        last = capsys.readouterr().out.splitlines()[-1]
        run_cli(["rate", "--omega0", "1e-60", "--accel", "1", "--format", "csv"])
        rate_row = capsys.readouterr().out.splitlines()[1].split(",")
        assert last.split(",") == [rate_row[1]] + rate_row[4:]
        assert float(last.split(",")[2]) == pytest.approx(
            -4e-120 / (480 * math.pi**3), rel=1e-14, abs=0
        )

    def test_error_leaves_no_output(self, tmp_path):
        # The rates overflow part-way through the grid.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--accel-min", "0", "--accel-max", "1e3", "--points", "5",
                "--coupling", "1e150", "--output", str(out)]
        assert run_cli(argv) == 2
        assert not out.exists()

    def test_io_failure_exit_1(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--accel-min", "0", "--accel-max", "1", "--points", "2",
             "--output", str(tmp_path / "missing" / "out.csv")]
        )
        assert code == 1

    @pytest.mark.parametrize("output", [["--output", ""], ["--output="]])
    def test_empty_output_path_exit_1(self, output, capsys):
        # An empty path names no file: it is refused, not read as stdout.
        argv = ["sweep", "--accel-max", "1", "--points", "2"] + output
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_missing_range_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--accel-min", "0", "--points", "2"]) == 2
        assert capsys.readouterr().err.startswith("usage: diracrates sweep")


def no_child_left():
    """Raises unless this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepSplit:
    """From SPLIT_MIN_POINTS on, a forked child does the upper half of the
    rows. The CPU count is forced to 2, so that these run on any machine."""

    N = cli.SPLIT_MIN_POINTS
    grid = staticmethod(cli._sweep_grid)  # unpatched by `parent_ranges`

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        yield
        no_child_left()

    @pytest.fixture
    def parent_ranges(self, monkeypatch):
        """The index ranges whose grid this process builds: a child's land
        in its own copy of the list."""
        ranges = []

        def recording(amin, amax, points, scale, indices):
            ranges.append(indices)
            return self.grid(amin, amax, points, scale, indices)

        monkeypatch.setattr(cli, "_sweep_grid", recording)
        return ranges

    def reference(self, omega0, amin, amax, points, scale, state, coupling):
        """The CSV as one in-process pass over the whole grid gives it."""
        grid = self.grid(amin, amax, points, scale, range(points))
        rows = rates.rate_rows(TwoLevelAtom(omega0, state), grid, coupling)
        template = ",".join(["%.17g"] * 7) + "\n"
        return cli.SWEEP_HEADER + "\n" + "".join(template % row for row in rows)

    @pytest.mark.parametrize("points", [N, N + 1])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    @pytest.mark.parametrize("scale, amin, amax", [("log", 0.02, 3e5), ("linear", 0.0, 40.0)])
    def test_bytes_match_one_pass(self, scale, amin, amax, state, points,
                                  parent_ranges, tmp_path, capsys):
        expected = self.reference(1.3, amin, amax, points, scale, state, 0.4)
        argv = ["sweep", "--omega0", "1.3", "--coupling", "0.4",
                "--accel-min", repr(amin), "--accel-max", repr(amax),
                "--points", str(points), "--scale", scale, "--state", state]
        out = tmp_path / "sweep.csv"
        assert run_cli(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == expected
        # Both runs split, and this process built only its own half.
        assert parent_ranges == [range(0, points // 2)] * 2

    # Exit code 2, one stderr line and no --output file, as from one pass.
    # In the second, the child's half alone would fail differently
    # (thermal occupation), and the first half's message must win.
    @pytest.mark.parametrize(
        "argv, lower_fails, child_message",
        [
            (["--accel-min", "0", "--accel-max", "500", "--coupling", "1e150"],
             False, "rate out of double range"),
            (["--scale", "log", "--omega0", "1e-100", "--accel-min", "1e130",
              "--accel-max", "1e300"],
             True, "thermal occupation out of double range"),
        ],
        ids=["child-half-only", "both-halves"],
    )
    def test_error_matches_one_pass(self, argv, lower_fails, child_message,
                                    tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--points", str(self.N + 1), "--output", str(out)] + argv
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: result out of double range (rate out of double range)\n"
        )
        assert not out.exists()
        # Each half on its own fails as the parametrization says.
        args = cli.build_parser().parse_args(argv)
        k, n = args.points // 2, args.points
        atom = TwoLevelAtom(args.omega0, args.state)

        def half(lo, hi):
            grid = self.grid(args.accel_min, args.accel_max, n, args.scale,
                             range(lo, hi))
            return list(rates.rate_rows(atom, grid, args.coupling))

        with pytest.raises(OverflowError, match=f"^{child_message}$"):
            half(k, n)
        if lower_fails:
            with pytest.raises(OverflowError, match="^rate out of double range$"):
                half(0, k)
        else:
            half(0, k)

    def test_error_in_first_half_kills_child(self, monkeypatch, tmp_path, capsys):
        # The child would sleep for a minute; the parent's half fails at
        # once, and the child must not outlive the request.
        fork = os.fork

        def sleepy_fork():
            pid = fork()
            if pid == 0:
                time.sleep(60)
                os._exit(0)
            return pid

        monkeypatch.setattr(os, "fork", sleepy_fork)
        out = tmp_path / "sweep.csv"
        start = time.monotonic()
        code = run_cli(["sweep", "--accel-min", "1e3", "--accel-max", "2e3",
                        "--points", str(self.N), "--coupling", "1e150",
                        "--output", str(out)])
        assert time.monotonic() - start < 30
        assert code == 2
        assert capsys.readouterr().err == (
            "error: result out of double range (rate out of double range)\n"
        )
        assert not out.exists()

    LOG_ARGV = ["sweep", "--accel-min", "0.1", "--accel-max", "1e4", "--scale", "log",
                "--points", str(N + 1), "--state", "excited"]

    def expected_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(self.LOG_ARGV + ["--output", str(out)]) == 0
        return out.read_bytes(), self.reference(1.0, 0.1, 1e4, self.N + 1, "log",
                                                "excited", 1.0).encode()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "scale, amin, amax", [("log", 1e-3, 1e7), ("linear", 0.7, 2.9)]
    )
    def test_endpoints_exact(self, scale, amin, amax, cpus, monkeypatch,
                             parent_ranges, tmp_path):
        # The first and last rows print --accel-min and --accel-max, with
        # the split (2 CPUs) and without it.
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--accel-min", repr(amin), "--accel-max", repr(amax),
                "--points", str(self.N), "--scale", scale, "--output", str(out)]
        assert run_cli(argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == self.N
        assert float(rows[0].split(",")[0]) == amin
        assert float(rows[-1].split(",")[0]) == amax
        split = [range(0, self.N // 2)] if cpus == 2 else [range(0, self.N)]
        assert parent_ranges == split

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_no_fork_or_pipe_computes_in_process(self, failing, monkeypatch,
                                                 parent_ranges, tmp_path):
        def refuse():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, failing, refuse)
        got, expected = self.expected_csv(tmp_path)
        assert got == expected
        n = self.N + 1
        assert parent_ranges == [range(0, n // 2), range(n // 2, n)]

    @pytest.mark.parametrize("death", ["exit 0", "exit 1", "SIGKILL"])
    def test_failed_child_recomputed(self, death, monkeypatch, parent_ranges,
                                     tmp_path):
        # The child quits before sending a line: with an empty payload and
        # exit 0, with a non-zero exit, or killed.
        fork = os.fork

        def doomed_fork():
            pid = fork()
            if pid == 0:
                if death == "SIGKILL":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(int(death[-1]))
            return pid

        monkeypatch.setattr(os, "fork", doomed_fork)
        got, expected = self.expected_csv(tmp_path)
        assert got == expected
        n = self.N + 1
        assert parent_ranges == [range(0, n // 2), range(n // 2, n)]

    def test_child_status_not_read(self, monkeypatch, parent_ranges, tmp_path):
        # The child sends its whole half and then exits 1: its line count,
        # not its exit status, tells that this process need not compute
        # that half again.
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: exit_(1))
        got, expected = self.expected_csv(tmp_path)
        assert got == expected
        assert parent_ranges == [range(0, (self.N + 1) // 2)]

    def test_ignored_sigchld_keeps_child_half(self, tmp_path):
        # Where SIGCHLD is ignored, as it stays across exec, the child is
        # reaped unasked and its exit status is lost. Its lines are all
        # there, so this process must not compute them again.
        out = tmp_path / "sweep.csv"
        argv = self.LOG_ARGV + ["--output", str(out)]
        probe = f"""
import signal, sys
from diracrates import cli
signal.signal(signal.SIGCHLD, signal.SIG_IGN)
cli._usable_cpus = lambda: 2
ranges, grid = [], cli._sweep_grid
def recording(amin, amax, points, scale, indices):
    ranges.append((indices.start, indices.stop))
    return grid(amin, amax, points, scale, indices)
cli._sweep_grid = recording
print([cli.main({argv!r}), ranges])
"""
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=SRC_ENV, check=True)
        n = self.N + 1
        assert ast.literal_eval(proc.stdout) == [0, [(0, n // 2)]]
        assert out.read_bytes() == self.reference(1.0, 0.1, 1e4, n, "log", "excited",
                                                  1.0).encode()

    def test_child_starts_no_thread(self, tmp_path):
        # The child checks on its parent in its own loop: any thread started
        # in the probe, parent or child, leaves the marker file.
        marker = tmp_path / "thread-started"
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--accel-max", "10", "--points", str(self.N),
                "--output", str(out)]
        probe = f"""
import sys, threading
from diracrates import cli
cli._usable_cpus = lambda: 2
start = threading.Thread.start
def marking_start(self):
    open({str(marker)!r}, "w").close()
    start(self)
threading.Thread.start = marking_start
sys.exit(cli.main({argv!r}))
"""
        subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True)
        assert out.read_text().count("\n") == self.N + 1
        assert not marker.exists()

    def test_child_exits_with_killed_parent(self, tmp_path):
        # SIGKILL leaves the parent no chance to kill its child, whose half
        # of a 1e6-point sweep takes seconds: the child must end by itself.
        # The probe prints its child's pid. Only the probe and its child hold
        # the pipe's write end, so the child's exit, not its reaping, ends
        # the pipe with EOF.
        argv = ["sweep", "--accel-max", "2", "--points", "1000000",
                "--output", str(tmp_path / "sweep.csv")]
        probe = f"""
import os, sys
from diracrates import cli
cli._usable_cpus = lambda: 2
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = reporting_fork
sys.exit(cli.main({argv!r}))
"""
        r, w = os.pipe()
        try:
            proc = subprocess.Popen([sys.executable, "-c", probe], env=SRC_ENV,
                                    stdout=subprocess.PIPE, pass_fds=[w])
        finally:
            os.close(w)
        child = None
        try:
            child = int(proc.stdout.readline())
            proc.kill()
            proc.wait()
            readable, _, _ = select.select([r], [], [], 2)
            assert readable, "the child outlived its parent"
            assert os.read(r, 1) == b""
            child = None
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            os.close(r)
            if child is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity(count, usable, monkeypatch):
    # Where os.sched_getaffinity is missing, as on macOS and Windows, the
    # count is os.cpu_count(), or 1 where that is unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == usable


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
        # README's key order.
        assert list(entry) == [
            "accel", "state", "numeric_vf", "closed_vf", "numeric_cross",
            "closed_cross", "rel_err_vf", "rel_err_cross", "quadrature",
            "passed",
        ]
        assert list(entry["quadrature"]) == [
            "s", "h", "nodes", "Y", "error_estimate_vf", "error_estimate_cross"
        ]

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

    def test_smallest_normal_rates_pass(self, capsys):
        # vf and cross ~1e-303, normal floats: the relative check holds.
        code = run_cli(
            ["verify", "--accel", "1", "--coupling", "1e-150", "--state", "ground"]
        )
        assert code == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_ground_rates_near_double_max_pass(self, capsys):
        # |cross| ~ 1.2e308: twice it is out of double range, no rate is.
        code = run_cli(
            ["verify", "--accel", "1", "--coupling", "4.23e155", "--state", "ground"]
        )
        assert code == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_unreachable_tolerance_exit_3(self, capsys):
        # At a/omega = 10 the trapezoid error estimate is ~1e-8 relative.
        code = run_cli(
            ["verify", "--accel", "10", "--state", "ground", "--tol", "1e-12"]
        )
        assert code == 3
        assert "CONVERGENCE" in capsys.readouterr().out

    def test_convergence_message_same_for_both_levels(self, capsys):
        # The levels' vf differ only in sign, and the message prints its
        # magnitude between the bars.
        assert run_cli(["verify", "--accel", "0.1", "--tol", "1e-12"]) == 3
        ground, excited, _ = capsys.readouterr().out.splitlines()
        message = "vf error estimate 1.650e-14 exceeds tol 1.0e-12 x |7.057711e-05|"
        assert ground == f"accel=0.1 state=ground   CONVERGENCE ERROR: {message}"
        assert excited == f"accel=0.1 state=excited  CONVERGENCE ERROR: {message}"

    def test_pass_and_fail_lines_pinned(self, monkeypatch, capsys):
        # Fixed reports, so that the digits do not depend on libm.
        def report(rel_err_vf, rel_err_cross, passed):
            return oracle.OracleReport(1.0, 1.0, -1.0, -1.0, rel_err_vf,
                                       rel_err_cross, {}, passed)
        reports = {"ground": report(1.25e-15, 3.5e-16, True),
                   "excited": report(2.5e-3, 1e-16, False)}
        monkeypatch.setattr(
            oracle, "verify_rates",
            lambda omega0, a, coupling, levels, tol: [reports[lv] for lv in levels],
        )
        assert run_cli(["verify", "--accel", "1"]) == 3
        assert capsys.readouterr().out == (
            "accel=1 state=ground   rel_err_vf=1.25e-15 rel_err_cross=3.50e-16  pass\n"
            "accel=1 state=excited  rel_err_vf=2.50e-03 rel_err_cross=1.00e-16  FAIL\n"
            "overall: FAIL (tol=0.001)\n"
        )

    @pytest.mark.parametrize("argv, lines", [
        (["verify"], len(cli.DEFAULT_VERIFY_RATIOS)),
        (["verify", "--accel", "1e-3"], 1),
        (["verify", "--accel", "1e-3", "--state", "excited"], 1),
    ])
    def test_one_line_per_acceleration(self, argv, lines, monkeypatch, capsys):
        # The levels share the oracle's line, so a request integrates it once
        # per acceleration however many levels it checks.
        calls = []
        line_sums = oracle._line_sums

        def counted(omega0, a):
            calls.append((omega0, a))
            return line_sums(omega0, a)

        monkeypatch.setattr(oracle, "_line_sums", counted)
        assert run_cli(argv + ["--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert len(calls) == len(set(calls)) == lines
        assert {(1.0, e["accel"]) for e in entries} == set(calls)

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

    def test_quadrature_overflow_exit_2(self, monkeypatch, capsys):
        # Sums that overflow once scaled by -mu^2 omega_bd (a/2)^5 = -500^5.
        grid = {"s": 1.0, "h": 0.1, "nodes": 1, "Y": 1.0}
        monkeypatch.setattr(oracle, "_line_sums",
                            lambda omega0, a: ([1e308] * 2, [1e308] * 2, grid))
        assert run_cli(["verify", "--accel", "1e3", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: result out of double range "
            "(quadrature value out of double range)\n"
        )

    def test_reach(self, capsys):
        # 481,145 nodes at a/omega0 = 1e-4; the node limit lies at ~4.81e-5.
        code = run_cli(
            ["verify", "--accel", "1e-4", "--state", "excited", "--format", "json"]
        )
        assert code == 0
        (entry,) = strict_json(capsys.readouterr().out)["entries"]
        assert entry["passed"] and entry["quadrature"]["nodes"] == 481_145
        assert max(entry["rel_err_vf"], entry["rel_err_cross"]) < 1e-12
        code = run_cli(["verify", "--accel", "4.8e-5", "--state", "excited"])
        assert code == 3
        out = capsys.readouterr().out
        assert "quadrature needs 1e+06 nodes, above the limit 1000000\n" in out
        code = run_cli(
            ["verify", "--accel", "4.8e-5", "--state", "excited", "--format", "json"]
        )
        assert code == 3
        (entry,) = strict_json(capsys.readouterr().out)["entries"]
        assert entry["error"] == "quadrature needs 1e+06 nodes, above the limit 1000000"
        assert entry["diagnostics"]["nodes"] == 1_002_385

    @pytest.mark.parametrize("accel", ["5e-324", "1e-320"])
    def test_subnormal_accel_node_limit(self, accel, capsys):
        # The step h underflows or the node count leaves float range.
        code = run_cli(
            ["verify", "--accel", accel, "--state", "ground", "--format", "json"]
        )
        assert code == 3
        (entry,) = strict_json(capsys.readouterr().out)["entries"]
        assert list(entry) == ["accel", "state", "error", "diagnostics"]
        assert "above the limit" in entry["error"]
        assert entry["diagnostics"]["nodes"] is None


    def test_json_versions(self, capsys):
        # numpy takes no part in verify, so there is no numpy_version.
        run_cli(["verify", "--accel", "1", "--state", "ground", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert list(report)[-1] == "version"
        assert report["version"] == diracrates.__version__
        assert "numpy_version" not in report
        assert "version" not in report["entries"][0]

    def test_no_version_in_human_output(self, capsys):
        run_cli(["verify", "--accel", "1", "--state", "ground"])
        assert "version" not in capsys.readouterr().out


class TestSelfcheck:
    def test_passes(self, capsys):
        code = run_cli(["selfcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16 cases checked" in out
        assert out.count("pass") == 3
        assert "two-point matrix vs trace: 360 cases checked" in out

    def test_failed_suite_exit_4(self, monkeypatch, capsys):
        from diracrates import selfcheck

        results = selfcheck.run_all()
        bad = results[1]._replace(max_deviation=math.inf)
        monkeypatch.setattr(
            selfcheck, "run_all", lambda: [results[0], bad, *results[2:]]
        )
        assert run_cli(["selfcheck"]) == 4
        captured = capsys.readouterr()
        fail_lines = [l for l in captured.out.splitlines() if l.endswith("FAIL")]
        assert len(fail_lines) == 1 and fail_lines[0].startswith(f"{bad.name}:")
        assert captured.err == f"identity violated: {bad.name}\n"

    def test_nan_deviation_fails(self, monkeypatch, capsys):
        # One nan entry, not the first, in the boost at tau = 3: the boost
        # suite's deviation is nan and it fails.  The two-point suite's
        # boosts are at tau <= 0 or off the real line, so it still passes.
        from diracrates import clifford

        boost_matrix = clifford.boost_matrix

        def with_nan(a, tau):
            rows = [list(row) for row in boost_matrix(a, tau)]
            if tau == 3.0:
                rows[2][1] = complex(math.nan, 0.0)
            return tuple(map(tuple, rows))

        monkeypatch.setattr(clifford, "boost_matrix", with_nan)
        assert run_cli(["selfcheck"]) == 4
        out = capsys.readouterr().out
        assert "boost group identities: 154 cases checked, max deviation nan" in out
        assert out.count("FAIL") == 1


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

    @pytest.mark.parametrize("config", [["--config", ""], ["--config="]])
    def test_empty_config_path_exit_1(self, config, capsys):
        # An empty path names no file: it is refused, not read as no config.
        assert run_cli(["rate"] + config) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("help_first", [True, False])
    def test_help_does_not_read_config(self, help_first, tmp_path, capsys):
        config = ["--config", str(tmp_path / "missing.cfg")]
        argv = ["rate"] + (["-h"] + config if help_first else config + ["--help"])
        assert run_cli(argv) == 0
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

    def test_blank_lines_and_comments_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("# a recipe\n\nomega0 = 2\n   \n  # accel = 9\n"
                       "\taccel = 1  \n\n  state = excited\n# end\n")
        assert run_cli(["rate", "--config", str(cfg), "--format", "csv"]) == 0
        from_config = capsys.readouterr().out
        run_cli(["rate", "--omega0", "2", "--accel", "1", "--state", "excited",
                 "--format", "csv"])
        assert from_config == capsys.readouterr().out

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

    @pytest.mark.parametrize("flag", ["--conf", "--config"])
    def test_config_abbreviation(self, flag, tmp_path, capsys):
        # An abbreviation the command's options leave unambiguous reads the
        # file, as the full parser resolves it.
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("omega0 = 2\nformat = json\n")
        assert run_cli(["rate", flag, str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["omega0"] == 2.0

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
        assert run_cli(command + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err.splitlines()[-1]

    def test_bad_config_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("omega0 = 2\njusttext\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: bad config line: 'justtext'\n"

    @pytest.mark.parametrize("line", ["config = inner.cfg", "conf = inner.cfg"])
    def test_config_cannot_name_config(self, line, tmp_path, capsys):
        # Refused, not ignored: the inner file is neither read nor needed.
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text(f"omega0 = 2\n{line}\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {cfg}: a config file cannot name another config file\n"
        )

    def test_ambiguous_config_key(self, tmp_path, capsys):
        # co could be coupling or config: argparse's usage error, as for --co.
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("co = 1\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: diracrates rate")
        last = captured.err.splitlines()[-1]
        assert last.startswith("diracrates rate: error: ambiguous option: --co")
        assert "--coupling" in last and "--config" in last

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode(),  # a leading byte-order mark
        lambda text: text.replace("\n", "\r\n").encode(),  # CRLF line ends
    ], ids=["bom", "crlf"])
    def test_config_bom_and_crlf(self, encode, tmp_path, capsys):
        text = "omega0 = 1.3\naccel = 1\nstate = excited\nformat = json\n"
        plain, variant = tmp_path / "plain.cfg", tmp_path / "variant.cfg"
        plain.write_text(text)
        variant.write_bytes(encode(text))
        assert run_cli(["rate", "--config", str(plain)]) == 0
        expected = capsys.readouterr()
        assert run_cli(["rate", "--config", str(variant)]) == 0
        assert capsys.readouterr() == expected
        assert json.loads(expected.out)["omega0"] == 1.3

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
        # The file is not read for a command that does not take --config,
        # so a missing one is the same usage error.
        ["selfcheck", "--config", "missing.cfg"],
        ["--config", "missing.cfg", "rate"],
        ["--config", "recipe.cfg", "rate"],
        # --co could be --coupling or --config: ambiguous before any file is
        # read, whether or not it exists.
        ["rate", "--co", "missing.cfg"],
        ["rate", "--co", "recipe.cfg"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "recipe.cfg").write_text("omega0 = 2\n")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: diracrates")


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


# (argv, whether the error is an overflow). The ids argvN number the rows,
# so new rows go at the end.
BAD_NUMBERS = [
    (["rate", "--accel", "nan"], False),
    (["rate", "--accel", "inf"], False),
    (["rate", "--accel", "1e308"], True),
    (["rate", "--omega0", "1e60", "--accel", "1"], True),
    (["rate", "--omega0", "nan"], False),
    (["rate", "--accel", "1", "--coupling", "inf"], False),
    (["rate", "--accel", "1", "--coupling", "1e200"], True),
    # The closed forms leave double range, and so does the oracle.
    (["verify", "--accel", "1e63"], True),
    (["verify", "--accel", "nan"], False),
    (["verify", "--omega0", "1e-60", "--accel", "1e-60"], False),
    # 2 pi omega0 / a underflows to 0: the rates are infinite.
    (["rate", "--omega0", "1e-200", "--accel", "1e200"], True),
    (["rate", "--omega0", "1e-300", "--accel", "1e30"], True),
    (["sweep", "--omega0", "1e-300", "--accel-min", "0", "--accel-max", "1e30",
      "--points", "2"], True),
    (["verify", "--omega0", "1e-300", "--accel", "1e30"], True),
    (["verify", "--accel", "1", "--tol", "inf"], False),
    # Float powers raise OverflowError where products give inf.
    (["rate", "--accel", "1e200"], True),
    (["verify", "--omega0", "1e60", "--accel", "1"], True),
    # Closed rates that are 0 or subnormal carry too few bits to compare.
    (["verify", "--accel", "1", "--coupling", "1e-200"], False),
    (["verify", "--accel", "1", "--coupling", "1e-159", "--state", "ground"], False),
    (["verify", "--accel", "1", "--coupling", "3e-160", "--state", "ground"], False),
    (["verify", "--omega0", "1e-55", "--accel", "1e-52", "--state", "ground"], False),
    # The excited total, 2 |cross| (1 + n) ~ 2.4e308, is out of double range.
    (["rate", "--accel", "1", "--coupling", "4.23e155", "--state", "excited"], True),
]


@pytest.mark.parametrize(
    "argv, overflow", BAD_NUMBERS, ids=[f"argv{i}" for i in range(len(BAD_NUMBERS))]
)
def test_bad_number_exit_2(argv, overflow, capsys):
    # sweep has no --format flag; it always writes CSV.
    if argv[0] != "sweep":
        argv = argv + ["--format", "json"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    if overflow:
        assert captured.err.endswith("out of double range)\n")
        assert "(34," not in captured.err


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
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    if usage:
        lines = err.splitlines()
        assert lines[0].startswith("usage: diracrates rate")
        assert lines[-1].startswith("diracrates rate: error:")
    else:
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("config", [False, True])
def test_unknown_flag_error_shape(config, tmp_path, monkeypatch, capsys):
    # README: the top-level parser, not the command's, reports an unknown
    # flag, and a config key it does not know as the flag it became.
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "recipe.cfg").write_text("foo = 1\n")
        argv, named = ["rate", "--config", "recipe.cfg"], "--foo=1"
    else:
        argv, named = ["rate", "--foo", "1"], "--foo 1"
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "usage: diracrates [-h] {rate,sweep,verify,selfcheck} ...",
        f"diracrates: error: unrecognized arguments: {named}",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rate", "--accel", "nan", "--coupling", "nan"],
         "error: acceleration must be nonnegative and finite, got nan\n"),
        (["rate", "--accel", "1", "--coupling", "nan"],
         "error: coupling must be finite, got nan\n"),
        (["sweep", "--accel-max", "1", "--coupling", "nan"],
         "error: coupling must be finite, got nan\n"),
        (["sweep", "--accel-max", "1", "--scale", "log", "--coupling", "nan"],
         "error: log scale requires accel-min > 0\n"),
        # omega0^6 f is finite, but f, a printed field, is not.
        (["rate", "--omega0", "1e-100", "--accel", "1", "--format", "csv"],
         "error: result out of double range (rate out of double range)\n"),
        (["sweep", "--omega0", "1e-100", "--accel-max", "1", "--points", "2"],
         "error: result out of double range (rate out of double range)\n"),
        # The last row would fail as an infinite acceleration; the flag is named.
        (["sweep", "--accel-max", "inf"],
         "error: accel_max must be finite, got inf\n"),
        (["sweep", "--accel-min", "1", "--accel-max", "inf", "--scale", "log"],
         "error: accel_max must be finite, got inf\n"),
        # Every row is held in memory before the first is written.
        (["sweep", "--accel-max", "1", "--points", "1000001"],
         "error: points must be at most 1000000, got 1000001\n"),
        (["sweep", "--accel-max", "1", "--points", "100000000000000000000"],
         "error: points must be at most 1000000, got 100000000000000000000\n"),
        # rate_total checks the coupling, after verify_rates checks tol.
        (["verify", "--coupling", "nan", "--tol", "inf"],
         "error: tol must be positive and finite, got inf\n"),
        # The atom is checked before a and tol.
        (["verify", "--omega0", "-1", "--tol", "0"],
         "error: omega0 must be positive and finite, got -1.0\n"),
        # The excited total alone leaves double range; the ground level,
        # checked first, would pass.
        (["verify", "--accel", "1", "--coupling", "4.23e155"],
         "error: result out of double range (rate out of double range)\n"),
    ],
)
def test_error_precedence(argv, message, capsys):
    # The first failing check names the error, as it always has.
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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
    # subnormals included), alone or in combination.  The format is one
    # the command takes and sweep's required --accel-max is always given,
    # so that no example stops at argparse for want of a flag.
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
        code = run_cli(argv)
    assert code in (0, 1, 2, 3, 4)
    if code in (1, 2):
        assert err.getvalue().startswith(("error:", "usage:"))
        assert "Numerical result out of range" not in err.getvalue()
    if fmt == "json" and code in (0, 3):
        strict_json(out.getvalue())


# Runs cli.main on each argv of `argvs`, in one fresh interpreter, and
# prints per step its exit code and which of the `watched` modules are loaded.
STARTUP_PROBE = """
import contextlib, io, sys
def loaded():
    return [m for m in watched if m in sys.modules]
steps = []
import diracrates
steps.append([0, loaded()])
from diracrates import cli
steps.append([0, loaded()])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, loaded()])
print(steps)
"""


WATCHED = ("__future__", "dataclasses", "inspect", "json", "numpy", "pathlib", "typing")


def startup_steps(argvs, watched=WATCHED):
    """[exit code, which of `watched` (by default __future__, dataclasses,
    inspect, json, numpy, pathlib and typing) are loaded] after `import
    diracrates`, after `import diracrates.cli`, and after each argv in turn,
    in one fresh interpreter run with -S, so that no `site` hook loads any
    of them first. The probe itself imports none of them: argvs and watched
    reach it as literals and the steps leave it as a repr."""
    literals = f"argvs = {argvs!r}\nwatched = {watched!r}\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", literals + STARTUP_PROBE],
        capture_output=True, text=True, env=SRC_ENV, check=True,
    )
    return ast.literal_eval(proc.stdout)


def readme_flag_table():
    """{subcommand: set of long flags} from README's "Flags of each
    subcommand" table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Flags of each subcommand", 1)[1].split("\n\n")[1]
    flags = {}
    for row in table.splitlines()[2:]:
        _, command, cell, _ = row.split("|")
        flags[command.strip().strip("`")] = set(re.findall(r"--[a-z0-9-]+", cell))
    return flags


def test_readme_flag_table_matches_parser():
    parsed = {
        command: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for command, parser in cli.build_parser().commands.items()
    }
    assert readme_flag_table() == parsed
    assert parsed["selfcheck"] == set()


class TestStartup:
    def test_rate_and_sweep_do_not_import_numpy(self):
        # Nor __future__, dataclasses, inspect, pathlib or typing; json only
        # once JSON is written, so the json request runs last.
        rate = ["rate", "--omega0", "2", "--accel", "3", "--state", "excited"]
        argvs = [rate + ["--format", f] for f in ("human", "csv")]
        argvs.append(["sweep", "--accel-max", "10", "--points", "5", "--scale", "linear"])
        argvs.append(rate + ["--format", "json"])
        steps = startup_steps(argvs)
        assert steps == [[0, []]] * (len(argvs) + 1) + [[0, ["json"]]]

    def test_split_sweep_forks_with_os_alone(self, tmp_path):
        # A sweep long enough to split, on a forced second CPU: it forks
        # once and loads no process-spawning module, nor typing (under -S,
        # so that no `site` hook loads it first).
        argv = ["sweep", "--accel-max", "10", "--points", str(cli.SPLIT_MIN_POINTS),
                "--output", str(tmp_path / "sweep.csv")]
        probe = f"""
import os, sys
from diracrates import cli
cli._usable_cpus = lambda: 2
forks, fork = [], os.fork
def counted_fork():
    forks.append(1)
    return fork()
os.fork = counted_fork
code = cli.main({argv!r})
unwanted = ("subprocess", "multiprocessing", "concurrent", "typing")
print([code, len(forks), [m for m in unwanted if m in sys.modules]])
"""
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env=SRC_ENV, check=True)
        assert ast.literal_eval(proc.stdout) == [0, 1, []]

    def test_verify_loads_only_json(self):
        # The oracle runs on math and cmath: no watched module is loaded,
        # and json only once JSON is written, so the json request runs last.
        verify = ["verify", "--accel", "1"]
        steps = startup_steps([verify, verify + ["--format", "json"]])
        assert steps == [[0, []], [0, []], [0, []], [0, ["json"]]]

    def test_cmath_and_clifford_load_only_where_evaluated(self):
        # The closed-form core runs on math alone: only the oracle, with the
        # trace it integrates, loads cmath. The correlators that verify reads
        # do not load clifford, which only selfcheck evaluates.
        watched = ("cmath", "diracrates.clifford")
        rate = ["rate", "--accel", "3"]
        argvs = [rate + ["--format", f] for f in ("human", "csv", "json")]
        argvs.append(["sweep", "--accel-max", "10", "--points", "5", "--scale", "linear"])
        argvs.append(["verify", "--accel", "1"])
        steps = startup_steps(argvs, watched)
        assert steps == [[0, []]] * 6 + [[0, ["cmath"]]]
        probe = (f"import sys, diracrates.correlators\n"
                 f"print([m for m in {watched!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env=SRC_ENV, check=True)
        assert ast.literal_eval(proc.stdout) == ["cmath"]

    def test_selfcheck_loads_nothing(self):
        # The Clifford algebra runs on tuples of complex: no watched module
        # is loaded after selfcheck.
        steps = startup_steps([["selfcheck"]])
        assert steps == [[0, []], [0, []], [0, []]]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diracrates", "rate", "--omega0", "1",
             "--accel", "0", "--state", "ground", "--format", "json"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rate_total"] == 0.0

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["rate"], 1, "error: stdout is closed\n"),
            (["verify", "--accel", "1"], 1, "error: stdout is closed\n"),
            (["selfcheck"], 1, "error: stdout is closed\n"),
            (["sweep", "--accel-max", "1", "--points", "3"], 1,
             "error: stdout is closed\n"),
            (["sweep", "--accel-max", "1", "--points", "3", "--output", "sweep.csv"],
             0, ""),
        ],
        ids=["rate", "verify", "selfcheck", "sweep", "sweep-output"],
    )
    def test_closed_stdout(self, argv, code, err, tmp_path):
        # With fd 1 closed, as by `>&-`, sys.stdout is None: a command that
        # prints exits 1 with one error line, as when a write to stdout fails.
        proc = subprocess.run(
            [sys.executable, "-m", "diracrates", *argv], stderr=subprocess.PIPE,
            text=True, env=SRC_ENV, cwd=tmp_path, preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (code, err)
        if "--output" in argv:
            assert (tmp_path / "sweep.csv").read_text().count("\n") == 4

    @pytest.mark.parametrize(
        "argv, code",
        [(["rate", "--config", "missing.cfg"], 1), (["rate", "--accel", "nan"], 2),
         (["rate", "--format", "xml"], 2), (["rate", "--format", "json"], 0)],
        ids=["io", "value", "usage", "json"],
    )
    def test_closed_stderr(self, argv, code, tmp_path, monkeypatch, capsys):
        # With fd 2 closed, as by `2>&-`, sys.stderr is None: messages go
        # nowhere, and stdout carries only what it carries with stderr open.
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == code
        out = capsys.readouterr().out
        assert (out == "") == (code != 0)
        proc = subprocess.run(
            [sys.executable, "-m", "diracrates", *argv], stdout=subprocess.PIPE,
            text=True, env=SRC_ENV, preexec_fn=lambda: os.close(2),
        )
        assert (proc.returncode, proc.stdout) == (code, out)

    @pytest.mark.parametrize(
        "argv, code",
        [(["rate", "-h"], 0), (["rate", "--format", "xml"], 2),
         (["rate", "--accel", "nan"], 2),
         (["rate", "--accel", "1", "--coupling", "4.23e160"], 2),
         (["rate", "--config", "missing.cfg"], 1)],
    )
    def test_main_returns_every_code(self, argv, code, tmp_path, monkeypatch, capsys):
        # In process, cli.main returns each exit code, raising no SystemExit;
        # an `error:` line it cannot write, as to `2>/dev/full`, is dropped.
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == code
        if capsys.readouterr().err.startswith("error:"):
            with open(os.devnull) as read_only, contextlib.redirect_stderr(read_only):
                assert cli.main(argv) == code
