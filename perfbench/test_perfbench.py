"""Smoke tests of the benchmark harness at a tiny size (a few seconds).

Each workload runs once with tracing off and once with it on; the result
lines must carry exactly the metrics BENCHMARK.json declares.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import workloads

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())


def run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_declared_metrics(trace, kind):
    proc = run("--workload", "all", "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, total = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert total["attempted"] == sum(l["attempted"] for l in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path)
    proc = run("--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_flags_a_wrong_answer():
    req = workloads.Request(
        ["rate"], "rate", 0,
        {"omega0": 1.5, "accel": 2.0, "coupling": 1.0, "state": "excited", "format": "json"},
    )
    vf, cross, poly, n, t_eff = reference.closed_forms(1.5, 2.0, 1.0, "excited")
    out = {"rate_vf": vf, "rate_cross": cross, "rate_total": vf + cross,
           "poly_factor": poly, "planck_n": n, "effective_temperature": t_eff}
    assert reference.judge(req, 0, json.dumps(out), "", None).failed == ""
    out["rate_vf"] = vf * (1 + 1e-9)
    verdict = reference.judge(req, 0, json.dumps(out), "", None)
    assert verdict.failed.startswith("rate_vf") and verdict.incorrect
