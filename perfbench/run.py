#!/usr/bin/env python3
"""Benchmark of the diracrates CLI: seeded closed-loop workloads, checked
against an independent reference, and a traced per-layer run.

    python3 perfbench/run.py --workload {sweep,verify,points,all} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from anywhere inside a checkout; it uses the source under ``src/``.
One client sends one request at a time to ``python -m diracrates`` and
sends the next when the previous one has exited (a closed loop). A run
serves a fixed number of request cycles derived from ``--seconds`` (see
workloads.py), then prints one line per metric and, as its last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured on subprocesses with
tracing off. ``--trace 1`` runs the first quarter of the same requests
in-process through ``cli.main``, once plain and once with spans recorded
at each layer boundary, and reports the per-layer metrics. A per-layer
value of -1 means "absent": the layer is not in the code, or the workload
does not exercise it. ``--smoke`` shrinks every workload to a few
seconds, for the harness's own test. Spans and per-request results go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "verify", "points")
LAYERS = ("cli", "rates", "oracle", "selfcheck", "clifford", "correlators")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
SUITE_REPEATS = 3
POINT_REPEATS = 5
ABSENT = -1.0
DECADES = [f"d{d}" for d in workloads.VERIFY_DECADES] + ["d6"]
SUITES = ("gamma_algebra", "boost_group", "spin_sums", "trace_vs_closed")

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.total_s": "s", "import.numpy_s": "s", "import.diracrates_self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.parse_us": "us", "cli.bytes_out": "count",
    "rates.calls": "count", "rates.self_s": "s", "rates.ns_per_row": "ns",
    "rates.point_us": "us",
    "oracle.calls": "count", "oracle.self_s": "s", "oracle.failed": "count",
    **{f"oracle.point_s.{d}": "s" for d in DECADES},
    **{f"oracle.rel_err.{d}": "1" for d in DECADES},
    "max_rel_err": "1",
    "kernel.calls": "count", "kernel.nodes": "count", "kernel.self_s": "s",
    "kernel.ns_per_node": "ns",
    **{f"selfcheck.{s}_ms": "ms" for s in SUITES},
    "clifford.calls": "count", "clifford.self_s": "s",
    "correlators.calls": "count", "correlators.self_s": "s",
    "trace.overhead_frac": "1",
}


class SetupError(RuntimeError):
    """The program under test could not be started from this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = child_env()


def spawn(args: list[str], tmp: Path) -> tuple[int, float, float, str, str]:
    """Run ``python *args``; return exit code, wall s, peak RSS MB, stdout, stderr."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def request_argv(req: workloads.Request, tmp: Path) -> list[str]:
    argv = [a.replace("{tmp}", str(tmp)) for a in req.argv]
    if req.config is not None:
        Path(argv[argv.index("--config") + 1]).write_text(req.config)
    return argv


# --- environment stamp ----------------------------------------------------

STAMP_CODE = """
import importlib.util, json, sys
import numpy, diracrates
try:
    from diracrates import _kernels
    backend = _kernels.BACKEND
except ImportError:
    backend = "absent"
print(json.dumps({
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "diracrates": getattr(diracrates, "__version__", "unknown"),
    "diracrates_file": diracrates.__file__, "kernels_backend": backend,
    "numba_importable": importlib.util.find_spec("numba") is not None,
}))
"""


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diracrates").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_stamp(args, tmp: Path) -> dict:
    code, _, _, out, err = spawn(["-c", STAMP_CODE], tmp)
    if code != 0:
        raise SetupError(f"cannot import diracrates from {SRC}: {err.strip()[-500:]}")
    stamp = json.loads(out)
    if not Path(stamp.pop("diracrates_file")).resolve().is_relative_to(SRC):
        raise SetupError("diracrates imported from outside this checkout")
    stamp.update(
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        machine=platform.machine(), git_commit=git_commit(),
        source_sha256=source_digest(), seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke,
    )
    return stamp


# --- end-to-end run (tracing off) -----------------------------------------

def time_setup(tmp: Path) -> float:
    """Wall time of a fresh ``import diracrates.cli``."""
    code, wall, _, _, err = spawn(["-c", "import diracrates.cli"], tmp)
    if code != 0:
        raise SetupError(f"import diracrates.cli failed: {err.strip()[-500:]}")
    return wall


def tail_latency(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are too few."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def measure(workload: str, seed: int, seconds: float, smoke: bool, tmp: Path):
    cycles = workloads.cycles_for(workload, seconds, smoke)
    time_setup(tmp)  # warm-up: compiles the bytecode cache
    # Set-up samples are spread over the run, at least SETUP_REPEATS of them,
    # so that their median sees the same machine as the requests.
    repeats = 1 if smoke else max(SETUP_REPEATS, cycles)
    setup_before = [c * cycles // repeats for c in range(repeats)]
    setup, results = [], []
    for i, req in enumerate(workloads.build(workload, seed, cycles, smoke)):
        while setup_before and setup_before[0] <= req.cycle:
            setup_before.pop(0)
            setup.append(time_setup(tmp))
        argv = request_argv(req, tmp)
        code, wall, rss, out, err = spawn(["-m", "diracrates", *argv], tmp)
        verdict = reference.judge(req, code, out, err, tmp)
        results.append({"index": i, "kind": req.kind, "edge": req.edge,
                        "cycle": req.cycle, "decade": req.params.get("decade", ""),
                        "code": code, "wall_s": wall, "rss_mb": rss,
                        "failed": verdict.failed, "incorrect": verdict.incorrect,
                        "records": verdict.records, **verdict.extra})

    walls = [r["wall_s"] for r in results]
    ok = [r for r in results if not r["failed"]]
    by_cycle: dict[int, float] = {}
    sizes: dict[int, int] = {}
    for r in results:
        by_cycle[r["cycle"]] = by_cycle.get(r["cycle"], 0.0) + r["wall_s"]
        sizes[r["cycle"]] = sizes.get(r["cycle"], 0) + 1
    full = [by_cycle[c] for c in by_cycle if sizes[c] == max(sizes.values())]
    tail, pct, beyond = tail_latency(walls)
    values = {
        "setup_s": (statistics.median(setup), len(setup), ""),
        "rows_per_s": (sum(r["records"] for r in ok) / sum(walls), len(results),
                       f"{sum(r['records'] for r in ok)} records"),
        "wall_s": (statistics.median(full), len(full), "median cycle"),
        "latency_p50_s": (statistics.median(walls), len(walls), ""),
        "latency_tail_s": (tail, len(walls), f"p{pct:.1f}, {beyond} beyond"),
        "peak_rss_mb": (max(r["rss_mb"] for r in (ok or results)), len(ok or results), ""),
    }
    notes = [f"# metric {name} {v:.6g} {END_TO_END[name]} (n={n}{', ' + extra if extra else ''})"
             for name, (v, n, extra) in values.items()]
    metrics = {name: {"value": v, "unit": END_TO_END[name]}
               for name, (v, _, _) in values.items()}
    return finish(workload, results, metrics, notes)


def finish(workload, results, metrics, notes):
    failed = [r for r in results if r["failed"]]
    notes = [f"# workload {workload}: {len(results)} attempted, {len(failed)} failed, "
             f"fail_frac {len(failed) / len(results):.4f}"] + notes
    reasons: dict[str, int] = {}
    for r in failed:
        key = f"{r['kind']}{'/' + r['edge'] if r['edge'] else ''}: {r['failed'][:100]}"
        reasons[key] = reasons.get(key, 0) + 1
    notes += [f"# failure x{n} {k}" for k, n in sorted(reasons.items())]
    notes += [f"# sweep request {r['index']} sha256 {r['sha256']} records {r['records']}"
              for r in results if "sha256" in r]
    line = {"correct": not any(r["incorrect"] for r in results),
            "attempted": len(results), "failed": len(failed), "metrics": metrics}
    return line, notes, results


# --- traced run (in-process) ----------------------------------------------

def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"diracrates.{name}") for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SetupError("diracrates imported from outside this checkout")
    return mods


def call_main(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_inprocess(cli, reqs, tmp, tracer=None):
    """Serve ``reqs`` through ``cli.main``; return total wall and per-request
    (request, code, stdout, stderr, bytes out)."""
    total = 0.0
    done = []
    for i, req in enumerate(reqs):
        argv = request_argv(req, tmp)
        if tracer:
            tracer.request = i
        start = time.perf_counter()
        code, out, err = call_main(cli, argv)
        total += time.perf_counter() - start
        size = len(out.encode())
        if req.kind == "sweep" and (tmp / req.params["output"]).exists():
            size += (tmp / req.params["output"]).stat().st_size
        done.append((req, code, out, err, size))
    return total, done


def import_times(repeats: int, tmp: Path) -> dict[str, float]:
    """Parse ``python -X importtime``: diracrates.cli in total, and numpy."""
    totals, numpys = [], []
    for _ in range(repeats):
        code, _, _, _, err = spawn(["-X", "importtime", "-c", "import diracrates.cli"], tmp)
        if code != 0:
            raise SetupError(f"import diracrates.cli failed: {err.strip()[-500:]}")
        total = numpy = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if not name.startswith(" ") and name.startswith("diracrates"):
                total += int(parts[1])
            if name.strip() == "numpy" and not numpy:
                numpy = int(parts[1])
        totals.append(total / 1e6)
        numpys.append(numpy / 1e6)
    total, numpy = statistics.median(totals), statistics.median(numpys)
    return {"import.total_s": total, "import.numpy_s": numpy,
            "import.diracrates_self_s": total - numpy}


def parse_us(cli, reqs, tmp) -> float:
    """Median build_parser() plus parse_args() per request, in microseconds."""
    times = []
    with contextlib.redirect_stderr(io.StringIO()):
        for req in reqs:
            argv = [a.replace("{tmp}", str(tmp)) for a in req.argv]
            start = time.perf_counter()
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pass
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def point_us(reqs) -> float:
    """Median single scalar ``rates.rate_total`` call over the workload's
    inputs, in microseconds; absent when that API is gone."""
    try:
        from diracrates import rates
        from diracrates.atom import TwoLevelAtom
    except ImportError:
        return ABSENT
    times = []
    for req in reqs:
        p = req.params
        if req.edge or "omega0" not in p:
            continue
        accel = p.get("accel", p.get("accel_max"))
        try:
            atom = TwoLevelAtom(p["omega0"], p["state"])
            for _ in range(POINT_REPEATS):
                start = time.perf_counter()
                rates.rate_total(atom, accel, 1.0)
                times.append(time.perf_counter() - start)
        except (ArithmeticError, ValueError):
            continue
        except (TypeError, AttributeError):
            return ABSENT
    return statistics.median(times) * 1e6 if times else ABSENT


def suite_ms(selfcheck) -> dict[str, float]:
    out = {}
    for suite in SUITES:
        fn = getattr(selfcheck, f"check_{suite}", None)
        if fn is None:
            out[f"selfcheck.{suite}_ms"] = ABSENT
            continue
        times = []
        for _ in range(SUITE_REPEATS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        out[f"selfcheck.{suite}_ms"] = statistics.median(times) * 1e3
    return out


def traced(workload: str, seed: int, seconds: float, smoke: bool, tmp: Path):
    mods = import_program()
    cli = mods["cli"]
    cycles = workloads.cycles_for(workload, seconds, smoke)
    reqs = [r for r in workloads.build(workload, seed, cycles, smoke)
            if r.cycle < max(1, cycles // 4)]

    values = import_times(1 if smoke else IMPORT_REPEATS, tmp)
    values["cli.parse_us"] = parse_us(cli, reqs, tmp)
    values["rates.point_us"] = point_us(reqs)
    has_selfcheck = any(r.kind == "selfcheck" for r in reqs)
    values.update(suite_ms(mods["selfcheck"]) if has_selfcheck
                  else {f"selfcheck.{s}_ms": ABSENT for s in SUITES})

    plain_wall, _ = run_inprocess(cli, reqs, tmp)
    tracer = spans.Tracer()
    for layer in LAYERS:
        tracer.wrap_module(mods[layer], layer)
    has_kernel = hasattr(mods["oracle"], "bracket_integrand")
    if has_kernel:
        tracer.wrap(mods["oracle"], "bracket_integrand", "kernel", work=lambda a: len(a[0]))
    try:
        traced_wall, done = run_inprocess(cli, reqs, tmp, tracer)
    finally:
        tracer.restore()
    tracer.write(OUT / f"spans-{workload}.tsv")
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    results = []
    for i, (req, code, out, err, size) in enumerate(done):
        verdict = reference.judge(req, code, out, err, tmp)
        results.append({"index": i, "kind": req.kind, "edge": req.edge,
                        "decade": req.params.get("decade", ""), "code": code,
                        "bytes_out": size, "failed": verdict.failed,
                        "incorrect": verdict.incorrect, "records": verdict.records,
                        **verdict.extra})
    values.update(layer_metrics(tracer, results, has_kernel))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    notes = [f"# metric {name} {'absent' if m['value'] == ABSENT else format(m['value'], '.6g')}"
             f" {m['unit']}" for name, m in metrics.items()]
    notes.append(f"# traced {len(reqs)} requests in-process, spans in "
                 f"{(OUT / f'spans-{workload}.tsv').relative_to(ROOT)}")
    return finish(workload, results, metrics, notes)


def layer_metrics(tracer: spans.Tracer, results: list[dict], has_kernel: bool) -> dict:
    self_t = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    oracle_by_request: dict[int, float] = {}
    convergence_errors = 0
    for i in range(len(self_t)):
        layer = tracer.layer_of(i)
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + self_t[i]
        work[layer] = work.get(layer, 0) + tracer.work[i]
        if layer == "oracle":
            rid = tracer.rid[i]
            oracle_by_request[rid] = (oracle_by_request.get(rid, 0.0)
                                      + tracer.end[i] - tracer.start[i])
            if tracer.error[i] >= 0 and tracer.names[tracer.error[i]] == "ConvergenceError":
                convergence_errors += 1

    v: dict[str, float] = {}
    for layer in ("cli", "rates", "oracle", "clifford", "correlators"):
        v[f"{layer}.calls"] = calls.get(layer, 0)
        v[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    v["cli.bytes_out"] = sum(r["bytes_out"] for r in results)
    v["rates.ns_per_row"] = (self_s["rates"] / calls["rates"] * 1e9
                             if calls.get("rates") else ABSENT)
    v["oracle.failed"] = convergence_errors
    for d in DECADES:
        rows = [r for r in results if r["decade"] == d]
        times = [oracle_by_request[r["index"]] for r in rows if r["index"] in oracle_by_request]
        errs = [r["rel_err"] for r in rows if "rel_err" in r]
        v[f"oracle.point_s.{d}"] = statistics.median(times) if times else ABSENT
        v[f"oracle.rel_err.{d}"] = max(errs) if errs else ABSENT
    errs = [r["rel_err"] for r in results if "rel_err" in r]
    v["max_rel_err"] = max(errs) if errs else ABSENT
    if has_kernel:
        v["kernel.calls"] = calls.get("kernel", 0)
        v["kernel.nodes"] = work.get("kernel", 0)
        v["kernel.self_s"] = self_s.get("kernel", 0.0)
        v["kernel.ns_per_node"] = (self_s["kernel"] / work["kernel"] * 1e9
                                   if work.get("kernel") else ABSENT)
    else:
        v.update({k: ABSENT for k in ("kernel.calls", "kernel.nodes", "kernel.self_s",
                                      "kernel.ns_per_node")})
    return v


# --- command line ---------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own test")
    args = ap.parse_args()

    if not (SRC / "diracrates" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'diracrates'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        stamp = env_stamp(args, tmp)
        print("# env " + json.dumps(stamp, sort_keys=True))
        run = traced if args.trace else measure
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {}
        for name in names:
            line, notes, results = run(name, args.seed, args.seconds, args.smoke, tmp)
            (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(
                {"env": stamp, "workload": name, "result": line, "requests": results},
                indent=1))
            print("\n".join(notes), flush=True)
            lines[name] = line
            if args.workload == "all":
                print(json.dumps(line), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.workload == "all":
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{k}": m for w, l in lines.items() for k, m in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
