"""Seeded request sequences for the benchmark workloads.

A request is the argument list given to ``python -m diracrates`` plus what
the reference check needs to know about it. The seed is the only input;
the program never sees it. ``{tmp}`` in an argument stands for the run's
temporary directory inside the checkout.

A run does a fixed number of cycles, derived from ``--seconds`` and the
nominal cycle times below, so that two commits measured with the same
settings serve exactly the same requests. The nominal times were measured
at the seed commit on a 2-core x86-64 machine.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 2.99792458e8
SWEEP_POINTS = 100_000
SMOKE_SWEEP_POINTS = 2_000

# Nominal wall time of one cycle at the seed commit, in seconds.
NOMINAL_CYCLE_S = {"sweep": 2.0, "verify": 7.0, "points": 1.6}

# a/omega decades of the verify grid; "d6" is a/omega = 1e6 exactly.
VERIFY_DECADES = tuple(range(-3, 6))
SMOKE_VERIFY_DECADES = (-1, 2)

POINTS_CYCLE = ("rate",) * 6 + ("selfcheck", "edge")

# Inputs that every parsing float must survive. At the seed commit each of
# them fails; see NOTES.md.
EDGE_CASES = (
    ("accel-nan", ["rate", "--omega0", "1", "--accel", "nan", "--format", "json"]),
    ("accel-inf", ["rate", "--omega0", "1", "--accel", "inf", "--format", "json"]),
    ("accel-1e308", ["rate", "--omega0", "1", "--accel", "1e308", "--format", "json"]),
    ("omega0-1e60", ["rate", "--omega0", "1e60", "--accel", "1", "--format", "json"]),
    ("config-missing",
     ["rate", "--config", "{tmp}/missing.cfg", "--accel", "1", "--format", "json"]),
    ("accel-0.0086", ["rate", "--omega0", "1", "--accel", "0.0086", "--format", "json"]),
)


@dataclass
class Request:
    argv: list[str]
    kind: str  # rate | sweep | verify | selfcheck
    cycle: int
    params: dict = field(default_factory=dict)
    edge: str = ""  # edge-case name; "" for a generated request
    config: str | None = None  # text of the --config file to write first


def cycles_for(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def build(workload: str, seed: int, cycles: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": _sweep, "verify": _verify, "points": _points}[workload](
        rng, cycles, smoke
    )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep(rng, cycles, smoke):
    """Pairs of one log-grid and one linear-from-0 request, plus a final
    log-grid request so that the median latency falls inside a group."""
    points = SMOKE_SWEEP_POINTS if smoke else SWEEP_POINTS
    reqs = []
    for i in range(2 * cycles + 1):
        w = _log_uniform(rng, 0.1, 10.0)
        state = ("ground", "excited")[(i // 2) % 2]
        if i % 2 == 0:
            scale = "log"
            amin = w * _log_uniform(rng, 1e-2, 1.0)
            amax = w * _log_uniform(rng, 1e4, 1e6)
        else:
            scale = "linear"
            amin = 0.0
            amax = w * rng.uniform(10.0, 30.0)
        argv = [
            "sweep", "--omega0", repr(w), "--accel-min", repr(amin),
            "--accel-max", repr(amax), "--points", str(points),
            "--scale", scale, "--state", state, "--output", f"{{tmp}}/sweep-{i}.csv",
        ]
        params = {"omega0": w, "accel_min": amin, "accel_max": amax,
                  "points": points, "scale": scale, "state": state,
                  "output": f"sweep-{i}.csv"}
        reqs.append(Request(argv, "sweep", i // 2, params))
    return reqs


def verify_grid(smoke: bool) -> list[tuple[str, float]]:
    """(label, a/omega): each decade's log-centre, and 1e6.

    The oracle's cost grows like omega/a and its pass/fail outcome flickers
    with a/omega above ~18, but both depend on a/omega alone. So the grid
    is fixed and the seed draws omega0 per point: a point drawn anywhere
    in its decade would spread a pass's wall time tenfold, and its failure
    count, across seeds.
    """
    decades = SMOKE_VERIFY_DECADES if smoke else VERIFY_DECADES
    return [(f"d{d}", 10.0 ** (d + 0.5)) for d in decades] + [("d6", 1e6)]


def _verify(rng, cycles, smoke):
    """One request per (grid point, level); the same requests in every pass."""
    grid = [(label, ratio, _log_uniform(rng, 0.1, 10.0))
            for label, ratio in verify_grid(smoke)]
    reqs = []
    for cycle in range(cycles):
        for label, ratio, w in grid:
            a = ratio * w
            for state in ("ground", "excited"):
                argv = ["verify", "--omega0", repr(w), "--accel", repr(a),
                        "--state", state, "--format", "json"]
                params = {"omega0": w, "accel": a, "state": state, "decade": label}
                reqs.append(Request(argv, "verify", cycle, params))
    return reqs


def _points(rng, cycles, smoke):
    reqs = []
    for cycle in range(cycles):
        for slot, kind in enumerate(POINTS_CYCLE):
            if kind == "selfcheck":
                reqs.append(Request(["selfcheck"], "selfcheck", cycle))
            elif kind == "edge":
                name, argv = EDGE_CASES[cycle % len(EDGE_CASES)]
                reqs.append(Request(list(argv), "rate", cycle, _rate_params(argv), edge=name))
            else:
                reqs.append(_rate_request(rng, cycle, f"{cycle}-{slot}"))
    return reqs


def _rate_request(rng, cycle, tag):
    """A rate request: plain flags, an SI acceleration, or a config file."""
    w = _log_uniform(rng, 0.1, 10.0)
    a = w * _log_uniform(rng, 1e-3, 1e6)
    state = rng.choice(("ground", "excited"))
    fmt = rng.choice(("human", "json", "csv"))
    coupling = rng.uniform(0.5, 2.0)
    variant = rng.random()
    if variant < 0.15:
        si = a * SPEED_OF_LIGHT
        argv = ["rate", "--omega0", repr(w), "--si-accel", repr(si),
                "--state", state, "--format", fmt]
        return Request(argv, "rate", cycle, _rate_params(argv))
    if variant < 0.30:
        config = f"omega0 = {w!r}\nstate = {state}\ncoupling = {coupling!r}\n"
        argv = ["rate", "--config", f"{{tmp}}/rate-{tag}.cfg", "--accel", repr(a),
                "--format", fmt]
        params = dict(_rate_params(argv), omega0=w, state=state, coupling=coupling)
        return Request(argv, "rate", cycle, params, config=config)
    argv = ["rate", "--omega0", repr(w), "--accel", repr(a), "--state", state,
            "--format", fmt]
    if variant < 0.65:
        argv += ["--coupling", repr(coupling)]
    return Request(argv, "rate", cycle, _rate_params(argv))


def _rate_params(argv):
    """Reference inputs as the program will parse them from ``argv``."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    params = {
        "omega0": float(flags.get("--omega0", "1")),
        "coupling": float(flags.get("--coupling", "1")),
        "state": flags.get("--state", "ground"),
        "format": flags.get("--format", "human"),
    }
    if "--si-accel" in flags:
        params["accel"] = float(flags["--si-accel"]) / SPEED_OF_LIGHT
    else:
        params["accel"] = float(flags.get("--accel", "0"))
    return params
