"""Independent reference for the program's outputs, and the failure rules.

The closed forms are the paper's, written here with ``math`` alone:

    vf    = -+ mu^2 w^6 / (480 pi^3) * P(a/w) * (1 + 2 n)   (- excited, + ground)
    cross = -  mu^2 w^6 / (480 pi^3) * P(a/w)
    P(r)  = 1 + 5 r^2 + 4 r^4,   n = 1 / (e^{2 pi w / a} - 1),   T_eff = a / 2 pi

An operation fails when it exits with a traceback, with an undocumented
exit code (1 is for I/O failures only), with 0 but prints nan/inf or
disagrees with the reference, or is a verify entry that carries ``error`` or
``passed: false``. An edge-case input may instead be rejected cleanly: exit
2 (or 1 for an unreadable config file) without a traceback.

A failure is also *incorrect* when a generated (not edge-case) request
exited 0 with an answer that is wrong or not finite: the program claimed a
result it did not have.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from workloads import Request

REL_TOL = 1e-12
# Human format prints 6 significant digits: at most half a unit in the
# sixth digit, 5e-6 relative.
HUMAN_REL_TOL = 5e-6 * (1 + 1e-9)
# Values below this are compared absolutely; they carry no significant digits.
ABS_FLOOR = 1e-300
DOCUMENTED_EXIT = (0, 1, 2, 3, 4)
CHECKED = ("rate_vf", "rate_cross", "poly_factor", "planck_n", "T_eff")


def closed_forms(omega0: float, accel: float, coupling: float = 1.0,
                 state: str = "ground") -> tuple[float, ...]:
    """The paper's closed forms, in the order of CHECKED; ArithmeticError
    when no finite answer exists."""
    pref = coupling * coupling * omega0**6 / (480.0 * math.pi**3)
    r2 = (accel / omega0) ** 2
    poly = 1.0 + 5.0 * r2 + 4.0 * r2 * r2
    if accel == 0:
        n = 0.0
    else:
        x = 2.0 * math.pi * omega0 / accel
        n = math.exp(-x) / -math.expm1(-x)
    vf = pref * poly * (1.0 + 2.0 * n) * (1.0 if state == "ground" else -1.0)
    out = (vf, -pref * poly, poly, n, accel / (2.0 * math.pi))
    for v in out:
        if not math.isfinite(v):
            raise ArithmeticError("no finite closed form")
    return out


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    """False for a nan ``value`` too."""
    return abs(value - ref) <= rel * abs(ref) + ABS_FLOOR


@dataclass
class Verdict:
    failed: str = ""  # reason; "" when the operation succeeded
    incorrect: bool = False
    records: int = 0  # CSV rows, or 1 per successful answer
    extra: dict = field(default_factory=dict)


def judge(req: Request, code: int, stdout: str, stderr: str, tmp) -> Verdict:
    """Classify one finished request and check its output."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        return Verdict(f"traceback: {last}")
    if code not in DOCUMENTED_EXIT:
        return Verdict(f"undocumented exit code {code}")
    if code != 0 and not (req.kind == "verify" and code == 3):
        if req.edge and (code == 2 or (code == 1 and req.edge == "config-missing")):
            return Verdict(records=1)  # a clean, documented rejection
        lines = stderr.strip().splitlines()
        return Verdict(f"exit {code}: {lines[-1] if lines else ''}")
    try:
        if req.kind == "verify":
            return _verify(req, code, stdout)
        v = {"rate": _rate, "sweep": _sweep, "selfcheck": _selfcheck}[req.kind](
            req, stdout, tmp)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        v = Verdict(f"unreadable output: {exc!r}")
    if v.failed and not req.edge and code == 0:
        v.incorrect = True
    return v


def _disagreement(got: tuple[float, ...], total: float, ref: tuple[float, ...],
                  rel: float) -> str:
    """Why ``got`` (in the order of CHECKED) and ``total`` disagree with the
    reference ``ref``; "" when they agree."""
    for key, g, r in zip(CHECKED, got, ref):
        if not close(g, r, rel):
            return f"{key} {g!r} != reference {r!r}"
    # Each of the three printed values carries its own rounding.
    vf, cross = got[0], got[1]
    if not abs(total - (vf + cross)) <= rel * (abs(vf) + abs(cross) + abs(total)) + ABS_FLOOR:
        return f"rate_total {total!r} != rate_vf + rate_cross"
    return ""


def _rate(req: Request, stdout: str, tmp) -> Verdict:
    fmt = req.params["format"]
    if fmt == "json":
        raw = json.loads(stdout)
        raw["T_eff"] = raw["effective_temperature"]
    elif fmt == "csv":
        header, row = stdout.strip().splitlines()
        raw = dict(zip(header.split(","), row.split(",")))
        raw["T_eff"] = raw["effective_temperature"]
    else:
        raw = dict(line.split(None, 1) for line in stdout.strip().splitlines())
        raw = {k: v.split()[0] for k, v in raw.items()}
    got = tuple(float(raw[k]) for k in CHECKED)
    total = float(raw["rate_total"])
    if not all(math.isfinite(v) for v in got + (total,)):
        return Verdict("non-finite output")
    p = req.params
    try:
        ref = closed_forms(p["omega0"], p["accel"], p["coupling"], p["state"])
    except (ArithmeticError, ValueError):
        return Verdict("finite output where no finite closed form exists")
    reason = _disagreement(got, total, ref, HUMAN_REL_TOL if fmt == "human" else REL_TOL)
    return Verdict(reason, records=0 if reason else 1)


def sweep_grid(p: dict) -> list[float]:
    n, lo, hi = p["points"], p["accel_min"], p["accel_max"]
    if p["scale"] == "log":
        llo, lhi = math.log(lo), math.log(hi)
        return [math.exp(llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _sweep(req: Request, stdout: str, tmp) -> Verdict:
    """Check every CSV row against the reference; report the file's sha256."""
    path = tmp / req.params["output"]
    data = path.read_bytes()
    path.unlink()
    sha = hashlib.sha256(data).hexdigest()
    lines = data.decode().splitlines()
    header = ["accel", "rate_vf", "rate_cross", "rate_total", "poly_factor",
              "planck_n", "T_eff"]
    grid = sweep_grid(req.params)
    if lines[0].split(",") != header or len(lines) - 1 != len(grid):
        return Verdict("wrong CSV header or row count", extra={"sha256": sha})
    w, state = req.params["omega0"], req.params["state"]
    for line, a in zip(lines[1:], grid):
        accel, vf, cross, total, poly, n, t_eff = map(float, line.split(","))
        if not close(accel, a):
            return Verdict(f"accel {accel!r} != grid {a!r}", extra={"sha256": sha})
        try:
            ref = closed_forms(w, accel, 1.0, state)
        except (ArithmeticError, ValueError):
            reason = "no finite closed form"
        else:
            reason = _disagreement((vf, cross, poly, n, t_eff), total, ref, REL_TOL)
        if reason:
            return Verdict(f"row accel={accel!r}: {reason}", extra={"sha256": sha})
    return Verdict(records=len(grid), extra={"sha256": sha})


def _verify(req: Request, code: int, stdout: str) -> Verdict:
    """A verify entry fails on ``error`` or ``passed: false``; its closed forms
    must match the reference whenever it carries them."""
    (entry,) = json.loads(stdout)["entries"]
    if "error" in entry:
        return Verdict(f"verify error: {entry['error']}")
    p = req.params
    ref = closed_forms(p["omega0"], p["accel"], 1.0, p["state"])
    rel = {}
    for key, r in zip(("vf", "cross"), ref):
        if not close(entry[f"closed_{key}"], r):
            return Verdict(f"closed_{key} != reference", incorrect=True)
        rel[key] = abs(entry[f"numeric_{key}"] - r) / abs(r)
    if not all(math.isfinite(v) for v in rel.values()):
        return Verdict("non-finite numeric value", incorrect=code == 0)
    if not entry["passed"]:
        return Verdict(f"verify passed=false (rel_err {max(rel.values()):.3g})",
                       extra={"rel_err": max(rel.values())})
    if code != 0:
        return Verdict(f"exit {code} with a passing entry", incorrect=True)
    return Verdict(records=1, extra={"rel_err": max(rel.values())})


def _selfcheck(req: Request, stdout: str, tmp) -> Verdict:
    lines = stdout.strip().splitlines()
    if not lines or not all(line.endswith("pass") for line in lines):
        return Verdict("selfcheck suite not passed")
    if "nan" in stdout or "inf" in stdout:
        return Verdict("non-finite deviation")
    return Verdict(records=1)
