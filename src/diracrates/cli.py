"""Command-line interface: rate, sweep, verify, selfcheck.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification
failure, 4 identity failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import oracle, rates, selfcheck
from .atom import TwoLevelAtom

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IDENTITY = 4

# Acceleration-to-frequency ratios used by `verify` when no explicit
# acceleration is given.
DEFAULT_VERIFY_RATIOS = (0.1, 0.3, 1.0, 3.0, 10.0, 100.0)

SWEEP_HEADER = "accel,rate_vf,rate_cross,rate_total,poly_factor,planck_n,T_eff"

# The source-field-only contribution is higher order in the coupling; `rate`
# reports it as 0 with this note.
RADIATION_REACTION = 0.0
RADIATION_REACTION_NOTE = "order mu^3, neglected"


def _machine(x: float) -> str:
    return format(x, ".17g")


def _human(x: float) -> str:
    return format(x, ".6g")


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace, config: dict, key: str, default, cast=float):
    """Flag value if given, else config file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _resolve_accel(args, config) -> float:
    si = _resolve(args, config, "si_accel", None)
    if si is not None:
        return rates.si_acceleration_to_natural(si)
    return _resolve(args, config, "accel", 0.0)


def _row(atom: TwoLevelAtom, accel: float, coupling: float) -> tuple[float, ...]:
    """One point in the order of SWEEP_HEADER."""
    rb = rates.rate_total(atom, accel, coupling)
    t_eff = accel / (2.0 * math.pi)
    return accel, rb.vf, rb.cross, rb.total, rb.poly_factor, rb.planck_n, t_eff


def cmd_rate(args, config) -> int:
    omega0 = _resolve(args, config, "omega0", 1.0)
    accel = _resolve_accel(args, config)
    coupling = _resolve(args, config, "coupling", 1.0)
    state = _resolve(args, config, "state", "ground", cast=str)
    fmt = _resolve(args, config, "format", "human", cast=str)
    _, vf, cross, total, poly, planck_n, t_eff = _row(
        TwoLevelAtom(omega0, state), accel, coupling
    )
    fields = {
        "omega0": omega0,
        "accel": accel,
        "coupling": coupling,
        "state": state,
        "rate_vf": vf,
        "rate_cross": cross,
        "rate_total": total,
        "radiation_reaction": RADIATION_REACTION,
        "radiation_reaction_note": RADIATION_REACTION_NOTE,
        "poly_factor": poly,
        "planck_n": planck_n,
        "effective_temperature": t_eff,
    }

    if fmt == "json":
        print(json.dumps(fields, indent=2))
    elif fmt == "csv":
        keys = [
            "omega0", "accel", "coupling", "state", "rate_vf", "rate_cross",
            "rate_total", "poly_factor", "planck_n", "effective_temperature",
        ]
        print(",".join(keys))
        print(
            ",".join(
                fields[k] if isinstance(fields[k], str) else _machine(fields[k])
                for k in keys
            )
        )
    else:
        print(f"state                {fields['state']}")
        print(f"omega0               {_human(fields['omega0'])}")
        print(f"accel                {_human(fields['accel'])}")
        print(f"coupling             {_human(fields['coupling'])}")
        print(f"rate_vf              {_human(fields['rate_vf'])}")
        print(f"rate_cross           {_human(fields['rate_cross'])}")
        print(f"rate_total           {_human(fields['rate_total'])}")
        print(
            f"radiation_reaction   {_human(fields['radiation_reaction'])}"
            f"  ({fields['radiation_reaction_note']})"
        )
        print(f"poly_factor          {_human(fields['poly_factor'])}")
        print(f"planck_n             {_human(fields['planck_n'])}")
        print(f"T_eff                {_human(fields['effective_temperature'])}")
    return EXIT_OK


def _sweep_grid(amin: float, amax: float, points: int, scale: str) -> list[float]:
    if scale == "log":
        if amin <= 0:
            raise ValueError("log scale requires accel-min > 0")
        lo, hi = math.log(amin), math.log(amax)
        return [math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    return [amin + (amax - amin) * i / (points - 1) for i in range(points)]


def cmd_sweep(args, config) -> int:
    omega0 = _resolve(args, config, "omega0", 1.0)
    coupling = _resolve(args, config, "coupling", 1.0)
    state = _resolve(args, config, "state", "ground", cast=str)
    amin = _resolve(args, config, "accel_min", 0.0)
    amax = _resolve(args, config, "accel_max", None)
    points = int(_resolve(args, config, "points", 50, cast=int))
    scale = _resolve(args, config, "scale", "linear", cast=str)
    output = _resolve(args, config, "output", None, cast=str)

    if amax is None:
        raise ValueError("--accel-max is required for sweep")
    if not (amax > amin >= 0) or points < 2:
        raise ValueError("need accel_min >= 0, accel_max > accel_min, points >= 2")

    atom = TwoLevelAtom(omega0, state)
    # Every row is computed before anything is written, so an error leaves
    # no partial output.
    template = ",".join(["%.17g"] * 7) + "\n"
    lines = [SWEEP_HEADER + "\n"]
    lines += [
        template % _row(atom, a, coupling)
        for a in _sweep_grid(amin, amax, points, scale)
    ]
    if output:
        with open(output, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def cmd_verify(args, config) -> int:
    omega0 = _resolve(args, config, "omega0", 1.0)
    coupling = _resolve(args, config, "coupling", 1.0)
    accel = _resolve(args, config, "accel", None)
    state = _resolve(args, config, "state", None, cast=str)
    tol = _resolve(args, config, "tol", 1e-3)
    fmt = _resolve(args, config, "format", "human", cast=str)

    accels = [accel] if accel is not None else [r * omega0 for r in DEFAULT_VERIFY_RATIOS]
    states = [state] if state else ["ground", "excited"]

    entries = []
    all_pass = True
    for a in accels:
        for st in states:
            atom = TwoLevelAtom(omega0, st)
            try:
                rep = oracle.verify_rates(atom, a, coupling, tol=tol)
            except oracle.ConvergenceError as exc:
                entries.append(
                    {"accel": a, "state": st, "error": str(exc),
                     "diagnostics": exc.diagnostics}
                )
                all_pass = False
                continue
            entries.append(
                {
                    "accel": a,
                    "state": st,
                    "numeric_vf": rep.numeric_vf,
                    "closed_vf": rep.closed_vf,
                    "numeric_cross": rep.numeric_cross,
                    "closed_cross": rep.closed_cross,
                    "rel_err_vf": rep.rel_err_vf,
                    "rel_err_cross": rep.rel_err_cross,
                    "quadrature": rep.quadrature,
                    "passed": rep.passed,
                }
            )
            all_pass = all_pass and rep.passed

    if fmt == "json":
        print(
            json.dumps(
                {"omega0": omega0, "coupling": coupling, "tol": tol,
                 "entries": entries, "passed": all_pass},
                indent=2,
            )
        )
    else:
        for e in entries:
            if "error" in e:
                print(
                    f"accel={_human(e['accel'])} state={e['state']:8s} "
                    f"CONVERGENCE ERROR: {e['error']}"
                )
                continue
            status = "pass" if e["passed"] else "FAIL"
            print(
                f"accel={_human(e['accel'])} state={e['state']:8s} "
                f"rel_err_vf={e['rel_err_vf']:.2e} "
                f"rel_err_cross={e['rel_err_cross']:.2e}  {status}"
            )
        print(f"overall: {'pass' if all_pass else 'FAIL'} (tol={tol:g})")
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_selfcheck(args, config) -> int:
    results = selfcheck.run_all()
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name}: {r.cases} cases checked, max deviation "
            f"{r.max_deviation:.2e} (tol {r.tolerance:g})  {status}"
        )
    if all(r.passed for r in results):
        return EXIT_OK
    for r in results:
        if not r.passed:
            print(f"identity violated: {r.name}", file=sys.stderr)
    return EXIT_IDENTITY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracrates",
        description=(
            "Excitation/de-excitation rates of a uniformly accelerated "
            "two-level atom coupled to Dirac vacuum fluctuations "
            "(natural units)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--omega0", type=float, help="level splitting (energy)")
        p.add_argument("--coupling", type=float, help="coupling constant mu")
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument(
            "--format", choices=["human", "json", "csv"], help="output format"
        )

    p_rate = sub.add_parser("rate", help="single-point rate breakdown")
    common(p_rate)
    p_rate.add_argument("--accel", type=float, help="proper acceleration")
    p_rate.add_argument(
        "--si-accel", type=float, dest="si_accel",
        help="proper acceleration in m/s^2 (converted to 1/s)",
    )
    p_rate.add_argument("--state", choices=["ground", "excited"])
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="acceleration sweep to CSV")
    common(p_sweep)
    p_sweep.add_argument("--accel-min", type=float, dest="accel_min")
    p_sweep.add_argument("--accel-max", type=float, dest="accel_max")
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--scale", choices=["linear", "log"])
    p_sweep.add_argument("--state", choices=["ground", "excited"])
    p_sweep.add_argument("--output", help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="compare closed forms against the quadrature oracle"
    )
    common(p_verify)
    p_verify.add_argument("--accel", type=float, help="single acceleration")
    p_verify.add_argument("--state", choices=["ground", "excited"])
    p_verify.add_argument("--tol", type=float, help="relative tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("selfcheck", help="run algebra identity suites")
    common(p_check)
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except OverflowError as exc:
        parser.exit(EXIT_USAGE, f"error: result out of double range ({exc})\n")


if __name__ == "__main__":
    sys.exit(main())
