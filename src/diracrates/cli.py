"""Command-line interface: rate, sweep, verify, selfcheck.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification
failure, 4 identity failure.
"""
import argparse
import math
import os
import sys
from collections.abc import Callable, Iterator

# `cmd_selfcheck` imports `selfcheck` when called, and `cmd_verify` its
# `oracle`: `rate` and `sweep` load neither. `json` is imported only where
# JSON is written.
from . import __version__, rates
from .atom import LEVELS, TwoLevelAtom

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IDENTITY = 4

# Acceleration-to-frequency ratios used by `verify` when no explicit
# acceleration is given.
DEFAULT_VERIFY_RATIOS = (0.1, 0.3, 1.0, 3.0, 10.0, 100.0)

SWEEP_HEADER = "accel,rate_vf,rate_cross,rate_total,poly_factor,planck_n,T_eff"
# From this many points on, a forked child computes and formats the upper
# half of a sweep (~4.6 us a row) while this process does the lower half.
# Below 1e5 points that gained nothing measured: median ms of `sweep
# --accel-max 3 --points N --output F`, split vs one pass (`taskset -c 0`),
# 15 alternating runs, two sets, 2-vCPU x86-64 VM: N = 1e4 149-162 vs
# 112-156, 2e4 149-237 vs 145-224, 5e4 290-357 vs 337-343, 1e5 452 vs 550-571.
SPLIT_MIN_POINTS = 10_000
# Every row is held in memory until the sweep is written.  At this many
# (the oracle's node limit), a sweep to --output takes ~4.4 s, peaks at
# ~184 MB and writes 149 MB on a 2-vCPU x86-64 VM.
MAX_POINTS = 1_000_000
# The split's pipe and --output move bytes in chunks of a pipe's capacity:
# with the default buffer, st_blksize (often 4 KiB), they are ~1.5x slower.
CHUNK = 1 << 16
# A split sweep's child makes sure its parent lives before each block of
# this many rows (~45 ms of work), and so exits soon after the parent dies.
ORPHAN_CHECK_ROWS = 10_000

# The source-field-only contribution is higher order in the coupling; `rate`
# reports it as 0 with this note.
RADIATION_REACTION = 0.0
RADIATION_REACTION_NOTE = "order mu^3, neglected"


def _text(value, spec: str) -> str:
    return value if isinstance(value, str) else format(value, spec)


def _si_accel(text: str) -> float:
    """Type of --si-accel: m/s^2 in, the natural scale a/c in 1/s out."""
    try:
        return rates.si_acceleration_to_natural(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _with_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with each `key = value` line of its --config file inserted as
    `--key=value` right after the command, so that the parser checks config
    values like flags and a flag on the command line wins."""
    # A finder with the command's options finds --config first, resolving
    # abbreviations as the full parser would before it stops on a required
    # flag the file supplies. Only a command taking --config reads it, not with -h.
    command = parser.commands.get(argv[0]) if argv else None
    if command is None or "--config" not in command._option_string_actions:
        return argv
    finder = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    finder.error = command.error
    for option, action in command._option_string_actions.items():
        finder.add_argument(option, dest=action.dest, nargs="?")
    found = vars(finder.parse_known_args(argv[1:])[0])  # the options given
    path = found.get("config")
    if path is None or "help" in found:
        return argv
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason})") from None
    flags = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {line!r}")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    if "config" in vars(finder.parse_known_args(flags)[0]):
        raise ValueError(f"{path}: a config file cannot name another config file")
    return argv[:1] + flags + argv[1:]


def cmd_rate(args) -> int:
    accel, vf, cross, total, poly, planck_n, t_eff = rates.rate_total(
        TwoLevelAtom(args.omega0, args.state), args.accel, args.coupling
    )
    fields = {
        "omega0": args.omega0,
        "accel": accel,
        "coupling": args.coupling,
        "state": args.state,
        "rate_vf": vf,
        "rate_cross": cross,
        "rate_total": total,
        "radiation_reaction": RADIATION_REACTION,
        "radiation_reaction_note": RADIATION_REACTION_NOTE,
        "poly_factor": poly,
        "planck_n": planck_n,
        "effective_temperature": t_eff,
    }

    if args.format == "json":
        import json

        print(json.dumps({**fields, "version": __version__}, indent=2))
    elif args.format == "csv":  # a constant 0 and its note have no column
        del fields["radiation_reaction"], fields["radiation_reaction_note"]
        print(",".join(fields))
        print(",".join(_text(value, ".17g") for value in fields.values()))
    else:
        note = fields.pop("radiation_reaction_note")
        for key, value in {"state": args.state, **fields}.items():
            label = "T_eff" if key == "effective_temperature" else key
            tail = f"  ({note})" if key == "radiation_reaction" else ""
            print(f"{label:21s}{_text(value, '.6g')}{tail}")
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_grid(
    amin: float, amax: float, points: int, scale: str, indices: range
) -> Iterator[float]:
    """The accelerations of the grid's rows `indices`, each from its index
    alone, so that any split of the rows gives the same bits. Rows 0 and
    points - 1 are amin and amax exactly, which the formulas can miss."""
    last = points - 1
    if scale == "log":
        lo, hi = math.log(amin), math.log(amax)
    for i in indices:
        if i == 0:
            yield amin
        elif i == last:
            yield amax
        elif scale == "log":
            yield math.exp(lo + (hi - lo) * i / last)
        else:
            yield amin + (amax - amin) * i / last


def _lines_in_two(lines: Callable[[int, int], list[bytes]], n: int) -> list[bytes]:
    """lines(0, n), as lines(0, k) + lines(k, n) with k = n // 2: a forked
    child runs lines(k, n) while this process runs lines(0, k). The child's
    half is returned as the chunks read from the pipe, not one item per line.

    Errors are not sent over: if the child cannot deliver all of its lines,
    this process runs lines(k, n) itself, and so raises what the child
    raised. An error in lines(0, k) kills the child and is raised first.
    The child builds its half in blocks of ORPHAN_CHECK_ROWS, so `lines`
    must give each row from its index alone. If this process is killed,
    the child exits at its next block.
    """
    k = n // 2
    try:
        r, w = os.pipe()
    except OSError:
        return lines(0, k) + lines(k, n)
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return lines(0, k) + lines(k, n)
    if pid == 0:
        try:
            os.close(r)
            half = []
            for lo in range(k, n, ORPHAN_CHECK_ROWS):
                if os.getppid() != parent:  # orphaned: no one will read the pipe
                    os._exit(1)
                half += lines(lo, min(lo + ORPHAN_CHECK_ROWS, n))
            with open(w, "wb", buffering=CHUNK) as out:
                out.writelines(half)
        finally:  # the status is not read: the line count tells
            os._exit(0)  # neither returns to the caller nor flushes its files
    os.close(w)
    chunks = []
    try:
        head = lines(0, k)
        while chunk := os.read(r, CHUNK):
            chunks.append(chunk)
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        try:
            os.waitpid(pid, 0)  # reaps; the line count, not the status, tells
        except ChildProcessError:  # reaped already, where SIGCHLD is ignored
            pass
    if sum(c.count(b"\n") for c in chunks) != n - k:
        return head + lines(k, n)
    return head + chunks


def cmd_sweep(args) -> int:
    amin, amax, points = args.accel_min, args.accel_max, args.points
    if not (amax > amin >= 0) or points < 2:
        raise ValueError("need accel_min >= 0, accel_max > accel_min, points >= 2")
    if points > MAX_POINTS:
        raise ValueError(f"points must be at most {MAX_POINTS}, got {points}")
    if amax == math.inf:  # the last row would fail too; this names the flag
        raise ValueError(f"accel_max must be finite, got {amax}")

    atom = TwoLevelAtom(args.omega0, args.state)
    if args.scale == "log" and amin <= 0:
        raise ValueError("log scale requires accel-min > 0")
    template = b",".join([b"%.17g"] * 7) + b"\n"

    def lines(lo: int, hi: int) -> list[bytes]:
        grid = _sweep_grid(amin, amax, points, args.scale, range(lo, hi))
        return [template % row for row in rates.rate_rows(atom, grid, args.coupling)]

    # Every row is computed and formatted before anything is written, so an
    # error leaves no partial output.
    if points >= SPLIT_MIN_POINTS and hasattr(os, "fork") and _usable_cpus() > 1:
        rows = _lines_in_two(lines, points)
    else:
        rows = lines(0, points)
    if args.output is not None:
        with open(args.output, "wb", buffering=CHUNK) as fh:
            fh.write(SWEEP_HEADER.encode() + b"\n")
            fh.writelines(rows)
    else:  # stdout may be any text stream
        sys.stdout.write(SWEEP_HEADER + "\n")
        sys.stdout.writelines(map(bytes.decode, rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle

    omega0, coupling, tol = args.omega0, args.coupling, args.tol
    accels = ([r * omega0 for r in DEFAULT_VERIFY_RATIOS] if args.accel is None
              else [args.accel])
    states = [args.state] if args.state else LEVELS

    entries = []
    for a in accels:
        try:
            reports = oracle.verify_rates(omega0, a, coupling, states, tol=tol)
            results = [r._asdict() for r in reports]
        except oracle.ConvergenceError as exc:
            error = {"error": str(exc), "diagnostics": exc.diagnostics}
            results = [error] * len(states)
        entries += ({"accel": a, "state": st, **r} for st, r in zip(states, results))
    all_pass = all(e.get("passed", False) for e in entries)

    if args.format == "json":
        import json

        print(
            json.dumps(
                {"omega0": omega0, "coupling": coupling, "tol": tol,
                 "entries": entries, "passed": all_pass,
                 "version": __version__},
                indent=2,
            )
        )
    else:
        for e in entries:
            if "error" in e:
                outcome = f"CONVERGENCE ERROR: {e['error']}"
            else:
                outcome = (f"rel_err_vf={e['rel_err_vf']:.2e} "
                           f"rel_err_cross={e['rel_err_cross']:.2e}  "
                           f"{'pass' if e['passed'] else 'FAIL'}")
            print(f"accel={e['accel']:.6g} state={e['state']:8s} {outcome}")
        print(f"overall: {'pass' if all_pass else 'FAIL'} (tol={tol:g})")
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_selfcheck(args) -> int:
    from . import selfcheck

    results = selfcheck.run_all()
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name}: {r.cases} cases checked, max deviation "
            f"{r.max_deviation:.2e} (tol {r.tolerance:g})  {status}"
        )
    failed = [r.name for r in results if not r.passed]
    for name in failed:
        print(f"identity violated: {name}", file=sys.stderr)
    return EXIT_IDENTITY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; its `commands` maps each command to its parser."""
    parser = argparse.ArgumentParser(
        prog="diracrates",
        description=(
            "Excitation/de-excitation rates of a uniformly accelerated "
            "two-level atom coupled to Dirac vacuum fluctuations "
            "(natural units)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=()):
        p.add_argument(
            "--omega0", type=float, default=1.0, help="level splitting (energy)"
        )
        p.add_argument(
            "--coupling", type=float, default=1.0, help="coupling constant mu"
        )
        p.add_argument("--config", help="key=value config file; flags override")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="human", help="output format"
            )

    p_rate = sub.add_parser("rate", help="single-point rate breakdown")
    common(p_rate, ["human", "json", "csv"])
    p_rate.add_argument("--accel", type=float, default=0.0, help="proper acceleration")
    # Writes the same value as --accel, whose default stands; the later wins.
    p_rate.add_argument(
        "--si-accel", type=_si_accel, dest="accel", metavar="SI_ACCEL",
        help="proper acceleration in m/s^2 (converted to 1/s)",
    )
    p_rate.add_argument("--state", choices=LEVELS, default="ground")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="acceleration sweep to CSV")
    common(p_sweep)
    p_sweep.add_argument("--accel-min", type=float, default=0.0)
    p_sweep.add_argument("--accel-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--state", choices=LEVELS, default="ground")
    p_sweep.add_argument("--output", help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="compare closed forms against the quadrature oracle"
    )
    common(p_verify, ["human", "json"])
    p_verify.add_argument("--accel", type=float, help="single acceleration")
    p_verify.add_argument("--state", choices=LEVELS)
    p_verify.add_argument("--tol", type=float, default=1e-3, help="relative tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("selfcheck", help="run algebra identity suites")
    p_check.set_defaults(func=cmd_selfcheck)

    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(argv, parser))
        if sys.stdout is None and getattr(args, "output", None) is None:
            raise OSError("stdout is closed")  # as by `>&-`
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except OverflowError as exc:
        parser.exit(EXIT_USAGE, f"error: result out of double range ({exc})\n")
