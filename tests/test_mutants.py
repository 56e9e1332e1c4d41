"""Seeded mutants: which of them `verify` or `selfcheck` catches.

Each mutant changes one number, in process, and `cli.main(["verify", ...])`
or `cli.main(["selfcheck"])` runs against it.  A constant is patched on
every module that reads it; a literal is changed in an `ast`-edited copy of
its module, exec'd under its name and bound where its readers look it up.
A mutant that `verify` passes is listed as an expected survivor, with its
reason.
"""
import ast
import contextlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import pytest

import diracrates
from diracrates import atom, cli, oracle, rates, selfcheck
from diracrates.atom import TwoLevelAtom


class _Replace(ast.NodeTransformer):
    """Replaces each expression that unparses to `old` by `new`."""

    def __init__(self, old: str, new: str):
        self.old, self.new, self.count = old, new, 0

    def visit(self, node):
        if isinstance(node, ast.expr) and ast.unparse(node) == self.old:
            self.count += 1
            return ast.parse(self.new, mode="eval").body
        return super().visit(node)


def literal(old, new, module=rates, readers=(cli, oracle)):
    """A mutant that reads `new` for the one expression `old` of `module`,
    bound as `module` in each of `readers`."""
    def apply(monkeypatch):
        replace = _Replace(old, new)
        source = Path(module.__file__).read_text(encoding="utf-8")
        tree = ast.fix_missing_locations(replace.visit(ast.parse(source)))
        assert replace.count == 1, f"{old!r} found {replace.count} times"
        spec = importlib.util.spec_from_file_location(module.__name__, module.__file__)
        mutant = importlib.util.module_from_spec(spec)
        exec(compile(tree, module.__file__, "exec"), mutant.__dict__)
        monkeypatch.setitem(sys.modules, module.__name__, mutant)
        for reader in readers:
            monkeypatch.setattr(reader, module.__name__.rpartition(".")[2], mutant)
    return apply


def constant(name, value, modules):
    """A mutant that reads `value` for `name` in each of `modules`."""
    def apply(monkeypatch):
        for module in modules:
            monkeypatch.setattr(module, name, value)
    return apply


# The default --tol of 1e-3 lies above these mutants' worst rel_err (1e-4
# to 1e-3): the oracle's error estimate allows no tighter default yet
# (ROADMAP item 3).
CLOSED_FORM = "rel_err below the default --tol of 1e-3"
# W enters both the closed forms and the oracle's susceptibilities, so the
# two sides move together and no tolerance of `verify` sees it.
SHARED = "W is shared by the closed forms and the oracle"

# name: (mutant, exit of default `verify`, exit of `verify --tol 1e-5`,
# why default `verify` passes it)
MUTANTS = {
    "poly-5a2": (literal("5.0 * r2", "5.001 * r2"), 0, 3, CLOSED_FORM),
    "poly-4a4": (literal("4.0 * r2 * r2", "4.001 * r2 * r2"), 0, 3, CLOSED_FORM),
    "rate-denom-120.1": (
        constant("_RATE_DENOM", 120.1 * math.pi**3, [rates]), 0, 3, CLOSED_FORM),
    "planck-exponent": (
        literal("2.0 * math.pi * w", "2.0 * math.pi * w * 1.001"), 0, 3, CLOSED_FORM),
    "channel-weight-0.2501": (
        constant("CHANNEL_WEIGHT", 0.2501, [atom, rates, oracle]), 0, 0, SHARED),
}


def verify(*flags):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", *flags])


def closed_point():
    return tuple(cli.rates.rate_total(TwoLevelAtom(1.0, "excited"), 1.0, 1.0))


@pytest.mark.parametrize("name", MUTANTS)
def test_default_verify(name, monkeypatch):
    mutate, default_exit, _, survives_because = MUTANTS[name]
    unmutated = closed_point()
    mutate(monkeypatch)
    assert closed_point() != unmutated  # the mutant is live
    assert verify() == default_exit, survives_because


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_tol_1e_5(name, monkeypatch):
    mutate, _, tight_exit, _ = MUTANTS[name]
    mutate(monkeypatch)
    assert verify("--tol", "1e-5") == tight_exit


@pytest.mark.parametrize("tol", ["1e-5", "1e-6"])
def test_unmutated_passes_tight_tol(tol):
    assert verify("--tol", tol) == cli.EXIT_OK


def test_selfcheck_sees_two_point_gamma1(monkeypatch, capsys):
    # dG_dx's 2.0 times 1 + 1e-6: the gamma^1 part of the two-point matrix.
    # At tau' = -tau that part carries ~1e-6 of the trace and the change went
    # unseen; shifted to aT = 1 it moves the trace by ~3e-6, above 1e-10.
    literal("-dx / (2.0 * _PI2 * sigma * sigma)",
            "-dx / (2.000002 * _PI2 * sigma * sigma)",
            selfcheck, [diracrates])(monkeypatch)
    assert cli.main(["selfcheck"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "identity violated: two-point matrix vs trace\n"
    assert captured.out.count("FAIL") == 1
