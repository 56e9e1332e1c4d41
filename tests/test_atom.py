"""Two-level atom transition and susceptibility functions."""
import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from diracrates import atom as at
from diracrates.atom import TwoLevelAtom
from diracrates.oracle import susceptibility_c, susceptibility_chi


class TestTwoLevelAtom:
    def test_validation(self):
        for omega0 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(
                ValueError, match=rf"^omega0 must be positive and finite, got {omega0}$"
            ):
                TwoLevelAtom(omega0=omega0)
        with pytest.raises(
            ValueError, match=r"^level must be 'ground' or 'excited', got 'superposed'$"
        ):
            TwoLevelAtom(omega0=1.0, level="superposed")
        # omega0 is checked first.
        with pytest.raises(ValueError, match="^omega0"):
            TwoLevelAtom(0.0, "superposed")

    def test_replace_and_make_validate(self):
        # namedtuple's own _make, which _replace calls, builds the tuple
        # without __new__; both must go through the constructor's checks.
        with pytest.raises(ValueError, match=r"^omega0 must be positive and finite, got 0.0$"):
            TwoLevelAtom(1.0)._replace(omega0=0.0)
        with pytest.raises(
            ValueError, match=r"^level must be 'ground' or 'excited', got 'mixed'$"
        ):
            TwoLevelAtom._make((1.0, "mixed"))
        changed = TwoLevelAtom(1.0)._replace(level="excited")
        assert type(changed) is TwoLevelAtom and changed == (1.0, "excited")
        assert changed.omega_bd == 1.0
        with pytest.raises(TypeError):
            TwoLevelAtom._make((1.0, "ground", 0.5))

    def test_frozen(self):
        atom = TwoLevelAtom(1.0)
        for name, value in (("omega0", 2.0), ("level", "excited"), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(atom, name, value)
        with pytest.raises(AttributeError):
            del atom.omega0
        assert (atom.omega0, atom.level) == (1.0, "ground")

    def test_value_semantics(self):
        atom = TwoLevelAtom(1.0, "ground")
        same = TwoLevelAtom(omega0=1.0, level="ground")
        for twin in (same, (1.0, "ground")):
            assert atom == twin and not atom != twin
            assert hash(atom) == hash(twin)
        assert len({atom, same}) == 1
        for other in (TwoLevelAtom(1.0, "excited"), TwoLevelAtom(2.0, "ground"), None):
            assert atom != other and not atom == other
        assert repr(atom) == "TwoLevelAtom(omega0=1.0, level='ground')"
        assert copy.copy(atom) == atom
        assert pickle.loads(pickle.dumps(atom)) == atom


class TestChannels:
    """The single transition: signed omega_bd and its matrix-element weight."""

    def test_excited(self):
        assert TwoLevelAtom(1.0, "excited").omega_bd == 1.0

    def test_ground(self):
        assert TwoLevelAtom(2.0, "ground").omega_bd == -2.0

    def test_weight_sum(self):
        # |<b|R2(0)|d>|^2 = |i/2|^2; the susceptibility at coincidence is it.
        assert at.CHANNEL_WEIGHT == 0.25
        for level in ("ground", "excited"):
            w = TwoLevelAtom(1.0, level).omega_bd
            assert susceptibility_c(w, 0.0) == at.CHANNEL_WEIGHT

    def test_weight_from_raising_and_lowering(self):
        # W is shared by the closed forms and the oracle, so verify cannot
        # see it; derive it from R2 = i(R_- - R_+)/2 in the basis (|+>, |->).
        r_plus = [[0, 1], [0, 0]]  # |+><-|
        r_minus = [[0, 0], [1, 0]]  # |-><+|
        r2 = [[0.5j * (m - p) for m, p in zip(rm, rp)]
              for rm, rp in zip(r_minus, r_plus)]
        assert r2[0][0] == r2[1][1] == 0
        for b, d in ((1, 0), (0, 1)):  # down from |+>, up from |->
            assert abs(r2[b][d]) ** 2 == at.CHANNEL_WEIGHT


class TestSusceptibilityC:
    def test_coincidence(self):
        assert susceptibility_c(TwoLevelAtom(3.0, "excited").omega_bd, 0.0) == 0.25

    def test_even(self):
        a = TwoLevelAtom(1.0, "ground")
        assert susceptibility_c(a.omega_bd, 0.3) == pytest.approx(
            susceptibility_c(a.omega_bd, -0.3), abs=1e-15
        )

    def test_half_period(self):
        a = TwoLevelAtom(1.0, "excited")
        assert susceptibility_c(a.omega_bd, math.pi) == pytest.approx(-0.25, abs=1e-15)

    def test_bounded(self):
        a = TwoLevelAtom(2.5, "ground")
        for dtau in np.linspace(-10, 10, 101):
            assert abs(susceptibility_c(a.omega_bd, dtau)) <= 0.25 + 1e-15


class TestSusceptibilityChi:
    def test_coincidence(self):
        assert susceptibility_chi(TwoLevelAtom(1.0, "ground").omega_bd, 0.0) == 0

    def test_quarter_period(self):
        a = TwoLevelAtom(1.0, "excited")
        assert susceptibility_chi(a.omega_bd, math.pi / 2) == pytest.approx(
            0.25j, abs=1e-15
        )

    def test_odd(self):
        a = TwoLevelAtom(1.0, "excited")
        assert susceptibility_chi(a.omega_bd, 0.4) == pytest.approx(
            -susceptibility_chi(a.omega_bd, -0.4), abs=1e-15
        )

    def test_level_sign_flip(self):
        g = TwoLevelAtom(1.3, "ground")
        e = TwoLevelAtom(1.3, "excited")
        for dtau in (0.2, 1.0, 2.7):
            assert susceptibility_chi(g.omega_bd, dtau) == pytest.approx(
                -susceptibility_chi(e.omega_bd, dtau), abs=1e-15
            )

    def test_bounded(self):
        a = TwoLevelAtom(2.5, "excited")
        for dtau in np.linspace(-10, 10, 101):
            assert abs(susceptibility_chi(a.omega_bd, dtau)) <= 0.25 + 1e-15


class TestSusceptibilityForms:
    """W cos and i W sin against the exponential forms, and their arguments."""

    @staticmethod
    def exponential_forms(atom, dtau):
        w = atom.omega_bd
        plus, minus = cmath.exp(1j * w * dtau), cmath.exp(-1j * w * dtau)
        half_w = 0.5 * at.CHANNEL_WEIGHT
        return half_w * (plus + minus), half_w * (plus - minus)

    def test_real_dtau_matches_exponentials(self):
        for level in ("ground", "excited"):
            a = TwoLevelAtom(1.7, level)
            for dtau in np.linspace(-20.0, 20.0, 81):
                c, chi = self.exponential_forms(a, dtau)
                assert abs(susceptibility_c(a.omega_bd, dtau) - c) <= 1e-15
                assert abs(susceptibility_chi(a.omega_bd, dtau) - chi) <= 1e-15

    def test_complex_dtau(self):
        a = TwoLevelAtom(1.3, "ground")
        dtau = 0.8 - 0.5j
        c, chi = self.exponential_forms(a, dtau)
        assert susceptibility_c(a.omega_bd, dtau) == pytest.approx(c, rel=1e-15, abs=0)
        assert susceptibility_chi(a.omega_bd, dtau) == pytest.approx(chi, rel=1e-15, abs=0)

    def test_scalar_dtau_returns_complex(self):
        # One dtau per call, real or complex; the value is a Python complex.
        a = TwoLevelAtom(2.0, "excited")
        for dtau in (0.0, 1.5, np.float64(-2.5), 0.8 - 0.25j):
            assert type(susceptibility_c(a.omega_bd, dtau)) is complex
            assert type(susceptibility_chi(a.omega_bd, dtau)) is complex
