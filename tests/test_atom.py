"""Two-level atom transition and susceptibility functions."""
import cmath
import math

import numpy as np
import pytest

from diracrates import atom as at
from diracrates.atom import TwoLevelAtom


class TestTwoLevelAtom:
    def test_validation(self):
        for omega0 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TwoLevelAtom(omega0=omega0)
        with pytest.raises(ValueError):
            TwoLevelAtom(omega0=1.0, level="superposed")


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
            assert at.susceptibility_c(TwoLevelAtom(1.0, level), 0.0) == at.CHANNEL_WEIGHT


class TestSusceptibilityC:
    def test_coincidence(self):
        assert at.susceptibility_c(TwoLevelAtom(3.0, "excited"), 0.0) == 0.25

    def test_even(self):
        a = TwoLevelAtom(1.0, "ground")
        assert at.susceptibility_c(a, 0.3) == pytest.approx(
            at.susceptibility_c(a, -0.3), abs=1e-15
        )

    def test_half_period(self):
        a = TwoLevelAtom(1.0, "excited")
        assert at.susceptibility_c(a, math.pi) == pytest.approx(-0.25, abs=1e-15)

    def test_bounded(self):
        a = TwoLevelAtom(2.5, "ground")
        for dtau in np.linspace(-10, 10, 101):
            assert abs(at.susceptibility_c(a, dtau)) <= 0.25 + 1e-15


class TestSusceptibilityChi:
    def test_coincidence(self):
        assert at.susceptibility_chi(TwoLevelAtom(1.0, "ground"), 0.0) == 0

    def test_quarter_period(self):
        a = TwoLevelAtom(1.0, "excited")
        assert at.susceptibility_chi(a, math.pi / 2) == pytest.approx(
            0.25j, abs=1e-15
        )

    def test_odd(self):
        a = TwoLevelAtom(1.0, "excited")
        assert at.susceptibility_chi(a, 0.4) == pytest.approx(
            -at.susceptibility_chi(a, -0.4), abs=1e-15
        )

    def test_level_sign_flip(self):
        g = TwoLevelAtom(1.3, "ground")
        e = TwoLevelAtom(1.3, "excited")
        for dtau in (0.2, 1.0, 2.7):
            assert at.susceptibility_chi(g, dtau) == pytest.approx(
                -at.susceptibility_chi(e, dtau), abs=1e-15
            )

    def test_bounded(self):
        a = TwoLevelAtom(2.5, "excited")
        for dtau in np.linspace(-10, 10, 101):
            assert abs(at.susceptibility_chi(a, dtau)) <= 0.25 + 1e-15


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
                assert abs(at.susceptibility_c(a, dtau) - c) <= 1e-15
                assert abs(at.susceptibility_chi(a, dtau) - chi) <= 1e-15

    def test_complex_dtau(self):
        a = TwoLevelAtom(1.3, "ground")
        dtau = 0.8 - 0.5j
        c, chi = self.exponential_forms(a, dtau)
        assert at.susceptibility_c(a, dtau) == pytest.approx(c, rel=1e-15, abs=0)
        assert at.susceptibility_chi(a, dtau) == pytest.approx(chi, rel=1e-15, abs=0)

    def test_array_dtau(self):
        a = TwoLevelAtom(2.0, "excited")
        dtau = np.linspace(-3.0, 3.0, 13) - 0.25j
        c = at.susceptibility_c(a, dtau)
        chi = at.susceptibility_chi(a, dtau)
        assert c.shape == chi.shape == dtau.shape
        assert list(c) == [at.susceptibility_c(a, t) for t in dtau]
        assert list(chi) == [at.susceptibility_chi(a, t) for t in dtau]
