# tests/test_core.py
"""Validation and unit-system behavior of the core value objects."""

import math

import pytest
from hypothesis import given, strategies as st

from planarcp import (Atom, HalfSpace, MaterialResponse, NonFinite,
                      PassivityViolation, PerfectLens, SI, SlabWithMirror,
                      Transition, UnitSystem, VACUUM, validate_material)


class TestMaterialResponse:
    def test_accepts_passive(self):
        m = validate_material(2 + 0.5j, 1.5 + 0.1j)
        assert m.epsilon == 2 + 0.5j
        assert m.mu == 1.5 + 0.1j

    def test_rejects_gain_epsilon(self):
        with pytest.raises(PassivityViolation):
            validate_material(2 - 1e-9j, 1)

    def test_rejects_gain_mu(self):
        with pytest.raises(PassivityViolation):
            validate_material(2, 1 - 0.1j)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(NonFinite):
            validate_material(complex(bad, 0), 1)
        with pytest.raises(NonFinite):
            validate_material(1, complex(0, bad) if bad > 0 else complex(bad, 0))

    def test_lossless_and_vacuum_flags(self):
        assert VACUUM.is_vacuum and VACUUM.is_lossless
        assert validate_material(-1, -1).is_lossless
        assert not validate_material(2 + 0.1j, 1).is_lossless
        assert not validate_material(2, 1).is_vacuum

    def test_frozen(self):
        with pytest.raises(AttributeError):
            VACUUM.epsilon = 2.0


class TestTransition:
    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            Transition(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Transition(-1.0, 1.0, 0.0)

    def test_requires_nonzero_dipole(self):
        with pytest.raises(ValueError):
            Transition(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Transition(1.0, -0.5, 1.0)

    def test_atom_needs_transitions(self):
        with pytest.raises(ValueError):
            Atom([])

    def test_atom_frequency_range(self):
        atom = Atom([Transition(2.0, 1, 0), Transition(0.5, 0, 1)])
        assert atom.omega_min == 0.5


class TestGeometries:
    def test_slab_thickness_positive(self):
        with pytest.raises(ValueError):
            SlabWithMirror(VACUUM, 0.0)
        with pytest.raises(ValueError):
            PerfectLens(-1.0)

    def test_halfspace_holds_material(self):
        m = validate_material(-3 + 1e-3j, 1)
        assert HalfSpace(m).material is m


class TestUnitSystem:
    def test_normalized_constants(self):
        u = UnitSystem(mode="normalized")
        assert u.c == u.mu0 == u.eps0 == 1.0

    def test_si_constants(self):
        assert abs(SI.c - 2.99792458e8) < 1.0
        assert SI.length_si == 1.0 and SI.potential_si == 1.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            UnitSystem(mode="cgs")

    def test_rejects_bad_references(self):
        with pytest.raises(ValueError):
            UnitSystem(mode="normalized", omega_ref=0.0)

    def test_normalized_potential_scale(self):
        # U0 = mu_0 omega_ref^3 d_ref^2 / (8 pi c) in SI for the declared
        # reference scales.
        u = UnitSystem(mode="normalized", omega_ref=2.0e15, d_sq_ref=3.0e-58)
        expected = (4e-7 * math.pi) * (2.0e15) ** 3 * 3.0e-58 \
            / (8.0 * math.pi * 299792458.0)
        assert u.potential_si == pytest.approx(expected, rel=1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e12),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_unit_round_trip(self, x, omega_ref, d_sq_ref):
        u = UnitSystem(mode="normalized", omega_ref=omega_ref, d_sq_ref=d_sq_ref)
        for to, back in ((u.to_si_distance, u.from_si_distance),
                         (u.to_si_frequency, u.from_si_frequency),
                         (u.to_si_potential, u.from_si_potential)):
            assert back(to(x)) == pytest.approx(x, rel=1e-12)
