# tests/test_core.py
"""Validation and unit-system behavior of the core value objects."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarcp
from planarcp import (Atom, HalfSpace, MaterialResponse, NonFinite,
                      PassivityViolation, PerfectLens, SlabWithMirror,
                      Transition, UnitSystem, VACUUM, potential_nonretarded,
                      validate_material)


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
        assert VACUUM.is_lossless
        assert validate_material(-1, -1).is_lossless
        assert not validate_material(2 + 0.1j, 1).is_lossless
        assert not validate_material(2, 1e-9j).is_lossless

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
    def test_rejects_bad_references(self):
        with pytest.raises(ValueError):
            UnitSystem(omega_ref=0.0)

    def test_normalized_potential_scale(self):
        # potential_si = mu_0 omega_ref^3 d_sq_ref / c turns the library's
        # natural-unit potential into joules: it must equal the README's
        # short-distance form evaluated in SI, with eps_0 and mu_0.
        from scipy.constants import c, epsilon_0, mu_0
        omega_ref, d_sq_ref = 2.0e15, 3.0e-58
        u = UnitSystem(omega_ref=omega_ref, d_sq_ref=d_sq_ref)
        eps, mu = 2 + 0.1j, 1.5 + 0.05j
        z, omega, d_par, d_perp = 0.3, 0.8, 0.6, 0.4
        natural = potential_nonretarded(
            Atom([Transition(omega, d_par, d_perp)]),
            validate_material(eps, mu), z).value
        z_si, omega_si = z * c / omega_ref, omega * omega_ref
        par_si, perp_si = d_par * d_sq_ref, d_perp * d_sq_ref
        r_p = (eps - 1) / (eps + 1)
        r_s = (mu - 1) / (mu + 1)
        x = eps * (eps * mu - 1) / (eps + 1) ** 2
        si = -((par_si + 2 * perp_si) * r_p.real
               / (32 * math.pi * epsilon_0 * z_si**3)
               + mu_0 * omega_si**2 * (par_si * (r_s + x).real
                                       + 2 * perp_si * (r_p + x).real)
               / (16 * math.pi * z_si))
        assert natural * u.potential_si == pytest.approx(si, rel=1e-9, abs=0.0)
        assert u.length_si == c / omega_ref
        assert u.frequency_si == omega_ref

    def test_import_loads_no_scipy(self):
        # The CODATA constants are read only by UnitSystem's scales.
        code = "import sys, planarcp, planarcp.cli; print('scipy' in sys.modules)"
        env = dict(os.environ,
                   PYTHONPATH=str(Path(planarcp.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
