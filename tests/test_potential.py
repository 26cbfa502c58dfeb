# tests/test_potential.py
"""Potential assembly, closed-form limits and the automatic dispatcher."""

import math

import pytest

from planarcp import (Atom, DegenerateDenominator, DomainError, HalfSpace,
                      PerfectLens,
                      PotentialMethod, SlabWithMirror, Transition, VACUUM,
                      green_components, potential_auto, potential_nonretarded, potential_numeric,
                      potential_perfect_lens, potential_retarded,
                      validate_material)
from oracle import simpson_potential

PAR = Atom([Transition(1.0, 1.0, 0.0)])
PERP = Atom([Transition(1.0, 0.0, 1.0)])
MIXED = Atom([Transition(1.0, 0.6, 0.4)])
TWO_LEVEL_MIXED = Atom([Transition(0.7, 0.6, 0.4), Transition(1.9, 0.3, 0.7)])
LENS_SLAB = SlabWithMirror(validate_material(-1 + 1e-4j, -1 + 1e-4j), 5.0)


class TestNumeric:
    def test_matches_reference(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1.5 + 0.1j))
        atom = Atom([Transition(1.0, 0.6, 0.4)])
        got = potential_numeric(atom, geo, 0.8)
        want = simpson_potential(0.8, 1.0, geo, 0.6, 0.4)
        assert got.value == pytest.approx(want, rel=1e-7)
        assert got.method is PotentialMethod.NUMERIC
        assert got.error_estimate >= 0.0

    def test_transitions_sum_linearly(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1))
        t1 = Transition(1.0, 1.0, 0.0)
        t2 = Transition(0.5, 0.3, 0.7)
        both = potential_numeric(Atom([t1, t2]), geo, 0.9)
        u1 = potential_numeric(Atom([t1]), geo, 0.9)
        u2 = potential_numeric(Atom([t2]), geo, 0.9)
        assert both.value == pytest.approx(u1.value + u2.value, rel=1e-12)
        assert both.per_transition == (u1.value, u2.value)

    def test_carries_green_evaluations(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1))
        t1, t2 = Transition(1.0, 1.0, 0.0), Transition(0.5, 0.3, 0.7)
        both = potential_numeric(Atom([t1, t2]), geo, 0.9)
        assert both.evaluations == (green_components(0.9, 1.0, geo).evaluations
                                    + green_components(0.9, 0.5, geo).evaluations)
        assert potential_retarded(PAR, geo.material, 2e3).evaluations == 0
        assert potential_perfect_lens(PAR, 0.5, 1.5).evaluations == 0

    def test_vacuum_is_zero(self):
        got = potential_numeric(PAR, HalfSpace(VACUUM), 1.1)
        assert got.value == 0.0

    @pytest.mark.parametrize("geometry,z", [
        (LENS_SLAB, 6.0),
        (HalfSpace(validate_material(-3 + 1e-3j, 1)), 0.5),
    ])
    @pytest.mark.parametrize("atom", [PAR, PERP, MIXED])
    def test_needed_components_agree_with_both(self, geometry, z, atom):
        # Only the components the dipole weighs are integrated; the value
        # matches the one built from a call that computes both.
        got = potential_numeric(atom, geometry, z)
        (t,) = atom.transitions
        g = green_components(z, t.omega, geometry)
        want = -(g.g_xx.real * t.d_par_sq + g.g_zz.real * t.d_perp_sq)
        want_err = g.error_xx * t.d_par_sq + g.error_zz * t.d_perp_sq
        assert abs(got.value - want) <= got.error_estimate + want_err

    def test_parallel_dipole_skips_zz(self):
        got = potential_numeric(PAR, LENS_SLAB, 6.0)
        assert got.evaluations < green_components(6.0, 1.0, LENS_SLAB).evaluations


class TestNonretarded:
    def test_electric_image_factor(self):
        # eps = 2 (lossless): the image factor R_p = (eps-1)/(eps+1) = 1/3
        # of the 1/z^3 term; R_s = 0 and X = eps (eps - 1)/(eps + 1)^2 = 2/9
        # give the 1/z coefficients 2/9 (parallel) and 2 (1/3 + 2/9) = 10/9
        # (perpendicular).
        m = validate_material(2, 1)
        z = 1e-3
        atom = Atom([Transition(1.0, 0.5, 0.5)])
        got = potential_nonretarded(atom, m, z)
        expected = (-(0.5 + 2.0 * 0.5) / (32.0 * math.pi * z**3) / 3.0
                    - (0.5 * 2.0 / 9.0 + 0.5 * 10.0 / 9.0) / (16.0 * math.pi * z))
        assert got.value == pytest.approx(expected, rel=1e-12)
        assert got.method is PotentialMethod.NONRETARDED

    def test_purely_magnetic_inverse_distance(self):
        # eps = 1: r_s gives Re[(mu-1)/(mu+1)] and r_p -> k0^2 (mu-1)/(4 q^2)
        # adds Re[(mu-1)/4] to the parallel coefficient at the same 1/z order.
        m = validate_material(1, 2 + 1e-3j)
        u1 = potential_nonretarded(PAR, m, 1e-3)
        u2 = potential_nonretarded(PAR, m, 2e-3)
        assert u1.value == pytest.approx(2.0 * u2.value, rel=1e-12)
        factor = ((m.mu - 1.0) / (m.mu + 1.0)).real + (m.mu - 1.0).real / 4.0
        assert factor == pytest.approx(7.0 / 12.0, rel=1e-5)
        expected = -factor / (16.0 * math.pi * 1e-3)
        assert u1.value == pytest.approx(expected, rel=1e-12)
        # The closed form is the short-distance limit of the integral.
        g = green_components(1e-4, 1.0, HalfSpace(m))
        closed = potential_nonretarded(PAR, m, 1e-4).value
        assert closed == pytest.approx(-g.g_xx.real, rel=1e-5)

    def test_magnetic_perpendicular_dipole_coefficient(self):
        # Only r_p reaches G_zz; its large-q limit gives Re[(mu-1)/2].
        m = validate_material(1, 2 + 1e-3j)
        got = potential_nonretarded(PERP, m, 1e-3).value
        assert got == pytest.approx(-0.5 / (16.0 * math.pi * 1e-3), rel=1e-12)
        g = green_components(1e-4, 1.0, HalfSpace(m))
        closed = potential_nonretarded(PERP, m, 1e-4).value
        assert closed == pytest.approx(-g.g_zz.real, rel=1e-5)

    @pytest.mark.parametrize("eps,mu", [
        pytest.param(1 + 1e-7, 2 + 1e-3j, id="near-magnetic"),
        pytest.param(2 + 0.1j, 1, id="dielectric"),
        pytest.param(-3 + 1e-3j, 1, id="plasmonic"),
        pytest.param(2 + 0.1j, 3 + 0.2j, id="magneto-electric"),
    ])
    def test_matches_green_components(self, eps, mu):
        # Both terms together are the short-distance limit of the
        # integral, for each component: U = -mu_0 omega^2 Re G at omega = 1.
        m = validate_material(eps, mu)
        g = green_components(1e-3, 1.0, HalfSpace(m))
        par = potential_nonretarded(PAR, m, 1e-3).value
        perp = potential_nonretarded(PERP, m, 1e-3).value
        assert par == pytest.approx(-g.g_xx.real, rel=1e-4)
        assert perp == pytest.approx(-g.g_zz.real, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_nonretarded(PAR, validate_material(2, 1), 0.0)

    @pytest.mark.parametrize("eps,mu", [(-1, 1), (-1, 2), (1, -1), (2, -1)])
    def test_lossless_pole_is_typed(self, eps, mu):
        # eps + 1 (in R_p and X) or mu + 1 (in R_s) vanishes at the
        # lossless surface-mode pole.
        with pytest.raises(DegenerateDenominator):
            potential_nonretarded(PAR, validate_material(eps, mu), 1e-2)


class TestRetarded:
    def test_oscillating_form(self):
        m = validate_material(2 + 1e-3j, 1)
        z = 50.0
        got = potential_retarded(PAR, m, z)
        se = math.sqrt(2.0)  # loss negligible at this precision
        contrast = (se - 1.0) / (se + 1.0)
        expected = math.cos(2.0 * z) * contrast / (8.0 * math.pi * z)
        assert got.value == pytest.approx(expected, rel=1e-3)
        assert got.method is PotentialMethod.RETARDED

    def test_impedance_matched_is_null(self):
        m = validate_material(3 + 0.2j, 3 + 0.2j)
        assert potential_retarded(PAR, m, 40.0).value == 0.0

    def test_electric_magnetic_sign_flip(self):
        z = 30.0
        ue = potential_retarded(PAR, validate_material(9, 1), z)
        um = potential_retarded(PAR, validate_material(1, 9), z)
        assert ue.value == pytest.approx(-um.value, rel=1e-12)

    def test_perpendicular_dipole_subleading(self):
        m = validate_material(2 + 1e-3j, 1)
        assert potential_retarded(PERP, m, 50.0).value == 0.0

    @pytest.mark.parametrize("atom,eps,mu", [
        pytest.param(PAR, 2 + 1e-3j, 1, id="par"),
        pytest.param(PERP, 2 + 0.1j, 1, id="perp"),
        pytest.param(PAR, 2 + 0.1j, 2 + 0.1j, id="impedance-matched"),
    ])
    def test_error_covers_quadrature(self, atom, eps, mu):
        # The leading term vanishes for a perpendicular dipole and for
        # eps = mu; the next order does not, so the claim must stay > 0.
        geo = HalfSpace(validate_material(eps, mu))
        got = potential_retarded(atom, geo.material, 1001.0)
        want = potential_numeric(atom, geo, 1001.0)
        assert got.error_estimate > 0.0
        assert abs(got.value - want.value) <= got.error_estimate


class TestPerfectLensClosedForm:
    def test_specific_phase_point(self):
        # At zt = 2 omega (z_A - d)/c = pi: cos = -1, sin = 0, so the
        # parallel bracket is pi^2 - 1 and the perpendicular one is -2.
        d = 1.0
        z = d + math.pi / 2.0
        upar = potential_perfect_lens(PAR, d, z)
        uperp = potential_perfect_lens(PERP, d, z)
        pref = -1.0 / (4.0 * math.pi * math.pi**3)
        assert upar.value == pytest.approx(pref * (math.pi**2 - 1.0), rel=1e-12)
        assert uperp.value == pytest.approx(pref * (-2.0), rel=1e-12)
        assert upar.method is PotentialMethod.PERFECT_LENS

    def test_focal_plane_attraction_diverges(self):
        d = 1.0
        values = [potential_perfect_lens(PERP, d, d + delta).value
                  for delta in (0.1, 0.03, 0.01)]
        assert all(v < 0.0 for v in values)
        assert values[0] > values[1] > values[2]  # deepening attraction

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_perfect_lens(PAR, 1.0, 1.0)
        with pytest.raises(DomainError):
            potential_perfect_lens(PAR, 1.0, 0.5)

    @pytest.mark.parametrize("atom", [PAR, PERP, TWO_LEVEL_MIXED],
                             ids=["par", "perp", "two-transition-mixed"])
    @pytest.mark.parametrize("gap", [1e-3, 1e-2, 0.2, 5.0])
    @pytest.mark.parametrize("d", [0.5, 5.0])
    def test_quadrature_matches_closed_form(self, d, gap, atom):
        # The closed form is the lens integral itself, so quadrature must
        # reproduce it up to the focal plane, where the amplified
        # coefficients -+exp(2 kappa d) of a thick lens exceed the
        # floating-point range over the kappa the integral needs.
        got = potential_numeric(atom, PerfectLens(d), d + gap)
        want = potential_perfect_lens(atom, d, d + gap)
        assert got.value == pytest.approx(want.value, rel=1e-10)


class TestAutoDispatch:
    def test_near_field_uses_quadrature(self):
        geo = HalfSpace(validate_material(2 + 1e-3j, 1))
        got = potential_auto(PAR, geo, 1e-3)
        assert got.method is PotentialMethod.NUMERIC
        assert got == potential_numeric(PAR, geo, 1e-3)

    def test_far_field_uses_closed_form(self):
        geo = HalfSpace(validate_material(2 + 1e-3j, 1))
        got = potential_auto(PAR, geo, 2e3)
        assert got.method is PotentialMethod.RETARDED

    def test_intermediate_uses_quadrature(self):
        geo = HalfSpace(validate_material(2 + 1e-3j, 1))
        assert potential_auto(PAR, geo, 1.0).method is PotentialMethod.NUMERIC

    def test_slab_always_numeric(self):
        geo = SlabWithMirror(validate_material(2 + 0.5j, 1), 0.3)
        assert potential_auto(PAR, geo, 1e-3).method is PotentialMethod.NUMERIC

    def test_lens_uses_closed_form(self):
        got = potential_auto(PAR, PerfectLens(0.5), 1.5)
        assert got.method is PotentialMethod.PERFECT_LENS
        assert got.value == potential_perfect_lens(PAR, 0.5, 1.5).value

    def test_multi_transition_window_respects_both_ends(self):
        # omega_min controls the far-field switch; a wide-band atom
        # stays numeric below it.
        atom = Atom([Transition(0.1, 1, 0), Transition(10.0, 1, 0)])
        geo = HalfSpace(validate_material(2 + 1e-3j, 1))
        assert potential_auto(atom, geo, 0.05).method is PotentialMethod.NUMERIC
