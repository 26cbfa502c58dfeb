# tests/test_potential.py
"""Potential assembly, closed-form limits and the automatic dispatcher."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import planarcp.green

from planarcp import (Atom, DegenerateDenominator, DomainError, HalfSpace,
                      NotConverged, PerfectLens, PotentialMethod,
                      SlabWithMirror, Transition, green_components,
                      potential_auto, potential_nonretarded,
                      potential_numeric, potential_perfect_lens,
                      potential_retarded, validate_material)
from planarcp.quadrature import integrate_evanescent
from conftest import VACUUM
from oracle import simpson_potential

PAR = Atom([Transition(1.0, 1.0, 0.0)])
PERP = Atom([Transition(1.0, 0.0, 1.0)])
MIXED = Atom([Transition(1.0, 0.6, 0.4)])
TWO_LEVEL_MIXED = Atom([Transition(0.7, 0.6, 0.4), Transition(1.9, 0.3, 0.7)])
LENS_SLAB = SlabWithMirror(validate_material(-1 + 1e-4j, -1 + 1e-4j), 5.0)

HALF = HalfSpace(validate_material(2 + 0.1j, 1))


# Each entry point that takes a distance, called at z above the floor the
# distance must exceed: 0, or the perfect lens's thickness 0.5.
DISTANCE_ENTRY_POINTS = {
    "green_components": lambda z: green_components(z, 1.0, HALF),
    "green_components_lens": lambda z: green_components(z + 0.5, 1.0, PerfectLens(0.5)),
    "integrate_evanescent": lambda z: integrate_evanescent(lambda k: k + 0j, z),
    "nonretarded": lambda z: potential_nonretarded(MIXED, HALF.material, z),
    "retarded": lambda z: potential_retarded(MIXED, HALF.material, z),
    "perfect_lens": lambda z: potential_perfect_lens(MIXED, 0.5, z + 0.5),
    "numeric": lambda z: potential_numeric(MIXED, HALF, z),
    "auto": lambda z: potential_auto(MIXED, HALF, z),
    "auto_lens": lambda z: potential_auto(MIXED, PerfectLens(0.5), z + 0.5),
}


@pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(DISTANCE_ENTRY_POINTS))
def test_distance_outside_domain_raises(entry, z):
    # A nan or infinite distance raises at once: no nan result, and no
    # subdivision budget spent on an integrand of nan.
    with pytest.raises(DomainError):
        DISTANCE_ENTRY_POINTS[entry](z)


@pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-160, 1e-100, 1.0, 1e150, 1e300, 1e308])
@pytest.mark.parametrize("entry", ["nonretarded", "retarded", "perfect_lens"])
def test_closed_form_is_finite_or_raises(entry, z):
    # A closed form returns a finite value and a finite error, or raises
    # DomainError: no nan, no infinite error, no other exception. The
    # retarded form's error overflows below z ~ 1e-155 (its 8 pi z^2 is 0
    # below 1e-162), and its phase's argument 2 omega z at 1e308.
    try:
        got = DISTANCE_ENTRY_POINTS[entry](z)
    except DomainError:
        return
    assert math.isfinite(got.value) and math.isfinite(got.error_estimate)


class TestNumeric:
    def test_not_finite_raises(self):
        # Every sample meets one finite rule: a numeric value that overflows
        # raises DomainError, as a closed form's does, instead of inf.
        atom = Atom([Transition(1.0, 1e308, 0.0)])
        with pytest.raises(DomainError, match="^numeric potential not finite at z_A = 0.01$"):
            potential_numeric(atom, HALF, 0.01)

    def test_matches_reference(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1.5 + 0.1j))
        atom = Atom([Transition(1.0, 0.6, 0.4)])
        got = potential_numeric(atom, geo, 0.8)
        want = simpson_potential(0.8, 1.0, geo, 0.6, 0.4)
        assert got.value == pytest.approx(want, rel=1e-7)
        assert got.method is PotentialMethod.NUMERIC
        assert got.error_estimate >= 0.0

    def test_shared_table_gives_lone_call_bits(self):
        # One table across geometries and atoms whose integrands differ in
        # their rows (G_xx alone, both, two transitions), at distances of
        # one octave of z and one far out: every call returns the bits of
        # its lone call, or raises the same error, and each integrand keeps
        # its own set-up, and its first-round values unless a branch cut
        # crosses its path (eps = mu = -1 + 0.1i, whose cut rows depend on
        # z). The lens slab has 3 and 2 strip poles at transitions
        # (1, 0.8); the lossless eps = -4 slab's one pole at omega = 1 lies
        # on Re beta = 0, where its guided mode fails the near points and
        # is negligible at the far one.
        table, lossless = {}, set()
        geometries = (HalfSpace(validate_material(-3 + 1e-3j, 1)), HALF,
                      SlabWithMirror(validate_material(2 + 0.1j, 1), 0.2), PerfectLens(0.1),
                      LENS_SLAB, HalfSpace(validate_material(-1 + 0.1j, -1 + 0.1j)),
                      SlabWithMirror(validate_material(-4, 1), 3.0))
        atoms = (PAR, MIXED, TWO_LEVEL_MIXED,
                 Atom([Transition(1.0, 0.6, 0.4), Transition(0.8, 0.3, 0.7)]))
        for z in (0.3, 0.4, 0.45, 40.0):
            for geometry in geometries:
                for atom in atoms:
                    got = []
                    for shared in (table, None):
                        try:
                            got.append(repr(potential_numeric(atom, geometry, z, table=shared)))
                        except DegenerateDenominator as exc:
                            got.append(repr(exc))
                    assert got[0] == got[1]
                    if geometry is geometries[-1]:
                        lossless.add(got[0].startswith("DegenerateDenominator"))
        assert len(table) == len(geometries) * len(atoms)
        assert lossless == {True, False}  # the lossless slab both raises and returns

    def test_transitions_sum_linearly(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1))
        t1 = Transition(1.0, 1.0, 0.0)
        t2 = Transition(0.5, 0.3, 0.7)
        both = potential_numeric(Atom([t1, t2]), geo, 0.9)
        u1 = potential_numeric(Atom([t1]), geo, 0.9)
        u2 = potential_numeric(Atom([t2]), geo, 0.9)
        # One path integral serves both transitions, on other panels than
        # either alone: the three values agree within their claimed errors.
        assert abs(both.value - (u1.value + u2.value)) <= (
            both.error_estimate + u1.error_estimate + u2.error_estimate)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(slab=st.booleans(), signs=st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
           eps_re=st.floats(0.01, 6.0), mu_re=st.floats(0.01, 6.0),
           eps_loss=st.floats(-4.0, 0.0), mu_loss=st.floats(-4.0, 0.0),
           log_d=st.floats(math.log10(0.05), math.log10(2.0)),
           log_z=st.floats(-3.0, 3.0),
           transitions=st.lists(st.tuples(st.floats(0.1, 10.0),
                                          st.sampled_from([(1, 0), (0, 1), (0.6, 0.4)])),
                                min_size=2, max_size=3))
    def test_one_call_is_the_sum_of_single_transitions(
            self, slab, signs, eps_re, mu_re, eps_loss, mu_loss, log_d, log_z,
            transitions):
        # Half spaces of every sign class, left-handed ones with their
        # cut, and slabs of every sign class up to z = 1e2; pure-par and
        # pure-perp transitions among mixed ones.
        material = validate_material(complex(signs[0] * eps_re, 10.0 ** eps_loss),
                                     complex(signs[1] * mu_re, 10.0 ** mu_loss))
        geometry = SlabWithMirror(material, 10.0 ** log_d) if slab else HalfSpace(material)
        z = 10.0 ** min(log_z, 2.0 if slab else 3.0)
        atom = Atom([Transition(omega, *weights) for omega, weights in transitions])
        try:
            singles = [potential_numeric(Atom([t]), geometry, z)
                       for t in atom.transitions]
        except (NotConverged, DegenerateDenominator):
            assume(False)
        both = potential_numeric(atom, geometry, z)
        assert abs(both.value - sum(u.value for u in singles)) <= (
            both.error_estimate + sum(u.error_estimate for u in singles))
        # A scalar frequency is the one-element case of the same code, and
        # each row of a column that repeats it equals it bit for bit.
        omega = atom.transitions[0].omega
        scalar = green_components(z, omega, geometry)
        for omegas in (np.array([omega]), np.array([omega, omega])):
            array = green_components(z, omegas, geometry)
            assert array.evaluations == scalar.evaluations
            for got, want in ((array.g_xx, scalar.g_xx), (array.g_zz, scalar.g_zz),
                              (array.error_xx, scalar.error_xx),
                              (array.error_zz, scalar.error_zz)):
                assert got.tobytes() == np.full(len(omegas), want).tobytes()

    def test_carries_green_evaluations(self):
        geo = HalfSpace(validate_material(2 + 0.3j, 1))
        t1, t2 = Transition(1.0, 1.0, 0.0), Transition(0.5, 0.3, 0.7)
        both = potential_numeric(Atom([t1, t2]), geo, 0.9)
        # The transitions share one path integral, whose nodes count once.
        shared = green_components(0.9, np.array([1.0, 0.5]), geo)
        assert both.evaluations == shared.evaluations
        assert both.evaluations < (green_components(0.9, 1.0, geo).evaluations
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

    def test_parallel_dipole_skips_zz(self, monkeypatch):
        # The integrand of a parallel dipole carries the G_xx row alone.
        rows = []
        real = planarcp.green.integrate_evanescent

        def recorded(integrand, *args, **kwargs):
            rows.append(len(integrand(np.array([0.5]))))
            return real(integrand, *args, **kwargs)

        monkeypatch.setattr(planarcp.green, "integrate_evanescent", recorded)
        potential_numeric(PAR, LENS_SLAB, 6.0)
        green_components(6.0, 1.0, LENS_SLAB)
        assert rows == [1, 2]


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

    def test_error_at_least_rounding(self):
        # Past z omega ~ 1e154, 8 pi z^2 overflows and the next-order term
        # is 0; the claim is then the value's own rounding, and quadrature
        # agrees within both errors.
        geo = HalfSpace(validate_material(2 + 0.1j, 1))
        got = potential_retarded(PAR, geo.material, 1e300)
        want = potential_numeric(PAR, geo, 1e300)
        assert got.error_estimate == np.finfo(float).eps * abs(got.value) > 0.0
        assert abs(got.value - want.value) <= got.error_estimate + want.error_estimate


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
        # Inside the lens; next to the focal plane, where 1/zt^3 overflows;
        # and where zt = 2 omega (z - d) itself does.
        for d, z in ((1.0, 1.0), (1.0, 0.5), (1e-200, 2e-200), (1.0, 1e308)):
            with pytest.raises(DomainError):
                potential_perfect_lens(PAR, d, z)

    @pytest.mark.parametrize("gap", [1e150, 1e200])
    def test_far_value_within_quadrature_error(self, gap):
        # Formed in 1/zt, the closed form stays finite where zt^3 overflows.
        got = potential_perfect_lens(MIXED, 1.0, 1.0 + gap)
        want = potential_numeric(MIXED, PerfectLens(1.0), 1.0 + gap)
        assert got.value != 0.0
        assert abs(got.value - want.value) <= want.error_estimate

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
