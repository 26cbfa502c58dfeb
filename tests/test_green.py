# tests/test_green.py
"""Scattered Green components against limits, symmetries and the
dense-grid reference."""

import math

import pytest

from planarcp import (DomainError, HalfSpace, PerfectLens, QuadratureSpec,
                      SlabWithMirror, VACUUM, green_components,
                      validate_material)
import planarcp.green
from planarcp.green import _evanescent_breakpoints
from oracle import quad_vec_green, simpson_green

LENS_SLAB = SlabWithMirror(validate_material(-1 + 1e-4j, -1 + 1e-4j), 5.0)


class TestVacuum:
    def test_nullity(self):
        g = green_components(1.3, 1.0, HalfSpace(VACUUM))
        assert g.g_xx == 0.0
        assert g.g_zz == 0.0
        assert g.g_yy == 0.0


class TestStructure:
    def test_yy_equals_xx(self):
        g = green_components(0.8, 1.0, HalfSpace(validate_material(2 + 0.1j, 1)))
        assert g.g_yy == g.g_xx

    def test_error_estimate_is_max_of_components(self):
        g = green_components(0.8, 1.0, HalfSpace(validate_material(2 + 0.1j, 1)))
        assert g.error_estimate == max(g.error_xx, g.error_zz)
        assert g.evaluations > 0

    def test_domain_validation(self):
        geo = HalfSpace(validate_material(2 + 0.1j, 1))
        with pytest.raises(DomainError):
            green_components(0.0, 1.0, geo)
        with pytest.raises(DomainError):
            green_components(-1.0, 1.0, geo)

    def test_lens_requires_atom_beyond_focal_plane(self):
        with pytest.raises(DomainError):
            green_components(0.5, 1.0, PerfectLens(0.5))
        with pytest.raises(DomainError):
            green_components(0.3, 1.0, PerfectLens(0.5))
        # Just beyond is fine.
        green_components(0.6, 1.0, PerfectLens(0.5))


class TestComponentSelection:
    def test_default_computes_both(self):
        g = green_components(6.0, 1.0, LENS_SLAB)
        both = green_components(6.0, 1.0, LENS_SLAB, xx=True, zz=True)
        assert g.g_xx is not None and g.g_zz is not None
        assert repr(g) == repr(both)

    def test_skipped_component_is_none(self):
        only_xx = green_components(6.0, 1.0, LENS_SLAB, zz=False)
        only_zz = green_components(6.0, 1.0, LENS_SLAB, xx=False)
        assert only_xx.g_zz is None and only_xx.error_zz is None
        assert only_zz.g_xx is None and only_zz.g_yy is None
        assert only_zz.error_xx is None
        assert only_xx.error_estimate == only_xx.error_xx
        assert only_zz.error_estimate == only_zz.error_zz

    @pytest.mark.parametrize("geometry,z", [
        (LENS_SLAB, 6.0),
        (HalfSpace(validate_material(-3 + 1e-3j, 1)), 0.5),
    ])
    def test_single_component_agrees_with_both(self, geometry, z):
        both = green_components(z, 1.0, geometry)
        only_xx = green_components(z, 1.0, geometry, zz=False)
        only_zz = green_components(z, 1.0, geometry, xx=False)
        assert abs(only_xx.g_xx - both.g_xx) <= only_xx.error_xx + both.error_xx
        assert abs(only_zz.g_zz - both.g_zz) <= only_zz.error_zz + both.error_zz

    def test_needs_a_component(self):
        with pytest.raises(ValueError):
            green_components(6.0, 1.0, LENS_SLAB, xx=False, zz=False)

    def test_cold_and_warm_breakpoints_bit_identical(self):
        _evanescent_breakpoints.cache_clear()
        cold = green_components(6.0, 1.0, LENS_SLAB)
        warm = green_components(6.0, 1.0, LENS_SLAB)
        info = _evanescent_breakpoints.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert repr(cold) == repr(warm)


class TestLimits:
    def test_mirror_limit_matches_fixed_reflection(self):
        # eps -> infinity approaches an ideal mirror (r_s, r_p) = (-1, +1),
        # which the perfect lens of thickness d images to its focal plane:
        # the lens seen from z + d is the ideal mirror seen from z.
        z, d = 0.9, 0.5
        ideal = green_components(z + d, 1.0, PerfectLens(d))
        metal = green_components(
            z, 1.0, HalfSpace(validate_material(1e8 + 1e5j, 1)))
        assert abs(metal.g_xx - ideal.g_xx) <= 1e-3 * abs(ideal.g_xx)
        assert abs(metal.g_zz - ideal.g_zz) <= 1e-3 * abs(ideal.g_zz)

    def test_continuity_in_mu_near_unity(self):
        z = 0.7
        base = green_components(z, 1.0, HalfSpace(validate_material(2 + 0.1j, 1)))
        near = green_components(
            z, 1.0, HalfSpace(validate_material(2 + 0.1j, 1 + 1e-9 + 1e-12j)))
        assert abs(near.g_xx - base.g_xx) < 1e-6 * abs(base.g_xx)
        assert abs(near.g_zz - base.g_zz) < 1e-6 * abs(base.g_zz)

    def test_scaling_covariance(self):
        # The integrals depend on z_A and omega only through z_A * omega;
        # G scales linearly in omega at fixed z_A * omega (c = 1).
        geo = HalfSpace(validate_material(2 + 0.3j, 1.5 + 0.2j))
        g1 = green_components(0.8, 1.0, geo)
        g2 = green_components(1.6, 0.5, geo)
        assert g2.g_xx == pytest.approx(0.5 * g1.g_xx, rel=1e-9)
        assert g2.g_zz == pytest.approx(0.5 * g1.g_zz, rel=1e-9)


class TestAgainstReference:
    @pytest.mark.parametrize("geometry,z", [
        (HalfSpace(validate_material(-3 + 1e-3j, 1.5 + 0.2j)), 0.5),
        (SlabWithMirror(validate_material(1.5 + 0.3j, 2 + 0.5j), 0.4), 1.2),
        (PerfectLens(5.0), 5.5),
    ])
    def test_deterministic_cases(self, geometry, z):
        g = green_components(z, 1.0, geometry)
        ref_xx, ref_zz = simpson_green(z, 1.0, geometry)
        assert abs(g.g_xx - ref_xx) <= 1e-7 * abs(ref_xx)
        assert abs(g.g_zz - ref_zz) <= 1e-7 * abs(ref_zz)

    def test_narrow_surface_mode_resolved(self):
        # Re eps < 0 with tiny loss: the evanescent integrand has a
        # near-real-axis pole of width ~ Im eps that the breakpoint
        # grading must pin. Reference: 60M-node Simpson zoomed windows
        # are impractical here, so compare against a tightened engine
        # run instead (different panel layout, same machinery) plus a
        # moderate-loss oracle anchor.
        geo = HalfSpace(validate_material(-3 + 1e-2j, 1))
        g = green_components(0.5, 1.0, geo)
        ref_xx, ref_zz = simpson_green(0.5, 1.0, geo)
        assert abs(g.g_xx - ref_xx) <= 1e-6 * abs(ref_xx)
        assert abs(g.g_zz - ref_zz) <= 1e-6 * abs(ref_zz)
        tight = QuadratureSpec(rel_tol=1e-10, max_subdivisions=20000)
        g6 = green_components(0.5, 1.0, HalfSpace(validate_material(-3 + 1e-6j, 1)))
        t6 = green_components(0.5, 1.0, HalfSpace(validate_material(-3 + 1e-6j, 1)),
                              tight)
        assert abs(g6.g_zz - t6.g_zz) <= 1e-6 * abs(t6.g_zz)

    def test_randomized_suite_equivalence(self, oracle_suite):
        tol_factor = 10.0 * 1e-8  # 10 * default rel_tol
        for eps, mu, z_A, engine, ref_xx, ref_zz, _, _ in oracle_suite.cases:
            assert abs(engine.g_xx - ref_xx) <= max(tol_factor * abs(ref_xx), 1e-30), \
                (eps, mu, z_A)
            assert abs(engine.g_zz - ref_zz) <= max(tol_factor * abs(ref_zz), 1e-30), \
                (eps, mu, z_A)

    def test_error_estimates_mostly_honest(self, oracle_suite):
        # The deviation from the reference mixes the engine's error with
        # the reference's own grid error, so the reference's self-error
        # estimate is added to the budget before billing the engine.
        honest = 0
        for _, _, _, engine, ref_xx, ref_zz, oerr_xx, oerr_zz in oracle_suite.cases:
            ok_xx = abs(engine.g_xx - ref_xx) <= max(engine.error_xx + oerr_xx,
                                                     1e-30)
            ok_zz = abs(engine.g_zz - ref_zz) <= max(engine.error_zz + oerr_zz,
                                                     1e-30)
            honest += ok_xx and ok_zz
        assert honest >= 0.95 * len(oracle_suite.cases)


class TestSmallDistance:
    """The evanescent sector's first engine call covers the small-kappa
    scale k0 and the first tail panels, so short distances take few
    rounds and stay within their stated error."""

    def test_few_rounds_at_short_distance(self, monkeypatch):
        calls = []
        real = planarcp.green.medium_beta1

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(planarcp.green, "medium_beta1", counted)
        green_components(1e-2, 1.0, HalfSpace(validate_material(2 + 0.1j, 1)))
        # One call per engine round of either sector.
        assert len(calls) <= 4

    @pytest.mark.parametrize("z", [1e-3, 1e-2, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("geometry", [
        HalfSpace(validate_material(2 + 0.1j, 1)),
        HalfSpace(validate_material(-3 + 0.1j, 1.5 + 0.2j)),
        SlabWithMirror(validate_material(2.5 + 0.2j, 1.2 + 0.05j), 0.7),
    ], ids=["dielectric", "negative-eps", "slab"])
    def test_within_stated_error(self, geometry, z):
        g = green_components(z, 1.0, geometry)
        ref_xx, ref_zz, ref_err = quad_vec_green(z, 1.0, geometry)
        assert abs(g.g_xx - ref_xx) <= g.error_xx + ref_err
        assert abs(g.g_zz - ref_zz) <= g.error_zz + ref_err
