# tests/test_green.py
"""Scattered Green components against limits, symmetries and the
dense-grid reference."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planarcp import (DegenerateDenominator, DomainError, HalfSpace,
                      NotConverged, PerfectLens, SlabWithMirror,
                      green_components, validate_material)
import planarcp.green
from planarcp.dispersion import _passive_sqrt, halfspace_rs_rp
from planarcp.green import (_coefficients, _count_zeros, _locate, _product,
                            _strip_height, _strip_poles)
import planarcp.quadrature
from planarcp.quadrature import _WIDTH
from conftest import VACUUM, false_zero_count
from oracle import quad_vec_green, simpson_green

EPS = np.finfo(float).eps
LENS_SLAB = SlabWithMirror(validate_material(-1 + 1e-4j, -1 + 1e-4j), 5.0)


class TestVacuum:
    def test_nullity(self):
        g = green_components(1.3, 1.0, HalfSpace(VACUUM))
        assert g.g_xx == 0.0
        assert g.g_zz == 0.0


class TestStructure:
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
        # The phase exp(2i k0 z) of an argument that overflows.
        with pytest.raises(DomainError, match="2 omega z must be finite"):
            green_components(1e308, 1.0, geo)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, [], [[1.0, 0.8]]])
    def test_omega_validation(self, omega):
        with pytest.raises(ValueError, match="omega must be"):
            green_components(1.0, omega, HalfSpace(validate_material(2 + 0.1j, 1)))

    def test_omega_zero_or_negative_raises(self):
        # In a child process with a timeout and a memory cap: from k0 <= 0
        # a half space's ladder toward small kappa would grow without end.
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from planarcp import HalfSpace, green_components, validate_material\n"
                "for omega in (0.0, -1.0, [1.0, -0.8]):\n"
                "    try:\n"
                "        green_components(1.0, omega, HalfSpace(validate_material(2 + 0.1j, 1)))\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(planarcp.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                             capture_output=True, text=True).stdout.splitlines()
        assert len(out) == 3 and all(line.startswith("omega must be") for line in out)

    def test_zero_dimensional_omega_gives_numbers(self):
        geo = HalfSpace(validate_material(2 + 0.1j, 1))
        g, ref = green_components(1.0, np.array(1.0), geo), green_components(1.0, 1.0, geo)
        assert type(g.g_xx) is complex and type(g.error_zz) is float
        assert (g.g_xx, g.g_zz, g.error_xx, g.error_zz) == (ref.g_xx, ref.g_zz,
                                                             ref.error_xx, ref.error_zz)

    def test_lens_requires_atom_beyond_focal_plane(self):
        with pytest.raises(DomainError):
            green_components(0.5, 1.0, PerfectLens(0.5))
        with pytest.raises(DomainError):
            green_components(0.3, 1.0, PerfectLens(0.5))
        # Just beyond is fine.
        green_components(0.6, 1.0, PerfectLens(0.5))

    def test_unsupported_geometry(self):
        with pytest.raises(TypeError):
            green_components(1.0, 1.0, object())


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
        assert only_zz.g_xx is None and only_zz.error_xx is None
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
        # Re eps < 0 with tiny loss: on the real axis the integrand has a
        # surface-mode pole of width ~ Im eps; the steepest-descent path
        # passes it at a distance, with no breakpoint. Reference: 60M-node
        # Simpson zoomed windows are impractical here, so compare against
        # a tightened engine run instead (different panel layout, same
        # machinery) plus a moderate-loss oracle anchor.
        geo = HalfSpace(validate_material(-3 + 1e-2j, 1))
        g = green_components(0.5, 1.0, geo)
        ref_xx, ref_zz = simpson_green(0.5, 1.0, geo)
        assert abs(g.g_xx - ref_xx) <= 1e-6 * abs(ref_xx)
        assert abs(g.g_zz - ref_zz) <= 1e-6 * abs(ref_zz)
        g6 = green_components(0.5, 1.0, HalfSpace(validate_material(-3 + 1e-6j, 1)))
        t6 = green_components(0.5, 1.0, HalfSpace(validate_material(-3 + 1e-6j, 1)),
                              rel_tol=1e-10)
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

    # (index into oracle_suite.cases, G_xx, G_zz) to 30 digits; see below.
    PINNED = (
        (0, "8.23334034884451514561323979827e-5-8.01570083029646692993305210194e-5j",
         "1.06419818022986023870181783614e-6+1.20574850617076175146855870769e-6j"),
        (4, "7.92824425964379849195213856357e-4-3.78344193817225517122407510564e-3j",
         "8.53355550989851317754308908233e-4+1.15238921266914703085269616153e-4j"),
        (12, "-1.857905479599408776829162466e-4-1.85553950589046892212464279554e-4j",
         "1.4168362753674567425685200547e-5-9.48500881125759106321360478474e-6j"),
    )

    def test_thirty_digit_values(self, oracle_suite):
        """The engine and the Simpson reference, each within its own
        claimed error of 30-digit values, on three suite cases with
        z_A omega/c = 71.9, 3.93 and 16.1.

        The values are the path integral, exact by Cauchy's theorem for
        these lossy half spaces, made with mpmath 1.3 by

            python - <<'EOF'
            import mpmath as mp
            mp.mp.dps = 30
            def green(eps, mu, z):  # eps, mu, z as in oracle_suite.cases
                eps, mu, z = mp.mpc(eps), mp.mpc(mu), mp.mpf(z)
                def f(t, zz):
                    b = 1 + 1j * t
                    b1 = mp.sqrt(b * b + eps * mu - 1)
                    b1 = -b1 if mp.im(b1) < 0 else b1
                    rs = (mu * b - b1) / (mu * b + b1)
                    rp = (eps * b - b1) / (eps * b + b1)
                    r = 2 * (1 - b * b) * rp if zz else rs - b * b * rp
                    return r * mp.exp(-2 * t * z)
                cuts = [0] + [c / z for c in (0.5, 2, 8, 32)] + [mp.inf]
                return [mp.nstr(mp.exp(2j * z) * mp.quad(lambda t: f(t, zz), cuts)
                                / (8 * mp.pi), 30) for zz in (0, 1)]
            EOF

        and agree with the cuts (1, 4, 16) to all 30 digits. At these
        distances the reference's sums of 5e5 oscillating terms round at
        about 2e-17, above the engine's claims, which is why its error
        carries a round-off term.
        """
        for index, exact_xx, exact_zz in self.PINNED:
            _, _, _, engine, ref_xx, ref_zz, oerr_xx, oerr_zz = \
                oracle_suite.cases[index]
            exact_xx, exact_zz = complex(exact_xx), complex(exact_zz)
            assert abs(engine.g_xx - exact_xx) <= engine.error_xx
            assert abs(engine.g_zz - exact_zz) <= engine.error_zz
            assert abs(ref_xx - exact_xx) <= oerr_xx
            assert abs(ref_zz - exact_zz) <= oerr_zz


class TestSmallDistance:
    """Each route's first engine call covers the small-kappa (or small-t)
    scale k0 and the first tail panels, so short distances take few
    rounds and stay within their stated error."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(planarcp.green, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(planarcp.green, name, counted)
        return calls

    def test_few_rounds_at_short_distance(self, monkeypatch):
        # A certified half space takes the path: one beta1_of_beta call
        # per engine round, and the real-axis wavenumber is never asked.
        path = self.count_calls(monkeypatch, "beta1_of_beta")
        axis = self.count_calls(monkeypatch, "medium_beta1")
        green_components(1e-2, 1.0, HalfSpace(validate_material(2 + 0.1j, 1)))
        assert (len(path), len(axis)) == (1, 0)

    def test_few_rounds_at_short_distance_slab(self, monkeypatch):
        # A slab takes the path too: one beta1_of_beta call per engine
        # round, once its strip poles are found and cached. Its pole at
        # beta = 0.988 + 1.439i lies 0.012 from the path, which bisection
        # resolves in five more rounds, one panel each. A half space of the
        # same medium takes the path and its cut in one round.
        material = validate_material(-1 + 0.1j, -1 + 0.1j)
        slab = SlabWithMirror(material, 1.0)
        green_components(1e-2, 1.0, slab)
        path = self.count_calls(monkeypatch, "beta1_of_beta")
        axis = self.count_calls(monkeypatch, "medium_beta1")
        green_components(1e-2, 1.0, slab)
        assert (len(path), len(axis)) == (6, 0)
        green_components(1e-2, 1.0, HalfSpace(material))
        assert (len(path), len(axis)) == (7, 0)

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


def on_path(geometry, monkeypatch) -> bool:
    """Whether a Green call at z = 6 integrates once on the path and asks
    for no real-axis wavenumber or integral."""
    calls = []
    for name in ("integrate_evanescent", "integrate_propagating",
                 "vacuum_beta", "medium_beta1"):
        def counted(*args, _name=name, _real=getattr(planarcp.green, name),
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(planarcp.green, name, counted)
    green_components(6.0, 1.0, geometry)
    return calls == ["integrate_evanescent"]


def has_cut(geometry) -> bool:
    return _coefficients(geometry, 1.0)[2] is not None


class TestSteepestDescentPath:
    """The route through Re beta = k0, taken by every geometry, with the
    branch cut of beta1 where it lies in the strip 0 <= Re beta < k0."""

    @pytest.mark.parametrize("geometry,expected", [
        (PerfectLens(5.0), True),
        (HalfSpace(VACUUM), True),
        (HalfSpace(validate_material(2 + 0.1j, 1)), True),
        (HalfSpace(validate_material(-3 + 1e-3j, 1)), True),
        (HalfSpace(validate_material(1, -3 + 1e-3j)), True),
        (HalfSpace(validate_material(-2, 1)), True),       # eps mu <= 0
        (HalfSpace(validate_material(0.5, 3)), True),      # i0+ direction > 0
        (HalfSpace(validate_material(-2, -2)), True),      # i0+ direction < 0
        (HalfSpace(validate_material(-1 + 0.1j, -1 + 0.1j)), True),
        (SlabWithMirror(validate_material(2 + 0.1j, 1), 1.0), True),
        (LENS_SLAB, True),
    ])
    def test_route_certificate(self, geometry, expected, monkeypatch):
        assert on_path(geometry, monkeypatch) is expected

    @pytest.mark.parametrize("eps,mu,expected", [
        (2 + 0.1j, 1, False),                # Im(eps mu) > 0
        (-2, 1, False),                      # eps mu <= 0
        (0.5, 3, False),                     # i0+ direction > 0
        (-3 + 1e-3j, 2 + 0.5j, False),       # Im(eps mu) < 0, Re b0 > k0
        (-1 + 0.1j, -1 + 0.1j, True),        # b0 = 0.32 + 0.31i
        (-2, -2, True),                      # b0 = i sqrt(3), i0+ < 0
        (-0.5, -0.5, True),                  # b0 = sqrt(3)/2, i0+ < 0
    ])
    def test_branch_cut_in_strip(self, eps, mu, expected):
        assert has_cut(HalfSpace(validate_material(eps, mu))) is expected

    def test_closed_form_jump(self):
        # The cut's jump r(s) - r(-s) in closed form against the Fresnel
        # pair at beta1 = +-s, s = sqrt(t (2i b0 - t)), on seeded passive
        # media whose cut crosses the path. Where the jump is small the
        # pair's difference cancels, and its own rounding, a few eps of
        # |r(s)| + |r(-s)|, exceeds 1e-12 of the jump: by up to 1.3e-12 on
        # 20 seeds. Against 30-digit mpmath values on 150 such media the
        # closed form was within 6.6e-15, the pair within 1.0e-12.
        rng = np.random.default_rng(21)
        eps_mach = np.finfo(float).eps
        t = np.geomspace(1e-6, 50.0, 200)
        checked = 0
        while checked < 100:
            eps, mu = (complex(rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 0.0))
                       for _ in range(2))
            material = validate_material(eps, mu)
            cut = _coefficients(HalfSpace(material), 1.0)[2]
            if cut is None:
                continue
            b0, jump = cut
            s = _passive_sqrt(t * (2j * b0 - t))
            plus = halfspace_rs_rp(b0 + 1j * t, s, material)
            minus = halfspace_rs_rp(b0 + 1j * t, -s, material)
            for got, r_plus, r_minus in zip(jump(b0 + 1j * t, t), plus, minus):
                want = r_plus - r_minus
                rounding = 4.0 * eps_mach * (abs(r_plus) + abs(r_minus))
                assert np.all(abs(got - want) <= 1e-12 * abs(want) + rounding), (eps, mu)
            checked += 1

    @pytest.mark.parametrize("z", [0.5, 0.92, 1.64])
    def test_surface_mode_on_the_cut_raises(self, z):
        # eps = -3, mu = -0.5: the lossless s-polarised surface mode
        # beta = i sqrt(2/3) lies on the cut beta = i sqrt(0.5) + i t, at
        # t = 0.109, where the jump's denominator vanishes; no node need
        # round it to exactly 0.
        geometry = HalfSpace(validate_material(-3, -0.5))
        assert has_cut(geometry)
        with pytest.raises(DegenerateDenominator, match="branch cut"):
            green_components(z, 1.0, geometry)

    def test_one_ladder_per_atom(self, monkeypatch):
        # Two transitions on a cut-crossing half space: the first round's
        # layout is the lower frequency's ladder, halving the first panel's
        # width down to its lowest edge at or below k0/8, and four edges
        # graded by 8 below that.
        seen = []
        real = planarcp.quadrature._layout

        def spy(depth, cut):
            seen.append((depth, cut))
            return real(depth, cut)

        monkeypatch.setattr(planarcp.quadrature, "_layout", spy)
        geometry = HalfSpace(validate_material(-1 + 0.1j, -1 + 0.1j))
        assert has_cut(geometry)
        z = 1e-2
        green_components(z, np.array([1.0, 0.5]), geometry)
        ((depth, cut),) = seen
        low = _WIDTH / 2.0 ** depth
        assert cut and 0.5 / 16.0 < low / (2.0 * z) <= 0.5 / 8.0
        edges = real(depth, cut)[0]
        assert edges[:depth + 7].tolist() == (
            [0.0] + [low / 8.0 ** j for j in (4, 3, 2, 1)]
            + [_WIDTH / 2.0 ** j for j in range(depth, -1, -1)] + [2.0 * _WIDTH])

    def test_ladder_leaves_no_sliver(self):
        # At z = 0.4995 the rung k0 = 1 lies between the first panel's
        # edge, _WIDTH/(2z) = 0.9967, and 0.5/z. The ladder halves that
        # edge, so no sliver panel costs a round: 330 nodes, as at
        # z = 0.5045.
        geometry = HalfSpace(validate_material(-3 + 1e-3j, 1))
        assert _WIDTH / (2.0 * 0.4995) < 1.0 < 0.5 / 0.4995
        for z in (0.4995, 0.5045):
            assert green_components(z, 1.0, geometry, zz=False).evaluations == 330

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(eps_re=st.floats(-6.0, 6.0), mu_re=st.floats(-6.0, 6.0),
           eps_loss=st.floats(-6.0, 0.0), mu_loss=st.floats(-6.0, 0.0),
           log_z=st.floats(-3.0, 3.0))
    def test_certified_half_space_against_quad_vec(self, eps_re, mu_re, eps_loss,
                                                   mu_loss, log_z):
        # Every passive half space, left-handed ones with their cut
        # included.
        material = validate_material(complex(eps_re, 10.0 ** eps_loss),
                                     complex(mu_re, 10.0 ** mu_loss))
        self.check_against_quad_vec(HalfSpace(material), 10.0 ** log_z)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(eps_re=st.floats(-6.0, -0.01), mu_re=st.floats(-6.0, -0.01),
           eps_loss=st.floats(-6.0, 0.0), mu_loss=st.floats(-6.0, 0.0),
           log_z=st.floats(-3.0, 3.0))
    def test_left_handed_half_space_against_quad_vec(self, eps_re, mu_re,
                                                     eps_loss, mu_loss, log_z):
        # Re eps, Re mu < 0 make Im(eps mu) < 0: mostly media with a cut.
        material = validate_material(complex(eps_re, 10.0 ** eps_loss),
                                     complex(mu_re, 10.0 ** mu_loss))
        self.check_against_quad_vec(HalfSpace(material), 10.0 ** log_z)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(d=st.floats(0.1, 10.0), log_gap=st.floats(-3.0, 3.0))
    def test_perfect_lens_against_quad_vec(self, d, log_gap):
        self.check_against_quad_vec(PerfectLens(d), d + 10.0 ** log_gap)

    @pytest.mark.parametrize("z", [0.05, 1.0, 30.0])
    def test_left_handed_half_space_guard(self, z):
        # Im(eps mu) = -0.2 puts the branch point k0 sqrt(1 - eps mu) in
        # the strip; the path without its cut would be off by up to 450
        # times the value here.
        geometry = HalfSpace(validate_material(-1 + 0.1j, -1 + 0.1j))
        assert has_cut(geometry)
        self.check_against_quad_vec(geometry, z)

    # (eps = mu, z, G_xx, G_zz) to 30 digits; see below.
    FAR = (
        (-1 + 0.1j, 1500.0,
         "4.2381351181541832224937167025e-14+5.82930913619249133942872176542e-13j",
         "8.47627023630836644498743340499e-14+1.16586182723849826788574435308e-12j"),
        (-2 + 0.05j, 1500.0,
         "-2.14990922653789612108115806414e-12+5.21262323535527847994149129084e-13j",
         "-4.29981845307579224216231612828e-12+1.04252464707105569598829825817e-12j"),
        (-1 + 0.1j, 1e4,
         "1.37352534663925911237456356487e-15-1.41535496839965964049381258164e-15j",
         "2.74705069327851822474912712975e-15-2.83070993679931928098762516328e-15j"),
        (-2 + 0.05j, 1e4,
         "6.14301679708516772830447252024e-15+4.24333412740840778989060924849e-15j",
         "1.22860335941703354566089450405e-14+8.48666825481681557978121849698e-15j"),
    )

    @pytest.mark.parametrize("eps,z,exact_xx,exact_zz", FAR)
    def test_far_left_handed_thirty_digit_values(self, eps, z, exact_xx,
                                                 exact_zz):
        """The path with its cut against 30-digit values at distances
        quad_vec cannot reach: on the real axis the two sectors cancel to
        1e-7 of either, which left the real-axis engine off by up to
        1.9e-4 at z = 1500 and without a result at z = 1e4.

        The values are the real-axis integral in both sectors, so they do
        not depend on the contour, made with mpmath 1.3 by

            python - <<'EOF'
            import mpmath as mp
            mp.mp.dps = 40  # 50 agrees to all 30 digits
            def green(eps, z):  # eps = mu, z as in FAR
                eps, z = mp.mpc(eps), mp.mpf(z)
                def r(b, zz):
                    b1 = mp.sqrt(b * b + eps * eps - 1)
                    b1 = -b1 if mp.im(b1) < 0 else b1
                    rp = (eps * b - b1) / (eps * b + b1)  # r_s = r_p
                    return 2 * (1 - b * b) * rp if zz else (1 - b * b) * rp
                n = int(mp.ceil(z / mp.pi))  # one period per interval
                prop = [mp.mpf(k) / n for k in range(n + 1)]
                kap = abs(mp.re(mp.sqrt(eps * eps - 1)))  # branch point
                evan = sorted({mp.mpf(0), mp.inf}
                              | {c / z for c in (0.5, 2, 8, 32)}
                              | {kap * f for f in (0.9, 0.99, 1, 1.01, 1.1)})
                out = []
                for zz in (0, 1):
                    p = mp.quad(lambda b: mp.exp(2j * b * z) * r(b, zz), prop)
                    e = mp.quad(lambda k: mp.exp(-2 * k * z) * r(1j * k, zz),
                                evan)
                    out.append(mp.nstr((1j * p + e) / (8 * mp.pi), 30))
                return out
            EOF

        in 1 to 6.5 minutes each. The engine lands within 2.0e-13
        relative. Its error in (G_xx, G_zz), in units of its claimed error:

            eps            z = 1500        z = 1e4
            -1 + 0.1i      0.52, 0.52      0.005, 0.009
            -2 + 0.05i     0.73, 0.77      1.29, 1.07

        eps = -2 + 0.05i at z = 1e4 is above its claim, hence the fixed
        bound here. The cause is the cancellation in the Fresnel numerator
        a beta - beta1 where beta1 is near a beta: here, for eps = mu,
        near t = 0 (ROADMAP.md, "Reflection coefficients without
        cancellation").
        """
        g = green_components(z, 1.0, HalfSpace(validate_material(eps, eps)))
        for value, exact in ((g.g_xx, exact_xx), (g.g_zz, exact_zz)):
            assert abs(value - complex(exact)) <= 1e-12 * abs(complex(exact))

    @staticmethod
    def check_against_quad_vec(geometry, z):
        # quad_vec at 1e-9: with losses of 1e-6 its own round-off near the
        # surface mode keeps it from reaching 1e-10 within its panel limit.
        g = green_components(z, 1.0, geometry)
        ref_xx, ref_zz, ref_err = quad_vec_green(z, 1.0, geometry, rel_tol=1e-9)
        for value, claimed, ref in ((g.g_xx, g.error_xx, ref_xx),
                                    (g.g_zz, g.error_zz, ref_zz)):
            assert abs(value - ref) <= 1e-7 * abs(ref) + claimed + ref_err, \
                (geometry, z, value, ref)


class TestWeaklyLossySlab:
    """Mirror-backed slabs with losses of 1e-6 to 1e-4, whose guided-mode
    poles lie within about the loss of the real kappa axis, on either side
    of the strip's edge Re beta = 0 (backward modes of the left-handed
    ones inside): the strip's pole count must sort them out."""

    @pytest.mark.parametrize("eps,mu,d,z", [
        (1.670 + 1.33e-5j, 5.816 + 2.83e-6j, 43.6, 6.38),
        (-3.227 + 6.41e-6j, -5.782 + 8.10e-5j, 38.7, 22.3),
        (-2.508 + 1.45e-6j, -3.604 + 1.22e-5j, 6.54, 7.72),
        (4.476 + 1.40e-6j, 3.006 + 5.0e-6j, 4.54, 0.198),
        (2.941 + 2.53e-6j, 1, 13.7, 0.0119),
        (3.124 + 1.35e-6j, 0.634 + 2.73e-6j, 6.5, 0.109),
    ])
    def test_against_quad_vec(self, eps, mu, d, z):
        geometry = SlabWithMirror(validate_material(eps, mu), d)
        TestSteepestDescentPath.check_against_quad_vec(geometry, z)


class TestAmplifiedTail:
    """Near-lens slabs, eps = mu = -1 + i delta, amplify evanescent waves:
    the path's integrand decays late, so the engine's rounds append tail
    panels past its first call."""

    @staticmethod
    def round_sizes(monkeypatch):
        # Nodes per integrand call of each integrate_evanescent call.
        sizes = []
        real = planarcp.green.integrate_evanescent

        def recorded(integrand, *args, **kwargs):
            def f(t):
                sizes.append(len(t))
                return integrand(t)

            return real(f, *args, **kwargs)

        monkeypatch.setattr(planarcp.green, "integrate_evanescent", recorded)
        return sizes

    def test_tail_panel_and_bisections_in_one_round(self, monkeypatch):
        # The tail needs one panel past the first call and the poles near
        # the path need bisection.
        geometry = SlabWithMirror(
            validate_material(-1 + 1.849e-4j, -1 + 1.849e-4j), 2.4136)
        sizes = self.round_sizes(monkeypatch)
        g = green_components(2.4686, 1.0, geometry)
        # 15 nodes more than whole bisected pairs: a tail panel rode along.
        assert any(n % 30 == 15 and n > 15 for n in sizes[1:]), sizes
        ref_xx, ref_zz, ref_err = quad_vec_green(2.4686, 1.0, geometry)
        assert abs(g.g_xx - ref_xx) <= g.error_xx + ref_err
        assert abs(g.g_zz - ref_zz) <= g.error_zz + ref_err

    def test_tail_only_round(self, monkeypatch):
        # lens-sweep's first point: one tail panel, no bisection, and no
        # round past the one that finds the tail closed.
        sizes = self.round_sizes(monkeypatch)
        green_components(5.2, 1.0, LENS_SLAB)
        assert len(sizes) == 2 and sizes[1] == 15, sizes


def dense_count(eps, mu, d, height, left=0.0, n=400_000):
    """Zeros of D_s and D_p in left < Re beta < 1, 0 < Im beta < height
    (k0 = 1), from the phase of each on n points per edge: an argument
    principle with no adaptivity, sharing no code with the engine. At
    k0 != 1 the zeros in beta/k0 are those of k0 = 1 with d k0 for d."""
    t = np.arange(n) / n
    width = 1 - left
    beta = np.concatenate((left + width * t, 1 + 1j * height * t,
                           1 - width * t + 1j * height, left + 1j * height * (1 - t)))
    w = np.sqrt(beta * beta + eps * mu - 1)
    # cos(w d) and sin(w d) times exp(-|Im w| d), which keeps the phase.
    up, down = (np.exp(s * 1j * w * d - abs(w.imag) * d) for s in (1, -1))
    cos, sin = (up + down) / 2, (up - down) / 2j
    return [round(np.angle(f / np.roll(f, 1)).sum() / (2 * math.pi))
            for f in (cos - 1j * mu * beta * sin / w,
                      eps * beta * cos - 1j * w * sin)]


def assert_same_poles(got, want):
    """Two searches' poles of one slab at one k0, each (beta, res, dbeta,
    dres, on_edge) or None, agree within what they claim: the same number
    of each kind, each beta within max(dbeta) + 8 ulp |beta| of the other's
    nearest pole of its kind, its residue within the sum of the two dres."""
    assert (got is None) == (want is None)
    if got is None:
        return
    beta, res, dbeta, dres, on_edge = got
    assert np.count_nonzero(res, axis=1).tolist() == np.count_nonzero(want[1], axis=1).tolist()
    for j, b in enumerate(want[0]):
        kind = int(want[1][0, j] == 0)
        i = min(np.flatnonzero(res[kind]), key=lambda i: abs(beta[i] - b))
        assert abs(beta[i] - b) <= max(dbeta[i], want[2][j]) + 8 * EPS * abs(b)
        assert abs(res[kind, i] - want[1][kind, j]) <= dres[kind, i] + want[3][kind, j]
        assert on_edge[i] == want[4][j]


def assert_pinned_poles(got, digits):
    """A search's poles of one slab at one k0, (beta, res, dbeta, dres,
    on_edge) or None, against their digits [kind, beta, residue]: the same
    number of each kind, each beta within its dbeta of the nearest pole of
    its kind, its residue within its dres."""
    assert (got is None) == (not digits)
    if got is None:
        return
    beta, res, dbeta, dres, on_edge = got
    kinds = [kind for kind, _, _ in digits]
    assert np.count_nonzero(res, axis=1).tolist() == [kinds.count(0), kinds.count(1)]
    for kind, b, r in digits:
        b, r = (complex(*map(float, z)) for z in (b, r))
        i = min(np.flatnonzero(res[kind]), key=lambda i: abs(beta[i] - b))
        assert abs(beta[i] - b) <= dbeta[i]
        assert abs(res[kind, i] - r) <= dres[kind, i]
        assert not on_edge[i]


def polynomial(*zeros):
    """fns for one transition: D_s = prod (x - zeros), D_p = 1, beta1 = 1
    at every x, a row per transition; with a transition row per node, also
    D_s', D_p' = 0 and numerators 1, at each node alone."""
    def fns(x, row=None):
        ones = np.ones_like(x)
        rows = [np.prod([x - z for z in zeros], axis=0), ones, ones]
        if row is None:
            return np.stack(rows)[:, None]
        assert np.shape(row) == np.shape(x) and not np.any(row)
        return np.stack(rows + [sum(np.prod([ones] + [x - z for z in zeros[:j] + zeros[j + 1:]],
                                            axis=0) for j in range(len(zeros))),
                                0 * ones, ones, ones])

    return fns


class TestStripPoles:
    """The poles of a mirror-backed slab's coefficients in the strip
    0 < Re beta < k0, whose residues the path adds."""

    # Poles and residues of a set of media to 40 digits, written with
    # mpmath alone by tests/make_pole_digits.py.
    PINNED = json.loads((Path(__file__).parent / "strip_poles.json").read_text())

    @pytest.mark.parametrize("medium", PINNED, ids=lambda m: f"{complex(*m['eps'])}-{m['d']}")
    def test_poles_pinned(self, medium):
        # The poles that the sums of a walk or of its halves seed and
        # Newton's method polishes, each within its own claims of the digits.
        slab = SlabWithMirror(validate_material(complex(*medium["eps"]),
                                                complex(*medium["mu"])), medium["d"])
        for got, digits in zip(_strip_poles(slab, tuple(medium["omegas"])), medium["poles"]):
            assert_pinned_poles(got, digits)

    @pytest.mark.parametrize("zeros", [[0.31 + 0.42j]])
    def test_power_sums_seed_the_polish(self, zeros):
        # The walk's sum of a lone zero is a seed within 1e-3 of it;
        # Newton's method takes it to 1e-13, with no second walk. _locate
        # evaluates at the seed first.
        fns, calls, walks = polynomial(*zeros), [], []
        n, s = _count_zeros(fns, 0j, 1.0, 1.0, 1.0)
        assert n.tolist() == [[len(zeros)], [0]]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(planarcp.green, "_count_zeros",
                                lambda *args: walks.append(args) or _count_zeros(*args))
            found = _locate(lambda x, *row: calls.append(x) or fns(x, *row),
                            0j, 1.0, 1.0, 1.0, n, s, 1.0)
        assert not walks
        assert all(min(abs(calls[0] - z)) < 1e-3 for z in zeros)
        assert len(found) == len(zeros)
        assert all(min(abs(x - z) for x, *_ in found) < 1e-13 for z in zeros)

    @pytest.mark.parametrize("zeros", [
        [0.37 + 0.41j, 0.37 + 0.41j + 1e-6],                       # a close pair
        [0.21 + 0.18j, 0.83 + 0.29j, 0.57 + 0.44j, 0.29 + 0.81j, 0.71 + 0.77j],
        [0.31 + 0.42j, 0.73 + 0.61j],
        [0.31 + 0.42j, 0.73 + 0.61j, 0.46 + 0.23j],
    ])
    def test_halving_fallback(self, zeros, monkeypatch):
        # More than one zero in a row sends the row to the rectangle's
        # halves, one of them walked again; every zero still comes back,
        # within its claimed step.
        fns, walks = polynomial(*zeros), []
        n, s = _count_zeros(fns, 0j, 1.0, 1.0, 1.0)
        monkeypatch.setattr(planarcp.green, "_count_zeros",
                            lambda *args: walks.append(args) or _count_zeros(*args))
        found = _locate(fns, 0j, 1.0, 1.0, 1.0, n, s, 1.0)
        assert walks
        assert len(found) == len(zeros)
        assert all(min(abs(x - z) - dx for x, _, _, dx in found) <= 0.0 for z in zeros)

    @pytest.mark.parametrize("eps,mu,d,expected", [
        (-1 + 1e-4j, -1 + 1e-4j, 5.0, [1, 2]),        # lens-sweep's slab
        (-1 + 0.01j, -1 + 0.01j, 20.0, [6, 6]),
        # Guided modes 1e-7 outside the strip's left edge.
        (9 + 1e-6j, 1, 50.0, [0, 0]),
        # The media of TestWeaklyLossySlab.
        (1.670 + 1.33e-5j, 5.816 + 2.83e-6j, 43.6, None),
        (-3.227 + 6.41e-6j, -5.782 + 8.10e-5j, 38.7, None),
        (-2.508 + 1.45e-6j, -3.604 + 1.22e-5j, 6.54, None),
        (4.476 + 1.40e-6j, 3.006 + 5.0e-6j, 4.54, None),
        (2.941 + 2.53e-6j, 1, 13.7, None),
        (3.124 + 1.35e-6j, 0.634 + 2.73e-6j, 6.5, None),
    ])
    def test_count_matches_dense_boundary_count(self, eps, mu, d, expected):
        geometry = SlabWithMirror(validate_material(eps, mu), d)
        beta, res, _, _, _ = _strip_poles(geometry, (1.0,))[0] or (np.zeros(0),) * 5
        counts = [int(np.count_nonzero(row)) for row in res] or [0, 0]
        height = _strip_height(geometry.material, d, 1.0)
        assert counts == dense_count(eps, mu, d, height)
        assert expected is None or counts == expected
        assert np.all((beta.real > 0) & (beta.real < 1) & (beta.imag > 0))

    @pytest.mark.parametrize("zero", [0.5, 0.3])
    def test_zero_on_the_boundary(self, zero):
        # A zero of D on the unit square's bottom edge: at 0.5 it lies on
        # a boundary sample, where np.angle turns by 0 on both sides; at
        # 0.3 it lies between samples, where the turn stays at pi.
        def fns(beta):
            return np.stack((beta - zero, np.ones_like(beta), np.ones_like(beta)))

        with pytest.raises(DegenerateDenominator):
            _count_zeros(fns, 0j, 1.0, 1.0, 1.0)

    def test_lossless_guided_mode_on_the_edge(self):
        # The real-q guided modes of a lossless slab lie on Re beta = 0,
        # where the i0+ limit decides whether they count: a typed error
        # where their terms matter, the path value where they do not.
        slab = SlabWithMirror(validate_material(4, 1), 3.0)
        with pytest.raises(DegenerateDenominator):
            green_components(1.0, 1.0, slab)
        beta, _, _, _, on_edge = _strip_poles(slab, (1.0,))[0]
        assert on_edge.all() and np.all(beta.real == pytest.approx(0, abs=1e-12))
        thin = SlabWithMirror(validate_material(2.15, 4.44), 0.17)
        lossy = SlabWithMirror(validate_material(2.15 + 1e-9j, 4.44 + 1e-9j), 0.17)
        g, limit = green_components(38.2, 1.0, thin), green_components(38.2, 1.0, lossy)
        assert abs(g.g_xx - limit.g_xx) <= 1e-8 * abs(limit.g_xx)

    @pytest.mark.parametrize("d", [1e-310, 1e-30, 1e6, 1e12, 1e300])
    def test_thickness_outside_the_walk_range(self, d, monkeypatch):
        # Refused before the walk's height or nodes are worked out: 1/d
        # overflows at 1e-310, and 1e6 would take 2e7 nodes.
        def built(*args):
            raise AssertionError("walk built")

        monkeypatch.setattr(planarcp.green, "_strip_height", built)
        monkeypatch.setattr(planarcp.green, "_count_zeros", built)
        slab = SlabWithMirror(validate_material(2 + 0.1j, 1), d)
        with pytest.raises(DomainError, match=re.escape(
                f"slab thickness {d} times omega = 1.0, 0.8 is outside")):
            green_components(1.0, [1.0, 0.8], slab)

    def test_lossy_pole_beyond_the_walk_resolution(self):
        # A thin lossy slab's D_p has a zero near (i - 0.05) d / 2, which
        # the walk cannot tell from the strip's edge; the cause blames no
        # lossless input.
        slab = SlabWithMirror(validate_material(2 + 0.1j, 1), 1e-7)
        with pytest.raises(DegenerateDenominator) as info:
            green_components(1.0, 1.0, slab)
        assert str(info.value) == ("a slab's reflection pole lies on the strip's "
                                   "boundary or nearer to it than the walk resolves")

    def test_count_without_a_pole_raises(self, monkeypatch):
        # A count that puts a zero in a zero-free slab's strip, at every
        # halving: the search runs down to rectangles 1e-12 k0 wide and
        # fails with a typed error, not a missing residue.
        slab = SlabWithMirror(validate_material(2 + 0.1j, 1), 1.0)
        monkeypatch.setattr(planarcp.green, "_count_zeros", false_zero_count)
        _strip_poles.cache_clear()
        with pytest.raises(NotConverged, match="no slab pole found"):
            green_components(1.0, 1.0, slab)

    @staticmethod
    def walks(monkeypatch):
        """The counts that each _count_zeros call returns, in call order."""
        counts, count_zeros = [], planarcp.green._count_zeros

        def spy(*args):
            out = count_zeros(*args)
            counts.append(out[0])
            return out

        monkeypatch.setattr(planarcp.green, "_count_zeros", spy)
        _strip_poles.cache_clear()
        return counts

    def test_flat_denominator_polish(self, monkeypatch):
        # Near the perfect lens D is flat at its poles, where rounding D's
        # terms moves a zero by 1e-15/|D'| > 1e-13: the polish stops there
        # instead of sending a lone zero to the halves. So the search walks
        # only the halves that part D_p's pair, which are found here by
        # halving as _locate does until no part holds two zeros of one D.
        counts = self.walks(monkeypatch)
        medium = next(m for m in self.PINNED if m["eps"] == [-1.0, 1e-6])
        slab = SlabWithMirror(validate_material(-1 + 1e-6j, -1 + 1e-6j), 5.0)
        assert_pinned_poles(_strip_poles(slab, (1.0,))[0], medium["poles"][0])
        zeros = [(kind, complex(*map(float, b))) for kind, b, _ in medium["poles"][0]]

        def walks_to_part(corner, wx, wy):
            kinds = [kind for kind, b in zeros
                     if 0 < (b - corner).real < wx and 0 < (b - corner).imag < wy]
            if max(kinds.count(0), kinds.count(1)) <= 1:
                return 0
            half = (wx / 2, wy) if wx > wy else (wx, wy / 2)
            return (1 + walks_to_part(corner, *half)
                    + walks_to_part(corner + wx + 1j * wy - half[0] - 1j * half[1], *half))

        height = _strip_height(slab.material, 5.0, 1.0)
        assert len(counts) == 1 + walks_to_part(0j, 1.0, height) > 1

    def test_lone_zeros_walk_once(self, monkeypatch):
        # Each pinned medium whose D rows hold at most one zero each: the
        # walk's sums seed every polish, and no rectangle is halved
        # (test_poles_pinned checks the poles found).
        lone = [m for m in self.PINNED
                if all(max(kinds.count(0), kinds.count(1)) <= 1
                       for kinds in ([p[0] for p in poles] for poles in m["poles"]))]
        assert len(lone) == 23
        counts = self.walks(monkeypatch)
        for medium in lone:
            del counts[:]
            slab = SlabWithMirror(validate_material(complex(*medium["eps"]),
                                                    complex(*medium["mu"])), medium["d"])
            _strip_poles(slab, tuple(medium["omegas"]))
            assert len(counts) == 1, medium

    def test_zero_free_atom_walks_once(self, monkeypatch):
        # Two transitions of a slab with no strip zero: one walk counts
        # both, and no rectangle is halved.
        counts = self.walks(monkeypatch)
        slab = SlabWithMirror(validate_material(2 + 0.1j, 1), 1.0)
        green_components(1.0, np.array([1.0, 0.8]), slab)
        assert len(counts) == 1 and counts[0].shape == (2, 2) and not counts[0].any()

    def test_one_evaluation_function(self, monkeypatch):
        # A slab with a strip zero of D_s and one of D_p at each of two
        # transitions: every evaluation of the search comes from fns. The
        # walk's take both transitions as a column; the polish's and the
        # residues' take slopes at one k0 per node, each pole's own.
        medium = next(m for m in self.PINNED
                      if [sorted(p[0] for p in poles) for poles in m["poles"]] == [[0, 1]] * 2)
        slab = SlabWithMirror(validate_material(complex(*medium["eps"]),
                                                complex(*medium["mu"])), medium["d"])
        calls, denominators = [], planarcp.green.slab_mirror_denominators

        def spy(beta, omega, material, d, slopes=False):
            calls.append((sys._getframe(1).f_code.co_name, np.shape(beta), np.array(omega),
                          slopes))
            return denominators(beta, omega, material, d, slopes)

        monkeypatch.setattr(planarcp.green, "slab_mirror_denominators", spy)
        _strip_poles.cache_clear()
        for got, digits in zip(_strip_poles(slab, (1.0, 0.8)), medium["poles"]):
            assert_pinned_poles(got, digits)
        assert {caller for caller, *_ in calls} == {"fns"}
        walk = [omega for _, _, omega, slopes in calls if not slopes]
        assert walk and all(omega.tolist() == [[1.0], [0.8]] for omega in walk)
        sloped = [(shape, omega) for _, shape, omega, slopes in calls if slopes]
        assert sloped and all(omega.shape == shape for shape, omega in sloped)
        assert {*np.concatenate([omega.ravel() for _, omega in sloped])} == {1.0, 0.8}

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["right-handed", "eps-negative", "mu-negative",
                                 "left-handed"]),
           eps_re=st.floats(0.01, 6.0), mu_re=st.floats(0.01, 6.0),
           eps_loss=st.floats(-4.0, 0.0), mu_loss=st.floats(-4.0, 0.0),
           lossless=st.booleans(), log_d=st.floats(math.log10(0.05), math.log10(20.0)),
           omegas=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=3, unique=True))
    # A thin film's plasmon at beta = (0.025 + 4.66i) k0 for the second
    # transition, above the first one's own height of 1.03 k0.
    @example(kind="left-handed", eps_re=0.2755, mu_re=4.54, eps_loss=-3.854,
             mu_loss=-0.4225, lossless=False, log_d=-0.923, omegas=[8.12, 0.514])
    def test_one_walk_counts_every_transition(self, kind, eps_re, mu_re, eps_loss,
                                              mu_loss, lossless, log_d, omegas):
        # Each transition's count from the atom's one walk is that of its
        # own walk and of a dense count, and its poles agree with those of
        # its own walk within their claims (each walk's sums seed the
        # polish, so the last bits differ).
        if kind in ("eps-negative", "left-handed"):
            eps_re = -eps_re
        if kind in ("mu-negative", "left-handed"):
            mu_re = -mu_re
        eps, mu = (complex(eps_re, 0.0 if lossless else 10.0 ** eps_loss),
                   complex(mu_re, 0.0 if lossless else 10.0 ** mu_loss))
        d = 10.0 ** log_d
        geometry = SlabWithMirror(validate_material(eps, mu), d)
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = self.walks(monkeypatch)
            atom = _strip_poles(geometry, tuple(omegas))
            walk = counts[0]
            for i, k0 in enumerate(omegas):
                del counts[:]
                _strip_poles.cache_clear()
                alone = _strip_poles(geometry, (k0,))[0]
                assert walk[:, i].tolist() == counts[0][:, 0].tolist()
                height = _strip_height(geometry.material, d, k0) / k0
                # A lossless slab's guided modes lie on Re beta = 0.
                assert walk[:, i].tolist() == dense_count(
                    eps, mu, d * k0, height, -1e-5 if lossless else 0.0, n=200_000)
                assert_same_poles(atom[i], alone)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["right-handed", "eps-negative", "mu-negative",
                                 "left-handed"]),
           eps_re=st.floats(0.01, 6.0), mu_re=st.floats(0.01, 6.0),
           eps_loss=st.floats(-4.0, 0.0), mu_loss=st.floats(-4.0, 0.0),
           log_d=st.floats(math.log10(0.05), math.log10(20.0)),
           log_z=st.floats(-3.0, 2.0))
    def test_slab_against_quad_vec(self, kind, eps_re, mu_re, eps_loss,
                                   mu_loss, log_d, log_z):
        if kind in ("eps-negative", "left-handed"):
            eps_re = -eps_re
        if kind in ("mu-negative", "left-handed"):
            mu_re = -mu_re
        material = validate_material(complex(eps_re, 10.0 ** eps_loss),
                                     complex(mu_re, 10.0 ** mu_loss))
        TestSteepestDescentPath.check_against_quad_vec(
            SlabWithMirror(material, 10.0 ** log_d), 10.0 ** log_z)

    def test_thick_weakly_lossy_slab_at_short_distance(self):
        # The real axis took 32,805 evaluations at z = 5 and did not
        # converge at z = 0.5.
        geometry = SlabWithMirror(validate_material(9 + 1e-6j, 1), 50.0)
        TestSteepestDescentPath.check_against_quad_vec(geometry, 0.5)

    # (eps, mu, d, z, omega, G_xx, G_zz) to 30 digits; see below.
    FAR = (
        (2 + 0.1j, 1, 1.0, 1e4, 1.0,
         "3.58786685357183856240319501047e-6+6.53727736954958130963479659999e-7j",
         "-6.53664730000709494039045087077e-11+3.58759674954675545120237216991e-10j"),
        (-2 + 0.05j, -2 + 0.05j, 1.0, 1e4, 1.0,
         "3.49961050194681376289337587799e-6-8.45993166983454495528622196594e-7j",
         "8.46099801881780672321843696033e-11+3.49998098180430318632499227801e-10j"),
        (-1.034770719048046 + 0.0004523214587456385j,
         -2.6645382400244264 + 0.0002999246121315607j,
         0.08878882051299529, 707.9457843841374, 0.8,
         "-1.14872263045058362547617684186e-5-5.50210004704811782027213384965e-5j",
         "9.71205394031388694837990816506e-8-2.02765892980617208406865831669e-8j"),
    )

    @pytest.mark.parametrize("eps,mu,d,z,omega,exact_xx,exact_zz", FAR)
    def test_far_slab_thirty_digit_values(self, eps, mu, d, z, omega, exact_xx,
                                          exact_zz):
        """The path with its residues against 30-digit values far out. At
        z = 1e4 the real axis's sectors cancelled and it did not converge;
        at omega = 0.8 the phase exp(2i k0 z) must be taken at the exact
        product k0 z, and G_zz's q^2 = k0^2 - beta^2 as a product, or the
        value is off by 5.7 and 4.9 times its claimed error.

        The values are the real-axis integral in both sectors, so they do
        not depend on the contour, made with mpmath 1.3 by

            python - <<'EOF'
            import mpmath as mp
            mp.mp.dps = 40
            def green(eps, mu, d, z, k0):  # as in FAR, k0 = omega
                eps, mu, d, z, k0 = (mp.mpc(eps), mp.mpc(mu), mp.mpf(d),
                                     mp.mpf(z), mp.mpf(k0))
                def R(b, zz):
                    w = mp.sqrt(b * b + (eps * mu - 1) * k0 * k0)  # r is even in w
                    c, s = mp.cos(w * d), mp.sin(w * d) / w
                    rs = -(c + 1j * mu * b * s) / (c - 1j * mu * b * s)
                    rp = ((eps * b * c + 1j * w * w * s)
                          / (eps * b * c - 1j * w * w * s))
                    q = 1 - (b / k0) ** 2
                    return 2 * q * rp if zz else rs - (b / k0) ** 2 * rp
                n = int(mp.ceil(k0 * z / mp.pi))  # one period per interval
                prop = [k0 * k / n for k in range(n + 1)]
                evan = [mp.mpf(0)] + [c / z for c in (0.5, 2, 8, 32)] + [mp.inf]
                out = []
                for zz in (0, 1):
                    p = mp.quad(lambda b: mp.exp(2j * b * z) * R(b, zz), prop)
                    e = mp.quad(lambda k: mp.exp(-2 * k * z) * R(1j * k, zz),
                                evan)
                    out.append(mp.nstr((1j * p + e) / (8 * mp.pi), 30))
                return out
            EOF

        in about 14 minutes each at z = 1e4 and 1 minute at z = 708.
        """
        g = green_components(z, omega, SlabWithMirror(validate_material(eps, mu), d))
        for value, claimed, exact in ((g.g_xx, g.error_xx, exact_xx),
                                      (g.g_zz, g.error_zz, exact_zz)):
            assert abs(value - complex(exact)) <= claimed


class TestProduct:
    def test_exact_on_seeded_pairs(self):
        # The phase's argument k0 z, as p + e, is a b exactly.
        rng = np.random.default_rng(0)
        k0 = 10.0 ** rng.uniform(-3.0, 1.0, 20_000)
        z = 10.0 ** rng.uniform(-3.0, 5.0, 20_000)
        for a, b in zip(k0.tolist(), z.tolist()):
            p, e = _product(a, b)
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    def test_no_error_where_the_split_overflows(self):
        assert _product(1.0, 1e301) == (1e301, 0.0)
