# tests/test_dispersion.py
"""Branch choices and reflection coefficients of the planar dispersion layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planarcp import (DegenerateDenominator, PerfectLens, SlabWithMirror,
                      Transition, VACUUM, validate_material)
from planarcp.dispersion import (beta1_of_beta, halfspace_rs_rp, medium_beta1,
                                 slab_mirror_denominators, slab_mirror_rs_rp,
                                 vacuum_beta)


def upper_sqrt(w):
    r = cmath.sqrt(w)
    return -r if r.imag < 0 else r


def betas(q, m):
    """(beta, beta1) at transverse wavenumber q for omega = c = 1."""
    return vacuum_beta(q, 1.0), medium_beta1(q, 1.0, m)


def halfspace(q, m):
    return halfspace_rs_rp(*betas(q, m), m)


def slab(q, m, d):
    return slab_mirror_rs_rp(*betas(q, m), m, d)


def lens(q, d):
    """Closed coefficients of the lossless eps = mu = -1 mirror-backed
    slab: r_s = -r_p = -exp(-2i beta d)."""
    phase = cmath.exp(-2j * vacuum_beta(q, 1.0) * d)
    return -phase, phase


class TestWaveNumbers:
    def test_vacuum_normal_incidence(self):
        beta = vacuum_beta(0.0, 1.0)
        assert beta == pytest.approx(1.0)
        assert beta.imag == 0.0  # propagating

    def test_vacuum_evanescent(self):
        beta = vacuum_beta(2.0, 1.0)
        assert beta == pytest.approx(1j * math.sqrt(3.0))
        assert beta.real == 0.0  # evanescent

    def test_grazing_label(self):
        # The light line q = omega/c separates the two sectors: beta is
        # real just below it, zero on it and imaginary just above it.
        below, on, above = vacuum_beta(np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]), 1.0)
        assert below.real > 0.0 and below.imag == 0.0
        assert on == 0.0
        assert above.real == 0.0 and above.imag > 0.0

    def test_input_validation(self):
        # The array functions check no arguments: the frequency reaches
        # them from a Transition, which rejects omega <= 0 and non-finite
        # values, and q enters only through q^2, so a negative q gives
        # the same roots as |q| rather than a wrong branch.
        for omega in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Transition(omega, 1.0, 0.0)
        m = validate_material(2 + 0.1j, 1.5)
        assert vacuum_beta(-0.1, 1.0) == vacuum_beta(0.1, 1.0)
        assert medium_beta1(-0.1, 1.0, m) == medium_beta1(0.1, 1.0, m)

    def test_lossy_branch_upper_half_plane(self):
        m = validate_material(-1 + 1e-3j, -1 + 1e-3j)
        for q in (0.0, 0.5, 0.99, 1.01, 3.0):
            beta, beta1 = betas(q, m)
            assert beta.imag >= 0.0
            assert beta1.imag > 0.0

    def test_lossless_left_handed_negates_beta1(self):
        # For eps = mu = -1 exactly the in-medium radicand equals the
        # vacuum one; the vanishing-absorption limit picks the opposite
        # (negative-refraction) sign of the real root.
        m = validate_material(-1, -1)
        for q in (0.0, 0.3, 0.9):
            beta, beta1 = betas(q, m)
            assert beta1 == pytest.approx(-beta, rel=1e-14)

    def test_branch_certificate_sampled(self):
        # Im beta >= 0 and Im beta1 >= 0 across regimes and materials.
        mats = [VACUUM, validate_material(2 + 0.1j, 1),
                validate_material(-3 + 1e-3j, 2 + 0.5j),
                validate_material(0.5, 3), validate_material(-1, -1)]
        for m in mats:
            beta, beta1 = betas(np.linspace(0.0, 10.0, 41), m)
            assert np.all(beta.imag >= 0.0)
            assert np.all(beta1.imag >= -1e-15)

    def test_array_broadcasting(self):
        q = np.array([0.0, 0.5, 2.0])
        b = vacuum_beta(q, 1.0)
        assert b.shape == (3,)
        assert b[2] == pytest.approx(1j * math.sqrt(3.0))
        b1 = medium_beta1(q, 1.0, validate_material(2 + 0.1j, 1))
        assert b1.shape == (3,)


class TestWaveNumberOfBeta:
    """beta1 as a function of the vacuum beta, for the path beta = k0 + i t."""

    PATH = 1.0 + 1j * np.array([0.0, 1e-9, 0.3, 1.0, 7.0, 1e4])

    def test_vacuum_is_beta_bit_for_bit(self):
        beta1 = beta1_of_beta(self.PATH, 1.0, VACUUM)
        assert np.array_equal(beta1, self.PATH)
        assert beta1_of_beta(1.0 + 0.5j, 1.0, VACUUM) == 1.0 + 0.5j

    @pytest.mark.parametrize("eps,mu", [
        (2 + 0.1j, 1), (-3 + 1e-3j, 2 + 0.5j), (0.5, 3), (-2, 1), (-1, -1),
        (-1 + 1e-3j, -1 + 1e-3j)])
    def test_matches_medium_beta1_on_real_q_axis(self, eps, mu):
        m = validate_material(eps, mu)
        q = np.linspace(0.0, 10.0, 41)
        beta, beta1 = betas(q, m)
        assert np.allclose(beta1_of_beta(beta, 1.0, m), beta1, rtol=1e-12,
                           atol=1e-12)

    def test_upper_half_plane_on_path(self):
        for m in (validate_material(2 + 0.1j, 1), validate_material(-6, 0.5),
                  validate_material(-1 + 0.1j, -1 + 0.1j)):
            beta1 = beta1_of_beta(self.PATH, 1.0, m)
            assert np.all(beta1.imag >= 0.0)
            assert np.allclose(beta1 ** 2, self.PATH ** 2 + m.epsilon * m.mu - 1.0)


class TestHalfSpaceReflection:
    def test_normal_incidence_dielectric(self):
        # eps = 2: r_p = (2 - sqrt(2))/(2 + sqrt(2)) at q = 0.
        m = validate_material(2, 1)
        r_s, r_p = halfspace(0.0, m)
        expected = (2 - math.sqrt(2)) / (2 + math.sqrt(2))
        assert r_p == pytest.approx(expected, rel=1e-12)
        assert r_s == pytest.approx(-expected, rel=1e-12)

    @given(st.floats(0.2, 5.0), st.floats(1e-4, 1.0),
           st.floats(0.2, 5.0), st.floats(1e-4, 1.0))
    def test_normal_incidence_identity(self, er, ei, mr, mi):
        # r_s = -r_p = (sqrt(mu) - sqrt(eps))/(sqrt(mu) + sqrt(eps)) at q = 0.
        m = validate_material(complex(er, ei), complex(mr, mi))
        r_s, r_p = halfspace(0.0, m)
        se, sm = upper_sqrt(m.epsilon), upper_sqrt(m.mu)
        expected = (sm - se) / (sm + se)
        assert r_s == pytest.approx(expected, rel=1e-12)
        assert r_p == pytest.approx(-expected, rel=1e-12)

    def test_mirror_limit(self):
        m = validate_material(1e8 + 1e5j, 1)
        r_s, r_p = halfspace(np.array([0.0, 0.7, 2.0]), m)
        assert np.all(abs(r_s + 1.0) < 1e-3)
        assert np.all(abs(r_p - 1.0) < 1e-3)

    def test_vacuum_reflects_nothing(self):
        r_s, r_p = halfspace(np.array([0.0, 0.5, 3.0]), VACUUM)
        assert np.all(r_s == 0.0) and np.all(r_p == 0.0)

    def test_propagating_passivity_bound(self):
        # Below the light line a passive half space cannot over-reflect.
        for m in (validate_material(2 + 0.1j, 1.5 + 0.2j),
                  validate_material(-3 + 1e-3j, 1),
                  validate_material(0.5 + 1e-4j, 3 + 0.01j)):
            r_s, r_p = halfspace(np.linspace(0.0, 0.999, 25), m)
            assert np.all(abs(r_s) <= 1.0 + 1e-9)
            assert np.all(abs(r_p) <= 1.0 + 1e-9)

    def test_continuity_across_light_line(self):
        # beta has a square-root kink at q = omega/c, so the coefficients
        # move by O(sqrt(dq)) there; the test guards against an O(1)
        # branch jump, not against the kink itself.
        m = validate_material(2 + 0.1j, 1.5 + 0.3j)
        lo = halfspace(1.0 - 1e-8, m)
        hi = halfspace(1.0 + 1e-8, m)
        assert abs(lo[0] - hi[0]) < 1e-3
        assert abs(lo[1] - hi[1]) < 1e-3

    def test_degenerate_denominator_guard(self):
        # beta = i, beta1 = 2i sits exactly on a lossless surface mode:
        # the p one for eps = -2 (eps beta + beta1 = 0), the s one for
        # mu = -2 (mu beta + beta1 = 0). Floating-point q never lands on
        # the pole, so the guard is fed the exact wavenumbers directly;
        # its message names the polarisation whose denominator vanished.
        for eps, mu, which in ((-2, 1, "r_p"), (1, -2, "r_s")):
            with pytest.raises(DegenerateDenominator, match=f"^{which} denominator"):
                halfspace_rs_rp(1j, 2j, validate_material(eps, mu))

    def test_stacked_coefficients_equal_each_polarisation(self):
        # The (r_s, r_p) rows of both geometries, bit for bit, against
        # each polarisation's own formula. The reference runs on arrays
        # even for a scalar beta: numpy's scalar arithmetic may round a
        # complex product differently from its array loops.
        def reference(beta, beta1, m, d=None):
            beta, beta1 = np.atleast_1d(beta, beta1)
            rows = []
            for a, sign in ((m.mu, -1.0), (m.epsilon, 1.0)):
                minus, plus = a * beta - beta1, a * beta + beta1
                if d is None:
                    rows.append(minus / plus)
                    continue
                phase = np.exp(2j * beta1 * d)
                rows.append((minus - plus * phase) / (plus - minus * phase) if sign < 0
                            else (minus + plus * phase) / (plus + minus * phase))
            return np.array(rows)

        rng = np.random.default_rng(26)
        for _ in range(100):
            m = validate_material(*(complex(rng.uniform(-5, 5), 10 ** rng.uniform(-6, 0))
                                    for _ in range(2)))
            d = 10 ** rng.uniform(-2, 1)
            for shape in ((), (7,), (2, 9)):
                beta = 1.0 + 1j * rng.uniform(0.0, 5.0, shape)
                beta = complex(beta) if shape == () else beta
                beta1 = beta1_of_beta(beta, 1.0, m)
                for got, want in ((halfspace_rs_rp(beta, beta1, m), reference(beta, beta1, m)),
                                  (slab_mirror_rs_rp(beta, beta1, m, d),
                                   reference(beta, beta1, m, d))):
                    assert got.shape == (2,) + np.shape(beta)
                    assert got.reshape(want.shape).tobytes() == want.tobytes(), (m, d, shape)


class TestSlabMirrorReflection:
    def test_thick_slab_reduces_to_halfspace(self):
        # Im(beta1) * d = O(50): the mirror behind the slab is invisible.
        m = validate_material(2 + 0.5j, 1.5 + 0.2j)
        q = np.array([0.0, 0.8, 1.5, 3.0])
        for r_slab, r_half in zip(slab(q, m, 200.0), halfspace(q, m)):
            assert np.all(abs(r_slab - r_half) < 1e-12)

    def test_transparent_slab_is_displaced_mirror(self):
        # eps = mu = 1: only the mirror remains, seen through a phase
        # delay 2 beta d: r_s = -exp(2 i beta d), r_p = +exp(2 i beta d).
        d = 0.7
        for q in (0.0, 0.5, 2.0):
            r_s, r_p = slab(q, VACUUM, d)
            phase = cmath.exp(2j * vacuum_beta(q, 1.0) * d)
            assert r_s == pytest.approx(-phase, rel=1e-12)
            assert r_p == pytest.approx(phase, rel=1e-12)

    def test_left_handed_slab_approaches_lens(self):
        # eps = mu = -1 + i delta converges to the closed lens
        # coefficients as delta -> 0 (propagating sector).
        d = 0.4
        lens_s, lens_p = lens(0.6, d)
        prev = None
        for delta in (1e-3, 1e-6, 1e-9):
            m = validate_material(complex(-1, delta), complex(-1, delta))
            r_s, r_p = slab(0.6, m, d)
            dev = abs(r_s - lens_s) + abs(r_p - lens_p)
            if prev is not None:
                assert dev < prev
            prev = dev
        assert prev < 1e-8

    def test_lossless_left_handed_slab_equals_lens(self):
        # With the negative-refraction branch, the slab formula at
        # eps = mu = -1 exactly reproduces the closed coefficients.
        d = 0.4
        m = validate_material(-1, -1)
        for q in (0.0, 0.3, 0.9):
            r_s, r_p = slab(q, m, d)
            lens_s, lens_p = lens(q, d)
            assert r_s == pytest.approx(lens_s, rel=1e-12)
            assert r_p == pytest.approx(lens_p, rel=1e-12)

    @pytest.mark.parametrize("beta,ds,dp", [
        # beta, then D_s'/D_s and D_p'/D_p to 30 digits (mpmath, 50-digit
        # arithmetic), for eps = 0.5 + 0.1i, mu = 1, d = 2, omega = 1.
        (0.7119392000550135 - 0.06923933519104877j,
         "-0.604092250806557861440761862742-1.44935664935525352348133947826j",
         "-2.89107146466763794339184428211-7.28343620430351171917396570253j"),
        (0.7105991599827491 - 0.07036305731195158j,
         "-0.603951212471123665280279674467-1.4472088414174999537144073976j",
         "-2.98724863975155728364688113612-7.27286266007293818662506039017j"),
        (0.7105990259623834 - 0.07036316989771499j,
         "-0.603951198237541016296689182376-1.44720862636519353776032831725j",
         "-2.98725829527108847794751382038-7.27286148340327870288863346128j"),
        (0.742645093392726 - 0.04450802686412155j,
         "-0.606595141024406361904034357854-1.49731774316630975121322398831j",
         "-0.993987960461224750773768978712-7.01383898922622505703430128485j"),
        (0.745298545753887 - 0.04245555256214438j,
         "-0.606743389084371693120743566476-1.50135722988046902563017556075j",
         "-0.863237854016676680623795046385-6.95825809966428941064168534581j"),
    ], ids=["x=1e-1", "x=1e-3", "x=1e-5", "x=0.49", "x=0.51"])
    def test_slopes_where_beta1_d_is_small(self, beta, ds, dp):
        # x = |beta1 d| from 1e-5 to either side of the series' switch at
        # 1/2: S' = beta (d C - S)/beta1^2 loses about 2 log10(1/x) digits
        # to cancellation, 10 of them at 1e-5.
        m = validate_material(0.5 + 0.1j, 1.0)
        f = slab_mirror_denominators(np.array([beta]), 1.0, m, 2.0, slopes=True)[:, 0]
        for got, want in ((f[3] / f[0], complex(ds)), (f[4] / f[1], complex(dp))):
            assert abs(got - want) < 1e-15 * abs(want)

    def test_thickness_validation(self):
        # slab_mirror_rs_rp and the green module take the thickness from
        # the geometries, which reject zero, negative and non-finite
        # values before exp(2i beta1 d) is formed.
        for d in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SlabWithMirror(VACUUM, d)
            with pytest.raises(ValueError):
                PerfectLens(d)


class TestPerfectLensReflection:
    """The mirror-backed slab at lossless eps = mu = -1, the perfect lens."""

    LENS = validate_material(-1, -1)

    def test_propagating_phase(self):
        r_s, r_p = slab(0.6, self.LENS, 0.5)
        phase = cmath.exp(-2j * vacuum_beta(0.6, 1.0) * 0.5)
        assert r_s == pytest.approx(-phase, rel=1e-14)
        assert r_p == pytest.approx(phase, rel=1e-14)
        assert abs(r_s) == pytest.approx(1.0, rel=1e-14)

    def test_evanescent_amplification(self):
        # beta = i kappa: |r| = exp(2 kappa d) > 1 (amplified waves).
        kappa = math.sqrt(3.0)
        r_s, r_p = slab(2.0, self.LENS, 0.5)
        assert abs(r_p) == pytest.approx(math.exp(2.0 * kappa * 0.5), rel=1e-12)
        assert r_s == pytest.approx(-r_p, rel=1e-14)
