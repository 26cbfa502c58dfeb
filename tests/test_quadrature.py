# tests/test_quadrature.py
"""Adaptive Gauss-Kronrod engine against closed-form integrals."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from planarcp import DomainError, NotConverged
from planarcp.quadrature import (_MAX_SUBDIVISIONS, REL_TOL, integrate_evanescent,
                                 integrate_propagating)


def propagating(f, span, rel_tol=REL_TOL, width=None):
    return integrate_propagating(f, span, rel_tol, max_panel_width=width)


def evanescent(f, span, rel_tol=REL_TOL, width=None):
    """integrate_evanescent at z_decay = 0.5 (kappa0 = 36.8), with
    breakpoints where integrate_propagating would put its panel edges."""
    edges = () if width is None else tuple(
        np.arange(1, math.ceil(span / width)) * width)
    return integrate_evanescent(f, 0.5, rel_tol, breakpoints=edges)


# Both entry points run the same refinement loop; tests of its budget,
# failure causes, vector integrands and determinism take each in turn.
ENGINES = (propagating, evanescent)


def counted(f):
    """f, and the list of node counts of its calls."""
    calls = []

    def g(x):
        calls.append(len(x))
        return f(x)

    return g, calls


class TestSpecValidation:
    def test_rejects_bad_tolerances(self):
        for integrate in ENGINES:
            for rel_tol in (0.0, -1e-8, math.nan, math.inf):
                with pytest.raises(ValueError):
                    integrate(lambda b: b + 0j, 1.0, rel_tol)


class TestPropagating:
    def test_polynomial_exact(self):
        # int_0^1 beta dbeta = 1/2, exact for Gauss-Kronrod.
        res = integrate_propagating(lambda b: b + 0j, 1.0)
        assert res.value == pytest.approx(0.5, rel=1e-14)
        assert res.error_estimate <= REL_TOL * abs(res.value)

    def test_oscillatory_closed_form(self):
        # int_0^B exp(2 i beta z) dbeta = (exp(2 i B z) - 1)/(2 i z).
        z, B = 7.3, 2.0
        res = integrate_propagating(lambda b: np.exp(2j * b * z), B,
                                    max_panel_width=math.pi / (4 * z))
        expected = (np.exp(2j * B * z) - 1.0) / (2j * z)
        assert res.value == pytest.approx(expected, rel=1e-10)

    def test_error_estimate_honest_on_smooth_integrand(self):
        z = 3.0
        res = integrate_propagating(lambda b: np.exp(2j * b * z), 1.0,
                                    max_panel_width=math.pi / (4 * z))
        expected = (np.exp(2j * z) - 1.0) / (2j * z)
        assert abs(res.value - expected) <= max(res.error_estimate, 1e-14)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            integrate_propagating(lambda b: b, 0.0)

    def test_needle_exhausts_budget(self):
        # A needle the subdivision budget cannot resolve. The first call
        # holds one panel, or integrate_evanescent's 17 below kappa0 and
        # 2 past it; each bisection adds two 15-node panels.
        for integrate, first in ((propagating, 1), (evanescent, 19)):
            needle, calls = counted(lambda b: 1.0 / ((b - 0.331) ** 2 + 1e-14))
            with pytest.raises(NotConverged,
                               match="above tolerance after 2000 subdivisions"):
                integrate(needle, 1.0, 1e-14)
            assert calls[0] == 15 * first
            assert sum(calls) <= 15 * (first + 2 * _MAX_SUBDIVISIONS)

    def test_non_finite_integrand_raises_at_once(self):
        # NaN on 1 < x < 2: the first round's sum is NaN, which no
        # bisection mends, so that round raises and names the cause.
        for integrate in ENGINES:
            f, calls = counted(
                lambda x: np.where((1.0 < x) & (x < 2.0), np.nan, 1.0) + 0j)
            with pytest.raises(NotConverged, match="integrand not finite"):
                integrate(f, 3.0)
            assert len(calls) == 1

    def test_budget_caps_bisections_of_many_panels(self):
        # Each of 4096 panels holds several jumps of a square wave, so all
        # are above tolerance and one batched round would bisect more
        # than the budget allows. integrate_evanescent's first call adds
        # the 4095 breakpoints to its 19 panels.
        for integrate, first in ((propagating, 4096), (evanescent, 19 + 4095)):
            square, calls = counted(lambda b: np.sign(np.sin(1e5 * b)) + 0j)
            with pytest.raises(NotConverged,
                               match="above tolerance after 2000 subdivisions"):
                integrate(square, 1.0, 1e-15, width=1.0 / 4096)
            assert calls[0] == 15 * first
            assert sum(calls) == 15 * (first + 2 * _MAX_SUBDIVISIONS)


class TestVectorIntegrand:
    def test_components_match_scalar_integrals(self):
        z = 2.3
        parts = (lambda b: np.exp(2j * b * z), lambda b: b * b / (1.0 + b))
        for integrate in ENGINES:
            both = integrate(lambda b: np.stack([f(b) for f in parts]),
                             1.5, width=0.2)
            assert both.value.shape == both.error_estimate.shape == (2,)
            for k, f in enumerate(parts):
                single = integrate(f, 1.5, width=0.2)
                assert abs(both.value[k] - single.value) <= (
                    both.error_estimate[k] + single.error_estimate)

    def test_evanescent_components(self):
        # int_0^inf (1, kappa) exp(-2 kappa z) dkappa = (1/(2z), 1/(4z^2)).
        z = 0.8
        res = integrate_evanescent(lambda k: np.stack((np.ones_like(k), k)), z)
        assert res.value == pytest.approx([1 / (2 * z), 1 / (4 * z * z)], rel=1e-12)
        assert np.all(res.error_estimate
                      <= 1e-8 * np.abs(res.value))


class TestEvanescent:
    def test_initial_panels_evaluated_once(self):
        # 8 unit panels up to 2 kappa z = 7.97, 8 coarser ones up to
        # 2 kappa z = 32 and one to kappa0 = 18.4/z, the two tail panels
        # evaluated with them, and no panel evaluated twice: 19 * 15 nodes.
        assert integrate_evanescent(np.ones_like, 0.5).evaluations == 285

    def test_tail_panels_in_first_call(self):
        # A kappa^2 prefactor keeps the first tail panel above _TAIL_CUTOFF;
        # the two up-front tail panels make it one integrand call in all.
        # int_0^inf (kappa^2 + 1) exp(-2 kappa z) dkappa = 2/(2z)^3 + 1/(2z).
        calls = []

        def f(k):
            calls.append(len(k))
            return k * k + 1.0 + 0j

        res = integrate_evanescent(f, 0.5)
        assert len(calls) == 1
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_unit_prefactor(self):
        # int_0^inf exp(-2 kappa z) dkappa = 1/(2z).
        res = integrate_evanescent(lambda k: np.ones_like(k) + 0j, 2.0)
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_linear_prefactor(self):
        # int_0^inf kappa exp(-2 kappa z) dkappa = 1/(4 z^2).
        res = integrate_evanescent(lambda k: k + 0j, 1.0)
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_growing_prefactor_tail_extension(self):
        # Prefactor exp(+kappa) delays the decay: the effective rate is
        # 2z - 1, so truncation at the bare-exponential point would lose
        # a visible fraction without the tail panels the rounds append.
        z = 0.75
        res = integrate_evanescent(lambda k: np.exp(k) + 0j, z)
        assert res.value == pytest.approx(1.0 / (2.0 * z - 1.0), rel=1e-10)

    def test_breakpoints_pin_narrow_feature(self):
        # A Lorentzian spike of width 1e-7 that uniform panels miss.
        center, width = 5.0, 1e-7

        def spike(k):
            return width / ((k - center) ** 2 + width ** 2) + 0j

        # Exact: int L(k) e^(-2kz) dk ~ pi * e^(-2*center*z) for a
        # narrow spike (plus a smooth background integral ~ width).
        z = 0.5
        edges = tuple(center + s * width * 10.0 ** e
                      for s in (-1, 1) for e in range(0, 7))
        res = integrate_evanescent(spike, z, breakpoints=edges + (center,))
        assert res.value.real == pytest.approx(math.pi * math.exp(-2 * center * z),
                                               rel=1e-3)

    def test_tail_panels_ride_with_bisections(self):
        # exp(kappa) delays the decay to rate 2z - 1, so the tail needs 7
        # panels past the first call, while a Lorentzian of width 1e-3 at
        # kappa = 5 needs bisection: each round does both in one call,
        # 10 calls in all, where tail panels first and bisection after
        # take 17.
        z = 0.75
        f, calls = counted(lambda k: np.exp(k) + 1e-3 / ((k - 5.0) ** 2 + 1e-6) + 0j)
        res = integrate_evanescent(f, z)

        def decayed(k):
            return np.exp((1.0 - 2.0 * z) * k) + 1e-3 * np.exp(-2.0 * z * k) / (
                (k - 5.0) ** 2 + 1e-6)

        parts = [quad(decayed, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
                 for lo, hi in ((0.0, 5.0), (5.0, math.inf))]
        expected = sum(v for v, _ in parts)
        assert abs(res.value - expected) <= res.error_estimate + sum(e for _, e in parts)
        assert len(calls) <= 10

    def test_unending_tail_raises_within_budget(self):
        # A prefactor exp(2 kappa z) cancels the decay, so the tail never
        # closes; far out it overflows, and inf * exp(-2 kappa z) = inf * 0
        # is a NaN panel. The first round whose sum is NaN raises, long
        # before the budget is spent.
        z = 0.75
        f, calls = counted(lambda k: np.exp(2.0 * z * k) + 0j)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NotConverged, match="integrand not finite"):
            integrate_evanescent(f, z)
        assert len(calls) <= 80
        assert sum(calls) <= calls[0] + 30 * _MAX_SUBDIVISIONS

    def test_open_tail_when_budget_spent(self):
        # A square wave's jumps on 4096 panels below kappa = 1 take the
        # first round's bisections, and the tail panel it appends takes
        # the last of the budget. exp(1.4 kappa) keeps that panel, which
        # ends at kappa0 + 3 step, above the cutoff, so the check after
        # the second call raises.
        f, calls = counted(lambda k: np.sign(np.sin(1e5 * k)) + np.exp(1.4 * k) + 0j)
        with pytest.raises(NotConverged, match=re.escape(
                "tail still contributing at 3.224e+01 after 2000 subdivisions")):
            integrate_evanescent(f, 1.0, 1e-15, breakpoints=np.arange(1, 4096) / 4096)
        assert len(calls) == 2

    def test_requires_decay(self):
        with pytest.raises(DomainError):
            integrate_evanescent(lambda k: k, 0.0)
        with pytest.raises(DomainError):
            integrate_evanescent(lambda k: k, -1.0)


class TestRoundoffFloor:
    def test_error_at_least_roundoff_of_the_sum(self):
        # GK15 is exact on a constant, and nearly so on its decay; the
        # error is still at least 50 eps_mach times the integral of |f|.
        # The sum of the panels' |values| can round below |value|, as it
        # does at many of these distances.
        results = [integrate_evanescent(np.ones_like, z)
                   for z in np.geomspace(1e-3, 1e3, 401)]
        results.append(integrate_propagating(np.ones_like, 1.0))
        for res in results:
            assert res.error_estimate >= 50.0 * np.finfo(float).eps * abs(res.value)


class TestDeterminism:
    def test_bit_identical_repeats(self):
        def f(b):
            return np.exp(2j * b * 4.7) / (1.0 + b * b)

        for integrate in ENGINES:
            r1 = integrate(f, 3.0, width=0.1)
            r2 = integrate(f, 3.0, width=0.1)
            assert r1.value == r2.value
            assert r1.error_estimate == r2.error_estimate
            assert r1.evaluations == r2.evaluations

        def g(k):
            return np.exp(1j * k) / (1.0 + k)

        e1 = integrate_evanescent(g, 0.8, breakpoints=(1.0, 2.5))
        e2 = integrate_evanescent(g, 0.8, breakpoints=(1.0, 2.5))
        assert e1.value == e2.value and e1.evaluations == e2.evaluations

    def test_vector_repeats_bit_for_bit(self):
        # 3000 initial panels, evaluated in one call.
        def f(b):
            return np.stack((np.exp(2j * b * 40.0), np.cos(b) / (1.0 + b)))

        for integrate in ENGINES:
            r1 = integrate(f, 3.0, width=1e-3)
            r2 = integrate(f, 3.0, width=1e-3)
            assert r1.value.tobytes() == r2.value.tobytes()
            assert r1.error_estimate.tobytes() == r2.error_estimate.tobytes()
            assert r1.evaluations == r2.evaluations
