# tests/test_quadrature.py
"""Adaptive Gauss-Kronrod engine against closed-form integrals."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import planarcp.quadrature
from planarcp import (Atom, DomainError, HalfSpace, NotConverged, Transition,
                      potential_numeric, validate_material)
from planarcp.quadrature import (_CUTOFF, _EDGES, _MAX_SUBDIVISIONS, _WIDTH, REL_TOL,
                                 _integrate, _layout, _panels, _sums,
                                 integrate_evanescent, integrate_propagating)


def propagating(f, span, rel_tol=REL_TOL, width=None):
    return integrate_propagating(f, span, rel_tol, max_panel_width=width)


def sums(f, a, b, rate):
    """_sums of f on the panels [a_j, b_j] with the decay exp(-rate x),
    as a refinement round evaluates them."""
    nodes, weights = _panels(a, b, rate)
    return _sums(f(nodes.ravel()), weights)


def with_edges(f, z, inner, rel_tol=REL_TOL):
    """integrate_evanescent's refinement loop on f(kappa) exp(-2 kappa z)
    from its first round on the default layout's panels, with the inner
    edges added, in kappa: the decay in every round's weights."""
    scale = 0.5 / z
    edges = np.union1d(_layout(0)[0] * scale, inner)
    return _integrate(f, edges, sums(f, edges[:-1], edges[1:], 2.0 * z), rel_tol,
                      "evanescent", 2.0 * z, 0.25 * _CUTOFF * scale)


def evanescent(f, span, rel_tol=REL_TOL, width=None):
    """integrate_evanescent at z_decay = 0.5 (kappa0 = 36.8); with width,
    its loop with edges added where integrate_propagating would put its
    panel edges."""
    if width is None:
        return integrate_evanescent(f, 0.5, rel_tol)
    return with_edges(f, 0.5, np.arange(1, math.ceil(span / width)) * width, rel_tol)


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
        # than the budget allows. The evanescent loop's first call adds
        # the 4095 edges to the layout's 19 panels.
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
        # A Lorentzian spike of width 1e-7 that uniform panels miss, with
        # edges graded toward it in the evanescent loop's first round.
        center, width = 5.0, 1e-7

        def spike(k):
            return width / ((k - center) ** 2 + width ** 2) + 0j

        # Exact: int L(k) e^(-2kz) dk ~ pi * e^(-2*center*z) for a
        # narrow spike (plus a smooth background integral ~ width).
        z = 0.5
        edges = tuple(center + s * width * 10.0 ** e
                      for s in (-1, 1) for e in range(0, 7))
        res = with_edges(spike, z, edges + (center,))
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
        # A square wave's jumps on 4096 panels below kappa = 1, edges in
        # the evanescent loop's first round, take its bisections, and the
        # tail panel it appends takes the last of the budget. exp(1.4 kappa)
        # keeps that panel, which ends at kappa0 + 3 step, above the cutoff,
        # so the check after the second call raises.
        f, calls = counted(lambda k: np.sign(np.sin(1e5 * k)) + np.exp(1.4 * k) + 0j)
        with pytest.raises(NotConverged, match=re.escape(
                "tail still contributing at 3.224e+01 after 2000 subdivisions")):
            with_edges(f, 1.0, np.arange(1, 4096) / 4096, 1e-15)
        assert len(calls) == 2

    def test_every_round_gets_the_integrand(self, monkeypatch):
        # A Lorentzian at kappa = 0.7 takes ten refinement rounds. Each of
        # the 11 rounds passes _sums the integrand's own values, never ones
        # multiplied by the decay: the first round's weights are the
        # layout's, at rate 1 in s, and each later round's are
        # _panels(a, b, 2z)'s in kappa, at their nodes.
        z = 0.5
        calls = []

        def f(k):
            calls.append((k, 1.0 / ((k - 0.7) ** 2 + 1e-6) + 0j))
            return calls[-1][1]

        given, panels = [], []
        real_sums, real_panels = planarcp.quadrature._sums, planarcp.quadrature._panels

        def spy_sums(y, weights):
            given.append((y, weights))
            return real_sums(y, weights)

        def spy_panels(a, b, rate):
            panels.append((a, b, rate))
            return real_panels(a, b, rate)

        monkeypatch.setattr(planarcp.quadrature, "_sums", spy_sums)
        monkeypatch.setattr(planarcp.quadrature, "_panels", spy_panels)
        _layout.cache_clear()
        integrate_evanescent(f, z)
        assert len(given) == len(calls) == 11
        assert all(y is values for (y, _), (_, values) in zip(given, calls))
        assert len(panels) == 11 and panels[0][2] == 1.0
        for (_, weights), (k, _), (a, b, rate) in zip(given[1:], calls[1:], panels[1:]):
            nodes, want = real_panels(a, b, 2.0 * z)
            assert rate == 2.0 * z
            assert np.array_equal(k, nodes.ravel()) and np.array_equal(weights, want)

    @pytest.mark.parametrize("onset", ["-1.0", "0.0", "math.nan"])
    def test_rejects_onset_not_positive(self, onset):
        # The ladder toward onset would halve without end below 0, and at 0
        # until it underflows, into a first round of 1,093 panels. A fresh
        # interpreter with a timeout, so that a hang fails the test.
        code = ("import math; import numpy as np\n"
                "from planarcp.quadrature import integrate_evanescent\n"
                f"integrate_evanescent(np.ones_like, 1.0, onset={onset})")
        env = {**os.environ, "PYTHONPATH": str(Path(planarcp.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1].startswith("ValueError: onset must be positive")

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

    def test_error_tested_is_error_returned(self):
        # The Kronrod-Gauss difference of a decaying constant is under
        # rel_tol 5e-15, but its floored error 1.11e-14 is not: no result.
        with pytest.raises(NotConverged, match=re.escape(
                "error 1.110e-14 above tolerance after 0 subdivisions")):
            integrate_evanescent(lambda k: np.ones_like(k) + 0j, 0.5, 5e-15)

    def test_tolerance_below_floor_stops_at_floor(self):
        # Once bisection brings the error down to the floor, the round
        # raises instead of spending the budget.
        atom = Atom([Transition(1.0, 1.0, 0.0)])
        half_space = HalfSpace(validate_material(2 + 0.1j, 1))
        with pytest.raises(NotConverged, match="above tolerance after") as info:
            potential_numeric(atom, half_space, 0.5, 1e-20)
        assert int(re.search(r"after (\d+) subdivisions", str(info.value))[1]) <= 20

    def test_zero_integral_raises_at_once(self):
        # No relative tolerance of an integral that is 0 can be met; its
        # total rounds to 0 or to far below the floor. RuntimeWarnings are
        # errors in this suite, so a division by a zero tolerance fails.
        for f in (lambda b: b - 0.5 + 0j, lambda b: np.sin(2.0 * np.pi * b) + 0j):
            with pytest.raises(NotConverged, match="above tolerance after") as info:
                integrate_propagating(f, 1.0)
            assert int(re.search(r"after (\d+) subdivisions", str(info.value))[1]) <= 10


class TestRowCount:
    """One integrand returned as (N,), as (1, N) and as two stacked copies
    (2, N): each row gets the same value, error and evaluations bit for bit,
    and a failure the same message, since each component is decided alone."""

    # integrand, rel_tol, node counts of its calls, the failure's cause.
    CASES = {
        "first round": (lambda k: 1.0 / (1.0 + k) + 0j, REL_TOL, [285], None),
        # The first round's error is 1.3 times this tolerance.
        "one bisection": (lambda k: 1.0 / (1.0 + k) + 0j, 1.5e-10, [285, 30], None),
        "bisection": (lambda k: 1e-3 / ((k - 5.0) ** 2 + 1e-6) + 0j, REL_TOL,
                      [285] + [60] * 8 + [30, 60], None),
        "tail panels": (lambda k: np.exp(k) + 0j, REL_TOL, [285] + [15] * 4, None),
        "nan": (lambda k: np.where((1.0 < k) & (k < 2.0), np.nan, 1.0) + 0j, REL_TOL,
                [285], "integrand not finite after 0 subdivisions"),
        "floor": (lambda k: 1.0 / (1.0 + k) + 0j, 1e-20, [285, 330, 450],
                  "error 4.977e-15 above tolerance after 26 subdivisions"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_decision_independent_of_rows(self, case):
        f, rel_tol, want_calls, cause = self.CASES[case]
        for shape, g in (((), f), ((1,), lambda k: f(k)[None]),
                         ((2,), lambda k: np.stack((f(k), f(k))))):
            h, calls = counted(g)
            if cause is not None:
                with pytest.raises(NotConverged, match=f"^evanescent integral: {cause}$"):
                    integrate_evanescent(h, 0.75, rel_tol)
                assert calls == want_calls
                continue
            res = integrate_evanescent(h, 0.75, rel_tol)
            assert calls == want_calls and res.evaluations == sum(want_calls)
            assert np.shape(res.value) == np.shape(res.error_estimate) == shape
            assert (res.value.dtype, res.error_estimate.dtype) == (complex, float)
            rows = [(v.tobytes(), e.tobytes())
                    for v, e in zip(np.ravel(res.value), np.ravel(res.error_estimate))]
            if shape == ():
                one = rows[0]
            assert rows == [one] * len(rows)


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

        # The first round from a layout just built, and from the cached one.
        for kwargs in ({}, {"onset": 0.01}):
            _layout.cache_clear()
            e1 = integrate_evanescent(g, 0.8, **kwargs)
            e2 = integrate_evanescent(g, 0.8, **kwargs)
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


class TestFirstRoundLayout:
    """integrate_evanescent's first round from its cached layout in
    s = 2 kappa z_decay, against _panels on the same panels in kappa at
    rate 2 z_decay, as a refinement round evaluates them."""

    # Integrands of u = 2 kappa z_decay, smooth on the layout's panels.
    SHAPES = {
        "N": lambda u: 1.0 / (1.0 + u) + 0j,
        "m,N": lambda u: np.stack((u * u + 0j, (1.0 + 1j) * np.sqrt(u))),
        "m,c,N": lambda u: np.stack((np.stack((1.0 / (1.0 + u) + 0j, u / (u + 2j))),
                                     np.stack((u * u + 0j, 1.0 / (1.0 + u * u) + 0j)))),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("z", [1e-3, 0.7, 31.0, 1e4])
    @pytest.mark.parametrize("depth,ladder", [(0, False), (5, True), (12, True)])
    def test_matches_evaluate(self, shape, z, depth, ladder):
        # Within a few eps of each panel's integral of |f|, times 1 + s
        # for the rounding of the nodes and of the decay's argument s.
        scale = 0.5 / z

        def integrand(k):
            return self.SHAPES[shape](k / scale)

        edges, nodes, weights = _layout(depth)
        # _EDGES and the ladder's depth edges below _WIDTH, and no other.
        assert (edges[1] < _WIDTH) == ladder and len(edges) == len(_EDGES) + depth
        # Nodes and weights in s, scaled to kappa by a power of two.
        value, rules, _ = _sums(integrand(nodes.ravel() * scale), weights * scale)
        a, b = edges[:-1] * scale, edges[1:] * scale
        want_value, want_rules, _ = sums(integrand, a, b, 2.0 * z)
        size = sums(lambda k: abs(integrand(k)), a, b, 2.0 * z)[0].real
        bound = 8.0 * np.finfo(float).eps * (1.0 + edges[1:]) * size
        assert value.shape == want_value.shape and rules.shape == want_rules.shape
        assert (abs(value - want_value) <= bound).all()
        assert (abs(rules[..., 1, :] - want_rules[..., 1, :]) <= bound).all()

    def test_one_layout_per_depth(self):
        # halfspace-sweep's 200 distances (k0 = 1) share one layout
        # per ladder depth: the smallest n with _WIDTH/2^n <= k0 z_snap/4,
        # z_snap = 2^e <= z < 2^(e+1).
        half_space = HalfSpace(validate_material(-3 + 1e-3j, 1))
        zs = np.geomspace(0.05, 50.0, 200)
        _layout.cache_clear()
        for z in zs:
            potential_numeric(Atom([Transition(1.0, 1.0, 0.0)]), half_space, z)
        snapped = [math.ldexp(0.5, math.frexp(z)[1]) for z in zs]
        depths = {max(0, math.ceil(math.log2(_WIDTH / (z / 4.0)))) for z in snapped}
        info = _layout.cache_info()
        assert (info.currsize, info.misses) == (len(depths), len(depths))
        # The cache is bounded: more depths than it holds evict the oldest.
        for depth in range(info.maxsize + 5):
            integrate_evanescent(np.ones_like, 1.0, onset=_WIDTH * 0.5 ** depth / 2.0)
        assert _layout.cache_info().currsize == info.maxsize
