import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gbspec import cardinal, cli
from gbspec.cardinal import cardinal_spline, kept_levels
from gbspec.errors import ConstraintError, NumericalError, UsageError
from gbspec.sections import SectionFamily, hyperbolic, polynomial, trigonometric
from gbspec.symbols import symbol_fn
from oracles import (PHASE_SWEEP, cardinal_derivative,
                     central_second_difference, fourier_phi,
                     gauss_legendre_split, integral, loop_cardinal_build,
                     mp_cardinal, piecewise_derivative)

#: bytes of the kept levels of one family up to degree 2: 2x2 and 3x3 floats
_P2_BYTES = 8 * (2 * 2 + 3 * 3)


def _counted_sizes(monkeypatch) -> list:
    """Wrap ``cardinal._kept_bytes`` to record the entries it sizes."""
    sized = []
    inner = cardinal._kept_bytes

    def counted(entry):
        sized.append(entry)
        return inner(entry)

    monkeypatch.setattr(cardinal, "_kept_bytes", counted)
    return sized


class TestConstruction:
    def test_polynomial_degree_one_is_unit_hat(self):
        cs = cardinal_spline(polynomial(), 1)
        assert cs(1.0) == 1.0
        assert cs(0.5) == 0.5
        assert kept_levels(polynomial(), 1)[0] == 1.0

    def test_hyperbolic_peak_value(self):
        # delta1 = (alpha/2) coth(alpha/2); at alpha = 2 this is coth(1)
        cs = cardinal_spline(hyperbolic(2.0), 1)
        assert cs(1.0) == pytest.approx(1.0 / math.tanh(1.0), abs=1e-13)

    def test_polynomial_degree_two_values(self):
        cs = cardinal_spline(polynomial(), 2)
        assert cs(0.5) == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert cs(1.5) == pytest.approx(3.0 / 4.0, abs=1e-15)

    def test_infeasible_trigonometric_phase(self):
        with pytest.raises(ConstraintError):
            cardinal_spline(trigonometric(3.5), 2)

    def test_degree_below_one(self):
        with pytest.raises(UsageError):
            cardinal_spline(polynomial(), 0)

    def test_support_and_positivity(self, family):
        for p in (1, 2, 5):
            cs = cardinal_spline(family, p)
            inner = np.linspace(0.01, p + 0.99, 200)
            assert np.all(cs(inner) > 0)
            assert cs(-0.5) == 0.0
            assert cs(p + 1.5) == 0.0


    def test_same_coefficients_as_loop_antiderivative(self, recursion_runs):
        families = [polynomial(), hyperbolic(1e-9), hyperbolic(0.1),
                    hyperbolic(10.0), hyperbolic(30.0), trigonometric(0.5),
                    trigonometric(3.0)]
        degrees = list(range(1, 14))
        for rep in families:
            ref = loop_cardinal_build(rep, degrees)
            # one recursion to the top degree, then one carried on per degree
            runs = []
            for first in (max(degrees), 1):
                recursion_runs.reset()
                cardinal_spline(rep, first)
                runs.append([(cardinal_spline(rep, p), kept_levels(rep, 1)[0])
                             for p in degrees])
            for run in runs:
                for p, (pw, delta1), (ref_pw, ref_delta1) in zip(degrees, run, ref):
                    assert (pw.family, pw.degree) == (rep, p)
                    assert np.array_equal(pw.breakpoints, ref_pw.breakpoints)
                    assert np.array_equal(pw.coeffs, ref_pw.coeffs), (rep, p)
                    assert np.array_equal(np.signbit(pw.coeffs),
                                          np.signbit(ref_pw.coeffs)), (rep, p)
                    assert delta1 == ref_delta1

    @pytest.mark.parametrize("family", [
        polynomial(), hyperbolic(1e-3), hyperbolic(10.0), trigonometric(0.01),
        trigonometric(3.0)], ids=repr)
    def test_one_recursion_gives_each_degree_as_built_alone(self, family,
                                                             recursion_runs):
        degrees = [9, 1, 4, 13, 4, 2]
        splines = [cardinal_spline(family, p) for p in degrees]
        for p, cs in zip(degrees, splines):
            recursion_runs.reset()  # a fresh recursion up to p alone
            ref = cardinal_spline(family, p)
            assert (cs.degree, cs.family) == (p, ref.family)
            assert np.array_equal(cs.coeffs, ref.coeffs), p
            assert np.array_equal(np.signbit(cs.coeffs),
                                  np.signbit(ref.coeffs)), p

    @pytest.mark.parametrize("alpha", [100.0, 200.0, 800.0])
    def test_large_phase_is_a_numerical_error(self, alpha):
        with pytest.raises(NumericalError):
            cardinal_spline(hyperbolic(alpha), 3)


class TestKeptLevels:
    """A process keeps each family's recursion levels for later calls."""

    FAMILIES = [polynomial(), hyperbolic(1e-9), hyperbolic(10.0),
                hyperbolic(76.0), trigonometric(0.5), trigonometric(3.0)]

    def test_kept_levels_are_read_only(self, recursion_runs):
        family = hyperbolic(10.0)
        cs = cardinal_spline(family, 3)
        with pytest.raises(ValueError, match="read-only"):
            cs.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cs.coeffs *= 2.0
        assert cs.coeffs is kept_levels(family, 3)[1][2]
        (ref, _), = loop_cardinal_build(family, [3])
        assert np.array_equal(cardinal_spline(family, 3).coeffs, ref.coeffs)
        assert recursion_runs == [(1, 3)]

    @pytest.mark.parametrize("first, second", [(3, 11), (11, 3)])
    def test_either_order_matches_the_loop_recursion(self, first, second,
                                                     recursion_runs):
        for family in self.FAMILIES:
            ref = dict(zip((first, second),
                           loop_cardinal_build(family, [first, second])))
            for p in (first, second):
                cs = cardinal_spline(family, p)
                ref_pw, ref_delta1 = ref[p]
                assert np.array_equal(cs.breakpoints, ref_pw.breakpoints)
                assert np.array_equal(cs.coeffs, ref_pw.coeffs), (family, p)
                assert np.array_equal(np.signbit(cs.coeffs),
                                      np.signbit(ref_pw.coeffs)), (family, p)
                assert kept_levels(family, 1)[0] == ref_delta1
        # a higher degree carries the kept run on; a lower one runs nothing
        runs = [(1, 3), (4, 11)] if first < second else [(1, 11)]
        assert recursion_runs == runs * len(self.FAMILIES)

    @pytest.mark.parametrize("fill", ["empty", "other families", "full", "planted"])
    def test_large_phase_is_refused_however_levels_are_kept(self, fill, capsys,
                                                            monkeypatch,
                                                            recursion_runs):
        if fill in ("other families", "planted"):
            cardinal_spline(hyperbolic(76.0), 3)
            cardinal_spline(polynomial(), 11)
        if fill == "full":
            monkeypatch.setattr(cardinal, "KEPT_LEVEL_BYTES", 8 * _P2_BYTES)
            for k in range(8):
                cardinal_spline(hyperbolic(1.0 + k), 2)
        if fill == "planted":  # a refused family's key holding levels
            kept = cardinal._RECURSIONS
            kept[hyperbolic(100.0)] = kept[hyperbolic(76.0)]
            kept[trigonometric(3.5)] = kept[polynomial()]
        with pytest.raises(ConstraintError):
            cardinal_spline(trigonometric(3.5), 2)
        argv = ["cardinal", "--family", "hyperbolic", "--alpha", "100", "--p", "3"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            "numerical failure: hyperbolic effective phase 100 is above the "
            "supported maximum 76\n"))

    def test_kept_levels_stay_within_the_budget(self, monkeypatch,
                                                recursion_runs):
        limit = 8
        monkeypatch.setattr(cardinal, "KEPT_LEVEL_BYTES", limit * _P2_BYTES)
        families = [hyperbolic(1.0 + k) for k in range(limit + 5)]
        for family in families:
            cardinal_spline(family, 2)
        assert list(cardinal._RECURSIONS) == families[-limit:]
        # a kept family becomes the most recently used, so the next new
        # family drops the one after it
        recursion_runs.clear()
        cardinal_spline(families[-limit], 2)
        cardinal_spline(families[0], 2)
        assert recursion_runs == [(1, 2)]
        assert list(cardinal._RECURSIONS) == [
            *families[-limit + 2:], families[-limit], families[0]]
        # a higher degree of a kept family drops the oldest families to fit
        cardinal_spline(families[0], 3)
        assert list(cardinal._RECURSIONS) == [
            *families[-limit + 4:], families[-limit], families[0]]
        assert cardinal._kept_total == sum(
            map(cardinal._kept_bytes, cardinal._RECURSIONS.values()))

    def test_a_miss_sizes_its_own_levels_alone(self, monkeypatch,
                                               recursion_runs):
        # the kept bytes are counted as levels come and go, so a new family
        # sizes its own levels, however many families are kept
        for k in range(6):
            cardinal_spline(hyperbolic(1.0 + k), 3)
        cardinal_spline(polynomial(), 2)
        sized = _counted_sizes(monkeypatch)
        cardinal_spline(trigonometric(0.5), 3)
        kept = cardinal._RECURSIONS
        assert list(map(id, sized)) == [id(kept[trigonometric(0.5)])]
        # carried on to a higher degree, it sizes its old and new levels
        sized.clear()
        old = kept[polynomial()]
        cardinal_spline(polynomial(), 4)
        assert list(map(id, sized)) == [id(old), id(kept[polynomial()])]
        assert len(kept) == 8
        assert cardinal._kept_total == sum(map(cardinal._kept_bytes, kept.values()))

    def test_levels_over_the_budget_are_returned_not_kept(self, monkeypatch,
                                                           recursion_runs):
        monkeypatch.setattr(cardinal, "KEPT_LEVEL_BYTES", 8 * _P2_BYTES)
        kept = [hyperbolic(1.0), polynomial()]
        for family in kept:
            cardinal_spline(family, 2)
        (ref, _), = loop_cardinal_build(trigonometric(0.5), [11])
        cs = cardinal_spline(trigonometric(0.5), 11)
        assert np.array_equal(cs.coeffs, ref.coeffs)
        assert list(cardinal._RECURSIONS) == kept
        cardinal_spline(trigonometric(0.5), 11)
        assert recursion_runs == [(1, 2), (1, 2), (1, 11), (1, 11)]

    def test_degree_200_stays_within_the_budget(self, capsys, recursion_runs):
        argv = ["cardinal", "--family", "polynomial", "--p", "200", "--grid", "8"]
        assert cli.main(argv) == 0
        kept = sum(map(cardinal._kept_bytes, cardinal._RECURSIONS.values()))
        assert 0 < kept == cardinal._kept_total <= cardinal.KEPT_LEVEL_BYTES
        assert list(cardinal._RECURSIONS) == [polynomial()]


@pytest.mark.parametrize("family", PHASE_SWEEP, ids=repr)
def test_values_and_integrals_match_mpmath(family):
    # degrees 1..10 from one recursion, at the quarter points of every piece;
    # values are compared on the scale max(1, max value): the degree-1
    # spline of phase 76 peaks at 38, where 1e-14 is 1.4 ulp
    for cs in [cardinal_spline(family, p) for p in range(1, 11)]:
        p = cs.degree
        ts = [Fraction(j, 4) for j in range(4 * (p + 1) + 1)]
        want = np.array([mp_cardinal(family.tag, family.phase, p, t) for t in ts])
        got = cs(np.array([float(t) for t in ts]))
        scale = max(1.0, np.max(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, p
        assert abs(integral(cs) - 1.0) <= 1e-14, p


class TestProperties:
    @pytest.mark.parametrize("p", range(2, 7))
    def test_partition_of_unity(self, family, p):
        cs = cardinal_spline(family, p)
        total = sum(cs(float(k)) for k in range(1, p + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_unit_integral(self, family, p):
        assert integral(cardinal_spline(family, p)) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("p", range(2, 7))
    def test_symmetry_about_center(self, family, p):
        cs = cardinal_spline(family, p)
        c = (p + 1) / 2
        ts = np.linspace(0.0, c, 100)
        assert np.max(np.abs(cs(c + ts) - cs(c - ts))) <= 1e-12

    @pytest.mark.parametrize("p", range(2, 7))
    def test_convolution_relation(self, family, p):
        # phi_p(t) = int_0^1 phi_{p-1}(t - s) ds, via quadrature split at the
        # point where t - s crosses a knot
        lower = cardinal_spline(family, p - 1)
        cs = cardinal_spline(family, p)
        for t in np.linspace(0.1, p + 0.9, 50):
            frac = t - math.floor(t)
            edges = np.unique(np.clip([0.0, frac, 1.0], 0.0, 1.0))
            val = gauss_legendre_split(lambda s: lower(t - s), edges)
            assert val == pytest.approx(float(cs(t)), abs=1e-10)

    @pytest.mark.parametrize("p1,p2", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_inner_products(self, family, p1, p2, k):
        # int phi_p1^{U,V}(t) phi_p2(t + k) dt = phi_{p1+p2+1}^{U,V}(p2+1-k)
        # with a polynomial second factor
        lhs_a = cardinal_spline(family, p1)
        lhs_b = cardinal_spline(polynomial(), p2)
        rhs = cardinal_spline(family, p1 + p2 + 1)
        edges = np.arange(0.0, p1 + 2.0, 0.5)
        val = gauss_legendre_split(lambda t: lhs_a(t) * lhs_b(t + k), edges)
        assert val == pytest.approx(float(rhs(p2 + 1 - k)), abs=1e-8)

    @pytest.mark.parametrize("tag", ["hyperbolic", "trigonometric"])
    @pytest.mark.parametrize("p", range(1, 6))
    def test_small_phase_limit(self, tag, p):
        generalized = cardinal_spline(SectionFamily(tag, 1e-3), p)
        plain = cardinal_spline(polynomial(), p)
        ts = np.linspace(0.0, p + 1.0, 400)
        assert np.max(np.abs(generalized(ts) - plain(ts))) <= 1e-4


class TestSmoothness:
    @staticmethod
    def left_limit(pw, k):
        # restrict to the first k pieces so the breakpoint becomes the right
        # endpoint, where evaluation takes the left limit
        from gbspec.sections import PiecewiseFn
        clipped = PiecewiseFn(pw.family, pw.degree, pw.breakpoints[:k + 1],
                              pw.coeffs[:k])
        return float(clipped(pw.breakpoints[k]))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_one_sided_derivatives_agree(self, family, p):
        # global C^{p-1} smoothness at the interior integer breakpoints
        pw = cardinal_spline(family, p)
        for _ in range(p):
            for k in range(1, p + 1):
                t = float(pw.breakpoints[k])
                assert self.left_limit(pw, k) == pytest.approx(
                    float(pw(t)), abs=1e-10)
            pw = piecewise_derivative(pw)


class TestDerivative:
    def test_symmetry_maximum(self):
        # the first sample of g_2 is phi_2'(3/2), by the derivative recurrence
        g = symbol_fn("g", 2, polynomial())
        assert g.coefficients[0] == pytest.approx(0.0, abs=1e-14)

    def test_second_derivative_against_finite_differences(self):
        # the first sample of f_3 is phi_3''(2), by the derivative recurrence
        cs = cardinal_spline(polynomial(), 3)
        oracle = central_second_difference(lambda t: float(cs(t)), 2.0)
        assert oracle == pytest.approx(-2.0, abs=1e-4)
        f = symbol_fn("f", 3, polynomial())
        assert f.coefficients[0] == pytest.approx(-2.0, abs=1e-12)

    def test_derivative_integrates_to_zero(self, family):
        d = cardinal_derivative(cardinal_spline(family, 4), 1)
        assert integral(d) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p,r", [(3, 1), (4, 2), (5, 3)])
    def test_recurrence_matches_direct_differentiation(self, family, p, r):
        cs = cardinal_spline(family, p)
        rec = cardinal_derivative(cs, r)
        direct = cs
        for _ in range(r):
            direct = piecewise_derivative(direct)
        ts = np.linspace(0.05, p + 0.95, 97)
        assert np.max(np.abs(rec(ts) - direct(ts))) <= 1e-9

    def test_order_out_of_range(self):
        # a derivative sample of the degree-1 spline is refused
        for kind in ("g", "f"):
            with pytest.raises(UsageError):
                symbol_fn(kind, 1, polynomial())


class TestFourier:
    def test_unit_mass_at_zero(self, family):
        for p in (1, 2, 4):
            assert fourier_phi(family, p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_degree_one_at_zero(self):
        assert fourier_phi(hyperbolic(2.0), 1, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_against_numerical_fourier_integral(self):
        fam = trigonometric(math.pi / 2)
        cs = cardinal_spline(fam, 1)
        theta = math.pi
        re = gauss_legendre_split(lambda t: cs(t) * np.cos(theta * t),
                                  [0.0, 1.0, 2.0])
        im = gauss_legendre_split(lambda t: cs(t) * -np.sin(theta * t),
                                  [0.0, 1.0, 2.0])
        val = fourier_phi(fam, 1, theta)
        assert abs(val - complex(re, im)) <= 1e-8

    def test_removable_singularities(self, family):
        thetas = np.array([1e-9, 1e-7, 1e-3])
        vals = fourier_phi(family, 3, thetas)
        assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))
        if family.tag == "trigonometric":
            near_pole = fourier_phi(family, 2, family.phase + 1e-10)
            assert np.isfinite(near_pole.real)

    def test_tiny_phase_matches_polynomial(self):
        th = 1.3
        hyp = fourier_phi(hyperbolic(1e-9), 2, th)
        poly = fourier_phi(polynomial(), 2, th)
        assert hyp == pytest.approx(poly, abs=1e-12)

    def test_phase_1e300_overflows_nothing(self):
        # warnings are errors: the former (theta/a)**2 overflowed here
        th = np.array([0.0, 1e-300, 1.0, 1e3])
        hyp = fourier_phi(hyperbolic(1e-300), 3, th)
        assert np.max(np.abs(hyp - fourier_phi(polynomial(), 3, th))) <= 1e-15
        assert hyp[0] == 1.0

    @pytest.mark.parametrize("family", [f for f in PHASE_SWEEP
                                        if f.tag == "hyperbolic"], ids=repr)
    def test_phi1_hat_matches_mpmath_and_the_former_form(self, family):
        th = np.concatenate([np.linspace(-3 * math.pi, 3 * math.pi, 61),
                             [1e-300, 1e-8, 1e3]])
        got = cardinal._phi1_hat(family, th)
        a = family.phase
        with mp.workdps(50):
            ma = mp.mpf(a)
            amp = ma**2 / (2 * mp.sinh(ma / 2) ** 2)
            ref = np.array([complex(amp * (mp.cosh(ma) - mp.cos(t)) / (t**2 + ma**2)
                                    * mp.exp(-1j * t)) for t in map(mp.mpf, th)])
        # the former form, 1/(1 + (theta/a)**2), which overflows at tiny a
        q = a / (2.0 * math.sinh(a / 2.0))
        w = 1.0 / (1.0 + (th / a) ** 2)
        former = (q * q * np.sinc(th / (2.0 * math.pi)) ** 2 * (1.0 - w) + w) \
            * np.exp(-1j * th)
        ulp = np.spacing(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= 3 * ulp
        assert np.max(np.abs(got - former)) <= 3 * ulp
