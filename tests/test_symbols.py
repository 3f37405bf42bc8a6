import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gbspec import cardinal, cli, sections, symbols
from gbspec.cardinal import cardinal_spline
from gbspec.collocation import gb_basis, greville_samples
from gbspec.errors import ConstraintError, UsageError
from gbspec.multidim import DirectionSymbols
from gbspec.sections import SectionFamily, hyperbolic, polynomial, trigonometric
from gbspec.symbols import (KINDS, bounds_report, decay_ratio, decay_ratios,
                            symbol_fn, symbol_fns, symbol_max, symbol_series)
from oracles import (PHASE_SWEEP, lower_bound_residual, mp_cardinal,
                     mp_symbol_max, numpy_symbol_max,
                     piecewise_symbol_coefficients, symbol_closed_form)

Q_FAMILIES = [hyperbolic(1.0), hyperbolic(10.0),
              trigonometric(math.pi / 4), trigonometric(math.pi / 2)]
THETA = np.linspace(-math.pi, math.pi, 512)


class TestFiniteSum:
    def test_polynomial_f2(self):
        f2 = symbol_fn("f", 2, polynomial())
        assert f2(math.pi) == pytest.approx(4.0, abs=1e-13)
        assert np.max(np.abs(f2(THETA) - (2 - 2 * np.cos(THETA)))) <= 1e-13

    def test_trigonometric_h1_constant(self):
        h1 = symbol_fn("h", 1, trigonometric(math.pi / 2))
        assert h1(0.3) == pytest.approx(math.pi / 4, abs=1e-13)

    def test_g3_shared_across_families(self, family):
        g3 = symbol_fn("g", 3, family)
        assert g3(math.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    def test_degree_minimums(self):
        with pytest.raises(UsageError):
            symbol_fn("g", 1, polynomial())
        with pytest.raises(UsageError):
            symbol_fn("f", 1, polynomial())
        with pytest.raises(UsageError):
            symbol_fn("q", 2, polynomial())

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_value_symbol_is_one_at_origin(self, family, p):
        assert symbol_fn("h", p, family)(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_f_and_g_vanish_at_origin(self, family, p):
        assert symbol_fn("f", p, family)(0.0) == pytest.approx(0.0, abs=1e-12)
        assert symbol_fn("g", p, family)(0.0) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_parity(self, family, p):
        pts = np.linspace(0.1, math.pi, 37)
        h = symbol_fn("h", p, family)
        g = symbol_fn("g", p, family)
        f = symbol_fn("f", p, family)
        assert np.max(np.abs(h(pts) - h(-pts))) <= 1e-12
        assert np.max(np.abs(f(pts) - f(-pts))) <= 1e-12
        assert np.max(np.abs(g(pts) + g(-pts))) <= 1e-12


@pytest.mark.parametrize("family", PHASE_SWEEP, ids=repr)
def test_coefficients_match_mpmath(family):
    # h, g and f of degrees 1..10 from one recursion, each within 1e-14 of
    # its maximum over a fine theta grid
    requests = [(kind, p) for p in range(1, 11) for kind in KINDS
                if p >= symbols._MIN_DEGREE[kind]]
    thetas = np.linspace(-math.pi, math.pi, 1025)
    for (kind, p), sym in zip(requests, symbol_fns(requests, family)):
        r = KINDS.index(kind)
        want = np.array([mp_cardinal(family.tag, family.phase, p,
                                     Fraction(p + 1, 2) - k, r)
                         for k in range(p // 2 + 1)])
        scale = np.max(np.abs(symbols.SymbolFn(kind, p, family, want)(thetas)))
        assert np.max(np.abs(sym.coefficients - want)) <= 1e-14 * scale, (kind, p)


class TestSampling:
    @pytest.mark.parametrize("family", [
        polynomial(), hyperbolic(1e-9), trigonometric(0.01), *PHASE_SWEEP],
        ids=repr)
    def test_same_samples_as_piecewise_functions(self, family, recursion_runs):
        # from an empty store, sampled from the kept recursion rows at the
        # left ends (odd p) and the midpoints (even p) of the pieces; g at
        # p = 2 reads degree-1 rows, whose u slot is not 0 at the midpoint
        requests = [(kind, p) for p in range(1, 17) for kind in KINDS
                    if (kind, p) not in (("g", 1), ("f", 1))]
        for (kind, p), sym in zip(requests, symbol_fns(requests, family)):
            ref = piecewise_symbol_coefficients(kind, p, family)
            assert _same_bits(sym.coefficients, ref), (kind, p)

    @pytest.mark.parametrize("family", [
        polynomial(), hyperbolic(10.0), trigonometric(1.5)], ids=repr)
    @pytest.mark.parametrize("p", range(2, 13))
    def test_float_theta_matches_array_theta(self, family, p):
        thetas = [*np.linspace(-math.pi, math.pi, 41).tolist(), -0.0, 5e-324]
        for sym in symbol_fns([(kind, p) for kind in KINDS], family):
            for theta in thetas:
                values = [sym(theta), sym(np.array(theta)), sym(np.array([theta]))]
                assert [np.shape(v) for v in values] == [(), (), (1,)]
                values = np.array([np.ravel(v)[0] for v in values])
                assert np.array_equal(values, np.full(3, values[0])), (sym.kind, theta)
                assert np.array_equal(np.signbit(values),
                                      np.full(3, np.signbit(values[0])))


class TestClosedForms:
    PAIRS = [("h", 1), ("h", 2), ("g", 2), ("f", 2), ("g", 3), ("f", 3), ("f", 4)]

    @pytest.mark.parametrize("kind,p", PAIRS)
    def test_matches_finite_sum(self, family, kind, p):
        sym = symbol_fn(kind, p, family)
        ref = symbol_closed_form(kind, p, family, THETA)
        assert np.max(np.abs(sym(THETA) - ref)) <= 1e-11

    def test_polynomial_f4_at_pi(self):
        val = symbol_closed_form("f", 4, polynomial(), math.pi)
        assert val == pytest.approx(2.0, abs=1e-15)

    def test_trigonometric_f3_at_pi(self):
        fam = trigonometric(math.pi / 2)
        val = symbol_closed_form("f", 3, fam, math.pi)
        assert val == pytest.approx(math.pi, abs=1e-14)

    def test_hyperbolic_h2_at_zero(self):
        assert symbol_closed_form("h", 2, hyperbolic(3.0), 0.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_untabulated_pair(self):
        with pytest.raises(UsageError):
            symbol_closed_form("h", 3, polynomial(), 0.0)

    @pytest.mark.parametrize("kind,p", [("h", 2), ("g", 2), ("f", 2), ("f", 4)])
    @pytest.mark.parametrize("family", [
        *(hyperbolic(a) for a in (1e-300, 1e-100, 1e-20, 1e-9, 1e-6, 1e-3, 0.1,
                                  1.0, 10.0, 30.0, 50.0, 76.0)),
        *(trigonometric(a) for a in (1e-300, 1e-20, 1e-9, 1e-3, 0.5, 1.5, 3.0,
                                     3.14)),
    ], ids=repr)
    def test_matches_mpmath_at_every_phase(self, family, kind, p):
        # the tabulated forms, quotients by cosh(a) - 1 (cos(a) - 1), in
        # mpmath with the digits that difference cancels added to 50
        theta = np.linspace(-math.pi, math.pi, 33)
        with mp.workdps(50 + max(0, round(-2 * math.log10(family.phase)))):
            a = mp.mpf(family.phase)
            cosine, sine, sign = ((mp.cosh, mp.sinh, -1) if family.tag == "hyperbolic"
                                  else (mp.cos, mp.sin, 1))
            denom = cosine(a) - 1  # the tables negate g2 (hyperbolic), f2 (trig.)

            def value(t):
                h2 = ((cosine(a / 2) - 1) * mp.cos(t) - (cosine(a / 2) - cosine(a))) / denom
                if kind == "h":
                    return h2
                if kind == "g":
                    return sign * a * sine(a / 2) / denom * mp.sin(t)
                if p == 2:
                    return -sign * a * a * cosine(a / 2) / denom * (1 - mp.cos(t))
                return (2 - 2 * mp.cos(t)) * h2

            ref = np.array([float(value(t)) for t in map(mp.mpf, theta)])
        got = symbol_closed_form(kind, p, family, theta)
        # the largest error seen is 4 ulp, hyperbolic(10) f4, a product of
        # two rounded factors
        assert np.max(np.abs(got - ref)) <= 6 * np.spacing(np.max(np.abs(ref)))


class TestSeries:
    def test_h_normalization_at_origin(self):
        assert symbol_series("h", 3, polynomial(), 0.0, 50) == pytest.approx(
            1.0, abs=1e-8)

    def test_f_series_against_finite_sum(self):
        fam = hyperbolic(10.0)
        sym = symbol_fn("f", 5, fam)
        val = symbol_series("f", 5, fam, math.pi / 2, 200)
        assert val == pytest.approx(float(sym(math.pi / 2)), abs=1e-6)

    def test_h_series_against_finite_sum(self):
        fam = trigonometric(math.pi / 2)
        sym = symbol_fn("h", 4, fam)
        val = symbol_series("h", 4, fam, math.pi, 200)
        assert val == pytest.approx(float(sym(math.pi)), abs=1e-6)

    @pytest.mark.parametrize("kind,pmin", [("h", 3), ("g", 4), ("f", 5)])
    def test_agreement_for_all_valid_degrees(self, kind, pmin):
        pts = np.linspace(-math.pi, math.pi, 32)
        for fam in (polynomial(), hyperbolic(1.0), trigonometric(math.pi / 2)):
            for p in range(pmin, 9):
                sym = symbol_fn(kind, p, fam)
                for t in pts:
                    assert symbol_series(kind, p, fam, float(t), 500) == \
                        pytest.approx(float(sym(t)), abs=1e-6)

    def test_below_series_validity(self):
        with pytest.raises(UsageError):
            symbol_series("h", 2, polynomial(), 0.0, 10)
        with pytest.raises(UsageError):
            symbol_series("f", 4, polynomial(), 0.0, 10)


class TestRelationIdentity:
    @pytest.mark.parametrize("fam", Q_FAMILIES, ids=str)
    @pytest.mark.parametrize("p", range(3, 9))
    def test_f_equals_curvature_times_h(self, fam, p):
        f = symbol_fn("f", p, fam)
        h = symbol_fn("h", p - 2, fam)
        ref = (2.0 - 2.0 * np.cos(THETA)) * h(THETA)
        assert np.max(np.abs(f(THETA) - ref)) <= 1e-11

    @pytest.mark.parametrize("p", range(3, 9))
    def test_polynomial_case(self, p):
        f = symbol_fn("f", p, polynomial())
        h = symbol_fn("h", p - 2, polynomial())
        ref = (2.0 - 2.0 * np.cos(THETA)) * h(THETA)
        assert np.max(np.abs(f(THETA) - ref)) <= 1e-11

    @pytest.mark.parametrize("family", PHASE_SWEEP, ids=repr)
    def test_within_the_margin_of_the_bounds_check(self, family):
        # bounds_report reads f_p <= 2 - 2cos from max h_{p-2} <= 1 + slack/8
        theta = np.linspace(-math.pi, math.pi, 4097)
        wave = 2.0 - 2.0 * np.cos(theta)
        for p in range(3, 41):
            f, h = symbol_fns([("f", p), ("h", p - 2)], family)
            gap = np.max(np.abs(f(theta) - wave * h(theta)))
            assert gap <= symbols._BOUND_SLACK / 8, (p, gap)


class TestMax:
    def test_polynomial_f2(self):
        assert symbol_max(symbol_fn("f", 2, polynomial())) == pytest.approx(
            4.0, abs=1e-10)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_value_symbol_peaks_at_one(self, family, p):
        assert symbol_max(symbol_fn("h", p, family)) == pytest.approx(
            1.0, abs=1e-10)

    def test_f4_against_brute_force(self):
        sym = symbol_fn("f", 4, polynomial())
        brute = float(np.max(sym(np.linspace(-math.pi, math.pi, 10**6))))
        assert symbol_max(sym) == pytest.approx(brute, abs=1e-10)
        assert symbol_max(sym) == pytest.approx(2.0, abs=1e-10)


#: largest relative error of the former maximum (a 4096-point grid scan
#: and a golden-section search) against mp_symbol_max over h and f of the
#: sweep of TestMaxAgainstMpmath, as measured: hyperbolic(1) h at p = 11,
#: 1 - 2**-51 where the maximum, at theta = 0, rounds to 1 - 2**-52.  The
#: exact maximum takes the same value there.
FORMER_HF_ERROR = 2.2204460492503136e-16


class TestMaxAgainstMpmath:
    """symbol_max against the 50-digit maximum of the same coefficients."""

    @pytest.mark.parametrize("family", [polynomial(), *PHASE_SWEEP], ids=repr)
    def test_within_rounding_of_the_symbol(self, family):
        # h and f within 2 ulp; g within 3: hyperbolic(0.1) g at p = 14 is
        # 3 ulp above the oracle, the rounding of g's own sum at the float
        # theta of its maximum, whose 50-digit value there is the oracle's
        requests = [(kind, p) for p in range(2, 15) for kind in KINDS]
        worst = 0.0
        for (kind, p), sym in zip(requests, symbol_fns(requests, family)):
            want = mp_symbol_max(kind, sym.coefficients)
            got = symbol_max(sym)
            ulps = 3 if kind == "g" else 2
            assert abs(got - want) <= ulps * math.ulp(want), (kind, p, got, want)
            if kind != "g":
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= FORMER_HF_ERROR

    @pytest.mark.parametrize("sym", [
        symbol_fn("h", 1, hyperbolic(3.0)),  # a constant: no derivative
        symbol_fn("f", 2, hyperbolic(3.0)),  # a constant derivative
        symbol_fn("h", 2, hyperbolic(76.0)),  # c1 == 0.0: h is the constant 1
        symbols.SymbolFn("h", 4, polynomial(), np.array([0.5, 0.25, 0.0])),
        symbols.SymbolFn("f", 4, polynomial(), np.array([-1.0, 0.5, 0.0])),
        symbols.SymbolFn("g", 4, polynomial(), np.array([0.0, 0.5, 0.0])),
        symbols.SymbolFn("g", 4, polynomial(), np.zeros(3)),
        symbols.SymbolFn("g", 2, polynomial(), np.array([0.0, -0.5])),
        symbols.SymbolFn("h", 6, polynomial(), np.array([0.3, -0.25, 1e-3, 2e-310])),
    ], ids=["h1", "f2", "h2-zero-top", "h-zero-top", "f-zero-top",
            "g-zero-top", "g-zero", "g2", "h-subnormal-top"])
    def test_degenerate_series_raise_no_warning(self, sym):
        # a RuntimeWarning fails the test (filterwarnings = error)
        got = symbol_max(sym)
        want = mp_symbol_max(sym.kind, sym.coefficients)
        assert abs(got - want) <= 2 * math.ulp(want)
        assert _same_bits(got, numpy_symbol_max(sym))

    @pytest.mark.parametrize("family", [polynomial(), *PHASE_SWEEP], ids=repr)
    def test_same_bits_as_numpy_polynomial(self, family):
        # the colleague matrix built in place gives the roots, and so the
        # maximum, of numpy.polynomial.chebyshev
        requests = [(kind, p) for p in range(1, 41) for kind in KINDS
                    if p >= symbols._MIN_DEGREE[kind]]
        for (kind, p), sym in zip(requests, symbol_fns(requests, family)):
            assert _same_bits(symbol_max(sym), numpy_symbol_max(sym)), (kind, p)


    @pytest.mark.parametrize("p", [260, 300])
    def test_high_degree_top_coefficient_is_trimmed(self, p):
        # f's last nonzero coefficients are subnormal (4e-320 at p = 260):
        # dividing by them in the colleague matrix would overflow
        sym = symbol_fn("f", p, polynomial())
        got = symbol_max(sym)
        want = mp_symbol_max("f", sym.coefficients)
        assert abs(got - want) <= 2 * math.ulp(want)
        assert _same_bits(got, numpy_symbol_max(sym))


class TestDecay:
    @pytest.mark.parametrize("p", range(2, 15))
    def test_polynomial_envelope(self, p):
        assert decay_ratio(p, polynomial()) <= 2.0 ** ((5 - p) / 2) + 1e-12

    def test_hyperbolic_strictly_decreasing(self):
        ratios = [decay_ratio(p, hyperbolic(10.0)) for p in (5, 7, 9, 11, 13)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_maximum_attained_at_pi_is_exact(self, p):
        # f = 2 - 2cos(theta): the maximum is f(pi) itself
        assert decay_ratio(p, polynomial()) == 1.0


class TestBoundsReport:
    def test_polynomial_sandwich(self):
        for p in range(2, 9):
            rep = bounds_report(p, polynomial(), 512)
            assert rep.upper_violations == 0
            assert rep.lower_violations == 0
            assert rep.lower_status == "PROVED"
            assert rep.h_min >= (2.0 / math.pi) ** (p + 1) - 1e-12

    def test_hyperbolic_odd_degree_proved(self):
        rep = bounds_report(5, hyperbolic(10.0), 512)
        assert rep.upper_violations == 0
        assert rep.lower_violations == 0
        assert rep.lower_status == "PROVED"

    def test_trigonometric_conjectured(self):
        rep = bounds_report(4, trigonometric(math.pi / 2), 512)
        assert rep.upper_violations == 0
        assert rep.lower_status == "CONJECTURED"

    def test_zero_structure_of_f(self):
        rep = bounds_report(3, polynomial(), 512)
        assert rep.f_zero_value == pytest.approx(0.0, abs=1e-12)
        assert rep.f_zero_first_diff == pytest.approx(0.0, abs=1e-10)
        assert rep.f_zero_second_diff == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("family", [polynomial(), hyperbolic(0.1),
                                        hyperbolic(10.0), trigonometric(2.0)],
                             ids=lambda f: f"{f.tag}{f.phase or ''}")
    @pytest.mark.parametrize("p", [3, 6, 9, 12])
    def test_second_difference_matches_mpmath(self, family, p):
        # the quotient (f(h) - 2 f(0) + f(-h)) / h^2 at h = 1e-3, evaluated
        # in mpmath from f's coefficients: the three-point form in floats
        # was 3.8e-11 off at p = 12 (polynomial)
        import mpmath as mp

        c = symbol_fn("f", p, family).coefficients
        with mp.workdps(50):
            h = mp.mpf(1e-3)

            def f(t):
                return -c[0] - 2 * mp.fsum(mp.mpf(ck) * mp.cos(k * t)
                                           for k, ck in enumerate(c[1:], 1))

            want = float((f(h) - 2 * f(0) + f(-h)) / h**2)
        got = bounds_report(p, family, 512).f_zero_second_diff
        assert got == pytest.approx(want, rel=1e-14)

    def test_grid_minimum(self):
        with pytest.raises(UsageError):
            bounds_report(3, polynomial(), 32)

    @pytest.mark.parametrize("family", [polynomial(), hyperbolic(0.1),
                                        hyperbolic(76.0), trigonometric(3.0)],
                             ids=repr)
    def test_maximum_does_not_depend_on_the_grid(self, family):
        for p in range(2, 15):
            coarse = bounds_report(p, family, 64)
            fine = bounds_report(p, family, 4096)
            assert coarse.symbol_max == fine.symbol_max, p
            assert coarse.decay_ratio == fine.decay_ratio, p

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_hyperbolic_odd_degree_residual_nonnegative(self, alpha, p):
        # the mechanism behind the proved lower bound: the tail of the series
        # form of h_p stays nonnegative for hyperbolic odd degrees
        res = lower_bound_residual(p, hyperbolic(alpha), THETA)
        assert res.min() >= -1e-12

    def test_phase_1e300_overflows_nothing(self):
        # warnings are errors: the former (theta/a)**2 overflowed here
        res = lower_bound_residual(3, hyperbolic(1e-300), np.array([0.0, 1.0]))
        ref = lower_bound_residual(3, polynomial(), np.array([0.0, 1.0]))
        assert np.max(np.abs(res - ref)) <= 1e-15

    def test_residual_reconstructs_h(self):
        # leading term + residual = h_p, by construction of the split
        fam = trigonometric(math.pi / 2)
        res = lower_bound_residual(4, fam, THETA)
        sinc = np.sinc(THETA / (2 * math.pi))
        from gbspec.cardinal import _phi1_hat
        leading = (_phi1_hat(fam, THETA) * np.exp(1j * THETA)).real * sinc**3
        h = symbol_fn("h", 4, fam)(THETA)
        assert np.max(np.abs(leading + res - h)) <= 1e-13


class TestSplineBuilds:
    """From an empty store, one recursion run per call, from the seed to the
    top degree asked for; a repeat call for kept symbols runs none."""

    @pytest.mark.parametrize("p", range(2, 9))
    def test_g_and_f_build_only_the_sampled_degree(self, family, p, recursion_runs):
        symbol_fn("g", p, family)
        assert recursion_runs == [(1, p - 1)]
        recursion_runs.reset()
        symbol_fn("f", p, family)
        # f of degree 2 differentiates the degree-2 spline twice
        assert recursion_runs == [(1, p - 2 if p >= 3 else 2)]
        symbol_fn("f", p, family)
        assert recursion_runs == [(1, p - 2 if p >= 3 else 2)]

    def test_bounds_and_decay(self, family, recursion_runs):
        bounds_report(6, family, 256)
        assert recursion_runs == [(1, 6)]
        # bounds kept f_6, which is all decay needs
        bounds_report(6, family, 256)
        decay_ratio(6, family)
        assert recursion_runs == [(1, 6)]
        recursion_runs.reset()
        decay_ratio(6, family)
        assert recursion_runs == [(1, 4)]

    def test_decay_command_builds_each_level_once(self, family, recursion_runs,
                                                  capsys):
        # one degree at a time: each run carries the last one on
        argv = ["decay", "--family", family.tag, "--pmin", "2", "--pmax", "14"]
        if not family.is_polynomial:
            argv += ["--alpha", repr(family.phase)]
        assert cli.main(argv) == 0
        built = [q for first, top in recursion_runs for q in range(first, top + 1)]
        assert built == list(range(1, 13))
        runs = list(recursion_runs)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [
            decay_ratio(p, family) for p in range(2, 15)]
        assert recursion_runs == runs

    def test_refused_decay_builds_no_degree_above(self, recursion_runs, capsys):
        # polynomial f(pi) is rounding noise from p = 81, whose f samples
        # the degree-79 spline
        argv = ["decay", "--family", "polynomial", "--pmin", "2", "--pmax", "400"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: decay ratio at p = 81: ")
        assert max(top for _, top in recursion_runs) == 79

    def test_direction_symbols_build_each_level_once(self, family, recursion_runs):
        # the second direction carries the first one's run on to its degree
        DirectionSymbols([3, 5], [family, family], "nonnested")
        assert recursion_runs == [(1, 3), (4, 5)]
        DirectionSymbols([5, 3], [family, family], "nonnested")
        assert recursion_runs == [(1, 3), (4, 5)]


def _fresh_grid(size, columns):
    """The grid of one report, built for that report alone."""
    theta = np.linspace(-math.pi, math.pi, size)
    table = 2.0 * np.cos(np.multiply.outer(theta, np.arange(1, columns + 1)))
    return table, 2.0 - 2.0 * np.cos(theta)


def _fresh_grid_counts(p, family, size):
    """``(upper, lower)`` violations of h_p and f_p, p >= 4, counted on
    :func:`_fresh_grid` from the symbols' coefficients."""
    table, wave = _fresh_grid(size, p // 2)
    h, f, below = symbol_fns([("h", p), ("f", p), ("h", p - 2)], family)
    hv = h.coefficients[0] + table @ h.coefficients[1:]
    fv = -f.coefficients[0] - table @ f.coefficients[1:]
    slack = symbols._BOUND_SLACK
    upper = np.count_nonzero(hv > 1.0 + slack) + np.count_nonzero(fv > wave + slack)
    lower = np.count_nonzero(hv < symbols._lower_envelope(h) - slack) + \
        np.count_nonzero(fv < wave * symbols._lower_envelope(below) - slack)
    return int(upper), int(lower)


class TestExactExtrema:
    """bounds_report checks each bound at the exact extrema of h_p or h_{p-2}
    and builds a grid only when one of them crosses its bound."""

    @pytest.mark.parametrize("family", [polynomial(), *PHASE_SWEEP], ids=repr)
    def test_no_scan_point_beyond_the_extrema(self, family):
        # h is even: a 200001-point scan of [0, pi], one cosine table for
        # every degree; each point within the rounding bound of h's sum
        theta = np.linspace(0.0, math.pi, 200001)
        table = 2.0 * np.cos(np.multiply.outer(theta, np.arange(1, 16)))
        u = np.finfo(float).eps / 2
        for p in range(1, 31):
            h = symbol_fn("h", p, family)
            c = h.coefficients
            n = c.size
            bound = n * u / (1 - n * u) * (abs(c[0]) + 2.0 * np.abs(c[1:]).sum())
            scan = c[0] + table[:, :p // 2] @ c[1:]
            low, high = symbols._extrema(h)
            assert bounds_report(p, family).h_min == low
            assert scan.min() >= low - bound, (p, scan.min() - low)
            assert scan.max() <= high + bound, (p, scan.max() - high)

    def test_minimum_has_the_bits_of_a_grid_value(self):
        # the critical points are evaluated as one array, as a grid is: the
        # polynomial minimum, at pi, is the 4096-point grid's bit for bit
        # (one point at a time, p = 12 was 5.5e-17 off).  Elsewhere, where
        # the roots of h' cluster at pi, a root's value may round lower.
        theta = np.linspace(-math.pi, math.pi, 4096)
        for p in range(1, 21):
            want = symbol_fn("h", p, polynomial())(theta).min()
            assert _same_bits(bounds_report(p, polynomial()).h_min, want), p

    def test_sweep_builds_no_grid(self, monkeypatch):
        grids = []
        monkeypatch.setattr(symbols.np, "linspace",
                            lambda *args, **kwargs: grids.append(args))
        for family in [polynomial(), *PHASE_SWEEP]:
            for p in range(1, 41):
                rep = bounds_report(p, family)
                assert (rep.upper_violations, rep.lower_violations) == (0, 0)
        assert grids == []

    @pytest.mark.parametrize("family", [polynomial(), hyperbolic(10.0),
                                        trigonometric(1.5)], ids=repr)
    @pytest.mark.parametrize("crossing", ["upper h", "lower h", "upper f",
                                          "lower f"])
    def test_crossing_counts_on_a_fresh_grid(self, family, crossing, monkeypatch,
                                             recursion_runs):
        # scale h_6 (or h_4 and f_6 alike, keeping f_6 = (2 - 2cos) h_4) so
        # that its maximum passes 1 or its minimum half the envelope
        p, size = 6, 512
        bound, kind = crossing.split()
        scaled = [("h", p)] if kind == "h" else [("h", p - 2), ("f", p)]
        h = symbol_fn("h", scaled[0][1], family)
        scale = 1.01 if bound == "upper" else \
            0.5 * symbols._lower_envelope(h) / symbols._extrema(h)[0]
        planted = {(*key, family): symbols.SymbolFn(*key, family, scale * symbol_fn(
            *key, family).coefficients) for key in scaled}
        inner = symbols._symbol
        monkeypatch.setattr(symbols, "_symbol", lambda *key: planted[key]
                            if key in planted else inner(*key))
        want = _fresh_grid_counts(p, family, size)
        assert (want[0] > 0, want[1] > 0) == (bound == "upper", bound == "lower")
        grids = []
        linspace = np.linspace
        monkeypatch.setattr(symbols.np, "linspace",
                            lambda *args: grids.append(args) or linspace(*args))
        rep = bounds_report(p, family, size)
        assert (rep.upper_violations, rep.lower_violations) == want
        assert grids == [(-math.pi, math.pi, size)]
        assert rep.h_min == symbols._extrema(symbol_fn("h", p, family))[0]


class _Refusing:
    """``module`` with the functions ``names`` refused when looked up."""

    def __init__(self, module, names):
        self._module, self._names = module, names

    def __getattr__(self, name):
        if name in self._names:
            raise AssertionError(f"{name} looked up by a repeat report")
        return getattr(self._module, name)


class TestKeptSymbolFeatures:
    """bounds_report keeps f(0), its differences, the decay ratio and the
    extrema and envelopes of h with the symbols, as symbol_max is kept."""

    @pytest.mark.parametrize("family", [polynomial(), hyperbolic(10.0),
                                        trigonometric(3.0)], ids=repr)
    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    def test_repeat_report_evaluates_nothing(self, monkeypatch, family, p):
        want = bounds_report(p, family, 512)

        def refuse(*args, **kwargs):
            raise AssertionError("a symbol evaluated by a repeat report")

        monkeypatch.setattr(symbols.SymbolFn, "__call__", refuse)
        monkeypatch.setattr(symbols, "_critical_points", refuse)
        monkeypatch.setattr(symbols, "np", _Refusing(
            np, ("sin", "cos", "arccos", "linspace", "polynomial")))
        monkeypatch.setattr(symbols, "math", _Refusing(
            math, ("sin", "cos", "tan", "sinh", "cosh", "tanh")))
        assert bounds_report(p, family, 512) == want

    def test_same_values_as_a_fresh_symbol(self, monkeypatch):
        family = hyperbolic(10.0)
        kept = [bounds_report(p, family).to_dict() for p in (2, 9, 2, 9)]
        monkeypatch.setattr(symbols, "_kept_with",
                            lambda s, name, compute: compute(s))
        fresh = [bounds_report(p, family).to_dict() for p in (2, 9)]
        assert kept == fresh * 2


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


class TestKeptSymbols:
    """A process keeps each symbol, and its maximum, with its family's
    recursion levels."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_same_bits_as_a_fresh_build(self, order, recursion_runs):
        degrees = range(2, 15) if order == "ascending" else range(14, 1, -1)
        for family in [polynomial(), *PHASE_SWEEP]:
            recursion_runs.reset()
            requests = [(kind, p) for p in degrees for kind in KINDS]
            kept = {r: symbol_fn(*r, family) for r in requests}
            maxima = {r: symbol_max(s) for r, s in kept.items()}
            for r in requests:
                assert symbol_fn(*r, family) is kept[r]
            for (kind, p), sym in kept.items():
                recursion_runs.reset()
                fresh = symbol_fn(kind, p, family)
                assert fresh is not sym
                assert (sym.kind, sym.degree, sym.family) == (kind, p, family)
                assert _same_bits(sym.coefficients, fresh.coefficients), (family, kind, p)
                assert _same_bits(sym.toeplitz_coefficients(),
                                  fresh.toeplitz_coefficients()), (family, kind, p)
                assert _same_bits(maxima[kind, p], symbol_max(fresh)), (family, kind, p)

    def test_kept_arrays_are_read_only(self, recursion_runs):
        sym = symbol_fn("f", 6, hyperbolic(10.0))
        for array in (sym.coefficients, sym._tail, sym._k):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            symbol_fn("f", 6, hyperbolic(10.0)).coefficients *= 2.0

    def test_kept_family_equals_the_one_asked(self, recursion_runs):
        first = symbol_fn("h", 5, trigonometric(1.5))
        again = symbol_fn("h", 5, trigonometric(1.5))
        assert again is first
        assert again.family == trigonometric(1.5)
        # the store is keyed by the family, so a neighbour gets its own
        assert symbol_fn("h", 5, trigonometric(1.5000000000000002)).family == \
            trigonometric(1.5000000000000002)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--p", "3"],
        ["symbol", "--kind", "f", "--p", "3"],
        ["decay", "--pmin", "2", "--pmax", "3"],
        ["toeplitz", "--symbol", "g", "--p", "3", "--m", "4"],
    ], ids=lambda argv: argv[0])
    def test_large_phase_is_refused_with_planted_symbols(self, argv, capsys,
                                                         monkeypatch,
                                                         recursion_runs):
        for p in (2, 3):
            bounds_report(p, hyperbolic(76.0), 64)
            bounds_report(p, polynomial(), 64)
            symbol_fn("g", p, hyperbolic(76.0))
        # the store answers a refused family with another family's symbols
        inner = symbols._symbol
        planted = {hyperbolic(100.0): hyperbolic(76.0),
                   trigonometric(3.5): polynomial()}
        monkeypatch.setattr(symbols, "_symbol", lambda kind, p, family: inner(
            kind, p, planted.get(family, family)))
        misses = inner.cache_info().misses
        for kind, p in (("h", 3), ("g", 3), ("f", 3), ("f", 2)):
            assert symbols._symbol(kind, p, hyperbolic(100.0)) is \
                symbol_fn(kind, p, hyperbolic(76.0))
        assert inner.cache_info().misses == misses
        with pytest.raises(ConstraintError):
            symbol_fn("h", 3, trigonometric(3.5))
        assert cli.main([*argv, "--family", "hyperbolic", "--alpha", "100"]) == 2
        assert capsys.readouterr() == ("", (
            "numerical failure: hyperbolic effective phase 100 is above the "
            "supported maximum 76\n"))

    def test_hand_built_symbol_has_its_own_maximum(self, recursion_runs):
        kept = symbol_fn("g", 4, polynomial())
        hand = symbols.SymbolFn("g", 4, polynomial(), np.array([0.0, 0.5, 0.0]))
        for sym in (kept, hand, kept, hand):
            want = mp_symbol_max("g", sym.coefficients)
            assert abs(symbol_max(sym) - want) <= 2 * math.ulp(want)
        assert symbol_max(hand) != symbol_max(kept)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--p", "9", "--family", "hyperbolic", "--alpha", "0.1"],
        ["decay", "--family", "trigonometric", "--alpha", "2", "--pmin", "2",
         "--pmax", "8"],
        ["symbol", "--kind", "g", "--p", "6", "--family", "trigonometric",
         "--alpha", "1.2", "--grid", "33"],
        ["toeplitz", "--symbol", "f", "--p", "5", "--family", "hyperbolic",
         "--alpha", "3", "--m", "12", "--eig"],
    ], ids=lambda argv: argv[0])
    def test_repeat_command_evaluates_no_series(self, argv, capsys, monkeypatch,
                                                recursion_runs):
        # the first run samples the symbols from the recursion rows and
        # (bounds, decay) finds the maximum from a colleague matrix; a
        # repeat does neither, nor evaluates any series
        series, roots = [], []
        inner_series = sections._series
        inner_roots = symbols._chebroots

        def counted_series(*args):
            series.append(args[:2])
            return inner_series(*args)

        def counted_roots(c):
            roots.append(c)
            return inner_roots(c)

        monkeypatch.setattr(sections, "_series", counted_series)
        monkeypatch.setattr(symbols, "_chebroots", counted_roots)
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        sampled = symbols._symbol.cache_info().misses
        assert sampled
        assert bool(roots) == (argv[0] in ("bounds", "decay"))
        series.clear()
        roots.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == first
        assert (series, symbols._symbol.cache_info().misses, roots) == (
            [], sampled, [])


    @pytest.mark.parametrize("call", [
        lambda: bounds_report(9, hyperbolic(10.0)),
        lambda: decay_ratios(range(2, 9), trigonometric(2.0)),
        lambda: greville_samples(gb_basis(16, 4, hyperbolic(3.0), "nonnested")),
    ], ids=["bounds", "decay", "greville_samples"])
    def test_repeat_call_builds_no_symbol(self, call, recursion_runs):
        call()
        first = symbols._symbol.cache_info()
        call()
        # each (kind, p, family) was built once, and none again
        assert first.misses == first.currsize > 0
        assert symbols._symbol.cache_info().misses == first.misses

    def test_symbol_outlives_its_dropped_levels(self, monkeypatch,
                                                recursion_runs):
        family = hyperbolic(10.0)
        kept = symbol_fn("f", 9, family)
        peak = symbol_max(kept)
        # a budget for one family's levels to degree 7: a second drops it
        monkeypatch.setattr(cardinal, "KEPT_LEVEL_BYTES",
                            cardinal._kept_bytes(cardinal._RECURSIONS[family]))
        cardinal_spline(polynomial(), 7)
        assert list(cardinal._RECURSIONS) == [polynomial()]
        assert symbol_fn("f", 9, family) is kept
        recursion_runs.reset()
        fresh = symbol_fn("f", 9, family)
        assert fresh is not kept
        assert _same_bits(kept.coefficients, fresh.coefficients)
        assert _same_bits(symbol_max(kept), peak)
        assert _same_bits(symbol_max(fresh), peak)


def _thread_call(call):
    """The bytes of one call's result: symbols, a cardinal spline or a report."""
    what, family, p = call
    if what == "symbols":
        return [s.coefficients.tobytes()
                for s in symbol_fns([(kind, p) for kind in KINDS], family)]
    if what == "cardinal":
        cs = cardinal_spline(family, p)
        return [cs.pw.coeffs.tobytes(), repr(cs.delta1)]
    return repr(bounds_report(p, family).to_dict())


class TestSharedStores:
    """Objects are shared across threads, and each store is filled under
    one lock."""

    def test_threads_get_the_serial_bits(self, monkeypatch, recursion_runs):
        # a budget for about two families' levels to degree 12, so that
        # threads drop and rebuild levels while others read them
        monkeypatch.setattr(cardinal, "KEPT_LEVEL_BYTES",
                            2 * 8 * sum(k * k for k in range(2, 14)))
        families = [polynomial(), hyperbolic(10.0), trigonometric(1.5),
                    hyperbolic(0.1)]
        calls = [(what, family, p) for family in families
                 for what, degrees in (("symbols", (3, 7, 12)),
                                       ("cardinal", (2, 9)), ("bounds", (4, 11)))
                 for p in degrees]
        order = np.random.default_rng(5).permutation(2 * len(calls))
        calls = [calls[i % len(calls)] for i in order]
        serial = [_thread_call(call) for call in calls]
        recursion_runs.reset()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch between most bytecodes
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(_thread_call, calls))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        kept = sum(map(cardinal._kept_bytes, cardinal._RECURSIONS.values()))
        assert 0 < kept <= cardinal.KEPT_LEVEL_BYTES


#: phases of the envelope amplitude's test, down to where a**2 underflows
ENVELOPE_PHASES = {
    "hyperbolic": [1e-300, 1e-200, 1e-20, 1e-9, 1e-8, 1e-6, 1e-3, 0.1, 1.0,
                   10.0, 30.0, 50.0, 76.0],
    "trigonometric": [1e-300, 1e-200, 1e-20, 1e-9, 1e-8, 1e-6, 1e-3, 0.1,
                      1.0, 2.0, 3.0, 3.14],
}


class TestEnvelopeAmplitude:
    @pytest.mark.parametrize("tag, alpha", [
        (tag, a) for tag, phases in ENVELOPE_PHASES.items() for a in phases])
    def test_against_mpmath(self, tag, alpha):
        # a**2/(cosh(a) - 1) or a**2/(1 - cos(a)) at 50 digits beyond the
        # cancellation of the direct form
        digits = 50 + max(0, -2 * math.floor(math.log10(alpha)))
        with mp.workdps(digits):
            a = mp.mpf(alpha)
            gap = mp.cosh(a) - 1 if tag == "hyperbolic" else 1 - mp.cos(a)
            want = float(a * a / gap)
        got = symbols._amplitude(SectionFamily(tag, alpha))
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)

