import math
from fractions import Fraction

import numpy as np
import pytest

from gbspec import cli, symbols
from gbspec.errors import UsageError
from gbspec.multidim import DirectionSymbols
from gbspec.sections import hyperbolic, polynomial, trigonometric
from gbspec.symbols import (KINDS, bounds_report, decay_ratio,
                            lower_bound_residual, symbol_closed_form, symbol_fn,
                            symbol_fns, symbol_max, symbol_series)
from oracles import (PHASE_SWEEP, mp_cardinal, mp_symbol_max,
                     piecewise_symbol_coefficients)

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
        polynomial(), hyperbolic(1e-9), hyperbolic(1e-3), hyperbolic(10.0),
        hyperbolic(30.0), trigonometric(0.01), trigonometric(3.0)], ids=repr)
    def test_same_samples_as_piecewise_functions(self, family):
        requests = [(kind, p) for p in range(1, 15) for kind in KINDS
                    if (kind, p) not in (("g", 1), ("f", 1))]
        for (kind, p), sym in zip(requests, symbol_fns(requests, family)):
            ref = piecewise_symbol_coefficients(kind, p, family)
            assert np.array_equal(sym.coefficients, ref), (kind, p)
            assert np.array_equal(np.signbit(sym.coefficients),
                                  np.signbit(ref)), (kind, p)

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
    ], ids=["h1", "f2", "h2-zero-top", "h-zero-top", "f-zero-top",
            "g-zero-top", "g-zero"])
    def test_degenerate_series_raise_no_warning(self, sym):
        # a RuntimeWarning fails the test (filterwarnings = error)
        got = symbol_max(sym)
        want = mp_symbol_max(sym.kind, sym.coefficients)
        assert abs(got - want) <= 2 * math.ulp(want)


    @pytest.mark.parametrize("p", [260, 300])
    def test_high_degree_top_coefficient_is_trimmed(self, p):
        # f's last nonzero coefficients are subnormal (4e-320 at p = 260):
        # dividing by them in the colleague matrix would overflow
        sym = symbol_fn("f", p, polynomial())
        got = symbol_max(sym)
        want = mp_symbol_max("f", sym.coefficients)
        assert abs(got - want) <= 2 * math.ulp(want)


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

    @pytest.mark.parametrize("p", [1, 6, 13])
    def test_one_cosine_table_per_report(self, monkeypatch, p):
        # h and f share one table of cos(theta k); neither goes through
        # __call__ on the grid, and the values they take from the table are
        # bit for bit those __call__ gives
        tables, grid_calls, values = [], [], []
        cos, call, from_table = np.cos, symbols.SymbolFn.__call__, \
            symbols.SymbolFn.from_table

        def counted_cos(x, *args, **kwargs):
            if np.ndim(x) == 2:
                tables.append(np.shape(x))
            return cos(x, *args, **kwargs)

        def counted_call(self, theta):
            if np.ndim(theta):
                grid_calls.append(self.kind)
            return call(self, theta)

        def recorded(self, table):
            out = from_table(self, table)
            if np.ndim(out):
                values.append((self, out))
            return out

        monkeypatch.setattr(symbols.np, "cos", counted_cos)
        monkeypatch.setattr(symbols.SymbolFn, "__call__", counted_call)
        monkeypatch.setattr(symbols.SymbolFn, "from_table", recorded)
        bounds_report(p, hyperbolic(10.0), 512)
        monkeypatch.undo()
        assert tables == [(512, p // 2)]
        assert grid_calls == []
        assert [sym.kind for sym, _ in values] == (["h", "f"] if p >= 2 else ["h"])
        theta = np.linspace(-math.pi, math.pi, 512)
        for sym, got in values:
            assert np.array_equal(got, sym(theta)), sym.kind

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
    """One recursion run per call, each from the seed to the top degree
    asked for, with no degree kept from an earlier call."""

    @pytest.mark.parametrize("p", range(2, 9))
    def test_g_and_f_build_only_the_sampled_degree(self, family, p, recursion_runs):
        symbol_fn("g", p, family)
        assert recursion_runs == [(1, p - 1)]
        recursion_runs.reset()
        symbol_fn("f", p, family)
        # f of degree 2 differentiates the degree-2 spline twice
        assert recursion_runs == [(1, p - 2 if p >= 3 else 2)]

    def test_bounds_and_decay(self, family, recursion_runs):
        bounds_report(6, family, 256)
        assert recursion_runs == [(1, 6)]
        recursion_runs.reset()
        decay_ratio(6, family)
        assert recursion_runs == [(1, 4)]

    def test_decay_command_runs_one_recursion(self, family, recursion_runs, capsys):
        argv = ["decay", "--family", family.tag, "--pmin", "2", "--pmax", "14"]
        if not family.is_polynomial:
            argv += ["--alpha", repr(family.phase)]
        assert cli.main(argv) == 0
        assert recursion_runs == [(1, 12)]
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [
            decay_ratio(p, family) for p in range(2, 15)]

    def test_direction_symbols_build_each_level_once(self, family, recursion_runs):
        # the second direction carries the first one's run on to its degree
        DirectionSymbols([3, 5], [family, family], "nonnested")
        assert recursion_runs == [(1, 3), (4, 5)]

