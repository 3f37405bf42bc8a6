import math

import numpy as np
import pytest

from gbspec.cardinal import cardinal_spline
from gbspec.errors import ConstraintError, UsageError
from gbspec.sections import (PiecewiseFn, SectionFamily, _basis_matrix,
                             _edge_row, hyperbolic, piecewise_antiderivative,
                             piecewise_derivative, piecewise_eval, polynomial,
                             trigonometric)
from oracles import (PHASE_SWEEP, gauss_legendre_split, loop_antiderivative,
                     sign_changes)


def hat() -> PiecewiseFn:
    # unit hat on [0, 2]: (u + v)/2 = tau on the first interval, (u - v)/2
    # on the second, with u = 1 and v = 2 tau - 1
    return PiecewiseFn(polynomial(), 1, np.array([0.0, 1.0, 2.0]),
                       np.array([[0.5, 0.5], [0.5, -0.5]]))


def unit_slot(family, p: int, j: int) -> PiecewiseFn:
    # the j-th local basis function as a one-piece function on [0, 1]
    coeffs = np.zeros((1, p + 1))
    coeffs[0, j] = 1.0
    return PiecewiseFn(family, p, np.array([0.0, 1.0]), coeffs)


def random_pw(family, p, rng, m=3) -> PiecewiseFn:
    return PiecewiseFn(family, p, np.arange(m + 1.0),
                       rng.uniform(-1, 1, size=(m, p + 1)))


class TestFamilies:
    def test_phase_constraints(self):
        with pytest.raises(ConstraintError):
            hyperbolic(-1.0)
        with pytest.raises(ConstraintError):
            trigonometric(0.0)
        with pytest.raises(UsageError):
            SectionFamily("polynomial", 1.0)
        # trigonometric effective phase must stay below pi on every interval
        with pytest.raises(ConstraintError):
            PiecewiseFn(trigonometric(3.2), 2, np.array([0.0, 1.0]),
                        np.zeros((1, 3)))

    @pytest.mark.parametrize("family", [polynomial(), *PHASE_SWEEP],
                             ids=lambda f: f"{f.tag}{f.phase or ''}")
    def test_signed_square(self, family):
        # s is the phase squared, negated for trigonometric sections, and +0.0
        # for polynomials: the one parameter of the section functions
        if family.is_polynomial:
            expected = 0.0
        elif family.tag == "hyperbolic":
            expected = family.phase * family.phase
        else:
            expected = -(family.phase * family.phase)
        s = family.signed_square
        assert type(s) is float
        assert s == expected and math.copysign(1.0, s) == math.copysign(1.0, expected)


class TestPiecePhase:
    def test_phase_belongs_to_the_pieces(self):
        # pieces of width 1/4 are the unit pieces with the argument scaled
        # by 4: the breakpoints only place them and scale d/dx and integrals
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(-1, 1, size=(2, 4))
        short = PiecewiseFn(hyperbolic(2.0), 3, np.array([0.0, 0.25, 0.5]), coeffs)
        unit = PiecewiseFn(hyperbolic(2.0), 3, np.array([0.0, 1.0, 2.0]), coeffs)
        xs = np.linspace(0.0, 0.5, 101)
        assert np.array_equal(short(xs), unit(4 * xs))
        assert np.array_equal(piecewise_derivative(short)(xs),
                              4 * piecewise_derivative(unit)(4 * xs))
        assert np.array_equal(piecewise_antiderivative(short)(xs),
                              piecewise_antiderivative(unit)(4 * xs) / 4)


class TestBasisEval:
    def test_polynomial_constant_slot(self):
        assert unit_slot(polynomial(), 2, 0)(0.7) == 1.0

    def test_hyperbolic_v_slot(self):
        # v = R_3/N_3 with R_3(sigma) = (sinh(eps sigma) - eps sigma)/eps**3
        want = (math.sinh(0.5) - 0.5) / (math.sinh(1.0) - 1.0)
        assert unit_slot(hyperbolic(2.0), 3, 3)(0.75) == pytest.approx(
            want, abs=1e-15)

    def test_trigonometric_u_slot_quarter_period(self):
        # u = R_1/N_1 with R_1(sigma) = sin(eps sigma)/eps
        eps = math.pi / 2
        assert unit_slot(trigonometric(eps), 2, 1)(0.75) == pytest.approx(
            math.sin(eps / 4) / math.sin(eps / 2), abs=1e-15)
        assert unit_slot(trigonometric(eps), 2, 1)(1.0) == 1.0

    @pytest.mark.parametrize("tag", ["hyperbolic", "trigonometric"])
    def test_small_phase_pair_tends_to_monomials(self, tag):
        # u -> (2 sigma)**(p-1) and v -> (2 sigma)**p as the phase tends to 0
        tau = np.linspace(0.0, 1.0, 11)
        for p in range(1, 12):
            for j, power in ((p - 1, p - 1), (p, p)):
                got = unit_slot(SectionFamily(tag, 1e-6), p, j)(tau)
                assert np.max(np.abs(got - (2 * tau - 1) ** power)) <= 1e-12


class TestEval:
    def test_hat_midpoint(self):
        assert piecewise_eval(hat(), 0.5) == 0.5

    def test_compact_support(self):
        f = hat()
        assert piecewise_eval(f, 3.0) == 0.0
        assert piecewise_eval(f, -0.5) == 0.0

    def test_hyperbolic_interpolating_piece(self):
        # sinh(alpha t)/sinh(alpha) = (u + v)/2 on [0, 1] with alpha = 2
        f = PiecewiseFn(hyperbolic(2.0), 1, np.array([0.0, 1.0]),
                        np.array([[0.5, 0.5]]))
        assert piecewise_eval(f, 0.5) == pytest.approx(
            math.sinh(1.0) / math.sinh(2.0), abs=1e-15)

    def test_far_outside_support_does_not_overflow(self):
        # the section basis extrapolated to tau = 97 would overflow cosh
        cs = cardinal_spline(hyperbolic(10.0), 3)
        with np.errstate(all="raise"):
            assert cs(100.0) == 0.0
            vals = cs(np.array([-100.0, 2.0, 100.0, np.nan]))
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(float(cs(2.0)))

    def test_right_endpoint_is_left_limit(self):
        assert piecewise_eval(hat(), 2.0) == 0.0
        assert piecewise_eval(hat(), 1.0) == 1.0  # right-continuous interior


class TestDerivative:
    def test_hat_rising_slope(self):
        assert piecewise_derivative(hat())(0.25) == pytest.approx(1.0)

    def test_hyperbolic_chain_rule_at_zero(self):
        half = math.sinh(2.0) / 2
        f = PiecewiseFn(hyperbolic(2.0), 1, np.array([0.0, 1.0]),
                        np.array([[half, half]]))  # sinh(2 tau)
        assert piecewise_derivative(f)(0.0) == pytest.approx(2.0)

    def test_cardinal_symmetry_point(self):
        from gbspec.cardinal import cardinal_spline
        cs = cardinal_spline(polynomial(), 2)
        assert piecewise_derivative(cs.pw)(1.5) == pytest.approx(0.0, abs=1e-14)

    def test_degree_zero_gives_zero_fn(self):
        f = PiecewiseFn(polynomial(), 0, np.array([0.0, 1.0]), np.array([[3.0]]))
        df = piecewise_derivative(f)
        assert df(0.3) == 0.0

    def test_interval_width_scaling(self):
        # (u + v)/2 = tau on an interval of width 1/4 has global slope 4
        f = PiecewiseFn(polynomial(), 1, np.array([0.0, 0.25]),
                        np.array([[0.5, 0.5]]))
        assert piecewise_derivative(f)(0.1) == pytest.approx(4.0)


class TestAntiderivative:
    def test_constant_one(self):
        f = PiecewiseFn(polynomial(), 0, np.array([0.0, 1.0]), np.array([[1.0]]))
        assert piecewise_antiderivative(f)(1.0) == pytest.approx(1.0)

    def test_hat_total_integral(self):
        assert piecewise_antiderivative(hat())(2.0) == pytest.approx(1.0)

    def test_cosine_piece(self):
        eps = math.pi / 2
        # cos(eps tau) = cos(eps/2)**2 u - sin(eps/2)**2 v
        f = PiecewiseFn(trigonometric(eps), 1, np.array([0.0, 1.0]),
                        np.array([[0.5, -0.5]]))  # cos(eps tau)
        assert piecewise_antiderivative(f)(1.0) == pytest.approx(2.0 / math.pi)

    def test_continuity_across_breakpoints(self, family):
        rng = np.random.default_rng(7)
        f = random_pw(family, 3, rng)
        anti = piecewise_antiderivative(f)
        for b in f.breakpoints[1:-1]:
            left = anti(b - 1e-12)
            right = anti(b)
            assert right == pytest.approx(left, abs=1e-10)


    @pytest.mark.parametrize("tag", ["polynomial", "hyperbolic", "trigonometric"])
    def test_end_rows_in_one_call_match_single_rows(self, tag):
        # the basis rows at tau = 1 of all pieces, in one call and one by
        # one, are the constant row the antiderivative uses
        eps = np.geomspace(1e-6, 100.0, 41)
        if tag == "trigonometric":
            eps = eps[eps < math.pi]
        for p in range(1, 14):
            for e in eps:
                s = (0.0 if tag == "polynomial"
                     else SectionFamily(tag, float(e)).signed_square)
                rows = _basis_matrix(p, s, np.ones(3))
                single = _basis_matrix(p, s, np.array([1.0]))
                for row in rows:
                    assert np.array_equal(row, single[0])
                    assert np.array_equal(row, _edge_row(p, 1.0))


    @pytest.mark.parametrize("tag", ["polynomial", "hyperbolic", "trigonometric"])
    def test_bit_identical_to_loop_antiderivative(self, tag):
        rng = np.random.default_rng(2024)
        cases = 0
        for p in range(0 if tag == "polynomial" else 1, 14):
            for phase in np.geomspace(1e-6, 100.0, 9):
                for widths in (np.ones(5), rng.uniform(0.1, 2.0, 7)):
                    if tag == "trigonometric" and not phase * widths.max() < math.pi:
                        continue
                    family = (polynomial() if tag == "polynomial"
                              else SectionFamily(tag, float(phase)))
                    scale = 10.0 ** rng.uniform(-8, 8)
                    coeffs = rng.standard_normal((widths.size, p + 1)) * scale
                    coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
                    f = PiecewiseFn(family, p, np.cumsum(np.r_[0.0, widths]), coeffs)
                    got = piecewise_antiderivative(f).coeffs
                    ref = loop_antiderivative(f).coeffs
                    assert np.array_equal(got, ref), (p, phase)
                    assert np.array_equal(np.signbit(got), np.signbit(ref)), (p, phase)
                    cases += 1
                if tag == "polynomial":
                    break  # the phase does not enter
        assert cases >= 26


class TestExactness:
    def test_derivative_of_antiderivative(self, family):
        rng = np.random.default_rng(42)
        for p in (1, 2, 4):
            f = random_pw(family, p, rng)
            back = piecewise_derivative(piecewise_antiderivative(f))
            xs = rng.uniform(0.0, 3.0, 100)
            assert np.max(np.abs(back(xs) - f(xs))) <= 1e-12

    def test_integral_matches_quadrature(self, family):
        rng = np.random.default_rng(3)
        for p in (1, 3):
            f = random_pw(family, p, rng)
            exact = piecewise_antiderivative(f)(f.breakpoints[-1])
            quad = gauss_legendre_split(f, f.breakpoints)
            assert exact == pytest.approx(quad, abs=1e-10)


@pytest.mark.parametrize("family", [hyperbolic(2.0), trigonometric(1.0)],
                         ids=lambda f: f.tag)
def test_derived_pair_is_chebyshev(family):
    # any nontrivial a*u' + b*v' may change sign at most once on [0, 1]
    grid = np.linspace(0.0, 1.0, 1000)
    rng = np.random.default_rng(11)
    du = piecewise_derivative(unit_slot(family, 2, 1))(grid)
    dv = piecewise_derivative(unit_slot(family, 2, 2))(grid)
    for _ in range(100):
        a, b = rng.uniform(-1, 1, 2)
        if abs(a) + abs(b) < 1e-3:
            continue
        assert sign_changes(a * du + b * dv) <= 1
