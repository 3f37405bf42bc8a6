import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbspec import collocation, exprparse, sections, symbols
from gbspec.cli import load_problem_1d
from gbspec.cardinal import cardinal_spline
from gbspec.collocation import (CollocationSystem, Geometry, KnotVector,
                                Problem, assemble, central_range, densify,
                                gb_basis, greville_abscissae, greville_samples)
from gbspec.errors import (ConstraintError, NumericalError, UsageError,
                           ValidationError)
from gbspec.sections import SectionFamily, hyperbolic, polynomial, trigonometric
from gbspec.spectral import ToeplitzSpec, toeplitz
from gbspec.symbols import symbol_fn
from oracles import (basis_splines, dense_assemble_1d, dense_greville_samples,
                     exact_greville_abscissae, full_span_basis, geometry_1d,
                     loop_antiderivative, loop_gb_basis, loop_greville_samples,
                     mp_cardinal, mp_greville_samples, mp_nested_shape_error,
                     piecewise_antiderivative, piecewise_derivative,
                     problem_1d, reflect_rows, structure_report)

CONFIGS = Path(__file__).resolve().parent.parent / "gbbench" / "configs"
MODES = ("nested", "nonnested")
Q_CASES = [(hyperbolic(10.0), "nonnested"), (hyperbolic(10.0), "nested"),
           (trigonometric(math.pi / 2), "nonnested"),
           (trigonometric(math.pi / 2), "nested")]


def ids(case):
    fam, mode = case
    return f"{fam.tag}-{mode}"


class TestKnotsAndGreville:
    def test_open_uniform_layout(self):
        kv = KnotVector.open_uniform(4, 2)
        assert np.allclose(kv.knots,
                           [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])

    def test_interior_points_n4_p2(self):
        kv = KnotVector.open_uniform(4, 2)
        assert np.allclose(greville_abscissae(kv), [1 / 8, 3 / 8, 5 / 8, 7 / 8])

    def test_interior_simplification(self):
        # for interior indices the knot average reduces to i/n - (p+1)/(2n)
        kv = KnotVector.open_uniform(8, 3)
        xi = kv.knots[4:7].mean()  # 1-based index 4
        assert xi == pytest.approx(4 / 8 - 4 / 16)

    def test_all_points_interior(self):
        for n, p in [(4, 2), (8, 3), (6, 4)]:
            xi = greville_abscissae(KnotVector.open_uniform(n, p))
            assert np.all(xi > 0) and np.all(xi < 1)
            assert xi.size == n + p - 2

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            KnotVector.open_uniform(1, 2)
        with pytest.raises(UsageError):
            KnotVector.open_uniform(4, 1)


class TestBasis:
    def test_boundary_interpolation(self, family):
        basis = gb_basis(4, 2, family)
        assert basis_splines(basis)[0](0.0) == pytest.approx(1.0, abs=1e-12)
        for s in basis_splines(basis)[1:]:
            assert s(0.0) == pytest.approx(0.0, abs=1e-12)
        assert basis_splines(basis)[-1](1.0) == pytest.approx(1.0, abs=1e-12)

    def test_partition_of_unity(self, family):
        basis = gb_basis(4, 2, family)
        xs = np.linspace(0.0, 1.0, 200)
        total = sum(s(xs) for s in basis_splines(basis))
        assert np.max(np.abs(total - 1.0)) <= 1e-10
        assert sum(float(s(0.37)) for s in basis_splines(basis)) == pytest.approx(1.0)

    def test_local_support(self, family):
        basis = gb_basis(8, 3, family)
        t = basis.knots.knots
        for i, s in enumerate(basis_splines(basis), start=1):
            lo, hi = t[i - 1], t[i + 3]
            pts = np.linspace(0.0, 1.0, 113)
            outside = (pts < lo - 1e-12) | (pts > hi + 1e-12)
            assert np.max(np.abs(s(pts[outside]))) <= 1e-14

    @pytest.mark.parametrize("case", Q_CASES, ids=ids)
    def test_interior_splines_are_cardinal(self, case):
        family, mode = case
        n, p = 8, 3
        basis = gb_basis(n, p, family, mode)
        cs = cardinal_spline(basis.section_family, p)
        xs = np.linspace(0.0, 1.0, 257)
        for i in range(p + 1, n + 1):  # 1-based interior indices
            vals = basis_splines(basis)[i - 1](xs)
            ref = cs(n * xs - i + p + 1)
            assert np.max(np.abs(vals - ref)) <= 1e-10

    def test_cardinal_identity_example(self):
        # N_{5,2} for n=8 equals phi_2(8x - 2); its own Greville point maps
        # to the center sample 3/4
        basis = gb_basis(8, 2, polynomial())
        x = 5 / 8 - 3 / 16
        assert basis_splines(basis)[4](x) == pytest.approx(0.75, abs=1e-13)

    def test_trigonometric_feasibility(self):
        with pytest.raises(ConstraintError):
            gb_basis(4, 2, trigonometric(3.5), "nonnested")
        with pytest.raises(ConstraintError) as err:
            gb_basis(2, 2, trigonometric(7.0), "nested")
        assert "n >= 3" in str(err.value)
        gb_basis(3, 2, trigonometric(7.0), "nested")  # minimal feasible n


class TestEffectivePhase:
    """Every piece of a basis has one effective phase: alpha, or alpha/n nested."""

    @pytest.mark.parametrize("alpha,n", [(0.7, 12), (0.1, 24), (10.0, 24),
                                         (10.0, 36)])
    def test_nonnested_phase_is_alpha(self, alpha, n):
        basis = gb_basis(n, 3, hyperbolic(alpha), "nonnested")
        assert basis.section_family.phase == alpha
        assert basis.section_family == hyperbolic(alpha)

    @pytest.mark.parametrize("n", [24, 36, 256])
    def test_nested_phase_is_alpha_over_n(self, n):
        basis = gb_basis(n, 3, trigonometric(2.0), "nested")
        assert basis.section_family == trigonometric(2.0 / n)

    def test_nonnested_shapes_do_not_depend_on_n(self):
        ref = gb_basis(8, 3, hyperbolic(0.7), "nonnested")
        for n in range(9, 200):
            basis = gb_basis(n, 3, hyperbolic(0.7), "nonnested")
            assert np.array_equal(basis.shapes, ref.shapes), n
            assert np.array_equal(basis.shape_normalizers,
                                  ref.shape_normalizers), n

    def test_series_evaluations_do_not_depend_on_n(self, monkeypatch,
                                                    recursion_runs):
        # one array evaluation for each of the slots u and v of the corner
        # rows, at any n; the symbols h, g and f are sampled from the kept
        # recursion rows, with no series, unless they are kept
        calls = []
        inner = sections._series

        def counted(s, k, sigma):
            if isinstance(sigma, np.ndarray):
                calls.append(k)
            return inner(s, k, sigma)

        monkeypatch.setattr(sections, "_series", counted)
        for fresh, want in ((True, 3), (False, 0)):
            counts = {}
            for n in (24, 32, 36, 256):
                basis = gb_basis(n, 3, hyperbolic(10.0), "nonnested")
                if fresh:
                    recursion_runs.reset()
                calls.clear()
                misses = symbols._symbol.cache_info().misses
                greville_samples(basis)
                counts[n] = (len(calls),
                             symbols._symbol.cache_info().misses - misses)
            assert counts == dict.fromkeys((24, 32, 36, 256), (2, want)), fresh


# trigonometric(7) in nested mode is feasible from n = 3 on
BANDED_CASES = [(polynomial(), "nonnested"),
                (hyperbolic(10.0), "nested"), (hyperbolic(10.0), "nonnested"),
                (trigonometric(2.0), "nested"), (trigonometric(2.0), "nonnested"),
                (trigonometric(7.0), "nested")]
BANDED_SIZES = ("smallest", "n0", "n0+1", 37, 64)
#: small effective phases at high degree, (family, p, n) in nested mode
SMALL_PHASE_CASES = [(hyperbolic(1.0), 7, 256), (trigonometric(2.0), 8, 64)]


def _banded_size(size, p: int, family: SectionFamily, mode: str) -> int:
    if size == "smallest":
        nested_trig = family.tag == "trigonometric" and mode == "nested"
        return max(2, math.floor(family.phase / math.pi) + 1) if nested_trig else 2
    if size == "n0":
        return 2 * p + 2
    if size == "n0+1":
        return 2 * p + 3
    return size


def _full_span_samples(n: int, p: int, family: SectionFamily, mode: str):
    """Reference sample matrices and partition-of-unity residual."""
    splines = full_span_basis(n, p, family, mode)
    xi = greville_abscissae(KnotVector.open_uniform(n, p))
    d1 = [piecewise_derivative(s) for s in splines]
    d2 = [piecewise_derivative(s) for s in d1]
    mats = [np.column_stack([s(xi) for s in fns[1:-1]]) for fns in (splines, d1, d2)]
    xs = np.linspace(0.0, 1.0, 301)
    residual = np.max(np.abs(sum(s(xs) for s in splines) - 1.0))
    return mats, residual


def _assert_same_as_loop_basis(n: int, p: int, family: SectionFamily, mode: str,
                               antiderivative=piecewise_antiderivative):
    """gb_basis equals the spline-by-spline oracle bit for bit, or both fail."""
    try:
        splines, normalizers = loop_gb_basis(n, p, family, mode, antiderivative)
    except ZeroDivisionError:
        with pytest.raises(NumericalError):
            gb_basis(n, p, family, mode)
        return
    basis = gb_basis(n, p, family, mode)
    got = basis_splines(basis)
    assert [s.support for s in got] == [s.support for s in splines], n
    assert {s.family for s in got} == {s.family for s in splines}, n
    got, want = (np.concatenate([s.coeffs for s in fns]) for fns in (got, splines))
    assert np.array_equal(got, want), n
    assert np.array_equal(np.signbit(got), np.signbit(want)), n
    assert np.array_equal(basis.normalizers, normalizers), n


def _rel_err(mats, refs) -> float:
    """Largest max-norm relative error over the value/first/second matrices."""
    return max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(mats, refs))


class TestBandedBasis:
    @pytest.mark.parametrize("size", BANDED_SIZES)
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_matches_full_span(self, case, p, size):
        family, mode = case
        n = _banded_size(size, p, family, mode)
        basis = gb_basis(n, p, family, mode)
        t = basis.knots.knots
        for i, s in enumerate(basis_splines(basis), start=1):
            assert s.coeffs.shape[0] <= p + 1
            assert s.support == (t[i - 1], t[i + p])
        mats = dense_greville_samples(basis)[1:]
        refs, residual = _full_span_samples(n, p, family, mode)
        err = _rel_err(mats, refs)
        if err <= 1e-12:
            return
        if residual > 1e-12:
            # the reference misses partition of unity: agree on its own scale
            assert err <= 1e3 * residual
            return
        # the two constructions round differently; against 40-digit values
        # the banded basis must be as accurate as the reference, up to the
        # factor that rounding at different interval widths costs
        pytest.importorskip("mpmath")
        exact = mp_greville_samples(n, p, family.tag,
                                    basis.section_family.phase or 0.0,
                                    greville_abscissae(basis.knots))
        assert _rel_err(mats, exact) <= 32 * _rel_err(refs, exact)

    def test_interior_splines_share_coefficients(self):
        basis = gb_basis(40, 4, hyperbolic(3.0), "nested")
        interior = basis_splines(basis)[4:40]
        assert all(np.array_equal(s.coeffs, interior[0].coeffs) for s in interior)

    @pytest.mark.parametrize("p", range(2, 11))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_bit_identical_to_loop_basis(self, case, p):
        # knot vectors shorter than 2p+2 and degrees up to 10; the sizes of
        # test_matches_full_span are covered, with loop_antiderivative, by
        # test_same_as_with_loop_antiderivative
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        sizes = ("smallest", p + 1, 2 * p + 1) if p <= 6 else (p + 1, "n0")
        for size in sizes:
            n = _banded_size(size, p, family, mode)
            if n >= smallest:
                _assert_same_as_loop_basis(n, p, family, mode)

    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_same_as_with_loop_antiderivative(self, case, p):
        family, mode = case
        for size in BANDED_SIZES:
            n = _banded_size(size, p, family, mode)
            _assert_same_as_loop_basis(n, p, family, mode, loop_antiderivative)

    def test_work_does_not_grow_with_n(self, monkeypatch, recursion_runs):
        made = []
        init = sections.PiecewiseFn.__post_init__

        def counted(self):
            made.append(self)
            init(self)

        def misses():
            return symbols._symbol.cache_info().misses

        monkeypatch.setattr(sections.PiecewiseFn, "__post_init__", counted)
        counts = {}
        for n in (64, 4096):
            made.clear()
            basis = gb_basis(n, 3, hyperbolic(10.0), "nonnested")
            counts[n] = len(made)
            if n == 64:
                made.clear()
                greville_samples(basis)
                # the symbols h, g and f are sampled from the recursion rows
                # with no cardinal spline built, and not again once kept
                assert (made, misses()) == ([], 3)
                greville_samples(basis)
                assert (made, misses()) == ([], 3)
        assert counts[64] == counts[4096]

    @pytest.mark.parametrize("family,p,n", SMALL_PHASE_CASES, ids=repr)
    def test_small_phase_high_degree_basis_matches_mpmath(self, family, p, n):
        # effective phases 1/256 and 1/32 at degrees 7 and 8
        assert mp_nested_shape_error(n, p, family) <= 1e-9

    def test_small_phase_partition_of_unity(self):
        basis = gb_basis(64, 6, hyperbolic(1.0), "nested")
        xs = np.linspace(0.0, 1.0, 1001)
        total = sum(s(xs) for s in basis_splines(basis))
        assert np.max(np.abs(total - 1.0)) <= 1e-10


# n = 48 is the nu = 2 direction of the 2D benchmark configuration
# (trigonometric(2), nested, p = 4) at n = 24
ONE_PASS_SIZES = BANDED_SIZES + (2, 48)


#: (family, mode, p) of the accuracy gate at n = 5, 9, 37, 64 and 200
GATE_CASES = [(hyperbolic(10.0), "nonnested", 3), (hyperbolic(10.0), "nonnested", 6),
              (polynomial(), "nonnested", 5), (trigonometric(10.0), "nested", 4)]


def _assert_as_accurate_as_the_loop_sampler(n: int, p: int, family: SectionFamily,
                                            mode: str) -> None:
    """Against 40-digit values at the exact Greville points, each matrix is
    no further off than the every-row sampling at floating-point points,
    reflected (the former sampler), up to 4 ulp of its largest entry; from
    n = 200 on, where that sampling's local coordinates drift by n eps, it
    is strictly closer."""
    basis = gb_basis(n, p, family, mode)
    exact = mp_greville_samples(n, p, family.tag, basis.section_family.phase or 0.0,
                                exact_greville_abscissae(n, p))
    got = dense_greville_samples(basis)[1:]
    former = reflect_rows(loop_greville_samples(basis))[1:]
    for r, (a, b, ref) in enumerate(zip(got, former, exact)):
        err, former_err = np.max(np.abs(a - ref)), np.max(np.abs(b - ref))
        assert err <= former_err + 4 * np.finfo(float).eps * np.max(np.abs(ref)), (n, r)
        assert n < 200 or err < former_err, (n, r)


class TestOnePassSampling:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_as_accurate_as_the_loop_sampler(self, case, p):
        pytest.importorskip("mpmath")
        family, mode = case
        for size in ("smallest", 9):
            _assert_as_accurate_as_the_loop_sampler(
                _banded_size(size, p, family, mode), p, family, mode)

    @pytest.mark.parametrize("case", GATE_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}-p{c[2]}")
    def test_accuracy_gate(self, case):
        pytest.importorskip("mpmath")
        family, mode, p = case
        for n in (5, 9, 37, 64, 200):
            _assert_as_accurate_as_the_loop_sampler(n, p, family, mode)

    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_interior_rows_are_the_scaled_symbol_toeplitz(self, case, p):
        family, mode = case
        for n in (2 * p + 2, 37):
            basis = gb_basis(n, p, family, mode)
            xi, *mats = dense_greville_samples(basis)
            h, g, f = (symbol_fn(kind, p, basis.section_family) for kind in "hgf")
            coefficients = (h.toeplitz_coefficients(),
                            (1j * g.toeplitz_coefficients()).real,
                            -f.toeplitz_coefficients())
            lo, hi = central_range(n, p)
            for r, (mat, c) in enumerate(zip(mats, coefficients)):
                want = n**r * toeplitz(ToeplitzSpec(c), xi.size)
                assert np.array_equal(mat[lo:hi], want[lo:hi]), (n, r)
                assert np.array_equal(np.signbit(mat[lo:hi]),
                                      np.signbit(want[lo:hi])), (n, r)

    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_corner_rows_match_the_loop_sampler(self, case, p):
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        for size in ONE_PASS_SIZES:
            n = _banded_size(size, p, family, mode)
            if n < smallest:
                continue
            basis = gb_basis(n, p, family, mode)
            got = dense_greville_samples(basis)
            ref = loop_greville_samples(basis)
            rng = central_range(n, p)
            corners = slice(None) if rng is None else np.r_[0:rng[0], rng[1]:got[0].size]
            assert np.max(np.abs(got[0] - ref[0])) <= 1e-15, n
            for r, (a, b) in enumerate(zip(got[1:], ref[1:])):
                err = np.max(np.abs(a[corners] - b[corners]))
                assert err <= 1e-12 * np.max(np.abs(b)), (n, r)

    def test_basis_evaluations_do_not_grow_with_n(self, monkeypatch):
        calls = []
        inner = sections._basis_matrix

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(sections, "_basis_matrix", counted)
        monkeypatch.setattr(collocation, "_basis_matrix", counted)
        counts = {}
        for n in (16, 256):
            basis = gb_basis(n, 3, hyperbolic(10.0), "nonnested")
            calls.clear()
            greville_samples(basis)
            counts[n] = len(calls)
        assert counts[16] == counts[256] >= 1


class TestReflectedSamples:
    @pytest.mark.parametrize("p", range(2, 9))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_band_invariants(self, case, p):
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        # both parities of m = n+p-2, without and with central rows
        for n in (smallest, smallest + 1, 2 * p + 2, 2 * p + 3, 37):
            xi, starts, samples = greville_samples(gb_basis(n, p, family, mode))
            m, w = xi.size, samples.shape[2]
            assert starts.shape == (m,) and samples.shape == (3, m, w), n
            assert w <= p + 1, n
            assert starts.min() >= 0 and (starts + w).max() <= m, n
            for r, mat in enumerate(densify(starts, samples, m)):
                # row m-1-i is row i reversed, times (-1)**r, for every row
                # above the middle and for the right half of a middle row
                for i in range((m + 1) // 2):
                    got, want = mat[m - 1 - i], mat[i, ::-1]
                    if 2 * i == m - 1:
                        got, want = got[i + 1:], want[i + 1:]
                    want = 0.0 - want if r % 2 else want
                    assert np.array_equal(got, want), (n, r, i)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (n, r, i)

    @pytest.mark.parametrize("p", range(2, 9))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_exactly_reflection_symmetric(self, case, p):
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        # m = n+p-2 rows: both parities, below and above n = 2p+2
        for n in (smallest, smallest + 1, 2 * p + 2, 2 * p + 3):
            _, *mats = dense_greville_samples(gb_basis(n, p, family, mode))
            for r, mat in enumerate(mats):
                assert np.array_equal(mat[::-1, ::-1], (-1) ** r * mat), (n, r)

    @pytest.mark.parametrize("p", range(2, 9))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_as_accurate_as_sampling_every_row(self, case, p):
        # against 40-digit values at the exact Greville points, which are
        # symmetric about 1/2 as their floating-point values need not be
        pytest.importorskip("mpmath")
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        for n in (smallest, smallest + 1):
            basis = gb_basis(n, p, family, mode)
            exact = mp_greville_samples(n, p, family.tag,
                                        basis.section_family.phase or 0.0,
                                        exact_greville_abscissae(n, p))
            got = dense_greville_samples(basis)[1:]
            every_row = loop_greville_samples(basis)[1:]
            for r, (a, b, ref) in enumerate(zip(got, every_row, exact)):
                ulp = np.finfo(float).eps * np.max(np.abs(ref))
                assert (np.max(np.abs(a - ref))
                        <= np.max(np.abs(b - ref)) + 4 * ulp), (n, r)


def make_system(n=8, p=2, family=polynomial(), mode="nonnested",
                kappa="1", beta="0", gamma="0",
                geometry=None) -> CollocationSystem:
    problem = problem_1d(kappa, beta, gamma, family, p, mode)
    geo = geometry or Geometry.identity(1)
    return assemble(problem, geo, gb_basis(n, p, family, mode))


class TestAssemble:
    def test_laplacian_central_rows(self):
        system = make_system(n=8, p=2)
        lo, hi = central_range(8, 2)
        for i in range(lo, hi):
            row = system.stiffness[i]
            assert row[i] == pytest.approx(2.0, abs=1e-12)
            assert row[i - 1] == pytest.approx(-1.0, abs=1e-12)
            assert row[i + 1] == pytest.approx(-1.0, abs=1e-12)

    def test_reaction_central_row_sums(self, family):
        system = make_system(n=12, p=3, family=family, gamma="1",
                             mode="nested")
        lo, hi = central_range(12, 3)
        sums = system.mass[lo:hi].sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_split_reconstruction(self):
        # the parts weighted by the folded coefficients of the dense formula
        geometry = geometry_1d("(x+x^2)/2")
        system = make_system(n=8, p=3, kappa="1+x", beta="sin(x)", gamma="x^2",
                             geometry=geometry)
        ref = dense_assemble_1d(problem_1d("1+x", "sin(x)", "x^2"), geometry,
                                gb_basis(8, 3, polynomial(), "nonnested"))
        n = system.n
        recon = (n**2 * np.diag(ref.kappa_hat) @ system.stiffness
                 + n * np.diag(ref.beta_hat) @ system.advection
                 + np.diag(ref.gamma_hat) @ system.mass)
        assert np.max(np.abs(recon - system.full_matrix)) <= 1e-9

    def test_split_matches_entrywise_collocation(self):
        # independent route: evaluate -kappa N'' + beta N' + gamma N entry by
        # entry from the splines themselves
        n, p = 8, 3
        family = hyperbolic(2.0)
        system = make_system(n=n, p=p, family=family, kappa="1+x^2",
                             beta="x", gamma="2")
        basis = gb_basis(n, p, family, "nonnested")
        xi = system.greville
        inner = basis_splines(basis)[1:-1]
        d1 = [piecewise_derivative(s) for s in inner]
        d2 = [piecewise_derivative(s) for s in d1]
        direct = np.empty_like(system.full_matrix)
        for i, x in enumerate(xi):
            for j in range(len(inner)):
                direct[i, j] = (-(1 + x**2) * float(d2[j](x))
                                + x * float(d1[j](x)) + 2 * float(inner[j](x)))
        assert np.max(np.abs(direct - system.full_matrix)) <= 1e-9

    def test_geometry_equals_direct_transformed_problem(self):
        # G = (x + x^2)/2: transform by hand and assemble with identity map
        via_map = make_system(n=8, p=3, geometry=geometry_1d("(x+x^2)/2"))
        transformed = problem_1d(kappa="1/((1/2+x)^2)", beta="1/((1/2+x)^3)")
        direct = assemble(transformed, Geometry.identity(1),
                          gb_basis(8, 3, polynomial()))
        assert np.max(np.abs(via_map.full_matrix - direct.full_matrix)) <= 1e-9

    def test_interior_second_derivative_scaling(self):
        # interior spline second derivatives are n^2 times cardinal ones
        n, p = 8, 3
        basis = gb_basis(n, p, hyperbolic(10.0), "nonnested")
        i = 5
        dd = piecewise_derivative(piecewise_derivative(basis_splines(basis)[i - 1]))
        for x in np.linspace(0.3, 0.7, 11):
            dd_card = mp_cardinal("hyperbolic", 10.0, p, n * x - i + p + 1, r=2)
            assert float(dd(x)) == pytest.approx(n**2 * dd_card, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("coefficients,message", [
        (("x-1/2", "0", "0"), "kappa must be positive on [0, 1]"),
        (("1", "0", "0-1"), "gamma must be non-negative on [0, 1]"),
        (("1e308*10", "0", "0"), "kappa is not finite on the validation grid"),
        (("1", "1e308*10", "0"), "beta is not finite on the validation grid"),
    ], ids=["kappa", "gamma", "kappa-finite", "beta-finite"])
    def test_coefficient_validation(self, coefficients, message):
        # d = 1 keeps the messages of the 1D schema
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            problem_1d(*coefficients)

    @pytest.mark.parametrize("g,message", [
        ("x/2", "geometry map must satisfy G(0)=0 and G(1)=1"),
        ("1-x", "geometry map must satisfy G(0)=0 and G(1)=1"),
        ("2*x^2-x", "geometry map must have G' > 0 on [0, 1]"),
        ("x+1e308*10", "G is not finite on the validation grid"),
    ], ids=["end", "reversed", "decreasing", "finite"])
    def test_geometry_validation(self, g, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            geometry_1d(g)

    def test_given_geometry_derivatives_are_taken_as_given(self):
        # G1 = 1 everywhere is no derivative of G, but it is the one used
        g = exprparse.parse("(x+x^2)/2")
        given = Geometry(1, (g,), ((exprparse.parse("1"),),))
        pts = np.linspace(0.0, 1.0, 5)[:, None]
        assert np.array_equal(given.jacobian_at(pts), np.ones((5, 1, 1)))
        assert np.array_equal(given.hessians_at(pts), np.zeros((5, 1, 1, 1)))
        with pytest.raises(ValidationError, match="^G'' is not finite"):
            Geometry(1, (g,), None, (((exprparse.parse("1e308*10"),),),))

    def test_problem_is_one_type_for_every_d(self):
        with pytest.raises(UsageError, match=r"^only d in \{1, 2, 3\}"):
            Problem(4, ((), (), (), ()), (), exprparse.parse("0"), (), (), (), "nested")


# (kappa, beta, gamma, family, mode, geometry): the three 1D benchmark
# configurations, and one with advection, reaction and a curved geometry
ASSEMBLY_CASES = {
    "hyperbolic-geometry": ("1+x", "0", "0", hyperbolic(10.0), "nonnested",
                            "(x+x^2)/2"),
    "trigonometric-nested": ("1+x", "0", "0", trigonometric(10.0), "nested", "x"),
    "polynomial-advection": ("1", "5", "0", polynomial(), "nonnested", "x"),
    "all-terms-curved": ("1+x^2", "sin(6*x)-1/2", "1+x", hyperbolic(3.0), "nested",
                         "(2*x+x^3)/3"),
}


#: largest distance of the 1D matrix from the dense formula, in units of
#: eps times the sum of the magnitudes of an entry's terms (the advection
#: weight's two terms apart, since their sum can cancel)
ULP_BOUND = 4


def _ulps_off_dense_formula(system, ref) -> float:
    n = system.n
    curvature, advection = map(np.abs, ref.beta_terms)
    terms = (n**2 * np.abs(ref.kappa_hat[:, None] * ref.stiffness)
             + n * (curvature + advection)[:, None] * np.abs(ref.advection)
             + np.abs(ref.gamma_hat[:, None] * ref.mass))
    gap = np.abs(system.full_matrix - ref.full_matrix)
    assert np.all(gap[terms == 0] == 0)
    return float(np.max(gap[terms > 0] / terms[terms > 0])) / np.finfo(float).eps


class TestBandAssembly1D:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_matches_dense_formula(self, case, p):
        # the parts bit for bit; the matrix, which folds the geometry by
        # the chain rule rather than into three coefficients, within ulps
        kappa, beta, gamma, family, mode, g = ASSEMBLY_CASES[case]
        problem = problem_1d(kappa, beta, gamma, family, p, mode)
        geometry = geometry_1d(g)
        for size in BANDED_SIZES:
            basis = gb_basis(_banded_size(size, p, family, mode), p, family, mode)
            system = assemble(problem, geometry, basis)
            ref = dense_assemble_1d(problem, geometry, basis)
            for name in ("stiffness", "advection", "mass"):
                a, b = getattr(system, name), getattr(ref, name)
                assert np.array_equal(a, b), (name, size)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (name, size)
            assert _ulps_off_dense_formula(system, ref) <= ULP_BOUND, size

    @pytest.mark.parametrize("n", [24, 36, 128])
    @pytest.mark.parametrize("case", ["hyperbolic-geometry", "all-terms-curved"])
    def test_curved_assembly_within_ulps_of_dense_formula(self, case, n):
        # the curved benchmark config and the golden all-terms config, at
        # the golden set's n and the benchmark's, none a power of two but 128
        kappa, beta, gamma, family, mode, g = ASSEMBLY_CASES[case]
        p = 3 if case == "hyperbolic-geometry" else 4
        problem = problem_1d(kappa, beta, gamma, family, p, mode)
        geometry, basis = geometry_1d(g), gb_basis(n, p, family, mode)
        system = assemble(problem, geometry, basis)
        ref = dense_assemble_1d(problem, geometry, basis)
        assert _ulps_off_dense_formula(system, ref) <= ULP_BOUND

    def test_holds_one_dense_matrix(self):
        # 1d_hyperbolic_geometry at n = 1024: the full matrix is the one
        # N x N array a system holds, and the scaled matrix the one more
        # that asking for it makes
        cfg = json.loads((CONFIGS / "1d_hyperbolic_geometry.json").read_text())
        problem, geometry, family, mode, p = load_problem_1d(cfg)
        basis = gb_basis(1024, p, family, mode)
        assemble(problem, geometry, gb_basis(64, p, family, mode))  # warm caches
        tracemalloc.start()
        try:
            system = assemble(problem, geometry, basis)
            scaled = system.scaled_matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = scaled.nbytes
        assert scaled.shape == (1025, 1025)
        assert peak <= 2.5 * dense
        held = sum(v.nbytes for v in vars(system).values()
                   if isinstance(v, np.ndarray))
        assert held - dense <= 8 * 8 * system.order * (p + 1)

    def test_parts_are_formed_on_access(self):
        system = make_system(n=12, p=3, family=hyperbolic(10.0))
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2
                       for v in vars(system).values()
                       if v is not system.full_matrix)
        assert system.mass is not system.mass
        assert np.array_equal(system.scaled_matrix, system.full_matrix / 144)


class TestNorms:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_mass_norm_bound(self, p, mode):
        system = make_system(n=16, p=p, family=hyperbolic(5.0), mode=mode)
        norm = np.linalg.norm(system.mass, 2)
        assert norm <= math.sqrt(1.5 * p) + 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_norms_stay_bounded_under_refinement(self, p, mode):
        fam = hyperbolic(5.0)
        sys_a = make_system(n=16, p=p, family=fam, mode=mode)
        sys_b = make_system(n=32, p=p, family=fam, mode=mode)
        for part in ("advection", "stiffness"):
            na = np.linalg.norm(getattr(sys_a, part), 2)
            nb = np.linalg.norm(getattr(sys_b, part), 2)
            assert 0.5 <= nb / na <= 2.0


class TestStructure:
    @pytest.mark.parametrize("case", Q_CASES, ids=ids)
    @pytest.mark.parametrize("p", [2, 3])
    def test_central_structure(self, case, p):
        family, mode = case
        system = make_system(n=24, p=p, family=family, mode=mode)
        rep = structure_report(system)
        assert rep.has_central_rows
        assert rep.central_toeplitz
        assert rep.stiffness_symmetric and rep.mass_symmetric
        assert rep.advection_skew
        assert rep.stiffness_correction_rank <= rep.rank_bound

    def test_central_row_identities(self):
        n, p = 24, 3
        family = hyperbolic(10.0)
        system = make_system(n=n, p=p, family=family, mode="nonnested")
        lo, hi = central_range(n, p)
        cols = np.arange(1, n + p - 1)  # 1-based column indices

        def cardinal(t, r):  # the r-th derivative of phi_p, from mpmath
            return np.array([mp_cardinal(family.tag, family.phase, p, x, r)
                             for x in t])

        for i in range(lo + 1, hi + 1):  # 1-based central rows
            args = (p + 1) / 2 + i - cols
            assert np.max(np.abs(system.stiffness[i - 1] + cardinal(args, 2))) <= 1e-10
            assert np.max(np.abs(system.advection[i - 1] - cardinal(args, 1))) <= 1e-10
            assert np.max(np.abs(system.mass[i - 1] - cardinal(args, 0))) <= 1e-10

    def test_one_cardinal_recursion(self, recursion_runs):
        # f, h and g sample degrees p-2, p and p-1 of one recursion
        system = make_system(n=24, p=4, family=hyperbolic(10.0), mode="nonnested")
        recursion_runs.reset()
        rep = structure_report(system)
        assert recursion_runs == [(1, 4)]
        # the basis's symbols are kept: a repeat report runs no recursion
        assert structure_report(system) == rep
        assert recursion_runs == [(1, 4)]
        assert rep.central_toeplitz
        assert rep.stiffness_correction_rank <= rep.rank_bound

    def test_reads_the_bands_not_the_dense_parts(self, monkeypatch):
        system = make_system(n=40, p=4, family=hyperbolic(10.0))
        rep = structure_report(system)
        monkeypatch.setattr(CollocationSystem, "_dense", None)
        assert structure_report(system) == rep
        assert rep.central_toeplitz and rep.advection_skew
        assert rep.stiffness_correction_rank <= rep.rank_bound

    def test_no_central_rows_reported(self):
        system = make_system(n=3, p=2)
        rep = structure_report(system)
        assert not rep.has_central_rows
        assert rep.stiffness_correction_rank is None

    def test_central_row_condition_boundary(self):
        # at least one central row needs n >= 2p+1-(p mod 2)
        assert central_range(3, 2) is None
        assert central_range(4, 2) is None
        assert central_range(5, 2) is not None
        assert central_range(5, 3) is None
        assert central_range(6, 3) is not None
