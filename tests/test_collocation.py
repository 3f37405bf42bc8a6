import math

import numpy as np
import pytest

from gbspec import cardinal, collocation, sections
from gbspec.cardinal import cardinal_spline
from gbspec.collocation import (CollocationSystem, GeometryMap1D, KnotVector,
                                ProblemCoefficients, assemble, central_range,
                                gb_basis, greville_abscissae,
                                greville_samples, structure_report)
from gbspec.errors import (ConstraintError, NumericalError, UsageError,
                           ValidationError)
from gbspec.sections import (SectionFamily, hyperbolic, piecewise_derivative,
                             polynomial, trigonometric)
from oracles import (dense_assemble_1d, exact_greville_abscissae,
                     full_span_basis, loop_antiderivative, loop_gb_basis,
                     loop_greville_samples, mp_greville_samples,
                     mp_nested_shape_error, reflect_rows)

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
        assert basis.splines[0](0.0) == pytest.approx(1.0, abs=1e-12)
        for s in basis.splines[1:]:
            assert s(0.0) == pytest.approx(0.0, abs=1e-12)
        assert basis.splines[-1](1.0) == pytest.approx(1.0, abs=1e-12)

    def test_partition_of_unity(self, family):
        basis = gb_basis(4, 2, family)
        xs = np.linspace(0.0, 1.0, 200)
        total = sum(s(xs) for s in basis.splines)
        assert np.max(np.abs(total - 1.0)) <= 1e-10
        assert sum(float(s(0.37)) for s in basis.splines) == pytest.approx(1.0)

    def test_local_support(self, family):
        basis = gb_basis(8, 3, family)
        t = basis.knots.knots
        for i, s in enumerate(basis.splines, start=1):
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
            vals = basis.splines[i - 1](xs)
            ref = cs(n * xs - i + p + 1)
            assert np.max(np.abs(vals - ref)) <= 1e-10

    def test_cardinal_identity_example(self):
        # N_{5,2} for n=8 equals phi_2(8x - 2); its own Greville point maps
        # to the center sample 3/4
        basis = gb_basis(8, 2, polynomial())
        x = 5 / 8 - 3 / 16
        assert basis.splines[4](x) == pytest.approx(0.75, abs=1e-13)

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

    def test_series_evaluations_do_not_depend_on_n(self, monkeypatch):
        # one array evaluation for each of the slots u and v, at any n
        calls = []
        inner = sections._series

        def counted(s, k, sigma):
            if isinstance(sigma, np.ndarray):
                calls.append(k)
            return inner(s, k, sigma)

        monkeypatch.setattr(sections, "_series", counted)
        counts = {}
        for n in (24, 32, 36, 256):
            basis = gb_basis(n, 3, hyperbolic(10.0), "nonnested")
            calls.clear()
            greville_samples(basis)
            counts[n] = len(calls)
        assert counts == {24: 2, 32: 2, 36: 2, 256: 2}


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
                               antiderivative=sections.piecewise_antiderivative):
    """gb_basis equals the spline-by-spline oracle bit for bit, or both fail."""
    try:
        splines, normalizers = loop_gb_basis(n, p, family, mode, antiderivative)
    except ZeroDivisionError:
        with pytest.raises(NumericalError):
            gb_basis(n, p, family, mode)
        return
    basis = gb_basis(n, p, family, mode)
    got = basis.splines
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
        for i, s in enumerate(basis.splines, start=1):
            assert s.coeffs.shape[0] <= p + 1
            assert s.support == (t[i - 1], t[i + p])
        mats = greville_samples(basis)[1:]
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
        interior = basis.splines[4:40]
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

    def test_work_does_not_grow_with_n(self, monkeypatch):
        made = []
        init = sections.PiecewiseFn.__post_init__

        def counted(self):
            made.append(self)
            init(self)

        monkeypatch.setattr(sections.PiecewiseFn, "__post_init__", counted)
        counts = {}
        for n in (64, 4096):
            made.clear()
            basis = gb_basis(n, 3, hyperbolic(10.0), "nonnested")
            counts[n] = len(made)
            if n == 64:
                made.clear()
                greville_samples(basis)
                assert made == []
        assert counts[64] == counts[4096]

    @pytest.mark.parametrize("family,p,n", SMALL_PHASE_CASES, ids=repr)
    def test_small_phase_high_degree_basis_matches_mpmath(self, family, p, n):
        # effective phases 1/256 and 1/32 at degrees 7 and 8
        assert mp_nested_shape_error(n, p, family) <= 1e-9

    def test_small_phase_partition_of_unity(self):
        basis = gb_basis(64, 6, hyperbolic(1.0), "nested")
        xs = np.linspace(0.0, 1.0, 1001)
        total = sum(s(xs) for s in basis.splines)
        assert np.max(np.abs(total - 1.0)) <= 1e-10


# n = 48 is the nu = 2 direction of the 2D benchmark configuration
# (trigonometric(2), nested, p = 4) at n = 24
ONE_PASS_SIZES = BANDED_SIZES + (2, 48)


class TestOnePassSampling:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", BANDED_CASES,
                             ids=lambda c: f"{c[0].tag}{c[0].phase or ''}-{c[1]}")
    def test_bit_identical_to_loop_sampler(self, case, p):
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        for size in ONE_PASS_SIZES:
            n = _banded_size(size, p, family, mode)
            if n < smallest:
                continue
            basis = gb_basis(n, p, family, mode)
            got = greville_samples(basis)
            ref = reflect_rows(loop_greville_samples(basis))
            for name, a, b in zip(("xi", "value", "first", "second"), got, ref):
                assert np.array_equal(a, b), (name, n)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (name, n)

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
    def test_exactly_reflection_symmetric(self, case, p):
        family, mode = case
        smallest = _banded_size("smallest", p, family, mode)
        # m = n+p-2 rows: both parities, below and above n = 2p+2
        for n in (smallest, smallest + 1, 2 * p + 2, 2 * p + 3):
            _, *mats = greville_samples(gb_basis(n, p, family, mode))
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
            got = greville_samples(basis)[1:]
            every_row = loop_greville_samples(basis)[1:]
            for r, (a, b, ref) in enumerate(zip(got, every_row, exact)):
                ulp = np.finfo(float).eps * np.max(np.abs(ref))
                assert (np.max(np.abs(a - ref))
                        <= np.max(np.abs(b - ref)) + 4 * ulp), (n, r)


def make_system(n=8, p=2, family=polynomial(), mode="nonnested",
                kappa="1", beta="0", gamma="0",
                geometry=None) -> CollocationSystem:
    problem = ProblemCoefficients.from_strings(kappa, beta, gamma)
    geo = geometry or GeometryMap1D.identity()
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
        system = make_system(n=8, p=3, kappa="1+x", beta="sin(x)", gamma="x^2")
        n = system.n
        recon = (n**2 * np.diag(system.kappa_hat) @ system.stiffness
                 + n * np.diag(system.beta_hat) @ system.advection
                 + np.diag(system.gamma_hat) @ system.mass)
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
        inner = basis.splines[1:-1]
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
        geo = GeometryMap1D.from_strings("(x+x^2)/2")
        via_map = make_system(n=8, p=3, geometry=geo)
        transformed = ProblemCoefficients.from_strings(
            kappa="1/((1/2+x)^2)", beta="1/((1/2+x)^3)", gamma="0")
        direct = assemble(transformed, GeometryMap1D.identity(),
                          gb_basis(8, 3, polynomial()))
        assert np.max(np.abs(via_map.full_matrix - direct.full_matrix)) <= 1e-9

    def test_interior_second_derivative_scaling(self):
        # interior spline second derivatives are n^2 times cardinal ones
        n, p = 8, 3
        basis = gb_basis(n, p, hyperbolic(10.0), "nonnested")
        cs = cardinal_spline(hyperbolic(10.0), p)
        dd_card = piecewise_derivative(piecewise_derivative(cs.pw))
        i = 5
        dd = piecewise_derivative(piecewise_derivative(basis.splines[i - 1]))
        for x in np.linspace(0.3, 0.7, 11):
            assert float(dd(x)) == pytest.approx(
                n**2 * float(dd_card(n * x - i + p + 1)), rel=1e-9, abs=1e-6)

    def test_coefficient_validation(self):
        with pytest.raises(ValidationError):
            ProblemCoefficients.from_strings(kappa="x-1/2")
        with pytest.raises(ValidationError):
            ProblemCoefficients.from_strings(gamma="0-1")

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            GeometryMap1D.from_strings("x/2")  # G(1) != 1
        with pytest.raises(ValidationError):
            GeometryMap1D.from_strings("1-x")  # decreasing


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


class TestBandAssembly1D:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_bit_identical_to_dense_formula(self, case, p):
        kappa, beta, gamma, family, mode, g = ASSEMBLY_CASES[case]
        problem = ProblemCoefficients.from_strings(kappa, beta, gamma)
        geometry = GeometryMap1D.from_strings(g)
        for size in BANDED_SIZES:
            basis = gb_basis(_banded_size(size, p, family, mode), p, family, mode)
            system = assemble(problem, geometry, basis)
            ref = dense_assemble_1d(problem, geometry, basis)
            for name in ("full_matrix", "scaled_matrix", "stiffness", "advection",
                         "mass", "kappa_hat", "beta_hat", "gamma_hat"):
                a, b = getattr(system, name), getattr(ref, name)
                assert np.array_equal(a, b), (name, size)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (name, size)


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
        cs = cardinal_spline(family, p)
        d1 = piecewise_derivative(cs.pw)
        d2 = piecewise_derivative(d1)
        lo, hi = central_range(n, p)
        cols = np.arange(1, n + p - 1)  # 1-based column indices
        for i in range(lo + 1, hi + 1):  # 1-based central rows
            args = (p + 1) / 2 + i - cols
            assert np.max(np.abs(system.stiffness[i - 1] + d2(args))) <= 1e-10
            assert np.max(np.abs(system.advection[i - 1] - d1(args))) <= 1e-10
            assert np.max(np.abs(system.mass[i - 1] - cs(args))) <= 1e-10

    def test_one_cardinal_recursion(self, monkeypatch):
        # f, h and g sample degrees p-2, p and p-1 of one recursion
        built = []
        inner = cardinal._build

        def counted(rep, wanted):
            built.append(max(wanted))
            return inner(rep, wanted)

        system = make_system(n=24, p=4, family=hyperbolic(10.0), mode="nonnested")
        monkeypatch.setattr(cardinal, "_build", counted)
        rep = structure_report(system)
        assert built == [4]
        assert rep.central_toeplitz
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
