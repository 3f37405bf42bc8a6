import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from gbspec import cli, exprparse
from gbspec.collocation import Geometry, Problem, assemble, gb_basis
from gbspec.errors import NumericalError, UsageError
from gbspec.multidim import (DirectionSymbols, assemble_md, md_symbol_samples,
                             problem_sampler)
from gbspec.sections import hyperbolic, polynomial, trigonometric
from gbspec import spectral
from gbspec.spectral import (DistributionReport, SymbolDraw, ToeplitzSpec,
                             _hermitian_residual, _reflection_sizes,
                             eigenvalues_dense, product_symbol_sampler,
                             symbol_moments, toeplitz, toeplitz_eigenvalues,
                             weyl_report)
from gbspec.symbols import symbol_fn, symbol_max

from oracles import (former_md_quantiles, mp_product_moments, problem_1d,
                     mp_tridiagonal_toeplitz_eigenvalues, outer_index_toeplitz,
                     reference_discrepancy, richardson_md_moments,
                     toeplitz_tensor)


def spec_of(kind, p, family=polynomial()) -> ToeplitzSpec:
    return ToeplitzSpec(symbol_fn(kind, p, family).toeplitz_coefficients())


class TestToeplitz:
    def test_tridiagonal_from_f2(self):
        t = toeplitz(spec_of("f", 2), 3)
        assert np.allclose(t, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])

    def test_degree_one_value_symbol_gives_identity(self):
        t = toeplitz(spec_of("h", 1), 5)
        assert np.allclose(t, np.eye(5))

    @pytest.mark.parametrize("kind, p, family", [
        ("h", 5, hyperbolic(10.0)), ("f", 7, polynomial()),
        ("g", 5, hyperbolic(3.0)), ("g", 2, polynomial())], ids=str)
    def test_same_matrix_as_the_outer_index_build(self, kind, p, family):
        spec = spec_of(kind, p, family)
        b = spec.bandwidth
        assert np.iscomplexobj(spec.coefficients) == (kind == "g")
        # a zero coefficient of either sign, which must keep its sign
        signed = spec.coefficients.copy()
        signed[0] = -0.0
        for spec in (spec, ToeplitzSpec(signed)):
            for m in sorted({1, max(1, b - 1), b, b + 1, 1024}):
                t = toeplitz(spec, m)
                ref = outer_index_toeplitz(spec, m)
                assert t.dtype == ref.dtype and t.flags.c_contiguous
                assert np.array_equal(t, ref), m
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(t)),
                                          np.signbit(part(ref))), m

    def test_hermitian_detection(self):
        assert spec_of("f", 4).is_hermitian
        assert spec_of("g", 4).is_hermitian  # imaginary antisymmetric coeffs

    def test_analytic_tridiagonal_eigenvalues(self):
        eigs = np.sort(eigenvalues_dense(toeplitz(spec_of("f", 2), 3)).real)
        ref = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        assert np.allclose(eigs, ref, atol=1e-12)


class TestTensor:
    def test_identity_factor(self):
        t = toeplitz_tensor(spec_of("h", 1), spec_of("h", 1), 4, 3)
        assert np.allclose(t, np.eye(12))

    def test_matches_kronecker(self):
        cf, ch = spec_of("f", 2), spec_of("h", 2)
        t = toeplitz_tensor(cf, ch, 3, 3)
        ref = np.kron(toeplitz(cf, 3), toeplitz(ch, 3))
        assert np.array_equal(t, ref)

    def test_hermitian_product(self):
        t = toeplitz_tensor(spec_of("f", 3), spec_of("h", 3), 4, 4)
        assert np.allclose(t, t.T.conj(), atol=0.0)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues_dense(np.eye(10)), np.ones(10))

    def test_rotation_generator(self):
        eigs = np.sort_complex(eigenvalues_dense(np.array([[0.0, 1.0],
                                                           [-1.0, 0.0]])))
        assert np.allclose(eigs, [-1j, 1j])

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_ORDER_CAP", 5)
        with pytest.raises(UsageError, match="^order 10 exceeds cap 5$"):
            eigenvalues_dense(np.eye(10))

    def test_non_square(self):
        with pytest.raises(UsageError):
            eigenvalues_dense(np.ones((2, 3)))

    def test_empty(self):
        with pytest.raises(UsageError, match="^matrix must not be empty$"):
            eigenvalues_dense(np.ones((0, 0)))

    def test_analytic_family_accuracy(self):
        m = 100
        t = toeplitz(spec_of("f", 2), m)
        eigs = np.sort(eigenvalues_dense(t).real)
        ref = np.sort(2 - 2 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1)))
        assert np.max(np.abs(eigs - ref)) <= 1e-9 * np.linalg.norm(t, 2)

    def test_backward_error_on_random_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((50, 50))
        a = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(a)
        ours = np.sort(eigenvalues_dense(a).real)
        assert np.allclose(ours, vals, atol=1e-12)
        norm = np.linalg.norm(a, 2)
        for k in rng.integers(0, 50, 10):
            residual = np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k])
            assert residual <= 1e-8 * norm

    def test_spectrum_within_symbol_range(self):
        for p in (2, 3, 4):
            h = symbol_fn("h", p, hyperbolic(10.0))
            grid = h(np.linspace(-math.pi, math.pi, 4096))
            eigs = eigenvalues_dense(
                toeplitz(spec_of("h", p, hyperbolic(10.0)), 60)).real
            assert eigs.min() >= grid.min() - 1e-9
            assert eigs.max() <= grid.max() + 1e-9


#: small, moderate and the largest supported hyperbolic phases, and
#: trigonometric phases up to near pi, where h comes close to 0
TAU_FAMILIES = [polynomial(), hyperbolic(0.1), hyperbolic(10.0), hyperbolic(76.0),
                trigonometric(1.5), trigonometric(3.0)]
#: odd orders hold a middle eigenvalue, exactly 0 for g
TAU_ORDERS = (1, 2, 3, 8, 64, 301)


class TestTauEigenvalues:
    """toeplitz_eigenvalues: the tau closed form at bandwidth <= 1."""

    @pytest.mark.parametrize("family", TAU_FAMILIES, ids=repr)
    @pytest.mark.parametrize("kind", ["h", "g", "f"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_against_the_40_digit_closed_form_and_the_dense_solve(self, p, kind,
                                                                  family):
        spec = spec_of(kind, p, family)
        c = spec.coefficients
        assert spec.bandwidth == 1 and spec.is_hermitian
        scale = abs(c[1]) + 2 * abs(c[2])
        for m in TAU_ORDERS:
            got = toeplitz_eigenvalues(spec, m)
            assert got.dtype == complex and got.shape == (m,)
            assert np.array_equal(got.imag, np.zeros(m))
            assert not np.signbit(got.imag).any()
            re = got.real
            assert np.all(np.diff(re) >= 0), m
            for value, want in zip(re, mp_tridiagonal_toeplitz_eigenvalues(c, m)):
                if want == 0:
                    assert value == 0 and not np.signbit(value), m
                else:
                    assert abs(mp.mpf(value) - want) <= 2e-15 * abs(want), (m, value)
            lapack = np.linalg.eigvalsh(toeplitz(spec, m))
            assert np.max(np.abs(re - lapack)) <= 1e-13 * scale, m
            # the dense matrix is recognised, and gets the same bits
            assert np.array_equal(eigenvalues_dense(toeplitz(spec, m)).view(np.uint64),
                                  got.view(np.uint64)), m
        # the one eigenvalue of order 1 is c0 itself
        assert toeplitz_eigenvalues(spec, 1)[0] == c[1]

    def test_bandwidth_zero(self):
        assert np.array_equal(toeplitz_eigenvalues(ToeplitzSpec([2.5]), 4),
                              np.full(4, 2.5 + 0j))

    def test_negative_diagonal(self):
        # c0 < 0: the upper end, where the symbol is near 0, takes the
        # cancellation-free form
        spec = ToeplitzSpec(-spec_of("f", 3, hyperbolic(10.0)).coefficients)
        c = spec.coefficients
        for m in (1, 2, 8, 301):
            got = toeplitz_eigenvalues(spec, m).real
            assert np.all(np.diff(got) >= 0)
            for value, want in zip(got, mp_tridiagonal_toeplitz_eigenvalues(c, m)):
                assert abs(mp.mpf(value) - want) <= 2e-15 * abs(want), (m, value)

    @pytest.mark.parametrize("coefficients", [[1.0, 2.0, 3.0],
                                              [1.0, 4.0, 2.0, 3.0, 1.0]],
                             ids=["non-hermitian", "bandwidth-2"])
    def test_other_matrices_are_solved_dense(self, coefficients):
        spec = ToeplitzSpec(np.array(coefficients))
        for m in (1, 5, 12):
            assert np.array_equal(toeplitz_eigenvalues(spec, m),
                                  eigenvalues_dense(toeplitz(spec, m)))

    def test_dense_tau_matrix_is_not_solved(self, monkeypatch):
        used = _spy_solvers(monkeypatch)
        for m in (1, 2, 50):
            eigenvalues_dense(toeplitz(spec_of("g", 3, hyperbolic(10.0)), m))
            eigenvalues_dense(np.eye(m))
        assert used == []

    @pytest.mark.parametrize("entry", [(0, 0), (9, 8), (0, 2), (19, 0)])
    def test_one_changed_entry_is_solved(self, monkeypatch, entry):
        # a changed diagonal entry, a changed off-diagonal one, and a nonzero
        # beyond the band, at the first and the last row
        a = toeplitz(spec_of("f", 2, hyperbolic(10.0)), 20)
        a[entry] = np.nextafter(a[entry], np.inf)
        a[entry[::-1]] = a[entry]  # still symmetric
        used = _spy_solvers(monkeypatch)
        got = eigenvalues_dense(a)
        assert used and all(name == "eigvalsh" for name, _ in used)
        assert np.max(np.abs(got.real - np.linalg.eigvalsh(a))) <= 1e-13

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_coefficients_are_refused(self, value):
        # both go to the dense path, which refuses them before any
        # arithmetic on them (a RuntimeWarning fails the test)
        spec = ToeplitzSpec(np.array([-1.0, value, -1.0]))
        with pytest.raises(NumericalError, match="infs or NaNs"):
            toeplitz_eigenvalues(spec, 5)
        with pytest.raises(NumericalError, match="infs or NaNs"):
            eigenvalues_dense(toeplitz(spec, 5))

    def test_refusals(self, monkeypatch):
        spec = spec_of("f", 2)
        with pytest.raises(UsageError, match="^order must be >= 1$"):
            toeplitz_eigenvalues(spec, 0)
        monkeypatch.setattr(spectral, "DEFAULT_ORDER_CAP", 5)
        with pytest.raises(UsageError, match="^order 6 exceeds cap 5$"):
            toeplitz_eigenvalues(spec, 6)


def _spy_solvers(monkeypatch) -> list:
    """Record (solver name, order) of every np.linalg eigenvalue call."""
    used = []
    for name in ("eigvalsh", "eigvals"):
        solver = getattr(np.linalg, name)

        def spy(a, solver=solver, name=name):
            used.append((name, a.shape[0]))
            return solver(a)

        monkeypatch.setattr(np.linalg, name, spy)
    return used


def _former_symmetry_test(a):
    """The whole-matrix expressions the blocked symmetry test replaces."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    return np.max(np.abs(a - a.conj().T)), scale


class TestSymmetryTest:
    @pytest.mark.parametrize("entries", [1, 700, 2**17])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_same_maxima_as_whole_matrix(self, monkeypatch, entries, dtype):
        monkeypatch.setattr(spectral, "_RESIDUAL_ENTRIES", entries)
        rng = np.random.default_rng(11)
        for size in (1, 6, 7, 8, 50, 300):
            a = rng.standard_normal((size, size)).astype(dtype)
            if dtype is complex:
                a += 1j * rng.standard_normal((size, size))
            for mat in (a, a + a.conj().T):
                assert _hermitian_residual(mat) == _former_symmetry_test(mat)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_works_in_one_small_buffer(self, dtype):
        a = np.ones((1000, 1000), dtype=dtype)
        _hermitian_residual(a[:10, :10])  # warm caches outside the trace
        tracemalloc.start()
        try:
            _hermitian_residual(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers = spectral._RESIDUAL_ENTRIES * (24 if dtype is complex else 8)
        assert peak <= 1.1 * buffers

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_is_refused(self, value):
        # in the third row block, and with no RuntimeWarning
        a = np.eye(600)
        assert 2 * (spectral._RESIDUAL_ENTRIES // 600) <= 500
        a[500, 3] = a[3, 500] = value
        with pytest.raises(NumericalError, match="infs or NaNs"):
            _hermitian_residual(a)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_solver_choice_at_the_threshold(self, monkeypatch, dtype):
        # one off-diagonal pair in the second block differs by exactly d;
        # the symmetric solver is taken iff d <= 1e-13 * max(scale, 1)
        size = 600
        rng = np.random.default_rng(3)
        m = rng.standard_normal((size, size))
        base = ((m + m.T) / 2).astype(dtype)
        base[0, 0] = 3.0
        base[400, 17] = base[17, 400] = 0.0
        scale = np.max(np.abs(base))
        threshold = 1e-13 * max(scale, 1.0)
        used = _spy_solvers(monkeypatch)
        for d, expected in ((np.nextafter(threshold, 0.0), "eigvalsh"),
                            (threshold, "eigvalsh"),
                            (np.nextafter(threshold, 1.0), "eigvals")):
            a = base.copy()
            a[400, 17] = d
            residual, former_scale = _former_symmetry_test(a)
            assert residual == d and former_scale == scale
            assert _hermitian_residual(a) == (residual, former_scale)
            used.clear()
            eigenvalues_dense(a)
            assert used == [(expected, size)], d


def _invariant_matrix(shape, flipped, kind, seed=0):
    """Random matrix on the tensor index ``shape`` (last index fastest).

    It is made exactly invariant under reversing each direction in
    ``flipped``, and made symmetric or Hermitian for those kinds.
    """
    rng = np.random.default_rng(seed)
    order = math.prod(shape)
    a = rng.standard_normal((order, order))
    if kind == "hermitian":
        a = a + 1j * rng.standard_normal((order, order))
    t = a.reshape(shape * 2)
    for k in flipped:
        # t + flip(t) is unchanged by the flip: addition commutes
        t = t + np.flip(t, axis=(k, k + len(shape)))
    a = t.reshape(order, order)
    return a + a.conj().T if kind in ("symmetric", "hermitian") else a


def _matched_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest distance when each reference eigenvalue takes its nearest unused one."""
    left = list(got)
    worst = 0.0
    for z in ref:
        k = int(np.argmin(np.abs(np.array(left) - z)))
        worst = max(worst, abs(left.pop(k) - z))
    return worst


# (tensor shape, reversed directions, block sizes found): odd and even
# radices; a reversal of a leading direction alone is no block reversal
SPLIT_CASES = [
    ((7,), (0,), [7]),
    ((8,), (0,), [8]),
    ((3, 4), (0, 1), [4, 12]),
    ((5, 6), (1,), [6]),
    ((4, 5), (0,), []),
    ((3, 4, 5), (0, 1, 2), [5, 20, 60]),
    ((2, 3, 3), (1, 2), [3, 9]),
    ((5, 3, 4), (2,), [4]),
]


class TestParitySplit:
    @pytest.mark.parametrize("kind", ["general", "symmetric", "hermitian"])
    @pytest.mark.parametrize("case", SPLIT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_same_eigenvalues_as_one_solve(self, monkeypatch, case, kind):
        shape, flipped, sizes = case
        a = _invariant_matrix(shape, flipped, kind)
        assert _reflection_sizes(a) == sizes
        ref = np.linalg.eigvals(a)
        used = _spy_solvers(monkeypatch)
        got = eigenvalues_dense(a)
        assert got.shape == ref.shape
        assert _matched_error(got, ref) <= 1e-12 * np.max(np.abs(ref))
        solver = "eigvals" if kind == "general" else "eigvalsh"
        assert [name for name, _ in used] == [solver] * 2 ** len(sizes)
        assert sum(order for _, order in used) == a.shape[0]
        if kind != "general":
            assert np.array_equal(got, np.sort(got.real))

    @pytest.mark.parametrize("kind", ["general", "symmetric", "hermitian"])
    def test_no_symmetry_is_one_unchanged_solve(self, kind):
        a = _invariant_matrix((6, 5), (), kind)
        assert _reflection_sizes(a) == []
        if kind == "general":
            ref = np.asarray(np.linalg.eigvals(a), dtype=complex)
        else:
            ref = np.linalg.eigvalsh(a).astype(complex)
        got = eigenvalues_dense(a)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))

    @pytest.mark.parametrize("order", [1, 2, 37])
    @pytest.mark.parametrize("kind", ["real general", "real symmetric",
                                      "complex hermitian", "complex general"])
    def test_no_symmetry_gives_the_bits_of_the_direct_call(self, kind, order):
        rng = np.random.default_rng(order)
        a = rng.standard_normal((order, order))
        if kind.startswith("complex"):
            a = a + 1j * rng.standard_normal((order, order))
        if kind.endswith(("symmetric", "hermitian")):
            a = a + a.conj().T
        assert _reflection_sizes(a) == []
        # the former direct calls of eigenvalues_dense
        if kind.endswith("general"):
            ref = np.asarray(np.linalg.eigvals(a), dtype=complex)
        else:
            ref = np.linalg.eigvalsh(a).astype(complex)
        got = eigenvalues_dense(a)
        assert got.dtype == ref.dtype
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    # every reversal of these cases moves both entries, so the image keeps
    # the old value; row 0 is checked first on its own, row 1 only with
    # the whole matrix
    @pytest.mark.parametrize("entry", [(0, 1), (1, 2)])
    @pytest.mark.parametrize("case", SPLIT_CASES[:4], ids=lambda c: str(c[0]))
    def test_one_ulp_turns_the_split_off(self, monkeypatch, case, entry):
        shape, flipped, _ = case
        a = _invariant_matrix(shape, flipped, "general")
        a[entry] = np.nextafter(a[entry], np.inf)
        assert _reflection_sizes(a) == []
        used = _spy_solvers(monkeypatch)
        eigenvalues_dense(a)
        assert used == [("eigvals", a.shape[0])]

    def test_blocks_are_built_only_when_solved(self):
        k3 = tuple(tuple(exprparse.parse("1" if i == j else "0")
                         for j in range(3)) for i in range(3))
        zero = exprparse.parse("0")
        problem = Problem(d=3, diffusion=k3, advection=(zero,) * 3,
                            gamma=zero, families=(hyperbolic(10.0),) * 3,
                            degrees=(3, 3, 3), nu=(1, 1, 1), mode="nonnested")
        a = assemble_md(problem, Geometry.identity(3), 10) / 100
        assert _reflection_sizes(a) == [11, 121, 1331]
        eigenvalues_dense(a[:11, :11])  # warm caches outside the trace
        tracemalloc.start()
        try:
            eigenvalues_dense(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 726, 396 and 216 rows at the three levels of the first blocks: no
        # two blocks of one split are held at once
        assert peak <= 0.5 * a.nbytes


def _draw(values):
    """Sampler whose quantiles are ``values(count)``, with their own moments."""
    def sample(count):
        q = np.asarray(values(count), dtype=float)
        return SymbolDraw(q, tuple(float(np.mean(q**r)) for r in range(1, 5)))
    return sample


class TestWeylReport:
    def test_identical_inputs_give_zero(self):
        vals = np.linspace(0.0, 4.0, 30)
        rep = weyl_report(vals.astype(complex),
                          _draw(lambda m: np.linspace(0.0, 4.0, m)))
        assert rep.mean_abs_discrepancy == pytest.approx(0.0, abs=1e-14)
        assert rep.moment_errors[0] <= 1e-13

    def test_toeplitz_versus_exact_samples(self):
        t = toeplitz(spec_of("f", 2), 128)
        eigs = eigenvalues_dense(t)
        rep = weyl_report(
            eigs, _draw(lambda m: np.sort(2 - 2 * np.cos(np.arange(1, m + 1)
                                                         * math.pi / (m + 1)))))
        assert rep.mean_abs_discrepancy <= 0.05
        assert rep.max_imag == 0.0

    def test_sampler_size_mismatch(self):
        with pytest.raises(UsageError):
            weyl_report(np.ones(4), _draw(lambda m: np.zeros(m + 1)))

    def test_moment_count_mismatch(self):
        with pytest.raises(UsageError):
            weyl_report(np.ones(4), lambda m: SymbolDraw(np.ones(m), (1.0,) * 3))

    def test_sampler_called_once(self):
        counts = []
        sampler = _draw(lambda m: counts.append(m) or np.ones(m))
        weyl_report(np.ones(5, dtype=complex), sampler, [0.5])
        assert counts == [5]

    def test_moment_errors_against_the_draw(self):
        eigs = np.array([1.0, 2.0, 3.0], dtype=complex)
        rep = weyl_report(eigs, lambda m: SymbolDraw(np.ones(m), (2.5, 4.0, 9.0, 0.0)))
        assert rep.moment_errors == pytest.approx((0.5, 2 / 3, 3.0, 98 / 3),
                                                  rel=1e-15)

    def test_outliers_monotone_in_eps(self):
        eigs = np.array([0.0, 1.0, 5.0, -3.0], dtype=complex)
        rep = weyl_report(eigs, _draw(lambda m: np.linspace(0.0, 1.0, m)),
                          eps_values=[0.1, 2.0, 10.0])
        counts = [rep.outliers[e] for e in (0.1, 2.0, 10.0)]
        assert counts == sorted(counts, reverse=True)

    def test_report_serializes(self):
        rep = weyl_report(np.ones(3, dtype=complex),
                          _draw(lambda m: np.ones(m)), [0.5])
        payload = rep.to_dict()
        assert isinstance(rep, DistributionReport)
        assert payload["order"] == 3
        assert "0.5" in payload["outliers"]


class TestDistributionScenario:
    """Scaled collocation spectra approach kappa (x) f_p(theta)."""

    @staticmethod
    def discrepancy(n, kappa="1"):
        family = hyperbolic(10.0)
        basis = gb_basis(n, 3, family, "nonnested")
        system = assemble(problem_1d(kappa), Geometry.identity(1), basis)
        eigs = eigenvalues_dense(system.scaled_matrix)
        sym = symbol_fn("f", 3, family)
        kap = (lambda xs: np.ones_like(xs)) if kappa == "1" else (lambda xs: 1 + xs)
        return weyl_report(eigs, product_symbol_sampler(kap, sym),
                           [0.1 * symbol_max(sym)])

    def test_discrepancy_decreases(self):
        assert (self.discrepancy(64).mean_abs_discrepancy
                > self.discrepancy(128).mean_abs_discrepancy)

    def test_outliers_do_not_grow(self):
        rep_a = self.discrepancy(64)
        rep_b = self.discrepancy(128)
        (eps_a,) = rep_a.outliers
        (eps_b,) = rep_b.outliers
        assert rep_b.outliers[eps_b] <= rep_a.outliers[eps_a]


# the distribution configurations of the benchmark, by name
CONFIGS = {
    "1d_hyperbolic_geometry": {
        "d": 1, "kappa": "1+x", "beta": "0", "gamma": "0",
        "family": "hyperbolic", "alpha": 10.0, "mode": "nonnested", "p": 3,
        "geometry": {"G": "(x+x^2)/2", "G1": None, "G2": None}},
    "1d_trigonometric_nested": {
        "d": 1, "kappa": "1+x", "beta": "0", "gamma": "0",
        "family": "trigonometric", "alpha": 10.0, "mode": "nested", "p": 4},
    "1d_polynomial_advection": {
        "d": 1, "kappa": "1", "beta": "5", "gamma": "0",
        "family": "polynomial", "mode": "nonnested", "p": 5},
    "2d_hyperbolic_curved": {
        "d": 2, "K": [["1+x1", "0"], ["0", "1+x2"]], "beta": ["1", "0"],
        "gamma": "0", "nu": [1, 1], "p": [3, 3],
        "family": ["hyperbolic", "hyperbolic"], "alpha": [10.0, 10.0],
        "mode": "nonnested",
        "geometry": {"G": ["x1+0.2*x1*(1-x1)*x2", "x2"]}},
    "2d_polynomial_trigonometric": {
        "d": 2, "K": [["1", "0"], ["0", "1"]], "beta": ["0", "0"],
        "gamma": "0", "nu": [1, 2], "p": [2, 4],
        "family": ["polynomial", "trigonometric"], "alpha": [None, 2.0],
        "mode": "nested"},
    "3d_hyperbolic": {
        "d": 3, "K": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "beta": ["0", "0", "0"], "gamma": "0", "nu": [1, 1, 1],
        "p": [3, 3, 3], "family": ["hyperbolic"] * 3, "alpha": [10.0] * 3,
        "mode": "nonnested"},
}
CONFIGS_1D = [name for name, cfg in CONFIGS.items() if cfg["d"] == 1]
CONFIGS_MD = [name for name, cfg in CONFIGS.items() if cfg["d"] > 1]
#: Romberg levels of the midpoint reference, by dimension
RICHARDSON_LEVELS = {2: (8, 16, 32, 64, 128), 3: (4, 8)}


def _distribution_runs(tmp_path, name, ns) -> list[dict]:
    """The ``runs`` of the CLI distribution report of ``CONFIGS[name]``."""
    path, out = tmp_path / f"{name}.json", tmp_path / "report.json"
    path.write_text(json.dumps(CONFIGS[name]))
    command = "distribution" if CONFIGS[name]["d"] == 1 else "distribution-md"
    assert cli.main([command, "--config", str(path), "--n",
                     ",".join(map(str, ns)), "--out", str(out)]) == 0
    return json.loads(out.read_text())["runs"]


def _sampler_1d(name):
    problem, geometry, family, mode, p = cli.load_problem_1d(CONFIGS[name])
    coefficient = cli._coefficient_sampler(problem, geometry)
    sym = cli._distribution_symbol(family, mode, p)
    return coefficient, sym, product_symbol_sampler(coefficient, sym)


def _problem_md(name):
    problem, geometry = cli.load_problem_md(CONFIGS[name])
    return problem, geometry, DirectionSymbols(problem.degrees, problem.families,
                                               problem.mode)


class TestSymbolMoments:
    """The samplers' quadrature moments and their unchanged quantiles."""

    @pytest.mark.parametrize("name", CONFIGS_1D)
    def test_1d_moments_match_mpmath(self, name):
        coefficient, sym, sampler = _sampler_1d(name)
        got = sampler(50).moments
        assert got == pytest.approx(mp_product_moments(coefficient, sym), rel=1e-12)

    @pytest.mark.parametrize("name", CONFIGS_1D)
    @pytest.mark.parametrize("count", [1, 129, 257])
    def test_1d_adapters_draw_the_one_sampler(self, name, count):
        # the separable 1D sampler, over the adapters the benchmark's trace
        # calls, draws what the one sampler of every d draws, bit for bit
        problem, geometry = cli.load_problem_1d(CONFIGS[name])[:2]
        got = _sampler_1d(name)[2](count)
        want = problem_sampler(problem, geometry)(count)
        assert np.array_equal(got.quantiles, want.quantiles)
        assert got.moments == want.moments

    @pytest.mark.parametrize("name", CONFIGS_MD)
    def test_md_moments_match_richardson(self, name):
        problem, geometry, symbols = _problem_md(name)
        got = md_symbol_samples(problem, geometry, 50, symbols).moments
        want = richardson_md_moments(problem, geometry, symbols,
                                     RICHARDSON_LEVELS[problem.d])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name,n", [("1d_hyperbolic_geometry", 128),
                                        ("1d_hyperbolic_geometry", 256),
                                        ("1d_trigonometric_nested", 128)])
    def test_1d_discrepancy_matches_a_finer_lattice(self, tmp_path, name, n):
        problem, geometry, family, mode, p = cli.load_problem_1d(CONFIGS[name])
        (printed,) = _distribution_runs(tmp_path, name, [n])
        eigs = eigenvalues_dense(
            assemble(problem, geometry, gb_basis(n, p, family, mode)).scaled_matrix)

        def coefficient(xs):
            g = exprparse.evaluate(geometry.components[0], {"x": xs, "x1": xs})
            g1 = exprparse.evaluate(geometry.jacobian[0][0], {"x": xs, "x1": xs})
            return exprparse.evaluate(problem.diffusion[0][0], {"x": g}) / g1**2

        want = reference_discrepancy(
            eigs, coefficient, cli._distribution_symbol(family, mode, p).coefficients)
        assert printed["mean_abs_discrepancy"] == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 129, 257])
    def test_lattice_is_the_least_side_with_the_oversample(self, monkeypatch, d, count):
        pools = []
        original = spectral._order_statistics
        monkeypatch.setattr(spectral, "_order_statistics",
                            lambda v, m: pools.append(v.size) or original(v, m))
        sampler = spectral.symbol_sampler(lambda x: np.ones((x.shape[0], 1)),
                                          lambda t: np.ones((1, t.shape[0])), [0] * d)
        assert sampler(count).quantiles.size == count
        side = round(pools[0] ** (1.0 / (2 * d)))
        assert side ** (2 * d) == pools[0]
        assert side ** (2 * d) >= spectral.LATTICE_OVERSAMPLE * count
        assert side == 4 or (side - 1) ** (2 * d) < spectral.LATTICE_OVERSAMPLE * count

    def test_1d_quantiles_of_a_cosine_are_two_sided(self):
        # count 64 gives an even side, 46, so the midpoint lattice over
        # [-pi, pi] holds theta with pi - theta and the quantiles of
        # 2 - 2 cos(theta) are symmetric about 2; the one-sided grid on
        # (0, pi] held pi but not 0 and was not
        count, side = 64, 46
        sampler = spectral.symbol_sampler(lambda x: np.ones((x.shape[0], 1)),
                                          lambda t: 2.0 - 2.0 * np.cos(t[:, 0])[None, :],
                                          [1])
        got = sampler(count).quantiles
        assert np.max(np.abs(got + got[::-1] - 4.0)) <= 1e-12
        # within one lattice step, of slope at most 2, of the exact quantiles
        want = 2.0 - 2.0 * np.cos(math.pi * (np.arange(count) + 0.5) / count)
        assert np.max(np.abs(got - want)) <= 2.0 * 2.0 * math.pi / side

    def test_sampler_count_below_one_is_refused(self):
        sampler = spectral.symbol_sampler(lambda x: np.ones((x.shape[0], 1)),
                                          lambda t: np.ones((1, t.shape[0])), [0])
        with pytest.raises(UsageError, match="sample count"):
            sampler(0)

    @pytest.mark.parametrize("name", CONFIGS_MD)
    @pytest.mark.parametrize("count", [1, 625, 1331])
    def test_md_quantiles_are_the_former_lattice(self, name, count):
        problem, geometry, symbols = _problem_md(name)
        want = former_md_quantiles(problem, geometry, count, symbols)
        got = md_symbol_samples(problem, geometry, count, symbols).quantiles
        assert np.array_equal(got, want)

    def test_1d_moments_computed_once_for_every_count(self, monkeypatch):
        calls = []
        original = spectral.symbol_moments
        monkeypatch.setattr(spectral, "symbol_moments",
                            lambda *a: calls.append(1) or original(*a))
        _, _, sampler = _sampler_1d("1d_hyperbolic_geometry")
        assert sampler(10).moments == sampler(20).moments
        assert len(calls) == 1

    def test_theta_rule_exact_for_the_fourth_power(self):
        # cos(b theta)**4 has mean 3/8; 4b points alias cos(4 b theta) to 1
        for b in (1, 2, 5):
            got = symbol_moments(lambda x: np.ones((x.shape[0], 1)),
                                 lambda t: np.cos(b * t[:, 0])[None, :], [b])
            assert got == pytest.approx((0.0, 0.5, 0.0, 3 / 8), abs=1e-15)

    def test_unsettled_moment_is_refused(self, monkeypatch):
        # sqrt(x) is not smooth at 0, so the panels converge only slowly; the
        # two estimates print as plain floats, not as numpy scalar reprs
        monkeypatch.setattr(spectral, "_MAX_QUADRATURE_NODES", 256)
        number = r"\d\.\d+"
        with pytest.raises(NumericalError, match=(
                rf"^moment r=1 of the symbol did not settle: {number} with 128 "
                rf"and {number} with 256 Gauss-Legendre nodes per direction$")):
            symbol_moments(lambda x: np.sqrt(x), lambda t: np.ones((1, t.shape[0])),
                           [0])

    def test_curved_1d_error_is_first_order(self, tmp_path):
        # n * (first moment error) is level: the reference has no bias
        runs = _distribution_runs(tmp_path, "1d_hyperbolic_geometry",
                                  [64, 128, 256, 512])
        scaled = [run["n"] * run["moment_errors"][0] for run in runs]
        assert max(scaled) <= 1.01 * min(scaled)
