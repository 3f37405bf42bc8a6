import math
import tracemalloc

import numpy as np
import pytest

from gbspec import exprparse, multidim, spectral
from gbspec.collocation import (Geometry, Problem, _band, assemble, densify,
                                gb_basis, greville_samples)
from gbspec.errors import UsageError, ValidationError
from gbspec.multidim import (DirectionSymbols, assemble_md, direction_bases,
                             md_symbol_samples)
from gbspec.sections import hyperbolic, polynomial, trigonometric
from gbspec.symbols import symbol_fn

from oracles import (basis_splines, dense_band, dense_kron_assemble_md,
                     geometry_1d, piecewise_derivative, problem_1d)


def direction_data(problem, n):
    """Greville points, window starts and band samples of each direction."""
    bases = direction_bases(problem, Geometry.identity(problem.d), n)
    return tuple(zip(*map(greville_samples, bases)))


ONE = exprparse.parse("1")
ZERO = exprparse.parse("0")


def laplace_problem(gamma="0", degrees=(2, 2), families=None, mode="nested",
                    beta=("0", "0"), kdiag=("1", "1"), koff="0", nu=(1, 1)):
    families = families or (polynomial(), polynomial())
    off = exprparse.parse(koff)
    k = ((exprparse.parse(kdiag[0]), off), (off, exprparse.parse(kdiag[1])))
    return Problem(
        d=2, diffusion=k,
        advection=tuple(exprparse.parse(b) for b in beta),
        gamma=exprparse.parse(gamma), families=families,
        degrees=degrees, nu=nu, mode=mode)


class TestValidation:
    def test_rejects_asymmetric_diffusion(self):
        k = ((ONE, exprparse.parse("x1")), (exprparse.parse("x2"), ONE))
        with pytest.raises(ValidationError):
            Problem(d=2, diffusion=k, advection=(ZERO, ZERO), gamma=ZERO,
                      families=(polynomial(), polynomial()), degrees=(2, 2),
                      nu=(1, 1), mode="nested")

    def test_rejects_indefinite_diffusion(self):
        with pytest.raises(ValidationError):
            laplace_problem(koff="2")

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValidationError):
            laplace_problem(gamma="0-1")

    def test_geometry_corner_check(self):
        with pytest.raises(ValidationError):
            Geometry(2, (exprparse.parse("x1/2"), exprparse.parse("x2")))

    @pytest.mark.parametrize("change,name", [
        ({"kdiag": ("1e308*10", "1")}, "K"), ({"koff": "1/(x1-x1+1e-320)"}, "K"),
        ({"beta": ("0", "1e308*(1+x2)*10")}, "beta"), ({"gamma": "1e308*10"}, "gamma"),
    ], ids=["diagonal", "off-diagonal", "beta", "gamma"])
    def test_non_finite_coefficients_are_refused(self, change, name):
        # one validation for every d: what is not finite on the grid is refused
        with pytest.raises(ValidationError,
                           match=f"^{name} is not finite on the validation grid$"):
            laplace_problem(**change)

    @pytest.mark.parametrize("components,name", [
        (("x1*1e308*10", "x2"), "G"), (("x1", "x2+x2*x2*1e308*10"), "G"),
        (("x1", "x2"), "G'"),
    ], ids=["overflow", "overflow-2", "jacobian"])
    def test_non_finite_geometry_is_refused(self, components, name):
        # a given Jacobian is checked like a derived one
        jacobian = ((exprparse.parse("1e308*10"), ZERO), (ZERO, ONE))
        with pytest.raises(ValidationError,
                           match=f"^{name} is not finite on the validation grid$"):
            Geometry(2, tuple(exprparse.parse(c) for c in components),
                     jacobian if name == "G'" else None)

    def test_three_dimensional_geometry_restriction(self):
        one = exprparse.parse("1")
        k3 = ((one, ZERO, ZERO), (ZERO, one, ZERO), (ZERO, ZERO, one))
        problem = Problem(d=3, diffusion=k3, advection=(ZERO, ZERO, ZERO),
                            gamma=ZERO,
                            families=(polynomial(),) * 3, degrees=(2, 2, 2),
                            nu=(1, 1, 1), mode="nested")
        skewed = Geometry(3, tuple(
            exprparse.parse(s) for s in ("x1", "x2", "x3*x3")))
        with pytest.raises(UsageError):
            assemble_md(problem, skewed, 4)


class TestAssembly:
    @pytest.mark.parametrize("n", [2, 24, 37])
    def test_one_direction_is_the_1d_system(self, n):
        # d = 1 is the one-direction case of the one assembler
        problem = problem_1d("1+x^2", "sin(6*x)-1/2", "1+x", hyperbolic(3.0), 4,
                             "nested")
        geometry = geometry_1d("(2*x+x^3)/3")
        (basis,) = direction_bases(problem, geometry, n)
        system = assemble(problem, geometry, basis)
        assert np.array_equal(assemble_md(problem, geometry, n), system.full_matrix)

    def test_separable_kronecker_structure(self):
        # Laplacian + reaction: A = n^2 (K1 x M2 + M1 x K2) + M1 x M2
        n = 6
        problem = laplace_problem(gamma="1")
        a = assemble_md(problem, Geometry.identity(2), n)
        coefficients = problem_1d()
        one_d = assemble(coefficients, Geometry.identity(1),
                         gb_basis(n, 2, polynomial()))
        k1, m1 = one_d.stiffness, one_d.mass
        ref = n**2 * (np.kron(k1, m1) + np.kron(m1, k1)) + np.kron(m1, m1)
        assert np.max(np.abs(a - ref)) <= 1e-9

    def test_pure_laplacian(self):
        n = 5
        problem = laplace_problem()
        a = assemble_md(problem, Geometry.identity(2), n)
        one_d = assemble(problem_1d(),
                         Geometry.identity(1), gb_basis(n, 2, polynomial()))
        k1, m1 = one_d.stiffness, one_d.mass
        ref = n**2 * (np.kron(k1, m1) + np.kron(m1, k1))
        assert np.max(np.abs(a - ref)) <= 1e-9

    def test_rows_match_direct_formula(self):
        # definition check on random rows, with variable coefficients
        n = 5
        problem = laplace_problem(gamma="x1+x2", kdiag=("1+x1", "1+x2"),
                                  beta=("x2", "0"))
        a = assemble_md(problem, Geometry.identity(2), n)
        basis = gb_basis(n, 2, polynomial())
        from gbspec.collocation import greville_abscissae
        xi = greville_abscissae(basis.knots)
        inner = basis_splines(basis)[1:-1]
        d1 = [piecewise_derivative(s) for s in inner]
        d2 = [piecewise_derivative(s) for s in d1]
        size = len(inner)
        rng = np.random.default_rng(2)
        for row in rng.integers(0, size * size, 5):
            i1, i2 = divmod(int(row), size)
            x1, x2 = xi[i1], xi[i2]
            expected = np.empty(size * size)
            for j1 in range(size):
                for j2 in range(size):
                    diff = ((1 + x1) * d2[j1](x1) * inner[j2](x2)
                            + (1 + x2) * inner[j1](x1) * d2[j2](x2))
                    adv = x2 * d1[j1](x1) * inner[j2](x2)
                    rea = (x1 + x2) * inner[j1](x1) * inner[j2](x2)
                    expected[j1 * size + j2] = -diff + adv + rea
            assert np.max(np.abs(a[row] - expected)) <= 1e-9

    def test_order_cap(self, monkeypatch):
        # refused from the bases alone, before any 1D matrix is sampled
        samples = []
        monkeypatch.setattr(multidim, "greville_samples", samples.append)
        monkeypatch.setattr(spectral, "DEFAULT_ORDER_CAP", 10)
        with pytest.raises(UsageError, match="^system order 64 exceeds cap 10$"):
            assemble_md(laplace_problem(), Geometry.identity(2), 8)
        assert samples == []

    def test_anisotropic_grid_ratios(self):
        n = 3
        problem = laplace_problem(nu=(1, 2))
        a = assemble_md(problem, Geometry.identity(2), n)
        sys1 = assemble(problem_1d(),
                        Geometry.identity(1), gb_basis(n, 2, polynomial()))
        sys2 = assemble(problem_1d(),
                        Geometry.identity(1), gb_basis(2 * n, 2, polynomial()))
        ref = (n**2 * np.kron(sys1.stiffness, sys2.mass)
               + (2 * n) ** 2 * np.kron(sys1.mass, sys2.stiffness))
        assert np.max(np.abs(a - ref)) <= 1e-9

    def test_separable_geometry_factorizes(self):
        # with K = I and a map acting separately on each coordinate, every
        # direction transforms exactly like the corresponding 1D problem
        n = 5
        problem = laplace_problem()
        geometry = Geometry(2, (exprparse.parse("(x1+x1^2)/2"),
                                     exprparse.parse("x2^2/2+x2/2")))
        a = assemble_md(problem, geometry, n)
        coefficients = problem_1d()
        basis = gb_basis(n, 2, polynomial())
        sys1 = assemble(coefficients, geometry_1d("(x+x^2)/2"),
                        basis)
        sys2 = assemble(coefficients, geometry_1d("x^2/2+x/2"),
                        basis)
        plain = assemble(coefficients, Geometry.identity(1), basis)
        ref = (np.kron(sys1.full_matrix, plain.mass)
               + np.kron(plain.mass, sys2.full_matrix))
        assert np.max(np.abs(a - ref)) <= 1e-9

    def test_mixed_derivative_coupling(self):
        # constant off-diagonal diffusion adds -2c (D1 x D1) to the separable
        # Laplacian, where D1 holds true first-derivative samples
        n, c = 5, 0.4
        problem = laplace_problem(koff=f"{c}")
        a = assemble_md(problem, Geometry.identity(2), n)
        one_d = assemble(problem_1d(),
                         Geometry.identity(1), gb_basis(n, 2, polynomial()))
        k1, m1, d1 = one_d.stiffness, one_d.mass, one_d.advection * n
        ref = (n**2 * (np.kron(k1, m1) + np.kron(m1, k1))
               - 2 * c * np.kron(d1, d1))
        assert np.max(np.abs(a - ref)) <= 1e-9

    def test_three_dimensional_laplacian(self):
        n = 2
        one = exprparse.parse("1")
        k3 = tuple(tuple(one if i == j else ZERO for j in range(3))
                   for i in range(3))
        problem = Problem(d=3, diffusion=k3, advection=(ZERO,) * 3,
                            gamma=ZERO, families=(polynomial(),) * 3,
                            degrees=(2, 2, 2), nu=(1, 1, 1), mode="nested")
        a = assemble_md(problem, Geometry.identity(3), n)
        one_d = assemble(problem_1d(),
                         Geometry.identity(1), gb_basis(n, 2, polynomial()))
        k1, m1 = one_d.stiffness, one_d.mass
        ref = n**2 * (np.kron(np.kron(k1, m1), m1)
                      + np.kron(np.kron(m1, k1), m1)
                      + np.kron(np.kron(m1, m1), k1))
        assert a.shape == (8, 8)
        assert np.max(np.abs(a - ref)) <= 1e-9


def cube_problem(family) -> Problem:
    k3 = tuple(tuple(ONE if i == j else ZERO for j in range(3))
               for i in range(3))
    return Problem(d=3, diffusion=k3, advection=(ZERO,) * 3, gamma=ZERO,
                     families=(family,) * 3, degrees=(3, 3, 3), nu=(1, 1, 1),
                     mode="nonnested")


CURVED = ("x1+0.2*x1*(1-x1)*x2", "x2")
# (problem, geometry components, n values); at the smallest legal n = 2 the
# band is the whole 1D matrix in every direction with nu = 1
BAND_CASES = {
    "curved_advection": (
        lambda: laplace_problem(degrees=(3, 3), mode="nonnested",
                                families=(hyperbolic(10.0),) * 2,
                                kdiag=("1+x1", "1+x2"), beta=("1", "0")),
        CURVED, (2, 3, 5, 8, 13, 24)),
    "nu_mixed_families": (
        lambda: laplace_problem(degrees=(2, 4), nu=(1, 2),
                                families=(polynomial(), trigonometric(2.0))),
        None, (2, 3, 7, 24)),
    "offdiagonal_reaction": (
        lambda: laplace_problem(gamma="1+x1*x2", kdiag=("1+x1", "2"),
                                koff="x1*x2/4", beta=("x2", "1"),
                                degrees=(3, 2)),
        CURVED, (2, 4, 11, 24)),
    "cube_hyperbolic": (
        lambda: cube_problem(hyperbolic(10.0)), None, (2, 4, 7, 10)),
}


class TestBandAssembly:
    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_bit_identical_to_dense_kronecker(self, case):
        make, components, ns = BAND_CASES[case]
        problem = make()
        geometry = (Geometry.identity(problem.d) if components is None
                    else Geometry(problem.d, tuple(
                        exprparse.parse(c) for c in components)))
        for n in ns:
            a = assemble_md(problem, geometry, n)
            ref = dense_kron_assemble_md(problem, geometry, n)
            assert np.array_equal(a, ref), (case, n)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_bands_hold_every_nonzero(self, n):
        problem = laplace_problem(degrees=(2, 5), nu=(1, 2), mode="nonnested",
                                  families=(hyperbolic(3.0),) * 2)
        _, starts, samples = direction_data(problem, n)
        for k, (s, parts) in enumerate(zip(starts, samples)):
            cols, bands = _band(s, parts)
            size = s.size
            mats = densify(s, parts, size)
            assert cols.shape[1] <= problem.degrees[k] + 1
            assert cols.min() >= 0 and cols.max() < size
            for mat, band in zip(mats, bands):
                rebuilt = np.zeros_like(mat)
                np.put_along_axis(rebuilt, cols, band, axis=1)
                assert np.array_equal(rebuilt, mat)

    def test_whole_matrix_band_at_smallest_n(self):
        problem = laplace_problem(degrees=(3, 3))
        _, starts, samples = direction_data(problem, 2)
        cols, _ = _band(starts[0], samples[0])
        assert cols.shape == (starts[0].size,) * 2

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 24])
    def test_windows_are_those_of_the_dense_scan(self, n):
        # the window rule on the bands gives the columns and the entries,
        # signs of zeros included, of the former scan of dense matrices
        problem = laplace_problem(degrees=(3, 6), nu=(1, 2), mode="nonnested",
                                  families=(trigonometric(2.0), hyperbolic(3.0)))
        _, starts, samples = direction_data(problem, n)
        for s, parts in zip(starts, samples):
            cols, bands = _band(s, parts)
            want_cols, want = dense_band(densify(s, parts, s.size))
            assert np.array_equal(cols, want_cols)
            for band, ref in zip(bands, want):
                assert np.array_equal(band, ref)
                assert np.array_equal(np.signbit(band), np.signbit(ref))

    def test_peak_memory_near_result_size(self):
        problem = cube_problem(hyperbolic(10.0))
        geometry = Geometry.identity(3)
        assemble_md(problem, geometry, 2)  # warm caches outside the trace
        tracemalloc.start()
        try:
            a = assemble_md(problem, geometry, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.shape == (1331, 1331)
        assert peak <= 2 * a.nbytes


class TestSymbolMatrix:
    def test_diagonal_at_pi(self):
        h = DirectionSymbols((2, 2), (polynomial(), polynomial()),
                             "nested").matrix((math.pi, math.pi))
        assert np.allclose(h, np.diag([2.0, 2.0]), atol=1e-12)

    def test_zero_frequency(self):
        h = DirectionSymbols((2, 2), (polynomial(), polynomial()),
                             "nested").matrix((0.0, 0.0))
        assert np.allclose(h, 0.0, atol=1e-14)

    def test_symmetric_for_random_frequencies(self):
        rng = np.random.default_rng(8)
        syms = DirectionSymbols((2, 3), (hyperbolic(1.0), hyperbolic(2.0)),
                                "nonnested")
        for _ in range(10):
            th = rng.uniform(-math.pi, math.pi, 2)
            h = syms.matrix(th)
            assert np.allclose(h, h.T, atol=0.0)

    def test_entries_compose_from_1d_symbols(self):
        th = (0.7, -1.3)
        f2 = symbol_fn("f", 2, polynomial())
        h2 = symbol_fn("h", 2, polynomial())
        g2 = symbol_fn("g", 2, polynomial())
        h = DirectionSymbols((2, 2), (polynomial(), polynomial()),
                             "nested").matrix(th)
        assert h[0, 0] == pytest.approx(float(f2(th[0]) * h2(th[1])), abs=1e-14)
        assert h[1, 1] == pytest.approx(float(h2(th[0]) * f2(th[1])), abs=1e-14)
        assert h[0, 1] == pytest.approx(float(g2(th[0]) * g2(th[1])), abs=1e-14)


class TestSymbolSamples:
    def test_identity_setup_matches_separable_form(self):
        problem = laplace_problem()
        geometry = Geometry.identity(2)
        samples = md_symbol_samples(problem, geometry, 200).quantiles
        assert samples.size == 200
        assert np.all(np.diff(samples) >= 0)
        assert samples.min() >= -1e-12  # nested polynomial symbol is nonnegative

    def test_nonnegative_for_nested_polynomial(self):
        problem = laplace_problem(kdiag=("1+x1", "2"), koff="x1*x2/4")
        samples = md_symbol_samples(problem, Geometry.identity(2), 500).quantiles
        assert samples.min() >= -1e-12


class TestDistribution2D:
    @staticmethod
    def discrepancies(problem, geometry, sizes):
        from gbspec.spectral import eigenvalues_dense, weyl_report
        syms = DirectionSymbols(problem.degrees, problem.families, problem.mode)
        out = {}
        for n in sizes:
            a = assemble_md(problem, geometry, n) / n**2
            rep = weyl_report(
                eigenvalues_dense(a),
                lambda m: md_symbol_samples(problem, geometry, m, syms))
            out[n] = rep.mean_abs_discrepancy
        return out

    def test_discrepancy_decreases(self):
        discs = self.discrepancies(laplace_problem(), Geometry.identity(2),
                                   (12, 20))
        assert discs[20] < discs[12]

    def test_discrepancy_decreases_with_geometry(self):
        geometry = Geometry(2, (exprparse.parse("(x1+x1^2)/2"),
                                     exprparse.parse("x2")))
        discs = self.discrepancies(laplace_problem(), geometry, (12, 20))
        assert discs[20] < discs[12]
