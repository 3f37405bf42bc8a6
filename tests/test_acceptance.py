"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) before asserting, so the suite doubles
as a checklist.  Criteria involving eigenvalue distributions share their
heavy runs through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from gbspec.cardinal import cardinal_spline
from gbspec.collocation import Geometry, assemble, gb_basis
from gbspec.sections import (SectionFamily, hyperbolic, polynomial,
                             trigonometric)
from gbspec.spectral import (ToeplitzSpec, eigenvalues_dense,
                             product_symbol_sampler, toeplitz, weyl_report)
from gbspec.symbols import bounds_report, decay_ratio, symbol_fn, symbol_max
from oracles import (cardinal_derivative, gauss_legendre_split, geometry_1d,
                     integral, loop_greville_samples, piecewise_derivative,
                     problem_1d,
                     structure_report, symbol_closed_form, toeplitz_tensor)

THETA_512 = np.linspace(-math.pi, math.pi, 512)
FAMILIES = {
    "polynomial": polynomial(),
    "hyperbolic(10)": hyperbolic(10.0),
    "trigonometric(pi/2)": trigonometric(math.pi / 2),
}


def report(number: int, name: str, ok: bool, detail: str, started: float,
           budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_closed_form_symbols():
    started = time.perf_counter()
    pairs = [("h", 1), ("h", 2), ("g", 2), ("f", 2), ("g", 3), ("f", 3), ("f", 4)]
    fams = [polynomial(), hyperbolic(1.0), hyperbolic(10.0),
            trigonometric(math.pi / 4), trigonometric(math.pi / 2)]
    worst = 0.0
    for fam in fams:
        for kind, p in pairs:
            computed = symbol_fn(kind, p, fam)(THETA_512)
            explicit = symbol_closed_form(kind, p, fam, THETA_512)
            worst = max(worst, float(np.max(np.abs(computed - explicit))))
    report(1, "closed-form symbol suite", worst <= 1e-11,
           f"max deviation {worst:.2e} (tol 1e-11)", started, 1.0)


def test_criterion_02_relation_identity():
    started = time.perf_counter()
    worst = 0.0
    for fam in (hyperbolic(1.0), hyperbolic(10.0),
                trigonometric(math.pi / 4), trigonometric(math.pi / 2)):
        for p in range(3, 9):
            f = symbol_fn("f", p, fam)(THETA_512)
            h = symbol_fn("h", p - 2, fam)(THETA_512)
            ref = (2.0 - 2.0 * np.cos(THETA_512)) * h
            worst = max(worst, float(np.max(np.abs(f - ref))))
    report(2, "relation f_p = (2-2cos) h_{p-2}", worst <= 1e-11,
           f"max deviation {worst:.2e} (tol 1e-11)", started, 5.0)


def test_criterion_03_cardinal_property_suite():
    started = time.perf_counter()
    failures = []
    fams = [polynomial(), hyperbolic(2.0), trigonometric(math.pi / 2)]
    for fam in fams:
        splines = {p: cardinal_spline(fam, p) for p in range(1, 8)}
        for p in range(2, 7):
            cs = splines[p]
            part = abs(sum(cs(float(k)) for k in range(1, p + 1)) - 1.0)
            if part > 1e-12:
                failures.append(f"partition p={p} {fam.tag}: {part:.1e}")
            integ = abs(integral(cs) - 1.0)
            if integ > 1e-12:
                failures.append(f"integral p={p} {fam.tag}: {integ:.1e}")
            c = (p + 1) / 2
            ts = np.linspace(0.0, c, 100)
            sym = float(np.max(np.abs(cs(c + ts) - cs(c - ts))))
            if sym > 1e-12:
                failures.append(f"symmetry p={p} {fam.tag}: {sym:.1e}")
            lower = splines[p - 1]
            for t in np.linspace(0.1, p + 0.9, 50):
                edges = np.unique(np.clip([0.0, t - math.floor(t), 1.0], 0, 1))
                conv = gauss_legendre_split(lambda s: lower(t - s), edges)
                if abs(conv - float(cs(t))) > 1e-10:
                    failures.append(f"convolution p={p} {fam.tag} t={t:.2f}")
                    break
            for r in range(1, min(p, 4)):
                rec = cardinal_derivative(cs, r)
                direct = cs
                for _ in range(r):
                    direct = piecewise_derivative(direct)
                xs = np.linspace(0.05, p + 0.95, 57)
                err = float(np.max(np.abs(rec(xs) - direct(xs))))
                if err > 1e-9:
                    failures.append(f"derivative p={p} r={r} {fam.tag}: {err:.1e}")
        for p1, p2 in ((2, 2), (3, 2)):
            rhs = splines[p1 + p2 + 1]
            poly2 = cardinal_spline(polynomial(), p2)
            for k in range(-2, 3):
                edges = np.arange(0.0, p1 + 2.0, 0.5)
                val = gauss_legendre_split(
                    lambda t: splines[p1](t) * poly2(t + k), edges)
                if abs(val - float(rhs(p2 + 1 - k))) > 1e-8:
                    failures.append(f"inner product p1={p1} p2={p2} k={k}")
    report(3, "cardinal property suite", not failures,
           failures[0] if failures else "all properties hold for p <= 6",
           started, 30.0)


def test_criterion_04_l1_convergence_rate():
    started = time.perf_counter()
    theta = np.linspace(-math.pi, math.pi, 2049)
    ns = np.array([8, 16, 32, 64])
    slopes = {}
    for tag in ("hyperbolic", "trigonometric"):
        for p in (3, 4, 5):
            ref = symbol_fn("f", p, polynomial())(theta)
            errs = []
            for n in ns:
                fam = SectionFamily(tag, 1.0 / n)
                errs.append(np.trapezoid(
                    np.abs(symbol_fn("f", p, fam)(theta) - ref), theta))
            slopes[(tag, p)] = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = all(abs(s + 2.0) <= 0.3 for s in slopes.values())
    worst = max(slopes.values(), key=lambda s: abs(s + 2.0))
    report(4, "L1 convergence of nested symbols", ok,
           f"slopes within -2 +/- 0.3 (farthest {worst:.3f})", started, 20.0)


def test_criterion_05_decay():
    started = time.perf_counter()
    poly_ok = all(
        decay_ratio(p, polynomial()) <= 2.0 ** ((5 - p) / 2) + 1e-12
        for p in range(2, 15))
    degrees = np.array([5, 7, 9, 11, 13])
    ratios = np.array([decay_ratio(int(p), hyperbolic(10.0)) for p in degrees])
    decreasing = bool(np.all(np.diff(ratios) < 0))
    slope = float(np.polyfit(degrees, np.log2(ratios), 1)[0])
    ok = poly_ok and decreasing and slope <= -0.3
    report(5, "exponential decay of f_p(pi)/max",
           ok, f"poly bound {poly_ok}, H10 decreasing {decreasing}, "
           f"log2 slope {slope:.3f} (<= -0.3)", started, 10.0)


def test_criterion_06_toeplitz_oracle():
    started = time.perf_counter()
    spec = ToeplitzSpec(symbol_fn("f", 2, polynomial()).toeplitz_coefficients())
    worst = 0.0
    for m in (3, 10, 100):
        eigs = np.sort(eigenvalues_dense(toeplitz(spec, m)).real)
        ref = np.sort(2.0 - 2.0 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1)))
        worst = max(worst, float(np.max(np.abs(eigs - ref))))
    hspec = ToeplitzSpec(symbol_fn("h", 2, polynomial()).toeplitz_coefficients())
    tensor_exact = np.array_equal(
        toeplitz_tensor(spec, hspec, 4, 5),
        np.kron(toeplitz(spec, 4), toeplitz(hspec, 5)))
    ok = worst <= 1e-9 and tensor_exact
    report(6, "Toeplitz eigenvalue oracle", ok,
           f"max eig error {worst:.2e} (tol 1e-9), tensor==kron {tensor_exact}",
           started, 5.0)


def test_criterion_07_structure():
    started = time.perf_counter()
    identity = Geometry.identity(1)
    failures = []
    # trigonometric phases: alpha < pi is forced in non-nested mode, while
    # nested mode admits alpha = 10 (feasible for n >= 4) like the hyperbolic
    cases = [(hyperbolic(10.0), "nested"), (hyperbolic(10.0), "nonnested"),
             (trigonometric(10.0), "nested"),
             (trigonometric(math.pi / 2), "nonnested")]
    for fam, mode in cases:
        for p in (2, 3, 4):
            basis = gb_basis(64, p, fam, mode)
            system = assemble(problem_1d(family=fam, p=p, mode=mode), identity,
                              basis)
            # the parts against an independent sampling of every row, so
            # that the Toeplitz structure is not checked against itself
            _, mass, first, second = loop_greville_samples(basis)
            for name, want in (("mass", mass), ("advection", first / 64),
                               ("stiffness", -second / 64**2)):
                err = np.max(np.abs(getattr(system, name) - want))
                if err > 1e-12 * np.max(np.abs(want)):
                    failures.append(f"{fam.tag}/{mode}/p={p}: {name} sampling")
            rep = structure_report(system, basis, tol=1e-10)
            if not (rep.central_toeplitz and rep.stiffness_symmetric
                    and rep.mass_symmetric and rep.advection_skew):
                failures.append(f"{fam.tag}/{mode}/p={p}: central structure")
            if rep.stiffness_correction_rank > rep.rank_bound:
                failures.append(f"{fam.tag}/{mode}/p={p}: rank")
    report(7, "central Toeplitz structure and correction rank", not failures,
           failures[0] if failures else
           "parts within 1e-12 of every-row sampling, Toeplitz/symmetry at "
           "1e-10 and rank(R) <= 2 floor(3p/2) - 2",
           started, 30.0)


def _distribution_run(kappa: str, mode: str, n: int,
                      geometry: Geometry, eps: list[float]):
    family = hyperbolic(10.0)
    basis = gb_basis(n, 3, family, mode)
    problem = problem_1d(kappa, family=family, mode=mode)
    system = assemble(problem, geometry, basis)
    eigs = eigenvalues_dense(system.scaled_matrix)
    sym = symbol_fn("f", 3, polynomial() if mode == "nested" else family)

    def coefficient(xs: np.ndarray) -> np.ndarray:
        from gbspec import exprparse
        env = {"x": xs, "x1": xs}
        gx = np.broadcast_to(np.asarray(
            exprparse.evaluate(geometry.components[0], env), dtype=float), xs.shape)
        g1 = np.broadcast_to(np.asarray(
            exprparse.evaluate(geometry.jacobian[0][0], env), dtype=float), xs.shape)
        kx = np.broadcast_to(np.asarray(exprparse.evaluate(
            problem.diffusion[0][0], {"x": gx}), dtype=float), xs.shape)
        return kx / g1**2

    return weyl_report(eigs, product_symbol_sampler(coefficient, sym), eps)


@pytest.fixture(scope="module")
def nonnested_runs():
    started = time.perf_counter()
    eps = [0.1 * symbol_max(symbol_fn("f", 3, hyperbolic(10.0)))]
    identity = Geometry.identity(1)
    runs = {
        (kappa, n): _distribution_run(kappa, "nonnested", n, identity, eps)
        for kappa in ("1", "1+x") for n in (64, 128)
    }
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_08_weyl_nonnested(nonnested_runs):
    started = time.perf_counter() - nonnested_runs["elapsed"]
    failures = []
    for kappa in ("1", "1+x"):
        small, large = nonnested_runs[(kappa, 64)], nonnested_runs[(kappa, 128)]
        if not large.mean_abs_discrepancy < small.mean_abs_discrepancy:
            failures.append(f"kappa={kappa}: discrepancy did not decrease")
        for r in (0, 1):
            shrink = 1.0 - large.moment_errors[r] / small.moment_errors[r]
            if shrink < 0.25:
                failures.append(f"kappa={kappa}: moment r={r + 1} "
                                f"shrank only {shrink:.0%}")
    report(8, "1D Weyl distribution, non-nested", not failures,
           failures[0] if failures else
           "discrepancy decreases and moment errors shrink >= 25% (64 -> 128)",
           started, 120.0)


def test_criterion_09_weyl_nested():
    started = time.perf_counter()
    identity = Geometry.identity(1)
    failures = []
    for kappa in ("1", "1+x"):
        small = _distribution_run(kappa, "nested", 64, identity, [])
        large = _distribution_run(kappa, "nested", 128, identity, [])
        if not large.mean_abs_discrepancy < small.mean_abs_discrepancy:
            failures.append(f"kappa={kappa}: discrepancy did not decrease")
    report(9, "1D Weyl distribution, nested", not failures,
           failures[0] if failures else
           "discrepancy vs kappa x f_3 decreases (64 -> 128)", started, 120.0)


def test_criterion_10_geometry_map():
    started = time.perf_counter()
    geometry = geometry_1d("(x+x^2)/2")
    small = _distribution_run("1", "nested", 64, geometry, [])
    large = _distribution_run("1", "nested", 128, geometry, [])
    ok = large.mean_abs_discrepancy < small.mean_abs_discrepancy
    report(10, "geometry-map distribution", ok,
           f"discrepancy {small.mean_abs_discrepancy:.4f} -> "
           f"{large.mean_abs_discrepancy:.4f} vs kappa(G)/G'^2 x f_3",
           started, 120.0)


def test_criterion_11_clustering(nonnested_runs):
    started = time.perf_counter()
    failures = []
    for kappa in ("1", "1+x"):
        small, large = nonnested_runs[(kappa, 64)], nonnested_runs[(kappa, 128)]
        (eps,) = small.outliers
        if large.outliers[eps] > small.outliers[eps]:
            failures.append(f"kappa={kappa}: outliers grew")
    report(11, "strong clustering at the symbol range", not failures,
           failures[0] if failures else
           "outlier count at eps = 0.1 max(f) does not grow (64 -> 128)",
           started, 120.0)


def test_criterion_12_distribution_2d():
    started = time.perf_counter()
    from gbspec import exprparse
    from gbspec.collocation import Problem
    from gbspec.multidim import DirectionSymbols, assemble_md, md_symbol_samples
    one, zero = exprparse.parse("1"), exprparse.parse("0")
    problem = Problem(d=2, diffusion=((one, zero), (zero, one)),
                        advection=(zero, zero), gamma=zero,
                        families=(polynomial(), polynomial()),
                        degrees=(2, 2), nu=(1, 1), mode="nested")
    geometry = Geometry.identity(2)
    symbols = DirectionSymbols(problem.degrees, problem.families, problem.mode)
    discs = {}
    for n in (12, 20):
        a = assemble_md(problem, geometry, n) / n**2
        rep = weyl_report(eigenvalues_dense(a),
                          lambda m: md_symbol_samples(problem, geometry, m,
                                                      symbols))
        discs[n] = rep.mean_abs_discrepancy
    ok = discs[20] < discs[12]
    report(12, "2D tensor-product distribution", ok,
           f"discrepancy {discs[12]:.4f} (n=12) -> {discs[20]:.4f} (n=20)",
           started, 180.0)


def test_criterion_13_bounds_scan():
    started = time.perf_counter()
    failures = []
    for label, fam in FAMILIES.items():
        for p in range(2, 9):
            rep = bounds_report(p, fam, 4096)
            if rep.upper_violations:
                failures.append(f"{label} p={p}: upper violations")
            if rep.lower_violations:
                failures.append(f"{label} p={p}: lower violations "
                                f"({rep.lower_status})")
            expected = ("PROVED" if fam.is_polynomial
                        or (fam.tag == "hyperbolic" and p % 2 == 1)
                        else "CONJECTURED")
            if rep.lower_status != expected:
                failures.append(f"{label} p={p}: status {rep.lower_status}")
    report(13, "bound scan on 4096-point grids", not failures,
           failures[0] if failures else
           "h_p <= 1, f_p <= 2-2cos, lower bounds labeled and unviolated",
           started, 10.0)
