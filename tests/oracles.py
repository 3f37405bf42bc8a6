"""Independent numerical oracles used by the tests.

Everything here is deliberately decoupled from the package's exact-algebra
path: integrals come from composite Gauss-Legendre quadrature, derivatives
from centered finite differences, and GB-spline values from the integral
recursion carried out in mpmath in the former ``{cosh, sinh}`` section
basis (:func:`mp_greville_samples` for bases, :func:`mp_cardinal` for
cardinal splines and their derivatives).  The one
exception is :func:`full_span_basis`, the package's former construction by
the integral recursion over the whole knot vector, kept as the reference
for the banded basis, the former dense assemblies kept as references
for the band assembler: :func:`dense_assemble_1d` (1D, with the geometry
folded into three coefficients; to within a few ulp) and
:func:`dense_kron_assemble_md` (d-variate, from dense Kronecker products;
bit for bit),
the former scan of dense matrices for their bands, kept as the reference
for the band-native window rule: :func:`dense_band`,
the former spline-by-spline Greville sampling at floating-point points,
kept as the independent reference for the corner rows and the accuracy
baseline of the Toeplitz-plus-corners sampler:
:func:`loop_greville_samples` (which samples every row), and
the former piece-by-piece antiderivative kept as the bit-identity reference
for the batched one: :func:`loop_antiderivative`, the former cardinal
recursion that builds a function at every level, kept as the bit-identity
reference for the one on coefficient arrays: :func:`loop_cardinal_build`,
the former symbol sampling through piecewise functions, kept as the
bit-identity reference for the one on coefficient rows:
:func:`piecewise_symbol_coefficients`, the former
spline-by-spline basis construction kept as the bit-identity reference for
the level-batched one: :func:`loop_gb_basis`, and the former d-variate
symbol lattice kept as the bit-identity reference for the quantiles of
d = 2, 3: :func:`former_md_quantiles`, and the former Toeplitz build
from an N-by-N index of diagonals, kept as the bit-identity reference for
the strided one: :func:`outer_index_toeplitz`, and the former symbol
maximum through ``numpy.polynomial.chebyshev``, kept as the bit-identity
reference for the colleague matrix built in place:
:func:`numpy_symbol_max`.  The 1D quantiles are checked
against :func:`reference_discrepancy`, a far finer lattice.  The
samplers' moments are checked against :func:`mp_product_moments` (mpmath
quadrature) and :func:`richardson_md_moments` (Richardson-extrapolated
midpoint rules).  The tau closed form of bandwidth-1 Toeplitz spectra is
checked against the same formula at 40 digits,
:func:`mp_tridiagonal_toeplitz_eigenvalues`.

The former package functions that only tests called live here too, as
functions of their inputs built on the package's primitives:
:func:`piecewise_derivative`, :func:`piecewise_antiderivative` and
:func:`integral` (the section algebra on whole piecewise functions),
:func:`basis_splines` (a basis spline by spline), :func:`cardinal_derivative`
(the derivative recurrence the symbols sample), :func:`fourier_phi` and
:func:`lower_bound_residual` (the Fourier transform of a cardinal spline
and the split of h at its leading term), :func:`symbol_closed_form` (the
tabulated low-degree closed forms of h, g and f), and
:func:`toeplitz_tensor` and :func:`structure_report` (the
Toeplitz-plus-low-rank structure of the collocation matrices), with
:func:`split_parts`.  :func:`problem_1d` and :func:`geometry_1d` build the
d = 1 problem and geometry of expression strings.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from gbspec import exprparse
from gbspec.collocation import (Geometry, KnotVector, Problem, _eval_grid,
                                _symbol_coefficients, central_range, densify,
                                gb_basis, greville_abscissae, greville_samples)
from gbspec.cardinal import (SEED_ROWS, _derivative_rows, _phi0_hat,
                             _phi1_hat, cardinal_spline)
from gbspec.errors import NumericalError, UsageError, ValidationError
from gbspec.sections import (HYPERBOLIC, POLYNOMIAL, PiecewiseFn,
                             SectionFamily, _antiderivative_stack,
                             _basis_matrix, _local_derivative, _norm_at,
                             polynomial)
from gbspec.spectral import ToeplitzSpec, toeplitz, toeplitz_view
from gbspec.symbols import symbol_fn


def piecewise_derivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact derivative, represented at the same degree.

    Monomial slots shift down; the (u, v) pair maps into its own span plus
    the top monomial.  Degree-0 input yields the zero function.
    """
    out = (_local_derivative(f.degree, f.family.signed_square, f.coeffs)
           / f._widths[:, None])
    return PiecewiseFn(f.family, f.degree, f.breakpoints, out)


def piecewise_antiderivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact antiderivative ``F(x) = int_{left}^{x} f``, of degree ``p+1``.

    Integration constants propagate across intervals, so ``F`` is continuous;
    outside the span the compact-support convention of :class:`PiecewiseFn`
    applies (in particular ``F`` at the last breakpoint is the total integral).
    """
    out = _antiderivative_stack(f.degree, f.family.signed_square, f._widths,
                                f.coeffs)
    return PiecewiseFn(f.family, f.degree + 1, f.breakpoints, out)


def integral(f: PiecewiseFn) -> float:
    """Integral of ``f`` over its whole span (exact, via antidifferentiation)."""
    return float(_total(piecewise_antiderivative(f)))


def basis_splines(basis) -> tuple:
    """N_1..N_{n+p} of a :class:`~gbspec.collocation.GBBasis`; entry ``i-1``
    is N_i, a :class:`PiecewiseFn` over its support ``[t_i, t_{i+p+1}]``
    alone (at most ``p+1`` intervals), 0 outside."""
    n, p, rep = basis.n, basis.degree, basis.section_family
    grid = np.arange(n + 1) / n
    out = []
    for i, k in enumerate(basis.shape_index.tolist(), start=1):
        lo, hi = max(0, i - p - 1), min(n, i)
        first = max(0, k - p)  # first short-run piece of the support
        out.append(PiecewiseFn(rep, p, grid[lo:hi + 1],
                               basis.shapes[k, first:first + hi - lo]))
    return tuple(out)


def cardinal_derivative(cs, r: int) -> PiecewiseFn:
    """r-th derivative of a cardinal spline, ``1 <= r <= p-1``, by the
    recurrence phi_p^{(r)} = sum_j (-1)^j C(r,j) phi_{p-r}(. - j) that the
    package's symbols sample."""
    base = cardinal_spline(cs.family, cs.degree - r)
    return PiecewiseFn(base.pw.family, base.degree, np.arange(0.0, cs.degree + 2),
                       _derivative_rows(base.pw.coeffs, r))


def gauss_legendre(fn, a: float, b: float, pieces: int = 8,
                   nodes: int = 64) -> float:
    """Composite Gauss-Legendre quadrature of a scalar-vectorized function."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        total += half * float(np.sum(w * fn(mid + half * x)))
    return total


def gauss_legendre_split(fn, edges, nodes: int = 64) -> float:
    """Composite quadrature with explicitly prescribed panel edges."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        total += half * float(np.sum(w * fn(mid + half * x)))
    return total


def central_second_difference(fn, t: float, h: float = 1e-5) -> float:
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / h**2


def sign_changes(values: np.ndarray, tol: float = 1e-13) -> int:
    signs = np.sign(values[np.abs(values) > tol])
    return int(np.sum(signs[1:] != signs[:-1]))


def piece_family(family, mode: str, n: int):
    """The family of every piece of a basis on n uniform intervals.

    Its phase is the effective one: ``alpha``, or ``alpha/n`` when nested.
    """
    if family.is_polynomial or mode == "nonnested":
        return family
    return SectionFamily(family.tag, family.phase / n)


def _full_span_seeds(kv: KnotVector, rep) -> list:
    """Degree-1 splines over the distinct grid, one per index i = 1..n+2p-1."""
    n, p = kv.n, kv.degree
    grid = np.arange(n + 1) / n
    up, down = SEED_ROWS
    seeds = []
    for i in range(1, n + 2 * p):
        coeffs = np.zeros((n, 2))
        if p + 1 <= i <= p + n:
            coeffs[i - p - 1] = up
        if p + 1 <= i + 1 <= p + n:
            coeffs[i - p] = down
        seeds.append(PiecewiseFn(rep, 1, grid, coeffs))
    return seeds


def _cumulative(spline, left_degenerate: bool,
                antiderivative=piecewise_antiderivative):
    """Normalized cumulative integral of one spline, or the unit step if it is 0."""
    q = spline.degree + 1
    grid = spline.breakpoints
    if not np.any(spline.coeffs):
        coeffs = np.zeros((grid.size - 1, q + 1))
        coeffs[:, 0] = 1.0 if left_degenerate else 0.0
        return PiecewiseFn(spline.family, q, grid, coeffs)
    anti = antiderivative(spline)
    return PiecewiseFn(anti.family, q, grid, anti.coeffs / _total(anti))


def _next_level(cums: list) -> list:
    """The differences of consecutive cumulative integrals."""
    return [PiecewiseFn(a.family, a.degree, a.breakpoints, a.coeffs - b.coeffs)
            for a, b in zip(cums[:-1], cums[1:])]


def full_span_basis(n: int, p: int, family, mode: str = "nonnested") -> list:
    """The n+p GB-splines by the integral recursion over all n intervals.

    Every spline is a PiecewiseFn over the whole of [0, 1] (zero outside its
    support).  This costs O(n^2 p) and serves only as the reference for
    ``gbspec.collocation.gb_basis``.
    """
    kv = KnotVector.open_uniform(n, p)
    level = _full_span_seeds(kv, piece_family(family, mode, n))
    for q in range(2, p + 1):
        level = _next_level([_cumulative(s, left_degenerate=(i + q <= p + 1))
                             for i, s in enumerate(level, start=1)])
    return level


def loop_gb_basis(n: int, p: int, family, mode: str = "nonnested",
                  antiderivative=piecewise_antiderivative) -> tuple:
    """The GB-spline basis spline by spline: ``(splines, normalizers)``.

    The integral recursion runs on ``m = min(n, 2p+2)`` unit intervals with
    one PiecewiseFn per spline per level, each integrated on its own by
    ``antiderivative``; the n+p splines are then placed on their supports in
    [0, 1] as boundary splines and translates of N_{p+1}.  This is the
    former ``gbspec.collocation.gb_basis``, kept as the bit-identity
    reference for the level-batched one.
    """
    rep = piece_family(family, mode, n)
    m = min(n, 2 * p + 2)
    up, down = SEED_ROWS
    grid = np.arange(m + 1.0)
    short = []
    for i in range(1, m + 2 * p):
        coeffs = np.zeros((m, 2))
        if p + 1 <= i <= p + m:
            coeffs[i - p - 1] = up
        if p + 1 <= i + 1 <= p + m:
            coeffs[i - p] = down
        short.append(PiecewiseFn(rep, 1, grid, coeffs))
    for q in range(2, p + 1):
        short = _next_level([_cumulative(s, i + q <= p + 1, antiderivative)
                             for i, s in enumerate(short, start=1)])
    short_norms = []
    for s in short:
        short_norms.append(1.0 / _total(antiderivative(s)))
    grid = np.arange(n + 1) / n
    splines, normalizers = [], []
    for i in range(1, n + p + 1):
        # 1-based index of the short-vector spline with the same shape
        k = i if i <= p else p + 1 if i <= n else i - n + m
        lo, hi = max(0, i - p - 1), min(n, i)
        k_lo = max(0, k - p - 1)
        splines.append(PiecewiseFn(rep, p, grid[lo:hi + 1],
                                   short[k - 1].coeffs[k_lo:k_lo + hi - lo]))
        normalizers.append(n * short_norms[k - 1])
    return tuple(splines), np.array(normalizers)


def _loop_primitive(p: int, s: float, c: np.ndarray,
                    start: np.ndarray) -> np.ndarray:
    """Primitive of one degree-p row (vanishing at tau=0), degree p+1.

    ``start`` is the degree-(p+1) basis row at tau = 0.
    """
    out = np.zeros(p + 2)
    if p == 0:
        out[0] = out[1] = c[0] / 2.0  # tau = (u + v)/2 in the degree-1 basis
        return out
    for j in range(p - 1):
        out[j + 1] = c[j] / (j + 1)
    gu, gv, gw = (_norm_at(s, k) for k in (p - 1, p, p + 1))
    out[p] = gv / (2 * p * gu) * c[p - 1]
    out[p + 1] = gw / (2 * (p + 1) * gv) * c[p]
    out[0] = -np.sum(out * start)
    return out


def _total(f: PiecewiseFn) -> float:
    """``f`` at the right end of its last piece, from the basis row there."""
    end = _basis_matrix(f.degree, f.family.signed_square, np.ones(1))[0]
    return np.sum(f.coeffs[-1] * end)


def loop_antiderivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact antiderivative of ``f``, one piece at a time.

    Each piece's integral is its primitive at tau = 1; the integration
    constant of piece i is the running sum of the integrals before it.
    """
    p = f.degree
    m = f.coeffs.shape[0]
    s = f.family.signed_square
    starts, ends = (_basis_matrix(p + 1, s, np.full(m, tau))
                    for tau in (0.0, 1.0))
    out = np.zeros((m, p + 2))
    acc = 0.0
    for i in range(m):
        prim = _loop_primitive(p, s, f.coeffs[i], starts[i]) * f._widths[i]
        step = np.sum(prim * ends[i])
        if i:
            prim[0] += acc
            acc = acc + step
        else:
            acc = step
        out[i] = prim
    return PiecewiseFn(f.family, p + 1, f.breakpoints, out)


def loop_cardinal_build(rep, degrees) -> list:
    """``(levels, delta1)`` of the cardinal recursion, one function per level.

    Level q is the degree-q cardinal spline of the section family ``rep`` on
    {0, ..., q+1}; every antiderivative is :func:`loop_antiderivative`.
    """
    pw = PiecewiseFn(rep, 1, np.array([0.0, 1.0, 2.0]), SEED_ROWS)
    delta1 = 1.0 / _total(loop_antiderivative(pw))
    levels = [pw.scaled(delta1)]
    for q in range(2, max(degrees) + 1):
        anti = loop_antiderivative(levels[-1])  # degree q on {0..q}
        one = np.zeros(q + 1)
        one[0] = 1.0
        rows = np.vstack([anti.coeffs, one])
        shifted = np.vstack([np.zeros(q + 1), rows[:-1]])
        levels.append(PiecewiseFn(rep, q, np.arange(0.0, q + 2), rows - shifted))
    return [(levels[q - 1], delta1) for q in degrees]


def piecewise_symbol_coefficients(kind: str, p: int, family) -> np.ndarray:
    """Samples of a symbol: a derivative function built and evaluated at the points.

    The r-th derivative (r = 0, 1, 2 for h, g, f) comes from the recurrence
    on the degree ``p - r`` spline, or, where ``r >= p``, by differentiating
    the degree-p spline r times.
    """
    r = "hgf".index(kind)
    if r >= p or r == 0:
        pw = cardinal_spline(family, p).pw
        for _ in range(r):
            pw = piecewise_derivative(pw)
    else:
        pw = cardinal_derivative(cardinal_spline(family, p), r)
    return pw((p + 1) / 2 - np.arange(0, p // 2 + 1))


def loop_greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Interior Greville points, one knot-window mean at a time."""
    p = kv.degree
    t = kv.knots
    full = np.array([t[i:i + p].mean() for i in range(1, kv.n + p + 1)])
    return full[1:-1]


def loop_greville_samples(basis):
    """Greville points and value/first/second-derivative matrices, spline by spline.

    Each boundary-vanishing spline is differentiated and evaluated on its own
    at the Greville points in ``[a, b)`` of its support.
    """
    xi = loop_greville_abscissae(basis.knots)
    mats = tuple(np.zeros((xi.size, xi.size)) for _ in range(3))
    for j, s in enumerate(basis_splines(basis)[1:-1]):
        lo, hi = np.searchsorted(xi, s.support)
        pts = xi[lo:hi]
        d1 = piecewise_derivative(s)
        mats[0][lo:hi, j] = s(pts)
        mats[1][lo:hi, j] = d1(pts)
        mats[2][lo:hi, j] = piecewise_derivative(d1)(pts)
    return (xi, *mats)


def dense_greville_samples(basis):
    """:func:`~gbspec.collocation.greville_samples` with its bands written
    out: the Greville points and the dense value, first- and
    second-derivative matrices."""
    xi, starts, samples = greville_samples(basis)
    return (xi, *densify(starts, samples, xi.size))


def dense_band(mats):
    """Columns ``cols[i]`` of row i holding every nonzero of the dense
    ``mats``, and the bands: the former scan of the dense matrices, kept as
    the reference for the band-native window rule."""
    nz = np.logical_or.reduce([m != 0 for m in mats])
    size = nz.shape[1]
    lo = nz.argmax(axis=1)
    hi = size - 1 - nz[:, ::-1].argmax(axis=1)
    width = int(np.max(hi - lo)) + 1
    cols = np.minimum(lo, size - width)[:, None] + np.arange(width)
    return cols, [np.take_along_axis(m, cols, axis=1) for m in mats]


def reflect_rows(samples):
    """Greville samples with every row below the middle replaced by its mirror.

    Row ``i >= m - m//2`` of the r-th derivative matrix becomes row
    ``m-1-i`` reversed, times ``(-1)**r``; for odd ``m`` the middle row's
    entries right of its middle column become its left entries reversed, and
    the first derivative's middle entry becomes 0.  A negated entry is
    ``0.0 - v``, so zeros stay ``+0.0``.  Entry by entry, for one row at a time.
    """
    xi, *mats = samples
    m = xi.size
    out = []
    for r, mat in enumerate(mats):
        ref = mat.copy()
        for i in range(m):
            for j in range(m):
                if i >= m - m // 2 or (2 * i == m - 1 and j > i):
                    v = mat[m - 1 - i, m - 1 - j]
                    ref[i, j] = 0.0 - v if r == 1 else v
        if m % 2 and r == 1:
            ref[m // 2, m // 2] = 0.0
        out.append(ref)
    return (xi, *out)


def exact_greville_abscissae(n: int, p: int) -> list:
    """Interior Greville points of the open uniform knot vector, as fractions."""
    knots = ([Fraction(0)] * (p + 1) + [Fraction(k, n) for k in range(1, n)]
             + [Fraction(1)] * (p + 1))
    return [sum(knots[i + 1:i + p + 1]) / p for i in range(1, n + p - 1)]


def _mp_local_basis(tag: str, q: int, e, tau, r: int, mp) -> list:
    """r-th tau-derivative of the q+1 local section functions at tau."""
    # math.perm(j, r) is the falling factorial j (j-1) ... (j-r+1), exactly
    out = [math.perm(j, r) * tau ** (j - r) if j >= r else mp.mpf(0)
           for j in range(q - 1)]
    if tag == "polynomial":
        return out + [math.perm(j, r) * tau ** (j - r) if j >= r else mp.mpf(0)
                      for j in (q - 1, q)]
    if tag == "hyperbolic":
        pair = (mp.cosh(e * tau), mp.sinh(e * tau))
        pair = pair if r % 2 == 0 else pair[::-1]
    else:
        c, s = mp.cos(e * tau), mp.sin(e * tau)
        pair = ((c, s), (-s, c), (-c, -s), (s, -c))[r % 4]
    return out + [e**r * pair[0], e**r * pair[1]]


def _mp_primitive(tag: str, q: int, e, c: list, mp) -> list:
    """Primitive vanishing at tau = 0 of a degree-q row, as a degree-q+1 row."""
    out = [mp.mpf(0)] * (q + 2)
    for j in range(q - 1):
        out[j + 1] += c[j] / (j + 1)
    if tag == "polynomial":
        out[q] += c[q - 1] / q
        out[q + 1] += c[q] / (q + 1)
    elif tag == "hyperbolic":
        out[q + 1] += c[q - 1] / e
        out[q] += c[q] / e
        out[0] -= c[q] / e
    else:
        out[q + 1] += c[q - 1] / e
        out[q] -= c[q] / e
        out[0] += c[q] / e
    return out


def mp_greville_samples(n: int, p: int, tag: str, eff: float, xs,
                        dps: int = 40) -> list:
    """``[d^r N_j/dx^r (x_i)]`` for j = 2..n+p-1 and r = 0, 1, 2, in mpmath.

    Each spline N_j comes from the integral recursion run on its own knots
    t_j..t_{j+p+1} alone (B-splines are local), at ``dps`` digits, in units
    of one knot interval with effective phase ``eff`` per interval; splines
    whose knots are translates of each other share one run.  Values
    are right-continuous at knots and zero outside the support.  The points
    ``xs`` are floats or fractions, taken exactly.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return _mp_samples(n, p, tag, eff, xs, mp)


@lru_cache(maxsize=None)
def mp_nested_shape_error(n: int, p: int, family) -> float:
    """Relative error of the shapes of ``gb_basis(n, p, family, "nested")``.

    Beyond ``n = 2p+2`` the shapes depend only on p and the effective phase
    ``alpha/n``, so they are checked through the basis of ``n0 = 2p+2``
    intervals at that phase: the largest max-norm relative error of its
    value, first- and second-derivative Greville matrices against
    :func:`mp_greville_samples`, which is cheap at ``n0``.
    """
    basis = gb_basis(n, p, family, "nested")
    n0 = min(n, 2 * p + 2)
    small = gb_basis(n0, p, SectionFamily(family.tag, family.phase * n0 / n),
                     "nested")
    if small.section_family != basis.section_family or not np.array_equal(
            small.shapes, basis.shapes):
        raise ValueError(f"n = {n0} does not reproduce the shapes of n = {n}")
    exact = mp_greville_samples(n0, p, family.tag, small.section_family.phase,
                                greville_abscissae(small.knots))
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
               for a, b in zip(dense_greville_samples(small)[1:], exact))


def _mp_samples(n, p, tag, eff, xs, mp) -> list:
    e = mp.mpf(eff) if tag != "polynomial" else mp.mpf(0)
    # knot t_k (1-based) in interval units
    knot = [None] + [min(n, max(0, k - p - 1)) for k in range(1, n + 2 * p + 2)]
    if tag == "polynomial":
        up, down = [0, 1], [1, -1]
    elif tag == "hyperbolic":
        up, down = [0, 1 / mp.sinh(e)], [1, -mp.cosh(e) / mp.sinh(e)]
    else:
        up, down = [0, 1 / mp.sin(e)], [1, -mp.cos(e) / mp.sin(e)]

    def spline(j: int) -> dict:
        lo, hi = knot[j], knot[j + p + 1]
        cells = range(lo, hi)
        # degree-1 splines N_{k,1}, k = j..j+p, as {cell: row}
        level = []
        for k in range(j, j + p + 1):
            rows = {c: [mp.mpf(0), mp.mpf(0)] for c in cells}
            if knot[k + 1] > knot[k]:
                rows[knot[k]] = [mp.mpf(v) for v in up]
            if knot[k + 2] > knot[k + 1]:
                rows[knot[k + 1]] = [mp.mpf(v) for v in down]
            level.append(rows)
        for q in range(2, p + 1):
            cums = []
            for off, rows in enumerate(level):
                k = j + off
                if all(v == 0 for row in rows.values() for v in row):
                    step = 1 if knot[k] == 0 else 0
                    cums.append({c: [mp.mpf(step)] + [mp.mpf(0)] * q
                                 for c in cells})
                    continue
                acc, anti = mp.mpf(0), {}
                for c in cells:
                    prim = _mp_primitive(tag, q - 1, e, rows[c], mp)
                    prim[0] += acc
                    anti[c] = prim
                    acc = mp.fsum(a * b for a, b in zip(
                        _mp_local_basis(tag, q, e, mp.mpf(1), 0, mp), prim))
                cums.append({c: [v / acc for v in row] for c, row in anti.items()})
            level = [{c: [a - b for a, b in zip(cums[i][c], cums[i + 1][c])]
                      for c in cells} for i in range(len(cums) - 1)]
        return level[0]

    runs = {}

    def translated(j: int) -> dict:
        # the run depends on the knots t_j..t_{j+p+2} relative to t_j, and
        # on whether t_j is the left end: splines alike in both share it
        lo = knot[j]
        key = (tuple(knot[k] - lo for k in range(j, j + p + 3)), lo == 0)
        if key not in runs:
            runs[key] = (lo, spline(j))
        base, rows = runs[key]
        return {c - base + lo: row for c, row in rows.items()}

    splines = [translated(j) for j in range(2, n + p)]
    out = [np.zeros((len(xs), len(splines))) for _ in range(3)]
    for i, x in enumerate(xs):
        u = Fraction(x) * n
        cell = min(math.floor(u), n - 1)
        tau = mp.mpf((u - cell).numerator) / (u - cell).denominator
        for r in range(3):
            basis = _mp_local_basis(tag, p, e, tau, r, mp)
            for col, rows in enumerate(splines):
                if cell in rows:
                    value = mp.fsum(a * b for a, b in zip(basis, rows[cell]))
                    out[r][i, col] = float(value * mp.mpf(n) ** r)
    return out


#: families whose cardinal splines and symbols are checked against mpmath:
#: small, moderate and large phases, up to the largest accepted hyperbolic one
PHASE_SWEEP = ([SectionFamily("hyperbolic", a)
                for a in (1e-6, 1e-3, 0.1, 1.0, 10.0, 30.0, 50.0, 76.0)]
               + [SectionFamily("trigonometric", a)
                  for a in (1e-6, 0.5, 1.5, 3.0, 3.14)])


def _mp_digits(alpha) -> int:
    """Working digits that leave 40 after the {cosh, sinh} recursion's cancellation.

    Antidifferentiation divides by the phase at every level, and values near
    the right end of a piece cancel terms of size e**alpha.
    """
    if alpha is None:
        return 40
    return 40 + math.ceil(alpha) + 12 * max(0, math.ceil(-math.log10(alpha)))


@lru_cache(maxsize=None)
def _mp_cardinal_rows(tag: str, alpha, top: int):
    """Rows of the degree-1..top cardinal splines in the {cosh, sinh} basis.

    The integral recursion of :mod:`gbspec.cardinal` carried out in mpmath
    in the basis of :func:`_mp_local_basis`, on unit intervals with the
    phase ``alpha``: ``rows[q][i]`` holds the degree-q spline on [i, i+1).
    """
    import mpmath as mp

    with mp.workdps(_mp_digits(alpha)):
        e = mp.mpf(0) if tag == "polynomial" else mp.mpf(alpha)
        if tag == "polynomial":
            seed = [[0, 1], [1, -1]]
        elif tag == "hyperbolic":
            seed = [[0, 1 / mp.sinh(e)], [1, -mp.cosh(e) / mp.sinh(e)]]
        else:
            seed = [[0, 1 / mp.sin(e)], [1, -mp.cos(e) / mp.sin(e)]]

        def antiderivative(rows: list, q: int) -> tuple:
            end = _mp_local_basis(tag, q, e, mp.mpf(1), 0, mp)
            acc, out = mp.mpf(0), []
            for row in rows:
                prim = _mp_primitive(tag, q - 1, e, row, mp)
                prim[0] += acc
                out.append(prim)
                acc = mp.fsum(a * b for a, b in zip(end, prim))
            return out, acc

        total = antiderivative([[mp.mpf(v) for v in row] for row in seed], 2)[1]
        rows = {1: [[mp.mpf(v) / total for v in row] for row in seed]}
        for q in range(2, top + 1):
            anti = antiderivative(rows[q - 1], q)[0] + [[mp.mpf(1)] + [mp.mpf(0)] * q]
            rows[q] = [[a - b for a, b in zip(row, prev)]
                       for row, prev in zip(anti, [[0] * (q + 1)] + anti[:-1])]
    return rows


def mp_cardinal(tag: str, alpha, q: int, t, r: int = 0, top: int = 10) -> float:
    """r-th derivative of the degree-q cardinal spline at ``t``, from mpmath.

    One recursion up to ``top`` serves every degree; the points ``t`` are
    floats or fractions, taken exactly.  The spline is right-continuous at
    knots and its right end evaluates as the left limit.
    """
    import mpmath as mp

    rows = _mp_cardinal_rows(tag, alpha, top)[q]
    t = Fraction(t)
    if not 0 <= t <= q + 1:
        return 0.0
    with mp.workdps(_mp_digits(alpha)):
        e = mp.mpf(0) if tag == "polynomial" else mp.mpf(alpha)
        piece = min(math.floor(t), q)
        tau = mp.mpf((t - piece).numerator) / (t - piece).denominator
        basis = _mp_local_basis(tag, q, e, tau, r, mp)
        return float(mp.fsum(a * b for a, b in zip(basis, rows[piece])))


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_kron_assemble_md(problem, geometry, n: int,
                           order_cap: int = 4096) -> np.ndarray:
    """The d-variate collocation matrix as a sum of dense Kronecker products."""
    d = problem.d
    if geometry.d != d:
        raise ValidationError("geometry dimension disagrees with the problem")
    if d == 3 and not geometry.is_identity:
        raise UsageError("d = 3 supports the identity geometry only")
    bases = [gb_basis(problem.nu[j] * n, problem.degrees[j], problem.families[j],
                      problem.mode) for j in range(d)]
    grevilles, values, first, second = zip(*map(dense_greville_samples, bases))
    order = int(np.prod([v.shape[0] for v in values]))
    if order > order_cap:
        raise UsageError(f"system order {order} exceeds cap {order_cap}")

    mesh = np.meshgrid(*grevilles, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    phys = geometry.map_at(pts)
    jac = geometry.jacobian_at(pts)
    jinv = np.linalg.inv(jac)
    kmat = problem.diffusion_at(phys)
    beta = problem.advection_at(phys)
    gamma = _eval_grid(problem.gamma, phys, d)

    # B = J^{-1} K J^{-T} per collocation point
    bmat = np.einsum("nij,njk,nlk->nil", jinv, kmat, jinv)
    # hessians of the geometry components fold the gradient term:
    # tr(K Hx) = sum_ij B_ij Hhat_ij - sum_c s_c (grad_x)_c with
    # s_c = tr(B Hhat(G_c)); the advection term adds J^{-1} beta.
    ghess = geometry.hessians_at(pts)
    s = np.einsum("nij,ncij->nc", bmat, ghess)
    grad_w = np.einsum("nij,nj->ni", jinv, beta + s)

    # the 1D derivative matrices are true parametric derivatives, so the
    # direction scalings nu_j * n are already inside them
    parts = []
    for i in range(d):
        for j in range(d):
            mats = []
            for k in range(d):
                if k == i == j:
                    mats.append(second[k])
                elif k in (i, j):
                    mats.append(first[k])
                else:
                    mats.append(values[k])
            parts.append((-bmat[:, i, j], _kron_all(mats)))
    for i in range(d):
        mats = [first[k] if k == i else values[k] for k in range(d)]
        parts.append((grad_w[:, i], _kron_all(mats)))
    parts.append((gamma, _kron_all(values)))

    out = np.zeros((order, order))
    for weight, mat in parts:
        out += weight[:, None] * mat
    return out


def problem_1d(kappa: str = "1", beta: str = "0", gamma: str = "0",
               family: SectionFamily | None = None, p: int = 3,
               mode: str = "nonnested") -> Problem:
    """The d = 1 :class:`~gbspec.collocation.Problem` of these expressions."""
    kappa, beta, gamma = map(exprparse.parse, (kappa, beta, gamma))
    return Problem(1, ((kappa,),), (beta,), gamma, (family or polynomial(),),
                   (p,), (1,), mode)


def geometry_1d(g: str = "x") -> Geometry:
    """The d = 1 :class:`~gbspec.collocation.Geometry` of G, its derivatives
    derived."""
    return Geometry(1, (exprparse.parse(g),))


def split_parts(samples, n: int) -> tuple[np.ndarray, ...]:
    """Mass, advection and stiffness entries from those of N, N' and N''."""
    return samples[0], samples[1] / n, -samples[2] / n**2


def dense_assemble_1d(problem, geometry, basis) -> SimpleNamespace:
    """The fields of the 1D collocation system from the dense three-term
    formula, with the geometry folded into the coefficients

    ``kappa_hat = kappa(G)/G'^2``, ``beta_hat = kappa(G) G''/G'^3 +
    beta(G)/G'`` and ``gamma_hat = gamma(G)``.
    """
    n, p = basis.n, basis.degree
    xi, mass, first, second = dense_greville_samples(basis)
    adv = first / n
    stiff = -second / n**2

    env = {"x": xi, "x1": xi}
    (g,), ((g1,),), (((g2,),),) = (geometry.components, geometry.jacobian,
                                   geometry.hessians)
    gx, g1, g2 = (np.broadcast_to(np.asarray(exprparse.evaluate(e, env), dtype=float),
                                  xi.shape).astype(float) for e in (g, g1, g2))
    penv = {"x": gx, "x1": gx}

    def sample(expr):
        vals = np.asarray(exprparse.evaluate(expr, penv), dtype=float)
        return np.broadcast_to(vals, xi.shape).astype(float)

    kappa = sample(problem.diffusion[0][0])
    kappa_hat = kappa / g1**2
    # the two terms of beta_hat, whose sum can cancel
    beta_terms = (kappa * g2 / g1**3, sample(problem.advection[0]) / g1)
    beta_hat = beta_terms[0] + beta_terms[1]
    gamma_hat = sample(problem.gamma)

    full = (n**2 * kappa_hat[:, None] * stiff
            + n * beta_hat[:, None] * adv
            + gamma_hat[:, None] * mass)
    return SimpleNamespace(
        greville=xi, stiffness=stiff, advection=adv, mass=mass,
        kappa_hat=kappa_hat, beta_hat=beta_hat, gamma_hat=gamma_hat,
        beta_terms=beta_terms,
        full_matrix=full, scaled_matrix=full / n**2,
    )


def mp_product_moments(coefficient, symbol) -> list:
    """Means of ``(coefficient(x) f(theta))**r``, r = 1..4, by mpmath ``quad``.

    The reference for the moments of the 1D sampler: the separable integral
    over [0,1] x [-pi,pi] as the product of a tanh-sinh quadrature in x, of
    ``coefficient`` evaluated in floats, and one in theta of the cosine
    polynomial ``f = -c_0 - 2 sum c_k cos(k theta)`` of ``symbol``'s
    coefficients, evaluated in mpmath.
    """
    import mpmath as mp

    c = [mp.mpf(float(v)) for v in symbol.coefficients]

    def f(t):
        return -c[0] - 2 * mp.fsum(ck * mp.cos(k * t) for k, ck in enumerate(c[1:], 1))

    def kappa(x):
        return mp.mpf(float(np.asarray(coefficient(np.array([float(x)])))[0]))

    out = []
    for r in range(1, 5):
        x_part = mp.quad(lambda x: kappa(x) ** r, [0, 1])
        t_part = mp.quad(lambda t: f(t) ** r, [-mp.pi, 0, mp.pi]) / (2 * mp.pi)
        out.append(float(x_part * t_part))
    return out


def richardson_md_moments(problem, geometry, symbols, levels, thetas: int = 12) -> list:
    """Means of the d-variate symbol's powers, r = 1..4, by Richardson midpoint.

    The reference for the moments of the d-variate sampler.  In theta the
    midpoint rule of ``thetas`` points per direction over the whole period,
    exact for trigonometric polynomials of degree below ``thetas``; in x the
    tensor midpoint rule of ``n`` points per direction for each ``n`` in
    ``levels`` (each twice the last), whose errors, even powers of 1/n, a
    Romberg table removes.  The symbol
    ``sum_ij (J^{-1} K(G) J^{-T})_ij nu_i nu_j H_ij(theta)`` is evaluated
    with the geometry's and the problem's own methods.
    """
    d = problem.d
    nu = np.asarray(problem.nu, dtype=float)
    th = -math.pi + 2.0 * math.pi * (np.arange(thetas) + 0.5) / thetas
    tpts = np.stack([m.ravel() for m in np.meshgrid(*[th] * d, indexing="ij")], axis=1)
    h = symbols.matrix_batch(tpts) * nu[:, None] * nu[None, :]
    table = []
    for n in levels:
        xs = (np.arange(n) + 0.5) / n
        xpts = np.stack([m.ravel() for m in np.meshgrid(*[xs] * d, indexing="ij")],
                        axis=1)
        sums = np.zeros(4)
        for lo in range(0, xpts.shape[0], 256):
            pts = xpts[lo:lo + 256]
            jinv = np.linalg.inv(geometry.jacobian_at(pts))
            b = jinv @ problem.diffusion_at(geometry.map_at(pts)) @ jinv.transpose(0, 2, 1)
            s = np.einsum("kij,mij->km", b, h)
            sums += [np.sum(s**r) for r in range(1, 5)]
        table.append([sums / (xpts.shape[0] * tpts.shape[0])])
        for k in range(1, len(table)):
            prev, cur = table[-2][k - 1], table[-1][k - 1]
            table[-1].append(cur + (cur - prev) / (4**k - 1))
    return [float(v) for v in table[-1][-1]]


def reference_discrepancy(eigs, coefficient, f_coefficients, side: int = 2048) -> float:
    """Mean distance of the sorted eigenvalue real parts to the 1D symbol's quantiles.

    The reference for the 1D ``mean_abs_discrepancy``: the quantiles are the
    evenly spaced order statistics of ``coefficient(x) * f(theta)`` on the
    ``side`` x ``side`` midpoint lattice over (0,1) x (0,pi), where f is the
    even cosine polynomial ``-c_0 - 2 sum c_k cos(k theta)`` of
    ``f_coefficients``.
    """
    c = np.asarray(f_coefficients, dtype=float)
    xs = (np.arange(side) + 0.5) / side
    thetas = (np.arange(side) + 0.5) * math.pi / side
    f = -c[0] - 2.0 * np.cos(np.outer(thetas, np.arange(1, c.size))) @ c[1:]
    a = np.broadcast_to(np.asarray(coefficient(xs), dtype=float), xs.shape)
    pool = np.sort(np.multiply.outer(a, f).ravel())
    count = np.size(eigs)
    quantiles = pool[((np.arange(count) + 0.5) * pool.size / count).astype(int)]
    return float(np.mean(np.abs(np.sort(np.real(eigs)) - quantiles)))


def former_md_quantiles(problem, geometry, count: int, symbols) -> np.ndarray:
    """The former d-variate sampler: order statistics of a sorted lattice pool.

    Kept as the bit-identity reference for the quantiles of
    :func:`gbspec.multidim.md_symbol_samples`.
    """
    d = problem.d
    per_dim = max(4, math.ceil((32 * count) ** (1.0 / (2 * d))))
    xs = (np.arange(per_dim) + 0.5) / per_dim
    ths = -math.pi + 2.0 * math.pi * (np.arange(per_dim) + 0.5) / per_dim
    xpts = np.stack([m.ravel() for m in np.meshgrid(*([xs] * d), indexing="ij")],
                    axis=1)
    tpts = np.stack([m.ravel() for m in np.meshgrid(*([ths] * d), indexing="ij")],
                    axis=1)
    jinv = np.linalg.inv(geometry.jacobian_at(xpts))
    kmat = problem.diffusion_at(geometry.map_at(xpts))
    bmat = np.einsum("nij,njk,nlk->nil", jinv, kmat, jinv)
    nu = np.asarray(problem.nu, dtype=float)
    weights = np.einsum("i,nij,j->nij", nu, symbols.matrix_batch(tpts), nu)
    values = np.sort(np.einsum("mij,nij->mn", bmat, weights).ravel())
    return _former_order_statistics(values, count)


def _former_order_statistics(sorted_values: np.ndarray, count: int) -> np.ndarray:
    pos = ((np.arange(count) + 0.5) * sorted_values.size / count - 0.5)
    idx = np.clip(np.round(pos).astype(int), 0, sorted_values.size - 1)
    return sorted_values[idx]


def outer_index_toeplitz(spec, m: int) -> np.ndarray:
    """The former Toeplitz build: every entry's diagonal from an m-by-m index.

    Kept as the bit-identity reference for :func:`gbspec.spectral.toeplitz`.
    """
    c = spec.coefficients
    b = spec.bandwidth
    dtype = float if np.isrealobj(c) else complex
    out = np.zeros((m, m), dtype=dtype)
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    mask = np.abs(idx) <= b
    out[mask] = c[idx[mask] + b].astype(dtype)
    return out


def numpy_symbol_max(s) -> float:
    """The former maximum of the symbol ``s``: the critical points from
    ``numpy.polynomial.chebyshev``'s ``chebder``, ``chebtrim`` and
    ``chebroots``, each evaluated through ``s``.

    Kept as the bit-identity reference for :func:`gbspec.symbols.symbol_max`.
    """
    chebyshev = np.polynomial.chebyshev
    if s.kind == "g":
        series = np.concatenate(([0.0], s._k * s._tail))
    else:
        series = chebyshev.chebder(np.concatenate((s.coefficients[:1], 2.0 * s._tail)))
    tol = np.finfo(float).eps * np.abs(series).max()
    roots = chebyshev.chebroots(chebyshev.chebtrim(series, tol))
    thetas = np.arccos(np.clip(roots.real, -1.0, 1.0))
    if s.kind == "g":
        thetas = np.concatenate((thetas, -thetas))
    return max(float(s(t)) for t in [math.pi, 0.0, *thetas.tolist()])


def mp_symbol_max(kind: str, coefficients, grid: int = 4096) -> float:
    """Maximum over [-pi, pi] of a symbol with float ``coefficients``, in mpmath.

    The symbol is ``c0 + 2 sum c_k cos(k theta)`` (h), its negation (f) or
    ``-2 sum c_k sin(k theta)`` (g), with each coefficient taken exactly.
    Its critical points are bracketed by the sign changes of a multiple of
    its derivative on ``grid`` points: ``sum k c_k sin(k theta) / sin(theta)``
    on [0, pi] for the even kinds, with its limits at 0 and pi, and ``sum
    k c_k cos(k theta)`` on [-pi, pi] for g.  Each bracket is closed by
    ``mp.findroot`` at 50 digits; one the 50-digit derivative does not
    change sign across (float rounding of a derivative near zero) gives its
    two ends instead, and a grid point where the float slope is 0 is taken
    itself.  The maximum is taken over these points and the ends of the
    range, at 50 digits.
    """
    import mpmath as mp

    c = [float(v) for v in np.ravel(coefficients)]
    k = np.arange(1, len(c))
    tail = np.array(c[1:])
    even = kind != "g"
    with mp.workdps(50):
        cs = [mp.mpf(v) for v in c]

        def total(trig, t, power: int):
            """sum k**power c_k trig(k t), k >= 1."""
            return mp.fsum(j**power * ck * trig(j * t) for j, ck in enumerate(cs[1:], 1))

        def value(t):
            if kind == "g":
                return -2 * total(mp.sin, t, 0)
            h = cs[0] + 2 * total(mp.cos, t, 0)
            return h if kind == "h" else -h

        def slope(t):
            return total(mp.sin, t, 1) / mp.sin(t) if even else total(mp.cos, t, 1)

        if even:
            thetas = np.linspace(0.0, math.pi, grid)
            inner = thetas[1:-1]
            slopes = np.concatenate((
                [np.sum(k * k * tail)],
                np.sin(np.multiply.outer(inner, k)) @ (k * tail) / np.sin(inner),
                [np.sum(k * k * tail * (-1.0) ** (k + 1))]))
            points = [mp.mpf(0), mp.pi]
        else:
            thetas = np.linspace(-math.pi, math.pi, grid)
            slopes = np.cos(np.multiply.outer(thetas, k)) @ (k * tail)
            points = [-mp.pi, mp.mpf(0), mp.pi]
        signs = np.sign(slopes)
        # a slope of 0 at every grid point is a constant symbol: its ends do
        if signs.any():
            points += [mp.mpf(t) for t in thetas[signs == 0]]
        for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
            lo, hi = mp.mpf(thetas[i]), mp.mpf(thetas[i + 1])
            if even:  # the quotient form has no value at the ends themselves
                lo, hi = max(lo, mp.mpf(1e-30)), min(hi, mp.pi - mp.mpf(1e-30))
            if mp.sign(slope(lo)) * mp.sign(slope(hi)) < 0:
                points.append(mp.findroot(slope, (lo, hi), solver="anderson"))
            else:
                points += [lo, hi]
        return float(max(value(t) for t in points))


def mp_tridiagonal_toeplitz_eigenvalues(coefficients, m: int) -> list:
    """Eigenvalues of the m-by-m Hermitian Toeplitz matrix of bandwidth <= 1
    with float ``coefficients`` ``[c_-1, c0, c1]`` (or ``[c0]``), ascending.

    ``c0 + 2|c1| cos(j pi/(m+1))``, j = 1..m, with each coefficient taken
    exactly and the rest at 40 digits, as ``mp.mpf``.  ``mp.cospi`` is
    exactly 0 at j = (m+1)/2, so a zero eigenvalue is exactly 0.
    """
    import mpmath as mp

    c = np.ravel(coefficients)
    with mp.workdps(40):
        c0 = mp.mpf(float(np.real(c[c.size // 2])))
        c1 = complex(c[-1]) if c.size == 3 else 0j
        s = mp.sqrt(mp.mpf(c1.real) ** 2 + mp.mpf(c1.imag) ** 2)
        return sorted(c0 + 2 * s * mp.cospi(mp.mpf(j) / (m + 1))
                      for j in range(1, m + 1))


def fourier_phi(family, p: int, theta):
    """Fourier transform of the degree-``p`` cardinal spline at ``theta``.

    Computed as phi1_hat(theta) * phi0_hat(theta)**(p-1) from the package's
    transforms of the degree-1 spline and of the unit indicator.
    """
    if p < 1:
        raise UsageError("degree must be >= 1")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    out = _phi1_hat(family, th) * _phi0_hat(th) ** (p - 1)
    return complex(out[0]) if scalar else out


def lower_bound_residual(p: int, family, theta) -> np.ndarray:
    """Residual of h_p after removing the leading Fourier-transform term.

    Splitting the series form of h_p at its k = 0 term isolates the part
    controlled by the lower-bound analysis; for hyperbolic families of odd
    degree the residual is provably nonnegative, which is what pins h_p above
    its envelope.  Requires ``p >= 3`` (the series form's validity range).
    """
    if p < 3:
        raise UsageError("the series split requires degree >= 3")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    sinc = np.sinc(th / (2.0 * math.pi))
    leading = (_phi1_hat(family, th) * np.exp(1j * th)).real * sinc ** (p - 1)
    return np.asarray(symbol_fn("h", p, family)(th)) - leading


def _h2_shape(family, theta):
    """Closed-form h_2: c1*cos(theta) - c2, shared by f_4.

    ``c1 = (cosh(a/2) - 1)/(cosh(a) - 1)`` and ``-c2 = (cosh(a) -
    cosh(a/2))/(cosh(a) - 1)`` (trigonometric: ``cos``) are taken in
    half-angle form, ``(sinh(a/4)/sinh(a/2))**2`` and ``sinh(3a/4)
    sinh(a/4)/sinh(a/2)**2`` (``sin``), which do not cancel at small phases.
    """
    if family.is_polynomial:
        return 0.25 * np.cos(theta) + 0.75
    a = family.phase
    sine = math.sinh if family.tag == HYPERBOLIC else math.sin
    quarter = sine(a / 4) / sine(a / 2)
    return quarter**2 * np.cos(theta) + sine(3 * a / 4) / sine(a / 2) * quarter


def symbol_closed_form(kind: str, p: int, family, theta):
    """Transcription of the tabulated low-degree closed forms.

    Available pairs: h1, h2, g2, f2, g3, f3, f4 (each for all families).
    Their amplitudes, quotients by ``cosh(a) - 1`` (trigonometric:
    ``cos(a) - 1``), are written in half-angle form, which does not cancel
    at small phases.
    """
    th = np.asarray(theta, dtype=float)
    a = family.phase
    tag = family.tag
    if kind == "h" and p == 1:
        if tag == POLYNOMIAL:
            val = 1.0
        elif tag == HYPERBOLIC:
            val = (a / 2.0) / math.tanh(a / 2.0)
        else:
            val = (a / 2.0) / math.tan(a / 2.0)
        return np.full_like(th, val) if th.ndim else float(val)
    if kind == "h" and p == 2:
        return _h2_shape(family, th)
    if kind in ("g", "f") and p == 2:
        if tag == POLYNOMIAL:
            return -np.sin(th) if kind == "g" else 2.0 - 2.0 * np.cos(th)
        # a sinh(a/2)/(cosh(a) - 1) and a**2 cosh(a/2)/(cosh(a) - 1)
        # (trigonometric: sin, cos), by cosh(a) - 1 = 2 sinh(a/2)**2
        sine, cosine = (math.sinh, math.cosh) if tag == HYPERBOLIC else (math.sin, math.cos)
        ratio = a / 2.0 / sine(a / 2.0)
        if kind == "g":
            return -ratio * np.sin(th)
        return 2.0 * ratio**2 * cosine(a / 2.0) * (1.0 - np.cos(th))
    if kind == "g" and p == 3:
        return -np.sin(th)
    if kind == "f" and p == 3:
        if tag == POLYNOMIAL:
            return 2.0 - 2.0 * np.cos(th)
        if tag == HYPERBOLIC:
            amp = a / math.tanh(a / 2.0)
        else:
            amp = a / math.tan(a / 2.0)
        return amp * (1.0 - np.cos(th))
    if kind == "f" and p == 4:
        return (2.0 - 2.0 * np.cos(th)) * _h2_shape(family, th)
    raise UsageError(f"no closed form tabulated for kind {kind!r}, degree {p}")


def toeplitz_tensor(cf, ch, m1: int, m2: int) -> np.ndarray:
    """Two-level Toeplitz matrix of the product symbol f(t1)h(t2): the
    Kronecker product of the two one-level matrices."""
    return np.kron(toeplitz(cf, m1), toeplitz(ch, m2))


@dataclass(frozen=True)
class StructureReport:
    """Toeplitz/symmetry structure of the central block and correction ranks."""

    has_central_rows: bool
    central_toeplitz: bool
    stiffness_symmetric: bool
    mass_symmetric: bool
    advection_skew: bool
    stiffness_correction_rank: int | None
    advection_correction_rank: int | None
    mass_correction_rank: int | None
    rank_bound: int


def structure_report(sys, tol: float = 1e-10) -> StructureReport:
    """Check the central-block structure of a
    :class:`~gbspec.collocation.CollocationSystem` and the low-rank
    correction bounds."""
    n, p = sys.n, sys.degree
    bound = 2 * ((3 * p) // 2) - 2
    rng = central_range(n, p)
    if rng is None:
        return StructureReport(False, False, False, False, False,
                               None, None, None, bound)

    # central submatrix: 1-based block indices p..n-1, densified alone
    lo, hi = p - 1, n - 1
    mass, adv, stiff = split_parts(
        densify(sys.starts[lo:hi] - lo, sys.samples[:, lo:hi], hi - lo), n)

    def is_toeplitz(b):  # each diagonal within tol of its first entry
        first = ToeplitzSpec(np.r_[b[0, :0:-1], b[:, 0]])
        return np.max(np.abs(b - toeplitz(first, b.shape[0]))) <= tol

    central_toeplitz = all(map(is_toeplitz, (stiff, adv, mass)))
    stiff_sym = np.max(np.abs(stiff - stiff.T)) <= tol
    mass_sym = np.max(np.abs(mass - mass.T)) <= tol
    adv_skew = np.max(np.abs(adv + adv.T)) <= tol

    # every other row is that of T, up to the rounding of the scaling by
    # n^r: the correction ranks are those of the corner rows
    corners = np.r_[0:rng[0], rng[1]:sys.order]
    rows = split_parts(densify(sys.starts[corners], sys.samples[:, corners],
                                sys.order), n)
    ranks = []
    for mat, c in zip(rows, _symbol_coefficients(sys.section_family, p)):
        t = toeplitz_view(ToeplitzSpec(c), sys.order)[corners]
        sv = np.linalg.svd(mat - t, compute_uv=False)
        ranks.append(int(np.sum(sv > 1e-8 * sv[0])))
    r_mass, r_adv, r_stiff = ranks
    if r_stiff > bound:
        raise NumericalError(
            f"stiffness correction rank {r_stiff} exceeds bound {bound}")
    return StructureReport(True, central_toeplitz, stiff_sym, mass_sym,
                           adv_skew, r_stiff, r_adv, r_mass, bound)
