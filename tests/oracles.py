"""Independent numerical oracles used by the tests.

Everything here is deliberately decoupled from the package's exact-algebra
path: integrals come from composite Gauss-Legendre quadrature, derivatives
from centered finite differences, and GB-spline values from the integral
recursion carried out in mpmath in the former ``{cosh, sinh}`` section
basis (:func:`mp_greville_samples` for bases, :func:`mp_cardinal` for
cardinal splines and their derivatives).  The one
exception is :func:`full_span_basis`, the package's former construction by
the integral recursion over the whole knot vector, kept as the reference
for the banded basis, the former dense assemblies kept as bit-identity
references for the band assembler: :func:`dense_assemble_1d` (1D) and
:func:`dense_kron_assemble_md` (d-variate, from dense Kronecker products),
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
the strided one: :func:`outer_index_toeplitz`.  The 1D quantiles are checked
against :func:`reference_discrepancy`, a far finer lattice.  The
samplers' moments are checked against :func:`mp_product_moments` (mpmath
quadrature) and :func:`richardson_md_moments` (Richardson-extrapolated
midpoint rules).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gbspec import exprparse
from gbspec.collocation import (CollocationSystem, KnotVector, gb_basis,
                                greville_abscissae, greville_samples)
from gbspec.cardinal import SEED_ROWS, cardinal_derivative, cardinal_spline
from gbspec.errors import UsageError, ValidationError
from gbspec.multidim import _eval_grid
from gbspec.sections import (PiecewiseFn, SectionFamily, _basis_matrix,
                             _local_derivative, _norm_at,
                             piecewise_antiderivative, piecewise_derivative)


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


def _loop_derivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact derivative of ``f``, one piece at a time."""
    p = f.degree
    s = f.family.signed_square
    out = np.zeros_like(f.coeffs)
    for i in range(f.coeffs.shape[0]):
        out[i] = _local_derivative(p, s, f.coeffs[i]) / f._widths[i]
    return PiecewiseFn(f.family, p, f.breakpoints, out)


def loop_greville_samples(basis):
    """Greville points and value/first/second-derivative matrices, spline by spline.

    Each boundary-vanishing spline is differentiated and evaluated on its own
    at the Greville points in ``[a, b)`` of its support.
    """
    xi = loop_greville_abscissae(basis.knots)
    mats = tuple(np.zeros((xi.size, xi.size)) for _ in range(3))
    for j, s in enumerate(basis.splines[1:-1]):
        lo, hi = np.searchsorted(xi, s.support)
        pts = xi[lo:hi]
        d1 = _loop_derivative(s)
        mats[0][lo:hi, j] = s(pts)
        mats[1][lo:hi, j] = d1(pts)
        mats[2][lo:hi, j] = _loop_derivative(d1)(pts)
    return (xi, *mats)


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
               for a, b in zip(greville_samples(small)[1:], exact))


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
    grevilles, values, first, second = zip(*map(greville_samples, bases))
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


def dense_assemble_1d(problem, geometry, basis) -> CollocationSystem:
    """The 1D collocation system from the dense three-term formula."""
    n, p = basis.n, basis.degree
    xi, mass, first, second = greville_samples(basis)
    adv = first / n
    stiff = -second / n**2

    env = {"x": xi, "x1": xi}
    gx = np.asarray(exprparse.evaluate(geometry.g, env), dtype=float)
    g1 = np.asarray(exprparse.evaluate(geometry.g1, env), dtype=float)
    g2 = np.asarray(exprparse.evaluate(geometry.g2, env), dtype=float)
    gx, g1, g2 = (np.broadcast_to(v, xi.shape).astype(float) for v in (gx, g1, g2))
    penv = {"x": gx, "x1": gx}

    def sample(expr):
        vals = np.asarray(exprparse.evaluate(expr, penv), dtype=float)
        return np.broadcast_to(vals, xi.shape).astype(float)

    kappa = sample(problem.kappa)
    kappa_hat = kappa / g1**2
    beta_hat = kappa * g2 / g1**3 + sample(problem.beta) / g1
    gamma_hat = sample(problem.gamma)

    full = (n**2 * kappa_hat[:, None] * stiff
            + n * beta_hat[:, None] * adv
            + gamma_hat[:, None] * mass)
    return CollocationSystem(
        n=n, degree=p, family=basis.family, mode=basis.mode,
        section_family=basis.section_family,
        greville=xi, stiffness=stiff, advection=adv, mass=mass,
        kappa_hat=kappa_hat, beta_hat=beta_hat, gamma_hat=gamma_hat,
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
