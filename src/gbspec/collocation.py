"""Open-knot GB-spline bases, Greville points and 1D collocation matrices.

The basis lives on the uniform open knot vector with ``p+1``-fold boundary
knots and interior knots ``i/n``, so every piece of a basis has one
effective phase.  Two phase modes are supported for the hyperbolic and
trigonometric families:

* ``nested``:     the effective phase is ``alpha/n``, and the spline spaces
  nest under refinement;
* ``nonnested``:  the effective phase is ``alpha``, so every ``n`` uses the
  same cardinal shape.

The basis is built from the structure the spectral analysis rests on.  The
integral recursion runs once, on a short open knot vector of ``2p+2`` unit
intervals (``n`` if smaller) at that effective phase.  It runs one level at
a time: the splines of a level share one grid, degree and phase, so they
are integrated as one stacked coefficient array.  The run's ``p``
splines at each end are the boundary splines, which depend only on ``p`` and
that phase; the ``n-p`` interior splines are integer translates of its first
full-support spline.  The basis stores each of these shapes once, with the
rule that maps every spline to its shape, so building it costs the same for
every ``n`` beyond the knot vector.

The value, first- and second-derivative matrices at the Greville points
are Toeplitz plus corners: away from ``floor(3p/2)-1`` rows at each end,
they are the Toeplitz matrices of the basis's own symbols h, g and f, times
``n**r`` for the r-th derivative.  They are held as bands, each row's
entries in a window of at most ``p+1`` columns, never as m-by-m arrays.
The central rows take the symbols' Toeplitz coefficients, the top rows are
sampled from the shapes at the exact Greville points ``J/(n p)``, J an
integer, and the bottom rows are their reflections about ``x = 1/2``: the
matrices are reflection-symmetric by construction, which the dense
eigensolver of :mod:`gbspec.spectral` uses.

The model problem is  -kappa u'' + beta u' + gamma u = f  on (0, 1) with
homogeneous Dirichlet data, collocated at the interior Greville abscissae; a
1D geometry map folds into transformed coefficients.

In any dimension the collocation matrix is a weighted sum of tensor products
of the 1D value, first- and second-derivative matrices.  One band assembler
builds it from the bands for d = 1, 2, 3: ``assemble`` is the d = 1 case and
``multidim.assemble_md`` the d = 2, 3 case.  The collocation matrix is the
one dense array it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprparse
from .cardinal import SEED_ROWS, _check_phase, _checked
from .errors import ConstraintError, UsageError, ValidationError
from .sections import (TRIGONOMETRIC, SectionFamily, _antiderivative_stack,
                       _at_edge, _basis_matrix, _local_derivative, polynomial)
from .symbols import symbol_fns

NESTED = "nested"
NONNESTED = "nonnested"

_VALIDATION_POINTS = 1000


@dataclass(frozen=True)
class KnotVector:
    """Uniform open knot vector: p+1 zeros, i/n for i=1..n-1, p+1 ones."""

    n: int
    degree: int
    knots: np.ndarray

    @classmethod
    def open_uniform(cls, n: int, p: int) -> "KnotVector":
        if n < 2 or p < 2:
            raise UsageError("need n >= 2 subintervals and degree p >= 2")
        interior = np.arange(1.0, n) / n
        knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
        return cls(n, p, knots)


def _greville_units(n: int, p: int) -> np.ndarray:
    """The integer sums J of the knots t_{i+1..i+p} (1-based) in units of 1/n,
    i = 2..n+p-1: the interior Greville points are ``J / (n p)``."""
    units = np.clip(np.arange(-p, n + p + 1), 0, n)  # n t_k, k = 1..n+2p+1
    return units[np.arange(2, n + p)[:, None] + np.arange(p)].sum(axis=1)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Interior Greville points (knot averages), each correctly rounded."""
    return _greville_units(kv.n, kv.degree) / (kv.n * kv.degree)


def _min_feasible_n(alpha: float) -> int:
    return math.floor(alpha / math.pi) + 1


@dataclass(frozen=True)
class GBBasis:
    """GB-spline basis N_1..N_{n+p} over an open uniform knot vector.

    ``section_family`` is the family of every piece of the basis, whose
    phase is the effective one: ``family`` itself when not nested, and
    ``family`` with the phase ``alpha/n`` when nested.

    Each distinct shape is stored once.  ``shapes`` has shape ``(m+p, m,
    p+1)``: row ``k`` holds the coefficients of spline N_{k+1} of the short
    run of :func:`gb_basis`, on its ``m = min(n, 2p+2)`` unit intervals;
    ``shape_normalizers[k]`` is ``1 / integral`` of that spline.  N_i has the
    shape ``shape_index[i-1]``, translated and scaled to width ``1/n``;
    ``normalizers`` gives ``1 / integral`` of each.
    """

    knots: KnotVector
    family: SectionFamily
    mode: str
    section_family: SectionFamily
    shapes: np.ndarray
    shape_normalizers: np.ndarray

    @property
    def n(self) -> int:
        return self.knots.n

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def shape_index(self) -> np.ndarray:
        """0-based row of ``shapes`` holding N_i, for i = 1..n+p.

        The first and last ``p`` splines are the boundary shapes; every
        interior spline is a translate of N_{p+1}.
        """
        n, p, m = self.n, self.degree, self.shapes.shape[1]
        i = np.arange(1, n + p + 1)
        return np.where(i <= p, i, np.where(i <= n, p + 1, i - n + m)) - 1

    @property
    def normalizers(self) -> np.ndarray:
        """``normalizers[i-1]`` is ``1 / integral(N_i)``."""
        return self.n * self.shape_normalizers[self.shape_index]


def limit_family(family: SectionFamily, mode: str) -> SectionFamily:
    """Family of the limit symbol of the scaled collocation matrices.

    Nested refinement drives every effective phase ``alpha/n`` to zero, so
    the limit symbols are the polynomial ones; non-nested keeps the family.
    """
    return polynomial() if mode == NESTED else family


def _seed_level(m: int, p: int) -> np.ndarray:
    """Degree-1 splines N_{i,1}, i = 1..m+2p-1, over m unit intervals, stacked."""
    up, down = SEED_ROWS
    seeds = np.zeros((m + 2 * p - 1, m, 2))
    pieces = np.arange(m)
    # N_{i,1} ascends on knot interval [t_i, t_{i+1}) (1-based knots), the
    # unit interval i-p-1, and descends on the next one
    seeds[pieces + p, pieces] = up
    seeds[pieces + p - 1, pieces] = down
    return seeds


def _cumulative(level: np.ndarray, left_degenerate: np.ndarray,
                rep: SectionFamily) -> np.ndarray:
    """Normalized cumulative integrals of a level of splines of degree q-1, stacked.

    An identically-zero boundary spline's cumulative degenerates to a unit
    step: one everywhere if its collapsed support sits at the left end of
    the domain (``left_degenerate``), zero if it sits at the right end
    (zero-denominator convention at boundary knots).
    """
    size, m, q = level.shape
    live = np.any(level, axis=(1, 2))
    anti = _antiderivative_stack(q - 1, rep.signed_square, np.ones(m), level[live])
    # each antiderivative at the right end of the last interval
    totals = _at_edge(anti[:, -1])
    cums = np.zeros((size, m, q + 1))
    cums[:, :, 0] = left_degenerate[:, None]
    # dividing, rather than scaling by the reciprocal, keeps a cumulative
    # exactly 1 beyond the support of its spline
    cums[live] = anti / _checked(totals, q - 1, rep)[:, None, None]
    return cums


def _short_run(m: int, p: int, rep: SectionFamily) -> tuple[np.ndarray, np.ndarray]:
    """The integral recursion on m unit intervals, one level at a time.

    Returns its m+p splines of degree p, stacked with shape ``(m+p, m,
    p+1)``, and ``1 / integral`` of each.
    """
    _check_phase(rep)
    level = _seed_level(m, p)
    for q in range(2, p + 1):
        # spline N_{i,q-1} collapses at the left boundary iff t_{i+q} = 0
        index = np.arange(1, level.shape[0] + 1)
        cums = _cumulative(level, index + q <= p + 1, rep)
        level = cums[:-1] - cums[1:]
    anti = _antiderivative_stack(p, rep.signed_square, np.ones(m), level)
    return level, 1.0 / _checked(_at_edge(anti[:, -1]), p, rep)


def gb_basis(n: int, p: int, family: SectionFamily,
             mode: str = NONNESTED) -> GBBasis:
    """Construct the GB-spline basis N_1..N_{n+p} on n uniform intervals.

    The effective phase of every piece is ``alpha``, or ``alpha/n`` when
    nested.  The integral recursion runs once, on the open knot vector of
    ``m = min(n, 2p+2)`` unit intervals at that phase, one level at a time:
    each level's splines share one grid, degree and phase, so one stacked
    antiderivative serves them all.  Its first ``p`` and last ``p`` splines
    are the boundary splines, which depend only on ``p`` and that phase;
    the ``n-p`` interior splines are translates of its first full-support
    spline N_{p+1}.  The basis keeps that run's ``m+p`` shapes and their
    normalizers, so its cost does not depend on ``n`` beyond the knot
    vector.  A hyperbolic effective phase above
    :data:`~gbspec.cardinal.MAX_HYPERBOLIC_PHASE`, or a spline with a zero
    or non-finite integral, raises :class:`~gbspec.errors.NumericalError`.
    """
    if mode not in (NESTED, NONNESTED):
        raise UsageError(f"unknown phase mode {mode!r}")
    kv = KnotVector.open_uniform(n, p)
    piece = family
    if mode == NESTED and not family.is_polynomial:
        piece = SectionFamily(family.tag, family.phase / n)
    if family.tag == TRIGONOMETRIC and not piece.phase < math.pi:
        alpha = family.phase
        if mode == NONNESTED:
            raise ConstraintError(
                f"trigonometric phase {alpha} is infeasible in non-nested mode "
                "(needs alpha < pi for every n)")
        raise ConstraintError(
            f"trigonometric phase {alpha} needs n >= {_min_feasible_n(alpha)} "
            f"in nested mode, got n = {n}")
    m = min(n, 2 * p + 2)
    return GBBasis(kv, family, mode, piece, *_short_run(m, p, piece))


def greville_samples(basis: GBBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior Greville points xi and the bands of N_j(xi_i), N_j'(xi_i), N_j''(xi_i).

    Returns ``(xi, starts, samples)``.  The three matrices are m-by-m, m =
    ``xi.size``, with columns over the boundary-vanishing splines
    N_2..N_{n+p-1}; an entry is zero unless its point lies in ``[a, b)`` of
    the spline's support ``[a, b]`` (right-continuous at interior knots).
    Row i of the r-th derivative matrix holds ``samples[r, i]`` in columns
    ``starts[i] .. starts[i]+w-1``, w = min(p+1, m), a window inside the
    matrix, and zeros elsewhere (:func:`densify` writes it out).

    The rows of :func:`central_range` are those of T(h), n T(g) and -n^2
    T(f), from the symbols' Toeplitz coefficients.  The rows above are
    sampled, or every row down to the middle if there is no central row:
    the point ``J/(n p)`` lies on interval ``J // p`` at the exact local
    coordinate ``(J mod p)/p``, where the p+1 active splines take the
    coefficient rows of their shapes, and one basis evaluation serves the
    three orders.

    Since ``N_{j+2}(1-x) = N_{n+p-1-j}(x)``, row ``m-1-i`` of the ``m`` rows
    is set to row ``i`` reversed, times ``(-1)**r`` for the r-th derivative,
    and so is the right half of a sampled middle row (0 at the first
    derivative's middle entry).  So the value and second-derivative matrices
    are exactly unchanged by reversing rows and columns, and the
    first-derivative matrix exactly changes sign.  Reflecting rather than
    averaging keeps each row's band: a sample at the start of a support can
    be a rounding residue (about 1e-17) where its mirror is an exact zero.
    """
    n, p = basis.n, basis.degree
    units = _greville_units(n, p)
    xi, size = units / (n * p), units.size
    width = min(p + 1, size)
    starts = np.empty(size, dtype=np.intp)
    samples = np.zeros((3, size, width))
    rng = central_range(n, p)
    # the top ``top`` rows are sampled, the last ``half`` reflect the first
    half = size // 2 if rng is None else rng[0]
    top = size - half if rng is None else half
    if rng is not None:
        # row i of T(c), c_k for k = -b..b, holds c_b..c_{-b} from column i-b
        coeffs = _symbol_coefficients(basis.section_family, p)
        starts[half:size - half] = np.arange(half, size - half) - coeffs[0].size // 2
        for r, (c, scale) in enumerate(zip(coeffs, (1.0, n, -n * n))):
            samples[r, half:size - half, :c.size] = (c * scale)[::-1]
    # on interval c = J // p, N_{c+1}..N_{c+p+1} are active: columns c-1..c+p-1
    interval, steps = np.divmod(units[:top], p)
    starts[:top] = np.clip(interval - 1, 0, size - width)
    cols = interval[:, None] - 1 + np.arange(p + 1)
    inside = (cols >= 0) & (cols < size)
    rows, cols = np.nonzero(inside)[0], cols[inside]
    interval = interval[rows]
    # column j holds N_{j+2}, the shape k, whose support starts at grid
    # interval max(0, j+1-p) and at its short-run piece max(0, k-p)
    k = basis.shape_index[cols + 1]
    c0 = basis.shapes[k, np.maximum(k - p, 0) + interval - np.maximum(cols + 1 - p, 0)]
    s = basis.section_family.signed_square
    c1 = n * _local_derivative(p, s, c0)
    c2 = n * _local_derivative(p, s, c1)
    tau = steps[rows] / p
    vals = np.einsum("ij,ij->i", np.tile(_basis_matrix(p, s, tau), (3, 1)),
                     np.concatenate([c0, c1, c2]))
    samples[:, rows, cols - starts[rows]] = vals.reshape(3, -1)
    starts[size - half:] = size - width - starts[:half][::-1]
    for order in range(3):
        samples[order, size - half:] = _mirror(samples[order, :half], order)
    if top > half:  # the sampled middle row of an odd row count
        mid = densify(starts[[half]], samples[:, [half]], size)[:, 0]
        for order in range(3):
            mid[order, half + 1:] = _mirror(mid[order, :half], order)
        mid[1, half] = 0.0
        samples[:, half] = mid[:, starts[half]:starts[half] + width]
    return xi, starts, samples


def _symbol_coefficients(family: SectionFamily, p: int) -> tuple[np.ndarray, ...]:
    """Toeplitz coefficients of h, i g and f: the central rows of the mass,
    advection and stiffness matrices."""
    h, g, f = symbol_fns([("h", p), ("g", p), ("f", p)], family)
    return (h.toeplitz_coefficients(), (1j * g.toeplitz_coefficients()).real,
            f.toeplitz_coefficients())


def densify(starts: np.ndarray, band: np.ndarray, size: int) -> np.ndarray:
    """The rows held in ``band`` as dense rows of ``size`` columns.

    Row i holds ``band[..., i, a]`` in column ``starts[i] + a``; window
    entries outside ``[0, size)`` are dropped, and every other entry is 0.
    Leading axes of ``band`` are kept.
    """
    cols = starts[:, None] + np.arange(band.shape[-1])
    inside = (cols >= 0) & (cols < size)
    out = np.zeros(band.shape[:-1] + (size,))
    out[..., np.nonzero(inside)[0], cols[inside]] = band[..., inside]
    return out


def _split_parts(samples: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, ...]:
    """Mass, advection and stiffness entries from those of N, N' and N''."""
    return samples[0], samples[1] / n, -samples[2] / n**2


def _mirror(block: np.ndarray, order: int) -> np.ndarray:
    """``block`` reversed along every axis, times ``(-1)**order``.

    ``0.0 - v`` negates ``v`` exactly and keeps its zeros ``+0.0``.
    """
    flipped = np.flip(block)
    return 0.0 - flipped if order % 2 else flipped


def _band(starts: np.ndarray, parts: Sequence[np.ndarray]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``cols[i]`` of row i holding every nonzero of ``parts``, and the bands.

    ``parts`` hold square matrices in the windows ``starts`` of
    :func:`greville_samples`.  The new window runs from the row's first
    nonzero column over all parts, at one width ``w`` for all rows (at
    most ``p+1``), clipped to the matrix; ``band[i, a] = mat[i, cols[i, a]]``.
    """
    parts = np.stack(parts)
    nz = np.any(parts != 0, axis=0)
    size, w = nz.shape
    lo = starts + nz.argmax(axis=1)
    hi = starts + w - 1 - nz[:, ::-1].argmax(axis=1)
    width = int(np.max(hi - lo)) + 1
    first = np.minimum(lo, size - width)
    return first[:, None] + np.arange(width), densify(starts - first, parts, width)


def _assemble_terms(factors: Sequence[tuple[np.ndarray, Sequence[np.ndarray]]],
                    terms: Sequence[tuple[np.ndarray, Sequence[int]]]) -> np.ndarray:
    """Dense sum of ``weight[:, None] * kron(M_0[r_0], ..., M_{d-1}[r_{d-1}])``.

    ``factors[k] = (starts, parts)`` holds direction k's matrices as bands,
    ``parts[r]`` the derivative-order-r one, in the windows ``starts`` of
    :func:`greville_samples`; each term is ``(weight, (r_0, ..., r_{d-1}))``,
    one weight per row in lexicographic order, last index fastest.  No
    Kronecker product and no dense factor is formed: each term is the outer
    product of its factors' bands (:func:`_band`), multiplied in ``np.kron``
    order, and the terms are summed in the given order in band storage, then
    written once into the dense result.  Every entry thus comes from the
    same products and additions as the dense sum, and the working memory is
    the result plus O(N prod_k w_k).
    """
    d = len(factors)
    cols, bands = zip(*(_band(starts, parts) for starts, parts in factors))
    sizes = [c.shape[0] for c in cols]
    order = math.prod(sizes)

    def spread(arr: np.ndarray, k: int) -> np.ndarray:
        shape = [1] * (2 * d)
        shape[k], shape[d + k] = arr.shape
        return arr.reshape(shape)

    acc = np.zeros(sizes + [c.shape[1] for c in cols])
    for weight, derivs in terms:
        prod = spread(bands[0][derivs[0]], 0)
        for k in range(1, d):
            prod = prod * spread(bands[k][derivs[k]], k)
        acc += weight.reshape(sizes + [1] * d) * prod

    # column rank of (cols_1[i_1, a_1], ..., cols_d[i_d, a_d]), last fastest
    strides = np.cumprod([1] + sizes[:0:-1])[::-1]
    ranks = sum(spread(cols[k] * strides[k], k) for k in range(d))
    out = np.zeros((order, order))
    np.put_along_axis(out, ranks.reshape(order, -1), acc.reshape(order, -1),
                      axis=1)
    return out


def _grid_eval(expr, xs: np.ndarray, name: str) -> np.ndarray:
    vals = np.asarray(exprparse.evaluate(expr, {"x": xs, "x1": xs}), dtype=float)
    if vals.ndim == 0:
        vals = np.full(xs.shape, float(vals))
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{name} is not finite on the validation grid")
    return vals


@dataclass(frozen=True)
class ProblemCoefficients:
    """Diffusion/advection/reaction coefficients on [0, 1] (f enters no matrix)."""

    kappa: exprparse.ExprAst
    beta: exprparse.ExprAst
    gamma: exprparse.ExprAst

    def __post_init__(self):
        xs = np.linspace(0.0, 1.0, _VALIDATION_POINTS)
        if np.min(_grid_eval(self.kappa, xs, "kappa")) <= 0:
            raise ValidationError("kappa must be positive on [0, 1]")
        if np.min(_grid_eval(self.gamma, xs, "gamma")) < 0:
            raise ValidationError("gamma must be non-negative on [0, 1]")
        _grid_eval(self.beta, xs, "beta")

    @classmethod
    def from_strings(cls, kappa: str = "1", beta: str = "0",
                     gamma: str = "0") -> "ProblemCoefficients":
        return cls(*(exprparse.parse(s) for s in (kappa, beta, gamma)))


@dataclass(frozen=True)
class GeometryMap1D:
    """Geometry map G: [0,1] -> [0,1] with its first two derivatives."""

    g: exprparse.ExprAst
    g1: exprparse.ExprAst
    g2: exprparse.ExprAst

    def __post_init__(self):
        xs = np.linspace(0.0, 1.0, _VALIDATION_POINTS)
        vals = _grid_eval(self.g, xs, "G")
        if abs(vals[0]) > 1e-10 or abs(vals[-1] - 1.0) > 1e-10:
            raise ValidationError("geometry map must satisfy G(0)=0 and G(1)=1")
        if np.min(_grid_eval(self.g1, xs, "G'")) <= 0:
            raise ValidationError("geometry map must have G' > 0 on [0, 1]")
        _grid_eval(self.g2, xs, "G''")

    @classmethod
    def from_strings(cls, g: str, g1: str | None = None,
                     g2: str | None = None) -> "GeometryMap1D":
        # x and x1 both name the one coordinate
        coord = ("x", "x1")
        ast = exprparse.parse(g)
        d1 = exprparse.parse(g1) if g1 else exprparse.differentiate(ast, coord)
        d2 = exprparse.parse(g2) if g2 else exprparse.differentiate(d1, coord)
        return cls(ast, d1, d2)

    @classmethod
    def identity(cls) -> "GeometryMap1D":
        return cls.from_strings("x")


@dataclass(frozen=True)
class CollocationSystem:
    """Assembled collocation matrix, the bands of its parts, and its
    diagonal coefficient samplings.

    ``full_matrix`` is  n^2 D(kappa_hat) @ stiffness + n D(beta_hat) @
    advection + D(gamma_hat) @ mass, where the hatted coefficients absorb the
    geometry map.  It is the one dense matrix held: ``scaled_matrix`` and the
    parts are formed on each access, the parts from the bands ``starts`` and
    ``samples`` of :func:`greville_samples`.
    """

    n: int
    degree: int
    family: SectionFamily
    mode: str
    section_family: SectionFamily
    greville: np.ndarray
    starts: np.ndarray   # first column of each row's window
    samples: np.ndarray  # N_j(xi_i), N_j'(xi_i), N_j''(xi_i) in the windows
    kappa_hat: np.ndarray
    beta_hat: np.ndarray
    gamma_hat: np.ndarray
    full_matrix: np.ndarray

    @property
    def order(self) -> int:
        return self.greville.size

    @property
    def scaled_matrix(self) -> np.ndarray:
        """``full_matrix / n^2``."""
        return self.full_matrix / self.n**2

    def _dense(self, r: int) -> np.ndarray:
        return densify(self.starts, self.samples[r], self.order)

    @property
    def stiffness(self) -> np.ndarray:
        """``[-N_j''(xi_i)] / n^2``."""
        return -self._dense(2) / self.n**2

    @property
    def advection(self) -> np.ndarray:
        """``[N_j'(xi_i)] / n``."""
        return self._dense(1) / self.n

    @property
    def mass(self) -> np.ndarray:
        """``[N_j(xi_i)]``."""
        return self._dense(0)


def transformed_coefficients(problem: ProblemCoefficients,
                             geometry: GeometryMap1D, xs: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of the problem pulled back through G, sampled at ``xs``.

    ``kappa_hat = kappa(G)/G'^2``, ``beta_hat = kappa(G) G''/G'^3 +
    beta(G)/G'`` and ``gamma_hat = gamma(G)``.
    """
    def sample(expr, at):
        vals = np.asarray(exprparse.evaluate(expr, {"x": at, "x1": at}), dtype=float)
        return np.broadcast_to(vals, xs.shape).astype(float)

    gx, g1, g2 = (sample(e, xs) for e in (geometry.g, geometry.g1, geometry.g2))
    kappa = sample(problem.kappa, gx)
    return (kappa / g1**2, kappa * g2 / g1**3 + sample(problem.beta, gx) / g1,
            sample(problem.gamma, gx))


def assemble(problem: ProblemCoefficients, geometry: GeometryMap1D,
             basis: GBBasis) -> CollocationSystem:
    """Collocate the (geometry-transformed) model problem at Greville points.

    This is the d = 1 case of :func:`_assemble_terms`, with one term per
    derivative order.
    """
    n, p = basis.n, basis.degree
    xi, starts, samples = greville_samples(basis)
    kappa_hat, beta_hat, gamma_hat = transformed_coefficients(problem, geometry, xi)
    full = _assemble_terms([(starts, _split_parts(samples, n))],
                           [(n**2 * kappa_hat, (2,)), (n * beta_hat, (1,)),
                            (gamma_hat, (0,))])
    return CollocationSystem(
        n=n, degree=p, family=basis.family, mode=basis.mode,
        section_family=basis.section_family, greville=xi, starts=starts,
        samples=samples, kappa_hat=kappa_hat, beta_hat=beta_hat,
        gamma_hat=gamma_hat, full_matrix=full,
    )


def central_range(n: int, p: int) -> tuple[int, int] | None:
    """0-based half-open row range of guaranteed central rows, or None.

    Rows i (1-based) in {floor(3p/2), ..., n+p-1-floor(3p/2)} agree entirely
    with cardinal samples; at least one exists iff n >= 2p+1-(p mod 2).
    """
    lo = (3 * p) // 2
    hi = n + p - 1 - (3 * p) // 2
    if n < 2 * p + 1 - (p % 2) or hi < lo:
        return None
    return lo - 1, hi
