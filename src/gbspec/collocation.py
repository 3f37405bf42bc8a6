"""GB-spline bases, Greville points and collocation matrices for d = 1, 2, 3.

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

One model serves every d: a :class:`Problem`  -sum_ij K_ij u_{x_i x_j} +
beta . grad u + gamma u = f  on [0,1]^d with homogeneous Dirichlet data
(d = 1:  -kappa u'' + beta u' + gamma u = f), collocated at the tensor
Greville points under a :class:`Geometry` map G.  The geometry enters
through one pullback, ``B = J^{-1} K(G) J^{-T}`` with the Hessians of G
folded into the first-order term (``kappa(G)/G'^2`` at d = 1).  The
collocation matrix is then a weighted sum of tensor products of the 1D
value, first- and second-derivative matrices, and one band assembler,
:func:`collocation_matrix`, builds it from the bands of each direction:
:func:`assemble` is the d = 1 case, which keeps the bands, and
``multidim.assemble_md`` builds the bases of every direction at one n.
The collocation matrix is the one dense array it writes.
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
from .spectral import _tensor_grid
from .symbols import symbol_fns

NESTED = "nested"
NONNESTED = "nonnested"


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


def _coordinates(d: int) -> list[tuple[str, ...]]:
    """The variable names of each coordinate: x1..xd, and x beside x1 when d = 1."""
    return [("x1", "x")] if d == 1 else [(f"x{k + 1}",) for k in range(d)]


def _eval_grid(expr, points: np.ndarray, d: int) -> np.ndarray:
    env = {name: points[:, k] for k, names in enumerate(_coordinates(d))
           for name in names}
    vals = np.asarray(exprparse.evaluate(expr, env), dtype=float)
    return np.broadcast_to(vals, (points.shape[0],)).astype(float)


def _eval_array(exprs, points: np.ndarray, d: int) -> np.ndarray:
    """Nested tuples of expressions at ``points``: shape ``(points, *nesting)``."""
    table = np.asarray(exprs, dtype=object)
    vals = np.stack([_eval_grid(e, points, d) for e in table.ravel()], axis=1)
    return vals.reshape(points.shape[:1] + table.shape)


def _validation_grid(d: int) -> np.ndarray:
    """Where a problem and a geometry are checked: 1000 points of [0, 1],
    ends included, in one dimension; the midpoint lattice of 33 (d = 2) or
    9 (d = 3) points a side in more."""
    if d == 1:
        return np.linspace(0.0, 1.0, 1000)[:, None]
    side = {2: 33, 3: 9}[d]
    return _tensor_grid([(np.arange(side) + 0.5) / side] * d)


def _finite(vals: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{name} is not finite on the validation grid")
    return vals


@dataclass(frozen=True)
class Problem:
    """The problem  -sum_ij K_ij u_{x_i x_j} + beta . grad u + gamma u = f  on
    [0,1]^d, d = 1, 2, 3, with homogeneous Dirichlet data (f enters no matrix).

    ``diffusion`` is the d-by-d symmetric expression matrix K, ``advection``
    the d entries of beta.  Direction j has the family ``families[j]`` and
    the degree ``degrees[j]`` on ``nu[j] * n`` subintervals.  For d = 1 this
    is  -kappa u'' + beta u' + gamma u = f, K = ((kappa,),).  K must be
    positive definite, and gamma non-negative, on the validation grid.
    """

    d: int
    diffusion: tuple[tuple[exprparse.ExprAst, ...], ...]
    advection: tuple[exprparse.ExprAst, ...]
    gamma: exprparse.ExprAst
    families: tuple[SectionFamily, ...]
    degrees: tuple[int, ...]
    nu: tuple[int, ...]
    mode: str

    def __post_init__(self):
        d = self.d
        if d not in (1, 2, 3):
            raise UsageError("only d in {1, 2, 3} is supported")
        if not (len(self.families) == len(self.degrees) == len(self.nu) == d):
            raise ValidationError("families/degrees/nu must each have d entries")
        if len(self.diffusion) != d or any(len(row) != d for row in self.diffusion):
            raise ValidationError("diffusion matrix must be d-by-d")
        if self.mode not in (NESTED, NONNESTED):
            raise UsageError(f"unknown phase mode {self.mode!r}")
        for i in range(d):
            for j in range(i + 1, d):
                if self.diffusion[i][j] != self.diffusion[j][i]:
                    raise ValidationError(
                        "diffusion matrix must be symmetric entrywise")
        # the 1D messages name the scalar coefficients of the 1D schema
        pts = _validation_grid(d)
        try:
            np.linalg.cholesky(_finite(self.diffusion_at(pts),
                                       "kappa" if d == 1 else "K"))
        except np.linalg.LinAlgError:
            raise ValidationError(
                "kappa must be positive on [0, 1]" if d == 1 else
                "diffusion matrix is not positive definite on the grid") from None
        if np.min(_finite(_eval_grid(self.gamma, pts, d), "gamma")) < 0:
            raise ValidationError("gamma must be non-negative"
                                  + (" on [0, 1]" if d == 1 else ""))
        _finite(self.advection_at(pts), "beta")

    def diffusion_at(self, points: np.ndarray) -> np.ndarray:
        return _eval_array(self.diffusion, points, self.d)

    def advection_at(self, points: np.ndarray) -> np.ndarray:
        return _eval_array(self.advection, points, self.d)


@dataclass(frozen=True)
class Geometry:
    """Componentwise geometry map G of [0,1]^d with its derivatives.

    ``jacobian[a][i]`` is dG_a/dx_i and ``hessians[a][i][j]`` is
    d^2 G_a/dx_i dx_j.  Either may be given (the 1D schema's ``G1`` and
    ``G2``); the Jacobian not given is the exact derivative of the
    components, the Hessians not given that of the Jacobian.  For d = 1, G
    must map 0 to 0 and 1 to 1 with G' > 0; for d = 2, 3 the corners must
    map onto the boundary and the Jacobian must be regular.
    """

    d: int
    components: tuple[exprparse.ExprAst, ...]
    jacobian: tuple[tuple[exprparse.ExprAst, ...], ...] | None = None
    hessians: tuple[tuple[tuple[exprparse.ExprAst, ...], ...], ...] | None = None

    def __post_init__(self):
        d = self.d
        if len(self.components) != d:
            raise ValidationError("geometry needs d component expressions")
        coords = _coordinates(d)
        if self.jacobian is None:
            object.__setattr__(self, "jacobian", tuple(
                tuple(exprparse.differentiate(c, x) for x in coords)
                for c in self.components))
        if self.hessians is None:
            object.__setattr__(self, "hessians", tuple(
                tuple(tuple(exprparse.differentiate(e, x) for x in coords)
                      for e in row) for row in self.jacobian))
        pts = _validation_grid(d)
        _finite(self.map_at(pts), "G")
        corners = _tensor_grid([np.array([0.0, 1.0])] * d)
        img = self.map_at(corners)
        if d == 1 and np.max(np.abs(img - corners)) > 1e-10:
            raise ValidationError("geometry map must satisfy G(0)=0 and G(1)=1")
        if np.max(np.minimum(np.abs(img), np.abs(img - 1.0))) > 1e-8:
            raise ValidationError("geometry must map corners onto the boundary")
        jac = _finite(self.jacobian_at(pts), "G'")
        if d == 1 and np.min(jac) <= 0:
            raise ValidationError("geometry map must have G' > 0 on [0, 1]")
        if d > 1 and np.min(np.abs(np.linalg.det(jac))) < 1e-12:
            raise ValidationError("geometry Jacobian is singular on the grid")
        _finite(self.hessians_at(pts), "G''")

    @classmethod
    def identity(cls, d: int) -> "Geometry":
        return cls(d, tuple(exprparse.parse(f"x{k + 1}") for k in range(d)))

    @property
    def is_identity(self) -> bool:
        return self.components == Geometry.identity(self.d).components

    def map_at(self, points: np.ndarray) -> np.ndarray:
        return _eval_array(self.components, points, self.d)

    def jacobian_at(self, points: np.ndarray) -> np.ndarray:
        return _eval_array(self.jacobian, points, self.d)

    def hessians_at(self, points: np.ndarray) -> np.ndarray:
        """Hessian of each component: shape (npts, d, d, d), axis 1 = component."""
        return _eval_array(self.hessians, points, self.d)


def _pullback(problem: Problem, geometry: Geometry, points: np.ndarray,
              jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``J^{-1}`` and ``B = J^{-1} K(G) J^{-T}`` at ``points``, ``jac`` being J
    there.

    For d = 1, B is formed as ``kappa(G)/G'^2``, which rounds once less than
    the product with ``1/G'`` twice.
    """
    jinv = np.linalg.inv(jac)
    kmat = problem.diffusion_at(geometry.map_at(points))
    if problem.d == 1:
        return jinv, kmat / jac**2
    return jinv, np.einsum("nij,njk,nlk->nil", jinv, kmat, jinv)


def collocation_matrix(problem: Problem, geometry: Geometry,
                       directions: Sequence[tuple[np.ndarray, ...]]) -> np.ndarray:
    """The collocation matrix of ``problem`` under ``geometry`` (unnormalized).

    ``directions[k]`` is :func:`greville_samples` of direction k's basis.
    Rows follow the lexicographic ordering of the tensor Greville points.
    The geometry enters by the chain rule: with ``B = J^{-1} K(G) J^{-T}``
    the matrix is the weighted sum of ``d^2 + d + 1`` Kronecker products of
    1D value/derivative matrices, which :func:`_assemble_terms` builds from
    the bands without forming any of them.
    """
    d = problem.d
    grevilles, starts, samples = zip(*directions)
    pts = _tensor_grid(grevilles)
    phys = geometry.map_at(pts)
    jinv, bmat = _pullback(problem, geometry, pts, geometry.jacobian_at(pts))
    beta = problem.advection_at(phys)
    gamma = _eval_grid(problem.gamma, phys, d)

    # hessians of the geometry components fold the gradient term:
    # tr(K Hx) = sum_ij B_ij Hhat_ij - sum_c s_c (grad_x)_c with
    # s_c = tr(B Hhat(G_c)); the advection term adds J^{-1} beta.
    ghess = geometry.hessians_at(pts)
    s = np.einsum("nij,ncij->nc", bmat, ghess)
    grad_w = np.einsum("nij,nj->ni", jinv, beta + s)

    # the 1D derivative matrices are true parametric derivatives, so the
    # direction scalings nu_j * n are already inside them
    terms = [(-bmat[:, i, j], [2 if k == i == j else int(k in (i, j))
                               for k in range(d)])
             for i in range(d) for j in range(d)]
    terms += [(grad_w[:, i], [int(k == i) for k in range(d)]) for i in range(d)]
    terms.append((gamma, [0] * d))
    return _assemble_terms(list(zip(starts, samples)), terms)


@dataclass(frozen=True)
class CollocationSystem:
    """A 1D collocation matrix with the bands of its parts.

    ``full_matrix`` is :func:`collocation_matrix` at d = 1,  n^2 D(b)
    stiffness + n D(w) advection + D(gamma(G)) mass  with ``b = kappa(G)/G'^2``
    and ``w = (beta(G) + b G'')/G'``.  It is the one dense matrix held:
    ``scaled_matrix`` and the parts are formed on each access, the parts
    from the bands ``starts`` and ``samples`` of :func:`greville_samples`.
    """

    n: int
    degree: int
    family: SectionFamily
    mode: str
    section_family: SectionFamily
    greville: np.ndarray
    starts: np.ndarray   # first column of each row's window
    samples: np.ndarray  # N_j(xi_i), N_j'(xi_i), N_j''(xi_i) in the windows
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


def assemble(problem: Problem, geometry: Geometry,
             basis: GBBasis) -> CollocationSystem:
    """The d = 1 collocation system of ``problem`` on ``basis``."""
    xi, starts, samples = direction = greville_samples(basis)
    return CollocationSystem(
        n=basis.n, degree=basis.degree, family=basis.family, mode=basis.mode,
        section_family=basis.section_family, greville=xi, starts=starts,
        samples=samples,
        full_matrix=collocation_matrix(problem, geometry, [direction]))


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
