"""Tensor-product collocation in d dimensions and the multivariate symbol.

Basis functions are products of 1D GB-splines (families, degrees and phases
may differ per direction), collocated at tensor Greville points under the
standard lexicographic ordering with the last index varying fastest.  The
collocation matrix is the weighted sum of Kronecker products of the 1D
value, first- and second-derivative matrices; it is built by the band
assembler of :mod:`gbspec.collocation`, of which the 1D matrix is the
d = 1 case.

The multivariate symbol couples the PDE coefficient matrix, the geometry
Jacobian, and a d-by-d matrix of 1D symbols: diffusion symbols ``f`` on the
diagonal, products of advection symbols ``g`` off the diagonal, and value
symbols ``h`` in the remaining directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprparse
from .collocation import (NESTED, NONNESTED, GBBasis, _assemble_terms, gb_basis,
                          greville_samples, limit_family)
from .errors import UsageError, ValidationError
from .sections import SectionFamily
from .spectral import DEFAULT_ORDER_CAP, SymbolDraw, _tensor_grid, symbol_sampler
from .symbols import symbol_fns

_GRID_PER_DIM = {2: 33, 3: 9}


def _vars(d: int) -> tuple[str, ...]:
    return tuple(f"x{k + 1}" for k in range(d))


def _eval_grid(expr, points: np.ndarray, d: int) -> np.ndarray:
    env = {name: points[:, k] for k, name in enumerate(_vars(d))}
    if d == 1:
        env["x"] = points[:, 0]
    vals = np.asarray(exprparse.evaluate(expr, env), dtype=float)
    return np.broadcast_to(vals, (points.shape[0],)).astype(float)


def _lattice(d: int, per_dim: int) -> np.ndarray:
    return _tensor_grid([(np.arange(per_dim) + 0.5) / per_dim] * d)


@dataclass(frozen=True)
class ProblemMD:
    """Elliptic problem  -div(K grad u) + beta . grad u + gamma u = f  on [0,1]^d.

    ``diffusion`` is the d-by-d symmetric expression matrix K; ``advection``
    collects the first-order coefficients; per-direction spline data comes as
    ``families``, ``degrees`` and grid ratios ``nu`` (direction j uses
    ``nu[j] * n`` subintervals).
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
        if d not in (2, 3):
            raise UsageError("only d in {2, 3} is supported")
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
        pts = _lattice(d, _GRID_PER_DIM[d])
        mats = self.diffusion_at(pts)
        try:
            np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            raise ValidationError(
                "diffusion matrix is not positive definite on the grid") from None
        if np.min(_eval_grid(self.gamma, pts, d)) < 0:
            raise ValidationError("gamma must be non-negative")

    def diffusion_at(self, points: np.ndarray) -> np.ndarray:
        d = self.d
        out = np.empty((points.shape[0], d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = _eval_grid(self.diffusion[i][j], points, d)
        return out

    def advection_at(self, points: np.ndarray) -> np.ndarray:
        return np.stack(
            [_eval_grid(b, points, self.d) for b in self.advection], axis=1)


@dataclass(frozen=True)
class GeometryMapMD:
    """Componentwise geometry map of [0,1]^d with exact expression derivatives."""

    d: int
    components: tuple[exprparse.ExprAst, ...]

    def __post_init__(self):
        if len(self.components) != self.d:
            raise ValidationError("geometry needs d component expressions")
        jac = self._jacobian_exprs()
        object.__setattr__(self, "_jac", jac)
        object.__setattr__(self, "_hess", tuple(
            tuple(tuple(exprparse.differentiate(jac[a][i], f"x{j + 1}")
                        for j in range(self.d)) for i in range(self.d))
            for a in range(self.d)))
        pts = _lattice(self.d, _GRID_PER_DIM[self.d])
        if np.min(np.abs(np.linalg.det(self.jacobian_at(pts)))) < 1e-12:
            raise ValidationError("geometry Jacobian is singular on the grid")
        img = self.map_at(_tensor_grid([np.array([0.0, 1.0])] * self.d))
        if np.max(np.minimum(np.abs(img), np.abs(img - 1.0))) > 1e-8:
            raise ValidationError("geometry must map corners onto the boundary")

    def _jacobian_exprs(self):
        return tuple(
            tuple(exprparse.differentiate(self.components[a], f"x{i + 1}")
                  for i in range(self.d)) for a in range(self.d))

    @classmethod
    def identity(cls, d: int) -> "GeometryMapMD":
        return cls(d, tuple(exprparse.parse(f"x{k + 1}") for k in range(d)))

    @property
    def is_identity(self) -> bool:
        return self.components == GeometryMapMD.identity(self.d).components

    def map_at(self, points: np.ndarray) -> np.ndarray:
        return np.stack(
            [_eval_grid(c, points, self.d) for c in self.components], axis=1)

    def jacobian_at(self, points: np.ndarray) -> np.ndarray:
        d = self.d
        out = np.empty((points.shape[0], d, d))
        for a in range(d):
            for i in range(d):
                out[:, a, i] = _eval_grid(self._jac[a][i], points, d)
        return out

    def hessians_at(self, points: np.ndarray) -> np.ndarray:
        """Hessian of each component: shape (npts, d, d, d), axis 1 = component."""
        d = self.d
        out = np.empty((points.shape[0], d, d, d))
        for a in range(d):
            for i in range(d):
                for j in range(d):
                    out[:, a, i, j] = _eval_grid(self._hess[a][i][j], points, d)
        return out


def direction_bases(problem: ProblemMD, geometry: GeometryMapMD, n: int,
                    order_cap: int = DEFAULT_ORDER_CAP) -> list[GBBasis]:
    """The 1D basis of each direction at ``n``, after every check of
    :func:`assemble_md`.

    It builds no matrix, so whatever :func:`assemble_md` refuses, an order
    above ``order_cap`` included, is refused at the cost of the bases.
    """
    d = problem.d
    if geometry.d != d:
        raise ValidationError("geometry dimension disagrees with the problem")
    if d == 3 and not geometry.is_identity:
        raise UsageError("d = 3 supports the identity geometry only")
    bases = [gb_basis(problem.nu[j] * n, problem.degrees[j], problem.families[j],
                      problem.mode) for j in range(d)]
    order = math.prod(b.n + b.degree - 2 for b in bases)  # N_2..N_{n+p-1}
    if order > order_cap:
        raise UsageError(f"system order {order} exceeds cap {order_cap}")
    return bases


def _pullback(problem: ProblemMD, geometry: GeometryMapMD, points: np.ndarray,
              jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``J^{-1}`` and ``B = J^{-1} K(G) J^{-T}`` at ``points``, ``jac`` being J there."""
    jinv = np.linalg.inv(jac)
    kmat = problem.diffusion_at(geometry.map_at(points))
    return jinv, np.einsum("nij,njk,nlk->nil", jinv, kmat, jinv)


def assemble_md(problem: ProblemMD, geometry: GeometryMapMD, n: int,
                order_cap: int = DEFAULT_ORDER_CAP) -> np.ndarray:
    """Assemble the multivariate collocation matrix (unnormalized).

    Rows follow the lexicographic ordering of tensor Greville points; the
    geometry map is handled by the chain rule in two dimensions and must be
    the identity in three.

    The matrix is a weighted sum of ``d^2 + d + 1`` Kronecker products of 1D
    value/derivative matrices, built from per-direction bands by
    :func:`collocation._assemble_terms` without forming any of them.
    """
    d = problem.d
    bases = direction_bases(problem, geometry, n, order_cap)
    grevilles, values, first, second = zip(*map(greville_samples, bases))

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
    return _assemble_terms(list(zip(values, first, second)), terms)


class DirectionSymbols:
    """Per-direction 1D symbols backing the multivariate symbol matrix."""

    def __init__(self, degrees: Sequence[int], families: Sequence[SectionFamily],
                 mode: str = NESTED):
        if mode not in (NESTED, NONNESTED):
            raise UsageError(f"unknown phase mode {mode!r}")
        self.degrees = tuple(degrees)
        fams = [limit_family(f, mode) for f in families]
        per_direction = [symbol_fns([("h", p), ("g", p), ("f", p)], f)
                         for p, f in zip(self.degrees, fams)]
        self.h, self.g, self.f = (list(s) for s in zip(*per_direction))

    @property
    def d(self) -> int:
        return len(self.degrees)

    def matrix(self, thetas: Sequence[float]) -> np.ndarray:
        """The d-by-d symbol matrix at one frequency vector."""
        return self.matrix_batch(np.asarray(thetas, dtype=float)[None, :])[0]

    def matrix_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Symbol matrices for a batch of frequency vectors, shape (m, d, d)."""
        thetas = np.asarray(thetas, dtype=float)
        m, d = thetas.shape
        hv = np.stack([np.asarray(self.h[k](thetas[:, k])) for k in range(d)], axis=1)
        gv = np.stack([np.asarray(self.g[k](thetas[:, k])) for k in range(d)], axis=1)
        fv = np.stack([np.asarray(self.f[k](thetas[:, k])) for k in range(d)], axis=1)
        out = np.empty((m, d, d))
        for i in range(d):
            for j in range(d):
                factors = np.ones(m)
                for k in range(d):
                    if k == i == j:
                        factors = factors * fv[:, k]
                    elif k in (i, j):
                        factors = factors * gv[:, k]
                    else:
                        factors = factors * hv[:, k]
                out[:, i, j] = factors
        return out


def md_symbol_samples(problem: ProblemMD, geometry: GeometryMapMD,
                      count: int, symbols: DirectionSymbols | None = None) -> SymbolDraw:
    """Draw of the symbol  nu (J^{-1} K(G) J^{-T} o H(theta)) nu^T.

    :func:`spectral.symbol_sampler` with a term per matrix entry; direction
    k's bandwidth is the largest Fourier index of its ``h``, ``g`` and ``f``.
    A Jacobian that is singular at a sampled point is refused.
    """
    d = problem.d
    if symbols is None:
        symbols = DirectionSymbols(problem.degrees, problem.families, problem.mode)
    nu = np.asarray(problem.nu, dtype=float)

    def coefficients(xpts: np.ndarray) -> np.ndarray:
        jac = geometry.jacobian_at(xpts)
        dets = np.linalg.det(jac)
        if np.min(np.abs(dets)) < 1e-12:
            bad = xpts[int(np.argmin(np.abs(dets)))]
            raise ValidationError(f"geometry Jacobian singular near {bad.tolist()}")
        return _pullback(problem, geometry, xpts, jac)[1].reshape(xpts.shape[0], d * d)

    def weights(tpts: np.ndarray) -> np.ndarray:
        h = np.einsum("i,nij,j->nij", nu, symbols.matrix_batch(tpts), nu)
        return h.reshape(tpts.shape[0], d * d).T

    bandwidths = [max(s.coefficients.size - 1 for s in (h, g, f))
                  for h, g, f in zip(symbols.h, symbols.g, symbols.f)]
    return symbol_sampler(coefficients, weights, bandwidths)(count)
