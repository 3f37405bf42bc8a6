"""Direction bases and the symbol of the collocation matrices, for d = 1, 2, 3.

Basis functions are products of 1D GB-splines (families, degrees and phases
may differ per direction), collocated at tensor Greville points under the
standard lexicographic ordering with the last index varying fastest.
:func:`direction_bases` builds the 1D basis of each direction of a
:class:`~gbspec.collocation.Problem`, and
:func:`~gbspec.collocation.collocation_matrix` assembles the matrix from
their samples; d = 1 is the one-direction case.

The symbol couples the PDE coefficient matrix, the geometry Jacobian, and a
d-by-d matrix of 1D symbols: diffusion symbols ``f`` on the diagonal,
products of advection symbols ``g`` off the diagonal, and value symbols
``h`` in the remaining directions.  For d = 1 it is  kappa(G)/G'^2 f.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .collocation import (NESTED, NONNESTED, GBBasis, Geometry, Problem,
                          _pullback, collocation_matrix, gb_basis,
                          greville_samples, limit_family)
from .errors import UsageError, ValidationError
from .sections import SectionFamily
from .spectral import Sampler, SymbolDraw, check_order, symbol_sampler
from .symbols import symbol_fns


def direction_bases(problem: Problem, geometry: Geometry, n: int) -> list[GBBasis]:
    """The 1D basis of each direction at ``n``, after every check of
    :func:`assemble_md`.

    The system order, one row per spline N_2..N_{n+p-1} of each direction,
    is checked against :data:`~gbspec.spectral.DEFAULT_ORDER_CAP` before any
    basis is built, so whatever :func:`assemble_md` refuses is refused at
    the cost of the bases at most.
    """
    d = problem.d
    if geometry.d != d:
        raise ValidationError("geometry dimension disagrees with the problem")
    if d == 3 and not geometry.is_identity:
        raise UsageError("d = 3 supports the identity geometry only")
    sizes = [nu * n for nu in problem.nu]
    check_order(math.prod(max(m + p - 2, 0) for m, p in zip(sizes, problem.degrees)),
                "order" if d == 1 else "system order")
    return [gb_basis(m, p, family, problem.mode)
            for m, p, family in zip(sizes, problem.degrees, problem.families)]


def assemble_md(problem: Problem, geometry: Geometry, n: int) -> np.ndarray:
    """The collocation matrix at ``n`` (unnormalized): the
    :func:`~gbspec.collocation.collocation_matrix` of :func:`direction_bases`."""
    bases = direction_bases(problem, geometry, n)
    return collocation_matrix(problem, geometry, [greville_samples(b) for b in bases])


class DirectionSymbols:
    """Per-direction 1D limit symbols backing the symbol matrix.

    One direction needs its ``f`` only; several need ``h``, ``g`` and ``f``
    of each.  A symbol not needed is None.
    """

    def __init__(self, degrees: Sequence[int], families: Sequence[SectionFamily],
                 mode: str):
        if mode not in (NESTED, NONNESTED):
            raise UsageError(f"unknown phase mode {mode!r}")
        self.degrees = tuple(degrees)
        kinds = ("h", "g", "f") if len(self.degrees) > 1 else ("f",)
        per_direction = [dict(zip(kinds, symbol_fns([(k, p) for k in kinds],
                                                    limit_family(f, mode))))
                         for p, f in zip(self.degrees, families)]
        self.h, self.g, self.f = ([s.get(k) for s in per_direction] for k in "hgf")

    @property
    def bandwidths(self) -> list[int]:
        """Direction k's largest Fourier index over its symbols."""
        return [max(s.coefficients.size - 1 for s in syms if s is not None)
                for syms in zip(self.h, self.g, self.f)]

    def matrix_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Symbol matrices for a batch of frequency vectors, shape (m, d, d)."""
        thetas = np.asarray(thetas, dtype=float)
        m, d = thetas.shape
        vals = {kind: np.stack([np.asarray(fns[k](thetas[:, k])) for k in range(d)],
                               axis=1)
                for kind, fns in zip("hgf", (self.h, self.g, self.f))
                if fns[0] is not None}
        out = np.empty((m, d, d))
        for i in range(d):
            for j in range(d):
                factors = np.ones(m)
                for k in range(d):
                    kind = "f" if k == i == j else "g" if k in (i, j) else "h"
                    factors = factors * vals[kind][:, k]
                out[:, i, j] = factors
        return out


def md_symbol_samples(problem: Problem, geometry: Geometry,
                      count: int, symbols: DirectionSymbols | None = None) -> SymbolDraw:
    """One draw of :func:`problem_sampler`."""
    return problem_sampler(problem, geometry, symbols)(count)


def problem_sampler(problem: Problem, geometry: Geometry,
                    symbols: DirectionSymbols | None = None) -> Sampler:
    """Sampler of the symbol  nu (J^{-1} K(G) J^{-T} o H(theta)) nu^T, d = 1, 2, 3.

    :func:`spectral.symbol_sampler` with a term per matrix entry; direction
    k's bandwidth is the largest Fourier index of its symbols.  Its moments
    are computed when it is built, so a Jacobian singular at a quadrature
    point is refused then, and one singular at a lattice point on a draw
    (by :func:`~gbspec.collocation._pullback`).
    """
    d = problem.d
    if symbols is None:
        symbols = DirectionSymbols(problem.degrees, problem.families, problem.mode)
    nu = np.asarray(problem.nu, dtype=float)

    def coefficients(xpts: np.ndarray) -> np.ndarray:
        return _pullback(problem, geometry, xpts)[2].reshape(xpts.shape[0], d * d)

    def weights(tpts: np.ndarray) -> np.ndarray:
        h = np.einsum("i,nij,j->nij", nu, symbols.matrix_batch(tpts), nu)
        return h.reshape(tpts.shape[0], d * d).T

    return symbol_sampler(coefficients, weights, symbols.bandwidths)
