"""Exact algebra for functions that are piecewise in a section space.

Every piece is stored in local coordinates ``tau in [0, 1]`` of its interval,
and the phase belongs to the pieces: a family's phase ``eps`` is the
effective phase of every piece on its local coordinate, whatever the
piece's width.  The three families are one section space in the signed
square of that phase, :attr:`SectionFamily.signed_square`: ``s = eps**2``
for hyperbolic sections, ``-eps**2`` for trigonometric ones and ``0`` for
polynomials.  ``s`` is the only parameter of the algebra: every section
function takes the degree and ``s``.  On the centred coordinate
``sigma = tau - 1/2`` the degree-``p`` section space is spanned by

    1, sigma, ..., sigma**(p-2),   u = R_{p-1}/N_{p-1},   v = R_p/N_p,

    R_k(sigma) = sum_{m >= 0} s**m sigma**(k+2m) / (k+2m)!,   N_k = R_k(1/2),

the normalised exponential remainders (``R_k`` is ``cosh`` or ``sinh`` of
``eps*sigma`` less its Taylor terms below degree ``k``, over ``eps**k``; for
``s = 0`` it is ``sigma**k/k!``).  Differentiation and integration only
shift ``k``, so no step divides by the phase and one formula serves every
``s``.  ``u`` and ``v`` are 1 at ``tau = 1`` and ``(-1)**(p-1)``,
``(-1)**p`` at ``tau = 0``; as ``s`` tends to 0 they tend to
``(2 sigma)**(p-1)`` and ``(2 sigma)**p``.  Antidifferentiation lands in the
degree ``p+1`` space, which is what makes the recursive spline
constructions exact instead of quadrature-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConstraintError, UsageError

POLYNOMIAL = "polynomial"
HYPERBOLIC = "hyperbolic"
TRIGONOMETRIC = "trigonometric"

_FAMILIES = (POLYNOMIAL, HYPERBOLIC, TRIGONOMETRIC)


@dataclass(frozen=True)
class SectionFamily:
    """Section-space family: a tag plus the phase parameter.

    The phase belongs to the pieces: it is the effective phase of every
    piece on its local coordinate ``tau in [0, 1]``, whatever the piece's
    width.  Polynomial sections carry no phase.
    """

    tag: str
    phase: float | None = None

    def __post_init__(self):
        if self.tag not in _FAMILIES:
            raise UsageError(f"unknown section family {self.tag!r}")
        if self.tag == POLYNOMIAL:
            if self.phase is not None:
                raise UsageError("polynomial sections take no phase")
        else:
            if self.phase is None or not self.phase > 0:
                raise ConstraintError(f"{self.tag} phase must be positive")

    @property
    def is_polynomial(self) -> bool:
        return self.tag == POLYNOMIAL

    @property
    def signed_square(self) -> float:
        """``s``: the phase squared, negated for trigonometric sections, 0 for
        polynomials; the one parameter of the section space."""
        if self.is_polynomial:
            return 0.0
        square = self.phase * self.phase
        return square if self.tag == HYPERBOLIC else -square

    def check_interval(self) -> None:
        """Validate the per-piece feasibility constraint."""
        if self.tag == TRIGONOMETRIC and not self.phase < math.pi:
            raise ConstraintError(
                f"trigonometric phase {self.phase} infeasible "
                "(effective phase must stay below pi)"
            )


def polynomial() -> SectionFamily:
    return SectionFamily(POLYNOMIAL)


def hyperbolic(alpha: float) -> SectionFamily:
    return SectionFamily(HYPERBOLIC, float(alpha))


def trigonometric(alpha: float) -> SectionFamily:
    return SectionFamily(TRIGONOMETRIC, float(alpha))


@lru_cache(maxsize=4096)
def _coefficients(s: float, k: int) -> tuple:
    """``k!/(k+2m)!`` for the terms ``m`` of ``G_k`` that reach rounding at ``s``.

    On ``|sigma| <= 1/2`` the terms left out sum to less than 1e-20 of the
    sum of magnitudes.
    """
    x = abs(s) / 4.0
    out = [1.0]
    total = term = 1.0
    while term > 1e-20 * total:
        m = len(out)
        term *= x / ((k + 2 * m - 1) * (k + 2 * m))
        total += term
        out.append(math.factorial(k) / math.factorial(k + 2 * m))
    return tuple(out)


def _series(s: float, k: int, sigma):
    """``G_k(s sigma**2) = sum_m (s sigma**2)**m k!/(k+2m)!`` at a float or array ``sigma``.

    ``G_0`` is ``cosh`` or ``cos`` of ``sqrt(|s|) sigma``, taken from the
    library, since its alternating sum cancels for phases near pi; from
    ``k = 1`` on the sum is well conditioned and is summed by Horner's rule.
    """
    if k == 0:
        root = math.sqrt(abs(s))
        return np.cosh(root * sigma) if s >= 0 else np.cos(root * sigma)
    x = s * sigma**2
    coefficients = _coefficients(s, k)
    acc = np.full(np.shape(x), coefficients[-1])
    for c in reversed(coefficients[:-1]):
        acc *= x
        acc += c
    return acc


@lru_cache(maxsize=4096)
def _norm_at(s: float, k: int) -> float:
    """``G_k(s/4) = 2**k k! N_k``, which is 1 for polynomials."""
    return float(_series(s, k, 0.5))


@lru_cache(maxsize=None)
def _edge_row(p: int, side: float) -> np.ndarray:
    """The degree-``p`` basis at ``tau = 1`` (``side = 1``) or ``tau = 0`` (``side = -1``).

    It is ``(side/2)**j`` for the monomials, then ``side**(p-1)`` and
    ``side**p`` for ``u`` and ``v``, whatever the family and phase.
    """
    row = np.r_[(side / 2.0) ** np.arange(p - 1), side ** (p - 1), side ** p]
    row = row if p else np.ones(1)
    row.flags.writeable = False  # shared by every caller
    return row


def _at_edge(rows: np.ndarray, side: float = 1.0) -> np.ndarray:
    """Values at ``tau = 1`` (``side = 1``) or ``tau = 0`` (``side = -1``) of
    coefficient rows (last axis the slots), from the constant edge row."""
    return np.sum(rows * _edge_row(rows.shape[-1] - 1, side), axis=-1)


def _basis_matrix(p: int, s: float, tau) -> np.ndarray:
    """Stack the p+1 basis values at each ``tau``, at the signed square ``s``.

    The shape is ``(len(tau), p+1)``.  ``u`` and ``v`` are ``(2 sigma)**k
    G_k(s sigma**2)/G_k(s/4)`` for ``k = p-1, p``.
    """
    sigma = np.asarray(tau, dtype=float).ravel() - 0.5
    slots = np.ones((p + 1, sigma.size))  # one row per slot, transposed at the end
    if p == 0:
        return slots.T.copy()
    for j in range(1, p + 1):  # sigma**j by products: pow is slow for sigma < 0
        slots[j] = slots[j - 1] * sigma
    slots[p - 1:] *= [[2.0 ** (p - 1)], [2.0**p]]
    if s != 0.0:  # G_k = 1 for polynomials
        for k in (p - 1, p):
            slots[k] *= _series(s, k, sigma) / _norm_at(s, k)
    return slots.T.copy()  # row-major, as every caller's einsum expects


@dataclass(frozen=True)
class PiecewiseFn:
    """Function piecewise in a degree-``p`` section space over a breakpoint grid.

    ``coeffs[i]`` holds the local-basis coefficients on
    ``[breakpoints[i], breakpoints[i+1])``.  ``family`` is the family of the
    pieces on their local coordinate: every piece has the effective phase
    ``family.phase``, and the breakpoints only place the pieces and scale
    derivatives and integrals.  Values are 0 outside the span,
    right-continuous at interior breakpoints, and the last breakpoint
    evaluates as the left limit.
    """

    family: SectionFamily
    degree: int
    breakpoints: np.ndarray
    coeffs: np.ndarray
    _widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.ascontiguousarray(np.asarray(self.breakpoints, dtype=float))
        cf = np.ascontiguousarray(np.asarray(self.coeffs, dtype=float))
        widths = np.diff(bp)
        if bp.ndim != 1 or bp.size < 2 or not np.all(widths > 0):
            raise UsageError("breakpoints must be strictly increasing, length >= 2")
        if cf.shape != (bp.size - 1, self.degree + 1):
            raise UsageError(
                f"coefficient array must have shape {(bp.size - 1, self.degree + 1)}"
            )
        if self.degree == 0 and not self.family.is_polynomial:
            raise UsageError("degree-0 pieces are supported for polynomials only")
        self.family.check_interval()
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_widths", widths)

    def __call__(self, x):
        return piecewise_eval(self, x)


def piecewise_eval(f: PiecewiseFn, x):
    """Evaluate ``f`` at scalar or array ``x`` (0 outside the support)."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    bp = f.breakpoints
    inside = (xs >= bp[0]) & (xs <= bp[-1])
    xin = xs[inside]
    # the right endpoint evaluates as the left limit of the last piece
    idx = np.minimum(np.searchsorted(bp, xin, side="right") - 1, bp.size - 2)
    tau = (xin - bp[idx]) / f._widths[idx]
    tau[xin == bp[-1]] = 1.0
    basis = _basis_matrix(f.degree, f.family.signed_square, tau)
    vals = np.zeros(xs.shape)
    vals[inside] = np.einsum("ij,ij->i", basis, f.coeffs[idx])
    return float(vals[0]) if scalar else vals


def _local_derivative(p: int, s: float, c: np.ndarray) -> np.ndarray:
    """d/dtau of coefficient rows, expressed in the same degree-p basis.

    ``c`` is one row or a stack of rows (last axis the p+1 slots), all at
    the signed square ``s``.  With ``G_k = 2**k k! N_k``:
    ``u' = sigma**(p-2)/((p-2)! N_{p-1}) + s (N_p/N_{p-1}) v`` (no monomial
    term for ``p = 1``) and ``v' = (N_{p-1}/N_p) u``.
    """
    out = np.zeros_like(c)
    if p == 0:
        return out
    for j in range(1, p - 1):
        out[..., j - 1] += j * c[..., j]
    gu, gv = (_norm_at(s, k) for k in (p - 1, p))
    if p > 1:
        out[..., p - 2] += (p - 1) * 2.0 ** (p - 1) / gu * c[..., p - 1]
    out[..., p - 1] += 2 * p * gu / gv * c[..., p]
    out[..., p] += s * gv / (2 * p * gu) * c[..., p - 1]
    return out


def _local_primitive(p: int, s: float, c: np.ndarray) -> np.ndarray:
    """Primitive of coefficient rows (vanishing at tau=0) in the degree-p+1 basis.

    ``c`` is one row or a stack of rows (last axis the p+1 slots), all at
    the signed square ``s``.  ``sigma**j`` goes to
    ``sigma**(j+1)/(j+1)``, ``u`` to ``(N_p/N_{p-1}) u+`` and ``v`` to
    ``(N_{p+1}/N_p) v+``; the constant slot then subtracts the value at
    tau = 0.
    """
    out = np.zeros(c.shape[:-1] + (p + 2,))
    if p == 0:
        out[..., :2] = c / 2.0  # tau = (u + v)/2 in the degree-1 basis
        return out
    out[..., 1:p] = c[..., :p - 1] / np.arange(1.0, p)
    gu, gv, gw = (_norm_at(s, k) for k in (p - 1, p, p + 1))
    out[..., p] = gv / (2 * p * gu) * c[..., p - 1]
    out[..., p + 1] = gw / (2 * (p + 1) * gv) * c[..., p]
    out[..., 0] = -_at_edge(out, -1.0)
    return out


def _antiderivative_stack(p: int, s: float, widths: np.ndarray,
                          coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivatives of a stack of piecewise functions.

    ``coeffs`` has shape ``(S, m, p+1)``: S functions of degree ``p`` on one
    grid of m pieces of widths ``widths``, every piece at the signed
    square ``s``.  The result, of shape ``(S, m, p+2)``, holds each
    function's exact antiderivative from the left end of the grid, of
    degree ``p+1``: the integration constants carry across the pieces, so
    it is continuous.  ``coeffs`` may also be one function, ``(m, p+1)``.
    """
    out = _local_primitive(p, s, coeffs) * widths[:, None]
    # each piece's integral is its primitive at tau = 1, where the basis row
    # is a constant; the integration constants are their running sums
    steps = _at_edge(out)
    out[..., 1:, 0] += np.cumsum(steps[..., :-1], axis=-1)
    return out
