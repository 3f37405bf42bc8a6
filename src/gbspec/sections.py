"""Exact algebra for functions that are piecewise in a section space.

A section space of degree ``p`` is spanned by the monomials ``1, t, ...,
t**(p-2)`` together with a pair ``(u, v)`` that depends on the family:

* polynomial:     ``u = t**(p-1)``, ``v = t**p``
* hyperbolic:     ``u = cosh(eps*t)``, ``v = sinh(eps*t)``
* trigonometric:  ``u = cos(eps*t)``,  ``v = sin(eps*t)``

Every piece is stored in local coordinates ``tau in [0, 1)`` of its interval,
so a global phase ``alpha`` turns into the effective phase ``eps = alpha *
width`` on each interval.  All three families are closed under
differentiation, and antidifferentiation lands in the degree ``p+1`` space,
which is what makes the recursive spline constructions exact instead of
quadrature-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, UsageError

POLYNOMIAL = "polynomial"
HYPERBOLIC = "hyperbolic"
TRIGONOMETRIC = "trigonometric"

_FAMILIES = (POLYNOMIAL, HYPERBOLIC, TRIGONOMETRIC)


@dataclass(frozen=True)
class SectionFamily:
    """Section-space family: a tag plus the (global) phase parameter.

    The phase is expressed per unit of the global coordinate; an interval of
    width ``w`` uses the effective phase ``phase * w``.  Polynomial sections
    carry no phase.
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

    def effective(self, width: float) -> float:
        """Effective phase on an interval of the given width (0 if polynomial)."""
        if self.is_polynomial:
            return 0.0
        return self.phase * width

    def check_interval(self, width: float) -> None:
        """Validate the per-interval feasibility constraint."""
        if self.tag == TRIGONOMETRIC and not self.phase * width < math.pi:
            raise ConstraintError(
                f"trigonometric phase {self.phase} infeasible on interval of "
                f"width {width} (effective phase must stay below pi)"
            )


def polynomial() -> SectionFamily:
    return SectionFamily(POLYNOMIAL)


def hyperbolic(alpha: float) -> SectionFamily:
    return SectionFamily(HYPERBOLIC, float(alpha))


def trigonometric(alpha: float) -> SectionFamily:
    return SectionFamily(TRIGONOMETRIC, float(alpha))


def _basis_matrix(family: SectionFamily, p: int, eps: np.ndarray,
                  tau: np.ndarray) -> np.ndarray:
    """Stack the p+1 basis values at each (eps, tau) pair; shape (len(tau), p+1)."""
    tau = np.asarray(tau, dtype=float)
    out = np.empty((tau.size, p + 1))
    if p == 0:
        out[:, 0] = 1.0
        return out
    for j in range(p - 1):
        out[:, j] = tau**j
    if family.is_polynomial:
        out[:, p - 1] = tau ** (p - 1)
        out[:, p] = tau**p
    elif family.tag == HYPERBOLIC:
        out[:, p - 1] = np.cosh(eps * tau)
        out[:, p] = np.sinh(eps * tau)
    else:
        out[:, p - 1] = np.cos(eps * tau)
        out[:, p] = np.sin(eps * tau)
    return out


@dataclass(frozen=True)
class PiecewiseFn:
    """Function piecewise in a degree-``p`` section space over a breakpoint grid.

    ``coeffs[i]`` holds the local-basis coefficients on
    ``[breakpoints[i], breakpoints[i+1])``.  Values are 0 outside the span,
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
        if self.family.tag == TRIGONOMETRIC:
            self.family.check_interval(float(widths.max()))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_widths", widths)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def _eff_phases(self) -> np.ndarray:
        if self.family.is_polynomial:
            return np.zeros_like(self._widths)
        return self.family.phase * self._widths

    def __call__(self, x):
        return piecewise_eval(self, x)

    def scaled(self, factor: float) -> "PiecewiseFn":
        return PiecewiseFn(self.family, self.degree, self.breakpoints,
                           self.coeffs * factor)

    def integral(self) -> float:
        """Integral over the whole span (exact, via antidifferentiation)."""
        anti = piecewise_antiderivative(self)
        end = _basis_matrix(anti.family, anti.degree,
                            anti._eff_phases()[-1:], np.array([1.0]))
        return _dot2(end[0], anti.coeffs[-1])


_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_prod(a, b):
    """Dekker's TwoProduct: ``a*b`` and its rounding error, for floats or arrays."""
    p = a * b
    a1 = a * _SPLIT
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * _SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sum2(prods, errs):
    """Compensated sum of TwoProduct pairs, in order (the tail of Dot2).

    The pairs are floats, or equal-length arrays summed element by element
    in whole-array steps: the running sums and the correction sum are each
    one sequential ``np.add.accumulate``, with the float loop's operations.
    """
    if isinstance(prods[0], float):
        s = 0.0
        c = 0.0
        for p, e in zip(prods, errs):
            t = s + p
            z = t - s
            c += e + ((s - (t - z)) + (p - z))
            s = t
        return s + c
    zero = np.zeros_like(prods[:1])  # both sums start from +0.0, as in the loop
    sums = np.add.accumulate(np.concatenate([zero, prods]))
    s, t = sums[:-1], sums[1:]
    z = t - s
    terms = errs + ((s - (t - z)) + (prods - z))
    return t[-1] + np.add.accumulate(np.concatenate([zero, terms]))[-1]


def _dot2(a, b):
    """Compensated dot product (Ogita-Rump-Oishi Dot2).

    The hyperbolic basis pair {cosh, sinh} is ill-conditioned at large
    effective phases, so the integration-constant chain is accumulated in
    roughly doubled precision to keep normalization factors at full accuracy.
    ``b`` is one row, giving a float, or a stack of rows, giving one Dot2
    of ``a`` with each row.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as with floats
        prods, errs = _two_prod(np.asarray(a, dtype=float),
                                np.asarray(b, dtype=float))
        if prods.ndim == 1:
            return _sum2(prods.tolist(), errs.tolist())
        return _sum2(prods.T, errs.T)


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
    eps = f._eff_phases()[idx]
    basis = _basis_matrix(f.family, f.degree, eps, tau)
    vals = np.zeros(xs.shape)
    vals[inside] = np.einsum("ij,ij->i", basis, f.coeffs[idx])
    return float(vals[0]) if scalar else vals


def _local_derivative(family: SectionFamily, p: int, eps, c: np.ndarray) -> np.ndarray:
    """d/dtau of coefficient rows, expressed in the same degree-p basis.

    ``c`` is one row or a stack of rows (last axis the p+1 slots), with one
    effective phase ``eps`` per row.
    """
    out = np.zeros_like(c)
    if p == 0:
        return out
    for j in range(1, p - 1):
        out[..., j - 1] += j * c[..., j]
    if family.is_polynomial:
        if p == 1:
            out[..., 0] += c[..., 1]  # u = 1, v = tau
        else:
            out[..., p - 2] += (p - 1) * c[..., p - 1]
            out[..., p - 1] += p * c[..., p]
    elif family.tag == HYPERBOLIC:
        out[..., p - 1] += eps * c[..., p]
        out[..., p] += eps * c[..., p - 1]
    else:
        out[..., p - 1] += eps * c[..., p]
        out[..., p] += -eps * c[..., p - 1]
    return out


def piecewise_derivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact derivative, represented at the same degree.

    Monomial slots shift down; the (u, v) pair maps within its own span,
    scaled by the effective phase.  Degree-0 input yields the zero function.
    """
    out = (_local_derivative(f.family, f.degree, f._eff_phases(), f.coeffs)
           / f._widths[:, None])
    return PiecewiseFn(f.family, f.degree, f.breakpoints, out)


def _local_primitive(family: SectionFamily, p: int, eps,
                     c: np.ndarray) -> np.ndarray:
    """Primitive of coefficient rows (vanishing at tau=0) in the degree-p+1 basis.

    ``c`` is one row or a stack of rows (last axis the p+1 slots), with one
    effective phase ``eps`` per row.
    """
    out = np.zeros(c.shape[:-1] + (p + 2,))
    if p == 0:
        out[..., 1] = c[..., 0]  # degree-1 polynomial basis is {1, tau}
        return out
    out[..., 1:p] += c[..., :p - 1] / np.arange(1.0, p)
    if family.is_polynomial:
        out[..., p] += c[..., p - 1] / p
        out[..., p + 1] += c[..., p] / (p + 1)
    elif family.tag == HYPERBOLIC:
        # int cosh = sinh/eps ; int sinh = (cosh - 1)/eps
        out[..., p + 1] += c[..., p - 1] / eps
        out[..., p] += c[..., p] / eps
        out[..., 0] -= c[..., p] / eps
    else:
        # int cos = sin/eps ; int sin = (1 - cos)/eps
        out[..., p + 1] += c[..., p - 1] / eps
        out[..., p] -= c[..., p] / eps
        out[..., 0] += c[..., p] / eps
    return out


def _antiderivative_stack(family: SectionFamily, p: int, eps: np.ndarray,
                          widths: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivatives of a stack of piecewise functions.

    ``coeffs`` has shape ``(S, m, p+1)``: S functions of degree ``p`` on one
    grid of m pieces with effective phases ``eps`` and widths ``widths``.
    The result, of shape ``(S, m, p+2)``, is what
    :func:`piecewise_antiderivative` gives for each function on its own.
    """
    m = coeffs.shape[1]
    out = _local_primitive(family, p, eps, coeffs) * widths[:, None]
    # degree-(p+1) basis rows at tau = 1, the right end of every piece
    ends = _basis_matrix(family, p + 1, eps, np.ones(m))
    # The constant of piece i is the Dot2 of ends[i-1] and row i-1, whose
    # constant slot holds the previous constant.  Every other product of the
    # chain is known up front, so only slot 0 and the sums run per piece,
    # on one column of S values per slot (plain floats when S = 1).
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as with floats
        prods, errs = _two_prod(ends, out)  # slot 0 is redone in the chain
        if coeffs.shape[0] == 1:
            heads, prods, errs = (a[0].tolist() for a in (out[..., 0], prods, errs))
        else:
            heads = out[..., 0].T
            prods, errs = (np.ascontiguousarray(np.moveaxis(a, 0, -1))
                           for a in (prods, errs))
        chained = []
        acc = 0.0
        for head, end, prod, err in zip(heads, ends[:, 0].tolist(), prods, errs):
            head = head + acc
            chained.append(head)
            prod[0], err[0] = _two_prod(end, head)
            acc = _sum2(prod, err)
    out[..., 0] = np.transpose(chained)
    return out


def piecewise_antiderivative(f: PiecewiseFn) -> PiecewiseFn:
    """Exact antiderivative ``F(x) = int_{left}^{x} f``, of degree ``p+1``.

    Integration constants propagate across intervals, so ``F`` is continuous;
    outside the span the compact-support convention of :class:`PiecewiseFn`
    applies (in particular ``F`` at the last breakpoint is the total integral).
    """
    out = _antiderivative_stack(f.family, f.degree, f._eff_phases(), f._widths,
                                f.coeffs[None])
    return PiecewiseFn(f.family, f.degree + 1, f.breakpoints, out[0])
