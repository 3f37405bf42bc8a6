"""Spectral symbols generated by cardinal splines, with bounds and decay checks.

Three trigonometric polynomials are attached to each family and degree:

* ``h`` - cosine series of spline values at the points (p+1)/2 - k,
* ``g`` - sine series of first-derivative samples (advection symbol),
* ``f`` - cosine series of negated second-derivative samples (diffusion
  symbol).

All three exist in a finite-sum form (the authoritative one, used for
Toeplitz generation), an infinite-series form built from Fourier transforms
(valid from a kind-dependent minimal degree), and explicit closed forms for
low degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cardinal import _derivative_rows, _phi1_hat, cardinal_splines
from .errors import UsageError
from .sections import (HYPERBOLIC, POLYNOMIAL, SectionFamily, _basis_matrix,
                       _local_derivative)

KINDS = ("h", "g", "f")
_MIN_DEGREE = {"h": 1, "g": 2, "f": 2}
_MIN_SERIES_DEGREE = {"h": 3, "g": 4, "f": 5}
#: fewest theta points bounds_report accepts
MIN_BOUNDS_GRID = 64

# Numerical slack when counting bound violations on a grid: the bounds are
# sharp (equality at theta = 0), so exact comparisons would trip on rounding.
_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class SymbolFn:
    """Evaluable symbol with its finite Fourier coefficient list.

    ``coefficients[k]`` is the sample at (p+1)/2 - k of the spline (h), its
    first derivative (g) or second derivative (f), for k = 0..floor(p/2).
    """

    kind: str
    degree: int
    family: SectionFamily
    coefficients: np.ndarray
    _k: np.ndarray = field(init=False, repr=False, compare=False)
    _tail: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_k", np.arange(1, self.coefficients.size))
        object.__setattr__(self, "_tail", self.coefficients[1:])

    def __call__(self, theta):
        # a float theta, as symbol_max takes it, needs no outer product
        if isinstance(theta, float):
            arg = theta * self._k
        else:
            arg = np.multiply.outer(np.asarray(theta, dtype=float), self._k)
        return self.from_table(np.sin(arg) if self.kind == "g" else np.cos(arg))

    def from_table(self, table):
        """The symbol from ``table``, the cosine (h, f) or sine (g) of theta*k.

        ``table[..., k-1]`` holds the value for k = 1..floor(p/2); h and f of
        one degree take the same cosine table.
        """
        c0 = self.coefficients[0]
        if self.kind == "h":
            return c0 + 2.0 * table @ self._tail
        if self.kind == "g":
            return -2.0 * table @ self._tail
        return -c0 - 2.0 * table @ self._tail

    def toeplitz_coefficients(self) -> np.ndarray:
        """Fourier coefficients c_k, k = -b..b, of the symbol.

        Real for the even kinds h and f; purely imaginary for g, whose
        Toeplitz matrix enters the advection split as i T(g).
        """
        c = self.coefficients
        b = c.size - 1
        if self.kind in ("h", "f"):
            sign = 1.0 if self.kind == "h" else -1.0
            return sign * c[np.abs(np.arange(-b, b + 1))]
        out = np.zeros(2 * b + 1, dtype=complex)
        for k in range(1, b + 1):
            out[b + k] = 1j * c[k]
            out[b - k] = -1j * c[k]
        return out


def symbol_fn(kind: str, p: int, family: SectionFamily) -> SymbolFn:
    """Build a symbol from exact cardinal-spline (derivative) samples."""
    return symbol_fns([(kind, p)], family)[0]


def symbol_fns(requests, family: SectionFamily) -> list[SymbolFn]:
    """:func:`symbol_fn` of each ``(kind, p)`` in ``requests``, in order.

    The splines they sample come from one cardinal recursion.
    """
    for kind, p in requests:
        if kind not in KINDS:
            raise UsageError(f"unknown symbol kind {kind!r}")
        if p < _MIN_DEGREE[kind]:
            raise UsageError(f"kind {kind!r} requires degree >= {_MIN_DEGREE[kind]}")
    orders = [KINDS.index(kind) for kind, _ in requests]  # derivative orders
    # the derivative recurrence samples a lower-degree spline, which keeps
    # the coefficients O(1) at large phases; it does not cover the second
    # derivative of the degree-2 spline, which is taken from that spline
    degrees = [p if r >= p else p - r for (_, p), r in zip(requests, orders)]
    out = []
    for (kind, p), r, cs in zip(requests, orders, cardinal_splines(family, degrees)):
        s = cs.pw.family.signed_square
        rows = cs.pw.coeffs  # one row per unit interval
        if cs.degree == p:
            for _ in range(r):
                rows = _local_derivative(p, s, rows)
        else:
            rows = _derivative_rows(rows, r)
        # the sample at (p+1)/2 - k lies on piece (p+1)//2 - k, at its
        # midpoint for even p and at its left end for odd p
        pieces = (p + 1) // 2 - np.arange(0, p // 2 + 1)
        tau = np.full(pieces.size, 0.5 if p % 2 == 0 else 0.0)
        basis = _basis_matrix(rows.shape[1] - 1, s, tau)
        out.append(SymbolFn(kind, p, family,
                            np.einsum("ij,ij->i", basis, rows[pieces])))
    return out


def symbol_series(kind: str, p: int, family: SectionFamily, theta: float,
                  trunc: int) -> float:
    """Partial sum over |k| <= trunc of the infinite-series representation.

    Only valid from degree 3 (h), 4 (g) or 5 (f); below that the finite-sum
    form must be used.
    """
    if kind not in KINDS:
        raise UsageError(f"unknown symbol kind {kind!r}")
    if p < _MIN_SERIES_DEGREE[kind]:
        raise UsageError(
            f"series form of {kind!r} requires degree >= {_MIN_SERIES_DEGREE[kind]}"
        )
    if trunc < 1:
        raise UsageError("truncation index must be >= 1")
    th = float(theta)
    ks = np.arange(-trunc, trunc + 1)
    shifted = th + 2.0 * math.pi * ks
    half = th / 2.0 + math.pi * ks
    sinc = np.sinc(half / math.pi)
    phi1 = _phi1_hat(family, shifted) * np.exp(1j * th)
    if kind == "h":
        terms = phi1 * sinc ** (p - 1)
    elif kind == "g":
        terms = -2.0 * phi1 * sinc ** (p - 2) * np.sin(half)
    else:
        terms = 4.0 * phi1 * sinc ** (p - 3) * np.sin(half) ** 2
    return float(np.sum(terms).real)


def _h2_shape(family: SectionFamily, theta):
    """Closed-form h_2: c1*cos(theta) - c2, shared by f_4."""
    if family.is_polynomial:
        return 0.25 * np.cos(theta) + 0.75
    a = family.phase
    fn = math.cosh if family.tag == HYPERBOLIC else math.cos
    denom = fn(a) - 1.0
    return ((fn(a / 2) - 1.0) / denom) * np.cos(theta) - (fn(a / 2) - fn(a)) / denom


def symbol_closed_form(kind: str, p: int, family: SectionFamily, theta):
    """Literal transcription of the tabulated low-degree closed forms.

    Available pairs: h1, h2, g2, f2, g3, f3, f4 (each for all families).
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
    if kind == "g" and p == 2:
        if tag == POLYNOMIAL:
            return -np.sin(th)
        if tag == HYPERBOLIC:
            return -(a * math.sinh(a / 2.0) / (math.cosh(a) - 1.0)) * np.sin(th)
        return (a * math.sin(a / 2.0) / (math.cos(a) - 1.0)) * np.sin(th)
    if kind == "f" and p == 2:
        if tag == POLYNOMIAL:
            return 2.0 - 2.0 * np.cos(th)
        if tag == HYPERBOLIC:
            amp = a * a * math.cosh(a / 2.0) / (math.cosh(a) - 1.0)
        else:
            amp = a * a * math.cos(a / 2.0) / (1.0 - math.cos(a))
        return amp * (1.0 - np.cos(th))
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


def lower_bound_residual(p: int, family: SectionFamily, theta) -> np.ndarray:
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


def symbol_max(s: SymbolFn) -> float:
    """Maximum over [-pi, pi], from the critical points of ``s``.

    With x = cos(theta), h and f are Chebyshev series P(x) (coefficients
    c0, 2c1, 2c2, ..., negated for f), so their maximum lies at theta = 0,
    theta = pi or arccos of a root of P' in [-1, 1].  The derivative of g is
    a cosine series, so g's lies at 0, pi or +-arccos of one of its roots.
    The roots are the eigenvalues of a colleague matrix of order below p/2;
    each candidate is evaluated through ``s`` itself, so a maximum at pi is
    exactly ``s(pi)``.
    """
    # reached at call time, as spectral reaches legendre: importing
    # numpy.polynomial costs every fresh process a few milliseconds
    chebyshev = np.polynomial.chebyshev
    if s.kind == "g":
        # g'(theta) = -2 sum k c_k cos(k theta); its roots do not need the sign
        series = np.concatenate(([0.0], s._k * s._tail))
    else:
        # P' has the roots of -P', so f needs no negation either
        series = chebyshev.chebder(np.concatenate((s.coefficients[:1], 2.0 * s._tail)))
    # the colleague matrix divides by the top coefficient, which overflows
    # once that is subnormal (p = 260); a coefficient below eps times the
    # largest moves no critical point by more than rounding
    tol = np.finfo(float).eps * np.abs(series).max()
    roots = chebyshev.chebroots(chebyshev.chebtrim(series, tol))
    thetas = np.arccos(np.clip(roots.real, -1.0, 1.0))
    if s.kind == "g":
        thetas = np.concatenate((thetas, -thetas))
    return max(float(s(t)) for t in [math.pi, 0.0, *thetas.tolist()])


def decay_ratio(p: int, family: SectionFamily) -> float:
    """Ratio of the diffusion symbol at pi to its maximum."""
    return decay_ratios([p], family)[0]


def decay_ratios(degrees, family: SectionFamily) -> list[float]:
    """:func:`decay_ratio` of each degree, from one cardinal recursion."""
    fs = symbol_fns([("f", p) for p in degrees], family)
    return [float(f(math.pi)) / symbol_max(f) for f in fs]


@dataclass(frozen=True)
class BoundReport:
    """Grid scan of the proved/conjectured envelope bounds for one (p, family).

    The fields about ``f`` (``symbol_max``, ``decay_ratio`` and the
    ``f_zero_*`` ones) are None below degree 2, where there is no ``f``.
    """

    degree: int
    family: str
    phase: float | None
    grid_size: int
    symbol_max: float | None
    h_min: float
    upper_violations: int
    lower_violations: int
    lower_status: str
    decay_ratio: float | None
    f_zero_value: float | None
    f_zero_first_diff: float | None
    f_zero_second_diff: float | None

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "family": self.family,
            "phase": self.phase,
            "grid_size": self.grid_size,
            "symbol_max": self.symbol_max,
            "h_min": self.h_min,
            "upper_violations": self.upper_violations,
            "lower_violations": self.lower_violations,
            "lower_status": self.lower_status,
            "decay_ratio": self.decay_ratio,
            "f_zero_value": self.f_zero_value,
            "f_zero_first_diff": self.f_zero_first_diff,
            "f_zero_second_diff": self.f_zero_second_diff,
        }


def _lower_envelope(family: SectionFamily, p: int, kind: str,
                    theta: np.ndarray) -> np.ndarray:
    """Lower bound for h_p (constant) or f_p (times 2-2cos)."""
    if family.is_polynomial:
        base = (2.0 / math.pi) ** (p + 1) if kind == "h" else \
            (2.0 / math.pi) ** (p - 1)
    else:
        a = family.phase
        if family.tag == HYPERBOLIC:
            amp = (a * a / (math.cosh(a) - 1.0)) * \
                ((math.cosh(a) + 1.0) / (a * a + math.pi**2))
        else:
            amp = (a * a / (1.0 - math.cos(a))) * \
                ((math.cos(a) + 1.0) / (math.pi**2 - a * a))
        base = amp * (2.0 / math.pi) ** (p - 1 if kind == "h" else p - 3)
    if kind == "h":
        return np.full_like(theta, base)
    return (2.0 - 2.0 * np.cos(theta)) * base


def bounds_report(p: int, family: SectionFamily,
                  grid_size: int = 4096) -> BoundReport:
    """Count violations of the upper and lower symbol bounds on a theta grid.

    Upper bounds (h <= 1 for p >= 2, f <= 2 - 2cos for p >= 4, already from
    p >= 2 in the polynomial case) are proved; lower bounds are proved for
    the polynomial family and for hyperbolic odd degrees, conjectured
    otherwise, and the report labels them accordingly without failing on
    conjectured ones.
    """
    if grid_size < MIN_BOUNDS_GRID:
        raise UsageError(f"grid_size must be >= {MIN_BOUNDS_GRID}")
    theta = np.linspace(-math.pi, math.pi, grid_size)
    h, f = symbol_fns([("h", p), ("f", p)], family) if p >= 2 else \
        (symbol_fn("h", p, family), None)
    # h and f of one degree share their k = 1..floor(p/2): one cosine table
    table = np.cos(np.multiply.outer(theta, h._k))
    hv = h.from_table(table)
    fv = f.from_table(table) if f is not None else None
    upper = 0
    if p >= 2:
        upper += int(np.sum(hv > 1.0 + _BOUND_SLACK))
    if f is not None and (p >= 4 or (family.is_polynomial and p >= 2)):
        upper += int(np.sum(fv > 2.0 - 2.0 * np.cos(theta) + _BOUND_SLACK))

    lower = 0
    lower += int(np.sum(hv < _lower_envelope(family, p, "h", theta) - _BOUND_SLACK))
    if f is not None and (p >= 3 or (family.is_polynomial and p >= 2)):
        lower += int(np.sum(fv < _lower_envelope(family, p, "f", theta) - _BOUND_SLACK))
    if family.is_polynomial or (family.tag == HYPERBOLIC and p % 2 == 1):
        status = "PROVED"
    else:
        status = "CONJECTURED"

    if f is not None:
        step = 1e-3
        f0 = float(f(0.0))
        first = float(f(step) - f(-step)) / (2 * step)
        # f(h) - 2 f(0) + f(-h) = 8 sum c_k sin^2(k h / 2), without the
        # cancellation of the three values
        second = 8.0 * float(np.sin(f._k * (step / 2)) ** 2 @ f._tail) / step**2
        mx = symbol_max(f)
        ratio = float(f(math.pi)) / mx
    else:
        f0 = first = second = mx = ratio = None

    return BoundReport(
        degree=p, family=family.tag, phase=family.phase, grid_size=grid_size,
        symbol_max=mx, h_min=float(hv.min()), upper_violations=upper,
        lower_violations=lower, lower_status=status, decay_ratio=ratio,
        f_zero_value=f0, f_zero_first_diff=first, f_zero_second_diff=second,
    )
