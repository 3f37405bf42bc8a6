"""Spectral symbols generated by cardinal splines, with bounds and decay checks.

Three trigonometric polynomials are attached to each family and degree:

* ``h`` - cosine series of spline values at the points (p+1)/2 - k,
* ``g`` - sine series of first-derivative samples (advection symbol),
* ``f`` - cosine series of negated second-derivative samples (diffusion
  symbol).

All three exist in a finite-sum form (the authoritative one, used for
Toeplitz generation) and an infinite-series form built from Fourier
transforms (valid from a kind-dependent minimal degree).  The finite-sum
form is a pure function of ``(kind, p, family)``, sampled from the
family's kept recursion levels: a process builds each once and keeps the
4096 most recently used, each with what is computed from it alone (its
maximum, say).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import cardinal
from .cardinal import _check_phase, _derivative_rows, _frozen, _phi1_hat
from .errors import NumericalError, UsageError
from .sections import (HYPERBOLIC, SectionFamily, _basis_matrix,
                       _edge_row, _local_derivative, polynomial)

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
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_k", _frozen(np.arange(1, self.coefficients.size)))
        object.__setattr__(self, "_tail", self.coefficients[1:])

    def __call__(self, theta):
        arg = np.multiply.outer(np.asarray(theta, dtype=float), self._k)
        if self.kind == "g":
            return (-2.0 * np.sin(arg)) @ self._tail
        c0, cosines = self.coefficients[0], (2.0 * np.cos(arg)) @ self._tail
        return c0 + cosines if self.kind == "h" else -c0 - cosines

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

    The family's interval and phase checks run on every call; each symbol
    is then built once per process (:func:`_symbol`).
    """
    for kind, p in requests:
        if kind not in KINDS:
            raise UsageError(f"unknown symbol kind {kind!r}")
        if p < _MIN_DEGREE[kind]:
            raise UsageError(f"kind {kind!r} requires degree >= {_MIN_DEGREE[kind]}")
    family.check_interval()
    _check_phase(family)
    return [_symbol(kind, p, family) for kind, p in requests]


@lru_cache(maxsize=4096)
def _symbol(kind: str, p: int, family: SectionFamily) -> SymbolFn:
    """The symbol, with read-only coefficients, sampled from the family's
    kept recursion levels (:func:`cardinal.kept_levels`); a process keeps
    the 4096 most recently used."""
    r = KINDS.index(kind)  # the derivative order
    # the derivative recurrence samples a lower-degree spline, which keeps
    # the coefficients O(1) at large phases; it does not cover the second
    # derivative of the degree-2 spline, which is taken from that spline
    q = p if r >= p else p - r
    s = family.signed_square
    rows = cardinal.kept_levels(family, q)[1][q - 1]  # one row per unit interval
    if q == p:
        for _ in range(r):
            rows = _local_derivative(p, s, rows)
    else:
        rows = _derivative_rows(rows, r)
    # the sample at (p+1)/2 - k lies on piece (p+1)//2 - k, at its left
    # end for odd p and at its midpoint for even p; the basis row there
    # is the edge row, or the constant slot alone but for degree-1 rows,
    # whose u is 1/cosh(eps/2) (1/cos trigonometric) at the midpoint
    rows = rows[(p + 1) // 2 - np.arange(0, p // 2 + 1)]
    row = _edge_row(q, -1.0) if p % 2 else \
        np.eye(1, q + 1)[0] if q > 1 else _basis_matrix(1, s, [0.5])[0]
    basis = np.tile(row, (rows.shape[0], 1))
    return SymbolFn(kind, p, family, _frozen(np.einsum("ij,ij->i", basis, rows)))


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


def symbol_max(s: SymbolFn) -> float:
    """Maximum over [-pi, pi], from the critical points of ``s``.

    With x = cos(theta), h and f are Chebyshev series P(x) (coefficients
    c0, 2c1, 2c2, ..., negated for f), so their maximum lies at theta = 0,
    theta = pi or arccos of a root of P' in [-1, 1].  The derivative of g is
    a cosine series, so g's lies at 0, pi or +-arccos of one of its roots.
    The roots are the eigenvalues of a colleague matrix of order below p/2;
    each candidate is evaluated through ``s`` itself, so a maximum at pi is
    exactly ``s(pi)``.  The maximum is computed once per symbol and kept
    with it.
    """
    return _kept_with(s, "max", lambda s: max(
        float(s(t)) for t in _critical_points(s)))


def _kept_with(s: SymbolFn, name: str, compute):
    """``compute(s)``, computed once per symbol and kept with it as ``name``.

    Only what depends on the symbol alone is kept, so a symbol that a
    process keeps answers a repeat with no evaluation.
    """
    kept = s._kept
    if name not in kept:
        kept[name] = compute(s)
    return kept[name]


def _critical_points(s: SymbolFn) -> list[float]:
    """pi, 0 and arccos of each root's real part, clipped to [-1, 1], of the
    derivative series (g: also their negatives): every extremum of ``s``
    lies at one of them."""
    if s.kind == "g":
        # g'(theta) = -2 sum k c_k cos(k theta); its roots do not need the sign
        series = np.concatenate(([0.0], s._k * s._tail))
    else:
        # P' has the roots of -P', so f needs no negation either; P' by the
        # float operations of numpy.polynomial.chebyshev.chebder
        c = np.concatenate((s.coefficients[:1], 2.0 * s._tail))
        series = np.zeros(max(c.size - 1, 1))
        for j in range(c.size - 1, 0, -1):
            series[j - 1] = (2 * j) * c[j] if j > 1 else c[1]
            if j > 2:
                c[j - 2] += (j * c[j]) / (j - 2)
    # the colleague matrix divides by the top coefficient, which overflows
    # once that is subnormal (p = 260); a coefficient below eps times the
    # largest moves no critical point by more than rounding
    live = np.flatnonzero(np.abs(series) > np.finfo(float).eps * np.abs(series).max())
    roots = _chebroots(series[:live[-1] + 1]) if live.size else series[:0]
    thetas = np.arccos(np.clip(roots.real, -1.0, 1.0))
    if s.kind == "g":
        thetas = np.concatenate((thetas, -thetas))
    return [math.pi, 0.0, *thetas.tolist()]


def _extrema(s: SymbolFn) -> tuple[float, float]:
    """The minimum and maximum of ``s``, from its critical points evaluated
    as one array, as a grid is: ``s(pi)`` has a grid's bits."""
    values = s(np.array(_critical_points(s)))
    return float(values.min()), float(values.max())


def _chebroots(c: np.ndarray) -> np.ndarray:
    """The roots of the Chebyshev series ``c``, whose top coefficient is not
    0: the eigenvalues of its colleague matrix (Good 1961), built in place
    by the float operations of ``numpy.polynomial.chebyshev.chebroots``."""
    n = c.size - 1
    if n < 2:  # no root, or the one of c0 + c1 x
        return -c[:n] / c[n:]
    diagonal = np.r_[np.sqrt(0.5), np.full(n - 2, 0.5)]
    mat = np.diag(diagonal, 1) + np.diag(diagonal, -1)
    scale = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
    mat[:, -1] -= (c[:-1] / c[-1]) * (scale / scale[-1]) * 0.5
    return np.sort(np.linalg.eigvals(mat[::-1, ::-1]))  # rotated, as numpy's


def decay_ratio(p: int, family: SectionFamily) -> float:
    """Ratio of the diffusion symbol at pi to its maximum."""
    return _kept_with(symbol_fn("f", p, family), "decay_ratio", _decay_ratio)


def decay_ratios(degrees, family: SectionFamily) -> list[float]:
    """:func:`decay_ratio` of each degree, in order, each ``f`` built and
    checked before the next: a refused degree builds none above it."""
    return [decay_ratio(p, family) for p in degrees]


def _above_rounding(s: SymbolFn, value: float, what: str) -> float:
    """``value``, a value of ``s``, refused once it is rounding noise.

    ``s(theta)`` sums n = floor(p/2) + 1 terms, ``c_0`` and ``2 c_k cos(k
    theta)``; in floating point that sum errs by at most ``gamma_n`` times
    the sum of the terms' magnitudes, at most ``gamma_n (|c_0| + 2 sum
    |c_k|)``, with ``gamma_n = n u / (1 - n u)`` and u = 2**-53.  A value
    that does not exceed that bound has no correct digit, nor a sign.
    """
    n = s.coefficients.size
    u = np.finfo(float).eps / 2
    bound = n * u / (1 - n * u) * (abs(s.coefficients[0]) + 2.0 * np.abs(s._tail).sum())
    if not abs(value) > bound:
        raise NumericalError(
            f"{what} = {value:.3g} does not exceed "
            f"{bound:.3g}, the rounding bound of its sum")
    return value


def _decay_ratio(f: SymbolFn) -> float:
    """``f(pi) / max f``, refused once ``f(pi)`` is rounding noise."""
    what = f"decay ratio at p = {f.degree}: f(pi)"
    return _above_rounding(f, float(f(math.pi)), what) / symbol_max(f)


@dataclass(frozen=True)
class BoundReport:
    """The proved/conjectured envelope bounds checked for one (p, family).

    ``h_min`` is the exact minimum of h; the violation counts are those of
    a ``grid_size``-point theta grid, 0 without one (:func:`bounds_report`).
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
        return dict(self.__dict__)


def _amplitude(family: SectionFamily) -> float:
    """``a**2/(cosh(a) - 1)`` (trigonometric: ``1 - cos(a)``) of the phase,
    as ``2 ((a/2)/sinh(a/2))**2`` (``sin``), which does not cancel."""
    half = family.phase / 2.0
    sine = math.sinh if family.tag == HYPERBOLIC else math.sin
    return 2.0 * (half / sine(half)) ** 2


def _lower_envelope(s: SymbolFn) -> float:
    """Lower bound for h_q, q = ``s.degree``; times 2 - 2cos, for f_{q+2}."""
    family, q = s.family, s.degree
    if family.is_polynomial:
        return (2.0 / math.pi) ** (q + 1)
    a = family.phase
    if family.tag == HYPERBOLIC:
        amp = _amplitude(family) * ((math.cosh(a) + 1.0) / (a * a + math.pi**2))
    else:
        amp = _amplitude(family) * ((math.cos(a) + 1.0) / (math.pi**2 - a * a))
    return amp * (2.0 / math.pi) ** (q - 1)


#: h_0 = 1, the factor of the polynomial f_2 = 2 - 2cos(theta)
_H0 = SymbolFn("h", 0, polynomial(), _frozen(np.ones(1)))


def _clear(h: SymbolFn, upper: bool) -> bool:
    """Whether the extrema of ``h`` clear h >= envelope, and if ``upper``
    h <= 1, by the slack (by an eighth of it, as f_p - (2 - 2cos) h_{p-2}
    is below that): then no grid point can cross either bound."""
    low, high = _kept_with(h, "extrema", _extrema)
    return (low >= _kept_with(h, "envelope", _lower_envelope) + _BOUND_SLACK
            and (not upper or high <= 1.0 + _BOUND_SLACK / 8))


def _zero_differences(f: SymbolFn) -> tuple[float, float, float]:
    """``f(0)`` and the central first and second differences of ``f`` at 0,
    with step 1e-3."""
    step = 1e-3
    f0 = float(f(0.0))
    first = float(f(step) - f(-step)) / (2 * step)
    # f(h) - 2 f(0) + f(-h) = 8 sum c_k sin^2(k h / 2), without the
    # cancellation of the three values
    second = 8.0 * float(np.sin(f._k * (step / 2)) ** 2 @ f._tail) / step**2
    return f0, first, second


def bounds_report(p: int, family: SectionFamily,
                  grid_size: int = 4096) -> BoundReport:
    """Check the upper and lower symbol bounds at the exact extrema of h.

    Upper bounds (h <= 1 for p >= 2, f <= 2 - 2cos for p >= 4, already from
    p >= 2 in the polynomial case) are proved; lower bounds are proved for
    the polynomial family and for hyperbolic odd degrees, conjectured
    otherwise, and the report labels them accordingly without failing on
    conjectured ones.  As f_p = (2 - 2cos) h_{p-2}, each bound is one on h_p
    or h_{p-2}.  While the extrema of both clear the bounds (:func:`_clear`),
    no point of a theta grid can violate them; otherwise the violations are
    counted on a grid of ``grid_size`` points, built for that report alone.
    The extrema, envelopes, values at theta = 0 and decay ratio are kept
    with the symbols, so a repeat report evaluates nothing.  The report is
    refused once f(pi), the decay ratio's numerator, or else ``h_min`` is
    rounding noise (:func:`_above_rounding`).
    """
    if grid_size < MIN_BOUNDS_GRID:
        raise UsageError(f"grid_size must be >= {MIN_BOUNDS_GRID}")
    h, f = symbol_fns([("h", p), ("f", p)], family) if p >= 2 else \
        (symbol_fn("h", p, family), None)
    f_upper = p >= 4 or (family.is_polynomial and p >= 2)
    f_lower = p >= 3 or (family.is_polynomial and p >= 2)
    below = (symbol_fn("h", p - 2, family) if p >= 3 else _H0) if f_lower else None
    upper = lower = 0
    if not (_clear(h, p >= 2) and (below is None or _clear(below, f_upper))):
        theta = np.linspace(-math.pi, math.pi, grid_size)
        hv, wave = h(theta), 2.0 - 2.0 * np.cos(theta)
        upper = int(np.count_nonzero(hv > 1.0 + _BOUND_SLACK)) if p >= 2 else 0
        envelope = _kept_with(h, "envelope", _lower_envelope)
        lower = int(np.count_nonzero(hv < envelope - _BOUND_SLACK))
        if f_lower:
            fv, envelope = f(theta), _kept_with(below, "envelope", _lower_envelope)
            upper += int(np.count_nonzero(fv > wave + _BOUND_SLACK)) if f_upper else 0
            lower += int(np.count_nonzero(fv < wave * envelope - _BOUND_SLACK))
    if family.is_polynomial or (family.tag == HYPERBOLIC and p % 2 == 1):
        status = "PROVED"
    else:
        status = "CONJECTURED"

    if f is not None:
        f0, first, second = _kept_with(f, "zero", _zero_differences)
        mx = symbol_max(f)
        ratio = _kept_with(f, "decay_ratio", _decay_ratio)
    else:
        f0 = first = second = mx = ratio = None
    h_min = _above_rounding(h, _kept_with(h, "extrema", _extrema)[0],
                            f"h_min at p = {p}: min h")

    return BoundReport(
        degree=p, family=family.tag, phase=family.phase, grid_size=grid_size,
        symbol_max=mx, h_min=h_min,
        upper_violations=upper, lower_violations=lower, lower_status=status,
        decay_ratio=ratio, f_zero_value=f0, f_zero_first_diff=first,
        f_zero_second_diff=second,
    )
