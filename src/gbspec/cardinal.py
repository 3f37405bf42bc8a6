"""Cardinal generalized B-splines on the integer knot set {0, 1, ..., p+1}.

The degree-1 spline is assembled from the two boundary-interpolating section
functions on unit intervals and normalized to unit integral; every higher
degree is obtained by exact antidifferentiation,

    phi_p(t) = int_0^t (phi_{p-1}(s) - phi_{p-1}(s-1)) ds,

so all stated properties (compact support on (0, p+1), positivity, partition
of unity, C^{p-1} smoothness, symmetry about (p+1)/2) hold to rounding error.
Level q of the recursion is the degree-q spline, so one recursion up to p
serves every degree up to p: :func:`cardinal_splines` builds several
degrees of one family from a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .sections import (HYPERBOLIC, POLYNOMIAL, TRIGONOMETRIC, PiecewiseFn,
                       SectionFamily, _antiderivative_stack, _basis_matrix,
                       _dot2)

# Below this phase the non-polynomial section functions are numerically
# indistinguishable from their polynomial limits and the explicit formulas
# suffer cancellation, so construction falls back to the polynomial branch.
PHASE_FALLBACK = 1e-8


def _seed_rows(family: SectionFamily) -> np.ndarray:
    """Degree-1 coefficient rows of the unnormalized two-piece seed.

    Row 0 is the ascending branch on [0,1); row 1 the descending branch on
    [1,2), both in local coordinates and in the degree-1 basis {u, v}.
    """
    if family.is_polynomial:
        return np.array([[0.0, 1.0], [1.0, -1.0]])
    a = family.phase
    if family.tag == HYPERBOLIC:
        try:
            sinh, cosh = math.sinh(a), math.cosh(a)
        except OverflowError:
            raise NumericalError(
                f"hyperbolic seed overflows at effective phase {a:g}") from None
        return np.array([[0.0, 1.0 / sinh], [1.0, -cosh / sinh]])
    return np.array([[0.0, 1.0 / math.sin(a)],
                     [1.0, -math.cos(a) / math.sin(a)]])


@dataclass(frozen=True)
class CardinalSpline:
    """Normalized cardinal spline of one family and degree.

    ``pw`` is the exact piecewise representation on {0, ..., p+1};
    ``delta1`` is the degree-1 normalization factor of the family.
    """

    degree: int
    family: SectionFamily
    pw: PiecewiseFn
    delta1: float

    def __call__(self, t):
        return self.pw(t)

    @property
    def center(self) -> float:
        return (self.degree + 1) / 2


def effective_family(family: SectionFamily) -> SectionFamily:
    """The family actually used for construction (polynomial for tiny phases)."""
    if not family.is_polynomial and family.phase < PHASE_FALLBACK:
        return SectionFamily(POLYNOMIAL)
    return family


def _reciprocals(integrals: np.ndarray, degree: int,
                 rep: SectionFamily) -> np.ndarray:
    """``1 / integrals``, refused unless every integral is finite and nonzero."""
    bad = ~np.isfinite(integrals) | (integrals == 0)
    if np.any(bad):
        raise NumericalError(
            f"GB-spline recursion breaks down at degree {degree}, effective "
            f"phase {rep.effective(1.0):g}: a spline integrates to "
            f"{float(integrals[bad][0])!r}")
    return 1.0 / integrals


def _build(rep: SectionFamily, degrees) -> list[tuple[PiecewiseFn, float]]:
    """Levels ``degrees`` of one recursion up to the largest, each with delta1.

    The recursion runs on plain ``(pieces, slots)`` coefficient arrays on
    unit intervals; only the levels asked for become :class:`PiecewiseFn`.
    """
    top = max(degrees)
    eps = np.full(top + 1, rep.effective(1.0))  # effective phase of every piece
    widths = np.ones(top + 1)

    def antiderivative(rows: np.ndarray) -> np.ndarray:
        pieces, slots = rows.shape
        return _antiderivative_stack(rep, slots - 1, eps[:pieces], widths[:pieces],
                                     rows[None])[0]

    seed = _seed_rows(rep)
    end = _basis_matrix(rep, 2, eps[:1], np.array([1.0]))[0]
    integral = _dot2(end, antiderivative(seed)[-1])
    delta1 = _reciprocals(np.array([integral]), 1, rep).item()
    levels = [seed * delta1]

    for q in range(2, top + 1):
        one = np.zeros(q + 1)
        one[0] = 1.0  # constant slot exists for q >= 2
        # the antiderivative ends at q; the constant row adds the piece [q, q+1)
        rows = np.vstack([antiderivative(levels[-1]), one])
        shifted = np.vstack([np.zeros(q + 1), rows[:-1]])
        levels.append(rows - shifted)
    return [(PiecewiseFn(rep, q, np.arange(0.0, q + 2), levels[q - 1]), delta1)
            for q in degrees]


def cardinal_splines(family: SectionFamily, degrees) -> list[CardinalSpline]:
    """The cardinal splines of the given family and degrees, in order.

    One recursion up to the largest degree serves them all.  Small phases
    fall back to the polynomial limit: antidifferentiation divides the
    (u, v) coefficients by the effective phase, so at phase ``a`` the
    representation's rounding error grows like ``a**(1-p)`` while the
    polynomial limit differs from the true spline only by O(a**2).  Each
    degree measures its own coefficient scale and keeps whichever branch
    has the smaller error estimate.
    """
    if any(p < 1 for p in degrees):
        raise UsageError("cardinal splines require degree p >= 1")
    if not degrees:
        return []
    rep = effective_family(family)
    if rep.tag == TRIGONOMETRIC:
        rep.check_interval(1.0)
    levels = _build(rep, degrees)
    if not rep.is_polynomial:
        polynomial_model_error = 0.1 * rep.phase**2
        fallback = [p for p, (pw, _) in zip(degrees, levels)
                    if float(np.max(np.abs(pw.coeffs))) * 1e-16
                    > max(polynomial_model_error, 1e-12)]
        if fallback:
            rebuilt = dict(zip(fallback, _build(SectionFamily(POLYNOMIAL), fallback)))
            levels = [rebuilt.get(p, level) for p, level in zip(degrees, levels)]
    return [CardinalSpline(p, family, pw, delta1)
            for p, (pw, delta1) in zip(degrees, levels)]


def cardinal_spline(family: SectionFamily, p: int) -> CardinalSpline:
    """Build the degree-``p`` cardinal spline of the given family."""
    return cardinal_splines(family, [p])[0]


def cardinal_derivative(cs: CardinalSpline, r: int) -> PiecewiseFn:
    """r-th derivative via the recurrence phi_p^{(r)} = sum_j (-1)^j C(r,j) phi_{p-r}(. - j).

    Valid for ``1 <= r <= p-1``; agrees with ``piecewise_derivative`` applied
    r times.
    """
    if not 1 <= r <= cs.degree - 1:
        raise UsageError(f"derivative order {r} outside 1..{cs.degree - 1}")
    base = cardinal_spline(cs.family, cs.degree - r)
    return PiecewiseFn(base.pw.family, base.degree, np.arange(0.0, cs.degree + 2),
                       _derivative_rows(base.pw.coeffs, r))


def _derivative_rows(coeffs: np.ndarray, r: int) -> np.ndarray:
    """Coefficient rows of the r-th derivative of the degree ``q + r`` cardinal
    spline, in the degree-q basis, from the rows ``coeffs`` of the degree-q one."""
    pieces = coeffs.shape[0]
    out = np.zeros((pieces + r, coeffs.shape[1]))
    for j in range(r + 1):
        out[j:j + pieces] += (-1) ** j * math.comb(r, j) * coeffs
    return out


def _phi0_hat(theta: np.ndarray) -> np.ndarray:
    """Fourier transform of the unit indicator: (1 - e^{-i theta})/(i theta)."""
    half = theta / 2.0
    return np.exp(-1j * half) * np.sinc(half / math.pi)


def _phi1_hat(family: SectionFamily, theta: np.ndarray) -> np.ndarray:
    rep = effective_family(family)
    if rep.is_polynomial:
        return _phi0_hat(theta) ** 2
    a = rep.phase
    if rep.tag == HYPERBOLIC:
        amp = a * a / (2.0 * math.sinh(a / 2.0) ** 2)
        ratio = (math.cosh(a) - np.cos(theta)) / (theta * theta + a * a)
    else:
        amp = a * a / (2.0 * math.sin(a / 2.0) ** 2)
        # (cos a - cos t)/(t^2 - a^2) written as a product of sinc factors,
        # which removes both poles t = +-a.
        u = (theta + a) / 2.0
        v = (theta - a) / 2.0
        ratio = 0.5 * np.sinc(u / math.pi) * np.sinc(v / math.pi)
    return amp * ratio * np.exp(-1j * theta)


def fourier_phi(family: SectionFamily, p: int, theta):
    """Fourier transform of the degree-``p`` cardinal spline at ``theta``.

    Computed as phi1_hat(theta) * phi0_hat(theta)**(p-1); removable
    singularities (theta = 0 and the trigonometric theta = +-alpha) are
    evaluated through singularity-free product forms.
    """
    if p < 1:
        raise UsageError("degree must be >= 1")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    out = _phi1_hat(family, th) * _phi0_hat(th) ** (p - 1)
    return complex(out[0]) if scalar else out
