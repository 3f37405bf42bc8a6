"""Cardinal generalized B-splines on the integer knot set {0, 1, ..., p+1}.

The degree-1 spline is assembled from the two boundary-interpolating section
functions on unit intervals and normalized to unit integral; every higher
degree is obtained by exact antidifferentiation,

    phi_p(t) = int_0^t (phi_{p-1}(s) - phi_{p-1}(s-1)) ds,

so all stated properties (compact support on (0, p+1), positivity, partition
of unity, C^{p-1} smoothness, symmetry about (p+1)/2) hold to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .sections import (HYPERBOLIC, POLYNOMIAL, TRIGONOMETRIC, PiecewiseFn,
                       SectionFamily, piecewise_antiderivative)

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
        return np.array([[0.0, 1.0 / math.sinh(a)],
                         [1.0, -math.cosh(a) / math.sinh(a)]])
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


def _build(rep: SectionFamily, p: int) -> tuple[PiecewiseFn, float]:
    coeffs = _seed_rows(rep)
    pw = PiecewiseFn(rep, 1, np.array([0.0, 1.0, 2.0]), coeffs)
    total = pw.integral()
    delta1 = 1.0 / total
    pw = pw.scaled(delta1)

    for q in range(2, p + 1):
        anti = piecewise_antiderivative(pw)  # degree q on {0..q}
        one = np.zeros(q + 1)
        one[0] = 1.0  # constant slot exists for q >= 2
        rows = np.vstack([anti.coeffs, one])
        shifted = np.vstack([np.zeros(q + 1), rows[:-1]])
        pw = PiecewiseFn(rep, q, np.arange(0.0, q + 2), rows - shifted)
    return pw, delta1


def cardinal_spline(family: SectionFamily, p: int) -> CardinalSpline:
    """Build the degree-``p`` cardinal spline of the given family.

    Small phases fall back to the polynomial limit: antidifferentiation
    divides the (u, v) coefficients by the effective phase, so at phase
    ``a`` the representation's rounding error grows like ``a**(1-p)`` while
    the polynomial limit differs from the true spline only by O(a**2).  The
    construction measures its own coefficient scale and keeps whichever
    branch has the smaller error estimate.
    """
    if p < 1:
        raise UsageError("cardinal splines require degree p >= 1")
    rep = effective_family(family)
    if rep.tag == TRIGONOMETRIC:
        rep.check_interval(1.0)
    pw, delta1 = _build(rep, p)
    if not rep.is_polynomial:
        rounding_estimate = float(np.max(np.abs(pw.coeffs))) * 1e-16
        polynomial_model_error = 0.1 * rep.phase**2
        if rounding_estimate > max(polynomial_model_error, 1e-12):
            pw, delta1 = _build(SectionFamily(POLYNOMIAL), p)
    return CardinalSpline(p, family, pw, delta1)


def cardinal_derivative(cs: CardinalSpline, r: int) -> PiecewiseFn:
    """r-th derivative via the recurrence phi_p^{(r)} = sum_j (-1)^j C(r,j) phi_{p-r}(. - j).

    Valid for ``1 <= r <= p-1``; agrees with ``piecewise_derivative`` applied
    r times.
    """
    return _derivative_of_degree(cs.family, cs.degree, r)


def _derivative_of_degree(family: SectionFamily, p: int, r: int) -> PiecewiseFn:
    """:func:`cardinal_derivative` of the degree-``p`` spline, which it never builds."""
    if not 1 <= r <= p - 1:
        raise UsageError(f"derivative order {r} outside 1..{p - 1}")
    base = cardinal_spline(family, p - r).pw
    q = p - r
    out = np.zeros((p + 1, q + 1))
    for j in range(r + 1):
        w = (-1) ** j * math.comb(r, j)
        out[j:j + q + 1] += w * base.coeffs
    return PiecewiseFn(base.family, q, np.arange(0.0, p + 2), out)


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
