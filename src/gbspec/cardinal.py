"""Cardinal generalized B-splines on the integer knot set {0, 1, ..., p+1}.

The degree-1 spline is assembled from the two boundary-interpolating section
functions on unit intervals and normalized to unit integral; every higher
degree is obtained by exact antidifferentiation,

    phi_p(t) = int_0^t (phi_{p-1}(s) - phi_{p-1}(s-1)) ds,

so all stated properties (compact support on (0, p+1), positivity, partition
of unity, C^{p-1} smoothness, symmetry about (p+1)/2) hold to rounding error.
Level q of the recursion is the degree-q spline, so one recursion up to p
serves every degree up to p: a process keeps each family's levels,
read-only, for later calls (:func:`kept_levels`), and
:func:`cardinal_spline` returns one level as a :class:`PiecewiseFn`; the
symbols sampled from them are kept by :mod:`gbspec.symbols`.  The
recursion runs in the section basis of :mod:`gbspec.sections`, which is
one basis for every family and phase, so the same steps serve the
polynomial limit and every phase up to :data:`MAX_HYPERBOLIC_PHASE`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import NumericalError, UsageError
from .sections import (HYPERBOLIC, PiecewiseFn, SectionFamily,
                       _antiderivative_stack, _at_edge)

#: Largest hyperbolic effective phase of a piece that is accepted;
#: larger ones are refused with :class:`~gbspec.errors.NumericalError`.
MAX_HYPERBOLIC_PHASE = 76.0

#: Degree-1 rows of the unnormalized two-piece seed in the basis (u, v),
#: for every family: the ascending branch sinh(eps tau)/sinh(eps) on [0, 1)
#: is (u + v)/2, the descending one on [1, 2) is (u - v)/2.
SEED_ROWS = np.array([[0.5, 0.5], [0.5, -0.5]])


def _check_phase(unit: SectionFamily) -> None:
    """Refuse a hyperbolic effective phase above :data:`MAX_HYPERBOLIC_PHASE`.

    ``unit`` is a family of pieces, so its phase is the effective one.
    """
    if unit.tag == HYPERBOLIC and unit.phase > MAX_HYPERBOLIC_PHASE:
        raise NumericalError(
            f"hyperbolic effective phase {unit.phase:g} is above the supported "
            f"maximum {MAX_HYPERBOLIC_PHASE:g}")


def _checked(integrals: np.ndarray, degree: int, rep: SectionFamily) -> np.ndarray:
    """``integrals``, refused unless every one is finite and nonzero."""
    bad = ~np.isfinite(integrals) | (integrals == 0)
    if np.any(bad):
        raise NumericalError(
            f"GB-spline recursion breaks down at degree {degree}, effective "
            f"phase {rep.phase or 0.0:g}: a spline integrates to "
            f"{float(integrals[bad][0])!r}")
    return integrals


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


def _recursion(rep: SectionFamily, top: int, done=None):
    """``(delta1, levels)``: levels 1..``top`` of one recursion.

    The run carries on from ``done``, the ``(delta1, levels)`` of a shorter
    run of the same family, or starts from the seed.  It works on plain
    ``(pieces, slots)`` coefficient arrays on unit intervals, each made
    read-only.
    """
    s = rep.signed_square  # every piece has the effective phase

    def antiderivative(rows: np.ndarray) -> np.ndarray:  # on unit intervals
        return _antiderivative_stack(rows.shape[1] - 1, s, np.ones(len(rows)),
                                     rows)

    if done is None:
        integral = _at_edge(antiderivative(SEED_ROWS)[-1])
        delta1 = 1.0 / _checked(np.array([integral]), 1, rep).item()
        levels = [_frozen(SEED_ROWS * delta1)]
    else:
        delta1, levels = done[0], list(done[1])
    for q in range(len(levels) + 1, top + 1):
        # the antiderivative ends at q; the constant row adds the piece
        # [q, q+1) (the constant slot exists for q >= 2)
        rows = np.zeros((q + 1, q + 1))
        rows[:q] = antiderivative(levels[-1])
        rows[q, 0] = 1.0
        levels.append(_frozen(np.diff(rows, axis=0, prepend=0.0)))
    return delta1, tuple(levels)


#: Bytes of recursion levels a process keeps over all families.
KEPT_LEVEL_BYTES = 2**25

#: Each family's ``(delta1, levels)``, the least recently used first.
_RECURSIONS: dict[SectionFamily, tuple[float, tuple[np.ndarray, ...]]] = {}
#: Bytes of the levels in ``_RECURSIONS``, kept as they come and go.
_kept_total = 0
_RECURSIONS_LOCK = threading.Lock()


def _kept_bytes(entry) -> int:
    return sum(level.nbytes for level in entry[1])


def kept_levels(rep: SectionFamily, top: int) -> tuple[float, tuple[np.ndarray, ...]]:
    """``(delta1, levels)`` of the family's recursion, at least to level
    ``top``: read-only ``(pieces, slots)`` rows on unit intervals.  A process
    runs each family's recursion once: the levels built so far are kept for
    the most recently used families within :data:`KEPT_LEVEL_BYTES`, and
    carried on when a higher degree is asked; levels alone over that budget
    are returned but not kept."""
    global _kept_total
    _check_phase(rep)
    with _RECURSIONS_LOCK:
        entry = _RECURSIONS.pop(rep, None)
        if entry is not None:
            if len(entry[1]) >= top:
                _RECURSIONS[rep] = entry  # now the most recently used
                return entry
            _kept_total -= _kept_bytes(entry)
        entry = _recursion(rep, top, entry)
        size = _kept_bytes(entry)
        if size <= KEPT_LEVEL_BYTES:
            _kept_total += size
            while _kept_total > KEPT_LEVEL_BYTES:
                _kept_total -= _kept_bytes(_RECURSIONS.pop(next(iter(_RECURSIONS))))
            _RECURSIONS[rep] = entry
    return entry


def cardinal_spline(family: SectionFamily, p: int) -> PiecewiseFn:
    """The degree-``p`` cardinal spline of the given family on {0, ..., p+1}.

    Its coefficients are level ``p`` of :func:`kept_levels`, read-only.
    """
    if p < 1:
        raise UsageError("cardinal splines require degree p >= 1")
    family.check_interval()
    return PiecewiseFn(family, p, np.arange(0.0, p + 2),
                       kept_levels(family, p)[1][p - 1])


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
    """Fourier transform of the degree-1 cardinal spline; its removable
    singularities (theta = 0 and the trigonometric theta = +-alpha) are
    evaluated through singularity-free product forms."""
    if family.is_polynomial:
        return _phi0_hat(theta) ** 2
    a = family.phase
    if family.tag == HYPERBOLIC:
        # amp * (cosh a - cos t)/(t^2 + a^2) with amp = a^2/(2 sinh^2(a/2)),
        # written by cosh a - cos t = 2 sinh^2(a/2) + 2 sin^2(t/2) as a sum
        # of positive terms: q^2 sinc^2(t/2) (1 - w) + w, w = a^2/(t^2 + a^2),
        # with w from hypot, as t/a overflows at tiny phases
        q = a / (2.0 * math.sinh(a / 2.0))
        w = (a / np.hypot(a, theta)) ** 2
        ratio = q * q * np.sinc(theta / (2.0 * math.pi)) ** 2 * (1.0 - w) + w
    else:
        amp = a * a / (2.0 * math.sin(a / 2.0) ** 2)
        # (cos a - cos t)/(t^2 - a^2) written as a product of sinc factors,
        # which removes both poles t = +-a.
        u = (theta + a) / 2.0
        v = (theta - a) / 2.0
        ratio = amp * (0.5 * np.sinc(u / math.pi) * np.sinc(v / math.pi))
    return ratio * np.exp(-1j * theta)
