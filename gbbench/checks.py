"""Correctness checks of CLI outputs against independent oracles.

Nothing here calls ``gbspec``.  The references are theory (orders of the
collocation systems, partition of unity, unit integral, positivity, proved
bounds, decay), a closed form (the spectrum of tridiag(-1, 2, -1)) and an
mpmath evaluation at 50 digits of the cardinal splines straight from their
definition.  All tolerances are fixed here, before any measurement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from jobs import Job

#: |value| below which a cardinal value counts as nonnegative / zero
POSITIVITY_TOL = 1e-12
#: |integral - 1| of a cardinal spline (Simpson per unit interval)
INTEGRAL_TOL = 1e-10
#: |sum of integer translates - 1|
PARTITION_TOL = 1e-12
#: |CLI value - mpmath value| for cardinal values and symbol samples
MPMATH_TOL = 1e-12
#: |f_p(0)| of the diffusion symbol, relative to its maximum
F_ZERO_TOL = 1e-10
#: eigenvalues of T_m(2 - 2cos) against the closed form
TOEPLITZ_TOL = 1e-11
#: slack on ratios that may be exactly 1 and on monotone sequences
RATIO_SLACK = 1e-12

#: cardinal jobs whose values are compared with mpmath, and the grid indices
#: compared: t = (p+1)/4, (p+1)/2 and 3(p+1)/4 on the 4081-point grid
MPMATH_CARDINALS = (
    "cardinal:polynomial:p7",
    "cardinal:hyperbolic(1):p7",
    "cardinal:hyperbolic(10):p3",
    "cardinal:trigonometric(1.5):p11",
)
MPMATH_INDICES = (1020, 2040, 3060)
#: theta-grid indices of the symbol jobs compared with mpmath (grid of 512)
SYMBOL_INDICES = (0, 100, 255, 300, 511)


@dataclass(frozen=True)
class Outcome:
    """What one CLI call returned: exit code (None if it raised) and stdout."""

    rc: int | None
    stdout: str
    error: str | None = None


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _csv_columns(text: str, ncols: int) -> np.ndarray:
    lines = text.strip().split("\n")
    _require(len(lines) >= 2, "CSV output has no rows")
    values = np.array(",".join(lines[1:]).split(","), dtype=float)
    _require(values.size == ncols * (len(lines) - 1), "ragged CSV output")
    return values.reshape(-1, ncols)


# -- mpmath oracle ----------------------------------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = 50
    return mpmath


def _seed(mp, family: str, a, s):
    """Unnormalized degree-1 spline on [0, 2]: rising on [0,1], falling on [1,2]."""
    if s <= 0 or s >= 2:
        return mp.mpf(0)
    x = s if s <= 1 else 2 - s
    if family == "polynomial":
        return x
    return mp.sinh(a * x) if family == "hyperbolic" else mp.sin(a * x)


def _iterated(mp, family: str, a, k: int, t):
    """k-fold integral of the seed from 0 (Cauchy's formula); k = 0 is the seed."""
    if t <= 0:
        return mp.mpf(0)
    if k == 0:
        return _seed(mp, family, a, t)
    top = min(t, mp.mpf(2))
    nodes = [mp.mpf(0)] + ([mp.mpf(1)] if top > 1 else []) + [top]
    integral = mp.quad(lambda s: (t - s) ** (k - 1) * _seed(mp, family, a, s), nodes)
    return integral / mp.factorial(k - 1)


@lru_cache(maxsize=None)
def cardinal_mp(family: str, alpha: float | None, p: int, t: float, r: int = 0) -> float:
    """r-th derivative of the degree-p cardinal spline at t, at 50 digits.

    phi_1 is the seed normalized to unit integral and
    phi_p(t) = int_{t-1}^{t} phi_{p-1}, so phi_p = Delta^{p-1} I_{p-1} phi_1
    and phi_p^{(r)} = Delta^{p-1} I_{p-1-r} phi_1, with Delta the backward
    difference and I_k the k-fold integral from 0.
    """
    mp = _mp()
    a = None if alpha is None else mp.mpf(alpha)
    if family == "polynomial":
        c = mp.mpf(1)
    elif family == "hyperbolic":
        c = a / (2 * (mp.cosh(a) - 1))
    else:
        c = a / (2 * (1 - mp.cos(a)))
    t = mp.mpf(t)
    total = sum((-1) ** j * mp.binomial(p - 1, j) * _iterated(mp, family, a, p - 1 - r, t - j)
                for j in range(p))
    return float(c * total)


def symbol_mp(kind: str, family: str, alpha: float | None, p: int,
              thetas: np.ndarray) -> np.ndarray:
    """The h/g/f symbol from samples of phi_p, phi_p' or phi_p'' at (p+1)/2 - k."""
    r = {"h": 0, "g": 1, "f": 2}[kind]
    c = np.array([cardinal_mp(family, alpha, p, (p + 1) / 2 - k, r)
                  for k in range(p // 2 + 1)])
    k = np.arange(1, c.size)
    if kind == "h":
        return c[0] + 2.0 * np.cos(np.multiply.outer(thetas, k)) @ c[1:]
    if kind == "g":
        return -2.0 * np.sin(np.multiply.outer(thetas, k)) @ c[1:]
    return -c[0] - 2.0 * np.cos(np.multiply.outer(thetas, k)) @ c[1:]


# -- per-command checks -----------------------------------------------------

def _expected_order(meta: dict, n: int) -> int:
    """Interior spline count n + p - 2 per direction (nu_j * n intervals)."""
    if meta.get("d", 1) == 1:
        return n + meta["p"] - 2
    return math.prod(nu * n + p - 2 for nu, p in zip(meta["nu"], meta["p"]))


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return True


def check_distribution(job: Job, text: str) -> None:
    report = json.loads(text)
    runs = report["runs"]
    ns = job.meta["n"]
    _require([r["n"] for r in runs] == ns, "runs do not match the requested n")
    _require(_all_finite(report), "non-finite value in the report")
    for run in runs:
        want = _expected_order(job.meta, run["n"])
        _require(run["order"] == want,
                 f"n={run['n']}: {run['order']} eigenvalues, expected {want}")
    disc = [r["mean_abs_discrepancy"] for r in runs]
    _require(all(b < a for a, b in zip(disc, disc[1:])),
             f"Weyl discrepancy does not decrease with n: {disc}")


def check_bounds(job: Job, text: str) -> None:
    rep = json.loads(text)
    p = job.meta["p"]
    _require(rep["degree"] == p and rep["family"] == job.meta["family"],
             "report is for another degree or family")
    proved_lower = job.meta["family"] == "polynomial" or (
        job.meta["family"] == "hyperbolic" and p % 2 == 1)
    _require(rep["lower_status"] == ("PROVED" if proved_lower else "CONJECTURED"),
             f"lower bound labelled {rep['lower_status']}")
    _require(rep["upper_violations"] == 0,
             f"{rep['upper_violations']} violations of the proved upper bounds")
    if proved_lower:
        _require(rep["lower_violations"] == 0,
                 f"{rep['lower_violations']} violations of the proved lower bound")
    _require(_all_finite(rep), "non-finite value in the report")
    _require(0.0 < rep["h_min"] <= 1.0 + RATIO_SLACK, f"h_min = {rep['h_min']}")
    # f_p = (2 - 2cos) h_{p-2} vanishes at theta = 0 (partition of unity)
    _require(abs(rep["f_zero_value"]) <= F_ZERO_TOL * rep["symbol_max"],
             f"f_p(0) = {rep['f_zero_value']}")
    _require(0.0 < rep["decay_ratio"] <= 1.0 + RATIO_SLACK,
             f"decay ratio {rep['decay_ratio']}")


def check_decay(job: Job, text: str) -> None:
    rows = _csv_columns(text, 2)
    lo, hi = job.meta["p"]
    _require(rows[:, 0].tolist() == list(range(lo, hi + 1)), "wrong degree column")
    ratios = rows[:, 1]
    _require(bool(np.all((ratios > 0) & (ratios <= 1.0 + RATIO_SLACK))),
             "ratio outside (0, 1]")
    _require(bool(np.all(np.diff(ratios) <= RATIO_SLACK)),
             "ratios do not decrease with p")
    _require(ratios[-1] < 0.1, f"f_p(pi)/max f_p = {ratios[-1]} at p = {hi}")


def check_cardinal(job: Job, text: str) -> None:
    rows = _csv_columns(text, 2)
    p = job.meta["p"]
    grid = job.meta["grid"]
    _require(rows.shape[0] == grid, f"{rows.shape[0]} rows, expected {grid}")
    t, v = rows[:, 0], rows[:, 1]
    _require(np.allclose(t, np.linspace(0.0, p + 1.0, grid), rtol=0, atol=1e-12),
             "wrong abscissae")
    _require(bool(np.all(np.isfinite(v))), "non-finite value")
    _require(v.min() >= -POSITIVITY_TOL, f"negative value {v.min():.3g}")
    _require(abs(v[0]) <= POSITIVITY_TOL and abs(v[-1]) <= POSITIVITY_TOL,
             "nonzero at the ends of the support")
    steps = (grid - 1) // (p + 1)
    _require(steps * (p + 1) == grid - 1 and steps % 2 == 0, "grid not aligned")
    h = (p + 1) / (grid - 1)
    pieces = v[:-1].reshape(p + 1, steps)
    ends = v[steps::steps]
    # composite Simpson on each unit interval, where the spline is smooth
    simpson = h / 3 * (pieces[:, 0] + ends + 4 * pieces[:, 1::2].sum(axis=1)
                       + 2 * pieces[:, 2::2].sum(axis=1))
    _require(abs(simpson.sum() - 1.0) <= INTEGRAL_TOL,
             f"integral - 1 = {simpson.sum() - 1.0:.3g}")
    partition = pieces.sum(axis=0)
    _require(float(np.max(np.abs(partition - 1.0))) <= PARTITION_TOL,
             f"partition of unity off by {np.max(np.abs(partition - 1.0)):.3g}")
    if job.id in MPMATH_CARDINALS:
        for i in MPMATH_INDICES:
            ref = cardinal_mp(job.meta["family"], job.meta["phase"], p, float(t[i]))
            _require(abs(v[i] - ref) <= MPMATH_TOL,
                     f"phi({t[i]}) = {v[i]!r}, mpmath {ref!r}")


def check_symbol(job: Job, text: str) -> None:
    rows = _csv_columns(text, 2)
    theta, v = rows[:, 0], rows[:, 1]
    _require(rows.shape[0] == 512, "wrong grid size")
    _require(bool(np.all(np.isfinite(v))), "non-finite value")
    parity = -1.0 if job.meta["kind"] == "g" else 1.0
    _require(np.allclose(v[::-1], parity * v, rtol=0, atol=1e-12), "wrong parity")
    idx = np.array(SYMBOL_INDICES)
    ref = symbol_mp(job.meta["kind"], job.meta["family"], job.meta["phase"],
                    job.meta["p"], theta[idx])
    scale = max(1.0, float(np.max(np.abs(v))))
    err = float(np.max(np.abs(v[idx] - ref)))
    _require(err <= MPMATH_TOL * scale, f"symbol off mpmath by {err:.3g}")


def check_toeplitz(job: Job, text: str) -> None:
    rows = _csv_columns(text, 2)
    m = job.meta["m"]
    _require(rows.shape[0] == m, f"{rows.shape[0]} eigenvalues, expected {m}")
    _require(float(np.max(np.abs(rows[:, 1]))) <= TOEPLITZ_TOL, "complex eigenvalues")
    exact = np.sort(2.0 - 2.0 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1)))
    err = float(np.max(np.abs(np.sort(rows[:, 0]) - exact)))
    _require(err <= TOEPLITZ_TOL, f"eigenvalues off 2-2cos(j pi/(m+1)) by {err:.3g}")


_CHECKS = {
    "distribution": check_distribution,
    "distribution-md": check_distribution,
    "bounds": check_bounds,
    "decay": check_decay,
    "cardinal": check_cardinal,
    "symbol": check_symbol,
    "toeplitz": check_toeplitz,
}


def check(job: Job, outcome: Outcome) -> str | None:
    """None if the op passed, else the reason it failed."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    try:
        _CHECKS[job.command](job, outcome.stdout)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
