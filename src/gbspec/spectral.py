"""Toeplitz generation, dense eigenvalues and Weyl-distribution reports.

Dense eigenvalues take one path, which uses the reflection symmetry of a
matrix where it is exact.  A matrix unchanged, entry for entry, by
reversing the index inside every block of ``s`` consecutive indices, for
``k`` nested block sizes ``s_1 | s_2 | ...`` (a tensor collocation matrix
with constant coefficients on the identity geometry, or a symmetric
Toeplitz matrix), is solved as ``2**k`` independent parity blocks of about
``N / 2**k`` rows each, every block built only when it is solved.  With
``k = 0`` the one block is the matrix itself.

A Hermitian Toeplitz matrix of bandwidth <= 1 needs no solve.  It lies in
the tau algebra, which the sine transform diagonalises (D. Bini and
M. Capovani, Linear Algebra Appl. 52/53, 1983): the m-by-m matrix with
diagonal ``c0`` and off-diagonals ``c1``, ``conj(c1)`` has the eigenvalues
``c0 + 2|c1| cos(j pi/(m+1))``, j = 1..m.  Every symbol of degree p <= 3
(``floor(p/2) + 1`` coefficients) gives such a matrix.
:func:`toeplitz_eigenvalues` takes them from that closed form, with no
matrix, and :func:`eigenvalues_dense` gives a matrix that is exactly one
the same values.

The distribution comparator sorts eigenvalue real parts against the monotone
rearrangement of symbol samples, reports moment errors for the test functions
``F(z) = z**r`` (r = 1..4) against the symbol's moments by exact quadrature in
theta, the largest imaginary part, and outlier counts relative to box
expansions of the sampled symbol range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, UsageError

if TYPE_CHECKING:
    from .symbols import SymbolFn

#: refuse dense eigenvalue computations above this order by default
DEFAULT_ORDER_CAP = 4096

#: symbol lattice values per requested quantile, at least
LATTICE_OVERSAMPLE = 32

#: Gauss-Legendre nodes per panel of the moment quadrature in x
_GAUSS_NODES = 8

#: agreement of two quadrature levels at which a moment is taken as settled
_MOMENT_RTOL = 1e-13

#: nodes in x beyond which an unsettled moment is refused
_MAX_QUADRATURE_NODES = 2**21

#: symbol values evaluated at a time by the moment quadrature
_CHUNK_VALUES = 2**16

#: rows per block of the reflection test in eigenvalues_dense
_SYMMETRY_ROWS = 256

#: entries of the one row-block buffer of the Hermitian test
_RESIDUAL_ENTRIES = 2**17


@dataclass(frozen=True)
class ToeplitzSpec:
    """Fourier coefficients c_k, k = -b..b, of a (banded) symbol."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients))
        if c.ndim != 1 or c.size % 2 != 1:
            raise UsageError("coefficient list must have odd length 2b+1")
        object.__setattr__(self, "coefficients", c)

    @property
    def bandwidth(self) -> int:
        return self.coefficients.size // 2

    @property
    def is_hermitian(self) -> bool:
        c = self.coefficients
        return bool(np.allclose(c[::-1], np.conj(c), rtol=0.0, atol=0.0))


def toeplitz(spec: ToeplitzSpec, m: int) -> np.ndarray:
    """Dense m-by-m Toeplitz matrix with entries c_{j-k} (zero beyond the band)."""
    return toeplitz_view(spec, m).copy()


def toeplitz_view(spec: ToeplitzSpec, m: int) -> np.ndarray:
    """:func:`toeplitz` as a read-only strided view of its 2m-1 diagonals.

    It holds O(m) memory: no m-by-m array is made.
    """
    if m < 1:
        raise UsageError("order must be >= 1")
    c = spec.coefficients
    b = spec.bandwidth
    reach = max(b, m - 1)
    padded = np.zeros(2 * reach + 1, dtype=float if np.isrealobj(c) else complex)
    padded[reach - b:reach + b + 1] = c
    # diagonal j - k = d holds padded[reach + d]: row j is a reversed window
    diagonals = padded[reach - m + 1:reach + m]
    return sliding_window_view(diagonals, m)[:, ::-1]


def check_order(order: int, what: str = "order") -> None:
    """Refuse an ``order`` above :data:`DEFAULT_ORDER_CAP`, read at call time."""
    if order > DEFAULT_ORDER_CAP:
        raise UsageError(f"{what} {order} exceeds cap {DEFAULT_ORDER_CAP}")


def toeplitz_eigenvalues(spec: ToeplitzSpec, m: int) -> np.ndarray:
    """All eigenvalues of the m-by-m Toeplitz matrix of ``spec``, as a complex
    array.

    A finite Hermitian matrix of bandwidth <= 1 takes the tau closed form
    (:func:`_tau_eigenvalues`) in O(m) time and memory, with no matrix;
    its eigenvalues come in ascending order, with imaginary parts +0.0.
    Every other matrix is solved as ``eigenvalues_dense(toeplitz_view(spec,
    m))``.  Both paths refuse an order above the cap.
    """
    if m < 1:
        raise UsageError("order must be >= 1")
    check_order(m)
    if _in_tau(spec):
        return _tau_eigenvalues(spec.coefficients, m)
    return eigenvalues_dense(toeplitz_view(spec, m))


def _in_tau(spec: ToeplitzSpec) -> bool:
    """Whether ``spec`` is finite, Hermitian and of bandwidth <= 1."""
    return spec.bandwidth <= 1 and spec.is_hermitian \
        and bool(np.isfinite(spec.coefficients).all())


def _tau_spec(a: np.ndarray) -> ToeplitzSpec | None:
    """The spec of ``a`` if ``a`` is exactly, entry for entry, the Toeplitz
    matrix of a spec that :func:`_in_tau` accepts, else None.

    Its three central diagonals must each be constant, which rejects most
    other matrices in O(N); only then are the nonzero entries of the whole
    matrix counted, which must all lie on them.
    """
    # the diagonals of c_-1, c0 and c1: a[j, k] = c_{j-k}
    bands = [np.diagonal(a, d) for d in (1, 0, -1)]
    if not all((band == band[:1]).all() for band in bands) \
            or sum(map(np.count_nonzero, bands)) != np.count_nonzero(a):
        return None
    spec = ToeplitzSpec([band[0] for band in bands if band.size])
    return spec if _in_tau(spec) else None


def _tau_eigenvalues(c: np.ndarray, m: int) -> np.ndarray:
    """``c0 + 2|c1| cos(j pi/(m+1))``, j = 1..m, in ascending order, as a
    complex array.

    With ``phi_k = (2k-m-1) pi/(2(m+1))`` the k-th is ``c0 + 2|c1|
    sin(phi_k)``: exactly ``c0`` at the middle k of an odd m, and so
    exactly 0 there when c0 = 0.  That form is taken unless its sine term
    has the opposite sign to c0 and exceeds ``2|c0|/3``, so that it
    cancels to below a third of c0.  There the same value comes from the
    end of the spectrum next to it, where the symbol is ``c0 -+ 2|c1|``
    (near 0 for f), with ``psi_i = i pi/(2(m+1))``: ``(c0 - 2|c1|) +
    4|c1| sin(psi_k)**2`` if c0 > 0, ``(c0 + 2|c1|) - 4|c1|
    sin(psi_{m+1-k})**2`` if c0 < 0; neither form cancels.
    """
    c0 = float(c[c.size // 2].real)
    s = float(abs(c[-1])) if c.size == 3 else 0.0
    step = math.pi / (2 * (m + 1))
    k = np.arange(1, m + 1)
    term = 2.0 * s * np.sin((2 * k - m - 1) * step)
    vals = c0 + term
    far = (c0 * term < 0.0) & (np.abs(term) > 2.0 * abs(c0) / 3.0)
    if far.any():
        i = k[far] if c0 > 0.0 else m + 1 - k[far]
        vals[far] = (c0 - math.copysign(2.0 * s, c0)) \
            + math.copysign(4.0 * s, c0) * np.sin(i * step) ** 2
    return vals.astype(complex)


def eigenvalues_dense(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense matrix, as a complex array.

    Symmetric/Hermitian inputs are routed to the symmetric solver
    (tridiagonalization plus implicitly shifted iterations); everything else
    goes through Hessenberg reduction with shifted QR iterations.

    Every matrix takes one path, :func:`_parity_eigenvalues`, with the block
    sizes ``s`` under whose index reversal it is exactly unchanged
    (:func:`_reflection_sizes`): ``k`` such sizes split it into ``2**k``
    independent parity blocks of about ``N / 2**k`` rows, each built only
    when it is solved.  A tensor collocation matrix with constant
    coefficients on the identity geometry has one size per direction; a
    matrix with none is one block, the whole matrix, and the solver sees it
    unchanged.  A matrix that is exactly a finite Hermitian Toeplitz matrix
    of bandwidth <= 1 (:func:`_tau_spec`) is not solved: it gets the tau
    closed form, the eigenvalues :func:`toeplitz_eigenvalues` gives for its
    spec.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError("matrix must be square")
    if not a.size:
        raise UsageError("matrix must not be empty")
    check_order(a.shape[0])
    spec = _tau_spec(a)
    if spec is not None:
        return _tau_eigenvalues(spec.coefficients, a.shape[0])
    try:
        residual, scale = _hermitian_residual(a)
        hermitian = bool(residual <= 1e-13 * max(scale, 1.0))
        return _parity_eigenvalues(a, _reflection_sizes(a), hermitian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def _reflection_sizes(a: np.ndarray) -> list[int]:
    """Block sizes ``s >= 2`` under whose reversal ``a`` is exactly invariant.

    Reversing inside blocks of size ``s`` maps index ``i`` to ``s*(i//s) +
    s-1 - i%s``.  The sizes are taken in ascending order, each one only if
    the previous one divides it, so that they nest: ``s_1 | s_2 | ... | N``.
    """
    size = a.shape[0]
    sizes: list[int] = []
    for s in range(2, size + 1):
        if size % s == 0 and (not sizes or s % sizes[-1] == 0) \
                and _reflection_invariant(a, s):
            sizes.append(s)
    return sizes


def _reflection_invariant(a: np.ndarray, s: int) -> bool:
    """Whether ``a`` equals itself with the index reversed inside each s-block.

    Row 0 is compared with its image, row ``s-1``, first, which rejects most
    sizes in O(N); the whole matrix is then compared over blocks of about
    ``_SYMMETRY_ROWS`` rows, so no N x N temporary is made.
    """
    blocks = a.shape[0] // s
    if not np.array_equal(a[0].reshape(blocks, s),
                          a[s - 1].reshape(blocks, s)[:, ::-1]):
        return False
    x = a.reshape(blocks, s, blocks, s)
    mirror = x[:, ::-1, :, ::-1]
    step = max(1, _SYMMETRY_ROWS // blocks)
    return all(np.array_equal(x[:, lo:lo + step], mirror[:, lo:lo + step])
               for lo in range(0, s, step))


def _parity_eigenvalues(a: np.ndarray, sizes: Sequence[int],
                        hermitian: bool) -> np.ndarray:
    """Eigenvalues of ``a``, invariant under the nested reversals ``sizes``.

    Nested sizes ``s_1 | ... | s_k`` write each index in mixed radix with the
    digits ``N/s_k, s_k/s_{k-1}, ..., s_1``; reversing inside s_j-blocks
    flips the last j digits, so reversing any one of the last k digits
    alone also leaves ``a`` unchanged.  Each such digit of radix r splits
    into its even part (index pairs ``a, r-1-a`` added; the middle index of
    an odd r times sqrt(2)) and its odd part (the pairs subtracted).  That
    change of basis is sqrt(2) times an orthogonal one, so it keeps a
    symmetric or Hermitian matrix so, and it doubles every eigenvalue.  In
    it, ``a`` has no entries between the parts, so each split leaves two
    independent blocks: after k splits, 2**k blocks, of about N / 2**k rows.
    With no sizes, the one digit is the whole index and ``a`` is the block.

    The blocks are built depth first: each split writes its even block into
    a new array and splits or solves that before it builds the odd one, so
    no two blocks of one split are held at once.  The eigenvalues of a
    symmetric or Hermitian ``a`` are returned in ascending order, as the
    symmetric solver returns them.
    """
    bounds = [a.shape[0], *sizes[::-1], 1]
    radices = [hi // lo for hi, lo in zip(bounds, bounds[1:])]
    x = a.reshape(radices * 2).astype(np.result_type(a.dtype, float), copy=False)
    solve = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
    eigs = []

    def split(block: np.ndarray, axis: int) -> None:
        if axis == 0:
            order = math.isqrt(block.size)
            eigs.append(solve(block.reshape(order, order)))
            return
        for part in (0, 1):
            split(_parity_block(block, axis, part), axis - 1)

    split(x, len(radices) - 1)
    vals = np.concatenate(eigs) / 2.0 ** len(sizes)
    return (np.sort(vals) if hermitian else vals).astype(complex)


def _parity_block(x: np.ndarray, axis: int, part: int) -> np.ndarray:
    """The even (``part`` 0) or odd (``part`` 1) parity block of ``x`` along
    one digit, as a new array.

    ``axis`` is the digit's row axis; its column axis is ``axis + x.ndim//2``.
    With ``f`` the first ``r//2`` values of the digit and ``b`` their mirror
    images ``r-1, r-2, ...``, the odd block is ``x[f,f] - x[f,b] - x[b,f] +
    x[b,b]`` and the even block has the sums with plus signs, bordered for
    odd ``r`` by the middle row and column added to their mirrors and times
    sqrt(2), and the middle entry times 2.  Every sum is formed in place.
    """
    r = x.shape[axis]
    h = r // 2
    front, back, mid = slice(0, h), slice(r - 1, r - 1 - h, -1), slice(h, h + 1)

    def at(arr: np.ndarray, row: slice, col: slice) -> np.ndarray:
        index = [slice(None)] * arr.ndim
        index[axis], index[axis + arr.ndim // 2] = row, col
        return arr[tuple(index)]

    shape = list(x.shape)
    shape[axis] = shape[axis + x.ndim // 2] = (r + 1 - part) // 2
    out = np.empty(shape, dtype=x.dtype)
    core = at(out, front, front)
    combine = np.subtract if part else np.add
    np.add(at(x, front, front), at(x, back, back), out=core)
    combine(core, at(x, front, back), out=core)
    combine(core, at(x, back, front), out=core)
    if r % 2 and not part:
        row, col = at(out, mid, front), at(out, front, mid)
        np.add(at(x, mid, front), at(x, mid, back), out=row)
        np.add(at(x, front, mid), at(x, back, mid), out=col)
        row *= math.sqrt(2.0)
        col *= math.sqrt(2.0)
        np.multiply(at(x, mid, mid), 2.0, out=at(out, mid, mid))
    return out


def _hermitian_residual(a: np.ndarray) -> tuple[float, float]:
    """``max|a - a^H|`` and ``max|a|`` of a square matrix, by row blocks.

    Each block of rows is compared with the matching columns in one buffer
    of about ``_RESIDUAL_ENTRIES`` entries, reused for every block, so no
    N x N temporary is made; a maximum does not depend on the order it is
    taken in, so both values equal those of the whole-matrix expressions.
    An entry that is not finite is refused before its block is compared.
    """
    size = a.shape[0]
    rows = max(1, _RESIDUAL_ENTRIES // size)
    block = np.empty((min(rows, size), size), dtype=a.dtype)
    magnitude = np.empty(block.shape) if np.iscomplexobj(block) else block
    residuals, scales = [], []
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        out, mag = block[:hi - lo], magnitude[:hi - lo]
        scales.append(np.max(np.abs(a[lo:hi], out=mag)))
        if not np.isfinite(scales[-1]):
            raise NumericalError(
                "eigenvalue iteration failed: Array must not contain infs or NaNs")
        np.conjugate(a[:, lo:hi].T, out=out)
        np.subtract(a[lo:hi], out, out=out)
        residuals.append(np.max(np.abs(out, out=mag)))
    return np.max(residuals), np.max(scales)


class SymbolDraw(NamedTuple):
    """What a sampler returns for ``count``.

    ``quantiles`` are ``count`` evenly spaced order statistics of the symbol
    over its domain, ascending; ``moments`` are the means of ``symbol**r``
    over the whole domain, r = 1..4, by :func:`symbol_moments`.
    """

    quantiles: np.ndarray
    moments: tuple[float, float, float, float]


Sampler = Callable[[int], SymbolDraw]


@dataclass(frozen=True)
class DistributionReport:
    """Discrepancy summary between a spectrum and sorted symbol samples."""

    order: int
    mean_abs_discrepancy: float
    moment_errors: tuple[float, float, float, float]
    max_imag: float
    outliers: dict[float, int]

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "mean_abs_discrepancy": self.mean_abs_discrepancy,
            "moment_errors": list(self.moment_errors),
            "max_imag": self.max_imag,
            "outliers": {f"{eps:.17g}": c for eps, c in self.outliers.items()},
        }


def check_outlier_eps(eps_values: Sequence[float]) -> None:
    """Refuse an outlier ``eps`` that is NaN, infinite or negative."""
    for eps in eps_values:
        if not 0.0 <= eps < math.inf:
            raise UsageError(f"outlier eps must be finite and >= 0, got {eps!r}")


def weyl_report(eigs: np.ndarray, sampler: Sampler,
                eps_values: Sequence[float] = ()) -> DistributionReport:
    """Compare a spectrum against a symbol through its monotone rearrangement.

    ``sampler(count)`` is called once and returns a :class:`SymbolDraw`:
    its ``count`` quantiles give the discrepancy and the outlier box, and
    the r-th moment error is |mean(lambda^r) - mean(symbol^r)| against its
    ``moments``.  An outlier ``eps`` that is NaN, infinite or negative is
    refused (:func:`check_outlier_eps`).
    """
    check_outlier_eps(eps_values)
    eigs = np.asarray(eigs, dtype=complex).ravel()
    d = eigs.size
    if d == 0:
        raise UsageError("empty spectrum")
    draw = sampler(d)
    samples = np.sort(np.asarray(draw.quantiles, dtype=float).ravel())
    if samples.size != d:
        raise UsageError(f"sampler returned {samples.size} values, expected {d}")
    if len(draw.moments) != 4:
        raise UsageError(f"sampler returned {len(draw.moments)} moments, expected 4")
    sorted_re = np.sort(eigs.real)
    discrepancy = float(np.mean(np.abs(sorted_re - samples)))
    errors = tuple(float(abs(np.mean(eigs**r) - m))
                   for r, m in enumerate(draw.moments, start=1))

    lo, hi = float(samples.min()), float(samples.max())
    outliers = {}
    for eps in eps_values:
        bad = ((eigs.real < lo - eps) | (eigs.real > hi + eps)
               | (np.abs(eigs.imag) > eps))
        outliers[float(eps)] = int(np.sum(bad))
    return DistributionReport(
        order=d, mean_abs_discrepancy=discrepancy,
        moment_errors=errors, max_imag=float(np.max(np.abs(eigs.imag))),
        outliers=outliers,
    )


def symbol_moments(coefficients: Callable[[np.ndarray], np.ndarray],
                   weights: Callable[[np.ndarray], np.ndarray],
                   bandwidths: Sequence[int]) -> tuple[float, float, float, float]:
    """Means of ``s**r``, r = 1..4, over [0,1]^d x [-pi,pi]^d, by quadrature.

    The symbol is ``s(x, theta) = sum_t coefficients(x)[t] * weights(theta)[t]``:
    ``coefficients`` maps points of shape ``(k, d)`` to values ``(k, T)`` and
    ``weights`` maps frequencies ``(M, d)`` to values ``(T, M)``, a
    trigonometric polynomial of degree at most ``bandwidths[k]`` in
    ``theta_k``.  In theta the rule is ``4 b_k + 1`` equispaced points per
    direction over the whole period, exact for the fourth power.  In x it is
    the tensor composite Gauss-Legendre rule of ``_GAUSS_NODES`` nodes on
    ``2**level`` panels per direction, doubled until two levels agree to
    ``_MOMENT_RTOL`` relative to the mean of ``|s|**r``; it evaluates at most
    about ``_CHUNK_VALUES`` symbol values at a time.  Raises
    :class:`NumericalError` if a moment has not settled at
    ``_MAX_QUADRATURE_NODES`` nodes in x.
    """
    d = len(bandwidths)
    axes = [-math.pi + 2.0 * math.pi * np.arange(4 * b + 1) / (4 * b + 1)
            for b in bandwidths]
    w = np.asarray(weights(_tensor_grid(axes)), dtype=float)
    nodes, node_weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    previous, panels = None, 1
    while True:
        xs = (np.arange(panels)[:, None] + (nodes + 1.0) / 2.0).ravel() / panels
        ws = np.tile(node_weights / (2.0 * panels), panels)
        sums, scales = _moment_sums(coefficients, w, xs, ws, d)
        if previous is not None:
            unsettled = np.abs(sums - previous) > _MOMENT_RTOL * scales
            if not unsettled.any():
                return tuple(float(v) for v in sums)
            if (2 * xs.size) ** d > _MAX_QUADRATURE_NODES:
                r = int(np.argmax(unsettled))
                raise NumericalError(
                    f"moment r={r + 1} of the symbol did not settle: "
                    f"{previous[r]!r} with {xs.size // 2} and {sums[r]!r} with "
                    f"{xs.size} Gauss-Legendre nodes per direction")
        previous, panels = sums, 2 * panels


def _moment_sums(coefficients, w: np.ndarray, xs: np.ndarray, ws: np.ndarray,
                 d: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature sums of ``s**r`` and ``|s|**r``, r = 1..4, on one x rule.

    ``xs``, ``ws`` are the 1D nodes and weights, taken to the power d as a
    tensor rule; the theta mean is over the columns of ``w``.
    """
    count = xs.size ** d
    rows = max(1, _CHUNK_VALUES // w.shape[1])
    sums, scales = np.zeros(4), np.zeros(4)
    for lo in range(0, count, rows):
        index = np.unravel_index(np.arange(lo, min(lo + rows, count)),
                                 (xs.size,) * d)
        points = np.stack([xs[i] for i in index], axis=1)
        weight = np.prod([ws[i] for i in index], axis=0)
        s = np.asarray(coefficients(points), dtype=float) @ w
        power = np.ones_like(s)
        for r in range(4):
            power *= s
            sums[r] += weight @ power.mean(axis=1)
            scales[r] += weight @ (np.abs(power) if r % 2 == 0 else power).mean(axis=1)
    return sums, scales


def symbol_sampler(coefficients: Callable[[np.ndarray], np.ndarray],
                   weights: Callable[[np.ndarray], np.ndarray],
                   bandwidths: Sequence[int]) -> Sampler:
    """Sampler of the symbol of :func:`symbol_moments`, with the same arguments.

    The quantiles are evenly spaced order statistics of the sorted symbol
    values on the midpoint lattice over [0,1]^d x [-pi,pi]^d, which holds at
    least ``LATTICE_OVERSAMPLE`` values per quantile.  The moments come from
    :func:`symbol_moments`, once for every count.
    """
    d = len(bandwidths)
    moments = None

    def sample(count: int) -> SymbolDraw:
        nonlocal moments
        if count < 1:
            raise UsageError("sample count must be >= 1")
        side = max(4, math.ceil((LATTICE_OVERSAMPLE * count) ** (1.0 / (2 * d))))
        k = np.arange(side) + 0.5
        c = np.asarray(coefficients(_tensor_grid([k / side] * d)), dtype=float)
        w = np.asarray(weights(_tensor_grid([-math.pi + 2.0 * math.pi * k / side] * d)),
                       dtype=float)
        # einsum sums each value's terms in index order over contiguous
        # rows, which fixes its bits; ``@`` leaves the order to BLAS
        values = np.einsum("mt,nt->mn", np.ascontiguousarray(c),
                           np.ascontiguousarray(w.T)).ravel()
        values.sort()
        if moments is None:
            moments = symbol_moments(coefficients, weights, bandwidths)
        return SymbolDraw(_order_statistics(values, count), moments)

    return sample


def product_symbol_sampler(coefficient: Callable[[np.ndarray], np.ndarray],
                           symbol: SymbolFn) -> Sampler:
    """:func:`symbol_sampler` for a separable symbol  a(x) * s(theta)  in 1D."""
    return symbol_sampler(
        lambda x: np.broadcast_to(np.asarray(coefficient(x[:, 0]), dtype=float),
                                  x.shape[:1])[:, None],
        lambda t: np.asarray(symbol(t[:, 0]), dtype=float)[None, :],
        [symbol.coefficients.size - 1])


def _tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Points of the tensor grid of ``axes``, shape (points, d), last axis fastest."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _order_statistics(sorted_values: np.ndarray, count: int) -> np.ndarray:
    """Evenly spaced order statistics of an already-sorted sample pool."""
    pos = ((np.arange(count) + 0.5) * sorted_values.size / count - 0.5)
    idx = np.clip(np.round(pos).astype(int), 0, sorted_values.size - 1)
    return sorted_values[idx]
