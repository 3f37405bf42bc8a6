"""C ``%.17g`` text of float arrays, a block of values at a time.

:func:`lines` writes rows of values as the CSV lines of the command-line
front end, byte for byte as ``'%.17g' % v`` (``'%.17g%+.17gj'`` for a
complex value) would, with numpy passes instead of one correctly rounded
conversion per value.

A value's 17 significant digits are ``D = round(|x| * 10**k)`` with
``k = 16 - X``, where X is the decimal exponent that ``%.17e`` prints.
X comes from ``log10``, settled against an exact table of decade
boundaries.  The product is formed in double-double arithmetic:
``10**k = hi + lo`` from exact integers, ``|x| * hi`` error-free
(Dekker's product), plus ``|x| * lo``.  The digits are certified when the
computed product lies farther than its proven error bound from every
half-integer (see :func:`digits`); every other value -- exact decimal ties,
nan, inf, subnormals and magnitudes outside the table -- is printed by
``%`` itself, so no output byte depends on which path printed it.

The layout is C's: style f when -4 <= X < 17, otherwise style e with at
least two exponent digits; trailing zeros dropped, and the decimal point
too when nothing follows it; ``-`` on every negative value, ``-0``
included; ``+`` on the imaginary part of a complex value, followed by
``j``.  The characters of a block go into a byte matrix, one column per
value, in which a zero byte marks a dropped position.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

#: decimal exponents of the table: neither 2**27 + 1 times |x| nor times
#: 10**k overflows, and no partial product of Dekker's product is subnormal.
#: Values are printed from X = _XMIN + 1 to _XMAX - 1, so that log10, which
#: may miss the decade by one, stays inside the table.
_XMIN, _XMAX = -280, 280
#: proven bound on the error of the double-double product, below
_ERROR_BOUND = 2.0**-47
#: the product is certified when it lies farther than this from a
#: half-integer: the error bound with a margin of 8
_CERTIFIED = 8 * _ERROR_BOUND
#: blocks of fewer values are printed by ``%``, whose cost has no fixed part
_SMALL_BLOCK = 400
#: byte rows of a value's text: sign, "0.000" of style f below 1, the 17
#: digits with their point, the exponent, and at most two bytes after it
_SIGN, _LEAD, _DIGITS, _EXP, _AFTER = 0, 1, 6, 24, 29
_ROWS = _AFTER + 2
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _least_double_at_least(num: int, den: int) -> float:
    """The least double >= num/den, from correctly rounded ``int`` division."""
    value = num / den
    n, d = value.as_integer_ratio()
    return math.nextafter(value, math.inf) if n * den < num * d else value


def _pow10(k: int) -> tuple[float, float]:
    """``10**k`` as a double-double ``hi + lo``, both correctly rounded."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    m = 10**-k
    hi = 1 / m
    n, d = hi.as_integer_ratio()
    return hi, (d - n * m) / (d * m)


class _Tables(NamedTuple):
    """Everything :func:`digits` and :func:`_layout` look up, by exponent
    X (index X - _XMIN) or by group of four digits."""

    bounds: np.ndarray  # least magnitude printed with exponent X, to X = _XMAX + 1
    hi: np.ndarray  # 10**(16-X) = hi + lo
    hi_hi: np.ndarray  # hi = hi_hi + hi_lo, Veltkamp's split
    hi_lo: np.ndarray
    lo: np.ndarray
    margin: np.ndarray  # least certified distance from a half-integer
    lead_exp: np.ndarray  # 10 byte rows: "0.000" below 1, then "e+XX"
    point: np.ndarray  # the digit the point follows (17: none)
    least: np.ndarray  # fewest digits printed
    four: np.ndarray  # "0000" to "9999", little-endian words of ASCII bytes


@functools.cache
def _tables() -> _Tables:
    """The tables, built on the first block of values that needs them."""
    exponents = range(_XMIN, _XMAX + 2)
    # the least magnitude whose 17 digits round to exponent X: the digits
    # of (10**17 - 1/2) * 10**(X-17) round up, half to even, to 10**17
    bounds = np.array([_least_double_at_least(
        (2 * 10**17 - 1) * 10**max(x - 17, 0), 2 * 10**max(17 - x, 0))
        for x in exponents])
    xs = np.arange(_XMIN, _XMAX + 1)
    hi, lo = np.array([_pow10(16 - x) for x in xs.tolist()]).T
    big = _SPLIT * hi
    hi_hi = big - (big - hi)
    # lo is 0 when 10**k is a double: then the product is exact
    margin = np.where(lo == 0.0, 0.0, _CERTIFIED)
    # zero bytes where a style prints no "0.000" or no exponent
    text = b"".join(
        (b"0.000"[:1 - x] if -4 <= x < 0 else b"").ljust(5, b"\0")
        + (b"e%+03d" % x if not -4 <= x < 17 else b"").ljust(5, b"\0")
        for x in xs.tolist())
    style_f = (xs >= -4) & (xs < 17)
    # style f prints every digit before its point
    point = np.where(style_f, np.where(xs < 0, 17, xs), 0).astype(np.uint8)
    least = np.where(style_f & (xs >= 0), xs + 1, 1).astype(np.uint8)
    four = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    return _Tables(bounds, hi, hi_hi, hi - hi_hi, lo, margin,
                   np.frombuffer(text, np.uint8).reshape(-1, 10).T.copy(),
                   point, least, four.astype(np.uint8).view("<u4").ravel())


def digits(a: np.ndarray):
    """``(D, X, certified)`` of the magnitudes ``a`` (a 1-D float array).

    ``D`` holds the 17 significant digits (10**16 <= D < 10**17) and ``X``
    the decimal exponent of ``'%.17e' % a`` wherever ``certified`` is true;
    elsewhere, and at zero, which is certified, D and X are 0.

    The bound: X is exact, so y = a * 10**k lies in [10**16 - 1/20,
    10**17 - 1/2) < 2**57.  The table holds 10**k = hi + lo to within
    2**-106 * 10**k; p + e = a * hi exactly, with |e| <= ulp(p)/2 <= 8;
    t = fl(a * lo), with |a * lo| < 2**-53 * y < 16, errs by at most 2**-50;
    s = fl(e + t), with |e + t| < 32, errs by at most 2**-49.  So
    |y - (p + s)| < 2**-49 + 2**-50 + 2**-49 < 2**-47 (``_ERROR_BOUND``).
    p > 2**53 is an integer, so round(y) = p + round(s) whenever the
    fraction of s lies farther than that from 1/2; certification asks for
    2**-44.  Where lo is 0 (0 <= k <= 22) the product is exact and only an
    exact tie, a fraction of exactly 1/2, which % rounds half to even, is
    refused.
    """
    t = _tables()
    bounds = t.bounds
    zero = a == 0.0
    ok = (a >= bounds[1]) & (a < bounds[-2])
    # nan, inf and zero never reach log10 or an integer cast
    a = np.where(ok, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _XMIN
    # log10 may miss the decade by one next to a power of ten
    i -= a < bounds[i]
    i += a >= bounds[i + 1]
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    hi, hi_hi, hi_lo = t.hi[i], t.hi_hi[i], t.hi_lo[i]
    p = a * hi
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    s = e + a * t.lo[i]
    whole = np.floor(s)
    frac = s - whole
    ok &= np.abs(frac - 0.5) > t.margin[i]
    d = (p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)) * ok
    return d, (i + _XMIN) * ok, ok | zero


def _digit_bytes(d: np.ndarray, four: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each ``d`` (below 10**17), one row per place,
    from ``four``, the words of four digits."""
    top, rest = np.divmod(d, 10**16)
    groups = np.empty((5, d.size), dtype=np.uint32)
    groups[0] = top
    groups[1:3] = np.divmod(rest // 10**8, 10**4)
    groups[3:] = np.divmod(rest % 10**8, 10**4)
    # four ASCII digits a group, the last of the first group's being top's
    words = four[groups].view(np.uint8).reshape(5, d.size, 4)
    return words.transpose(0, 2, 1).reshape(20, d.size)[3:]


def lines(values: np.ndarray) -> str:
    """The CSV lines of ``values``, a 2-D real or complex array, one line
    per row: each value as ``%.17g``, a complex one as ``%.17g%+.17gj``."""
    values = np.asarray(values)
    rows = len(values)
    is_complex = np.iscomplexobj(values)
    cols = values.size // rows if rows else 0
    if is_complex:
        flat = np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1)
        field = "%.17g%+.17gj"
    else:
        flat = np.asarray(values, dtype=float).reshape(-1)
        field = "%.17g"
    if flat.size < _SMALL_BLOCK:
        return (",".join([field] * cols) + "\n") * rows % tuple(flat.tolist())
    # per field of a row: the sign a positive value takes and the bytes after
    fields = 2 * cols if is_complex else cols
    plus = np.zeros(fields, dtype=np.uint8)
    after = np.zeros((2, fields), dtype=np.uint8)
    if is_complex:
        plus[1::2] = ord("+")
        after[:, 1::2] = [[ord("j")], [ord(",")]]
        after[1, -1] = ord("\n")
    else:
        after[0] = ord(",")
        after[0, -1] = ord("\n")
    plus = np.tile(plus, rows)
    text, slow = _layout(flat, plus, np.tile(after, rows))
    out = text.T.tobytes().translate(None, b"\0").decode("ascii")
    if slow.size == 0:
        return out
    # the values the digits do not certify, by %, in place of each "?"
    forms = ["%+.17g" if sign else "%.17g" for sign in plus[slow].tolist()]
    parts = out.split("?")
    return parts[0] + "".join(
        form % v + part
        for form, v, part in zip(forms, flat[slow].tolist(), parts[1:]))


def _layout(v: np.ndarray, plus: np.ndarray, after: np.ndarray):
    """The byte matrix of the values ``v`` and the indices of the values %
    must print: one column per value, zero bytes where nothing prints, and
    ``?`` alone in place of a value % prints."""
    t = _tables()
    d, x, ok = digits(np.abs(v))
    i = x - _XMIN
    text = np.empty((_ROWS, v.size), dtype=np.uint8)
    text[_SIGN] = np.where(np.signbit(v), ord("-"), plus)
    lead_exp = t.lead_exp[:, i]
    text[_LEAD:_DIGITS] = lead_exp[:5]
    text[_EXP:_AFTER] = lead_exp[5:]
    text[_AFTER:] = after
    ch = _digit_bytes(d, t.four)
    # digits printed: up to the last nonzero one, and every one before the point
    count = (np.arange(1, 18, dtype=np.uint8)[:, None] * (ch != ord("0"))).max(axis=0)
    count = np.maximum(count, t.least[i])
    pt = t.point[i]
    shown = count + (pt + 1 < count)  # digits, and the point when one follows it
    # digit j at row j up to the point, the point, then digit j at row j + 1
    place = np.arange(18, dtype=np.uint8)[:, None]
    region = text[_DIGITS:_EXP]
    region[:17] = ch * (place[:17] <= pt)
    region[17] = 0
    region[1:] += ch * (place[1:] > pt + 1)
    region += np.uint8(ord(".")) * (place == pt + 1)
    region *= place < shown
    slow = np.flatnonzero(~ok)
    text[:_AFTER, slow] = 0
    text[_SIGN, slow] = ord("?")
    return text, slow
