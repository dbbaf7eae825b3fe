"""The text of CSV rows of floats, byte for byte as ``'%.17g'`` writes each
cell, formatted with array arithmetic a block of rows at a time.

``format_rows`` is the one writer of trajectory CSV cells.  CPython's
``'%.17g' %`` makes one correctly rounded conversion per call (D. M. Gay,
"Correctly Rounded Binary-Decimal and Decimal-Binary Conversions", 1990);
here the 17 significant digits of many cells are made at once:

- **Scaled value.**  The decimal exponent k of |v| comes from ``log10`` and
  is corrected until the floor of V = |v| 10^(16-k) lies in [1e16, 1e17).
  V is a double-double ``p + r``: a Dekker product of |v| with the high
  part of 10^(16-k), plus |v| times its low part (``_pow10``).  Rounding V
  to an integer gives the 17 digits.
- **Digits.**  The digits are made four at a time from a table, checked for
  trailing zeros, and laid out at fixed places of one 32-byte cell for
  every exponent class (fixed notation for k in -4..16, else scientific).
  What a class does not use, and the fraction's trailing zeros that ``%g``
  strips, are NUL bytes, deleted from the block's text at the end.
- **Fallback.**  Every cell the arithmetic cannot certify is formatted by
  ``'%.17g' %`` itself: non-finite values, subnormals, magnitudes outside
  [1e-280, 1e280] (where the Dekker split or the low part of 10^q would
  overflow or underflow) and any V whose fraction is within ``_TIE_WINDOW``
  of one half.  So every cell is the bytes of ``'%.17g'`` by construction.
"""

from __future__ import annotations

import functools

import numpy as np

# Veltkamp's splitting constant for doubles, 2^27 + 1
_SPLIT = 134217729.0

# 10^q as the rows (hi, hi's high half, hi's low half, lo) with hi + lo equal
# to 10^q to about 2^-106 relative, for q in [-_Q_OFFSET, _Q_OFFSET]; a
# column is filled the first time its q is read, NaN until then
_Q_OFFSET = 350
_pow10_table: np.ndarray | None = None

# Error bound of V = p + r, for V < 1.0000001e17 and u = 2^-53: the low part
# of 10^q leaves |10^q - hi - lo| <= u^2 hi, i.e. at most 1.3e-15 of V; the
# product |v| lo <= u V <= 11.2 rounds by at most u 11.2 = 1.3e-15; and
# r = e + |v| lo, with the Dekker error |e| <= 8 (half an ulp of p below
# 1.2e17), rounds by at most u 19.2 = 2.2e-15.  So |V - (p + r)| < 5e-15.
# Where lo = 0 (q in 0..22, so 10^q is a double) V = p + r is exact.  The
# window is five orders above the bound; it sends about 2e-9 of the inexact
# cells to '%.17g'.
_TIE_WINDOW = 1e-9

# decimal exponents of the layout tables, a margin beyond [-281, 281]
_X_OFFSET = 320

_WORD = np.dtype("<u8")  # byte i of a word is bits 8i..8i+7, as in the text


def _pow10(q: np.ndarray) -> list[np.ndarray]:
    """(hi, hi's high half, hi's low half, lo) of 10^q for each q."""
    global _pow10_table
    if _pow10_table is None:
        _pow10_table = np.full((4, 2 * _Q_OFFSET + 1), np.nan)
    index = q + _Q_OFFSET
    hi = _pow10_table[0].take(index)
    if np.isnan(hi).any():
        for j in set(index[np.isnan(hi)].tolist()):
            q_j = j - _Q_OFFSET
            num, den = (10 ** q_j, 1) if q_j >= 0 else (1, 10 ** -q_j)
            # int / int divides correctly rounded: hi, and lo from the exact
            # remainder 10^q - hi = (num hd - hn den) / (den hd)
            h = num / den
            hn, hd = h.as_integer_ratio()
            c = h * _SPLIT
            high = c - (c - h)
            _pow10_table[:, j] = h, high, h - high, (num * hd - hn * den) / (den * hd)
        hi = _pow10_table[0].take(index)
    return [hi] + [row.take(index) for row in _pow10_table[1:]]


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, r, lo): a 10^(16-k) = p + r to the bound above, p the rounded
    product with the high part; lo, the low part of 10^(16-k), is 0 where
    the sum is exact."""
    hi, hi_high, hi_low, lo = _pow10(16 - k)
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    p = a * hi
    # Dekker's product: p + e = a hi exactly, for a and hi in range
    e = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    return p, e + a * lo, lo


def _decade_offset(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """+1 where floor(p + r) >= 1e17, -1 where it is below 1e16, else 0."""
    floor = p.astype(np.int64) + np.floor(r).astype(np.int64)
    return (floor >= 10 ** 17).astype(np.int64) - (floor < 10 ** 16)


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, unsure) of positive doubles in [1e-280, 1e280]:
    a rounded half-even to the 17-digit integer ``digits`` times
    10^(exponent - 16), and where that is not certain."""
    k = np.floor(np.log10(a)).astype(np.int64)
    p, r, lo = _scaled(a, k)
    offset = _decade_offset(p, r)
    fix = np.flatnonzero(offset)
    unsure = np.zeros(a.shape, bool)
    if fix.size:
        # log10 misses the decade only next to a power of ten; a cell still
        # outside it after one step goes to the fallback
        k[fix] += offset[fix]
        p[fix], r[fix], lo[fix] = _scaled(a[fix], k[fix])
        unsure[fix] = _decade_offset(p[fix], r[fix]) != 0
    # p >= 1e16 > 2^53 is even, so rint's ties to even are the digits' ties
    # to even; misplacing a V within the window of 1e16 or 1e17 in its decade
    # gives the same digits
    n = np.rint(r)
    unsure |= (lo != 0) & (np.abs(np.abs(r - n) - 0.5) <= _TIE_WINDOW)
    digits = p.astype(np.int64) + n.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, k + carry, unsure


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """The tables of the 32-byte cell layout (see ``format_rows``)."""
    four = np.arange(10_000)
    quad = sum((four // 10 ** (3 - j) % 10 + 48).astype(_WORD) << (8 * j) for j in range(4))
    quad_zeros = sum((four % 10 ** j == 0).astype(np.uint8) for j in (1, 2, 3, 4))

    x = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    fixed = (x >= -4) & (x <= 16)
    head = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-xi - 1), "little")
                     if -4 <= xi < 0 else 0 for xi in x.tolist()], _WORD)
    tail = np.array([0 if -4 <= xi <= 16 else int.from_bytes(b"\0\0" + b"e%+03d" % xi, "little")
                     for xi in x.tolist()], _WORD)
    # after which digit the point goes (17: none in the digits) and how
    # many digits stand before it, whatever trailing zeros there are
    point = np.where(fixed, np.where(x >= 0, x, 17), 0)
    whole = np.where(fixed & (x >= 0), x + 1, 1)

    # masks of the digits' 24 bytes by (point, kept digits): the digits up
    # to the point, the digits after it (from words shifted one byte up) and
    # the point itself, each cut at the last kept digit
    at, kept, byte = np.arange(18)[:, None, None], np.arange(18)[None, :, None], np.arange(24)
    has_point = kept > at + 1
    end = kept + has_point
    def bytes_of(select, value):
        return np.where(select & (byte < end), value, 0).astype(np.uint8).view(_WORD)
    masks = np.stack([bytes_of(byte <= at, 0xFF), bytes_of(byte >= at + 2, 0xFF),
                      bytes_of((byte == at + 1) & has_point, ord("."))])
    # (kind, word, point * 18 + kept)
    masks = masks.transpose(0, 3, 1, 2).reshape(3, 3, 18 * 18).copy()
    return quad, quad_zeros, head, tail, point, whole, masks


def format_rows(block: np.ndarray) -> str:
    """The CSV text of a C-contiguous (rows, cols) float64 block: each cell
    as ``'%.17g'`` formats it, joined by ``,``, each row ended by ``\\n``.

    Each cell is laid out in four little-endian words, 32 bytes: the sign
    and the ``0.``-and-zeros prefix of exponents -4..-1 (word 0), 18 bytes
    of digits with the point put in (words 1-3), the exponent of scientific
    notation and the separator (word 3).
    """
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0
    certain = (a >= 1e-280) & (a <= 1e280)
    digits, x, unsure = _digits17(np.where(certain, a, 1.0))
    fallback = ~(certain | zero) | unsure
    # a zero is the digits 0 in the layout of exponent 0: "0" after stripping
    digits[zero] = 0
    x[zero] = 0
    quad, quad_zeros, head, tail, point_at, whole, masks = _layout()
    xi = x + _X_OFFSET

    # four-digit groups of d0..d15, and d16
    top = digits // 10
    last = digits - top * 10
    high = top // 10 ** 8
    groups = np.empty((4, v.size), np.int64)
    for i, eight in enumerate((high, top - high * 10 ** 8)):
        groups[2 * i] = eight // 10 ** 4
        groups[2 * i + 1] = eight - groups[2 * i] * 10 ** 4
    t = quad_zeros.take(groups)
    zeros = (last == 0) * (1 + t[3] + (groups[3] == 0) * (
        t[2] + (groups[2] == 0) * (t[1] + (groups[1] == 0) * t[0])))
    kept = np.maximum(17 - zeros, whole.take(xi))
    key = point_at.take(xi) * 18 + kept

    q = quad.take(groups)
    words = (q[0] | q[1] << 32, q[2] | q[3] << 32, last.astype(_WORD) + 48)
    out = np.empty((v.size, 4), _WORD)
    out[:, 0] = head.take(xi) | (v.view(np.uint64) >> 63).astype(_WORD) * ord("-")
    placed, carry = [], 0
    for i, word in enumerate(words):
        # the digits after the point come from the words shifted a byte up
        shifted = word << 8 | carry
        carry = word >> 56
        placed.append(word & masks[0, i].take(key) | shifted & masks[1, i].take(key)
                      | masks[2, i].take(key))
    out[:, 1], out[:, 2] = placed[:2]
    separators = np.full(cols, ord(","), _WORD) << 56
    separators[-1] = ord("\n") << 56
    out[:, 3] = ((placed[2] | tail.take(xi)).reshape(rows, cols) | separators).ravel()

    cells = np.flatnonzero(fallback)
    if cells.size:
        text = np.array([b"%.17g" % value for value in v[cells].tolist()], "S31")
        out.view(np.uint8)[cells, :31] = text.view(np.uint8).reshape(cells.size, 31)
    return out.tobytes().translate(None, b"\0").decode("ascii")
