"""CSV text in bulk: float_cells gives the exact bytes of '%.17g' for float64
values, 7 words per value padded with 0 bytes, csv_lines joins cells into CSV
lines without the 0 bytes, and csv_table writes a table of columns. A finite
|x| in [1e-280, 1e280] is written from N = round(|x| 10^(16-e)), e =
floor(log10 |x|) taken one lower where |x| is below the least double >= 10^e
(log10 rounds up there): with 10^(16-e) a double-double hi + lo, a Dekker
two-product (Numer. Math. 18, 1971) gives the scaled value as p + t within
2^-100 relative, about 1e-14 at 1e17, and N = p + rint(t) is certified in
[1e16, 1e17] with t more than 1e-6 from a half-integer. Other finite values,
exact ties among them, go through '%.17g'; 0, -0, nan and +-inf are words of a
table. The words hold, as %g lays them out, the sign and the '0.000' of a
small fixed value; 17 digits from a table of 4-digit groups (d0 alone in the
first), each followed by a slot for the point; the exponent, for e outside
[-4, 17); trailing zeros are masked out.
"""

from __future__ import annotations

from functools import cache

import numpy as np

WIDTH = 56
_LOW, _HIGH, _MARGIN, _P_MIN, _E_MIN = 1e-280, 1e280, 1e-6, -281, -330
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant: a float into two 26-bit halves
_GROUPS = np.arange(0, 50_000, 10_000, dtype=np.int32)[:, None]  # each group's part of the ends table


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """hi, its 26-bit halves and lo of 10^k = hi + lo (+ under 2^-53 lo) for
    k in [_P_MIN, 297], and the least double >= 10^k; at 10^4 i + g the digits
    of a row up to the last one other than 0 of its group i = g; the words of
    the 4-digit groups; at 17 k + d the masks that keep k digits and a point
    after d of them (none at d = 0); the words of the prefixes, at 5 negative
    + (0, or 1 + zeros) and then 0, -0, nan, inf and -inf, and of the
    exponents from _E_MIN."""
    hi, lo = [], []
    for k in range(_P_MIN, 298):  # int / int and float(int) round correctly
        hi.append(float(10 ** k) if k >= 0 else 1 / 10 ** -k)
        num, den = hi[-1].as_integer_ratio()
        lo.append((10 ** max(k, 0) * den - num * 10 ** max(-k, 0)) / (den * 10 ** max(-k, 0)))
    hi, lo = np.array(hi), np.array(lo)
    high = hi * _SPLIT - (hi * _SPLIT - hi)
    digits = (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    last = (4 - np.argmax(digits[:, ::-1] != 0, axis=1)).astype(np.int8) + np.array([[-3], [1], [5], [9], [13]], np.int8)
    ends = np.where(digits.any(axis=1), last, 0)
    byte, point = np.arange(40), 5 + 2 * np.arange(17)[:, None]
    masks = (byte >= 6) & ((byte < 6 + 2 * np.arange(18)[:, None, None]) & (byte % 2 == 0) | (byte == point))
    words = [[sign + ("0." + "0" * (code - 1) if code else "") for sign in ("", "-") for code in range(5)]
             + ["0", "-0", "nan", "inf", "-inf"], [""] + ["e%+03d" % e for e in range(_E_MIN, -_E_MIN + 1)]]
    return (np.stack((hi, high, hi - high, lo)), np.where(lo > 0.0, np.nextafter(hi, np.inf), hi),
            ends.ravel(), np.insert(digits + 48, range(1, 5), 46, axis=1).view(np.uint64).ravel(),
            (masks * np.uint8(255)).view(np.uint64).reshape(-1, 5).T.copy(),
            *(text_cells(texts, 8).view(np.uint64).ravel() for texts in words))


def _fallback(values: np.ndarray) -> list[str]:
    """'%.17g' of each value, for the cells no product certifies."""
    return ["%.17g" % v for v in values.tolist()]


def text_cells(texts, width: int | None = None) -> np.ndarray:
    """The UTF-8 bytes of each str as one row of a uint8 matrix, padded with 0."""
    cells = np.array([text.encode() for text in texts], dtype=bytes if width is None else f"S{width}")
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


def float_cells(values) -> np.ndarray:
    """The bytes of '%.17g' % v for each value, in the shape of values plus a
    last axis of bytes (padded with 0, without the byte columns no cell uses)."""
    powers, ceilings, ends, quads, masks, prefixes, exponents = _tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    inside = (a >= _LOW) & (a <= _HIGH)
    a[~inside] = 1.0  # a stand-in: these cells are special or go through '%.17g'
    e = np.floor(np.log10(a)).astype(np.int64)
    e -= a < ceilings[e - _P_MIN]
    hi, high, low, lo = np.take(powers, 16 - e - _P_MIN, axis=1)
    a_high = a * _SPLIT - (a * _SPLIT - a)
    p = a * hi  # the scaled value is p + t, t the exact error of p plus a lo
    t = ((a_high * high - p) + a_high * low + (a - a_high) * high) + (a - a_high) * low + a * lo
    nearest = np.rint(t)
    n = p.astype(np.int64) + nearest.astype(np.int64)
    certified = inside & (np.abs(t - nearest) < 0.5 - _MARGIN) & (n >= 10 ** 16) & (n <= 10 ** 17)
    e += n == 10 ** 17
    n = np.where(certified & (n < 10 ** 17), n, 10 ** 16)  # the carry, and a stand-in where not certified
    del a, hi, high, low, lo, a_high, p, t, nearest  # before the layout's arrays
    upper, lower = (n // 10 ** 8).astype(np.int32), (n % 10 ** 8).astype(np.int32)
    groups = np.array((upper // 10 ** 8, upper // 10 ** 4 % 10 ** 4, upper % 10 ** 4, lower // 10 ** 4,
                       lower % 10 ** 4))  # d0, then four groups of 4 digits
    kept = np.take(ends, groups + _GROUPS).max(axis=0)  # significant digits
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e + 1, 1)  # digits before the point; 0 or less after '0.000'
    special = ~np.isfinite(x) | (x == 0.0)  # written as a prefix word alone
    code = np.where(np.isnan(x), 12, np.where(x == 0.0, 10, 13) + np.signbit(x))
    words = np.empty((7, len(x)), np.uint64)
    words[0] = prefixes[np.where(special, code, np.maximum(1 - point, 0) + 5 * (x < 0.0))]
    np.take(quads, groups, out=words[1:6], mode="wrap")  # the groups are in range: no check
    words[1:6] &= np.take(masks, 17 * np.maximum(kept, point) + np.where(kept > point, np.maximum(point, 0), 0), 1)
    words[6] = exponents[np.where(fixed, 0, e - _E_MIN + 1)]
    words[1:, special] = 0
    cells = np.ascontiguousarray(words.T).view(np.uint8)
    del words, groups
    rest = np.flatnonzero(~(certified | special))
    if rest.size:
        cells[rest] = text_cells(_fallback(x[rest]), WIDTH)
    cells = cells[:, np.bitwise_or.reduce(cells.view(np.uint64), axis=0).view(np.uint8) != 0]
    return cells.reshape(*np.shape(values), cells.shape[-1])


def csv_lines(cells) -> bytes:
    """CSV lines from cell matrices, one per column with a row per line, the
    cells of a line joined by commas and every 0 byte dropped (by
    bytes.translate: np.compress would build an 8-byte index per byte)."""
    lines = np.full((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), ord(","), np.uint8)
    for c, end in zip(cells, np.cumsum([c.shape[1] + 1 for c in cells])):
        lines[:, end - 1 - c.shape[1]:end - 1] = c
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


def csv_table(columns: dict) -> bytes:
    """The CSV of a table {name: column}: the header, then a line per row, a
    column of str as it is and the others as floats in one float_cells call."""
    arrays = [np.asarray(column) for column in columns.values()]
    numbers = iter(float_cells([a for a in arrays if a.dtype.kind != "U"]))
    cells = [text_cells(a) if a.dtype.kind == "U" else next(numbers) for a in arrays]
    return ",".join(columns).encode() + b"\n" + csv_lines(cells)
