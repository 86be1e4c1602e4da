"""Decimal text of float64 arrays and integer ranges, as matrices of 4-byte words.

``float_text`` spells each finite float64 as ``float.__repr__`` does, with
the digits of Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): three 64x128-bit products and a fixed set of comparisons
per value, with no digit loop, so it runs on whole uint64 arrays.
``int_text`` spells the integers of a range as ``str`` does.  Each returns
one ``(rows, n)`` uint32 matrix; viewed as bytes, a row's text is its bytes
that are not NUL, in order.  The NUL bytes are holes in a layout fixed per
column, so every step works on whole columns and there is no Python object
per value.  Integer arithmetic stays in uint64, so that no step is promoted
to float64 under NumPy's type promotion rules.  ``table_text`` lays out
whole rows of such columns between constant separators, and drops the
holes with one ``bytes.translate``.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_K_MIN, _K_MAX = -324, 292
#: 10**0 .. 10**19, every power of ten below 2**64.
_POW10 = np.array([10**j for j in range(20)], dtype=_U)


def _flog2pow10(e):
    # floor(log2(10**e)), exact for |e| <= 5456721 (Giulietti, section 9.2)
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    # g = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126, for every k a
    # double needs, as g1 = g >> 63 and g0 = g mod 2**63: shape (2, 617),
    # indexed by k - _K_MIN
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // 10**k + 1
        else:
            g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
        rows.append((g >> 63, g & (2**63 - 1)))
    return np.array(rows, dtype=_U).T.copy()


def _limbs(values) -> list:
    # a uint64 array, then its high and low 32-bit halves
    return [values, values >> _U(32), values & _M32]


def _mulhi(a: list, b: list) -> np.ndarray:
    """floor(a * b / 2**64) of uint64 arrays given by ``_limbs``."""
    _, a_hi, a_lo = a
    _, b_hi, b_lo = b
    low, cross = a_lo * b_lo, a_hi * b_lo
    # at most (2**32 - 1) * (2**32 + 1): no carry is lost
    mid = a_lo * b_hi + (low >> _U(32)) + (cross & _M32)
    return a_hi * b_hi + (cross >> _U(32)) + (mid >> _U(32))


def _rop(g1: list, g0: list, cp: np.ndarray) -> np.ndarray:
    """cp * g / 2**127 rounded to odd, with g = g1 * 2**63 + g0."""
    cp = _limbs(cp)
    z = ((g1[0] * cp[0]) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | ((z << _U(1)) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's (f, k), with f * 10**k the shortest decimal of each double.

    ``bits`` are the raw patterns of finite positive doubles.  Unlike the
    Java original, no second digit is forced on a one-digit result (5e-324
    is (5, -324), not (49, -325)), and the candidate one digit shorter is
    tried from s >= 10, not s >= 100.
    """
    t = bits & _U(2**52 - 1)
    biased = bits >> _U(52)
    normal = biased != 0
    c = t | (normal.astype(_U) << _U(52))
    q = biased.astype(np.int64) - 1075
    q[~normal] = -1074
    # Between binades the gap below c is half the gap above it.
    irregular = (t == 0) & (biased > 1)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) if irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    out = c & _U(1)
    cb = c << _U(2)
    cbl = cb - _U(2)
    cbl[irregular] += _U(1)
    g1, g0 = (_limbs(row.take(k - _K_MIN)) for row in _g_table())
    vb, vbl, vbr = (_rop(g1, g0, x << h) for x in (cb, cbl, cb + _U(2)))
    s = vb >> _U(2)
    # u' = 10 s' and w' = u' + 10, with s' = s // 10, are one digit shorter.
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    # Else s or t = s + 1, whichever lies in the rounding interval, or the
    # nearer (the even one at a tie) when both do.
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    above = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & _U(1)) != 0)))
    shorter = (s >= _U(10)) & (upin != wpin)
    return np.where(shorter, sp10 + _U(10) * wpin, s + above), k


#: XORed into a first digit word "000d": "-0.d" and ">00d", where ">"
#: (0x3E) is "." (0x2E) or "0" (0x30) under a byte mask.
_TO_SIGN, _TO_POINT = np.frombuffer(bytes([ord("0") ^ ord("-"), 0, ord("0") ^ ord("."), 0,
                                           ord("0") ^ ord(">"), 0, 0, 0]), dtype=np.uint32)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    # For 0 .. 9999: the four ASCII digits, zero-padded, as one word; and,
    # for a group j = 0 .. 4 of a 20-digit number, 4 j + the place of the
    # group's last nonzero digit, 0 for 0.
    quad = np.arange(10_000, dtype=np.uint16)
    digits = (quad // np.array([[1000], [100], [10], [1]], dtype=np.uint16) % 10).astype(np.uint8)
    text = (digits.T + np.uint8(ord("0"))).copy().view(np.uint32).ravel()
    last = np.where(digits != 0, np.arange(1, 5, dtype=np.uint8)[:, None], 0).max(axis=0)
    ends = np.where(last > 0, last + 4 * np.arange(5, dtype=np.uint8)[:, None], 0)
    return text, ends.astype(np.uint8)


def _halves(eight: np.ndarray) -> list:
    # x // 10**4 and x % 10**4 for every uint64 x < 10**8, by multiply and shift
    upper = (eight * _U(109_951_163)) >> _U(40)
    return [upper, eight - upper * _U(10**4)]


def _quads(u: np.ndarray) -> list:
    # the five groups of four decimal digits of each uint64, the highest first
    top = u // _U(10**16)
    rest = u - top * _U(10**16)
    high = rest // _U(10**8)
    return [top, *_halves(high), *_halves(rest - high * _U(10**8))]


def _count_digits(u: np.ndarray) -> np.ndarray:
    # the number of decimal digits of each uint64, 1 for 0
    return np.maximum(np.searchsorted(_POW10, u, side="right"), 1)


def int_text(steps: range) -> np.ndarray:
    """``str`` of each integer of ``steps``, a nonempty range of step 1 within 0 .. 2**64.

    The digits come as the last few 4-digit groups, one word each; the
    leading zeros are made NUL a run of rows at a time, since the digit
    count only steps up at the powers of ten inside the range.
    """
    first, rows = steps.start, len(steps)
    values = np.arange(rows, dtype=_U)
    values += _U(first)
    width = len(str(steps[-1]))
    quads = -(-width // 4)
    groups = _halves(values)[2 - quads:] if quads <= 2 else _quads(values)[5 - quads:]
    text = np.empty((rows, quads), dtype=np.uint32)
    for j, group in enumerate(groups):
        text[:, j] = _digit_tables()[0].take(group)
    start = 0
    for digits in range(len(str(first)), width + 1):
        stop = min(10**digits - first, rows)
        # keep the last ``digits`` bytes of these rows
        text[start:stop] &= np.frombuffer(bytes(4 * quads - digits) + b"\xff" * digits, np.uint32)
        start = stop
    return text


@functools.cache
def _tails() -> np.ndarray:
    # Rows 0 .. 632 "e-324" .. "e+308", NUL-padded to two words, with
    # nothing in row 324, that of "e+00", which no repr writes.
    words = [f"e{e:+03d}".encode() if e else b"" for e in range(-324, 309)]
    return np.frombuffer(b"".join(w.ljust(8, b"\0") for w in words), np.uint32).reshape(-1, 2)


@functools.cache
def _float_masks(whole: int, frac: int) -> np.ndarray:
    # The byte masks of a float's first two parts by the key of float_text,
    # 0xFF where a byte is text and NUL where it is a hole, keeping their
    # first ``whole`` and ``frac`` words.  Each part holds the digits of
    # f * 10**(17 - digits), digit i in byte 3 + i, after "-0." in the first
    # part and ">00" in the second, whose ">" the mask makes the point, or
    # the first of three zeros after "0.".
    mask = np.zeros((2, 20, 18, 40), dtype=bool)
    point, end, digit = np.arange(-3, 17)[:, None], np.arange(18), np.arange(17)
    mask[1, ..., 0] = True  # the sign
    mask[..., 1:3] = (point <= 0)[..., None]  # the "0." of "0.ddd"
    mask[..., 3:20] = digit < point[..., None]
    mask[..., 21:23] = np.arange(1, 3) >= 3 + point[..., None]  # the zeros after "0."
    mask[..., 23:40] = (digit >= point[..., None]) & (digit < end[..., None])
    mask = mask * np.uint8(0xFF)
    mask[..., 20] = np.where((point > 0) & (end > point), ord("."), (point <= -3) * ord("0"))
    words = [*range(whole), *range(5, 5 + frac)]
    return mask.view(np.uint32).reshape(-1, 10)[:, words].copy()


def float_text(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each finite float64.

    A row has three parts: the sign and the digits before the point, or
    "0." with the sign; the point or the zeros after "0.", and the digits
    after the point; the exponent.  Each part is as many words as the row
    that needs most of it.  The digits are laid down in both of the first
    two parts, and a mask by the point's place and the digit count makes
    NUL what a row does not show.  Raises ValueError on a value that is not
    finite.
    """
    bits = values.view(_U)
    magnitude = bits & _U(2**63 - 1)
    finite = magnitude < _U(0x7FF << 52)
    if not finite.all():
        raise ValueError(f"{float(values[~finite][0])!r} is not a finite float")
    regular = magnitude != 0
    # zeros go as 1 = 5e-324, and come out as f = 0
    f, k = _shortest(np.where(regular, magnitude, _U(1)))
    f[~regular] = 0
    k[~regular] = 0
    count = _count_digits(f)
    decpt = k + count  # the value is 0.ddd * 10**decpt
    # f's digits from the left, in the last 17 of 20 places
    groups = _quads(f * _POW10[17 - count])
    ends = _digit_tables()[1]
    significant = ends[0].take(groups[0])  # 4 where f > 0
    for j in range(1, 5):
        np.maximum(significant, ends[j].take(groups[j]), out=significant)
    significant = np.maximum(significant, 4) - 3  # trailing zeros stripped; 1 for 0
    fixed = (decpt > -4) & (decpt <= 16)
    point = np.where(fixed, decpt, 1)  # digits before the point
    end = np.where(fixed, np.maximum(significant, point + 1), significant)
    key = ((bits >> _U(63)).astype(np.intp) * 20 + point + 3) * 18 + end
    # the row of _tails: the exponent decpt - 1, or nothing
    tail = np.where(fixed, 324, decpt + 323)
    low, high = int(tail.min()), int(tail.max())
    whole = -(-(3 + max(int(point.max()), 0)) // 4)
    frac = -(-(3 + int(end.max())) // 4)
    # the exponent's words: none, or one for "e-dd" .. "e+dd", or two
    tails = 0 if low == high == 324 else 1 if low >= 225 and high <= 423 else 2
    text = np.empty((len(bits), whole + frac + tails), dtype=np.uint32)
    first = _digit_tables()[0].take(groups[0])
    text[:, 0] = first ^ _TO_SIGN
    text[:, whole] = first ^ _TO_POINT
    for j, group in enumerate(groups[1: max(whole, frac)], 1):
        quad = _digit_tables()[0].take(group)
        if j < whole:
            text[:, j] = quad
        if j < frac:
            text[:, whole + j] = quad
    text[:, : whole + frac] &= _float_masks(whole, frac).take(key, axis=0)
    if tails:
        text[:, -tails:] = _tails()[:, :tails].take(tail, axis=0)
    return text


def _constant(text: bytes) -> np.ndarray:
    # One row of words holding ``text``, NUL-padded: a NUL of its own would
    # be taken for padding.
    if b"\0" in text:
        raise ValueError(f"{text!r} holds a NUL")
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), dtype=np.uint32)[None]


def table_text(columns: list, lead: bytes, seps: list[bytes]) -> bytes:
    """Rows of equal-length columns: ``lead``, then each cell and its separator.

    A column is a range of step 1 from 0 up, spelled by ``int_text``, or a
    float64 ndarray of finite values, spelled by ``float_text``.  The rows
    are one matrix of words, made of the cells' columns and constant
    separator columns, whose holes are NUL; as no text byte is NUL (a cell
    holds digits, "-", ".", "e" and "+"), dropping every NUL of its bytes
    lays it out.
    """
    parts = [_constant(lead)]
    for column, sep in zip(columns, seps):
        parts += [int_text(column) if isinstance(column, range) else float_text(column),
                  _constant(sep)]
    rows = len(columns[0])
    text = np.hstack([np.broadcast_to(words, (rows, words.shape[-1])) for words in parts])
    return text.tobytes().translate(None, b"\0")
