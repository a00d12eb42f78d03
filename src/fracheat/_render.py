"""Floats to text a block at a time, byte for byte as ``format`` writes them.

``render`` turns an array of floats into the text of ``format(x, spec)``
for the two specs of the u column of ``fracheat run``, with a few numpy
passes over the whole array in place of one ``format`` call per value.
Python stays the reference: the few values whose rounding float
arithmetic cannot decide are formatted by ``format`` itself.  The CLI
imports this module only when it writes a dump.
"""

from __future__ import annotations

import numpy as np

# Where the fractional part of a scaled value is nearer 1/2 than this,
# Python's own formatting decides its rounding (see _digits).
_TIE_MARGIN = 1e-5
# 10**k rounded correctly (Python reads a decimal literal exactly), for the
# |k| <= 170 that bringing any finite double to 10 digits in two factors needs.
_POW10 = np.array([float(f"1e{k}") for k in range(-170, 171)])
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)


def _triple_words() -> np.ndarray:
    """Each three-digit group 000 to 999 as 4 bytes, its ASCII digits and a
    NUL: in full (entry g), with its leading zeros NUL (entry 1000 + g), and
    with its trailing zeros NUL (entry 2000 + g)."""
    g = np.arange(1000)[:, None]
    chars = np.zeros((3, 1000, 4), np.uint8)
    chars[:, :, :3] = g // np.array([100, 10, 1]) % 10 + 48
    chars[1, :, :3][g < np.array([100, 10, 1])] = 0
    chars[2, :, :3][g % np.array([1000, 100, 10]) == 0] = 0
    return np.frombuffer(chars.tobytes(), np.uint32)


def _exponent_words() -> tuple[np.ndarray, np.ndarray]:
    """"e-330" to "e+330" for the exponents -330 to 330, then no exponent,
    as 8 NUL-padded bytes each: their first 4, and their last 4."""
    k = np.arange(-330, 331)
    chars = np.zeros((k.size + 1, 8), np.uint8)
    chars[:-1, 0] = 101
    chars[:-1, 1] = np.where(k < 0, 45, 43)
    chars[:-1, 2] = np.where(abs(k) >= 100, abs(k) // 100 + 48, 0)
    chars[:-1, 3] = abs(k) // 10 % 10 + 48
    chars[:-1, 4] = abs(k) % 10 + 48
    return (np.frombuffer(chars[:, :4].tobytes(), np.uint32),
            np.frombuffer(chars[:, 4:].tobytes(), np.uint32))


_TRIPLE_WORDS = _triple_words()
_EXPONENT_WORDS = _exponent_words()


def _times_pow10(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**k by two correctly rounded powers of ten, for any finite a
    and the k that _digits needs, without overflow or underflow between."""
    half = k >> 1
    return a * _POW10.take(half + 170) * _POW10.take(k - half + 170)


def _digits(a: np.ndarray, sig: int):
    """Each positive finite a as r * 10**(e - sig + 1), r the integer of sig
    digits nearest to the exact a * 10**(sig - 1 - e), and where float
    arithmetic cannot tell that integer.

    The scaled value q is two products with correctly rounded powers of
    ten, so it lies within 4 * 2**-53 * q < 4.5e-6 of the exact one for
    sig <= 10.  Its nearest integer is the exact one's unless q is nearer
    a half than that; q nearer one than _TIE_MARGIN = 1e-5, exact decimal
    ties among them, is flagged undecided instead.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    q = _times_pow10(a, sig - 1 - e)
    # log10 and q may land one decade off next to a power of ten
    e += (q >= 10.0**sig).astype(np.int64) - (q < 10.0 ** (sig - 1))
    q = _times_pow10(a, sig - 1 - e)
    undecided = np.abs(q - np.floor(q) - 0.5) < _TIE_MARGIN
    r = np.rint(q).astype(np.int64)
    carry = r == 10**sig  # rounded up to the next power of ten
    r[carry] = 10 ** (sig - 1)
    return r, e + carry, undecided


def _put_groups(x: np.ndarray, zeros: str, words: np.ndarray) -> None:
    """Write the digits of each x < 1000**k into the k columns of ``words``,
    three to a word as _TRIPLE_WORDS has them, most significant first.
    ``zeros`` is "leading" or "trailing" for those zeros of x to be NUL, or
    "" for none."""
    below_zero = np.ones(x.shape, bool)  # no digits below the last group
    for w in range(words.shape[1] - 1, -1, -1):
        above = x // 1000
        group = x - above * 1000
        if zeros == "leading":
            np.add(group, 1000, out=group, where=above == 0)
        elif zeros == "trailing":
            np.add(group, 2000, out=group, where=below_zero)
            below_zero &= group == 2000
        words[:, w] = _TRIPLE_WORDS.take(group)
        x = above


def render(v: np.ndarray, spec: str, lead: int) -> np.ndarray:
    """The text ``format(x, spec)`` of each float x of ``v``, NUL padded, as
    the rows of a uint32 array after ``lead`` words left for the caller.

    ``spec`` is ``.<p>g`` with p <= 10, or ``><w>.<p>e`` with w at most two
    wider than an unsigned value's text, as the u specs of the CLI's dumps
    are.  A text is its sign, integer digits, point, fraction digits and
    exponent, and each has a fixed run of words in every row: one for the
    spaces of the width and the sign, if a value has either; three digits
    a word for the integer part, with the point in the last byte, and for
    the fraction; and two for the exponent, if a value has one.  What a
    value has no character for is NUL, and so is the last byte of a row.
    Values _digits cannot decide, and non-finite ones, are formatted by
    Python, which stays the reference; a row has room for their text.
    """
    align, _, rest = spec.partition(".")
    width, prec, kind = int(align.lstrip(">") or 0), int(rest[:-1]), rest[-1]
    sig = prec if kind == "g" else prec + 1
    a = np.abs(v)
    finite = np.isfinite(v)
    zero = a == 0.0
    r, e, undecided = _digits(np.where(finite & ~zero, a, 1.0), sig)
    r[zero] = 0  # so a zero, -0.0 too, is 0 at exponent 0 with its sign bit
    if kind == "g":
        exp = (e < -4) | (e >= sig)
        places = np.where(exp, sig - 1, sig - 1 - e)  # digits after the point
        integer, fraction = np.divmod(r, _POW10_INT.take(places))
    else:
        exp = np.ones(v.size, bool)
        places = sig - 1
        integer, fraction = np.divmod(r, _POW10_INT[places])
    sign = np.signbit(v)
    heads = 1 if width or sign.any() else 0
    ints = -(-len(str(int(integer.max()))) // 3)
    fracs = -(-int(np.max(places)) // 3)
    exps = 2 if exp.any() else 0
    fraction *= _POW10_INT.take(3 * fracs - places)  # its digits from the point on
    words = np.empty((v.size, lead + heads + ints + fracs + exps), np.uint32)
    at = lead + heads
    _put_groups(integer, "leading", words[:, at:at + ints])
    _put_groups(fraction, "trailing" if kind == "g" else "", words[:, at + ints:at + ints + fracs])
    if exps:
        exponent = np.where(exp, e + 330, -1)
        words[:, -2] = _EXPONENT_WORDS[0].take(exponent)
        words[:, -1] = _EXPONENT_WORDS[1].take(exponent)
    text = words.view(np.uint8)[:, 4 * lead:]
    point = 4 * (heads + ints) - 1  # the last byte of the integer digits' words
    text[:, point - 1] |= 48  # a zero integer part is "0"
    text[:, point] = 46 if kind == "e" else (fraction != 0).view(np.uint8) * 46
    if heads:
        words[:, lead] = 0
        text[:, 3] = sign.view(np.uint8) * 45
    if width:  # the ``e`` form, with a sign and a third exponent digit or not
        spaces = width - (prec + 6) - sign - (np.abs(e) >= 100)
        text[:, 0] = (spaces >= 2).view(np.uint8) * 32
        text[:, 1] = (spaces >= 1).view(np.uint8) * 32
    for i in np.flatnonzero(undecided | ~finite):
        cell = format(float(v[i]), spec).encode("ascii")
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return words
