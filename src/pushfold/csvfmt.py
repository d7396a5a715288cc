"""Exact ``%.17g`` CSV rows, formatted in numpy blocks.

``write_rows(fh, columns)`` writes one line per index, the columns
joined by commas: each float as ``format(float(v), ".17g")`` and each
integer as ``str(int(v))``, byte for byte.  It copies the rows of a
block, ``BLOCK_VALUES // len(columns)`` of them, into one float64
buffer, row by row, and formats all its values in one kernel pass into
buffers allocated once per call; each block goes out in one
``fh.write``.  Integers take the float path: an int64 up to 2^53 in
magnitude converts to float exactly, and ``%.17g`` of that float is its
``%d``.

Digits.  The 17 significant digits of ``|v|`` in [1e-200, 1e200) are the
integer ``D = round(|v|·10^k)``, with ``k = 16 - floor(log10|v|)``.  The
product is formed in double-double arithmetic (Dekker's exact product
with the high part of 10^k, plus ``|v|`` times its low part), which
leaves an error below 2^-46 on a value whose rounding is decided at one
half.  Python spells a value out instead when that decision is within
2^-40 of a tie, when the scaled value lies outside [10^16, 10^17), and
when the value lies outside the range (subnormals, huge and non-finite
values) or is an integer beyond 2^53.  Zero takes the fast path.

Layout.  Each field has 48 byte slots, six 64-bit words, that hold every
character a ``%g`` layout of a value can use::

    slot  0  1  2  3..5  6   7  8 9 .. 37 38 39  40 41 42..44 45   46 47
          -  0  .  000   d0  .  d1 . .. .  d16 .  e  ±  xxx      sep  (unused)

Word 0 holds the sign, the ``0.000`` lead of a fixed layout below 1, the
first digit and a point; words 1 to 4 hold four digits each, every one
followed by a point; word 5 holds the exponent and a comma.  Each word
comes from a table lookup.  Which slots a value uses depends only on its
layout (fixed with its exponent, or exponential with two or three
exponent digits), its count of significant digits and its sign, so a
table gives that mask as six words too, and an AND with it zeroes the
unused slots.  The fields of a block lie in output order, so one XOR per
row turns the comma of its last field into a newline, and deleting the
zero bytes gives the CSV bytes.  A value spelled out by Python is copied
into the zeroed slots from the first digit on.
"""

from __future__ import annotations

import numpy as np

BLOCK_VALUES = 8192

# the fast path's range: 10^k fits a double-double for every
# k = 16 - floor(log10|v|) it needs, with no overflow in the splits
_LOW, _HIGH = 1e-200, 1e200
_K_MIN, _K_MAX = -185, 218
_TIE_MARGIN = 2.0 ** -40
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_WORDS = 6  # 64-bit words per field
_EXP_MAX = 400  # exponents in the exponent table: -_EXP_MAX .. _EXP_MAX
_DIGIT0, _E, _SEP = 6, 40, 45  # slots of the first digit, the e, the separator


def _split(a):
    """Veltkamp split: a = head + tail, each with at most 26 significant bits."""
    c = a * _SPLIT
    head = c - (c - a)
    return head, a - head


def _pow10_table():
    """hi, lo, and hi's Veltkamp halves, with hi + lo = 10^k to 2^-106."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            # int true division is correctly rounded
            scale = 10 ** -k
            h = 1 / scale
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * scale) / (den * scale))
    hi = np.array(hi)
    return hi, np.array(lo), *_split(hi)


def _words(chars):
    """A (rows, 8k) uint8 array as (rows, k) 64-bit words, byte order kept."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64)


def _digit_words():
    """Words 0 to 4 of a field: by first digit, and by four-digit group.

    Also the significant digits a group ends, counted from its first
    digit; a zero group ends none.
    """
    number = np.arange(10000, dtype=np.uint16)
    group = np.full((10000, 8), ord("."), dtype=np.uint8)
    zeros = np.zeros(10000, dtype=np.int8)
    for i, place in enumerate((1000, 100, 10, 1)):
        group[:, 2 * i] = number // place % 10 + ord("0")
        if place > 1:
            zeros += number % (10000 // place) == 0
    ends = 4 - zeros
    ends[0] = -16  # below every group's offset, so it never raises the count
    lead = np.frombuffer(b"".join(b"-0.000" + bytes([d]) + b"." for d in b"0123456789"),
                         dtype=np.uint8).reshape(10, 8)
    return _words(lead)[:, 0], _words(group)[:, 0], ends


def _exponent_words():
    """Word 5 of a field, ``e±xxx`` and a comma, by exponent."""
    x = np.arange(-_EXP_MAX, _EXP_MAX + 1, dtype=np.int16)
    chars = np.zeros((len(x), 8), dtype=np.uint8)
    chars[:, 0] = ord("e")
    chars[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    for i, place in enumerate((100, 10, 1)):
        chars[:, 2 + i] = np.abs(x) // place % 10 + ord("0")
    chars[:, _SEP - _E] = ord(",")
    return _words(chars)[:, 0]


def _mask_words():
    """Field masks as 6 words, by (layout, significant digits - 1, sign):
    byte 0xff in each slot the field uses, 0 elsewhere.

    Layouts 0 to 20 are fixed notation with exponent -4 to 16; 21 and 22
    are exponential with two and three exponent digits.
    """
    layout = np.arange(23)[:, None]
    significant = np.arange(1, 18)[None, :]
    exponent = layout - 4
    fixed = layout <= 20
    below_one = fixed & (exponent < 0)
    n_digits = np.where(fixed & ~below_one, np.maximum(significant, exponent + 1),
                        significant)
    before_point = np.where(fixed, exponent + 1, 1)
    point_after = np.where(n_digits > before_point, before_point - 1, -1)
    used = np.zeros((23, 17, 2, 8 * _WORDS), dtype=bool)
    used[:, :, 1, 0] = True
    used[..., 1:3] = below_one[..., None, None]
    for z in range(3):
        used[..., 3 + z] = (below_one & (exponent <= -2 - z))[..., None]
    used[..., _DIGIT0:_E:2] = (np.arange(17) < n_digits[..., None])[:, :, None]
    used[..., _DIGIT0 + 1:_E:2] = (np.arange(17) == point_after[..., None])[:, :, None]
    used[..., _E:_SEP] = ~fixed[..., None, None]
    used[..., _E + 2] &= (layout == 22)[..., None]
    used[..., _SEP] = True
    return _words(np.where(used, 0xFF, 0).reshape(-1, 8 * _WORDS))


def _kept(table):
    table.flags.writeable = False
    return table


_P10_HI, _P10_LO, _P10_HEAD, _P10_TAIL = map(_kept, _pow10_table())
_LEAD_WORDS, _GROUP_WORDS, _GROUP_ENDS = map(_kept, _digit_words())
_EXPONENT_WORDS = _kept(_exponent_words())
_MASK_WORDS = _kept(_mask_words())
# XORed into word 5 of a row's last field, it turns the comma into "\n"
_NEWLINE_FLIP = _words(np.array([[0] * (_SEP - _E) + [ord(",") ^ ord("\n")]
                                 + [0] * (8 * _WORDS - _SEP - 1)], dtype=np.uint8))[0, 0]


def write_rows(fh, columns) -> None:
    """Write the rows of ``columns`` to the binary file ``fh``.

    Integer columns (numpy kind ``i`` or ``u``) are written as
    ``str(int(v))``, every other column as ``format(float(v), ".17g")``.
    """
    columns = [np.asarray(c) for c in columns]
    n_cols = len(columns)
    n_rows = min((len(c) for c in columns), default=0)
    if n_rows == 0:
        return
    block = min(max(BLOCK_VALUES // n_cols, 1), n_rows)
    values = np.empty((block, n_cols))
    chars = np.empty((block, _WORDS * n_cols), dtype=np.uint64)
    masks = np.empty_like(chars)
    integer = [j for j, c in enumerate(columns) if c.dtype.kind in "iu"]
    for start in range(0, n_rows, block):
        rows = min(block, n_rows - start)
        for j, column in enumerate(columns):
            values[:rows, j] = column[start:start + rows]
        fields = rows * n_cols
        spell = _fill(chars[:rows].reshape(fields, _WORDS),
                      masks[:rows].reshape(fields, _WORDS), values[:rows].ravel())
        # an integer beyond 2^53 may have been rounded on its way to float
        for j in integer:
            spell[j::n_cols] |= np.abs(values[:rows, j]) >= 2.0 ** 53
        slots = chars[:rows].view(np.uint8).reshape(fields, 8 * _WORDS)
        for i in np.flatnonzero(spell).tolist():
            column = columns[i % n_cols]
            v = column[start + i // n_cols]
            text = (str(int(v)) if column.dtype.kind in "iu"
                    else format(float(v), ".17g")).encode()
            slots[i] = 0
            slots[i, _DIGIT0:_DIGIT0 + len(text)] = np.frombuffer(text, dtype=np.uint8)
            slots[i, _SEP] = ord(",")
        chars[:rows, -1] ^= _NEWLINE_FLIP
        fh.write(chars[:rows].tobytes().translate(None, b"\0"))


def _significands(v):
    """17-digit significands and decimal exponents of the float64 ``v``.

    Returns ``(digits, exp10, undecided)``: ``digits`` in [10^16, 10^17)
    with ``|v| = digits * 10^(exp10 - 16)`` rounded to nearest, and a mask
    of the values this cannot decide.  Zero gives (0, 0) and is decided.
    """
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _LOW) & (a < _HIGH)
    a[~fast] = 1.0
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - exp10 - _K_MIN
    # p + err = a * hi exactly (Dekker), t = err + a * lo
    p = a * _P10_HI[k]
    head, tail = _split(a)
    t = (((head * _P10_HEAD[k] - p) + head * _P10_TAIL[k] + tail * _P10_HEAD[k])
         + tail * _P10_TAIL[k]) + a * _P10_LO[k]
    rounded = np.rint(t)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    # |t - rint(t)| >= 1/2 - margin is |t - floor(t) - 1/2| <= margin; the
    # range is tested on p + t before rounding, then on the rounded digits
    undecided = ((np.abs(t - rounded) >= 0.5 - _TIE_MARGIN)
                 | (p < 1e16) | ((p == 1e16) & (t < 0))
                 | (p > 1e17) | ((p == 1e17) & (t >= 0)) | (digits >= 10 ** 17))
    undecided = ~zero & (~fast | undecided)
    digits[zero | undecided] = 0
    exp10[zero | undecided] = 0
    return digits, exp10, undecided


def _fill(chars, masks, v):
    """Lay out the float64 ``v`` in the field words ``chars``, each field
    followed by a comma and its unused slots zero; ``masks`` is scratch.

    Returns the mask of the values Python must spell out; their words are
    left for the caller to fill.
    """
    digits, exp10, spell = _significands(v)
    lead = digits // 10 ** 16
    chars[:, 0] = _LEAD_WORDS[lead]
    rest = digits - lead * 10 ** 16
    significant = np.ones_like(digits)
    for g in range(4):
        scale = 10 ** (12 - 4 * g)
        group = rest // scale
        rest -= group * scale
        chars[:, 1 + g] = _GROUP_WORDS[group]
        np.maximum(significant, _GROUP_ENDS[group] + (1 + 4 * g), out=significant)
    chars[:, 5] = _EXPONENT_WORDS[exp10 + _EXP_MAX]

    fixed = (exp10 >= -4) & (exp10 < 17)
    layout = np.where(fixed, exp10 + 4, np.where(np.abs(exp10) >= 100, 22, 21))
    key = (layout * 17 + significant - 1) * 2 + np.signbit(v)
    np.take(_MASK_WORDS, key, axis=0, out=masks, mode="clip")
    np.bitwise_and(chars, masks, out=chars)
    return spell
