"""The exact text of ``"%.17g" % value`` for a whole block of float64 values.

`format_block` formats a (rows, columns) table as CSV rows with numpy
arithmetic instead of one Python format per value; NaN, the infinities and
the values whose digits one longdouble product cannot prove are formatted by
Python.  `kgpair.reporting` imports this module on its first large block, so
an import of the package does not compile it, and builds its tables then.
"""

from __future__ import annotations

import codecs
import functools
import math
from typing import NamedTuple

import numpy as np

# Python prints a finite nonzero x from its decimal exponent k (10**k <= |x| <
# 10**(k+1)) and the 17-digit integer D = round(|x| * 10**(16 - k)), rounded
# half to even; D = 10**17 carries into the next decade (D = 10**16, k + 1).
# The digits are laid out fixed when -4 <= k < 17 and with an exponent
# otherwise, with the trailing zeros of the fraction dropped.
#
# A cell holds the text of one value and its separator in _WORDS
# little-endian uint64 words.  A layout (a form and a sign) takes the 17 digit
# bytes twice, shifted for the part before the decimal point and for the part
# after it, keeps the bytes each part covers and adds constant bytes ("-",
# ".", "0.00").  The cell is then cut at its length and followed by the suffix:
# the exponent, if any, and the separator.

_DIGITS = 17
_K_MIN, _K_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_P_MIN = _DIGITS - 1 - _K_MAX  # powers of ten that scale |x| up to 17 digits
_P_MAX = _DIGITS - 1 - _K_MIN
_WORDS = 4
_BYTES = 8 * _WORDS  # the longest cell is "-4.9406564584124654e-324,"
# forms: fixed with k = -4 .. 16, then exponents of 2 and of 3 digits
_FIXED_FORMS = 21
_EXP2_FORM, _EXP3_FORM = 21, 22


class _Tables(NamedTuple):
    pow10: np.ndarray  # smallest double >= 10**k, k = _K_MIN .. _K_MAX + 1
    scale: np.ndarray  # 10**p rounded to longdouble, p = _P_MIN .. _P_MAX
    tolerance: np.ndarray  # bound on the error of |x| * scale, relative to it
    digits4: np.ndarray  # 0000 .. 9999 as the little-endian uint64 of 4 bytes
    zeros4: np.ndarray  # trailing zeros of 0000 .. 9999
    shifts: np.ndarray  # (2, layout) bit shifts of the digits before and after the point
    masks: np.ndarray  # (2, _WORDS, layout) the bytes that each shifted copy keeps
    constants: np.ndarray  # (_WORDS, layout) the constant bytes
    body: np.ndarray  # (layout, kept digits + 1) bytes before the suffix
    head: np.ndarray  # (_WORDS, _BYTES + 1) column q keeps the bytes below q
    place: np.ndarray  # (2, _WORDS, _BYTES + 1) left and right shifts that put a word at byte q
    prefix: np.ndarray  # (_BYTES + 1, _BYTES) row q keeps the first q bytes


def _powers_of_ten(bits: int) -> np.ndarray:
    """10**p for p = _P_MIN .. _P_MAX, each rounded half to even to `bits`
    significant bits and held as a longdouble."""
    quotients, shifts = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        shift = num.bit_length() - den.bit_length() - bits
        while True:
            n, d = (num << -shift, den) if shift < 0 else (num, den << shift)
            q, r = divmod(n, d)
            if q < 1 << bits:
                break
            shift += 1
        quotients.append(q + (2 * r > d or (2 * r == d and q & 1)))
        shifts.append(shift)
    value = np.zeros(len(quotients), dtype=np.longdouble)
    for word in range(bits // 32, -1, -1):  # 32 bits at a time, exactly
        piece = np.array([q >> 32 * word & 0xFFFFFFFF for q in quotients], dtype=np.longdouble)
        value += np.ldexp(piece, 32 * word)
    with np.errstate(over="ignore"):  # where longdouble is double, 10**340 is inf
        return np.ldexp(value, shifts)


def _words(text: bytes) -> list:
    text = text.ljust(_BYTES, b"\0")
    return [int.from_bytes(text[8 * j:8 * j + 8], "little") for j in range(_WORDS)]


def _layout(form: int, negative: int, kept: int) -> tuple:
    """The byte shift of the digits before the decimal point and of those
    after it, with the byte range that each keeps; the constant bytes; and the
    length of the text with `kept` significant digits."""
    sign = b"-" * negative
    if form < 4:  # 0.000ddd: no digit before the point
        constants = sign + b"0." + b"0" * (3 - form)
        start = len(constants)
        return ((0, 0, 0), (start, start, _BYTES)), constants, start + kept
    whole = form - 3 if form < _FIXED_FORMS else 1  # digits before the point
    point = negative + whole
    length = point + (kept - whole + 1 if kept > whole else 0)
    parts = ((negative, negative, point), (negative + 1, point + 1, _BYTES))
    return parts, sign + b"\0" * whole + b".", length


@functools.cache
def _tables() -> _Tables:
    """The constant tables of `format_block`, built on its first call."""
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 2):
        nearest = float(f"1e{k}")
        num, den = nearest.as_integer_ratio() if math.isfinite(nearest) else (1, 0)
        if (num < den * 10**k) if k >= 0 else (num * 10**-k < den):
            nearest = math.nextafter(nearest, math.inf)
        pow10.append(nearest)

    ld = np.finfo(np.longdouble)
    bits = ld.nmant + 1
    p = np.arange(_P_MIN, _P_MAX + 1)
    exact = 0  # the largest p with 10**p = 5**p * 2**p exact in `bits` bits
    while 5**(exact + 1) < 1 << bits:
        exact += 1
    # |x| * 10**p lies in [1e16, 1e17], where it must resolve halves.  When
    # 10**p is exact, the product is |x| * 10**p rounded once: unless it is a
    # half-integer, it rounds to the same integer as the exact value.  Else the
    # power and the product each add a relative error of at most eps / 2.
    halves = 2.0 ** (math.floor(math.log2(1e17)) - ld.nmant) <= 0.5
    tolerance = np.where(halves & (p >= 0) & (p <= exact), 0.0, 2.0 * float(ld.eps))

    i = np.arange(10000)
    digits4 = sum((i // 10**(3 - j) % 10 + ord("0")).astype(np.uint64) << 8 * j for j in range(4))
    zeros4 = sum((i % 10**j == 0).astype(np.intp) for j in range(1, 5))

    layouts = [[_layout(form, negative, kept) for kept in range(_DIGITS + 1)]
               for form in range(_EXP3_FORM + 1) for negative in (0, 1)]
    parts = [layout[0][0] for layout in layouts]
    shifts = np.array([[8 * shift for shift, _, _ in part] for part in parts],
                      dtype=np.uint64).T.copy()
    masks = np.array([[_words(b"\0" * lo + b"\xff" * (hi - lo)) for _, lo, hi in part]
                      for part in parts], dtype=np.uint64).transpose(1, 2, 0).copy()
    constants = np.array([_words(layout[0][1]) for layout in layouts], dtype=np.uint64).T.copy()
    body = np.array([[length for _, _, length in layout] for layout in layouts])

    q = np.arange(_BYTES + 1)
    head = np.array([_words(b"\xff" * i) for i in q], dtype=np.uint64).T.copy()
    offset = q[None, :] - 8 * np.arange(_WORDS)[:, None]  # byte q within word j
    left = np.where((offset >= 0) & (offset < 8), 8 * offset, 64)
    right = np.where((offset < 0) & (offset > -8), -8 * offset, 64)
    place = np.array([left, right], dtype=np.uint64)  # numpy shifts by 64 bits give 0
    prefix = np.arange(_BYTES)[None, :] < q[:, None]

    tables = _Tables(np.array(pow10), _powers_of_ten(bits), tolerance, digits4, zeros4, shifts,
                     masks, constants, body, head, place, prefix)
    for table in tables:
        table.flags.writeable = False
    return tables


def _decimal(values: np.ndarray) -> tuple:
    """The exponent k and the 17-digit integer D of each finite nonzero value,
    and a mask of those whose product |x| * 10**(16 - k) lies within its error
    bound of a half-integer: their D is not proven, and Python formats them."""
    tables = _tables()
    magnitude = np.abs(values)
    k = np.floor(np.log10(magnitude)).astype(np.int64)  # may be one off
    k -= magnitude < tables.pow10.take(k - _K_MIN)
    k += magnitude >= tables.pow10.take(k + 1 - _K_MIN)
    p = _DIGITS - 1 - _P_MIN - k
    with np.errstate(over="ignore", invalid="ignore"):  # overflow only where longdouble is double
        scaled = magnitude.astype(np.longdouble)
        scaled *= tables.scale.take(p)
        digits = scaled.astype(np.int64)  # below 2**57, so truncation is floor
        # the fraction is a multiple of the product's spacing, at least 2**-10
        # for an 80-bit longdouble, so exact as a double; where longdouble is
        # wider, rounding may move it onto 0.5 but never across
        fraction = (scaled - digits).astype(np.float64)
    # a fraction outside [0, 1) is a product that overflowed
    unproven = ~((np.abs(fraction - 0.5) > tables.tolerance.take(p) * digits) & (fraction < 1.0))
    digits += fraction > 0.5
    carry = digits == 10**_DIGITS
    digits[carry] = 10**(_DIGITS - 1)
    k += carry
    return digits, k, unproven


def _shift_up(words: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(_WORDS, n) little-endian byte strings, each moved up by bits (< 64)."""
    out = words << bits
    out[1:] |= words[:-1] >> (np.uint64(64) - bits)  # a shift by 64 bits gives 0
    return out


def _cells(digits: np.ndarray, k: np.ndarray, negative: np.ndarray,
           separators: np.ndarray) -> tuple:
    """The (_WORDS, n) cells of finite nonzero values with these digits and
    exponents, and the length of each, its separator included."""
    tables = _tables()
    # the 17 digit bytes: the first digit, then four groups of 4
    lead, rest = np.divmod(digits, 10**16)
    groups = (*np.divmod(rest // 10**8, 10**4), *np.divmod(rest % 10**8, 10**4))
    del rest
    trailing = tables.zeros4.take(groups[0])  # trailing zeros of D; its first digit is never 0
    for group in groups[1:]:
        trailing = np.where(group == 0, trailing + 4, tables.zeros4.take(group))
    text = [tables.digits4.take(group) for group in groups]
    del groups
    source = np.empty((_WORDS, len(digits)), dtype=np.uint64)
    source[0] = lead + ord("0")
    source[0] |= text[0] << 8 | text[1] << 40
    source[1] = text[1] >> 24 | text[2] << 8 | text[3] << 40
    source[2] = text[3] >> 24
    source[3:] = 0
    del text, lead

    form = np.where((k >= -4) & (k < _FIXED_FORMS - 4), k + 4,
                    np.where(np.abs(k) < 100, _EXP2_FORM, _EXP3_FORM))
    layout = 2 * form + negative
    cells = _shift_up(source, tables.shifts[0].take(layout))
    cells &= tables.masks[0].take(layout, axis=1)
    after = _shift_up(source, tables.shifts[1].take(layout))
    del source
    after &= tables.masks[1].take(layout, axis=1)
    cells |= after
    del after
    cells |= tables.constants.take(layout, axis=1)

    # the suffix: e, the exponent's sign and 2 or 3 digits, then the separator
    body = tables.body.ravel().take(layout * (_DIGITS + 1) + _DIGITS - trailing)
    exponent = form >= _EXP2_FORM
    width = np.where(form == _EXP3_FORM, 3, 2).astype(np.uint64)
    suffix = (ord("e") | np.where(k < 0, ord("-"), ord("+")).astype(np.uint64) << 8
              | tables.digits4.take(np.abs(k)) >> (32 - 8 * width) << 16
              | separators << (16 + 8 * width))
    suffix = np.where(exponent, suffix, separators)
    cells &= tables.head.take(body, axis=1)
    for direction, shift in ((np.left_shift, tables.place[0]), (np.right_shift, tables.place[1])):
        placed = shift.take(body, axis=1)
        cells |= direction(suffix, placed, out=placed)
    return cells, body + np.where(exponent, 3 + width.astype(np.intp), 1)


def format_block(table: np.ndarray) -> str:
    """`table` (rows, columns) of float64 as CSV rows, each value as %.17g."""
    values = table.ravel()
    separators = np.full(table.shape, ord(","), dtype=np.uint64)
    separators[:, -1] = ord("\n")
    separators = separators.ravel()
    negative = np.signbit(values)
    nonzero = np.flatnonzero(values != 0.0)
    finite = np.isfinite(values[nonzero])
    regular = nonzero[finite]  # the values that need their digits
    digits, k, unproven = _decimal(values[regular])
    words, regular_lengths = _cells(digits, k, negative[regular], separators[regular])
    del digits, k
    # zeros print as 0 or -0
    cells = np.zeros((len(values), _WORDS), dtype="<u8")
    cells[:, 0] = np.where(negative, ord("-") | ord("0") << 8 | separators << 16,
                           ord("0") | separators << 8)
    cells[regular] = words.T
    del words
    lengths = 2 + negative
    lengths[regular] = regular_lengths
    cells = cells.view(np.uint8)
    slow = np.concatenate([nonzero[~finite], regular[unproven]])
    if slow.size:  # nan, inf and the unproven digits
        text = ["%.17g" % value for value in values[slow].tolist()]
        size = np.array([len(item) for item in text])
        cells[slow] = np.array(text, dtype=f"S{_BYTES}").view(np.uint8).reshape(slow.size, _BYTES)
        cells[slow, size] = separators[slow]
        lengths[slow] = size + 1
    return codecs.decode(cells[_tables().prefix.take(lengths, axis=0)], "ascii")
