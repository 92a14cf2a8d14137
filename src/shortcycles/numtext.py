"""CSV bytes of int64 and float64 columns, formatted a block of rows at a time.

A row is written exactly as ``csv.writer`` writes ``str`` of its ints and
``repr`` of its floats: fields joined by ``,``, each line ended by ``\\r\\n``.
A 2-D int column gives one field per row, its entries joined by single
spaces as ``" ".join(map(str, row))`` joins them.
No Python code runs per number, except ``repr`` for zeros, subnormals and
non-finite floats.

An int is cut into groups of 4 digits, each turned into ASCII by a 4-digit
lookup table, and its field keeps the cells from its first digit on.  A
column whose values are all below 10^4 takes those cells from a second
lookup table, by value.

A float goes through four array steps:

1. Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
   gives its shortest correctly rounded decimal digits and exponent.  The
   128-bit products are formed from 32-bit limbs in uint64 arithmetic.
2. A 4-digit lookup table turns the digits, padded to 17, into ASCII.
3. The trailing zeros are counted from the same 4-digit groups; what is
   left is the digit count ``repr`` prints.
4. Each field is a fixed superset of cells (sign, ``0.000`` prefix, the 17
   digit slots with a dot slot after each, exponent); a mask looked up by
   layout and digit count picks the cells ``repr`` prints.  The layouts
   follow ``repr``: positional for decimal exponents -4..15, with ``.0``
   after an integral value, scientific otherwise with a signed exponent of
   at least two digits.

The rows of a block are laid side by side in one byte matrix, and one
``compress`` by the masks gives the block's lines.

The tables are built on first use, so importing this module costs nothing,
and a file of ints builds only the two 4-digit int tables.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

BLOCK_ROWS = 1 << 12  # rows formatted at once: small enough that a block's arrays stay in cache and get reused
BLOCK_ENTRIES = 1 << 14  # entries of 2-D columns formatted at once, about the fields of a BLOCK_ROWS block

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = 1 << 52  # the hidden bit: significands of normal doubles lie in [2^52, 2^53)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the Schubfach table
_POW10 = np.array([10**i for i in range(20)], dtype=_U)  # up to the 20 digits of 2^64 - 1

# float cells: sign, "0.000", 17 digit slots each followed by a dot slot, "e", exponent sign, 4 exponent digits
_SIGN, _LEAD, _DIGIT0 = 0, 1, 6
_EXP = _DIGIT0 + 34
_FLOAT_WIDTH = _EXP + 6
_LAYOUTS = 22  # positional with exponent -4..15, scientific with 2 or 3 exponent digits
_LITERAL = 2 * _LAYOUTS * 18  # mask codes from here on keep the first (code - _LITERAL) cells


@functools.cache
def _ascii4() -> np.ndarray:
    """"dddd" of each of 0..9999 as one uint32 word: all an int column needs,
    so writing ints builds none of the float tables."""
    d = np.arange(10000, dtype=np.uint16)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _keep4() -> np.ndarray:
    """The cells ``str`` prints of each of 0..9999 in a 4-cell field, as one
    uint32 word of four bool bytes: its digits, right-aligned."""
    d = np.arange(10000)
    digits = 1 + (d >= 10) + (d >= 100) + (d >= 1000)
    return (np.arange(4) >= 4 - digits[:, None]).view(np.uint32).ravel()


@functools.cache
def _tables() -> dict:
    """Schubfach multipliers g1, g0 and log2 shifts per decimal exponent, the
    4-digit ASCII tables, the float template and its masks."""
    g1, g0, log2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        # g = floor(10^-k * 2^(125 - r)) + 1 with r = floor(log2 10^-k), in [2^125, 2^126)
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 1
            g = (p << (125 - r) if r <= 125 else p >> (r - 125)) + 1
        else:
            p = 10**k
            r = -p.bit_length()  # 10^k is no power of two
            g = (1 << (125 - r)) // p + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
        log2.append(r)
    d = np.arange(10000, dtype=np.uint16)
    dotted4 = np.full((10000, 8), ord("."), dtype=np.uint8)
    dotted4[:, ::2] = _ascii4().view(np.uint8).reshape(10000, 4)
    masks = np.zeros((_LITERAL + _FLOAT_WIDTH + 1, _FLOAT_WIDTH), dtype=bool)
    for neg in (0, 1):
        for layout in range(_LAYOUTS):
            for n in range(1, 18):
                _layout_mask(masks[(neg * _LAYOUTS + layout) * 18 + n], neg, layout, n)
    for length in range(_FLOAT_WIDTH + 1):
        masks[_LITERAL + length, :length] = True
    return {
        "g1": np.array(g1, dtype=_U),
        "g0": np.array(g0, dtype=_U),
        "log2": np.array(log2, dtype=np.int64),
        "ascii4": _ascii4(),
        "dotted4": dotted4.view(np.uint64).ravel(),  # "d.d.d.d." as one word
        "zeros4": sum(d % 10**i == 0 for i in range(1, 5)).astype(np.uint8),  # trailing zeros of "dddd"
        "template": np.frombuffer(b"-0.000" + b"0." * 17 + b"e+0000", dtype=np.uint8),
        "masks": masks,
    }


def _layout_mask(row: np.ndarray, neg: int, layout: int, n: int) -> None:
    """Mark the cells ``repr`` prints for n significant digits in ``layout``."""
    digits = slice(_DIGIT0, _DIGIT0 + 2 * n - 1, 2)
    row[_SIGN] = neg
    if layout < 20:
        exponent = layout - 4
        if exponent >= 0:  # digits up to the dot after digit `exponent`, then at least one more ("1.0")
            row[_DIGIT0 : _DIGIT0 + 2 * max(exponent + 1, n - 1) + 1 : 2] = True
            row[_DIGIT0 + 2 * exponent + 1] = True
        else:  # "0." then -exponent - 1 zeros
            row[_LEAD : _LEAD + 1 - exponent] = True
            row[digits] = True
    else:
        row[digits] = True
        row[_DIGIT0 + 1] = n > 1
        row[_EXP : _EXP + 2] = True
        row[_EXP + 3] = layout == 21
        row[_EXP + 4 : _EXP + 6] = True


def _divmod(x: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """x // d and x % d; numpy divides by a scalar far faster than it takes a remainder."""
    quotient = x // d
    return quotient, x - quotient * d


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x >> _U(32), x & _M32


def _mulhi(x: tuple, y: tuple) -> np.ndarray:
    """High 64 bits of the 128-bit products of two uint64 arrays given as (high, low) 32-bit limbs."""
    (xh, xl), (yh, yl) = x, y
    low = xl * yh + (xl * yl >> _U(32))  # below 2^64: y is below 2^59 where this is used
    mid = xh * yl + (low & _M32)  # below 2^64: x is below 2^63
    return xh * yh + (low >> _U(32)) + (mid >> _U(32))


def _round_odd(g1: np.ndarray, g1_limbs: tuple, g0_limbs: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2^127) for g = g1 2^63 + g0, with the lowest bit set when the quotient is inexact."""
    cp_limbs = _limbs(cp)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_limbs, cp_limbs)  # g1 * cp wraps to its low 64 bits
    return _mulhi(g1_limbs, cp_limbs) + (z >> _U(63)) | ((z & _M63) + _M63) >> _U(63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f and exponent e of each normal double of ``bits`` (sign ignored):
    f * 10^e, trailing zeros of f dropped, is the shortest decimal that rounds
    to the double; among several, the nearest, ties to even."""
    tab = _tables()
    bq = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U(_C_MIN - 1)
    c = t | _U(_C_MIN)
    q = bq.astype(np.int64) - 1075
    # at c = 2^52 the next double below is twice as close (not so below the smallest normal)
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    row = k - _K_MIN
    h = (q + np.take(tab["log2"], row) + 2).astype(_U)  # 1..4
    g1, g0 = np.take(tab["g1"], row), np.take(tab["g0"], row)
    g1_limbs, g0_limbs = _limbs(g1), _limbs(g0)
    out = c & _U(1)  # the rounding interval is closed for even c
    cb = c << _U(2)
    vb = _round_odd(g1, g1_limbs, g0_limbs, cb << h)
    lower = _round_odd(g1, g1_limbs, g0_limbs, (cb - _U(2) + irregular) << h) + out
    upper = _round_odd(g1, g1_limbs, g0_limbs, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # one digit fewer when exactly one of the two nearest multiples of ten lies in the interval
    sp10 = s // _U(10) * _U(10)
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= upper
    short = (s >= _U(100)) & (upin != wpin)
    uin = lower <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= upper
    # both in: the nearer, ties to even; vb & 3 places v between s (0) and s + 1 (4), rounded to odd
    up = np.where(uin == win, (vb & _U(3)) + (s & _U(1)) > _U(2), win)
    digits = np.where(short, sp10 + wpin * _U(10), s + up)
    return digits, k


def _float_field(x: np.ndarray, cells: np.ndarray, keep: np.ndarray) -> None:
    """Fill ``cells`` with the characters of ``repr`` of each float of ``x``
    and ``keep`` with the mask of those ``repr`` prints."""
    tab = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U)
    bq = (bits >> _U(52)) & _U(0x7FF)
    special = (bq == 0) | (bq == 0x7FF)  # zero, subnormal, inf, nan
    # specials get a normal stand-in so the table lookups stay in range; their cells are replaced below
    digits, k = _shortest(np.where(special, _U(_C_MIN), bits))
    # a normal double has 16 or 17 digits here (at least 2^52, below 10 * 2^53); pad them to 17
    wide = digits >= _POW10[16]
    first, rest = _divmod(np.where(wide, digits, digits * _U(10)), _POW10[16])
    sci = k + 15 + wide  # the exponent of d.ddd x 10^sci
    cells[:] = tab["template"]
    cells[:, _DIGIT0] = first + _U(ord("0"))
    words = cells[:, _DIGIT0 + 2 : _DIGIT0 + 34].view(_U)
    zeros = 0  # trailing zeros of the digits written so far
    for i, part in enumerate(_divmod(rest, _POW10[8])):
        for j, quad in enumerate(_divmod(part, _U(10000))):
            words[:, 2 * i + j] = np.take(tab["dotted4"], quad)
            zeros = np.take(tab["zeros4"], quad) + (quad == 0) * zeros  # zeros4[0] = 4
    n = 17 - zeros
    layout = np.where((sci >= -4) & (sci < 16), sci + 4, np.where(np.abs(sci) < 100, 20, 21))
    code = ((bits >> _U(63)).astype(np.intp) * _LAYOUTS + layout) * 18 + n
    cells[:, _EXP + 1] = ord("+") + 2 * (sci < 0)  # "-" follows "+" by two in ASCII
    cells[:, _EXP + 2 : _EXP + 6].view(np.uint32)[:, 0] = np.take(tab["ascii4"], np.abs(sci))
    if special.any():
        where = np.flatnonzero(special)
        values, inverse = np.unique(bits[where], return_inverse=True)
        texts = [repr(float(v)).encode() for v in values.view(np.float64)]
        literal = np.zeros((len(texts), _FLOAT_WIDTH), dtype=np.uint8)
        for i, text in enumerate(texts):
            literal[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        cells[where] = literal[inverse]
        code[where] = _LITERAL + np.array([len(text) for text in texts])[inverse]
    keep[:] = np.take(tab["masks"], code, axis=0)


def _int_width(v: np.ndarray) -> int:
    """Cells of an int field: the digits of the largest value, rounded up to whole words."""
    if v.size and v.min() < 0:
        raise ValueError("int columns must be non-negative")
    return -(-len(str(int(v.max(initial=0)))) // 4) * 4


def _int_field(v: np.ndarray, cells: np.ndarray, keep: np.ndarray) -> None:
    """Fill ``cells`` with ``str`` of each int of ``v``, right-aligned, and ``keep`` with its digits;
    ``cells`` has the shape of ``v`` and one more axis of cells."""
    value = v.astype(_U)
    width = cells.shape[-1]
    words = cells.view(np.uint32)
    if width == 4:  # every value below 10^4: its word and its mask are looked up
        words[..., 0] = np.take(_ascii4(), value)
        keep.view(np.uint32)[..., 0] = np.take(_keep4(), value)
        return
    n = 1 + sum(value >= _POW10[i] for i in range(1, width))
    for i in range(words.shape[-1] - 1, 0, -1):
        value, rest = _divmod(value, _U(10000))
        words[..., i] = np.take(_ascii4(), rest)
    words[..., 0] = np.take(_ascii4(), value)
    # keep the last n cells: a row of `width` flags per digit count, taken as words
    flags = np.arange(width) >= width - np.arange(width + 1)[:, None]
    keep.view(np.uint32)[:] = np.take(flags.view(np.uint32), n, axis=0)


def _block(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV lines of equal-length columns, one line per index; the entries
    of a row of a 2-D int column make one field, joined by spaces."""
    if any(column.dtype.kind not in "iuf" for column in columns):
        raise ValueError("columns must hold ints or floats")
    if any(column.ndim == 2 and (column.dtype.kind == "f" or column.shape[1] == 0) for column in columns):
        raise ValueError("a 2-D column must hold ints, at least one per row")
    widths = [_FLOAT_WIDTH if column.dtype.kind == "f" else _int_width(column) for column in columns]
    entries = [column.shape[1] if column.ndim == 2 else 1 for column in columns]
    cells = np.empty((len(columns[0]), sum(k * (w + 1) for w, k in zip(widths, entries)) + 1), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    at = 0
    for column, width, k in zip(columns, widths, entries):
        stop = at + k * (width + 1)
        if column.dtype.kind == "f":
            _float_field(column, cells[:, at : stop - 1], keep[:, at : stop - 1])
        else:  # k entries side by side, each in width cells and closed by a space
            shape = (len(column), k, width + 1)
            entry_cells = cells[:, at:stop].reshape(shape)[..., :width]
            _int_field(column.reshape(shape[:2]), entry_cells, keep[:, at:stop].reshape(shape)[..., :width])
            cells[:, at + width : stop : width + 1] = ord(" ")
        cells[:, stop - 1] = ord(",")
        at = stop
    cells[:, at - 1 :] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return np.compress(keep.ravel(), cells.ravel()).tobytes()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and one row per index of the equal-length ``columns``
    (1-D int or float arrays, ranges, or 2-D int arrays with at least one
    entry per row): ints, which must be non-negative, as ``str``, floats as
    ``repr``, the entries of a 2-D row joined by spaces into one field, in the
    bytes ``csv.writer`` gives.  BLOCK_ROWS rows are formatted at a time, or
    with 2-D columns as many rows as hold about BLOCK_ENTRIES of their entries."""
    length = len(columns[0])
    if any(len(column) != length for column in columns):
        raise ValueError("columns must be of equal length")
    entries = sum(column.shape[1] for column in columns if isinstance(column, np.ndarray) and column.ndim == 2)
    rows = max(1, BLOCK_ENTRIES // entries) if entries else BLOCK_ROWS
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, length, rows):
            fh.write(_block([np.asarray(column[start : start + rows]) for column in columns]))
