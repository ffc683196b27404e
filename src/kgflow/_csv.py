"""CSV output whose float cells are exactly Python's '%.17g' % x, formatted as arrays.

CPython formats a 17-digit %g with Gay's correctly rounded dtoa, whose
floating-point quick path stops at 14 digits, so every cell takes the
big-integer path.  format_g17 reaches the same bytes in five steps:

- Digits and exponent.  The decimal exponent e of |x| is
  floor(log10 |x|), and the 17-digit integer D is round(|x| 10^k) with
  k = 16 - e.  The product is one np.longdouble multiply: |x| is exact
  in longdouble and 10^k is exact for 0 <= k <= _K_MAX, so the product
  rounds once and lies within 10^17 eps / 2 of the exact value.  10^16
  and 10^17 are exact as well and rounding is monotonic, so a product
  in [10^16, 10^17) certifies e; one that rounded up onto 10^16 gives
  the digits its exact value carries to.
- Rounding.  The integer part W of the product is exact, and so is
  W + 1/2 while longdouble has at least 57 fraction bits (W < 10^17 <
  2^57).  Rounding is monotonic, so a product above W + 1/2 comes from an
  exact value above it and one below from an exact value below: D is W
  or W + 1 on the product alone.  Only a product equal to W + 1/2 may
  come from either side, or from an exact tie.
- Fallback.  A cell is formatted by '%' itself when the product is
  outside [10^16, 10^17) (log10 rounded across an integer, which only
  happens within an ulp or two of a power of ten), when it equals
  W + 1/2, when k is outside [0, _K_MAX], and when x is zero or not
  finite: about 0.3% of density.csv's cells.  Where longdouble has
  fewer than 57 fraction bits, _ARRAY_PATH is off and every cell falls
  back.
- Layout.  %g writes fixed notation for -4 <= exponent < 17 and the
  exponent form otherwise, with trailing zeros stripped.  _TEMPLATES
  holds one row of byte slots per (sign, exponent, significant digits),
  and one np.take lays each cell out from its digit bytes.
- Output.  Cells are NUL padded to a fixed width; write_csv drops the
  padding with one mask and writes a block of rows at a time.
"""

from __future__ import annotations

import numpy as np

_LONG = np.finfo(np.longdouble)
# 10^k = 2^k 5^k is exact while 5^k fits the longdouble significand
_K_MAX = max(k for k in range(64) if 5**k < 2 ** (_LONG.nmant + 1))
_POW10 = np.ones(_K_MAX + 1, np.longdouble)
np.cumprod(np.full(_K_MAX, 10, np.longdouble), out=_POW10[1:])
# W + 1/2 is exact for every integer part W < 10^17 < 2^57
_ARRAY_PATH = _LONG.nmant >= 57

_WIDTH = 25  # the longest cell, '-1.2345678901234567e-308', and its separator
_LITERALS = b"-.e+0123456789\0"
_SEP = 20  # slot 3 + j holds digit j, then come the separator and the literals
_ROW = _SEP + 1 + len(_LITERALS)
_EXP_LO, _EXP_HI = 16 - _K_MAX, 17  # rounding up to 10^17 carries e = 16 to 17
# "0000" .. "9999", one uint32 each
_n = np.arange(10000, dtype=np.uint16)
_QUADS = np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1).astype(np.uint8)
_QUADS = (_QUADS + 48).view(np.uint32).ravel()
# cells per block; each takes 8 _WIDTH bytes of slot indices
_BLOCK = 2048


def _layout(negative: bool, exp: int, nsig: int):
    """The slots of '%.17g' % (d_0.d_1...d_16 x 10^exp) when the digits from d_nsig on are 0."""

    def lit(text):
        return [_SEP + 1 + _LITERALS.index(c) for c in text.encode()]

    digits = list(range(3, 3 + nsig))
    if exp < -4 or exp >= 17:
        body = digits[:1] + (lit(".") + digits[1:] if nsig > 1 else []) + lit("e%+03d" % exp)
    elif exp < 0:
        body = lit("0." + "0" * (-1 - exp)) + digits
    else:  # the whole part keeps its zeros
        body = list(range(3, 4 + exp)) + (lit(".") + digits[exp + 1 :] if nsig > exp + 1 else [])
    slots = lit("-" * negative) + body + [_SEP]
    return slots + lit("\0") * (_WIDTH - len(slots))


_TEMPLATES = np.empty((2, _EXP_HI - _EXP_LO + 1, 17, _WIDTH), np.uint8)
for _exp in range(_EXP_LO, _EXP_HI + 1):
    for _nsig in range(1, 18):
        for _negative in (0, 1):
            _TEMPLATES[_negative, _exp - _EXP_LO, _nsig - 1] = _layout(_negative, _exp, _nsig)
_TEMPLATES = _TEMPLATES.reshape(-1, _WIDTH)


def format_g17(values, seps: bytes):
    """'%.17g' % x followed by its column's separator, for each x of an (r, len(seps)) array.

    Returns the r * len(seps) cells in row order as rows of _WIDTH bytes,
    NUL padded.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    fast = np.isfinite(v) & (v != 0) & _ARRAY_PATH
    a = np.where(fast, np.abs(v), 1.0)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, _K_MAX)
    a = a.astype(np.longdouble)
    p = a * _POW10[k]
    fast &= (p >= 1e16) & (p < 1e17)
    p[~fast] = 1e16
    whole = p.astype(np.int64)
    frac = p - whole
    fast &= frac != 0.5
    d = whole + (frac > 0.5)
    exp = 16 - k
    carry = d == 10**17
    d[carry] = 10**16
    exp += carry

    # a row of src: 3 spare bytes and the 17 digits as five 4-digit words,
    # the separator, the literals
    src = np.empty((n, _ROW), np.uint8)
    words = src.view(np.uint32)
    for j in range(4, 0, -1):
        rest = d
        d = rest // 10000
        words[:, j] = _QUADS[rest - 10000 * d]
    words[:, 0] = _QUADS[d]
    src.reshape(-1, len(seps), _ROW)[:, :, _SEP] = np.frombuffer(seps, np.uint8)
    src[:, _SEP + 1 :] = np.frombuffer(_LITERALS, np.uint8)
    # trailing zeros are stripped; most cells end in a nonzero digit
    nsig = np.full(n, 17)
    short = np.flatnonzero(src[:, _SEP - 1] == 48)
    nsig[short] = 17 - np.argmax(src[short, _SEP - 1 : 2 : -1] != 48, axis=1)
    key = ((v < 0) * (_EXP_HI - _EXP_LO + 1) + exp - _EXP_LO) * 17 + nsig - 1
    slots = _TEMPLATES[key].astype(np.intp)
    slots += np.arange(0, src.size, _ROW)[:, None]
    cells = np.take(src.ravel(), slots)

    slow = np.flatnonzero(~fast)
    if slow.size:
        column = slow % len(seps)
        cells.view(f"S{_WIDTH}")[slow, 0] = [
            b"%.17g%c" % (x, seps[j]) for x, j in zip(v[slow].tolist(), column.tolist())
        ]
    return cells


def _text_bytes(column):
    """A column of str as UTF-8 bytes, one NUL-padded row per cell."""
    codes = column.view(np.uint32).reshape(len(column), column.itemsize // 4)
    if codes.size and codes.max() >= 128:
        encoded = np.array([s.encode() for s in column.tolist()], dtype=bytes)
        return encoded.view(np.uint8).reshape(len(column), encoded.itemsize)
    return codes.astype(np.uint8)


def write_csv(path, header, columns):
    """A header line, then line i holds cell i of each of the equal-length columns.

    A column of str passes through unchanged; any other column is numeric
    and its cells are '%.17g' % x.  Lines end in a newline.
    """
    columns = [np.asarray(c) for c in columns]
    seps = b"," * (len(columns) - 1) + b"\n"
    numeric = [j for j, c in enumerate(columns) if c.dtype.kind != "U"]
    texts = {j: _text_bytes(c) for j, c in enumerate(columns) if j not in numeric}
    # NULs pad every cell and are dropped on output, so a text cell's
    # separator can sit after its column's widest string
    width = max([_WIDTH] + [text.shape[1] + 1 for text in texts.values()])
    rows = max(1, _BLOCK // len(columns))
    buffer = np.empty((rows, len(numeric)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(columns[0]), rows):
            block = buffer[: min(rows, len(columns[0]) - lo)]
            for c, j in enumerate(numeric):
                block[:, c] = columns[j][lo : lo + rows]
            cells = format_g17(block, bytes(seps[j] for j in numeric))
            if texts:
                numbers = cells.reshape(len(block), len(numeric), _WIDTH)
                cells = np.zeros((len(block), len(columns), width), np.uint8)
                cells[:, numeric, :_WIDTH] = numbers
                for j, text in texts.items():
                    cells[:, j, : text.shape[1]] = text[lo : lo + rows]
                    cells[:, j, text.shape[1]] = seps[j]
            flat = cells.ravel()
            fh.write(flat[flat != 0].tobytes())
