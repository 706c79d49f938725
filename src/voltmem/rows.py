"""CSV rows of equal-length columns, formatted in numpy.

csv_rows, the row writer of `transient` traces and of `iv`, formats a
chunk's distinct float columns in one _g9 pass, as exactly Python's "%.9g"
text; csv_words is that text as NUL-padded words, from which `circuit`
also builds its table of row endings. On the exact decimal grid of a step,
t_tables and t_words give `t`'s text in two words gathered from two small
tables, with no float formatted per row. Only the `iv` and `transient`
verbs load this module, through `circuit` and `cli`.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _tables():
    """_g9's lookup tables, built on its first call, so that verbs that write
    no CSV rows neither build them nor touch their memory. Indexed by layout
    code c (see _g9): `prefixes` by 2c + negative, `keeps` (bytes kept of the
    two digit words) by 10c + significant digits, `tails` by 10c + digit 8.
    `significant` and `shown4` are indexed by a 4-digit group k: the count of
    significant digits of "%04d" % k, and 4 more than that (0 for k = 0)."""
    # a freed 1 MB block lifts glibc's dynamic mmap and trim thresholds above
    # a chunk's buffers, so that each chunk reuses the heap, not faulting it in
    np.empty(1 << 17)
    # indexed by c: the exact doubles that scale 10**e to 1e8
    up = np.array([float(10 ** (8 - e)) if e <= 8 else 1.0 for e in range(-14, 31)])
    down = np.array([float(10 ** (e - 8)) if e > 8 else 1.0 for e in range(-14, 31)])
    # the count of significant digits of "%04d" % k; that text, a '.' after each digit
    k = np.arange(10000)
    significant = (4 - sum(k % 10 ** j == 0 for j in range(1, 5))).astype(np.uint8)
    shown4 = np.where(k > 0, 4 + significant, 0).astype(np.uint8)
    quads = np.full((10000, 8), ord("."), dtype=np.uint8)
    quads[:, 0::2] = 48 + k[:, None] // [1000, 100, 10, 1] % 10
    e, length = np.arange(-14, 32)[:, None], np.arange(10)
    fixed, exponent = (e >= 0) & (e <= 8), (e < -4) | (e > 8) & (e < 31)
    shown = np.where(fixed, np.maximum(length, e + 1), length) * (e < 31)
    dot = np.where(fixed & (length > e + 1), e,
                   np.where(exponent & (length > 1), 0, -1))
    slot = np.arange(16)  # digits 0-7, each followed by its dot slot
    keeps = np.where(slot % 2 == 0, slot // 2 < shown[..., None],
                     slot // 2 == dot[..., None]).astype(np.uint8) * 255
    lead = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"0" * (e == 31)
            for e in range(-14, 32)]
    prefixes = b"".join((sign + text).ljust(8, b"\0")
                        for text in lead for sign in (b"", b"-"))
    tails = b"".join((b"%d" % d if d or e == 8 else b"\0")
                     + (b"\0e%+03d" % e if e < -4 or 8 < e < 31 else b"").ljust(7, b"\0")
                     for e in range(-14, 32) for d in range(10))
    return (up, down, significant, shown4, quads.view("<u8").ravel(),
            keeps.view("<u8").reshape(-1, 2).T.copy(),
            np.frombuffer(prefixes, "<u8"), np.frombuffer(tails, "<u8"))


def _g9(x: np.ndarray, out: np.ndarray) -> None:
    """Write `b"%.9g" % v` of each v of the float64 vector x into `out`, a
    (4, len(x)) uint64 array, as four little-endian words of text with NUL
    in each unused byte: the sign and the "0.000" of a small fixed-point
    value; digits 0-3, then 4-7 of the mantissa, each followed by a slot for
    the decimal point; digit 8, "e+XX" and a NUL left for the separator.

    Where 1e-13 <= |v| < 1e30, take e = floor(log10|v|), which may be one
    off next to a power of ten. Then y = |v| * 10**(8 - e) is one IEEE
    multiply or divide by an exact double (|8 - e| <= 22), so it is the
    exact scaled value Y rounded once, |y - Y| <= ulp(y) / 2 < 6e-8 for
    y < 2**30. Where y is more than 1e-6 from a half-integer, no half-integer
    lies between y and Y, so m = rint(y) is Y rounded to an integer, the
    correctly rounded mantissa that "%.9g" prints. y >= 1e8 and m <= 1e9
    keep m at 9 digits (an e one too high gives y < 1e8), and m = 1e9
    carries to 1e8 at exponent e + 1. Zero has its own layout; every other
    value (near a tie, out of that range, or not finite) is formatted by
    Python in its column. The digits of m are split in integer arithmetic.
    """
    up, down, significant, shown4, quads, keeps, prefixes, tails = _tables()
    a = np.abs(x)
    fast = (a >= 1e-13) & (a < 1e30)
    a = np.where(fast, a, 1.0)  # no log10 of 0 and no overflow in the scaling
    # c = e + 14 names the layout: fixed-point for e = -4..8, the exponent
    # form for the rest of e = -14..30, and zero for c = 45
    c = np.floor(np.log10(a)).astype(np.intp) + 14
    y = a * np.take(up, c) / np.take(down, c)
    m = np.rint(y)
    # |y - m| is y's distance from a whole number, 0.5 minus that from a half
    fast &= (np.abs(y - m) < 0.5 - 1e-6) & (y >= 1e8) & (m <= 1e9)
    carry = fast & (m == 1e9)
    c += carry
    c[x == 0] = 45
    m = np.where(fast & ~carry, m, 1e8).astype(np.intp)
    # digits 0-3, 4-7 and 8, by floor division alone (int64 % is slower)
    q, r10 = m // 100000, m // 10
    r, d8 = r10 - q * 10000, m - r10 * 10
    # the significant digits: 9 if d8 > 0, else 4 + those of r if r > 0,
    # else those of q, which is at least 1 (q >= 1000)
    length = np.maximum(np.maximum(np.take(shown4, r), np.take(significant, q)),
                        (d8 > 0) * np.uint8(9))
    k = 10 * c + length
    np.take(prefixes, 2 * c + np.signbit(x), out=out[0])
    np.bitwise_and(np.take(quads, q), np.take(keeps[0], k), out=out[1])
    np.bitwise_and(np.take(quads, r), np.take(keeps[1], k), out=out[2])
    np.take(tails, 10 * c + d8, out=out[3])
    for i in np.flatnonzero(~fast & (x != 0)):
        out[:, i] = np.frombuffer((b"%.9g" % x[i]).ljust(32, b"\0"), dtype="<u8")


def csv_words(cols) -> np.ndarray:
    """The text of csv_rows(cols) as a (words, rows) uint64 array, row i in
    column i: a float's four words (see _g9) and a bool's one, NUL in each
    unused byte, and each field's separator (',' or the row's '\n') in the
    last byte of its last word."""
    floats = {id(col): col for col in cols if col.dtype != bool}
    formatted = np.empty((4, len(floats), len(cols[0])), dtype=np.uint64)
    _g9(np.array(list(floats.values()), dtype=float).ravel(), formatted.reshape(4, -1))
    index = {key: f for f, key in enumerate(floats)}
    starts = np.cumsum([0] + [1 if col.dtype == bool else 4 for col in cols])
    words = np.empty((starts[-1], len(cols[0])), dtype=np.uint64)
    for col, j, end in zip(cols, starts, starts[1:]):
        if col.dtype == bool:
            words[j] = col + ord("0")
        else:
            words[j:end] = formatted[:, index[id(col)]]
    del formatted
    words[starts[1:-1] - 1] |= ord(",") << 56
    words[-1] |= ord("\n") << 56
    return words


def csv_rows(cols) -> str:
    """CSV rows of the equal-length vectors `cols`, one per index: a float as
    `"%.9g" % v`, a bool as 0 or 1. The distinct float vectors (a vector
    given more than once is the same object) are formatted in one _g9 pass."""
    # the array is freed once its bytes are taken, so that only one copy is
    # held while the NULs are dropped
    text = csv_words(cols).T.tobytes()
    return text.translate(None, b"\0").decode("ascii")


def t_tables(m: int, e: int, n: int, fits):
    """Two text tables from which t_words writes "%.9g" % (k * dt) for the
    rows k < n of step dt = m * 10**e (the decimal that repr(dt) writes), or
    None where they do not apply or `fits(texts)` refuses their size.

    t_k is exactly M * 10**e with M = k * m. While (n - 1) * m < 10**9 that
    decimal has at most 9 digits, and k * dt, within a few ulps of it, is far
    inside half a unit of its 9th digit, so "%.9g" prints the decimal itself
    in fixed-point form wherever t_k >= 1e-4 (t_k < 1e8, as e < 0). Split
    M = h * 10**d + l, d <= -e: t's text is then h * 10**(d + e) with all
    its -(d + e) fraction digits, then l's d digits without trailing zeros;
    where l = 0, it is h * 10**(d + e) with trailing zeros dropped. The d
    with the fewest texts, each fitting one 8-byte word, is taken.

    Returns (m, 10**d, high, low, last): `high` holds h's two texts, the one
    for l > 0 at 2h and the one for l = 0 at 2h + 1; `low` holds l's digits
    and the separator at l (only the separator at l = 0). Rows 1..last (none
    where last is -1) print in exponent form, which these texts do not
    give."""
    top = (n - 1) * m  # the largest M
    sizes = [(2 * (top // 10 ** d + 1) + 10 ** d, d) for d in range(min(-e, 7) + 1)
             if max(len(str(top // 10 ** d)), -e - d + 1) < 8]
    if top >= 10 ** 9 or not sizes or not fits(min(sizes)[0]):
        return None
    d = min(sizes)[1]
    # appended one text at a time, so that only the words are held (a list
    # of every text raised a transient run's peak RSS by about 0.1 MB)
    words = bytearray()
    for h in range(top // 10 ** d + 1):
        fixed = b"%#.*f" % (-e - d, h / 10 ** (-e - d))
        words += fixed.ljust(8, b"\0") + fixed.rstrip(b"0").rstrip(b".").ljust(8, b"\0")
    for l in range(10 ** d):
        words += ((b"%0*d" % (d, l)).rstrip(b"0") + b",").ljust(8, b"\0")
    words = np.frombuffer(words, dtype="<u8")
    last = (10 ** (-4 - e) - 1) // m if e < -4 else 0
    return m, 10 ** d, words[:-10 ** d], words[-10 ** d:], last or -1


def t_words(k: np.ndarray, dt: float, tables, out: np.ndarray) -> int:
    """Write t = k * dt of the consecutive rows `k` into the last words of
    `out`, a (4, len(k)) uint64 array, NUL in each unused byte and t's
    separator in the last byte of its last word, and return its first word:
    2 where t_tables gave `tables` and no row is in exponent form, which
    gathers t's two words from them, else 0, where _g9 writes four."""
    if tables is None or k[0] <= tables[-1]:
        _g9(k * dt, out)
        out[3] |= ord(",") << 56
        return 0
    m, p, high, low, _ = tables
    whole = k * m
    h = whole // p
    np.take(high, 2 * h + (whole == h * p), out=out[2])
    np.take(low, whole - h * p, out=out[3])
    return 2
