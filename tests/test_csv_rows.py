"""The CSV row writer against Python's own `"%.9g" % v`, value by value.

`rows.csv_rows` formats floats in numpy, with a per-value fallback to
Python near rounding ties and outside 1e-13 <= |v| < 1e30; every output byte
must equal Python's own text.
"""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peak_memory import traced_peak
from voltmem import circuit
from voltmem.circuit import _CSV_CHUNK_ROWS, SourceWaveform, Trace
from voltmem.rows import csv_rows, t_tables, t_words
from voltmem.device import EmulatorParams, derive_device_params

DEVICE = derive_device_params(EmulatorParams())
RNG = np.random.default_rng(20261018)


def assert_g9(values):
    """csv_rows writes each value as "%.9g" % v, in chunks of the size the
    trace writer uses."""
    x = np.asarray(values, dtype=float).ravel()
    for start in range(0, len(x), _CSV_CHUNK_ROWS):
        chunk = x[start:start + _CSV_CHUNK_ROWS]
        got = csv_rows([chunk]).split("\n")
        want = ["%.9g" % v for v in chunk.tolist()] + [""]
        wrong = [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want)
                 if g != w]
        assert not wrong and len(got) == len(want), wrong[:5]


def neighbours(x):
    """x and the doubles one ulp above and below it."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def with_signs(x):
    return np.concatenate([x, -np.asarray(x)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_random_bit_patterns(bits):
    # every class of double: finite, subnormal, infinite and NaN
    assert_g9(np.array(bits, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns_in_bulk():
    assert_g9(RNG.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64))


def test_log_uniform_magnitudes():
    assert_g9(with_signs(10.0 ** RNG.uniform(-25.0, 25.0, 100_000)))


def test_decimals_and_their_neighbours():
    # m * 10**k with m below 1e9 prints as exactly its own digits
    m = RNG.integers(0, 10**9, 20_000)
    k = RNG.integers(-20, 25, 20_000)
    assert_g9(with_signs(neighbours([float(f"{a}e{b}") for a, b in zip(m, k)])))


def test_rounding_ties_and_their_neighbours():
    m = RNG.integers(10**7, 10**9, 10_000)
    k = RNG.integers(-20, 25, 10_000)
    # the doubles nearest a decimal tie, whose rounding the fast path refuses
    near = [float(f"{a}5e{b}") for a, b in zip(m, k)]
    # ties held exactly by a double, which "%.9g" rounds half to even:
    # 9-digit integers plus 0.5, 8-digit plus 0.25 or 0.75, and 10-digit
    # integers ending in 5 times 10**j
    m9, m8 = RNG.integers(10**8, 10**9, 2000), RNG.integers(10**7, 10**8, 2000)
    ten = RNG.integers(10**8, 10**9, 2000) * 10 + 5
    exact = [Fraction(int(a)) + Fraction(1, 2) for a in m9]
    exact += [Fraction(int(a)) + Fraction(q, 4) for a in m8 for q in (1, 3)]
    exact += [Fraction(int(a) * 10**j) for a in ten[:200] for j in range(6)]
    assert all(Fraction(float(v)) == v for v in exact)
    assert_g9(with_signs(neighbours(near + [float(v) for v in exact])))


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    assert_g9(with_signs(neighbours(powers)))


def test_edges():
    edges = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             999999999.5, 999999998.5, 999999999.4999999, 999999999.0,
             1e9, 1e-5, 1e-4, 9.99999999e-5, 9.999999995e-5, 9.9999999949e-5,
             99999.99995, 123456789.0, 12345678.9, 0.000123456789,
             1e-13, 9.9999999999e-14, 1e30, 9.99999999999e29]
    edges += [float(f"9.9999999995e{k}") for k in range(-320, 308)]
    edges += RNG.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64).tolist()
    # the largest double has no finite neighbour above
    ends = [1.7976931348623157e308, np.inf, np.nan]
    assert_g9(with_signs(np.concatenate([neighbours(edges), ends])))


def assert_rows(cols):
    """csv_rows of the columns `cols` is their "%.9g" and "%d" text, with
    every separator in place; compared line by line, so that a failure
    names its first wrong line."""
    rows = zip(*[col.tolist() for col in cols])
    assert csv_rows(cols).split("\n") == [",".join(
        "%d" % v if col.dtype == bool else "%.9g" % v for col, v in zip(cols, row))
        for row in rows] + [""]


# fast-path values, zeros of both signs, subnormals, and values that fall
# back to Python: near a tie, out of range, not finite
EDGE_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-320, 2.2250738585072009e-308, 999999999.5,
     -999999998.5, 9.9999999995e-5, 1e-13, 9.9999999999e-14, 1e30, -1e31,
     np.inf, -np.inf, np.nan, 123456789.0, -0.000123456789, 1e9, 12345678.9])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mixed_columns(data):
    # two float columns and a bool, with the first float given twice: every
    # kind of column both last (then followed by a newline) and not last
    n = data.draw(st.integers(1, 30))
    x, y = (np.array(data.draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n)))
            for _ in range(2))
    on = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assert_rows(data.draw(st.permutations([x, y, on, x])))


def test_zeros_subnormals_and_fallbacks_not_last():
    x = np.array([-0.0, 0.0, 5e-324, -4.9e-322, 999999999.5, 1e30, -np.inf,
                  np.nan, 1e-14, 0.1, -2.5e-7, 1e9])
    for cols in ([x, x > 0], [x, x], [x, -x, x]):
        assert_rows(cols)


def test_columns_bools_and_a_repeated_column():
    x = np.array([0.5, -2.25e-7, 1e-5])
    on = np.array([True, False, True])
    assert csv_rows([x, on, x, x * 3]) == "".join(
        "%.9g,%d,%.9g,%.9g\n" % (v, b, v, 3 * v)
        for v, b in zip(x.tolist(), on.tolist()))


# one _g9 pass formats every distinct float column of a call; columns longer
# than a chunk, each with every kind of fallback value at its own rows, are
# put back each in its own place
FALLBACKS = [999999999.5, -999999998.5, 9.9999999995e-5, np.inf, -np.inf, np.nan,
             1e30, -1e31, 1.7976931348623157e308, 5e-324, -1e-320,
             2.2250738585072009e-308, 0.0, -0.0]


def test_columns_longer_than_a_chunk_with_fallbacks_at_their_own_rows():
    n = _CSV_CHUNK_ROWS + 123
    x, y, z = (with_signs(10.0 ** RNG.uniform(-20.0, 20.0, n))[RNG.permutation(2 * n)[:n]]
               for _ in range(3))
    for col in (x, y, z):
        col[RNG.choice(n, len(FALLBACKS), replace=False)] = FALLBACKS
    on = RNG.random(n) < 0.5
    assert_rows([x, on, y, x, z])


class _Sink:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


# the writer holds one chunk's text at a time, so its peak does not grow
# with the trace, and a transient computed in blocks can stream through it
@pytest.mark.parametrize("rows", [200_000, 400_000])
def test_to_csv_peak_memory_is_bounded(rows):
    source = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
    trace = Trace(dt=1e-5, conducting=source.value(np.arange(rows), 1e-5) > 4.0)
    sink = _Sink()
    _, peak = traced_peak(trace.to_csv, sink, source, 680.0, DEVICE, (0.8, 5.0, 0.0))
    assert sink.chars > 40 * rows
    assert peak < 2_000_000


# Trace.to_csv gathers each row's text after `t` from a (source level, state)
# table where that table is small; its bytes must equal the per-row writer's
# (a budget of 0 forces that), up to and including a non-finite device
# voltage's error. A share of 0 lets a table of any size against the trace's
# rows pass, so that traces shorter than the table are gathered too
VOLTS = st.sampled_from([0.0, -0.0, 8.0, -3.5, 1e-7, -2.5e-9, 3e12, 4.693333333,
                         1e308, -1e308]) | st.floats(-10.0, 10.0)
# a table row at its widest: 4 float fields (5 with logic) of at most 16
# characters, the state's digit and their separators, in whole words
WIDEST = {False: 72, True: 88}


def write(trace, source, r1, digitize, budget=None, share=None):
    """What to_csv writes, with a table budget of `budget` bytes and a
    _TABLE_SHARE of `share` where given, and the message of the ValueError
    it raises."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if budget is not None:
            mp.setattr(circuit, "_TABLE_BYTES", budget)
        if share is not None:
            mp.setattr(circuit, "_TABLE_SHARE", share)
        try:
            trace.to_csv(buf, source, r1, DEVICE, digitize)
        except ValueError as e:
            return buf.getvalue(), str(e)
    return buf.getvalue(), None


@st.composite
def gather_cases(draw):
    kind = draw(st.sampled_from(SourceWaveform._KINDS))
    # a periodic source of `levels` phases at dt = m * 10**e, or steps
    # anywhere over the run; 1e-5, or a decimal step whose first rows of t
    # may print in exponent form, whose rows may end t in a whole high text
    # (l = 0) and whose t tables may not pay
    m, e = draw(st.just((1, -5)) | st.tuples(st.integers(1, 999), st.integers(-9, -2)))
    dt = float(f"{m}e{e}")
    levels = draw(st.integers(1, 1500))
    n = draw(st.integers(2, 3 * _CSV_CHUNK_ROWS))
    times = sorted(set(draw(st.lists(st.integers(0, n + 5), max_size=6))))
    source = SourceWaveform(kind, amplitude=draw(VOLTS), offset=draw(VOLTS),
                            period=float(f"{levels * m}e{e}"),
                            steps=tuple((k * dt, draw(VOLTS)) for k in times))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    trace = Trace(dt=dt, conducting=rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])))
    digitize = draw(st.none() | st.tuples(VOLTS, VOLTS, VOLTS))
    return trace, source, draw(st.sampled_from([0.0, 680.0])), digitize


@settings(max_examples=200, deadline=None)
@given(gather_cases(), st.sampled_from([None, 0, -1]), st.sampled_from([None, 0]))
def test_gathered_rows_equal_per_row_rows(case, edge, share):
    trace, source, r1, digitize = case
    count = source.levels(trace.dt)[0]
    budget = None  # the default, which every table here fits
    if edge is not None:  # the table just fits, or misses by one byte
        budget = 2 * count * WIDEST[digitize is not None] + edge
    built, table = [], circuit._suffix_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "_suffix_table",
                   lambda *args: built.append(args[0]) or table(*args))
        got = write(trace, source, r1, digitize, budget, share)
    pays = 2 * count * (circuit._TABLE_SHARE if share is None else share) <= len(trace)
    assert built == ([count] if edge != -1 and pays else [])
    assert got == write(trace, source, r1, digitize, budget=0)


def test_gathered_rows_raise_only_on_a_used_non_finite_row():
    # the last step overflows the divider: no row raises until the run
    # reaches it, and then the row that does raises
    source = SourceWaveform("steps", offset=1.0, steps=((0.01, -2.0), (0.05, 1e308)))
    for n, error in ((4000, None), (6000, "non-finite device voltage: inf")):
        trace = Trace(dt=1e-5, conducting=np.arange(n) % 3 == 0)
        got = write(trace, source, 680.0, None)
        assert got[1] == error and got == write(trace, source, 680.0, None, budget=0)


def t_text(dt, n, k):
    """The last row in exponent form of t at step dt over n rows (-1 if
    none), the first of t's four words that t_words writes for the rows `k`
    (2 where it gathers them from that grid's t tables, taken at any size)
    and their text."""
    times = t_tables(*circuit._decimal(dt), n, lambda texts: True)
    words = np.empty((4, len(k)), dtype=np.uint64)
    first = t_words(k, dt, times, words)
    return times[-1], first, words[first:].T.tobytes().translate(None, b"\0").decode().split(",")[:-1]


# (n - 1) * m = 10**9 - 1, the largest grid that the t tables take (rows of
# 1e-9 reach 0.999999999); 2.5e-7, whose row 400 is at t = 1e-4 exactly; and
# 0.0125, no row of which is in exponent form
@pytest.mark.parametrize("dt, n, last, fixed", [
    (1e-9, 10**9, 99999, "0.0001"), (9.99e-7, 1001002, 100, "0.000100899"),
    (2.5e-7, 200001, 399, "0.0001"), (0.0125, 80001, -1, "0")])
def test_t_words_are_g9_text_up_to_the_grid_edge(dt, n, last, fixed):
    k = np.unique(np.concatenate([last + 1 + np.arange(2000), n - 2000 + np.arange(2000),
                                  RNG.integers(last + 1, n, 20_000)]))
    assert t_text(dt, n, k) == (last, 2, ["%.9g" % v for v in (k * dt).tolist()])
    # rows 1..last, and only those, print in exponent form; a chunk that
    # starts at the last of them is formatted by _g9
    assert "%.9g" % ((last + 1) * dt) == fixed
    if last > 0:
        k = np.arange(last, last + 2048)
        assert "e-" in "%.9g" % (last * dt)
        assert t_text(dt, n, k) == (last, 0, ["%.9g" % v for v in (k * dt).tolist()])


def test_no_t_tables_from_10_9():
    # (n - 1) * m = 10**9 may print a 10th digit; no table is built
    assert t_tables(1, -9, 10**9 + 1, lambda texts: True) is None
    assert t_tables(999, -9, 1001003, lambda texts: True) is None
