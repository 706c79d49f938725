"""Series resistor + volatile memristor circuit, solved quasi-statically.

The electrical network is purely resistive; the only dynamics is the device
actuation delay, stepped on a fixed time grid. Traces carry the applied
voltage, the device voltage (= output voltage), the conduction state and the
loop current at every sample. csv_rows, the CSV row writer of traces and of
`iv`, formats in numpy and writes exactly Python's "%.9g" text.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, condition_holds


_CSV_CHUNK_ROWS = 4096

# _g9 builds each value's text from a palette of five little-endian uint32
# words: its 9 mantissa digits three to a word, each word closed by one of
# '-', '.' and '0', then 'e' with the signed two-digit exponent, then NUL,
# which pads the text to 16 bytes, the length of the longest "%.9g" text of
# a double ("-2.22507386e-308")
_MINUS, _DOT, _ZERO, _E, _EXP_SIGN, _NUL = 3, 7, 11, 12, 13, 16
_DIGIT_SLOTS = [k + k // 3 for k in range(9)]


def _unsigned_layout(notation: int, length: int) -> list:
    """Palette slots of the text of a `length`-digit mantissa: notation 0-12
    is fixed-point at decimal exponent notation - 4, 13 the exponent form
    and 14 zero."""
    digits = _DIGIT_SLOTS[:length]
    if notation == 14:
        return [_ZERO]
    if notation == 13:
        fraction = [_DOT] + digits[1:] if length > 1 else []
        return digits[:1] + fraction + [_E, _EXP_SIGN, 14, 15]
    e = notation - 4
    if e < 0:
        return [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits
    fraction = [_DOT] + digits[e + 1:] if length > e + 1 else []
    return _DIGIT_SLOTS[:e + 1] + fraction


@functools.cache
def _tables():
    """_g9's lookup tables, built on its first call, so that the verbs that
    write no CSV rows (`map`, `gate`, `osc-check`) neither build them nor
    touch the memory that building them takes (about 0.7 MB of RSS)."""
    k = np.arange(1000)
    # indexed by e + 14 for e = -14..30: the exact doubles that scale 10**e
    # to 1e8
    up = np.array([float(10 ** (8 - e)) if e <= 8 else 1.0 for e in range(-14, 31)])
    down = np.array([float(10 ** (e - 8)) if e > 8 else 1.0 for e in range(-14, 31)])
    trailing_zeros = sum(k % 10 ** j == 0 for j in (1, 2, 3))  # of "%03d" % k
    digit_words = ((48 + k // 100) | (48 + k // 10 % 10) << 8 | (48 + k % 10) << 16
                   | np.array([ord("-"), ord("."), ord("0")])[:, None] << 24
                   ).astype("<u4")
    # indexed by e + 14 for e = -14..31
    exp_words = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-14, 32)),
                              dtype="<u4")
    # column (notation * 9 + length - 1) * 2 + negative: that text's 16 slots
    unsigned = np.array([(_unsigned_layout(notation, length) + [_NUL] * 16)[:16]
                         for notation in range(15) for length in range(1, 10)]).T
    layouts = np.full((16, 270), _MINUS, dtype=np.intp)
    layouts[:, 0::2] = unsigned
    layouts[1:, 1::2] = unsigned[:15]  # no unsigned text is over 14 bytes
    return up, down, trailing_zeros, digit_words, exp_words, layouts


def _g9(x: np.ndarray) -> np.ndarray:
    """`b"%.9g" % v` of each v of the float64 vector x, NUL-padded to 16
    bytes, as a (16, len(x)) uint8 array: byte j of every text in row j.

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
    Python in its column.
    """
    up, down, trailing_zeros, digit_words, exp_words, layouts = _tables()
    a = np.abs(x)
    fast = (a >= 1e-13) & (a < 1e30)
    a = np.where(fast, a, 1.0)  # no log10 of 0 and no overflow in the scaling
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * np.take(up, e + 14) / np.take(down, e + 14)
    m = np.rint(y)
    # |y - m| is y's distance from a whole number, 0.5 minus that from a half
    fast &= (np.abs(y - m) < 0.5 - 1e-6) & (y >= 1e8) & (m <= 1e9)
    carry = fast & (m == 1e9)
    e += carry
    m = np.where(fast & ~carry, m, 1e8).astype(np.intp)
    hi, mid, lo = m // 1000000, m // 1000 % 1000, m % 1000
    length = 9 - np.where(lo > 0, np.take(trailing_zeros, lo),
                          np.where(mid > 0, 3 + np.take(trailing_zeros, mid),
                                   6 + np.take(trailing_zeros, hi)))
    palette = np.zeros((len(x), 5), dtype="<u4")
    for word, part in enumerate((hi, mid, lo)):
        palette[:, word] = np.take(digit_words[word], part)
    palette[:, 3] = np.take(exp_words, e + 14)
    notation = np.where(x == 0, 14, np.where((e >= -4) & (e <= 8), e + 4, 13))
    slots = np.take(layouts, (notation * 9 + length - 1) * 2 + np.signbit(x),
                    axis=1)
    slots += np.arange(0, 20 * len(x), 20)
    text = np.take(palette.view(np.uint8).ravel(), slots)
    for i in np.flatnonzero(~fast & (x != 0)):
        text[:, i] = np.frombuffer((b"%.9g" % x[i]).ljust(16, b"\0"),
                                   dtype=np.uint8)
    return text


def csv_rows(cols) -> str:
    """CSV rows of the equal-length vectors `cols`, one per index: a float as
    `"%.9g" % v`, a bool as 0 or 1. A vector given more than once (the same
    object) is formatted once."""
    first = {}  # the first column of each vector
    rows = np.zeros((len(cols[0]), len(cols), 17), dtype=np.uint8)
    for j, col in enumerate(cols):
        k = first.setdefault(id(col), j)
        if k < j:
            rows[:, j] = rows[:, k]
        elif col.dtype == bool:
            rows[:, j, 0] = col + ord("0")
        else:
            rows[:, j, :16] = _g9(np.asarray(col, dtype=float)).T
    rows[:, :, 16] = ord(",")
    rows[:, -1, 16] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


class ResolutionError(ValueError):
    """dt too coarse to resolve the device actuation delay."""


@dataclass(frozen=True)
class SourceWaveform:
    """Piecewise-defined applied-voltage signal.

    kind: constant | sawtooth | triangle | sine | steps.
    sawtooth ramps offset -> offset+amplitude each period; triangle swings
    offset +/- amplitude starting upward; steps holds `offset` before the
    first entry of `steps`, then the value of the latest entry.
    """

    kind: str
    amplitude: float = 0.0
    offset: float = 0.0
    period: float = 0.0
    steps: tuple[tuple[float, float], ...] = ()

    _KINDS = ("constant", "sawtooth", "triangle", "sine", "steps")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if self.kind in ("sawtooth", "triangle", "sine") and self.period <= 0:
            raise ValueError(f"{self.kind} waveform needs period > 0")
        if self.kind == "steps":
            times = [t for t, _ in self.steps]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("step times must be strictly increasing")

    def value(self, t):
        """Source voltage at time `t`, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, self.offset, dtype=float)[()]
        if self.kind == "steps":
            times = [time for time, _ in self.steps]
            levels = np.array([self.offset] + [val for _, val in self.steps],
                              dtype=float)
            return levels[np.searchsorted(times, t, side="right")][()]
        frac = (t / self.period) % 1.0
        if self.kind == "sawtooth":
            level = frac
        elif self.kind == "sine":
            level = np.sin(2.0 * np.pi * frac)
        else:  # triangle: 0 -> +A at T/4 -> -A at 3T/4 -> 0
            level = np.where(frac < 0.25, 4.0 * frac,
                             np.where(frac < 0.75, 2.0 - 4.0 * frac,
                                      4.0 * frac - 4.0))
        return (self.offset + self.amplitude * level)[()]


@dataclass(frozen=True)
class SeriesCircuit:
    r1: float
    device: DeviceParams
    source: SourceWaveform

    def __post_init__(self):
        if self.r1 < 0:
            raise ValueError("r1 must be >= 0")


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled transient record; the output node is the device."""

    dt: float
    t: np.ndarray
    v_applied: np.ndarray
    v_device: np.ndarray
    conducting: np.ndarray
    current: np.ndarray

    def __len__(self):
        return len(self.t)

    def to_csv(self, fh, logic=None) -> None:
        """Write the column names, then one row per sample; the `v_out`
        column repeats `v_device`, and a `logic` column follows when given."""
        names = "t,v_applied,v_device,v_out,conducting,current"
        fh.write(names + ("" if logic is None else ",logic") + "\n")
        # in chunks, so that the text of only one chunk is held at a time
        for start in range(0, len(self), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            v_device = self.v_device[rows]
            cols = [self.t[rows], self.v_applied[rows], v_device, v_device,
                    self.conducting[rows], self.current[rows]]
            fh.write(csv_rows(cols if logic is None else cols + [logic[rows]]))


def solve_series_divider(r1: float, r_m: float, v):
    """Device voltage and loop current of the series divider; v may be an array."""
    total = r1 + r_m
    if total <= 0:
        raise ValueError("r1 + r_m must be positive")
    return v * r_m / total, v / total


def _first(mask, lo: int, hi: int, size: int = 64) -> int:
    """First sample in [lo, hi) that `mask(a, b)`, a bool array over samples
    a..b-1, sets; hi if none. Scans blocks that double in size."""
    while lo < hi:
        top = min(lo + size, hi)
        found = mask(lo, top)
        k = int(found.argmax())
        if found[k]:
            return lo + k
        lo, size = top, 2 * size
    return hi


def run_transient(c: SeriesCircuit, dt: float, t_end: float, seed: int = 0) -> Trace:
    """Fixed-timestep transient from the OFF state.

    Each row records the divider solved with the resistance in effect at that
    instant. The trace equals, bit for bit, stepping `device.step_device` once
    per sample from OFF, as tests/transient_oracle.py does. The loop runs once
    per switching onset: it finds the first sample where the condition holds,
    then switches if the condition keeps holding for `hold` samples with that
    onset's jitter offsets, or else resumes one sample after the break.
    """
    if not 0 < dt <= t_end:
        raise ValueError("need 0 < dt <= t_end")
    if c.device.t_actuate > 0 and dt > c.device.t_actuate / 4.0:
        raise ResolutionError(
            f"dt={dt} too coarse: must be <= t_actuate/4 = {c.device.t_actuate / 4.0}")

    rng = np.random.default_rng(seed)
    n = int(round(t_end / dt)) + 1
    t = np.arange(n) * dt
    v_applied = c.source.value(t)
    bad = ~np.isfinite(v_applied)
    if bad.any():
        raise ValueError(f"non-finite source voltage at t={t[np.argmax(bad)]}")
    v_device, current = np.empty(n), np.empty(n)
    conducting = np.empty(n, dtype=bool)

    p, sigma = c.device, c.device.jitter_sigma
    # step_device restarts pending_elapsed from 0.0 at each onset and adds dt
    # per step until it reaches t_actuate; n + 1 steps fit in no run
    hold, elapsed = 1, 0.0 + dt
    while not elapsed >= p.t_actuate and hold <= n:
        hold, elapsed = hold + 1, elapsed + dt
    # step_device draws an offset pair (two rng.normal calls) on each step
    # that starts with no switch pending; batches give the same stream
    drawn = np.empty((0, 2))  # pairs drawn but not yet used by a step

    def offsets(a, b):  # unused pairs a..b-1, one per step with no switch pending
        nonlocal drawn
        if not sigma > 0:
            return 0.0, 0.0
        if b > len(drawn):
            more = rng.normal(0.0, sigma, size=(max(b, 2 * len(drawn)) - len(drawn), 2))
            drawn = np.concatenate([drawn, more])
        return drawn[a:b, 0], drawn[a:b, 1]

    def holds(a, b, d):  # rows a..b-1 at this state, rewritten if it ends first
        v_m, i = solve_series_divider(c.r1, p.r_on if state else p.r_off,
                                      v_applied[a:b])
        v_device[a:b], current[a:b], conducting[a:b] = v_m, i, state
        return condition_holds(p, state, v_m, d)

    state, pos = False, 0
    while pos < n:
        onset = _first(lambda a, b: holds(a, b, offsets(a - pos, b - pos)), pos, n)
        if onset == n:
            break
        d = offsets(onset - pos, onset - pos + 1)
        drawn = drawn[onset - pos + 1:]
        end = min(onset + hold, n)
        broke = _first(lambda a, b: ~holds(a, b, d), onset + 1, end)
        if broke < end:
            pos = broke + 1
        else:  # the switch; past the last row it changes nothing
            state, pos = not state, end

    bad = ~np.isfinite(v_device)
    if bad.any():
        raise ValueError(f"non-finite device voltage: {v_device[np.argmax(bad)]}")
    return Trace(dt=dt, t=t, v_applied=v_applied, v_device=v_device,
                 conducting=conducting, current=current)


def digitize(tr: Trace, threshold: float, high: float, low: float) -> np.ndarray:
    """Comparator output per sample: high iff v_device > threshold (strict)."""
    return np.where(tr.v_device > threshold, high, low)
