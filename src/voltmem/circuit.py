"""Series resistor + volatile memristor circuit, solved quasi-statically.

The electrical network is purely resistive; the only dynamics is the device
actuation delay, stepped on a fixed time grid. How a device follows its
switching condition is decided here for both verbs that run one:
run_transient loops once per switching onset, behind r1 and with the delay;
iv_sweep scans a chunk at a time, straight across the device with no delay,
on the transient's grid at dt = 1. At r1 = 0 the device sees the source
exactly. run_transient reads its source through one 2**14-sample window,
and its Trace stores what it decides, the conduction state; every other
column is formed per CSV chunk of 2048 rows. csv_rows, the row writer of
traces and of `iv`, formats a chunk's distinct float columns in one numpy
pass, as exactly Python's "%.9g" text.

Only the `iv` and `transient` verbs load this module; ResolutionError, which
run_transient raises, is defined in `device` and re-exported here.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import _CSV_CHUNK_ROWS
from .device import DeviceParams, ResolutionError, _Checked, condition_holds, jitter_pairs

# run_transient's largest scan, its source window (128 kB of float64) and its
# smallest batch of jitter pairs
_SCAN_ROWS = 1 << 14


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


def csv_rows(cols) -> str:
    """CSV rows of the equal-length vectors `cols`, one per index: a float as
    `"%.9g" % v`, a bool as 0 or 1. The distinct float vectors (a vector
    given more than once is the same object) are formatted in one _g9 pass."""
    floats = {id(col): col for col in cols if col.dtype != bool}
    formatted = np.empty((4, len(floats), len(cols[0])), dtype=np.uint64)
    _g9(np.array(list(floats.values()), dtype=float).ravel(), formatted.reshape(4, -1))
    index = {key: f for f, key in enumerate(floats)}
    # the words of each column, a float's four (see _g9) and a bool's one
    starts = np.cumsum([0] + [1 if col.dtype == bool else 4 for col in cols])
    words = np.empty((starts[-1], len(cols[0])), dtype=np.uint64)
    for col, j, end in zip(cols, starts, starts[1:]):
        if col.dtype == bool:
            words[j] = col + ord("0")
        else:
            words[j:end] = formatted[:, index[id(col)]]
    del formatted
    # the separator is the last byte of each column's last word
    words[starts[1:-1] - 1] |= ord(",") << 56
    words[-1] |= ord("\n") << 56
    text = words.T.tobytes()
    del words  # so that only one copy is held while the NULs are dropped
    return text.translate(None, b"\0").decode("ascii")


class SourceWaveform(_Checked, namedtuple("SourceWaveform", [
        "kind", "amplitude", "offset", "period", "steps"], defaults=(0.0, 0.0, 0.0, ()))):
    """Piecewise-defined applied-voltage signal; checked on every construction
    (see device._Checked).

    kind: constant | sawtooth | triangle | sine | steps.
    sawtooth ramps offset -> offset+amplitude each period; triangle swings
    offset +/- amplitude starting upward; steps holds `offset` before the
    first entry of `steps`, a tuple of (time, value) pairs, then the value
    of the latest entry.
    """

    __slots__ = ()
    _KINDS = ("constant", "sawtooth", "triangle", "sine", "steps")

    def _check(self):
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
        frac = t / self.period
        frac -= np.floor(frac)  # the same doubles as % 1.0, at a tenth of its cost
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
class Trace:
    """Uniformly sampled transient record, sample k at time k * dt: the
    conduction state in effect. to_csv forms the rest."""

    dt: float
    conducting: np.ndarray

    def __len__(self):
        return len(self.conducting)

    def to_csv(self, fh, source: SourceWaveform, r1: float, device: DeviceParams,
               digitize=None) -> None:
        """Write the column names, then one row per sample of the run's `source`
        and divider of `r1` and `device`. Each chunk forms `t` = k * dt, the
        source at t, the device voltage (= `v_out`) and current in each row's
        state and, given the comparator's (threshold, high, low), `logic`."""
        names = "t,v_applied,v_device,v_out,conducting,current"
        fh.write(names + ("" if digitize is None else ",logic") + "\n")
        # in chunks, so that the text of only one chunk is held at a time; half
        # a chunk of 4 or 5 distinct float columns is a _g9 pass of ~8192 values
        rows = _CSV_CHUNK_ROWS // 2
        for start in range(0, len(self), rows):
            t = np.arange(start, min(start + rows, len(self))) * self.dt
            v, on = source.value(t), self.conducting[start:start + len(t)]
            v_device, current = solve_series_divider(
                r1, np.where(on, device.r_on, device.r_off), v)
            bad = ~np.isfinite(v_device)
            if bad.any():
                raise ValueError(f"non-finite device voltage: {v_device[np.argmax(bad)]}")
            cols = [t, v, v_device, v_device, on, current]
            if digitize is not None:
                threshold, high, low = digitize
                cols.append(np.where(v_device > threshold, high, low))
            fh.write(csv_rows(cols))


def device_voltage(r1: float, r_m, v):
    """The device's share of `v` across the series divider; r_m and v may be
    row arrays. At r1 = 0 it is v itself, not v * r_m / r_m, which can be one
    ulp off v."""
    return v * r_m / (r1 + r_m) if r1 else v


def solve_series_divider(r1: float, r_m: float, v):
    """Device voltage (device_voltage) and loop current of the series
    divider; r_m and v may be row arrays."""
    total = r1 + r_m
    if np.any(total <= 0):
        raise ValueError("r1 + r_m must be positive")
    return device_voltage(r1, r_m, v), v / total


def _first(mask, lo: int, hi: int) -> int:
    """First sample in [lo, hi) that `mask(a, b)`, a bool array over samples
    a..b-1, sets; hi if none. Scans blocks that double from 64 to _SCAN_ROWS,
    so that no read is longer than run_transient's source window."""
    size = 64
    while lo < hi:
        top = min(lo + size, hi)
        found = mask(lo, top)
        k = int(found.argmax())
        if found[k]:
            return lo + k
        lo, size = top, min(2 * size, _SCAN_ROWS)
    return hi


def run_transient(r1: float, device: DeviceParams, source: SourceWaveform,
                  dt: float, t_end: float, seed: int = 0) -> Trace:
    """Fixed-timestep transient of `device` from OFF, behind `r1` across `source`.

    Each row records the state in effect at that instant. The trace equals,
    bit for bit, stepping `device.step_device` once per sample from OFF, as
    tests/transient_oracle.py does. The loop runs once per switching onset:
    it finds the first sample where the condition holds, then switches if
    the condition keeps holding for `hold` samples with that onset's jitter
    offsets, or else resumes one sample after the break. No read starts
    before the last one, so the source is sampled in a forward window, and
    `device.jitter_pairs` keeps no pair from before the current block.
    """
    if r1 < 0:
        raise ValueError("r1 must be >= 0")
    if not 0 < dt <= t_end:
        raise ValueError("need 0 < dt <= t_end")
    if device.t_actuate > 0 and dt > device.t_actuate / 4.0:
        raise ResolutionError(
            f"dt={dt} too coarse: must be <= t_actuate/4 = {device.t_actuate / 4.0}")

    n = int(round(t_end / dt)) + 1
    conducting = np.empty(n, dtype=bool)
    # step_device restarts pending_elapsed from 0.0 at each onset and adds dt
    # per step until it reaches t_actuate; n + 1 steps fit in no run
    hold, elapsed = 1, 0.0 + dt
    while not elapsed >= device.t_actuate and hold <= n:
        hold, elapsed = hold + 1, elapsed + dt
    # the steps before pos drew `used` pairs, one per step with no switch pending
    pairs, used = jitter_pairs(device, seed, _SCAN_ROWS), 0
    window, first = np.empty(0), 0  # source at rows first..

    def holds(a, b, d):  # rows a..b-1 at this state, rewritten if it ends first
        nonlocal window, first
        if b > first + len(window):
            window, first = source.value(np.arange(a, min(a + _SCAN_ROWS, n)) * dt), a
            bad = ~np.isfinite(window)
            if bad.any():
                raise ValueError(f"non-finite source voltage at t={(a + bad.argmax()) * dt}")
        # the device voltage alone: no loop current is formed
        r_m = device.r_on if state else device.r_off
        v_m = device_voltage(r1, r_m, window[a - first:b - first])
        conducting[a:b] = state
        return condition_holds(device, state, v_m, d)

    state, pos = False, 0
    while pos < n:
        onset = _first(lambda a, b: holds(a, b, pairs(used + a - pos, used + b - pos)), pos, n)
        if onset == n:
            break
        used += onset - pos + 1
        d = pairs(used - 1, used)
        end = min(onset + hold, n)
        broke = _first(lambda a, b: ~holds(a, b, d), onset + 1, end)
        if broke < end:
            pos = broke + 1
        else:  # the switch; past the last row it changes nothing
            state, pos = not state, end

    return Trace(dt=dt, conducting=conducting)


def iv_sweep(device: DeviceParams, amplitude: float, points: int, seed: int):
    """Quasi-static triangle sweep of `amplitude` straight across `device`,
    from OFF: yields each chunk's (v, i, conducting), _CSV_CHUNK_ROWS points
    at a time. Point k is the triangle at time k of period points - 1; its
    row holds the state after it and the current in that state.

    The device switches at the first point where its condition holds, with no
    actuation delay, so the trace depends only on voltage, not on sweep rate.
    With jitter, every point draws a fresh pair of threshold offsets. This is
    run_transient at r1 = 0, t_actuate = 0 and dt = 1, one row earlier.
    """
    pairs = jitter_pairs(device, seed, _CSV_CHUNK_ROWS)
    sweep = SourceWaveform("triangle", amplitude=amplitude, period=points - 1.0)
    on = False  # the state at the end of the chunks yielded so far
    for start in range(0, points, _CSV_CHUNK_ROWS):
        v = sweep.value(np.arange(start, min(start + _CSV_CHUNK_ROWS, points)))
        offsets = pairs(start, start + len(v))
        # where the condition of one state holds and the other's does not,
        # the point sets the state; where both hold, it toggles the previous one
        up, down = (condition_holds(device, state, v, offsets) for state in (False, True))
        toggled = np.logical_xor.accumulate(up & down)
        last = np.maximum.accumulate(np.where(up != down, np.arange(len(v)), -1))
        conducting = np.where(last >= 0, up[last] ^ toggled[last], on) ^ toggled
        on = conducting[-1]
        yield v, v / np.where(conducting, device.r_on, device.r_off), conducting
