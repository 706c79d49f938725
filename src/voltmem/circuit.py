"""Series resistor + volatile memristor circuit, solved quasi-statically.

The electrical network is purely resistive; the only dynamics is the device
actuation delay, stepped on a fixed time grid. How a device follows its
switching condition is decided here for both verbs that run one:
run_transient loops once per switching onset, behind r1 and with the delay;
iv_sweep scans a chunk at a time, straight across the device with no delay,
on the transient's grid at dt = 1. At r1 = 0 the device sees the source
exactly.

A source is sampled by integer sample index k and step dt, never by a
float time (SourceWaveform.value), on every finite grid by one rule: dt
and the source's times are read as the decimals of their repr, scaled by
one power of ten to integers (_scaled). A periodic source's phase is
(k * dt_i mod period_i) / period_i, rounded once, so each period repeats
the same doubles and a sample on a period boundary is at phase 0; a steps
entry takes effect at the first sample k with k * dt_i >= its time_i.
Without jitter, on a source whose levels repeat with a period of at most
2**14 samples (constant, or periodic), the switching condition of a state
depends on the sample's level alone, so run_transient solves it once per
level and finds each onset and break by lookup; every other run probes it
in blocks through one 2**14-sample source window. Its Trace stores what it
decides, the conduction state; every other column is formed per CSV chunk
of 2048 rows. Everything after `t` in a row depends only on the row's
source level (a periodic source's residue k mod P, the step in effect, or
0 for constant) and state. So where that (level, state) table is small
against the trace and in bytes (_TABLE_SHARE, _TABLE_BYTES), Trace.to_csv
formats through csv_words the endings of the pairs that the trace's runs
of one state visit, and gathers each row's text from them. `t` = k * dt is
then gathered too, on the exact decimal grid of repr(dt), from two small
tables of its high and low digits (rows.t_tables, under the same two
cutoffs); `_g9` formats it only in a chunk with rows below t = 1e-4, which
print in exponent form, or where those tables do not apply. Every other
trace is formatted per row by csv_rows (module `rows`).

Only the `iv` and `transient` verbs load this module; ResolutionError, which
run_transient raises, is defined in `device` and re-exported here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import _CSV_CHUNK_ROWS
from .device import DeviceParams, ResolutionError, _Checked, condition_holds, jitter_pairs

# run_transient's largest scan, its source window (128 kB of float64) and its
# smallest batch of jitter pairs
_SCAN_ROWS = 1 << 14
# Trace.to_csv gathers rows from a (source level, state) table of row
# suffixes only where the trace has _TABLE_SHARE rows or more per table row
# (a table row costs about three times what gathering a row saves, so a
# table of more than about a third of the rows is slower than the per-row
# writer) and where the table fits _TABLE_BYTES at the widest text each row
# could take. It is built _TABLE_ROWS rows at a time, which keeps the
# build's peak memory under the gather's (blocks twice as large raised a
# run's peak RSS; smaller ones build more slowly).
_TABLE_SHARE = 8
_TABLE_BYTES = 1 << 20
_TABLE_ROWS = 512
# Trace.to_csv finds the (level, state) pairs a trace visits from its runs
# of one state, cut at blocks of this many rows
_VISIT_ROWS = 1 << 16


def _decimal(x: float):
    """(m, e) with m * 10**e the decimal that repr(x) writes, m not a
    multiple of 10 unless it is 0."""
    if not math.isfinite(x):
        raise ValueError(f"{x} is not a finite time")
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    m, e = int(whole + fraction), int(exponent or 0) - len(fraction)
    while m and m % 10 == 0:
        m, e = m // 10, e + 1
    return m, e


def _scaled(*xs):
    """The decimals that repr writes for each of `xs`, scaled by one power of
    ten, the least that makes them all integers."""
    decimals = [_decimal(x) for x in xs]
    e = min(e for _, e in decimals)
    return [m * 10 ** (e_x - e) for m, e_x in decimals]


def _phase_grid(dt: float, period: float):
    """(a, P) such that sample k of step `dt` lies at phase (k * a mod P) / P
    of `period`, exactly: dt and period, as their integers dt_i and period_i
    (_scaled), are a * g and P * g, g their gcd."""
    dt_i, period_i = _scaled(dt, period)
    g = math.gcd(dt_i, period_i)
    return dt_i // g % (period_i // g), period_i // g


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
        if self.kind in ("sawtooth", "triangle", "sine") \
                and not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"{self.kind} waveform needs a finite period > 0")
        if self.kind == "steps":
            times = [t for t, _ in self.steps]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("step times must be strictly increasing")

    def levels(self, dt: float):
        """This source on the sample grid of step `dt`, as (count, index, at):
        sample k is at level index(k) of `count`, and level j is at voltage
        at(j). The level is 0 for constant; for steps, the entry in effect (0
        before the first), entry i starting at the first k with k * dt >=
        its time, both read as the decimals of their repr (_scaled); and for
        a periodic source the residue j = k mod P, at phase (j * a mod P) / P
        (_phase_grid). Where P < 2**53 and (P - 1) * a fits int64, both run
        in numpy, the phase being two doubles divided once; elsewhere in
        Python integers, whose int / int is correctly rounded too."""
        if self.kind == "constant":
            return (1, lambda k: np.zeros(np.shape(k), dtype=np.intp),
                    lambda j: np.full(np.shape(j), self.offset, dtype=float))
        if self.kind == "steps":
            dt_i, *times = _scaled(dt, *(time for time, _ in self.steps))
            if dt_i <= 0:
                raise ValueError("a steps source needs a sample step dt > 0")
            # ceil(time / dt) of the integers, within int64 for searchsorted
            starts = np.array([min(max(-(-time // dt_i), 0), 2**63 - 1) for time in times],
                              dtype=np.int64)
            levels = np.array([self.offset] + [val for _, val in self.steps], dtype=float)
            return (len(levels), lambda k: np.searchsorted(starts, k, side="right"),
                    levels.__getitem__)
        a, count = _phase_grid(dt, self.period)
        if count < 2**53 and (count - 1) * a < 2**63:
            return count, lambda k: k % count, lambda j: self._at(j * a % count / count)

        def at(j):  # in Python integers, in place: one array of products at a time
            x = np.array(j, dtype=object)
            np.multiply(x, a, out=x)
            np.remainder(x, count, out=x)
            return self._at(np.true_divide(x, count, out=x).astype(float))

        return count, lambda k: np.asarray(k, dtype=object) % count, at

    def value(self, k, dt: float):
        """Source voltage at sample `k` (an integer or an integer array) of the
        grid of step `dt`, that is at time k * dt: the voltage of its level."""
        _, index, at = self.levels(dt)
        return at(index(np.asarray(k)))[()]

    def _at(self, frac):
        """A periodic source's voltage at phase `frac`, in [0, 1)."""
        if self.kind == "sawtooth":
            level = frac
        elif self.kind == "sine":
            level = np.sin(2.0 * np.pi * frac)
        else:  # triangle: 0 -> +A at T/4 -> -A at 3T/4 -> 0
            level = np.where(frac < 0.25, 4.0 * frac,
                             np.where(frac < 0.75, 2.0 - 4.0 * frac,
                                      4.0 * frac - 4.0))
        return self.offset + self.amplitude * level


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
        source at sample k, the device voltage (= `v_out`) and current in each
        row's state and, given the comparator's (threshold, high, low), `logic`.

        Everything after `t` depends only on the row's source level and state
        (SourceWaveform.levels). Where the 2 * levels rows of that text are
        few enough (_TABLE_SHARE, _TABLE_BYTES), those that the rows use
        (_visited) are formatted once (_suffix_table) and each chunk gathers
        its rows' suffixes after `t`,
        and `t` from the two tables of rows.t_tables where they apply and pay
        (_g9 formats it in a chunk with a row below 1e-4, or where they do
        not); otherwise each chunk formats every column of its rows."""
        from .rows import csv_rows, t_tables, t_words  # so that loading a config does not compile it

        names = "t,v_applied,v_device,v_out,conducting,current"
        fh.write(names + ("" if digitize is None else ",logic") + "\n")
        (count, index, at), table = source.levels(self.dt), None
        # a suffix at its widest, in whole words: 4 float fields (5 with logic)
        # of at most 16 characters ("-1.23456789e-100"), the state's digit,
        # and a separator after each
        widest = (17 * (4 + (digitize is not None)) + 2 + 7) // 8 * 8
        if 2 * count * _TABLE_SHARE <= len(self) and 2 * count * widest <= _TABLE_BYTES:
            keys = _visited(self.conducting, count, index, source.kind != "steps")
            table, bad = _suffix_table(count, keys, at, r1, device, digitize, widest // 8)
            # t's texts, one word each, under the same cutoffs
            times = t_tables(*_decimal(self.dt), len(self),
                             lambda texts: texts * _TABLE_SHARE <= len(self)
                             and texts * 8 <= _TABLE_BYTES)
        # in chunks, so that the text of only one chunk is held at a time; half
        # a chunk of 4 or 5 distinct float columns is a _g9 pass of ~8192 values
        rows = _CSV_CHUNK_ROWS // 2
        for start in range(0, len(self), rows):
            k = np.arange(start, min(start + rows, len(self)))
            on = self.conducting[start:start + len(k)]
            if table is None:
                cols = _suffix_columns(at(index(k)), on, r1, device, digitize)
                hit = ~np.isfinite(cols[1])
                if hit.any():
                    raise _non_finite(cols[1][hit.argmax()])
                fh.write(csv_rows([k * self.dt] + cols))
                continue
            key = 2 * index(k) + on
            if bad and (hit := np.isin(key, list(bad))).any():
                raise _non_finite(bad[int(key[hit.argmax()])])
            # t's words, its separator in the last one, then the suffix's
            words = np.empty((4 + len(table), len(k)), dtype=np.uint64)
            first = t_words(k, self.dt, times, words[:4])
            np.take(table, key, axis=1, out=words[4:], mode="clip")
            text = words[first:].T.tobytes()
            del words
            fh.write(text.translate(None, b"\0").decode("ascii"))


def _suffix_columns(v, on, r1: float, device: DeviceParams, digitize):
    """The columns after `t` of rows at source voltage `v` in state `on`."""
    v_device, current = solve_series_divider(r1, np.where(on, device.r_on, device.r_off), v)
    cols = [v, v_device, v_device, on, current]
    if digitize is not None:
        threshold, high, low = digitize
        cols.append(np.where(v_device > threshold, high, low))
    return cols


def _non_finite(v_device) -> ValueError:
    """The error of a row whose device voltage is not finite."""
    return ValueError(f"non-finite device voltage: {v_device}")


def _visited(conducting, count: int, index, periodic: bool):
    """The keys 2 * level + state that the rows of `conducting` use, found
    from its runs of one state rather than row by row, in level order. A
    run of rows [a, b) covers the levels index(a) .. index(b - 1): cyclic
    under a periodic index, the residue k % count (all of them where
    b - a >= count); under a steps index, which never falls, every level
    between the two (all of them used unless two step times fall within
    one step)."""
    # each run marks its span [lo, hi) of its state's 2 * count positions;
    # one that wraps past a period ends in the second count. The runs are
    # cut at blocks of _VISIT_ROWS rows, so that no temporary grows with
    # the trace; the pieces of a run cover what it covers.
    marks = np.zeros(4 * count, dtype=np.intp)
    for start in range(0, len(conducting), _VISIT_ROWS):
        on = conducting[start:start + _VISIT_ROWS]
        a = np.flatnonzero(on[1:] != on[:-1]) + 1
        b = np.append(a, len(on)) + start
        a = np.insert(a, 0, 0) + start
        lo = index(a)
        hi = lo + np.minimum(b - a, count) if periodic else index(b - 1) + 1
        row = on[a - start] * (2 * count)  # each run's state's half of marks
        marks += np.bincount(row + lo, minlength=4 * count)
        marks -= np.bincount(row + hi, minlength=4 * count)
    covered = np.cumsum(marks.reshape(2, 2 * count), axis=1) > 0
    # 2 * level + state, where a state covers the level
    return np.flatnonzero((covered[:, :count] | covered[:, count:]).T)


def _suffix_table(count: int, keys, at, r1: float, device: DeviceParams, digitize,
                  words: int):
    """The text after `t` of a row at level j (of `count`, at voltage at(j))
    in state s, as column 2j + s of a uint64 array, for each key 2j + s of
    `keys` (the other columns stay zero, as no row reads them): the row's
    text, NUL-padded to the words of the longest row, of at most `words`.
    Formed through csv_words, _TABLE_ROWS rows at a time. Also {column:
    device voltage} of its columns where that is not finite, which
    Trace.to_csv raises only on a row that uses one.

    The rows are compacted, not kept in csv_words' layout of four words a
    float field: at that width each gathered row would be as long as the
    per-row writer's, with as many NULs to drop, and the table of a typical
    row more than twice the size."""
    from .rows import csv_words

    # as deep as the widest row could be, so that no block is copied into a
    # wider table; the words past the longest row are never written, so
    # their pages are never touched
    table, bad, width = np.zeros((words, 2 * count), dtype=np.uint64), {}, 0
    for lo in range(0, len(keys), _TABLE_ROWS):
        key = keys[lo:lo + _TABLE_ROWS]
        # the rows' device voltages are checked where a sample uses them
        with np.errstate(all="ignore"):
            cols = _suffix_columns(at(key // 2), key % 2 == 1, r1, device, digitize)
        hit = ~np.isfinite(cols[1])
        bad.update(zip(key[hit].tolist(), cols[1][hit].tolist()))
        # the rows' text as csv_rows writes it, each row ending in its '\n'
        text = csv_words(cols).T.tobytes().translate(None, b"\0")
        text = np.frombuffer(text, dtype=np.uint8)
        length = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)
        rows = np.zeros((len(key), (int(length.max()) + 7) // 8 * 8), dtype=np.uint8)
        rows[np.arange(rows.shape[1]) < length[:, None]] = text
        table[:rows.shape[1] // 8, key] = rows.view(np.uint64).T
        width = max(width, rows.shape[1] // 8)
    return table[:width], bad


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


def _next(residues, count: int, lo: int, hi: int) -> int:
    """First sample k in [lo, hi) whose residue k % count is in `residues`,
    a sorted int array; hi if none."""
    if not len(residues):
        return hi
    turn, r = divmod(lo, count)
    i = int(residues.searchsorted(r))
    k = turn * count + (int(residues[i]) if i < len(residues) else count + int(residues[0]))
    return min(k, hi)


def run_transient(r1: float, device: DeviceParams, source: SourceWaveform,
                  dt: float, t_end: float, seed: int = 0) -> Trace:
    """Fixed-timestep transient of `device` from OFF, behind `r1` across `source`.

    Each row records the state in effect at that instant. The trace equals,
    bit for bit, stepping `device.step_device` once per sample from OFF, as
    tests/transient_oracle.py does. The loop runs once per switching onset:
    it finds the first sample where the condition holds, then switches if
    the condition keeps holding for `hold` samples with that onset's jitter
    offsets, or else resumes one sample after the break, and records the
    state of the samples it has passed.

    Without jitter, on a source whose level index repeats with period
    count <= _SCAN_ROWS (constant, or periodic; see SourceWaveform.levels),
    a sample's condition in a state depends on its residue k % count alone.
    So each state's condition is solved once over the residues, and the
    onset and the break are each one searchsorted in that state's sorted
    holding or failing residues (_lookup). Every other run (jitter, a steps
    source, or more than _SCAN_ROWS levels) probes the condition in blocks
    of samples (_probe, _first): no read starts before the last one, so the
    source is sampled in a forward window, and `device.jitter_pairs` keeps
    no pair from before the current block.
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
    levels = source.levels(dt)
    if device.jitter_sigma == 0 and source.kind != "steps" and levels[0] <= _SCAN_ROWS:
        onset, broken = _lookup(r1, device, dt, n, *levels)
    else:
        onset, broken = _probe(r1, device, source, dt, n, seed)

    state, pos = False, 0
    while pos < n:
        start = onset(state, pos)
        if start == n:
            conducting[pos:] = state
            break
        end = min(start + hold, n)
        stop = broken(state, start + 1, end) + 1
        conducting[pos:min(stop, end)] = state
        if stop > end:  # the switch; past the last row it changes nothing
            state, pos = not state, end
        else:
            pos = stop

    return Trace(dt=dt, conducting=conducting)


def _lookup(r1: float, device: DeviceParams, dt: float, n: int, count: int, index, at):
    """run_transient's (onset, broken) where sample k's condition in a state
    depends only on its residue k % count: each state's condition solved once
    over the residues below min(count, n), the doubles the probe would solve."""
    v = at(index(np.arange(min(count, n))))
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(f"non-finite source voltage at t={bad.argmax() * dt}")
    holding, failing = [], []
    for state in (False, True):
        found = condition_holds(device, state, device_voltage(
            r1, device.r_on if state else device.r_off, v), (0.0, 0.0))
        holding.append(np.flatnonzero(found))
        failing.append(np.flatnonzero(~found))
    return (lambda state, lo: _next(holding[state], count, lo, n),
            lambda state, lo, hi: _next(failing[state], count, lo, hi))


def _probe(r1: float, device: DeviceParams, source: SourceWaveform, dt: float, n: int,
           seed: int):
    """run_transient's (onset, broken) in blocks of samples: onset(state, pos),
    the first sample from pos where the condition holds with its own jitter
    pair, draws one pair for each sample up to it; broken(state, lo, hi), the
    first sample in [lo, hi) where it fails with that onset's pair."""
    # the steps before the current onset search drew `used` pairs, one per
    # step with no switch pending; `d` is the last onset's pair
    pairs, used, d = jitter_pairs(device, seed, _SCAN_ROWS), 0, None
    window, first = np.empty(0), 0  # source at rows first..

    def holds(state, a, b, d):  # the condition over rows a..b-1
        nonlocal window, first
        if b > first + len(window):
            window, first = source.value(np.arange(a, min(a + _SCAN_ROWS, n)), dt), a
            bad = ~np.isfinite(window)
            if bad.any():
                raise ValueError(f"non-finite source voltage at t={(a + bad.argmax()) * dt}")
        # the device voltage alone: no loop current is formed
        r_m = device.r_on if state else device.r_off
        return condition_holds(device, state, device_voltage(r1, r_m, window[a - first:b - first]), d)

    def onset(state, pos):
        nonlocal used, d
        start = _first(lambda a, b: holds(state, a, b, pairs(used + a - pos, used + b - pos)),
                       pos, n)
        if start < n:
            used += start - pos + 1
            d = pairs(used - 1, used)
        return start

    return onset, lambda state, lo, hi: _first(lambda a, b: ~holds(state, a, b, d), lo, hi)


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
        v = sweep.value(np.arange(start, min(start + _CSV_CHUNK_ROWS, points)), 1.0)
        offsets = pairs(start, start + len(v))
        # where the condition of one state holds and the other's does not,
        # the point sets the state; where both hold, it toggles the previous one
        up, down = (condition_holds(device, state, v, offsets) for state in (False, True))
        toggled = np.logical_xor.accumulate(up & down)
        last = np.maximum.accumulate(np.where(up != down, np.arange(len(v)), -1))
        conducting = np.where(last >= 0, up[last] ^ toggled[last], on) ^ toggled
        on = conducting[-1]
        yield v, v / np.where(conducting, device.r_on, device.r_off), conducting
