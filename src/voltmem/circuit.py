"""Series resistor + volatile memristor circuit, solved quasi-statically.

The electrical network is purely resistive; the only dynamics is the device
actuation delay, stepped on a fixed time grid. Traces carry the applied
voltage, the device voltage (= output voltage), the conduction state and the
loop current at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, condition_holds


_CSV_CHUNK_ROWS = 4096


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
        cols = [self.t, self.v_applied, self.v_device, self.v_device,
                self.conducting, self.current]
        fmt = "%.9g,%.9g,%.9g,%.9g,%d,%.9g"
        names = "t,v_applied,v_device,v_out,conducting,current"
        if logic is not None:
            cols.append(logic)
            fmt += ",%.9g"
            names += ",logic"
        fh.write(names + "\n")
        fmt += "\n"
        # format in chunks: whole-column lists would hold every row's floats
        for start in range(0, len(self.t), _CSV_CHUNK_ROWS):
            rows = zip(*[c[start:start + _CSV_CHUNK_ROWS].tolist() for c in cols])
            fh.write("".join([fmt % row for row in rows]))


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
