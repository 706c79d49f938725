"""Two-state volatile memristor model and the relay-emulator parameter mapping.

The device is a threshold switch: OFF below the pull-in voltage, ON above it,
bistable in between (the memory window). Switching is delayed by a configurable
actuation time and can optionally be jittered to mimic noisy relay thresholds.
ResolutionError, which a time grid too coarse for that delay raises, lives
here so that the CLI can catch it without loading the transient core.
"""

from __future__ import annotations

import math
from collections import namedtuple


class ResolutionError(ValueError):
    """dt too coarse to resolve the device actuation delay."""


class _Checked(tuple):
    """Base of the records that check their fields: a subclass puts it before
    its namedtuple and defines _check. Every construction runs the check, as
    _make builds through the class and _replace builds through _make."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class DeviceParams(_Checked, namedtuple("DeviceParams", [
        "r_on", "r_off", "v_th_pos", "v_hold_pos", "v_th_neg", "v_hold_neg",
        "t_actuate", "jitter_sigma"], defaults=(0.5e-3, 0.0))):
    """Electrical parameters of one volatile memristor; t_actuate is in
    seconds, a reed relay's order of magnitude by default."""

    __slots__ = ()

    def _check(self):
        if not 0 < self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got r_on={self.r_on}, r_off={self.r_off}")
        if not 0 < self.v_hold_pos < self.v_th_pos:
            raise ValueError(
                f"need 0 < v_hold_pos < v_th_pos, got {self.v_hold_pos}, {self.v_th_pos}")
        if not self.v_th_neg < self.v_hold_neg < 0:
            raise ValueError(
                f"need v_th_neg < v_hold_neg < 0, got {self.v_th_neg}, {self.v_hold_neg}")
        if self.t_actuate < 0:
            raise ValueError("t_actuate must be >= 0")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")


class EmulatorParams(_Checked, namedtuple("EmulatorParams", [
        "r_coil", "r_int", "l_coil", "v_pull_in", "v_drop_out"],
        defaults=(600.0, 680.0, 0.17, 2.2, 1.6))):
    """Relay + resistor assembly that emulates one volatile memristor."""

    __slots__ = ()

    def _check(self):
        for name, val in zip(self._fields, self):
            if val <= 0:
                raise ValueError(f"{name} must be positive")
        if self.v_drop_out >= self.v_pull_in:
            raise ValueError("v_drop_out must be below v_pull_in")


# Conduction state plus the pending-switch accumulator. While a switching
# condition holds continuously, `pending_elapsed` accumulates simulation
# time; the state flips once it reaches t_actuate. `pending_offsets` are the
# per-onset jitter draws applied to the two thresholds of the active
# condition (zeros when jitter is disabled).
DeviceState = namedtuple(
    "DeviceState", ["conducting", "pending_target", "pending_elapsed", "pending_offsets"],
    defaults=(False, None, 0.0, (0.0, 0.0)))


def derive_device_params(e: EmulatorParams) -> DeviceParams:
    """Map emulator components to device parameters.

    OFF resistance is the coil alone; ON puts the internal resistor in
    parallel with the coil. Negative-polarity thresholds default to the
    mirrored positive values.
    """
    r_on = e.r_coil * e.r_int / (e.r_coil + e.r_int)
    return DeviceParams(
        r_on=r_on,
        r_off=e.r_coil,
        v_th_pos=e.v_pull_in,
        v_hold_pos=e.v_drop_out,
        v_th_neg=-e.v_pull_in,
        v_hold_neg=-e.v_drop_out,
    )


def coil_impedance(e: EmulatorParams, freq: float) -> float:
    """|Z| of the series R-L coil at the given frequency (Hz)."""
    if freq < 0:
        raise ValueError("freq must be >= 0")
    return math.hypot(e.r_coil, 2.0 * math.pi * freq * e.l_coil)


def transition_frequency(e: EmulatorParams) -> float:
    """Frequency where resistive and inductive contributions are equal."""
    return e.r_coil / (2.0 * math.pi * e.l_coil)


def condition_holds(p: DeviceParams, conducting: bool, v, offsets):
    """Whether the state's switching condition holds at v (floats or arrays)."""
    d1, d2 = offsets
    if conducting:
        # drop-out: bias inside the sub-hold window releases the relay
        return ((p.v_hold_neg + d1) < v) & (v < (p.v_hold_pos + d2))
    return (v > (p.v_th_pos + d1)) | (v < (p.v_th_neg + d2))


def jitter_pairs(p: DeviceParams, seed: int, batch: int):
    """pairs(a, b): the threshold offsets (d1, d2) of pairs a..b-1 of one
    forward read, as two column arrays: pair k is step_device's k-th pair of
    rng.normal draws from a generator seeded with `seed`. A read starts at or
    after the last one's start and skips no pair. Draws `batch` or more pairs
    at a time and keeps none before a. Without jitter every read is
    (0.0, 0.0) and no generator is made, so numpy.random is never loaded."""
    if p.jitter_sigma == 0:
        return lambda a, b: (0.0, 0.0)
    import numpy as np
    # the pairs kept, pair `first` first
    rng, drawn, first = np.random.default_rng(seed), np.empty((0, 2)), 0

    def pairs(a, b):
        nonlocal drawn, first
        if b > first + len(drawn):
            more = rng.normal(0.0, p.jitter_sigma, (max(b - first - len(drawn), batch), 2))
            drawn, first = np.concatenate([drawn[a - first:], more]), a
        return drawn[a - first:b - first, 0], drawn[a - first:b - first, 1]

    return pairs


def step_device(p: DeviceParams, s: DeviceState, v_device: float, dt: float,
                rng=None) -> DeviceState:
    """Advance the device state by one time step at the given device voltage.

    A switching condition must hold continuously for t_actuate before the
    state flips; leaving the condition resets the accumulator (bistable
    region retains state). When jitter_sigma > 0, every step that starts with
    no switch pending draws one rng offset per threshold, whether or not the
    condition then holds; a pending switch keeps its onset's offsets.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(v_device):
        raise ValueError(f"non-finite device voltage: {v_device}")

    target = not s.conducting
    if s.pending_target is not None:
        offsets = s.pending_offsets
    elif p.jitter_sigma > 0:
        if rng is None:
            raise ValueError("jitter_sigma > 0 requires an rng")
        offsets = (rng.normal(0.0, p.jitter_sigma), rng.normal(0.0, p.jitter_sigma))
    else:
        offsets = (0.0, 0.0)

    if not condition_holds(p, s.conducting, v_device, offsets):
        if s.pending_target is None and s.pending_elapsed == 0.0:
            return s
        return s._replace(pending_target=None, pending_elapsed=0.0,
                          pending_offsets=(0.0, 0.0))

    elapsed = s.pending_elapsed + dt
    if elapsed >= p.t_actuate:
        return DeviceState(conducting=target)
    return DeviceState(conducting=s.conducting, pending_target=target,
                       pending_elapsed=elapsed, pending_offsets=offsets)
