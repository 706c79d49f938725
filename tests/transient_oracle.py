"""Per-sample reference for `circuit.run_transient`.

run_transient_per_sample steps `device.step_device` once per sample, so its
traces come from the scalar device model, not from the event-driven core.
"""

from __future__ import annotations

import numpy as np

from voltmem.circuit import (ResolutionError, SeriesCircuit, Trace,
                             solve_series_divider)
from voltmem.device import DeviceParams, DeviceState, step_device


def device_resistance(p: DeviceParams, s: DeviceState) -> float:
    return p.r_on if s.conducting else p.r_off


def run_transient_per_sample(c: SeriesCircuit, dt: float, t_end: float,
                             seed: int = 0) -> Trace:
    """Fixed-timestep transient from the OFF state.

    Each row records the divider solved with the resistance in effect at that
    instant; the device state is then stepped for the next sample.
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
    v_device = np.empty(n)
    conducting = np.zeros(n, dtype=bool)
    current = np.empty(n)

    state = DeviceState(conducting=False)
    for k in range(n):
        r_m = device_resistance(c.device, state)
        v_m, i = solve_series_divider(c.r1, r_m, v_applied[k])
        v_device[k] = v_m
        conducting[k] = state.conducting
        current[k] = i
        state = step_device(c.device, state, v_m, dt, rng)

    return Trace(dt=dt, t=t, v_applied=v_applied, v_device=v_device,
                 conducting=conducting, current=current)
