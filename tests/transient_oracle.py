"""Per-sample reference for `circuit.run_transient`.

run_transient_per_sample steps `device.step_device` once per sample, so its
traces come from the scalar device model, not from the event-driven core. It
keeps every column it solves, device voltage and current included, and
OracleTrace.csv gives the rows that `Trace.to_csv` must write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voltmem.circuit import ResolutionError, SourceWaveform, solve_series_divider
from voltmem.device import DeviceParams, DeviceState, step_device
from voltmem.rows import csv_rows


@dataclass(frozen=True)
class OracleTrace:
    """Every column of a per-sample transient, sample k at time k * dt."""

    dt: float
    v_applied: np.ndarray
    v_device: np.ndarray
    conducting: np.ndarray
    current: np.ndarray

    def csv(self, digitize=None) -> str:
        """The header and rows that `Trace.to_csv` writes for this run, formed
        from this trace's own per-sample columns."""
        cols = [np.arange(len(self.v_applied)) * self.dt, self.v_applied,
                self.v_device, self.v_device, self.conducting, self.current]
        names = "t,v_applied,v_device,v_out,conducting,current"
        if digitize is not None:
            threshold, high, low = digitize
            cols.append(np.where(self.v_device > threshold, high, low))
            names += ",logic"
        return names + "\n" + csv_rows(cols)


def device_resistance(p: DeviceParams, s: DeviceState) -> float:
    return p.r_on if s.conducting else p.r_off


def run_transient_per_sample(r1: float, device: DeviceParams,
                             source: SourceWaveform, dt: float, t_end: float,
                             seed: int = 0) -> OracleTrace:
    """Fixed-timestep transient of `device` from OFF, behind `r1` across `source`.

    Each row records the divider solved with the resistance in effect at that
    instant; the device state is then stepped for the next sample.
    """
    if r1 < 0:
        raise ValueError("r1 must be >= 0")
    if not 0 < dt <= t_end:
        raise ValueError("need 0 < dt <= t_end")
    if device.t_actuate > 0 and dt > device.t_actuate / 4.0:
        raise ResolutionError(
            f"dt={dt} too coarse: must be <= t_actuate/4 = {device.t_actuate / 4.0}")

    rng = np.random.default_rng(seed)
    n = int(round(t_end / dt)) + 1
    v_applied = source.value(np.arange(n), dt)
    bad = ~np.isfinite(v_applied)
    if bad.any():
        raise ValueError(f"non-finite source voltage at t={np.argmax(bad) * dt}")
    v_device = np.empty(n)
    conducting = np.zeros(n, dtype=bool)
    current = np.empty(n)

    state = DeviceState(conducting=False)
    for k in range(n):
        r_m = device_resistance(device, state)
        v_m, i = solve_series_divider(r1, r_m, v_applied[k])
        v_device[k] = v_m
        conducting[k] = state.conducting
        current[k] = i
        state = step_device(device, state, v_m, dt, rng)

    return OracleTrace(dt=dt, v_applied=v_applied, v_device=v_device,
                       conducting=conducting, current=current)
