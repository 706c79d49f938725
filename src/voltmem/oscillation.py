"""Closed-form oscillation onset/instability analysis and trace-based detection.

A series divider with a threshold device self-oscillates when neither state is
electrically stable: in the OFF state the device voltage exceeds the switching
threshold while in the ON state it falls below the hold level.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from .device import DeviceParams

if TYPE_CHECKING:  # osc-check, which loads this module, never loads circuit
    from .circuit import Trace


OscillationReport = namedtuple(
    "OscillationReport",
    ["oscillating", "transition_count", "frequency_estimate", "duty_cycle"],
    defaults=(None, None))


def onset_voltage(d: DeviceParams, r1: float) -> float:
    """Applied voltage at which the OFF-state device first reaches threshold."""
    return (r1 + d.r_off) / d.r_off * d.v_th_pos


def instability_lhs(d: DeviceParams, r1: float) -> float:
    """Device voltage right after switching ON at the onset applied voltage."""
    return d.r_on * (r1 + d.r_off) / (d.r_off * (r1 + d.r_on)) * d.v_th_pos


def is_unstable(d: DeviceParams, r1: float) -> bool:
    """True if the ON state collapses below the hold level (oscillation regime)."""
    return instability_lhs(d, r1) < d.v_hold_pos


def detect_oscillation(tr: Trace) -> OscillationReport:
    """Count conduction-state transitions after the first fifth of the trace.

    Oscillating means at least 4 transitions in the analysis window; a single
    switching event is not an oscillation.
    """
    if len(tr) == 0:
        raise ValueError("empty trace")

    start = int(len(tr) * 0.2)
    window = tr.conducting[start:]
    transitions = int(np.count_nonzero(window[1:] != window[:-1]))
    oscillating = transitions >= 4
    if not oscillating:
        return OscillationReport(oscillating=False, transition_count=transitions)

    duration = (len(window) - 1) * tr.dt
    return OscillationReport(
        oscillating=True,
        transition_count=transitions,
        frequency_estimate=transitions / (2.0 * duration),
        duty_cycle=float(np.count_nonzero(window)) / len(window),
    )
