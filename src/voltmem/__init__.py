"""Simulator for volatile (threshold-switching) memristor circuits.

Covers single-device I-V hysteresis, self-sustained oscillations in a
resistor-memristor divider, and the two-memristor implication logic circuit
with (V1, V2) gate-map sweeps.
"""

from .device import (DeviceParams, DeviceState, EmulatorParams,
                     coil_impedance, derive_device_params, device_resistance,
                     step_device, transition_frequency)
from .circuit import (ResolutionError, SeriesCircuit, SourceWaveform, Trace,
                      digitize, run_transient, solve_series_divider)
from .oscillation import (OscillationReport, detect_oscillation,
                          instability_lhs, is_unstable, onset_voltage)
from .logic import (GateResult, LogicCircuit, Phase, PhaseProgram,
                    OSCILLATING_CODE, canonical_program, classify, gate_code,
                    relax_program, run_gate, run_sequence, solve_node,
                    sweep_codes)
from .config import ConfigError, RunConfig, load_config, serialize

__version__ = "0.1.0"
