"""Simulator for volatile (threshold-switching) memristor circuits.

Covers single-device I-V hysteresis, self-sustained oscillations in a
resistor-memristor divider, and the two-memristor implication logic circuit
with (V1, V2) gate-map sweeps.
"""
