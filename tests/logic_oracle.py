"""Scalar per-cell reference for the gate-map kernel, and the truth-table
helpers the logic tests use.

sweep_grid runs `logic.run_gate` once per (v1, v2) cell, so its maps come
from the scalar chain, not from `logic.relax_program`/`logic.sweep_codes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from voltmem.logic import (INPUT_PAIRS, OSCILLATING_CODE, GateResult,
                           LogicCircuit, canonical_program, run_gate)


@dataclass(frozen=True)
class GateMap:
    v1_axis: np.ndarray
    v2_axis: np.ndarray
    v3: float
    register: str
    codes: np.ndarray  # shape (len(v1_axis), len(v2_axis)), OSCILLATING_CODE sentinel


def sweep_grid(c: LogicCircuit, v3: float, v1_axis, v2_axis
               ) -> List[List[GateResult]]:
    """GateResult for every (v1, v2) grid cell."""
    v1_axis = np.asarray(v1_axis, dtype=float)
    v2_axis = np.asarray(v2_axis, dtype=float)
    if len(v1_axis) == 0 or len(v2_axis) == 0:
        raise ValueError("sweep axes must be nonempty")
    return [[run_gate(c, canonical_program(v1, v2, v3, v0=c.v_hold_level))
             for v2 in v2_axis] for v1 in v1_axis]


def grid_codes(grid: List[List[GateResult]]) -> Tuple[np.ndarray, np.ndarray]:
    """code_m1 and code_m2 arrays of sweep_grid's results, OSCILLATING_CODE
    in both where a cell oscillated: what sweep_codes returns."""
    return tuple(
        np.array([[OSCILLATING_CODE if res.oscillated else getattr(res, name)
                   for res in row] for row in grid], dtype=np.uint8)
        for name in ("code_m1", "code_m2"))


def sweep_map(c: LogicCircuit, v3: float, v1_axis, v2_axis,
              register: str = "M1",
              grid: List[List[GateResult]] | None = None) -> GateMap:
    """Gate-code map over (v1, v2) for one result register, from the given
    sweep_grid results or, without them, from a new sweep_grid."""
    if register not in ("M1", "M2"):
        raise ValueError("register must be 'M1' or 'M2'")
    if grid is None:
        grid = sweep_grid(c, v3, v1_axis, v2_axis)
    return GateMap(v1_axis=np.asarray(v1_axis, dtype=float),
                   v2_axis=np.asarray(v2_axis, dtype=float), v3=v3,
                   register=register, codes=grid_codes(grid)[register == "M2"])


def truth_table(code: int) -> Dict[Tuple[int, int], int]:
    """Inverse of gate_code: the four output bits of a 0-15 code."""
    if not 0 <= code <= 15:
        raise ValueError(f"gate code out of range: {code}")
    return {(a, b): (code >> (2 * a + b)) & 1 for a, b in INPUT_PAIRS}


def swap_inputs_code(code: int) -> int:
    """Code of the same function with inputs interchanged (bit1 <-> bit2)."""
    kept = code & 0b1001
    return kept | ((code & 0b0010) << 1) | ((code & 0b0100) >> 1)
