"""Two-memristor implication logic circuit: phase sequencing, gate codes,
classification, and (V1, V2) sweep maps.

Topology: M1 connects source node V1 to a shared node N, M2 connects V2 to N;
N goes through the common resistor to source V3 and through switch S1 to
ground. With the switch closed the full source voltage sits across each
device; opening it engages V3 and lets the devices interact through N.

States are relaxed quasi-statically inside each phase: solve the one-node
network, apply the zero-delay threshold rule to both devices simultaneously,
repeat until a fixed point or a revisited state (cycle = would-be oscillation).
relax_phase does this for one state pair; sweep_codes does it on arrays for
every cell and input pair of a (v1, v2) map at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from .device import DeviceParams

# reserved map code for cells whose relaxation cycles instead of settling
OSCILLATING_CODE = 255

GATE_NAMES = (
    "FALSE", "NOR", "NOT(IMP_2)", "NOT(M1)",
    "NOT(IMP_1)", "NOT(M2)", "XOR", "NAND",
    "AND", "XNOR", "COPY(M2)", "IMP_1",
    "COPY(M1)", "IMP_2", "OR", "TRUE",
)

INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class LogicCircuit:
    m1: DeviceParams
    m2: DeviceParams
    r_common: float = 220.0
    v_hold_level: float = 1.9

    def __post_init__(self):
        if self.r_common <= 0:
            raise ValueError("r_common must be positive")
        for name, d in (("m1", self.m1), ("m2", self.m2)):
            if not d.v_hold_pos < self.v_hold_level < d.v_th_pos:
                raise ValueError(
                    f"v_hold_level={self.v_hold_level} outside bistable window "
                    f"({d.v_hold_pos}, {d.v_th_pos}) of {name}")


@dataclass(frozen=True)
class Phase:
    v1: float
    v2: float
    v3: float
    switch_closed: bool
    duration: float


@dataclass(frozen=True)
class PhaseProgram:
    """init -> hold -> calc -> hold schedule.

    The first phase is the initialisation phase: its V1/V2 are overridden per
    input pair with init_low / init_high.
    """

    phases: Tuple[Phase, ...]
    init_low: float = 0.0
    init_high: float = 5.0

    def __post_init__(self):
        if len(self.phases) < 2:
            raise ValueError("program needs at least init and hold phases")
        if any(ph.duration <= 0 for ph in self.phases):
            raise ValueError("phase durations must be positive")
        if not (self.phases[0].switch_closed and self.phases[-1].switch_closed):
            raise ValueError("first and last phases must have the switch closed")


def canonical_program(v1: float, v2: float, v3: float, v0: float = 1.9,
                      duration: float = 10e-3) -> PhaseProgram:
    """The standard four-phase sequence for one calculation at (v1, v2, v3)."""
    return PhaseProgram(phases=(
        Phase(0.0, 0.0, 0.0, switch_closed=True, duration=duration),   # init
        Phase(v0, v0, 0.0, switch_closed=True, duration=duration),     # hold
        Phase(v1, v2, v3, switch_closed=False, duration=duration),     # calc
        Phase(v0, v0, 0.0, switch_closed=True, duration=duration),     # hold
    ))


@dataclass(frozen=True)
class GateResult:
    final_states: Dict[Tuple[int, int], Tuple[int, int]]
    code_m1: int
    code_m2: int
    label_m1: str
    label_m2: str
    oscillated: bool


@dataclass(frozen=True)
class GateMap:
    v1_axis: np.ndarray
    v2_axis: np.ndarray
    v3: float
    register: str
    codes: np.ndarray  # shape (len(v1_axis), len(v2_axis)), OSCILLATING_CODE sentinel


def solve_node(c: LogicCircuit, states: Tuple[bool, bool], v1: float, v2: float,
               v3: float, switch_closed: bool) -> Tuple[float, float, float]:
    """Node voltage and per-device voltages of the shared-node network."""
    if switch_closed:
        return 0.0, v1, v2
    r_m1 = c.m1.r_on if states[0] else c.m1.r_off
    r_m2 = c.m2.r_on if states[1] else c.m2.r_off
    g1, g2, g3 = 1.0 / r_m1, 1.0 / r_m2, 1.0 / c.r_common
    v_n = (v1 * g1 + v2 * g2 + v3 * g3) / (g1 + g2 + g3)
    return v_n, v1 - v_n, v2 - v_n


def _threshold_update(p: DeviceParams, conducting: bool, v: float) -> bool:
    # zero-delay quasi-static switching rule
    if conducting:
        return not (p.v_hold_neg < v < p.v_hold_pos)
    return v > p.v_th_pos or v < p.v_th_neg


def relax_phase(c: LogicCircuit, states: Tuple[bool, bool],
                phase: Phase) -> Tuple[Tuple[bool, bool], bool]:
    """Fixed-point relaxation of one phase; returns (final states, cycled).

    The state space has 4 elements, so a fixed point or a revisit occurs
    within 5 iterations. On a cycle the last state before closure is kept.
    """
    seen: List[Tuple[bool, bool]] = [states]
    while True:
        _, v_m1, v_m2 = solve_node(c, states, phase.v1, phase.v2, phase.v3,
                                   phase.switch_closed)
        nxt = (_threshold_update(c.m1, states[0], v_m1),
               _threshold_update(c.m2, states[1], v_m2))
        if nxt == states:
            return states, False
        if nxt in seen:
            return states, True
        seen.append(nxt)
        states = nxt


def _check_durations(c: LogicCircuit, prog: PhaseProgram) -> None:
    min_duration = 10.0 * max(c.m1.t_actuate, c.m2.t_actuate)
    if any(ph.duration < min_duration for ph in prog.phases):
        raise ValueError(f"phase durations must be >= {min_duration} "
                         "(10x the actuation delay)")


def run_sequence(c: LogicCircuit, prog: PhaseProgram,
                 inputs: Tuple[int, int]) -> Tuple[int, int, bool]:
    """Run the full phase program for one input pair; returns (s1, s2, oscillated)."""
    a, b = inputs
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"inputs must be bits, got {inputs}")
    _check_durations(c, prog)

    init = prog.phases[0]
    init = replace(init,
                   v1=prog.init_high if a else prog.init_low,
                   v2=prog.init_high if b else prog.init_low)
    states = (False, False)
    oscillated = False
    for phase in (init,) + prog.phases[1:]:
        states, cycled = relax_phase(c, states, phase)
        oscillated = oscillated or cycled
    return int(states[0]), int(states[1]), oscillated


def gate_code(finals: Dict[Tuple[int, int], int]) -> int:
    """Pack the four final bits into the 0-15 operation code (bit 2a+b)."""
    code = 0
    for a, b in INPUT_PAIRS:
        if (a, b) not in finals:
            raise ValueError(f"missing input pair {(a, b)}")
        if finals[(a, b)]:
            code |= 1 << (2 * a + b)
    return code


def classify(code: int) -> str:
    if not 0 <= code <= 15:
        raise ValueError(f"gate code out of range: {code}")
    return GATE_NAMES[code]


def truth_table(code: int) -> Dict[Tuple[int, int], int]:
    """Inverse of gate_code: the four output bits of a 0-15 code."""
    if not 0 <= code <= 15:
        raise ValueError(f"gate code out of range: {code}")
    return {(a, b): (code >> (2 * a + b)) & 1 for a, b in INPUT_PAIRS}


def swap_inputs_code(code: int) -> int:
    """Code of the same function with inputs interchanged (bit1 <-> bit2)."""
    kept = code & 0b1001
    return kept | ((code & 0b0010) << 1) | ((code & 0b0100) >> 1)


def run_gate(c: LogicCircuit, prog: PhaseProgram) -> GateResult:
    """Run all four input pairs and classify both result registers."""
    finals: Dict[Tuple[int, int], Tuple[int, int]] = {}
    oscillated = False
    for pair in INPUT_PAIRS:
        s1, s2, cyc = run_sequence(c, prog, pair)
        finals[pair] = (s1, s2)
        oscillated = oscillated or cyc
    code1 = gate_code({k: v[0] for k, v in finals.items()})
    code2 = gate_code({k: v[1] for k, v in finals.items()})
    return GateResult(final_states=finals, code_m1=code1, code_m2=code2,
                      label_m1=classify(code1), label_m2=classify(code2),
                      oscillated=oscillated)


def sweep_grid(c: LogicCircuit, v3: float, v1_axis, v2_axis,
               duration: float = 10e-3) -> List[List[GateResult]]:
    """GateResult for every (v1, v2) grid cell."""
    v1_axis = np.asarray(v1_axis, dtype=float)
    v2_axis = np.asarray(v2_axis, dtype=float)
    if len(v1_axis) == 0 or len(v2_axis) == 0:
        raise ValueError("sweep axes must be nonempty")
    return [[run_gate(c, canonical_program(v1, v2, v3, v0=c.v_hold_level,
                                           duration=duration))
             for v2 in v2_axis] for v1 in v1_axis]


def _switch(p: DeviceParams, conducting: np.ndarray, v) -> np.ndarray:
    # _threshold_update over arrays
    return np.where(conducting,
                    np.logical_not((p.v_hold_neg < v) & (v < p.v_hold_pos)),
                    (v > p.v_th_pos) | (v < p.v_th_neg))


def _relax(c: LogicCircuit, s1: np.ndarray, s2: np.ndarray, phase: Phase):
    """relax_phase over arrays; returns (s1, s2, cycled).

    Each element of the states broadcast against the phase voltages is one
    relaxation. Its visited states are a 4-bit mask (bit 2*s1 + s2); an
    element stops at a fixed point or a revisit, keeping the state before
    closure, and all have stopped after 4 iterations.
    """
    shape = np.broadcast_shapes(s1.shape, np.shape(phase.v1), np.shape(phase.v2))
    s1, s2 = np.broadcast_to(s1, shape), np.broadcast_to(s2, shape)
    state = (s1.view(np.uint8) << 1) | s2.view(np.uint8)
    seen = np.uint8(1) << state
    active = np.ones(shape, dtype=bool)
    cycled = np.zeros(shape, dtype=bool)
    v_m1, v_m2 = phase.v1, phase.v2    # switch closed: the full source voltage
    g3 = 1.0 / c.r_common
    for _ in range(4):
        if not phase.switch_closed:
            # solve_node's expression, in its order, so floats match bit for bit
            g1 = np.where(s1, 1.0 / c.m1.r_on, 1.0 / c.m1.r_off)
            g2 = np.where(s2, 1.0 / c.m2.r_on, 1.0 / c.m2.r_off)
            v_n = (phase.v1 * g1 + phase.v2 * g2 + phase.v3 * g3) / (g1 + g2 + g3)
            v_m1, v_m2 = phase.v1 - v_n, phase.v2 - v_n
        n1, n2 = _switch(c.m1, s1, v_m1), _switch(c.m2, s2, v_m2)
        nxt = (n1.view(np.uint8) << 1) | n2.view(np.uint8)
        revisit = ((seen >> nxt) & 1).view(bool) & active
        cycled |= revisit & (nxt != state)
        active &= ~revisit
        if not active.any():
            break
        s1, s2 = np.where(active, n1, s1), np.where(active, n2, s2)
        state = np.where(active, nxt, state)
        seen |= np.uint8(1) << nxt
    return s1, s2, cycled


def sweep_codes(c: LogicCircuit, v3: float, v1_axis, v2_axis,
                duration: float = 10e-3) -> Tuple[np.ndarray, np.ndarray]:
    """Gate codes of both registers for every (v1, v2) grid cell at once.

    Returns two uint8 arrays of shape (len(v1_axis), len(v2_axis)), equal to
    the code_m1/code_m2 of sweep_grid's GateResults, with OSCILLATING_CODE
    in both wherever any input pair cycled in any phase. The canonical
    program runs with array voltages: the calc phase holds v1 along axis 0
    and v2 along axis 1, the init phase the four input pairs along axis 2,
    so init and hold relax four elements and calc the whole grid.
    """
    v1_axis = np.asarray(v1_axis, dtype=float)
    v2_axis = np.asarray(v2_axis, dtype=float)
    if len(v1_axis) == 0 or len(v2_axis) == 0:
        raise ValueError("sweep axes must be nonempty")
    prog = canonical_program(v1_axis[:, None, None], v2_axis[None, :, None],
                             v3, v0=c.v_hold_level, duration=duration)
    _check_durations(c, prog)
    a, b = np.array(INPUT_PAIRS, dtype=bool).T
    init = replace(prog.phases[0],
                   v1=np.where(a, prog.init_high, prog.init_low),
                   v2=np.where(b, prog.init_high, prog.init_low))
    s1 = s2 = cycled = np.zeros(4, dtype=bool)
    for phase in (init,) + prog.phases[1:]:
        s1, s2, cyc = _relax(c, s1, s2, phase)
        cycled = cycled | cyc
    # input pair k = 2a+b is bit k of the code
    oscillated = cycled.any(axis=-1)
    return tuple(np.where(oscillated, OSCILLATING_CODE,
                          np.packbits(s, axis=-1, bitorder="little")[..., 0])
                 .astype(np.uint8) for s in (s1, s2))


def sweep_map(c: LogicCircuit, v3: float, v1_axis, v2_axis,
              register: str = "M1", grid: List[List[GateResult]] | None = None) -> GateMap:
    """Gate-code map over (v1, v2) for one result register.

    Cells whose relaxation cycled get the OSCILLATING_CODE sentinel rather
    than being folded into a gate class. Without a grid the codes come from
    sweep_codes; with one, from its GateResults.
    """
    if register not in ("M1", "M2"):
        raise ValueError("register must be 'M1' or 'M2'")
    v1_axis = np.asarray(v1_axis, dtype=float)
    v2_axis = np.asarray(v2_axis, dtype=float)
    if grid is None:
        codes = sweep_codes(c, v3, v1_axis, v2_axis)[register == "M2"]
    else:
        codes = np.empty((len(v1_axis), len(v2_axis)), dtype=np.uint8)
        for i, row in enumerate(grid):
            for j, res in enumerate(row):
                if res.oscillated:
                    codes[i, j] = OSCILLATING_CODE
                else:
                    codes[i, j] = res.code_m1 if register == "M1" else res.code_m2
    return GateMap(v1_axis=v1_axis, v2_axis=v2_axis, v3=v3,
                   register=register, codes=codes)
