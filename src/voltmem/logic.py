"""Two-memristor implication logic circuit: the phase program, its
relaxation kernel, gate codes and classification.

Topology: M1 connects source node V1 to a shared node N, M2 connects V2 to N;
N goes through the common resistor to source V3 and through switch S1 to
ground. With the switch closed the full source voltage sits across each
device; opening it engages V3 and lets the devices interact through N.

States are relaxed quasi-statically inside each phase: solve the one-node
network, apply the zero-delay threshold rule to both devices simultaneously,
repeat until a fixed point or a revisited state (cycle = would-be oscillation).

relax_program is the one kernel that `gate` and `map` run, for every (v1, v2)
point and input pair at once: init's 4-state transition table (_table) is
walked from OFF, then all 256 possible tables from its four states, and their
outcomes are packed once into three 0-15 codes per table (input pair (a, b) at
bit 2a+b): M1's and M2's gate codes and the cycled pairs. Each point gathers
them by its calc table. Both holds are the identity and are skipped, so a run
makes 8 solve_node calls and reads no phase duration. The scalar chain
_threshold_update -> relax_phase -> run_sequence -> run_gate is its oracle in
the tests and in perfbench/, which wraps run_gate and solve_node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from .device import DeviceParams, condition_holds

# reserved map code for cells whose relaxation cycles instead of settling
OSCILLATING_CODE = 255

GATE_NAMES = (
    "FALSE", "NOR", "NOT(IMP_2)", "NOT(M1)",
    "NOT(IMP_1)", "NOT(M2)", "XOR", "NAND",
    "AND", "XNOR", "COPY(M2)", "IMP_1",
    "COPY(M1)", "IMP_2", "OR", "TRUE",
)

INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# source voltage of the init phase for an input bit 0 / 1
INIT_LOW, INIT_HIGH = 0.0, 5.0


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
    input pair with INIT_LOW / INIT_HIGH.
    """

    phases: Tuple[Phase, ...]

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


def solve_node(c: LogicCircuit, states: Tuple[bool, bool], v1: float, v2: float,
               v3: float, switch_closed: bool) -> Tuple[float, float, float]:
    """Node voltage and per-device voltages of the shared-node network."""
    if switch_closed:
        return 0.0, v1, v2
    g1 = 1.0 / c.m1.r_on if states[0] else 1.0 / c.m1.r_off
    g2 = 1.0 / c.m2.r_on if states[1] else 1.0 / c.m2.r_off
    g3 = 1.0 / c.r_common
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


def run_sequence(c: LogicCircuit, prog: PhaseProgram,
                 inputs: Tuple[int, int]) -> Tuple[int, int, bool]:
    """Run the full phase program for one input pair; returns (s1, s2, oscillated)."""
    a, b = inputs
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"inputs must be bits, got {inputs}")

    init = replace(prog.phases[0], v1=INIT_HIGH if a else INIT_LOW,
                   v2=INIT_HIGH if b else INIT_LOW)
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


def run_gate(c: LogicCircuit, prog: PhaseProgram) -> GateResult:
    """Run all four input pairs and classify both result registers."""
    runs = {pair: run_sequence(c, prog, pair) for pair in INPUT_PAIRS}
    code1 = gate_code({pair: run[0] for pair, run in runs.items()})
    code2 = gate_code({pair: run[1] for pair, run in runs.items()})
    return GateResult(final_states={pair: run[:2] for pair, run in runs.items()},
                      code_m1=code1, code_m2=code2,
                      label_m1=classify(code1), label_m2=classify(code2),
                      oscillated=any(run[2] for run in runs.values()))


def _table(c: LogicCircuit, v1, v2, v3: float, switch_closed: bool):
    """uint8 transition table of one phase at every (v1, v2): bits 2k, 2k+1
    hold the state that state k = 2*s1 + s2 steps to under relax_phase's
    rule, from 4 solve_node and 8 condition_holds calls."""
    table = np.uint8(0)
    for k, states in enumerate(itertools.product((False, True), repeat=2)):
        _, v_m1, v_m2 = solve_node(c, states, v1, v2, v3, switch_closed)
        n1, n2 = (np.asarray(s ^ condition_holds(p, s, v, (0.0, 0.0)), np.uint8)
                  for p, s, v in zip((c.m1, c.m2), states, (v_m1, v_m2)))
        table = table | (n1 << 1 | n2) << 2 * k
    return table


def _walk(table, state):
    """relax_phase over broadcasting tables and states k: (final, cycled).
    A step onto a state in the 4-bit visited mask leaves an element in place,
    so after 3 steps it rests on the state before closure, and it cycled iff
    that is not a fixed point."""
    seen = np.uint8(1) << state
    for _ in range(3):
        nxt = table >> (state << 1) & 3
        state = np.where(seen >> nxt & 1, state, nxt)
        seen = seen | np.uint8(1) << nxt
    return state, table >> (state << 1) & 3 != state


def relax_program(c: LogicCircuit, v1, v2, v3: float
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate codes m1, m2 and the cycled mask of the canonical program at every
    (v1, v2): uint8 arrays of shape broadcast(v1, v2) whose bit k holds
    run_sequence's s1, s2 and oscillated for input pair k = 2a+b.
    LogicCircuit keeps v_hold_pos < v0 < v_th_pos, so no switching condition
    holds in either hold phase and both are skipped."""
    a, b = np.array(INPUT_PAIRS, dtype=bool).T
    state, cycled = _walk(_table(c, np.where(a, INIT_HIGH, INIT_LOW),
                                 np.where(b, INIT_HIGH, INIT_LOW), 0.0, True),
                          np.zeros(4, dtype=np.uint8))
    final, cyc = _walk(np.arange(256, dtype=np.uint8)[:, None], state)
    codes = np.packbits([final >= 2, final & 1, cycled | cyc], axis=-1,
                        bitorder="little")[..., 0]
    calc = _table(c, np.asarray(v1, dtype=float), np.asarray(v2, dtype=float),
                  v3, False)
    return tuple(code[calc] for code in codes)


def sweep_codes(c: LogicCircuit, v3: float, v1_axis, v2_axis
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Gate codes of both registers for every (v1, v2) grid cell at once.

    Returns two uint8 arrays of shape (len(v1_axis), len(v2_axis)), with
    OSCILLATING_CODE in both wherever any input pair cycled in any phase.
    """
    v1_axis = np.asarray(v1_axis, dtype=float)
    v2_axis = np.asarray(v2_axis, dtype=float)
    if len(v1_axis) == 0 or len(v2_axis) == 0:
        raise ValueError("sweep axes must be nonempty")
    *codes, cycled = relax_program(c, v1_axis[:, None], v2_axis[None, :], v3)
    return tuple(np.where(cycled > 0, np.uint8(OSCILLATING_CODE), m) for m in codes)
