import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.logic import (GATE_NAMES, INPUT_PAIRS, OSCILLATING_CODE,
                           LogicCircuit, Phase, PhaseProgram,
                           canonical_program, classify, gate_code, relax_phase,
                           run_gate, run_sequence, solve_node)

from logic_oracle import sweep_grid, sweep_map, swap_inputs_code, truth_table

DEFAULT_DEVICE = derive_device_params(EmulatorParams())  # r_int=680


def circuit(r_common=220.0, device=DEFAULT_DEVICE):
    return LogicCircuit(m1=device, m2=device, r_common=r_common)


class TestSolveNode:
    def test_switch_closed_applies_sources_directly(self):
        v_n, v_m1, v_m2 = solve_node(circuit(), (False, True), 1.9, 1.9, -1.9,
                                     switch_closed=True)
        assert v_n == 0.0 and v_m1 == 1.9 and v_m2 == 1.9

    def test_symmetric_equal_sources(self):
        c = LogicCircuit(m1=DEFAULT_DEVICE, m2=DEFAULT_DEVICE, r_common=600.0)
        v_n, v_m1, v_m2 = solve_node(c, (False, False), 3.0, 3.0, 3.0,
                                     switch_closed=False)
        assert v_n == pytest.approx(3.0)
        assert v_m1 == pytest.approx(0.0) and v_m2 == pytest.approx(0.0)

    def test_hand_nodal_arithmetic(self):
        # both OFF (600), R=220, v1=v2=3, v3=-1.9:
        # v_n = (3/600 + 3/600 - 1.9/220) / (2/600 + 1/220) = 0.173077
        v_n, v_m1, v_m2 = solve_node(circuit(), (False, False), 3.0, 3.0, -1.9,
                                     switch_closed=False)
        assert v_n == pytest.approx(4950.0 / 28600.0, rel=1e-12)
        assert v_m1 == pytest.approx(3.0 - 4950.0 / 28600.0, rel=1e-12)
        assert v_m2 == v_m1

    def test_one_device_on(self):
        # M1 ON (600 || 680 = 1275/4), M2 OFF (600), R=220, v1=v2=3, v3=-1.9:
        # v_n = (12/1275 + 3/600 - 1.9/220) / (4/1275 + 1/600 + 1/220)
        #     = 648/1049
        v_n, v_m1, v_m2 = solve_node(circuit(), (True, False), 3.0, 3.0, -1.9,
                                     switch_closed=False)
        assert v_n == pytest.approx(648.0 / 1049.0, rel=1e-12)
        assert v_m1 == v_m2 == 3.0 - v_n


class TestCodes:
    def test_all_zero_and_all_one(self):
        assert gate_code({p: 0 for p in INPUT_PAIRS}) == 0
        assert gate_code({p: 1 for p in INPUT_PAIRS}) == 15

    def test_implication_codes(self):
        imp1 = {(a, b): int((not a) or b) for a, b in INPUT_PAIRS}
        assert gate_code(imp1) == 11
        imp2 = {(a, b): int((not b) or a) for a, b in INPUT_PAIRS}
        assert gate_code(imp2) == 13
        not_imp1 = {(a, b): int(not ((not a) or b)) for a, b in INPUT_PAIRS}
        assert gate_code(not_imp1) == 4
        not_imp2 = {(a, b): int(not ((not b) or a)) for a, b in INPUT_PAIRS}
        assert gate_code(not_imp2) == 2

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            gate_code({(0, 0): 1})

    def test_classify_named_gates(self):
        assert classify(11) == "IMP_1"
        assert classify(13) == "IMP_2"
        assert classify(4) == "NOT(IMP_1)"
        assert classify(2) == "NOT(IMP_2)"
        assert classify(0) == "FALSE" and classify(15) == "TRUE"

    def test_classify_out_of_range(self):
        for bad in (-1, 16, 255):
            with pytest.raises(ValueError):
                classify(bad)

    def test_all_16_functions_round_trip(self):
        # brute-force enumeration: every truth table -> code -> table
        seen = set()
        for bits in itertools.product((0, 1), repeat=4):
            finals = dict(zip(INPUT_PAIRS, bits))
            code = gate_code(finals)
            assert truth_table(code) == finals
            seen.add(classify(code))
        assert seen == set(GATE_NAMES) and len(seen) == 16

    def test_classify_matches_boolean_semantics(self):
        ops = {
            "AND": lambda a, b: a and b, "OR": lambda a, b: a or b,
            "XOR": lambda a, b: a != b, "NAND": lambda a, b: not (a and b),
            "NOR": lambda a, b: not (a or b), "XNOR": lambda a, b: a == b,
            "COPY(M1)": lambda a, b: a, "COPY(M2)": lambda a, b: b,
            "NOT(M1)": lambda a, b: not a, "NOT(M2)": lambda a, b: not b,
            "FALSE": lambda a, b: 0, "TRUE": lambda a, b: 1,
            "IMP_1": lambda a, b: (not a) or b,
            "IMP_2": lambda a, b: (not b) or a,
            "NOT(IMP_1)": lambda a, b: not ((not a) or b),
            "NOT(IMP_2)": lambda a, b: not ((not b) or a),
        }
        for name, fn in ops.items():
            code = gate_code({(a, b): int(bool(fn(a, b)))
                              for a, b in INPUT_PAIRS})
            assert classify(code) == name

    @given(code=st.integers(0, 15))
    def test_swap_inputs_is_involution(self, code):
        assert swap_inputs_code(swap_inputs_code(code)) == code
        swapped = truth_table(swap_inputs_code(code))
        assert swapped == {(a, b): truth_table(code)[(b, a)]
                           for a, b in INPUT_PAIRS}


class TestSequence:
    def test_initialisation_sets_inputs(self):
        # init then hold only: the hold phase must retain what init wrote
        prog = PhaseProgram(phases=(Phase(0.0, 0.0, 0.0, True, 10e-3),
                                    Phase(1.9, 1.9, 0.0, True, 10e-3)))
        for a, b in INPUT_PAIRS:
            s1, s2, osc = run_sequence(circuit(), prog, (a, b))
            assert (s1, s2) == (a, b) and not osc

    def test_trivial_calc_copies(self):
        # calculation phase identical to hold (switch stays closed)
        prog = PhaseProgram(phases=(
            Phase(0.0, 0.0, 0.0, True, 10e-3),
            Phase(1.9, 1.9, 0.0, True, 10e-3),
            Phase(1.9, 1.9, 0.0, True, 10e-3),
            Phase(1.9, 1.9, 0.0, True, 10e-3),
        ))
        res = run_gate(circuit(), prog)
        assert res.code_m1 == 12 and res.label_m1 == "COPY(M1)"
        assert res.code_m2 == 10 and res.label_m2 == "COPY(M2)"

    def test_hold_idempotent(self):
        hold = Phase(1.9, 1.9, 0.0, True, 10e-3)
        for states in itertools.product((False, True), repeat=2):
            s = states
            for _ in range(50):
                s, cycled = relax_phase(circuit(), s, hold)
                assert not cycled
            assert s == states

    def test_program_shape_validation(self):
        with pytest.raises(ValueError):
            PhaseProgram(phases=(Phase(0, 0, 0, False, 1e-2),
                                 Phase(0, 0, 0, True, 1e-2)))
        with pytest.raises(ValueError):
            PhaseProgram(phases=(Phase(0, 0, 0, True, -1.0),
                                 Phase(0, 0, 0, True, 1e-2)))

    def test_bad_inputs_rejected(self):
        prog = canonical_program(1.9, 1.9, 0.0)
        with pytest.raises(ValueError):
            run_sequence(circuit(), prog, (0, 2))

    def test_cycle_detected_with_unstable_parameters(self):
        # low-R_ON devices and a large common resistor: negative source
        # voltages against a positive v3 make the states alternate forever
        d = derive_device_params(EmulatorParams(r_int=100.0))
        c = LogicCircuit(m1=d, m2=d, r_common=500.0)
        phase = Phase(-2.0, -2.0, 5.0, False, 10e-3)
        _, cycled = relax_phase(c, (False, False), phase)
        assert cycled
        prog = PhaseProgram(phases=(Phase(0.0, 0.0, 0.0, True, 10e-3),
                                    Phase(1.9, 1.9, 0.0, True, 10e-3),
                                    phase,
                                    Phase(1.9, 1.9, 0.0, True, 10e-3)))
        _, _, osc = run_sequence(c, prog, (0, 0))
        assert osc

    def test_relaxation_terminates_quickly(self):
        prog = canonical_program(5.0, -1.0, -1.9)
        for pair in INPUT_PAIRS:
            run_sequence(circuit(), prog, pair)  # would raise/hang on failure


class TestSweep:
    def test_map_contains_implication_regions(self):
        axis = np.arange(-1.0, 6.0 + 1e-9, 0.2)
        grid = sweep_grid(circuit(), -1.9, axis, axis)
        m1 = sweep_map(circuit(), -1.9, axis, axis, "M1", grid=grid)
        m2 = sweep_map(circuit(), -1.9, axis, axis, "M2", grid=grid)
        assert (m2.codes == 11).any()  # IMP_1 stored in M2
        assert (m1.codes == 13).any()  # IMP_2 stored in M1

    def test_not_imp_region_at_minus_1_2(self):
        axis = np.arange(-1.0, 6.0 + 1e-9, 0.2)
        m1 = sweep_map(circuit(), -1.2, axis, axis, "M1")
        assert (m1.codes == 4).any()  # NOT(IMP_1)

    def test_diagonal_symmetry(self):
        axis = np.arange(-1.0, 6.0 + 1e-9, 0.5)
        grid = sweep_grid(circuit(), -1.9, axis, axis)
        m1 = sweep_map(circuit(), -1.9, axis, axis, "M1", grid=grid)
        m2 = sweep_map(circuit(), -1.9, axis, axis, "M2", grid=grid)
        for i in range(len(axis)):
            for j in range(len(axis)):
                a = int(m1.codes[i, j])
                b = int(m2.codes[j, i])
                if a == OSCILLATING_CODE or b == OSCILLATING_CODE:
                    assert a == b
                else:
                    assert a == swap_inputs_code(b)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid(circuit(), -1.9, [], [1.0])

    def test_bad_register(self):
        with pytest.raises(ValueError):
            sweep_map(circuit(), -1.9, [0.0], [0.0], register="M3")


def test_hold_level_must_be_bistable():
    with pytest.raises(ValueError):
        LogicCircuit(m1=DEFAULT_DEVICE, m2=DEFAULT_DEVICE, r_common=220.0,
                     v_hold_level=2.5)
    with pytest.raises(ValueError):
        LogicCircuit(m1=DEFAULT_DEVICE, m2=DEFAULT_DEVICE, r_common=220.0,
                     v_hold_level=1.0)
