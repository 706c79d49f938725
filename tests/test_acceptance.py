"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import time

import numpy as np
import pytest

from voltmem.circuit import SourceWaveform, run_transient
from voltmem.cli import main
from voltmem.device import EmulatorParams, derive_device_params, transition_frequency
from voltmem.logic import (INPUT_PAIRS, OSCILLATING_CODE, LogicCircuit,
                           _table, _walk, classify, gate_code, relax_program)
from voltmem.oscillation import (detect_oscillation, instability_lhs,
                                 is_unstable, onset_voltage)

from logic_oracle import swap_inputs_code, truth_table

DEFAULT_DEVICE = derive_device_params(EmulatorParams())


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def logic_circuit():
    return LogicCircuit(m1=DEFAULT_DEVICE, m2=DEFAULT_DEVICE, r_common=220.0)


@pytest.fixture(scope="module")
def axis_01():
    return np.round(np.arange(-1.0, 6.0 + 1e-9, 0.1), 10)


@pytest.fixture(scope="module")
def codes_v3_19(logic_circuit, axis_01):
    """code_m1 and code_m2 maps of the kernel that `map` runs, OSCILLATING_CODE
    in both where any input pair cycled, and its time."""
    t0 = time.time()
    *codes, cycled = relax_program(logic_circuit)[:, _table(
        logic_circuit, axis_01[:, None], axis_01[None, :], -1.9, False)]
    codes = [np.where(cycled > 0, OSCILLATING_CODE, m) for m in codes]
    return codes, time.time() - t0


def test_criterion_1_hysteresis(tmp_path):
    t0 = time.time()
    out = tmp_path / "iv.csv"
    assert main(["iv", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("v,")]
    step = 4.0 * 4.0 / 2000.0 + 1e-12
    v_on = [float(r[0]) for p, r in zip(rows, rows[1:])
            if p[2] == "0" and r[2] == "1" and float(r[0]) > 0]
    v_off = [float(r[0]) for p, r in zip(rows, rows[1:])
             if p[2] == "1" and r[2] == "0" and float(r[0]) > 0]
    elapsed = time.time() - t0
    ok = (len(v_on) == 1 and abs(v_on[0] - 2.2) <= step
          and len(v_off) == 1 and abs(v_off[0] - 1.6) <= step
          and elapsed < 1.0)
    report(1, ok, f"OFF->ON at {v_on[0]:.4f} V, ON->OFF at {v_off[0]:.4f} V "
                  f"(tolerance {step:.4f} V), {elapsed:.2f} s")


def test_criterion_2_oscillation_onset():
    t0 = time.time()
    d = derive_device_params(EmulatorParams(r_int=220.0))
    onset = onset_voltage(d, 680.0)
    lhs = instability_lhs(d, 680.0)
    unstable = is_unstable(d, 680.0)
    rep = detect_oscillation(run_transient(
        680.0, d, SourceWaveform("constant", offset=5.0), dt=1e-4, t_end=0.05))
    elapsed = time.time() - t0
    ok = (abs(onset - 4.693333) <= 0.001 and abs(lhs - 0.8984) < 1e-3
          and unstable and rep.oscillating and elapsed < 5.0)
    report(2, ok, f"onset {onset:.4f} V, lhs {lhs:.4f} V < 1.6, "
                  f"transient oscillating={rep.oscillating}, {elapsed:.2f} s")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    checked = agreed = 0
    for r_int in np.linspace(100.0, 2000.0, 20):
        for r1 in np.linspace(500.0, 1500.0, 15):
            d = derive_device_params(EmulatorParams(r_int=float(r_int)))
            lhs = instability_lhs(d, r1)
            if abs(lhs - d.v_hold_pos) / d.v_hold_pos < 0.05:
                continue  # boundary band: delay/grid dependent
            v = onset_voltage(d, r1) + 0.2
            rep = detect_oscillation(run_transient(
                float(r1), d, SourceWaveform("constant", offset=v), dt=1e-4, t_end=0.02))
            checked += 1
            agreed += int(rep.oscillating == is_unstable(d, r1))
    elapsed = time.time() - t0
    ok = checked >= 200 and agreed == checked and elapsed < 120.0
    report(3, ok, f"{agreed}/{checked} grid points agree, {elapsed:.1f} s")


def test_criterion_4_gate_realization(logic_circuit, axis_01, codes_v3_19):
    (m1, m2), t_19 = codes_v3_19
    n_imp1 = int((m2 == 11).sum())
    n_imp2 = int((m1 == 13).sum())
    t0 = time.time()
    m1_12, _, cycled_12 = relax_program(logic_circuit)[:, _table(
        logic_circuit, axis_01[:, None], axis_01[None, :], -1.2, False)]
    t_12 = time.time() - t0
    n_not_imp1 = int(((m1_12 == 4) & (cycled_12 == 0)).sum())
    ok = (n_imp1 > 0 and n_imp2 > 0 and n_not_imp1 > 0
          and t_19 < 120.0 and t_12 < 120.0)
    report(4, ok, f"V3=-1.9: IMP_1 cells={n_imp1}, IMP_2 cells={n_imp2} "
                  f"({t_19:.1f} s); V3=-1.2: NOT(IMP_1) cells={n_not_imp1} "
                  f"({t_12:.1f} s)")


def test_criterion_5_diagonal_symmetry(axis_01, codes_v3_19):
    (m1, m2), _ = codes_v3_19
    mismatches = 0
    n = len(axis_01)
    for i in range(n):
        for j in range(n):
            a, b = int(m1[i, j]), int(m2[j, i])
            if a == OSCILLATING_CODE or b == OSCILLATING_CODE:
                mismatches += int(a != b)
            else:
                mismatches += int(a != swap_inputs_code(b))
    report(5, mismatches == 0,
           f"{mismatches} mismatches over {n * n} cells")


def test_criterion_6_code_classification_oracle():
    names = set()
    ok = True
    for bits in itertools.product((0, 1), repeat=4):
        finals = dict(zip(INPUT_PAIRS, bits))
        code = gate_code(finals)
        ok = ok and truth_table(code) == finals
        names.add(classify(code))
    fundamental = {classify(c) for c in (11, 13, 4, 2)}
    ok = ok and len(names) == 16 and fundamental == {
        "IMP_1", "IMP_2", "NOT(IMP_1)", "NOT(IMP_2)"}
    report(6, ok, f"16 functions round-trip; fundamental gates "
                  f"{sorted(fundamental)}")


def test_criterion_7_bistable_hold(logic_circuit):
    # the kernel walks all four states k = 2*s1 + s2 at once through the
    # hold phase's transition table
    hold = _table(logic_circuit, 1.9, 1.9, 0.0, switch_closed=True)
    init = np.arange(4, dtype=np.uint8)
    state = init
    ok = True
    for _ in range(10_000):
        state, cycled = _walk(hold, state)
        if cycled.any() or (state != init).any():
            ok = False
            break
    report(7, ok, "10^4 hold relaxations preserve all four state pairs")


def test_criterion_8_transition_frequency():
    nu = transition_frequency(EmulatorParams(r_coil=600.0, l_coil=0.17))
    ok = abs(nu - 561.7) <= 0.1
    report(8, ok, f"transition frequency {nu:.4f} Hz (expected 561.7 +/- 0.1)")


def test_criterion_9_determinism(tmp_path):
    configs = {
        "iv": {},
        "transient": {"emulator": {"r_int": 220.0},
                      "source": {"kind": "constant", "offset": 5.0},
                      "circuit": {"t_end": 0.02}, "digitize": {}},
        "osc-check": {"sweep": {"param": "r1", "values": [220.0, 680.0]}},
        "gate": {"circuit": {"v1": 1.0, "v2": 5.0, "v3": -1.9}},
        "map": {"sweep": {"v1": [0.0, 3.0, 0.5], "v2": [0.0, 3.0, 0.5],
                          "v3": -1.9}},
    }
    ok = True
    for verb, doc in configs.items():
        cfg_path = tmp_path / f"{verb}.json"
        cfg_path.write_text(json.dumps(doc))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{verb}-{run}.out"
            assert main([verb, "--config", str(cfg_path), "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    report(9, ok, "all five verbs byte-identical on re-run with same seed")
