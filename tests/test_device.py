import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peak_memory import traced_peak
from transient_oracle import device_resistance
from voltmem.circuit import SourceWaveform
from voltmem.device import (DeviceParams, DeviceState, EmulatorParams,
                            coil_impedance, derive_device_params, jitter_pairs,
                            step_device, transition_frequency)
from voltmem.logic import LogicCircuit, canonical_program


def make_device(t_actuate=0.0, jitter=0.0):
    return DeviceParams(r_on=318.75, r_off=600.0, v_th_pos=2.2,
                        v_hold_pos=1.6, v_th_neg=-2.2, v_hold_neg=-1.6,
                        t_actuate=t_actuate, jitter_sigma=jitter)


class TestDeriveParams:
    def test_reference_emulator(self):
        d = derive_device_params(EmulatorParams(r_coil=600, r_int=680,
                                                v_pull_in=2.2, v_drop_out=1.6))
        assert d.r_off == 600.0
        assert d.r_on == pytest.approx(318.75)
        assert d.v_th_pos == 2.2 and d.v_hold_pos == 1.6
        # mirrored negative polarity by default
        assert d.v_th_neg == -2.2 and d.v_hold_neg == -1.6

    def test_small_internal_resistor(self):
        d = derive_device_params(EmulatorParams(r_int=220.0))
        assert d.r_on == pytest.approx(600 * 220 / 820)  # ~160.98

    def test_large_internal_resistor_limit(self):
        d = derive_device_params(EmulatorParams(r_int=1e12))
        assert d.r_on == pytest.approx(600.0, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EmulatorParams(r_int=-5.0)
        with pytest.raises(ValueError):
            EmulatorParams(r_coil=0.0)

    @given(r_int=st.floats(1.0, 1e6), r_coil=st.floats(1.0, 1e6))
    def test_r_on_strictly_below_r_off(self, r_int, r_coil):
        d = derive_device_params(EmulatorParams(r_coil=r_coil, r_int=r_int))
        assert d.r_on < d.r_off


class TestCoil:
    def test_dc_limit(self):
        assert coil_impedance(EmulatorParams(), 0.0) == 600.0

    def test_transition_frequency_value(self):
        nu = transition_frequency(EmulatorParams(r_coil=600, l_coil=0.17))
        assert nu == pytest.approx(561.723, abs=0.01)

    def test_transition_frequency_linear_in_r(self):
        assert transition_frequency(EmulatorParams(r_coil=1200, l_coil=0.17)) \
            == pytest.approx(1123.45, abs=0.02)

    def test_impedance_at_transition_frequency(self):
        e = EmulatorParams()
        z = coil_impedance(e, transition_frequency(e))
        assert z == pytest.approx(math.sqrt(2) * e.r_coil, rel=1e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="freq"):
            coil_impedance(EmulatorParams(), -1.0)

    def test_inductive_regime(self):
        z = coil_impedance(EmulatorParams(), 5617.0)
        assert z == pytest.approx(math.hypot(600, 2 * math.pi * 5617 * 0.17),
                                  rel=1e-12)
        assert z > 6000


class TestStepDevice:
    def test_immediate_switch_above_threshold(self):
        d = make_device()
        s = step_device(d, DeviceState(False), 2.3, 1e-4)
        assert s.conducting

    def test_bistable_region_retains_state(self):
        d = make_device()
        assert step_device(d, DeviceState(True), 1.9, 1e-4).conducting
        assert not step_device(d, DeviceState(False), 1.9, 1e-4).conducting

    def test_drop_out_below_hold(self):
        d = make_device()
        assert not step_device(d, DeviceState(True), 1.5, 1e-4).conducting

    def test_negative_polarity_switching(self):
        d = make_device()
        assert step_device(d, DeviceState(False), -2.3, 1e-4).conducting
        assert step_device(d, DeviceState(True), -1.9, 1e-4).conducting

    def test_actuation_delay_accumulates(self):
        d = make_device(t_actuate=1e-3)
        s = DeviceState(False)
        s = step_device(d, s, 2.3, 0.4e-3)
        assert not s.conducting and s.pending_elapsed == pytest.approx(0.4e-3)
        s = step_device(d, s, 2.3, 0.4e-3)
        assert not s.conducting and s.pending_elapsed == pytest.approx(0.8e-3)
        s = step_device(d, s, 2.3, 0.4e-3)
        assert s.conducting and s.pending_target is None

    def test_condition_dropout_resets_accumulator(self):
        d = make_device(t_actuate=1e-3)
        s = step_device(d, DeviceState(False), 2.3, 0.4e-3)
        s = step_device(d, s, 1.9, 0.4e-3)  # back inside bistable window
        assert s.pending_target is None and s.pending_elapsed == 0.0
        s = step_device(d, s, 2.3, 0.4e-3)
        assert s.pending_elapsed == pytest.approx(0.4e-3)

    def test_nan_voltage_rejected(self):
        with pytest.raises(ValueError):
            step_device(make_device(), DeviceState(False), float("nan"), 1e-4)
        with pytest.raises(ValueError):
            step_device(make_device(), DeviceState(False), float("inf"), 1e-4)

    def test_nonpositive_dt_rejected(self):
        for dt in (0.0, -1e-4):
            with pytest.raises(ValueError, match="dt"):
                step_device(make_device(), DeviceState(False), 2.3, dt)

    def test_jitter_requires_rng(self):
        d = make_device(jitter=0.1)
        with pytest.raises(ValueError):
            step_device(d, DeviceState(False), 2.3, 1e-4)

    def test_jitter_moves_threshold(self):
        d = make_device(jitter=0.5)
        rng = np.random.default_rng(1)
        flips = [step_device(d, DeviceState(False), 2.25, 1e-4, rng).conducting
                 for _ in range(200)]
        assert any(flips) and not all(flips)

    def test_deterministic_without_jitter(self):
        d = make_device(t_actuate=1e-3)
        a = step_device(d, DeviceState(False), 2.3, 0.3e-3)
        b = step_device(d, DeviceState(False), 2.3, 0.3e-3)
        assert a == b

    @given(v=st.floats(1.6001, 2.1999))
    def test_bistability_property(self, v):
        d = make_device()
        for state in (DeviceState(False), DeviceState(True)):
            assert step_device(d, state, v, 1e-3) == state

    def test_quasistatic_sweep_flips_exactly_once_each_way(self):
        d = make_device()
        up = np.arange(0.0, 4.0, 0.01)
        s = DeviceState(False)
        flips_up = []
        for v in up:
            nxt = step_device(d, s, v, 1e-3)
            if nxt.conducting != s.conducting:
                flips_up.append(v)
            s = nxt
        assert len(flips_up) == 1
        assert flips_up[0] == pytest.approx(2.21, abs=1e-9)  # first sample > 2.2
        flips_down = []
        for v in up[::-1]:
            nxt = step_device(d, s, v, 1e-3)
            if nxt.conducting != s.conducting:
                flips_down.append(v)
            s = nxt
        assert len(flips_down) == 1
        assert flips_down[0] == pytest.approx(1.59, abs=1e-9)  # first sample < 1.6


# reads as the onset search makes them: each starts at or after the last
# one's start (a search restarts at its onset pair) and skips no pair
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), sigma=st.sampled_from([0.0, 0.05, 1.0]),
       batch=st.integers(1, 100),
       reads=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 150)), max_size=25))
def test_jitter_pairs_read_step_device_draws(seed, sigma, batch, reads):
    pairs = jitter_pairs(make_device(jitter=sigma), seed, batch)
    rng = np.random.default_rng(seed)
    want = [(rng.normal(0.0, sigma), rng.normal(0.0, sigma)) for _ in range(25 * 150)]
    start = end = 0
    for back, size in reads:
        start += int(back * (end - start))  # anywhere from the last start to the end
        d1, d2 = pairs(start, start + size)
        if sigma == 0:
            assert (d1, d2) == (0.0, 0.0)
        else:
            assert list(zip(d1.tolist(), d2.tolist())) == want[start:start + size]
        end = max(end, start + size)


def test_jitter_pairs_keep_no_passed_pair():
    """2M pairs read in 64-pair blocks hold about one batch at a time."""
    def read(pairs, n):
        for a in range(0, n, 64):
            pairs(a, a + 64)

    _, peak = traced_peak(read, jitter_pairs(make_device(jitter=0.05), 7, 2**14), 2_000_000)
    assert peak < 1 << 20, peak


def test_device_resistance():
    d = make_device()
    assert device_resistance(d, DeviceState(False)) == 600.0
    assert device_resistance(d, DeviceState(True)) == 318.75


def test_invariant_validation():
    with pytest.raises(ValueError):
        make_device(t_actuate=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(r_on=700, r_off=600, v_th_pos=2.2, v_hold_pos=1.6,
                     v_th_neg=-2.2, v_hold_neg=-1.6)
    with pytest.raises(ValueError):
        DeviceParams(r_on=300, r_off=600, v_th_pos=1.6, v_hold_pos=2.2,
                     v_th_neg=-2.2, v_hold_neg=-1.6)
    with pytest.raises(ValueError):
        DeviceParams(r_on=300, r_off=600, v_th_pos=2.2, v_hold_pos=1.6,
                     v_th_neg=-1.6, v_hold_neg=-2.2)


_PROGRAM = canonical_program(4.0, 1.0, -1.9)


@pytest.mark.parametrize("record, field, bad", [
    (make_device(), "r_on", 700.0),  # above r_off = 600
    (EmulatorParams(), "r_int", -5.0),
    (LogicCircuit(make_device(), make_device()), "v_hold_level", 2.5),
    (_PROGRAM, "phases", tuple(ph._replace(duration=-1.0) for ph in _PROGRAM.phases)),
    (SourceWaveform("sawtooth", period=0.05), "kind", "squarewave"),
    (make_device(), "jitter_sigma", -0.1),
    (EmulatorParams(), "v_drop_out", 2.5),  # above v_pull_in = 2.2
], ids=lambda x: type(x).__name__ if hasattr(x, "_fields") else None)
def test_every_construction_checks(record, field, bad):
    """_replace and _make reject what the constructor rejects; a copy and a
    pickle round trip of a valid record are equal to it."""
    fields = [bad if name == field else val
              for name, val in zip(record._fields, record)]
    with pytest.raises(ValueError):
        type(record)(*fields)
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(record)._make(fields)
    for same in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(same) is type(record) and same == record
