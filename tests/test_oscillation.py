import numpy as np
import pytest
from hypothesis import given, strategies as st

from voltmem.circuit import SourceWaveform, Trace, run_transient
from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.oscillation import (detect_oscillation, instability_lhs,
                                 is_unstable, onset_voltage)


def device(r_on=160.97560975609755, r_off=600.0):
    return DeviceParams(r_on=r_on, r_off=r_off, v_th_pos=2.2, v_hold_pos=1.6,
                        v_th_neg=-2.2, v_hold_neg=-1.6, t_actuate=0.5e-3)


def square_trace(period_samples, n, dt):
    conducting = (np.arange(n) // (period_samples // 2)) % 2 == 1
    return Trace(dt=dt, conducting=conducting)


class TestClosedForm:
    def test_onset_reference_values(self):
        assert onset_voltage(device(), 680.0) == pytest.approx(4.6933, abs=1e-3)
        assert onset_voltage(device(), 0.0) == pytest.approx(2.2)
        assert onset_voltage(device(), 600.0) == pytest.approx(4.4)

    def test_onset_increasing_in_r1(self):
        vals = [onset_voltage(device(), r1) for r1 in np.linspace(0, 2000, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unstable_reference_circuit(self):
        d = device()
        assert instability_lhs(d, 680.0) == pytest.approx(0.8984, abs=1e-3)
        assert is_unstable(d, 680.0)

    def test_stable_when_on_equals_off(self):
        d = device(r_on=599.9999, r_off=600.0)
        assert not is_unstable(d, 680.0)

    def test_smaller_common_resistor_suppresses(self):
        d = device(r_on=318.75)
        assert instability_lhs(d, 220.0) == pytest.approx(1.779, abs=1e-3)
        assert not is_unstable(d, 220.0)

    @given(r_on_lo=st.floats(10.0, 590.0), r_on_hi=st.floats(10.0, 590.0),
           r1=st.floats(0.0, 5000.0))
    def test_monotone_in_r_on(self, r_on_lo, r_on_hi, r1):
        lo, hi = sorted((r_on_lo, r_on_hi))
        # decreasing r_on never turns an unstable circuit stable
        if is_unstable(device(r_on=hi), r1):
            assert is_unstable(device(r_on=lo), r1)


class TestDetect:
    def test_constant_state_not_oscillating(self):
        rep = detect_oscillation(square_trace(10**9, 1000, 1e-4))
        assert not rep.oscillating
        assert rep.transition_count == 0
        assert rep.frequency_estimate is None and rep.duty_cycle is None

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            detect_oscillation(square_trace(2, 0, 1e-4))

    def test_square_wave_frequency_and_duty(self):
        # 2 ms period on a 0.1 ms grid
        rep = detect_oscillation(square_trace(20, 4000, 1e-4))
        assert rep.oscillating
        assert rep.frequency_estimate == pytest.approx(500.0, rel=0.01)
        assert rep.duty_cycle == pytest.approx(0.5, abs=0.01)

    def test_simulated_5v_oscillates(self):
        rep = detect_oscillation(run_transient(
            680.0, device(), SourceWaveform("constant", offset=5.0), dt=1e-4, t_end=0.05))
        assert rep.oscillating
        # one switch per actuation delay: period 2 * 0.5 ms -> 1 kHz
        assert rep.frequency_estimate == pytest.approx(1000.0, rel=0.05)

    def test_single_switch_event_not_oscillation(self):
        d = device(r_on=318.75)
        rep = detect_oscillation(run_transient(
            220.0, d, SourceWaveform("constant", offset=5.0), dt=1e-4, t_end=0.05))
        assert not rep.oscillating


def test_oracle_equivalence_small_grid():
    # closed-form prediction vs transient detection away from the boundary
    checked = 0
    for r_int in np.linspace(150, 1500, 6):
        for r1 in np.linspace(500, 1400, 6):
            d = derive_device_params(EmulatorParams(r_int=float(r_int)))
            if abs(instability_lhs(d, r1) - d.v_hold_pos) / d.v_hold_pos < 0.05:
                continue
            v = onset_voltage(d, r1) + 0.2
            rep = detect_oscillation(run_transient(
                float(r1), d, SourceWaveform("constant", offset=v), dt=1e-4, t_end=0.02))
            assert rep.oscillating == is_unstable(d, r1), (r_int, r1)
            checked += 1
    assert checked >= 20
