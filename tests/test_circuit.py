import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltmem.circuit import (ResolutionError, SeriesCircuit, SourceWaveform,
                             digitize, run_transient, solve_series_divider)
from voltmem.device import EmulatorParams, derive_device_params

FIG2B_DEVICE = derive_device_params(EmulatorParams(r_int=220.0))  # r_on ~161


def fig2b_circuit(source):
    return SeriesCircuit(r1=680.0, device=FIG2B_DEVICE, source=source)


class TestDivider:
    def test_onset_level(self):
        v_m, i = solve_series_divider(680.0, 600.0, 4.693333333)
        assert v_m == pytest.approx(2.2, abs=1e-6)
        assert i == pytest.approx(4.693333333 / 1280.0)

    def test_no_series_resistor(self):
        v_m, _ = solve_series_divider(0.0, 600.0, 3.0)
        assert v_m == 3.0

    def test_on_state_collapse(self):
        v_m, _ = solve_series_divider(680.0, 600 * 220 / 820, 4.693333333)
        assert v_m == pytest.approx(0.898, abs=1e-3)

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            solve_series_divider(0.0, 0.0, 1.0)


class TestWaveforms:
    def test_constant(self):
        w = SourceWaveform(kind="constant", offset=5.0)
        assert w.value(0.0) == 5.0 and w.value(123.0) == 5.0

    def test_sawtooth_ramp(self):
        w = SourceWaveform(kind="sawtooth", amplitude=8.0, period=1.0)
        assert w.value(0.0) == 0.0
        assert w.value(0.5) == pytest.approx(4.0)
        assert w.value(1.25) == pytest.approx(2.0)

    def test_triangle_swings_both_polarities(self):
        w = SourceWaveform(kind="triangle", amplitude=4.0, period=1.0)
        assert w.value(0.25) == pytest.approx(4.0)
        assert w.value(0.5) == pytest.approx(0.0)
        assert w.value(0.75) == pytest.approx(-4.0)
        assert w.value(1.0) == pytest.approx(0.0)

    def test_triangle_near_float_max_stays_finite(self):
        # 4 * amplitude overflows, but the swing is scaled before amplitude
        w = SourceWaveform("triangle", amplitude=1e308, period=1.0)
        assert np.isfinite(w.value(np.arange(2001) / 2000)).all()

    def test_steps(self):
        w = SourceWaveform(kind="steps", offset=0.5,
                           steps=((1.0, 2.0), (2.0, 3.0)))
        assert w.value(0.0) == 0.5
        assert w.value(1.5) == 2.0
        assert w.value(10.0) == 3.0

    def test_step_times_must_increase(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="steps", steps=((2.0, 1.0), (1.0, 0.0)))

    def test_periodic_needs_period(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="sine", amplitude=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="squarewave")


def scalar_waveform(w, t):
    """Reference: the piecewise definition of `w` at one float time `t`."""
    if w.kind == "constant":
        return w.offset
    if w.kind == "steps":
        v = w.offset
        for time, val in w.steps:
            if t < time:
                break
            v = val
        return v
    frac = (t / w.period) % 1.0
    if w.kind == "sawtooth":
        return w.offset + w.amplitude * frac
    if w.kind == "sine":
        return w.offset + w.amplitude * np.sin(2.0 * np.pi * frac)
    if frac < 0.25:
        level = 4.0 * frac
    elif frac < 0.75:
        level = 2.0 - 4.0 * frac
    else:
        level = 4.0 * frac - 4.0
    return w.offset + w.amplitude * level


@st.composite
def waveforms_and_times(draw):
    """A waveform of any kind and times that include its step times and
    quarter-period boundaries."""
    real = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
    period = draw(st.floats(1e-4, 10.0))
    times = sorted(set(draw(st.lists(st.floats(0.0, 20.0), max_size=5))))
    w = SourceWaveform(
        draw(st.sampled_from(SourceWaveform._KINDS)), amplitude=draw(real),
        offset=draw(real), period=period,
        steps=tuple((time, draw(real)) for time in times))
    t = (draw(st.lists(st.floats(-50.0, 50.0), max_size=20)) + times
         + [k * period / 4.0 for k in range(9)])
    return w, np.array(t)


@settings(max_examples=300, deadline=None)
@given(waveforms_and_times())
def test_waveform_array_matches_scalar_reference(case):
    w, t = case
    got = w.value(t)
    assert got.shape == t.shape
    for want in ([scalar_waveform(w, x) for x in t.tolist()],
                 [w.value(x) for x in t.tolist()]):
        # bit for bit, so a flipped zero sign fails too
        np.testing.assert_array_equal(got.view(np.uint64),
                                      np.array(want, dtype=float).view(np.uint64))


class TestTransient:
    def test_below_threshold_stays_off(self):
        tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=1.0)),
                           dt=1e-4, t_end=0.02)
        assert not tr.conducting.any()
        assert tr.v_device[-1] == pytest.approx(1.0 * 600 / 1280, rel=1e-9)

    def test_constant_5v_oscillates(self):
        tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=5.0)),
                           dt=1e-4, t_end=0.05)
        switches = np.count_nonzero(tr.conducting[1:] != tr.conducting[:-1])
        assert switches >= 10

    def test_sawtooth_first_switch_near_onset(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        tr = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.05)
        first_on = np.argmax(tr.conducting)
        assert first_on > 0
        # device was held at threshold for t_actuate before the flip
        v_at_arming = tr.v_applied[first_on - 5]
        assert v_at_arming == pytest.approx(4.693, abs=0.05)

    def test_kirchhoff_consistency(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        tr = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.05)
        np.testing.assert_allclose(tr.v_applied,
                                   tr.current * 680.0 + tr.v_device, rtol=1e-9)

    def test_divider_bounds(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        tr = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.05)
        mask = tr.v_applied > 0
        ratio = tr.v_device[mask] / tr.v_applied[mask]
        assert ((ratio >= 0) & (ratio <= 1)).all()

    def test_determinism_bit_identical(self):
        src = SourceWaveform("constant", offset=5.0)
        a = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.02, seed=42)
        b = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.02, seed=42)
        assert (a.v_device == b.v_device).all()
        assert (a.conducting == b.conducting).all()

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            run_transient(fig2b_circuit(SourceWaveform("constant", offset=5.0)),
                          dt=1e-3, t_end=0.02)  # t_actuate/4 = 0.125 ms

    def test_grid_refinement_switch_time(self):
        src = SourceWaveform("constant", offset=5.0)
        coarse = run_transient(fig2b_circuit(src), dt=1e-4, t_end=0.01)
        fine = run_transient(fig2b_circuit(src), dt=0.5e-4, t_end=0.01)
        t_coarse = coarse.t[np.argmax(coarse.conducting)]
        t_fine = fine.t[np.argmax(fine.conducting)]
        assert abs(t_coarse - t_fine) <= 1e-4 + 1e-12

    def test_bad_grid_args(self):
        c = fig2b_circuit(SourceWaveform("constant", offset=1.0))
        with pytest.raises(ValueError):
            run_transient(c, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            run_transient(c, dt=1e-4, t_end=1e-5)


class TestDigitize:
    def test_constant_high(self):
        tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=8.0)),
                           dt=1e-4, t_end=0.01)
        # stays OFF only briefly; just check mapping against v_device directly
        out = digitize(tr, threshold=2.5, high=5.0, low=0.0)
        np.testing.assert_array_equal(out, np.where(tr.v_device > 2.5, 5.0, 0.0))

    def test_boundary_equality_maps_low(self):
        tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=1.0)),
                           dt=1e-4, t_end=0.01)
        out = digitize(tr, threshold=tr.v_device[0], high=5.0, low=0.0)
        assert (out == 0.0).all()

    def test_oscillating_trace_alternates(self):
        tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=5.0)),
                           dt=1e-4, t_end=0.05)
        out = digitize(tr, threshold=2.0, high=5.0, low=0.0)
        assert set(np.unique(out)) == {0.0, 5.0}


def test_csv_export_schema():
    tr = run_transient(fig2b_circuit(SourceWaveform("constant", offset=1.0)),
                       dt=1e-4, t_end=0.001)
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,v_applied,v_device,v_out,conducting,current"
    assert len(lines) == 1 + len(tr)
    assert lines[1].split(",")[4] == "0"
