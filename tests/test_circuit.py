import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voltmem.circuit import (ResolutionError, SourceWaveform, _phase_grid, run_transient,
                             solve_series_divider)
from voltmem.device import EmulatorParams, derive_device_params

FIG2B_DEVICE = derive_device_params(EmulatorParams(r_int=220.0))  # r_on ~161


# %.9g keeps 9 significant digits: a printed value is within 5e-9 of its own
PRINT_RTOL = 2e-8


def fig2b_transient(source, **grid):
    return run_transient(680.0, FIG2B_DEVICE, source, **grid)


def csv_text(tr, source, digitize=None):
    """What to_csv writes for a fig2b_transient across `source`."""
    buf = io.StringIO()
    tr.to_csv(buf, source, 680.0, FIG2B_DEVICE, digitize)
    return buf.getvalue()


def columns(tr, source, digitize=None):
    """The CSV columns, by name, that to_csv writes for a fig2b_transient
    across `source`."""
    names, *rows = csv_text(tr, source, digitize).splitlines()
    return dict(zip(names.split(","),
                    np.array([row.split(",") for row in rows], dtype=float).T))


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

    # as Trace.to_csv solves a chunk, each row in its own state; a config may
    # give the resistances as ints
    @pytest.mark.parametrize("r1", [0.0, 0, 680.0])
    @pytest.mark.parametrize("r_on", [600 * 220 / 820, 161])
    def test_per_row_resistance_is_each_rows_scalar_solve(self, r1, r_on):
        on = np.array([True, False, False, True, False])
        r_m = np.where(on, r_on, 600)
        v = np.array([4.693333333, -0.0, 1e-12, -7.5, 1e12])
        v_m, i = solve_series_divider(r1, r_m, v)
        rows = [solve_series_divider(r1, r, x) for r, x in zip(r_m.tolist(), v)]
        np.testing.assert_array_equal(v_m.view(np.uint64),
                                      np.array([row[0] for row in rows]).view(np.uint64))
        np.testing.assert_array_equal(i.view(np.uint64),
                                      np.array([row[1] for row in rows]).view(np.uint64))

    def test_rejects_one_non_positive_row(self):
        with pytest.raises(ValueError, match="must be positive"):
            solve_series_divider(0.0, np.array([600.0, 0.0, 1000.0]), np.ones(3))


class TestWaveforms:
    def test_constant(self):
        w = SourceWaveform(kind="constant", offset=5.0)
        assert w.value(0, 1e-3) == 5.0 and w.value(123000, 1e-3) == 5.0

    def test_sawtooth_ramp(self):
        w = SourceWaveform(kind="sawtooth", amplitude=8.0, period=1.0)
        assert w.value(0, 0.25) == 0.0
        assert w.value(2, 0.25) == 4.0
        assert w.value(5, 0.25) == 2.0

    def test_triangle_swings_both_polarities(self):
        w = SourceWaveform(kind="triangle", amplitude=4.0, period=1.0)
        assert w.value([1, 2, 3, 4], 0.25).tolist() == [4.0, 0.0, -4.0, 0.0]

    def test_triangle_near_float_max_stays_finite(self):
        # 4 * amplitude overflows, but the swing is scaled before amplitude
        w = SourceWaveform("triangle", amplitude=1e308, period=1.0)
        assert np.isfinite(w.value(np.arange(2001), 0.0005)).all()

    def test_steps(self):
        w = SourceWaveform(kind="steps", offset=0.5,
                           steps=((1.0, 2.0), (2.0, 3.0)))
        assert w.value(0, 0.5) == 0.5
        assert w.value(3, 0.5) == 2.0
        assert w.value(20, 0.5) == 3.0

    def test_step_times_must_increase(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="steps", steps=((2.0, 1.0), (1.0, 0.0)))

    def test_periodic_needs_period(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="sine", amplitude=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceWaveform(kind="squarewave")


def decimal_exponent(x: Fraction) -> int:
    """The largest e for which x / 10**e is an integer (x > 0)."""
    e = 0
    while (x / Fraction(10) ** e).denominator != 1:
        e -= 1
    while (x / Fraction(10) ** (e + 1)).denominator == 1:
        e += 1
    return e


def reference_phase(k: int, dt: float, period: float) -> float:
    """Reference: the phase of sample k, (k * dt mod period) / period of the
    decimals that repr writes, rounded once, where both are integers below
    2**53 at their least common power of ten; elsewhere the doubles of
    frac(k * dt / period)."""
    exact = [Fraction(repr(x)) for x in (dt, period)]
    scale = Fraction(10) ** min(map(decimal_exponent, exact))
    dt_i, period_i = (x / scale for x in exact)
    if max(dt_i, period_i) < 2**53:
        return float(k * dt_i % period_i / period_i)
    x = k * dt / period
    return x - math.floor(x)


def scalar_waveform(w, k, dt):
    """Reference: the piecewise definition of `w` at one sample k of step dt."""
    if w.kind == "constant":
        return w.offset
    if w.kind == "steps":
        v = w.offset
        for time, val in w.steps:
            if k * dt < time:
                break
            v = val
        return v
    frac = reference_phase(k, dt, w.period)
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


# steps and periods written as short decimals, whose phase is exact, and any
# double, whose repr mostly is not
DECIMALS = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 10**6),
                     st.integers(-9, 2))
STEPS = DECIMALS | st.floats(1e-6, 10.0)


@st.composite
def waveforms_and_samples(draw):
    """A waveform of any kind, a sample step, and samples that include its
    step times and quarter-period boundaries."""
    real = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
    period, dt = draw(STEPS), draw(STEPS)
    times = sorted(set(draw(st.lists(st.floats(0.0, 20.0), max_size=5))))
    w = SourceWaveform(
        draw(st.sampled_from(SourceWaveform._KINDS)), amplitude=draw(real),
        offset=draw(real), period=period,
        steps=tuple((time, draw(real)) for time in times))
    k = (draw(st.lists(st.integers(0, 10**9), max_size=20))
         + [round(x / dt) for x in times + [q * period / 4.0 for q in range(9)]])
    return w, dt, np.array(k, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(waveforms_and_samples())
def test_waveform_array_matches_scalar_reference(case):
    w, dt, k = case
    got = w.value(k, dt)
    assert got.shape == k.shape
    for want in ([scalar_waveform(w, x, dt) for x in k.tolist()],
                 [w.value(x, dt) for x in k.tolist()]):
        # bit for bit, so a flipped zero sign fails too
        np.testing.assert_array_equal(got.view(np.uint64),
                                      np.array(want, dtype=float).view(np.uint64))


# periods whose least integer at the common power of ten lies on either side
# of 2**53; at dt = 4097 the phase index's product overflows int64
NEAR_2_53 = st.integers(2**53 - 3, 2**53 + 3).map(float)


@settings(max_examples=300, deadline=None)
@given(dt=STEPS | st.sampled_from([1.0, 0.5, 3.0, 4097.0]),
       period=STEPS | NEAR_2_53 | NEAR_2_53.map(lambda x: x / 1e6),
       k=st.lists(st.integers(0, 2**53), min_size=1, max_size=20))
@example(dt=1.0, period=float(2**53 - 1), k=[2**53 - 2, 2**52, 3])
@example(dt=1.0, period=float(2**53), k=[2**53 - 2, 2**52, 3])
@example(dt=4097.0, period=float(2**52 + 1), k=[2**52, 2**40 + 7, 1])
def test_phase_matches_fraction(dt, period, k):
    w = SourceWaveform("sawtooth", amplitude=1.0, period=period)
    got = w.value(np.array(k, dtype=np.int64), dt).tolist()
    assert got == [reference_phase(x, dt, period) for x in k]


@pytest.mark.parametrize("dt, period, exact", [
    (1.0, float(2**53 - 1), True), (1.0, float(2**53), False),
    (0.5, float(2**53 - 1), False), (1e-5, 0.05, True), (1e-5, 1 / 3, True),
    (1e-5, 1 / 7, False), (1.0, 1e300, False), (1e-300, 1.0, False), (0.1, 1e14, True)])
def test_phase_is_exact_below_2_53(dt, period, exact):
    assert (_phase_grid(dt, period) is not None) == exact


def test_sample_on_a_period_boundary_is_at_phase_0():
    # frac(t / period) put t = 0.15 just below phase 1: 0.15 / 0.05 is 2.9999999999999996
    w = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
    assert w.value(1500, 1e-4) == 0.0
    assert w.value(np.arange(0, 200001, 5000), 1e-5).tolist() == [0.0] * 41


class TestTransient:
    def test_below_threshold_stays_off(self):
        src = SourceWaveform("constant", offset=1.0)
        tr = fig2b_transient(src, dt=1e-4, t_end=0.02)
        assert not tr.conducting.any()
        assert columns(tr, src)["v_device"][-1] == pytest.approx(1.0 * 600 / 1280, rel=1e-9)

    def test_constant_5v_oscillates(self):
        tr = fig2b_transient(SourceWaveform("constant", offset=5.0),
                             dt=1e-4, t_end=0.05)
        switches = np.count_nonzero(tr.conducting[1:] != tr.conducting[:-1])
        assert switches >= 10

    def test_sawtooth_first_switch_near_onset(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        tr = fig2b_transient(src, dt=1e-4, t_end=0.05)
        first_on = np.argmax(tr.conducting)
        assert first_on > 0
        # device was held at threshold for t_actuate before the flip
        v_at_arming = src.value(first_on - 5, tr.dt)
        assert v_at_arming == pytest.approx(4.693, abs=0.05)

    def test_kirchhoff_consistency(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        col = columns(fig2b_transient(src, dt=1e-4, t_end=0.05), src)
        np.testing.assert_allclose(col["v_applied"],
                                   col["current"] * 680.0 + col["v_device"],
                                   rtol=PRINT_RTOL)

    def test_divider_bounds(self):
        src = SourceWaveform("sawtooth", amplitude=8.0, period=0.05)
        col = columns(fig2b_transient(src, dt=1e-4, t_end=0.05), src)
        mask = col["v_applied"] > 0
        ratio = col["v_device"][mask] / col["v_applied"][mask]
        assert ((ratio >= 0) & (ratio <= 1)).all()

    def test_determinism_bit_identical(self):
        src = SourceWaveform("constant", offset=5.0)
        a = fig2b_transient(src, dt=1e-4, t_end=0.02, seed=42)
        b = fig2b_transient(src, dt=1e-4, t_end=0.02, seed=42)
        assert (a.conducting == b.conducting).all()
        assert csv_text(a, src) == csv_text(b, src)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            fig2b_transient(SourceWaveform("constant", offset=5.0),
                            dt=1e-3, t_end=0.02)  # t_actuate/4 = 0.125 ms

    def test_grid_refinement_switch_time(self):
        src = SourceWaveform("constant", offset=5.0)
        coarse = fig2b_transient(src, dt=1e-4, t_end=0.01)
        fine = fig2b_transient(src, dt=0.5e-4, t_end=0.01)
        t_coarse = np.argmax(coarse.conducting) * coarse.dt
        t_fine = np.argmax(fine.conducting) * fine.dt
        assert abs(t_coarse - t_fine) <= 1e-4 + 1e-12

    def test_bad_grid_args(self):
        src = SourceWaveform("constant", offset=1.0)
        with pytest.raises(ValueError):
            fig2b_transient(src, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            fig2b_transient(src, dt=1e-4, t_end=1e-5)
        with pytest.raises(ValueError, match="r1"):
            run_transient(-1.0, FIG2B_DEVICE, src, dt=1e-4, t_end=0.01)

    def test_non_finite_device_voltage_raises(self):
        # 10 V across r_off = 1e308 overflows the OFF-state divider; the
        # record holds, and solving its rows for the CSV fails
        d = FIG2B_DEVICE._replace(r_off=1e308)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite device voltage: inf"):
            src = SourceWaveform("constant", offset=10.0)
            tr = run_transient(680.0, d, src, dt=1e-4, t_end=0.01)
            tr.to_csv(io.StringIO(), src, 680.0, d)


class TestDigitize:
    def test_constant_high(self):
        src = SourceWaveform("constant", offset=8.0)
        tr = fig2b_transient(src, dt=1e-4, t_end=0.01)
        # stays OFF only briefly; just check mapping against v_device directly
        col = columns(tr, src, (2.5, 5.0, 0.0))
        assert (col["logic"] == 5.0).any()
        np.testing.assert_array_equal(col["logic"],
                                      np.where(col["v_device"] > 2.5, 5.0, 0.0))

    def test_boundary_equality_maps_low(self):
        src = SourceWaveform("constant", offset=1.0)
        tr = fig2b_transient(src, dt=1e-4, t_end=0.01)
        v_device = solve_series_divider(680.0, FIG2B_DEVICE.r_off, src.value(0, 1e-4))[0]
        assert (columns(tr, src, (v_device, 5.0, 0.0))["logic"] == 0.0).all()

    def test_oscillating_trace_alternates(self):
        src = SourceWaveform("constant", offset=5.0)
        tr = fig2b_transient(src, dt=1e-4, t_end=0.05)
        col = columns(tr, src, (2.0, 5.0, 0.0))
        assert set(np.unique(col["logic"])) == {0.0, 5.0}
        np.testing.assert_array_equal(col["logic"] == 5.0, col["v_device"] > 2.0)


def test_csv_export_schema():
    src = SourceWaveform("constant", offset=1.0)
    tr = fig2b_transient(src, dt=1e-4, t_end=0.001)
    lines = csv_text(tr, src).splitlines()
    assert lines[0] == "t,v_applied,v_device,v_out,conducting,current"
    assert len(lines) == 1 + len(tr)
    assert lines[1].split(",")[4] == "0"
