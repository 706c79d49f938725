"""The event-driven transient core against its per-sample oracle.

`circuit.run_transient` loops once per switching onset;
`transient_oracle.run_transient_per_sample` steps `device.step_device` once
per sample. For every circuit, grid and seed the two records must be equal
bit for bit, the rows `Trace.to_csv` solves from the record must be the
oracle's per-sample rows, and a run that fails must fail with the same error.
`circuit.iv_sweep`, the cumulative scans of `iv`, must give the core's states
at r1 = 0 with no actuation delay.
"""

import io
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peak_memory import traced_peak
from transient_oracle import run_transient_per_sample
from voltmem import circuit
from voltmem.circuit import SourceWaveform, run_transient
from voltmem.config import load_config_dict
from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.oscillation import onset_voltage

T_ACTUATE = 0.5e-3  # the DeviceParams default
MAX_ROWS = 2500


def fig2b(source, r1=680.0, **device):
    """(r1, device, source): the README's divider (r_int 220) with the given
    source and device fields."""
    d = derive_device_params(EmulatorParams(r_int=220.0))._replace(**device)
    return r1, d, source


def k_grid(k, **device):
    """dt = t_actuate/k on the oscillating divider at 5 V, 1501 rows."""
    dt = T_ACTUATE / k
    return *fig2b(SourceWaveform("constant", offset=5.0), **device), dt, 1500 * dt, 0


@st.composite
def devices(draw):
    if draw(st.booleans()):
        return derive_device_params(EmulatorParams(r_int=draw(st.floats(20.0, 5000.0))))
    # int-valued resistances stay ints, as a config document may give them
    num = st.integers if draw(st.booleans()) else st.floats
    r_on = draw(num(1, 2000))
    r_off = r_on + draw(num(1, 5000))
    hold, neg_hold = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    return DeviceParams(r_on=r_on, r_off=r_off,
                        v_th_pos=hold + draw(st.floats(0.05, 3.0)), v_hold_pos=hold,
                        v_th_neg=-neg_hold - draw(st.floats(0.05, 3.0)),
                        v_hold_neg=-neg_hold)


@st.composite
def cases(draw):
    """(r1, device, source, dt, t_end, seed): any source kind, device and delay grid,
    jittered or not. A quarter are constant drives above onset, which
    oscillate wherever the divider is unstable; a quarter ripple around the
    onset level about as fast as t_actuate, so that pending switches break."""
    branch = draw(st.integers(0, 3))
    if branch < 2:
        d = derive_device_params(EmulatorParams(r_int=draw(st.floats(20.0, 600.0))))
        r1 = draw(st.sampled_from([0.0, 680]) | st.floats(0.0, 2000.0))
        level = onset_voltage(d, r1)
        source = SourceWaveform("constant", offset=level * draw(st.floats(1.0, 2.0)))
    else:
        d = draw(devices())
        r1 = draw(st.sampled_from([0.0, 0, 680]) | st.floats(0.0, 2000.0))
        source = None
    if draw(st.booleans()):
        t_actuate, dt = 0.0, draw(st.floats(1e-6, 1e-3))
    else:
        t_actuate = draw(st.sampled_from([T_ACTUATE, 1e-3, 3e-5]) | st.floats(1e-5, 1e-2))
        dt = t_actuate / draw(st.integers(4, 399))
    t_end = dt * draw(st.integers(1, MAX_ROWS))
    if branch == 1:
        source = SourceWaveform(
            draw(st.sampled_from(["sawtooth", "triangle", "sine"])),
            amplitude=draw(st.floats(0.0, 0.1)) * level,
            offset=draw(st.floats(0.9, 1.1)) * level,
            period=max(t_actuate, 20 * dt) * draw(st.floats(0.5, 8.0)))
    elif source is None:
        real = st.floats(-10.0, 10.0)
        kind = draw(st.sampled_from(SourceWaveform._KINDS))
        times = sorted(set(draw(st.lists(st.floats(0.0, t_end), max_size=6))))
        source = SourceWaveform(
            kind, amplitude=draw(real), offset=draw(real),
            period=t_end * draw(st.floats(0.02, 3.0)),
            steps=tuple((time, draw(real)) for time in times))
    d = d._replace(t_actuate=t_actuate,
                   jitter_sigma=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])))
    return r1, d, source, dt, t_end, draw(st.integers(0, 3))


def outcome(run, *case):
    try:
        return run(*case)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(case=cases())
# grids where step_device switches after k+1 steps, not k
@example(case=k_grid(19))
@example(case=k_grid(24))
@example(case=k_grid(26))
@example(case=k_grid(37))
@example(case=k_grid(38))
# grids where ceil(t_actuate/dt) is k+1 but the count is k
@example(case=k_grid(57))
@example(case=k_grid(63))
@example(case=k_grid(114))
@example(case=k_grid(50, jitter_sigma=0.05))
# a slow drive at the onset level under strong jitter: windows that break
@example(case=(*fig2b(SourceWaveform("sine", amplitude=0.5, offset=4.69, period=3e-3),
                      jitter_sigma=0.3), 2e-5, 0.03, 1))
def test_event_core_matches_per_sample_oracle(case):
    assert_matches_oracle(case)


def assert_matches_oracle(case):
    want = outcome(run_transient_per_sample, *case)
    got = outcome(run_transient, *case)
    if isinstance(want, tuple):
        assert got == want
        return
    a, b = got.conducting, want.conducting
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))
    # the times, source samples, device voltages and currents that to_csv
    # forms per chunk are the oracle's per-sample columns, as text; a sign
    # flip of a zero shows too
    r1, device, source = case[:3]
    buf = io.StringIO()
    got.to_csv(buf, source, r1, device)
    np.testing.assert_array_equal(buf.getvalue().splitlines(), want.csv().splitlines())


# the source read through a window of 64 rows, 64 the longest scan (and
# _first's first block, so that no read is longer than the window), 1001
# rows, so that the window moves on inside pending runs and ends ragged and
# jitter pairs are drawn a scan at a time, and the CSV written in
# chunks of 50 rows, each sampling its own times: the same rows, and a
# non-finite sample past the first window fails with the oracle's error
@pytest.mark.parametrize("source", [
    SourceWaveform("sawtooth", amplitude=2.0, offset=4.0, period=7e-3),
    SourceWaveform("sine", amplitude=1.0, offset=4.7, period=3e-3),
    SourceWaveform("steps", offset=1.0, steps=((3e-3, 5.0), (0.011, 4.0))),
    SourceWaveform("steps", offset=1.0, steps=((0.011, np.inf),)),
], ids=["sawtooth", "sine", "steps", "steps-inf"])
def test_source_blocks_match_per_sample_oracle(monkeypatch, source):
    monkeypatch.setattr(circuit, "_SCAN_ROWS", 64)
    monkeypatch.setattr(circuit, "_CSV_CHUNK_ROWS", 100)
    assert_matches_oracle((*fig2b(source, jitter_sigma=0.05), 2e-5, 0.02, 1))


# any circuit through a 64-row window, which the longest run moves ~40
# times: a window filled short of its end or read past it shows here
@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_small_window_matches_per_sample_oracle(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit, "_SCAN_ROWS", 64)
        assert_matches_oracle(case)


def test_hold_count_is_capped():
    """A delay far longer than the run neither switches nor counts to it."""
    d = derive_device_params(EmulatorParams())._replace(t_actuate=1.0)
    t0 = time.perf_counter()
    tr = run_transient(680.0, d, SourceWaveform("constant", offset=8.0),
                       dt=1e-9, t_end=1e-4)
    assert time.perf_counter() - t0 < 2.0
    assert len(tr) == 100001
    assert not tr.conducting.any()


# the source is read through one window of 2**14 samples, so transient-sweep's
# 200001 samples peak near their 0.2 MB record plus a few 128 kB blocks (a
# window of 2**18 samples, filled 2**14 at a time, peaked at 2.3 MB)
def test_run_transient_peak_memory_on_the_sweep():
    cfg = load_config_dict({"verb": "transient", "circuit": {"dt": 1e-5, "t_end": 2}})
    trace, peak = traced_peak(run_transient, cfg.r1, cfg.device, cfg.source,
                              cfg.dt, cfg.t_end)
    assert len(trace) == 200001
    assert peak < 1_500_000


# pull-in levels of the swept devices; at r_coil 3, v * 3 / 3 is one ulp
# above v = 1.6, so a sweep to 1.6 switched the core unless r1 = 0 gives v itself
PULL_INS = (0.8, 1.6, 2.2)


@st.composite
def iv_sweeps(draw):
    """(device, amplitude, points, seed): an emulator with any of these coils
    and thresholds, swept to one of its thresholds or anywhere around them."""
    pull_in = draw(st.sampled_from(PULL_INS))
    e = EmulatorParams(r_coil=draw(st.sampled_from([3, 7, 123, 600, 1000])),
                       r_int=draw(st.sampled_from([9, 220, 680])),
                       v_pull_in=pull_in, v_drop_out=pull_in * draw(st.sampled_from([0.5, 0.625])))
    d = derive_device_params(e)._replace(
        jitter_sigma=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    thresholds = [*PULL_INS, e.v_drop_out]
    amplitude = draw(st.sampled_from(thresholds + [-a for a in thresholds])
                     | st.floats(-5.0, 5.0))
    return d, amplitude, draw(st.integers(3, 3000)), draw(st.integers(0, 2**32))


# iv_sweep, the scans that `iv` writes, is the transient core at r1 = 0,
# t_actuate = 0 and dt = 1 on the triangle of period points - 1: the core
# records the state in effect at a row, iv_sweep the state after its point
@settings(max_examples=60, deadline=None)
@given(sweep=iv_sweeps())
@example(sweep=(derive_device_params(EmulatorParams(r_coil=3, r_int=9, v_pull_in=1.6,
                                                    v_drop_out=1.0)), 1.6, 2001, 0))
def test_iv_sweep_is_the_transient_core_at_r1_zero(sweep):
    d, amplitude, n, seed = sweep
    got = np.concatenate([on for _, _, on in circuit.iv_sweep(d, amplitude, n, seed)])
    source = SourceWaveform("triangle", amplitude=amplitude, period=n - 1.0)
    want = run_transient(0.0, d._replace(t_actuate=0.0), source, 1.0, float(n), seed)
    np.testing.assert_array_equal(got, want.conducting[1:])
