"""The array relaxation kernel against the scalar oracle, state by state
and code by code, and the map verb's CSV and heatmap bytes against text
built from the oracle."""

import json
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from voltmem.cli import main
from voltmem.config import axis_points, header_lines, load_config
from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.logic import (INIT_HIGH, INIT_LOW, INPUT_PAIRS, LogicCircuit,
                           _table, _walk, canonical_program, relax_program,
                           run_sequence, sweep_codes)

from logic_oracle import grid_codes, sweep_grid


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def random_devices(draw):
    """Float-valued, or int-valued: a config keeps `"v_th_pos": 3` an int.
    Some have v_th_pos >= INIT_HIGH, so that init leaves them OFF."""
    if draw(st.booleans()):
        r_on = draw(st.integers(10, 10_000))
        v_hold_pos, v_hold_neg = draw(st.integers(1, 3)), -draw(st.integers(1, 3))
        return DeviceParams(
            r_on=r_on, r_off=r_on + draw(st.integers(1, 20 * r_on)),
            v_th_pos=v_hold_pos + draw(st.integers(1, 4)), v_hold_pos=v_hold_pos,
            v_th_neg=v_hold_neg - draw(st.integers(1, 2)), v_hold_neg=v_hold_neg)
    r_on = draw(_log_uniform(10.0, 1e4))
    v_hold_pos = draw(st.floats(0.2, 3.0))
    v_hold_neg = -draw(st.floats(0.2, 3.0))
    return DeviceParams(
        r_on=r_on, r_off=r_on * draw(st.floats(1.05, 20.0)),
        v_th_pos=v_hold_pos + draw(st.floats(0.1, 4.0)), v_hold_pos=v_hold_pos,
        v_th_neg=v_hold_neg - draw(st.floats(0.1, 2.0)), v_hold_neg=v_hold_neg)


devices = st.one_of(
    _log_uniform(20.0, 5000.0).map(
        lambda r_int: derive_device_params(EmulatorParams(r_int=r_int))),
    random_devices())


@st.composite
def axes(draw):
    lo = draw(st.floats(-6.0, 6.0))
    step = draw(st.floats(0.05, 1.0))
    return [lo + step * k for k in range(draw(st.integers(1, 12)))]


@st.composite
def circuits(draw):
    m1 = draw(devices)
    m2 = draw(st.one_of(st.just(m1), devices))
    lo = max(m1.v_hold_pos, m2.v_hold_pos)
    hi = min(m1.v_th_pos, m2.v_th_pos)
    # no common bistable window, or one too narrow for v0 to fall strictly
    # inside it (3 - 4e-16 to 3): one device for both
    if hi - lo < 1e-9:
        m2, lo, hi = m1, m1.v_hold_pos, m1.v_th_pos
    v0 = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
    return LogicCircuit(m1=m1, m2=m2, r_common=draw(_log_uniform(10.0, 1e4)),
                        v_hold_level=v0)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(c=circuits(), v3=st.floats(-6.0, 6.0), v1_axis=axes(), v2_axis=axes())
def test_kernel_matches_scalar_oracle(c, v3, v1_axis, v2_axis):
    got = sweep_codes(c, v3, v1_axis, v2_axis)
    want = grid_codes(sweep_grid(c, v3, v1_axis, v2_axis))
    for g, w in zip(got, want):
        assert g.dtype == np.uint8
        np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(c=circuits())
def test_hold_is_identity_and_init_never_cycles(c):
    """v_hold_pos < v0 < v_th_pos for both devices, so no switching condition
    holds in either hold phase: each maps all four states to themselves,
    which is what lets relax_program skip them. With the switch closed the
    devices do not interact, and a device that switched cannot switch back
    at the same voltage (the ON and OFF conditions are disjoint), so init
    settles from every state at every input pair."""
    # the switch is closed in all three phases, so V1, V2 and V3 of the calc
    # phase do not reach them
    _, hold, _, final = canonical_program(0.0, 0.0, 0.0,
                                          v0=c.v_hold_level).phases
    for phase in (hold, final):
        assert _table(c, phase.v1, phase.v2, phase.v3,
                      phase.switch_closed) == 0b11_10_01_00
    a, b = np.array(INPUT_PAIRS, dtype=bool).T
    init = _table(c, np.where(a, INIT_HIGH, INIT_LOW),
                  np.where(b, INIT_HIGH, INIT_LOW), 0.0, True)
    _, cycled = _walk(init, np.arange(4, dtype=np.uint8)[:, None])
    assert cycled.shape == (4, 4) and not cycled.any()


def test_walk_matches_reference_on_every_table_and_state():
    """relax_program gathers from the walks of all 256 tables, including
    ones no sampled circuit produces, so each is checked against
    relax_phase's rule: follow the table to a fixed point or a revisit,
    keeping the state before closure."""
    def reference(table, k):
        seen = {k}
        while True:
            nxt = table >> 2 * k & 3
            if nxt == k:
                return k, False
            if nxt in seen:
                return k, True
            seen.add(nxt)
            k = nxt

    final, cycled = _walk(np.arange(256, dtype=np.uint8)[:, None],
                          np.arange(4, dtype=np.uint8))
    assert final.shape == cycled.shape == (256, 4)
    for table in range(256):
        for k in range(4):
            assert (int(final[table, k]), bool(cycled[table, k])) == reference(
                table, k), (table, k)


@st.composite
def points(draw):
    """The (v1, v2) of one relax_program call: two scalars, as the gate verb
    passes, or two axes that broadcast to a grid, as sweep_codes passes."""
    if draw(st.booleans()):
        return draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))
    return (np.array(draw(axes()))[:, None], np.array(draw(axes()))[None, :])


# r_int 100 devices under a 500 ohm common resistor, v1 = v2 = -2 V against
# v3 = 5 V: every input pair cycles in the calc phase
OSCILLATING_DEVICE = derive_device_params(EmulatorParams(r_int=100.0))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(c=circuits(), v3=st.floats(-6.0, 6.0), v1_v2=points())
@example(c=LogicCircuit(m1=OSCILLATING_DEVICE, m2=OSCILLATING_DEVICE,
                        r_common=500.0), v3=5.0, v1_v2=(-2.0, -2.0))
def test_kernel_states_match_scalar_oracle(c, v3, v1_v2):
    """Final states too, not only codes: a cycled pair's states are what
    gate prints, while its map cell is 255 whatever they are. Bit k of each
    code holds input pair k = 2a+b."""
    v1, v2 = v1_v2
    shape = np.broadcast_shapes(np.shape(v1), np.shape(v2))
    got = relax_program(c, v1, v2, v3)
    for arr in got:
        assert arr.dtype == np.uint8 and arr.shape == shape and np.all(arr < 16)
    v1, v2 = np.broadcast_to(v1, shape), np.broadcast_to(v2, shape)
    for cell in np.ndindex(shape):
        prog = canonical_program(float(v1[cell]), float(v2[cell]), v3,
                                 v0=c.v_hold_level)
        for k, pair in enumerate(INPUT_PAIRS):
            s1, s2, oscillated = run_sequence(c, prog, pair)
            assert tuple(int(arr[cell]) >> k & 1 for arr in got) == (
                s1, s2, oscillated), (cell, pair)


# r_int 220 devices under a 1 kohm common resistor at V3 = -1.9 V: a map
# with both settled gate regions and oscillating cells
MIXED = {"emulator": {"r_int": 220}, "circuit": {"r_common": 1000},
         "sweep": {"v1": [-1, 6, 0.25], "v2": [-1, 6, 0.25], "v3": -1.9}}
GLYPHS = "0123456789ABCDEF"


def test_sweep_codes_peak_memory_per_cell():
    # the benchmark's map-mixed grid. The table kernel peaks near 52 bytes
    # per cell; float64 node voltages per cell and input pair take ~265
    d = derive_device_params(EmulatorParams(r_int=220))
    c = LogicCircuit(m1=d, m2=d, r_common=1000.0)
    axis = axis_points((-1.0, 6.0, 0.02))
    assert len(axis) == 351
    tracemalloc.start()
    try:
        sweep_codes(c, -1.9, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(axis) ** 2


def test_map_verb_bytes_match_oracle_text(tmp_path, capsys):
    cfg = load_config(json.dumps(dict(MIXED, verb="map")))
    v1s, v2s = axis_points(cfg.v1_axis), axis_points(cfg.v2_axis)
    c = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                     v_hold_level=cfg.v0)
    grid = sweep_grid(c, cfg.v3, v1s, v2s)
    oscillating = sum(res.oscillated for row in grid for res in row)
    assert 0 < oscillating < len(v1s) * len(v2s)

    rows = []
    for v1, row in zip(v1s, grid):
        for v2, res in zip(v2s, row):
            if res.oscillated:
                rows.append("%.9g,%.9g,255,OSC,255,OSC,1" % (v1, v2))
            else:
                rows.append("%.9g,%.9g,%d,%s,%d,%s,0" % (
                    v1, v2, res.code_m1, res.label_m1,
                    res.code_m2, res.label_m2))
    csv = "".join(f"# {line}\n" for line in header_lines(cfg)) + "\n".join(
        [f"# grid = {len(v1s)}x{len(v2s)}",
         "v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated"] + rows) + "\n"

    heat = []
    for name in ("code_m1", "code_m2"):
        heat.append(f"{name[-2:].upper()} register gate map (rows: v2 "
                    f"high->low, cols: v1 -1..6; glyph = hex gate code, "
                    f"* = oscillating)")
        for j in reversed(range(len(v2s))):
            heat.append("".join(
                "*" if grid[i][j].oscillated
                else GLYPHS[getattr(grid[i][j], name)]
                for i in range(len(v1s))))
        heat.append("")

    config = tmp_path / "map.json"
    config.write_text(json.dumps(MIXED))
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == csv.encode()
    assert capsys.readouterr().out == "\n".join(heat)
