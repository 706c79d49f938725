"""The array relaxation kernel against the scalar oracle, state by state
and code by code, gate_map's blocks and outcomes against it cell by cell,
and the map verb's CSV and heatmap bytes against text built from it."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import voltmem.cli
import voltmem.config
import voltmem.logic
from voltmem.cli import main
from voltmem.config import axis_points, header_lines, load_config
from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.logic import (INIT_HIGH, INIT_LOW, INPUT_PAIRS, LogicCircuit,
                           _table, _walk, canonical_program, gate_map,
                           relax_program, run_sequence)

from logic_oracle import sweep_grid
from peak_memory import traced_peak


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
    """The (v1, v2) of one calc table: two scalars, as the gate verb passes,
    or two axes that broadcast to a grid, as the map verb passes per block."""
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
    got = relax_program(c)[:, _table(c, v1, v2, v3, False)]
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


def test_relax_program_peak_memory_per_cell():
    # the benchmark's map-mixed grid in one calc table. The table kernel
    # peaks near 52 bytes per cell; float64 node voltages per cell and input
    # pair take ~265. `map` builds the table a block at a time
    d = derive_device_params(EmulatorParams(r_int=220))
    c = LogicCircuit(m1=d, m2=d, r_common=1000.0)
    axis = np.array(axis_points((-1.0, 6.0, 0.02)))
    assert len(axis) == 351
    _, peak = traced_peak(
        lambda: relax_program(c)[:, _table(c, axis[:, None], axis[None, :], -1.9, False)])
    assert peak < 100 * len(axis) ** 2


def _oracle_map_text(cfg, c, v1s, v2s):
    """sweep_grid's results at circuit c over the axes, and the map verb's
    `--out` bytes and heatmap text rendered from them cell by cell."""
    grid = sweep_grid(c, cfg.v3, v1s, v2s)
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
                    f"high->low, cols: v1 {v1s[0]:g}..{v1s[-1]:g}; glyph = "
                    f"hex gate code, * = oscillating)")
        for j in reversed(range(len(v2s))):
            heat.append("".join(
                "*" if grid[i][j].oscillated
                else GLYPHS[getattr(grid[i][j], name)]
                for i in range(len(v1s))))
        heat.append("")
    return grid, csv.encode(), "\n".join(heat)


def test_map_verb_bytes_match_oracle_text(tmp_path, capsys):
    cfg = load_config(json.dumps(dict(MIXED, verb="map")))
    v1s, v2s = axis_points(cfg.v1_axis), axis_points(cfg.v2_axis)
    c = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                     v_hold_level=cfg.v0)
    grid, csv, heat = _oracle_map_text(cfg, c, v1s, v2s)
    oscillating = sum(res.oscillated for row in grid for res in row)
    assert 0 < oscillating < len(v1s) * len(v2s)

    config = tmp_path / "map.json"
    config.write_text(json.dumps(MIXED))
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == csv
    assert capsys.readouterr().out == heat


# map runs in blocks of whole v1 rows, about _CSV_CHUNK_ROWS cells each, or
# of runs of one row's v2 values where that axis is longer, and writes its
# heatmaps in blocks of rows of the same size. The 29x29 grid is one block
# by default; 64 gives two rows per block and a ragged last block, 32 one
# row per block, and 16 cuts each row into runs of 16 and 13 cells
@pytest.mark.parametrize("chunk", [64, 32, 16])
def test_map_verb_bytes_match_oracle_text_in_blocks(tmp_path, capsys,
                                                    monkeypatch, chunk):
    monkeypatch.setattr(voltmem.cli, "_CSV_CHUNK_ROWS", chunk)
    monkeypatch.setattr(voltmem.logic, "_CSV_CHUNK_ROWS", chunk)
    test_map_verb_bytes_match_oracle_text(tmp_path, capsys)


@st.composite
def decimal_specs(draw):
    """A config axis [lo, hi, step] of 1 to 12 decimal values, in tenths."""
    lo, step = draw(st.integers(-60, 60)), draw(st.integers(1, 10))
    return lo / 10, (lo + step * draw(st.integers(0, 11))) / 10, step / 10


def decimal_axes():
    """decimal_specs' axes, realized as `map` realizes them."""
    return decimal_specs().map(axis_points)


def _run_gate_map(c, v1s, v2s, v3):
    """gate_map's blocks, listed, and the solve_node calls they took."""
    calls, solve_node = [], voltmem.logic.solve_node

    def counted(*args):
        calls.append(args)
        return solve_node(*args)

    with mock.patch.object(voltmem.logic, "solve_node", counted):
        return list(gate_map(c, v1s, v2s, v3)), len(calls)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(c=circuits(), v3=st.integers(-60, 60).map(lambda k: k / 10),
       v1s=decimal_axes(), v2s=decimal_axes(),
       chunk=st.sampled_from([1, 7, 16, 64, 4096]))
def test_gate_map_blocks_match_scalar_oracle(c, v3, v1s, v2s, chunk):
    """Each yielded outcome is the scalar chain's at its cell: 256 where any
    input pair oscillated, else 16 * code_m1 + code_m2. The blocks tile the
    grid once: whole v1 rows of at most `chunk` cells, or where the v2 axis
    alone is longer, runs of at most `chunk` of one row's v2 values, as few
    as fit. relax_program takes 4 solve_node calls and each block 4 more."""
    with mock.patch.object(voltmem.logic, "_CSV_CHUNK_ROWS", chunk):
        blocks, solves = _run_gate_map(c, v1s, v2s, v3)
    n1, n2 = len(v1s), len(v2s)
    want = np.array([[256 if res.oscillated else 16 * res.code_m1 + res.code_m2
                      for res in row] for row in sweep_grid(c, v3, v1s, v2s)])
    got = np.full((n1, n2), -1)
    covered = np.zeros((n1, n2), dtype=int)
    for at, outcomes in blocks:
        rows, cols = range(n1)[at[0]], range(n2)[at[1]]
        assert outcomes.dtype == np.uint16
        assert outcomes.shape == (len(rows), len(cols)), at
        assert outcomes.size <= chunk and (len(cols) == n2 or len(rows) == 1), at
        got[at] = outcomes
        covered[at] += 1
    assert np.all(covered == 1)
    np.testing.assert_array_equal(got, want)
    rows_per_block = chunk // n2
    assert len(blocks) == (-(-n1 // rows_per_block) if rows_per_block
                           else n1 * -(-n2 // chunk))
    assert solves == 4 + 4 * len(blocks)


def test_gate_map_cuts_map_mixed_into_32_blocks():
    """CI's trace step pins logic.node_solves at 132 on the benchmark's
    map-mixed: its 351x351 grid, at the default 4096 cells a block, is 32
    blocks of 11 v1 rows (the last of 10), each with 4 solve_node calls,
    after relax_program's 4."""
    d = derive_device_params(EmulatorParams(r_int=220))
    axis = axis_points((-1.0, 6.0, 0.02))
    blocks, solves = _run_gate_map(LogicCircuit(m1=d, m2=d, r_common=1000.0),
                                   axis, axis, -1.9)
    assert [len(range(351)[at[0]]) for at, _ in blocks] == [11] * 31 + [10]
    assert (len(blocks), solves) == (32, 132)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(c=circuits(), v3=st.integers(-60, 60).map(lambda k: k / 10),
       v1=decimal_specs(), v2=decimal_specs(),
       chunk=st.sampled_from([1, 7, 16, 64, 4096]))
def test_map_verb_bytes_match_oracle_text_on_any_grid(tmp_path, capsys, c, v3,
                                                      v1, v2, chunk):
    """The map verb's `--out` bytes and heatmaps are the per-cell rendering
    of the scalar chain's results on 1xN, Nx1 and NxM grids, cut into blocks
    of whole rows, one row or runs of one row's cells: rows that repeat,
    rows of one cell and spans of v2 values that change between blocks. A
    config builds one device for both registers, so the loaded circuit is
    replaced by the drawn one, whose devices may differ."""
    config = tmp_path / "map.json"
    config.write_text(json.dumps({"sweep": {"v1": v1, "v2": v2, "v3": v3}}))
    read_config = voltmem.config.read_config
    cfg = read_config(str(config), verb="map")

    def with_circuit(*args, **kwargs):
        return read_config(*args, **kwargs)._replace(logic_circuit=c)

    _, csv, heat = _oracle_map_text(cfg, c, axis_points(cfg.v1_axis),
                                    axis_points(cfg.v2_axis))
    out = tmp_path / "map.csv"
    with mock.patch.object(voltmem.config, "read_config", with_circuit), \
            mock.patch.object(voltmem.cli, "_CSV_CHUNK_ROWS", chunk), \
            mock.patch.object(voltmem.logic, "_CSV_CHUNK_ROWS", chunk):
        assert main(["map", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == csv
    assert capsys.readouterr().out == heat
