"""The array gate-map kernel against the scalar oracle, and the map verb's
CSV and heatmap bytes against text built from the oracle."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from voltmem.cli import main
from voltmem.config import axis_points, header_lines, load_config
from voltmem.device import DeviceParams, EmulatorParams, derive_device_params
from voltmem.logic import (OSCILLATING_CODE, LogicCircuit, sweep_codes,
                           sweep_grid, sweep_map)


def oracle_codes(grid):
    """code_m1 and code_m2 arrays of sweep_grid's results, 255 if oscillated."""
    return tuple(
        np.array([[OSCILLATING_CODE if res.oscillated else getattr(res, name)
                   for res in row] for row in grid], dtype=np.uint8)
        for name in ("code_m1", "code_m2"))


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def random_devices(draw):
    r_on = draw(_log_uniform(10.0, 1e4))
    v_hold_pos = draw(st.floats(0.2, 3.0))
    v_hold_neg = -draw(st.floats(0.2, 3.0))
    return DeviceParams(
        r_on=r_on, r_off=r_on * draw(st.floats(1.05, 20.0)),
        v_th_pos=v_hold_pos + draw(st.floats(0.1, 2.0)), v_hold_pos=v_hold_pos,
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
    if lo >= hi:  # no common bistable window: one device for both
        m2, lo, hi = m1, m1.v_hold_pos, m1.v_th_pos
    v0 = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
    return LogicCircuit(m1=m1, m2=m2, r_common=draw(_log_uniform(10.0, 1e4)),
                        v_hold_level=v0)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(c=circuits(), v3=st.floats(-6.0, 6.0), v1_axis=axes(), v2_axis=axes())
def test_kernel_matches_scalar_oracle(c, v3, v1_axis, v2_axis):
    got = sweep_codes(c, v3, v1_axis, v2_axis)
    want = oracle_codes(sweep_grid(c, v3, v1_axis, v2_axis))
    for g, w in zip(got, want):
        assert g.dtype == np.uint8
        np.testing.assert_array_equal(g, w)
    for register, w in zip(("M1", "M2"), want):
        np.testing.assert_array_equal(
            sweep_map(c, v3, v1_axis, v2_axis, register).codes, w)


# r_int 220 devices under a 1 kohm common resistor at V3 = -1.9 V: a map
# with both settled gate regions and oscillating cells
MIXED = {"emulator": {"r_int": 220}, "circuit": {"r_common": 1000},
         "sweep": {"v1": [-1, 6, 0.25], "v2": [-1, 6, 0.25], "v3": -1.9}}
GLYPHS = "0123456789ABCDEF"


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
