"""Semantic output checks for the benchmark workloads.

Each check returns a list of problems, empty when the output is right. They
test what the output means (row counts, the scalar gate oracle on sampled
cells, the divider equations, comparator and oscillation agreement) rather
than pinning a digest, so a correctness fix that changes some values does
not read as a failure while a wrong value does.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from voltmem import circuit, logic, oscillation

MAP_HEADER = "v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated"
TRACE_COLUMNS = ["t", "v_applied", "v_device", "v_out", "conducting", "current"]
GLYPHS = {code: "0123456789ABCDEF"[code] for code in range(16)}
GLYPHS[logic.OSCILLATING_CODE] = "*"
# %.9g keeps 9 significant digits: each printed value carries a relative
# rounding error of at most 5e-9, and a recomputed one adds the same again.
PRINT_RTOL = 2e-8
ORACLE_CELLS = 1000


def _axis(spec) -> list[float]:
    lo, hi, step = spec
    return [lo + step * k for k in range(int(round((hi - lo) / step)) + 1)]


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def check_map(cfg, out_text: str, stdout_text: str, seed: int,
              cells: int) -> list[str]:
    lines = _data_lines(out_text)
    if not lines or lines[0] != MAP_HEADER:
        return ["map CSV header missing or wrong"]
    rows = [line.split(",") for line in lines[1:]]
    v1s, v2s = _axis(cfg.v1_axis), _axis(cfg.v2_axis)
    n1, n2 = len(v1s), len(v2s)
    if len(rows) != cells or n1 * n2 != cells:
        return [f"map has {len(rows)} rows, expected {cells} ({n1}x{n2})"]
    problems = []

    c = logic.LogicCircuit(m1=cfg.device, m2=cfg.device,
                           r_common=cfg.r_common, v_hold_level=cfg.v0)
    picked = random.Random(seed).sample(range(cells), min(ORACLE_CELLS, cells))
    for idx in sorted(picked):
        i, j = divmod(idx, n2)
        row = rows[idx]
        if row[:2] != ["%.9g" % v1s[i], "%.9g" % v2s[j]]:
            problems.append(f"row {idx}: axis values {row[:2]}")
            continue
        res = logic.run_gate(c, logic.canonical_program(
            v1s[i], v2s[j], cfg.v3, v0=cfg.v0, duration=cfg.duration))
        if res.oscillated:
            osc = str(logic.OSCILLATING_CODE)
            want = [osc, "OSC", osc, "OSC", "1"]
        else:
            want = [str(res.code_m1), res.label_m1, str(res.code_m2),
                    res.label_m2, "0"]
        if row[2:] != want:
            problems.append(f"row {idx} (v1={v1s[i]:g}, v2={v2s[j]:g}): "
                            f"{row[2:]} != scalar oracle {want}")

    heat = stdout_text.split("\n")
    for register, col in (("M1", 2), ("M2", 4)):
        top = next((k for k, line in enumerate(heat)
                    if line.startswith(f"{register} register")), None)
        if top is None:
            problems.append(f"heatmap for {register} missing")
            continue
        grid = heat[top + 1:top + 1 + n2]
        codes = [row[col] for row in rows]
        # heatmap rows run from the highest v2 down, columns over v1
        want = ["".join(GLYPHS.get(int(codes[i * n2 + j]), "?")
                        for i in range(n1)) for j in range(n2 - 1, -1, -1)]
        if grid != want:
            problems.append(f"{register} heatmap glyphs differ from CSV codes")
        stars = sum(line.count("*") for line in grid)
        sentinel_rows = codes.count(str(logic.OSCILLATING_CODE))
        if stars != sentinel_rows:
            problems.append(f"{register}: {stars} '*' glyphs but "
                            f"{sentinel_rows} rows with code 255")
    return problems


def check_transient(cfg, out_text: str, samples: int) -> list[str]:
    lines = _data_lines(out_text)
    columns = TRACE_COLUMNS + (["logic"] if cfg.digitize is not None else [])
    if not lines or lines[0].split(",") != columns:
        return ["transient CSV header missing or wrong"]
    if len(lines) - 1 != samples:
        return [f"transient has {len(lines) - 1} rows, expected {samples}"]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    col = dict(zip(columns, data.T))
    problems = []

    on = col["conducting"] == 1
    if not np.all(on | (col["conducting"] == 0)):
        problems.append("conducting column holds values other than 0/1")
    d = cfg.device
    r_m = np.where(on, d.r_on, d.r_off)
    total = cfg.r1 + r_m
    for name, want in (("v_device", col["v_applied"] * r_m / total),
                       ("current", col["v_applied"] / total)):
        bad = ~np.isclose(col[name], want, rtol=PRINT_RTOL, atol=1e-15)
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(f"{name} breaks the divider equation at row {k}: "
                            f"{float(col[name][k])!r} != {float(want[k])!r}")
    if not np.array_equal(col["v_out"], col["v_device"]):
        problems.append("v_out column differs from v_device")

    if cfg.digitize is not None:
        threshold, high, low = cfg.digitize
        want = np.where(col["v_out"] > threshold, high, low)
        if not np.array_equal(col["logic"], want):
            problems.append("logic column is not high exactly where "
                            "v_out > threshold")

    src = cfg.source
    if (src.kind == "constant"
            and src.offset > oscillation.onset_voltage(d, cfg.r1)):
        # above onset a constant drive oscillates iff the ON state is unstable
        fields = {"dt": cfg.dt, **col, "conducting": on}
        missing = [f.name for f in dataclasses.fields(circuit.Trace)
                   if f.name not in fields]
        if missing:
            return problems + [f"cannot rebuild Trace: no {missing}"]
        trace = circuit.Trace(**{f.name: fields[f.name]
                                 for f in dataclasses.fields(circuit.Trace)})
        detected = oscillation.detect_oscillation(trace).oscillating
        predicted = oscillation.is_unstable(d, cfg.r1)
        if detected != predicted:
            problems.append(f"detect_oscillation={detected} but "
                            f"is_unstable={predicted}")
    return problems
