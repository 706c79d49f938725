"""Command-line front end: iv, transient, osc-check, gate and map verbs.

Every verb emits CSV (or plain text for gate/osc-check) prefixed with a
reproducibility header: the fully resolved configuration plus the seed as
`#` comment lines. Identical config + seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .circuit import (ResolutionError, SeriesCircuit, SourceWaveform, digitize,
                      run_transient)
from .config import ConfigError, RunConfig, axis_points
from .device import DeviceState, derive_device_params, device_resistance, step_device
from .logic import (GATE_NAMES, INPUT_PAIRS, OSCILLATING_CODE, LogicCircuit,
                    canonical_program, run_gate, sweep_codes)
from .oscillation import instability_lhs, is_unstable, onset_voltage

_MAP_GLYPHS = "0123456789ABCDEF"
_OSC_GLYPH = "*"


def _header(cfg: RunConfig) -> str:
    return "".join(f"# {line}\n" for line in cfgmod.header_lines(cfg))


def run_iv_sweep(cfg: RunConfig) -> str:
    """Quasi-static triangle sweep straight across one device: v,i,conducting.

    The actuation delay is zeroed so the trace depends only on voltage, not
    on sweep rate.
    """
    dev = replace(cfg.device, t_actuate=0.0)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.iv_points
    sweep = SourceWaveform("triangle", amplitude=cfg.iv_amplitude, period=1.0)
    state = DeviceState(conducting=False)
    buf = io.StringIO()
    buf.write(_header(cfg))
    buf.write("v,i,conducting\n")
    for v in sweep.value(np.arange(n) / (n - 1)).tolist():
        state = step_device(dev, state, v, 1.0, rng)
        i = v / device_resistance(dev, state)
        buf.write("%.9g,%.9g,%d\n" % (v, i, int(state.conducting)))
    return buf.getvalue()


def run_transient_verb(cfg: RunConfig) -> str:
    circuit = SeriesCircuit(r1=cfg.r1, device=cfg.device, source=cfg.source)
    trace = run_transient(circuit, cfg.dt, cfg.t_end, seed=cfg.seed)
    logic = None if cfg.digitize is None else digitize(trace, *cfg.digitize)
    buf = io.StringIO()
    trace.to_csv(buf, cfgmod.header_lines(cfg), logic)
    return buf.getvalue()


def run_osc_check(cfg: RunConfig) -> str:
    buf = io.StringIO()
    buf.write(_header(cfg))
    if cfg.sweep_param is None:
        d = cfg.device
        buf.write("onset_voltage = %.9g\n" % onset_voltage(d, cfg.r1))
        buf.write("instability_lhs = %.9g\n" % instability_lhs(d, cfg.r1))
        buf.write("v_hold_pos = %.9g\n" % d.v_hold_pos)
        buf.write("unstable = %s\n" % ("true" if is_unstable(d, cfg.r1) else "false"))
        return buf.getvalue()
    buf.write("%s,onset_voltage,instability_lhs,unstable\n" % cfg.sweep_param)
    for val in cfg.sweep_values:
        if cfg.sweep_param == "r1":
            d, r1 = cfg.device, val
        else:
            d = replace(derive_device_params(replace(cfg.emulator, r_int=val)),
                        t_actuate=cfg.device.t_actuate,
                        jitter_sigma=cfg.device.jitter_sigma)
            r1 = cfg.r1
        buf.write("%.9g,%.9g,%.9g,%d\n" % (
            val, onset_voltage(d, r1), instability_lhs(d, r1),
            int(is_unstable(d, r1))))
    return buf.getvalue()


def run_gate_verb(cfg: RunConfig) -> str:
    circuit = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                           v_hold_level=cfg.v0)
    prog = canonical_program(cfg.v1, cfg.v2, cfg.v3, v0=cfg.v0,
                             duration=cfg.duration)
    res = run_gate(circuit, prog)
    buf = io.StringIO()
    buf.write(_header(cfg))
    buf.write("a,b,m1,m2\n")
    for pair in INPUT_PAIRS:
        s1, s2 = res.final_states[pair]
        buf.write("%d,%d,%d,%d\n" % (pair[0], pair[1], s1, s2))
    buf.write("code_m1 = %d (%s)\n" % (res.code_m1, res.label_m1))
    buf.write("code_m2 = %d (%s)\n" % (res.code_m2, res.label_m2))
    buf.write("oscillated = %s\n" % ("true" if res.oscillated else "false"))
    return buf.getvalue()


# CSV row ending by code_m1 * 16 + code_m2, and 256 for an oscillating cell
_MAP_SUFFIXES = ["%d,%s,%d,%s,0\n" % (c1, GATE_NAMES[c1], c2, GATE_NAMES[c2])
                 for c1 in range(16) for c2 in range(16)]
_MAP_SUFFIXES.append("%d,OSC,%d,OSC,1\n" % (OSCILLATING_CODE, OSCILLATING_CODE))
# heatmap glyph by code byte
_GLYPH_BYTES = np.frombuffer(
    (_MAP_GLYPHS + "?" * (OSCILLATING_CODE - 16) + _OSC_GLYPH).encode(),
    dtype=np.uint8)


def run_map_verb(cfg: RunConfig):
    """Returns (csv_text, heatmap_text) for the (V1, V2) gate-map sweep."""
    circuit = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                           v_hold_level=cfg.v0)
    v1_axis = axis_points(cfg.v1_axis)
    v2_axis = axis_points(cfg.v2_axis)
    codes = sweep_codes(circuit, cfg.v3, v1_axis, v2_axis, cfg.duration)

    code_m1 = codes[0].astype(np.intp)
    ends = np.where(code_m1 == OSCILLATING_CODE, 256, code_m1 * 16 + codes[1])
    cols = ["%.9g," % v2 for v2 in v2_axis]
    buf = io.StringIO()
    buf.write(_header(cfg))
    buf.write("# grid = %dx%d\n" % (len(v1_axis), len(v2_axis)))
    buf.write("v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated\n")
    for v1, row in zip(v1_axis, ends.tolist()):
        head = "%.9g," % v1
        buf.write("".join([head + col + _MAP_SUFFIXES[k]
                           for col, k in zip(cols, row)]))
    return buf.getvalue(), _heatmaps(codes, v1_axis)


def _heatmaps(codes, v1_axis) -> str:
    blocks = []
    for register, reg_codes in zip(("M1", "M2"), codes):
        # rows run from the highest v2 down, columns over v1
        glyphs = _GLYPH_BYTES[reg_codes.T[::-1]]
        lines = np.column_stack(
            [glyphs, np.full(len(glyphs), ord("\n"), dtype=np.uint8)])
        blocks.append(
            f"{register} register gate map "
            f"(rows: v2 high->low, cols: v1 {v1_axis[0]:g}..{v1_axis[-1]:g}; "
            f"glyph = hex gate code, {_OSC_GLYPH} = oscillating)\n"
            + lines.tobytes().decode())
    return "\n".join(blocks)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(
            f"cannot write output file {out_path}: {e.strerror}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltmem",
        description="Volatile-memristor circuit simulator (hysteresis, "
                    "oscillations, implication logic maps)")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in cfgmod.VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--seed", type=int, help="RNG seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.read_config(args.config, verb=args.verb, seed=args.seed,
                                 out=args.out)
        if cfg.verb == "iv":
            _emit(run_iv_sweep(cfg), cfg.out)
        elif cfg.verb == "transient":
            _emit(run_transient_verb(cfg), cfg.out)
        elif cfg.verb == "osc-check":
            _emit(run_osc_check(cfg), cfg.out)
        elif cfg.verb == "gate":
            _emit(run_gate_verb(cfg), cfg.out)
        else:
            csv_text, heatmap = run_map_verb(cfg)
            _emit(csv_text, cfg.out)
            sys.stdout.write(heatmap)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ResolutionError as e:
        print(f"numerical guard violation: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
