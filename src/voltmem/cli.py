"""Command-line front end: iv, transient, osc-check, gate and map verbs.

Every verb computes its results, then writes CSV (or plain text for
gate/osc-check) to one output sink prefixed with a reproducibility header:
the fully resolved configuration plus the seed as `#` comment lines.
Identical config + seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .circuit import (_CSV_CHUNK_ROWS, ResolutionError, SeriesCircuit,
                      SourceWaveform, digitize, run_transient)
from .config import ConfigError, RunConfig, axis_points
from .device import condition_holds, derive_device_params
from .logic import (GATE_NAMES, INPUT_PAIRS, OSCILLATING_CODE, LogicCircuit,
                    relax_program, sweep_codes)
from .oscillation import instability_lhs, is_unstable, onset_voltage

_MAP_GLYPHS = "0123456789ABCDEF"
_OSC_GLYPH = "*"


@contextmanager
def _output(cfg: RunConfig):
    """The run's output sink, `--out` or stdout, with the `# ` resolved-config
    header written; enter it only once the results are computed, so that a
    failed run leaves no `--out` file."""
    header = "".join(f"# {line}\n" for line in cfgmod.header_lines(cfg))
    if cfg.out is None:
        sys.stdout.write(header)
        yield sys.stdout
        return
    try:
        with open(cfg.out, "w") as fh:
            fh.write(header)
            yield fh
    except OSError as e:
        raise ConfigError(
            f"cannot write output file {cfg.out}: {e.strerror}") from e


def run_iv_sweep(cfg: RunConfig) -> None:
    """Quasi-static triangle sweep straight across one device: v,i,conducting.

    The device switches at the first point where its condition holds, with no
    actuation delay, so the trace depends only on voltage, not on sweep rate.
    Every point draws a fresh pair of threshold offsets, all 0.0 without jitter.
    """
    d, sigma = cfg.device, cfg.device.jitter_sigma
    rng = np.random.default_rng(cfg.seed)
    n = cfg.iv_points
    sweep = SourceWaveform("triangle", amplitude=cfg.iv_amplitude, period=1.0)
    # in chunks, so that only the one bool state of each point is kept
    def volts(k):  # the sweep voltages of the chunk from point k
        return sweep.value(np.arange(k, min(k + _CSV_CHUNK_ROWS, n)) / (n - 1))
    on, states = False, np.empty(n, dtype=bool)
    for start in range(0, n, _CSV_CHUNK_ROWS):
        v = volts(start).tolist()
        offsets = rng.normal(0.0, sigma, (len(v), 2)).tolist()
        for k, (vk, dk) in enumerate(zip(v, offsets), start):
            on ^= bool(condition_holds(d, on, vk, dk))
            states[k] = on
    with _output(cfg) as fh:
        fh.write("v,i,conducting\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            v, conducting = volts(start), states[start:start + _CSV_CHUNK_ROWS]
            i = v / np.where(conducting, d.r_on, d.r_off)
            rows = zip(v.tolist(), i.tolist(), conducting.tolist())
            fh.write("".join(["%.9g,%.9g,%d\n" % row for row in rows]))


def run_transient_verb(cfg: RunConfig) -> None:
    circuit = SeriesCircuit(r1=cfg.r1, device=cfg.device, source=cfg.source)
    trace = run_transient(circuit, cfg.dt, cfg.t_end, seed=cfg.seed)
    logic = None if cfg.digitize is None else digitize(trace, *cfg.digitize)
    with _output(cfg) as fh:
        trace.to_csv(fh, logic)


def run_osc_check(cfg: RunConfig) -> None:
    if cfg.sweep_param is None:
        d = cfg.device
        lines = ["onset_voltage = %.9g\n" % onset_voltage(d, cfg.r1),
                 "instability_lhs = %.9g\n" % instability_lhs(d, cfg.r1),
                 "v_hold_pos = %.9g\n" % d.v_hold_pos,
                 "unstable = %s\n"
                 % ("true" if is_unstable(d, cfg.r1) else "false")]
    else:
        lines = ["%s,onset_voltage,instability_lhs,unstable\n" % cfg.sweep_param]
        for val in cfg.sweep_values:
            if cfg.sweep_param == "r1":
                d, r1 = cfg.device, val
            else:
                d = derive_device_params(replace(cfg.emulator, r_int=val))
                r1 = cfg.r1
            lines.append("%.9g,%.9g,%.9g,%d\n" % (
                val, onset_voltage(d, r1), instability_lhs(d, r1),
                int(is_unstable(d, r1))))
    with _output(cfg) as fh:
        fh.writelines(lines)


def run_gate_verb(cfg: RunConfig) -> None:
    circuit = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                           v_hold_level=cfg.v0)
    m1, m2, cycled = relax_program(circuit, cfg.v1, cfg.v2, cfg.v3)
    with _output(cfg) as fh:
        fh.write("a,b,m1,m2\n")
        # input pair k = 2a+b is bit k of the code
        for k, (a, b) in enumerate(INPUT_PAIRS):
            fh.write("%d,%d,%d,%d\n" % (a, b, m1 >> k & 1, m2 >> k & 1))
        for register, code in (("m1", m1), ("m2", m2)):
            fh.write("code_%s = %d (%s)\n" % (register, code, GATE_NAMES[code]))
        fh.write("oscillated = %s\n" % ("true" if cycled else "false"))


# CSV row ending by code_m1 * 16 + code_m2, and 256 for an oscillating cell
_MAP_SUFFIXES = ["%d,%s,%d,%s,0\n" % (c1, GATE_NAMES[c1], c2, GATE_NAMES[c2])
                 for c1 in range(16) for c2 in range(16)]
_MAP_SUFFIXES.append("%d,OSC,%d,OSC,1\n" % (OSCILLATING_CODE, OSCILLATING_CODE))
# heatmap glyph by code byte
_GLYPH_BYTES = np.frombuffer(
    (_MAP_GLYPHS + "?" * (OSCILLATING_CODE - 16) + _OSC_GLYPH).encode(),
    dtype=np.uint8)


def run_map_verb(cfg: RunConfig) -> None:
    """The (V1, V2) gate-map sweep: CSV to the output sink, heatmaps to stdout."""
    circuit = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                           v_hold_level=cfg.v0)
    v1_axis = axis_points(cfg.v1_axis)
    v2_axis = axis_points(cfg.v2_axis)
    codes = sweep_codes(circuit, cfg.v3, v1_axis, v2_axis)

    code_m1 = codes[0].astype(np.intp)
    ends = np.where(code_m1 == OSCILLATING_CODE, 256, code_m1 * 16 + codes[1])
    cols = ["%.9g," % v2 for v2 in v2_axis]
    with _output(cfg) as fh:
        fh.write("# grid = %dx%d\n" % (len(v1_axis), len(v2_axis)))
        fh.write("v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated\n")
        for v1, row in zip(v1_axis, ends.tolist()):
            head = "%.9g," % v1
            fh.write("".join([head + col + _MAP_SUFFIXES[k]
                              for col, k in zip(cols, row)]))
    sys.stdout.write(_heatmaps(codes, v1_axis))


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
        # built per call, so that a replaced module attribute is the one run
        {"iv": run_iv_sweep, "transient": run_transient_verb,
         "osc-check": run_osc_check, "gate": run_gate_verb,
         "map": run_map_verb}[cfg.verb](cfg)
        sys.stdout.flush()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ResolutionError as e:
        print(f"numerical guard violation: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # a failed write to stdout (`--out` is guarded)
        print(f"cannot write to stdout: {e.strerror}", file=sys.stderr)
        # the interpreter's final flush of what is left then goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
