"""Command-line front end: iv, transient, osc-check, gate and map verbs.

Every verb writes CSV (or plain text for gate/osc-check) to one output sink
prefixed with a reproducibility header: the fully resolved configuration
plus the seed as `#` comment lines. Identical config + seed gives
byte-identical output. `iv` and `map` write each chunk as soon as their
generator yields it (`circuit.iv_sweep`'s points, `logic.gate_map`'s blocks
of cells); the other verbs solve first, then write.

A verb imports the modules it runs when it runs: `circuit` (and `rows`, its
CSV row writer) for iv and transient, `logic` for gate and map,
`oscillation` for osc-check. This module holds no device model and runs no
kernel: it writes what those return. So it takes ResolutionError from
`device` and _CSV_CHUNK_ROWS from `config`.
The process entry is `run`; `main` is for callers in a running interpreter.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import config as cfgmod
from .config import _CSV_CHUNK_ROWS, ConfigError, RunConfig, axis_points
from .device import ResolutionError

_MAP_GLYPHS = "0123456789ABCDEF"
_OSC_GLYPH = "*"


@contextmanager
def _output(cfg: RunConfig):
    """The run's output sink, `--out` or stdout, with the `# ` resolved-config
    header written. A verb enters it only once nothing but a write can fail,
    so that a failed run leaves no `--out` file: `iv` and `map` before their
    first chunk, every other verb once its solver has returned."""
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
    """The `iv` verb: circuit.iv_sweep's chunks as v,i,conducting rows."""
    from .circuit import iv_sweep
    from .rows import csv_rows
    with _output(cfg) as fh:
        fh.write("v,i,conducting\n")
        for cols in iv_sweep(cfg.device, cfg.iv_amplitude, cfg.iv_points, cfg.seed):
            fh.write(csv_rows(cols))


def run_transient_verb(cfg: RunConfig) -> None:
    from .circuit import run_transient
    trace = run_transient(cfg.r1, cfg.device, cfg.source, cfg.dt, cfg.t_end,
                          seed=cfg.seed)
    with _output(cfg) as fh:
        trace.to_csv(fh, cfg.source, cfg.r1, cfg.device, cfg.digitize)


def run_osc_check(cfg: RunConfig) -> None:
    from .oscillation import instability_lhs, is_unstable, onset_voltage
    if cfg.sweep_param is None:
        d = cfg.device
        lines = ["onset_voltage = %.9g\n" % onset_voltage(d, cfg.r1),
                 "instability_lhs = %.9g\n" % instability_lhs(d, cfg.r1),
                 "v_hold_pos = %.9g\n" % d.v_hold_pos,
                 "unstable = %s\n"
                 % ("true" if is_unstable(d, cfg.r1) else "false")]
    else:
        lines = ["%s,onset_voltage,instability_lhs,unstable\n" % cfg.sweep_param]
        for val, d, r1 in cfg.sweep_rows:
            lines.append("%.9g,%.9g,%.9g,%d\n" % (
                val, onset_voltage(d, r1), instability_lhs(d, r1),
                int(is_unstable(d, r1))))
    with _output(cfg) as fh:
        fh.writelines(lines)


def run_gate_verb(cfg: RunConfig) -> None:
    from .logic import GATE_NAMES, INPUT_PAIRS, gate_codes
    m1, m2, cycled = gate_codes(cfg.logic_circuit, cfg.v1, cfg.v2, cfg.v3)
    with _output(cfg) as fh:
        fh.write("a,b,m1,m2\n")
        # input pair k = 2a+b is bit k of the code
        for k, (a, b) in enumerate(INPUT_PAIRS):
            fh.write("%d,%d,%d,%d\n" % (a, b, m1 >> k & 1, m2 >> k & 1))
        for register, code in (("m1", m1), ("m2", m2)):
            fh.write("code_%s = %d (%s)\n" % (register, code, GATE_NAMES[code]))
        fh.write("oscillated = %s\n" % ("true" if cycled else "false"))


def _byte_table(texts) -> np.ndarray:
    """The ASCII `texts` as the rows of a uint8 array, NUL-padded."""
    return np.array([t.encode() for t in texts]).view(np.uint8).reshape(len(texts), -1)


def _axis_table(axis: np.ndarray) -> np.ndarray:
    """_byte_table of each axis value's "%.9g,", formed _CSV_CHUNK_ROWS values
    at a time. 16 bytes hold any of them: a config's axis value is 0 or of
    magnitude 1e-28 to 1e13, so its exponent has two digits."""
    table, width = np.zeros((len(axis), 16), dtype=np.uint8), 1
    for start in range(0, len(axis), _CSV_CHUNK_ROWS):
        rows = _byte_table(["%.9g," % v for v in axis[start:start + _CSV_CHUNK_ROWS].tolist()])
        table[start:start + len(rows), :rows.shape[1]] = rows
        width = max(width, rows.shape[1])
    return table[:, :width]


def run_map_verb(cfg: RunConfig) -> None:
    """The (V1, V2) gate-map sweep: CSV to the output sink, heatmaps to stdout.
    It writes each block of logic.gate_map's outcomes as it is yielded: a
    block's CSV text lives only while it is written, and its outcomes go into
    the heatmaps' array, 2 bytes a cell."""
    from .logic import GATE_NAMES, OSCILLATING_CODE, gate_map
    v1_axis = axis_points(cfg.v1_axis)
    v2_axis = axis_points(cfg.v2_axis)
    heads, cols = _axis_table(v1_axis), _axis_table(v2_axis)
    suffixes = _byte_table(
        ["%d,%s,%d,%s,0\n" % (c1, GATE_NAMES[c1], c2, GATE_NAMES[c2])
         for c1 in range(16) for c2 in range(16)]
        + ["%d,OSC,%d,OSC,1\n" % (OSCILLATING_CODE, OSCILLATING_CODE)])
    # heatmap rows run from the highest v2 down, columns over v1, and
    # outcome 257 ends a row
    rows = np.full((len(v2_axis), len(v1_axis) + 1), 257, dtype=np.uint16)
    cell_outcomes = rows[::-1, :-1].T  # a view indexed [v1, v2]
    with _output(cfg) as fh:
        fh.write("# grid = %dx%d\n" % (len(v1_axis), len(v2_axis)))
        fh.write("v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated\n")
        for at, ends in gate_map(cfg.logic_circuit, v1_axis, v2_axis, cfg.v3):
            cell_outcomes[at] = ends
            parts = heads[at[0], None], cols[at[1]], suffixes.take(ends, axis=0)
            cells = np.concatenate([np.broadcast_to(p, ends.shape + p.shape[-1:])
                                    for p in parts], axis=2)
            fh.write(cells.tobytes().translate(None, b"\0").decode("ascii"))
    # a register's glyph by outcome is the hex digit of its code, or * where
    # cycled; about _CSV_CHUNK_ROWS glyphs a write
    lines = max(1, _CSV_CHUNK_ROWS // rows.shape[1])
    for sep, register, digits in (("", "M1", "".join(g * 16 for g in _MAP_GLYPHS)),
                                  ("\n", "M2", _MAP_GLYPHS * 16)):
        glyphs = np.frombuffer((digits + _OSC_GLYPH + "\n").encode(), dtype=np.uint8)
        sys.stdout.write(f"{sep}{register} register gate map "
                         f"(rows: v2 high->low, cols: v1 {v1_axis[0]:g}..{v1_axis[-1]:g}; "
                         f"glyph = hex gate code, {_OSC_GLYPH} = oscillating)\n")
        for start in range(0, len(rows), lines):
            sys.stdout.write(glyphs[rows[start:start + lines]].tobytes().decode())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltmem",
        description="Volatile-memristor circuit simulator (hysteresis, "
                    "oscillations, implication logic maps)")
    parser.add_argument("verb", choices=cfgmod.VERBS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
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


def run() -> None:
    """The process entry (the `voltmem` script, `python -m voltmem.cli`).
    What is imported by now lives until exit, so gc.freeze keeps it out of
    every collection; main, for callers in a running interpreter, never
    freezes their heap. Once main returns, stdout and stderr are flushed and
    the process ends with os._exit, skipping the interpreter's teardown (its
    final collections and the freeing of every module); main's sinks are
    closed by then. A failed flush exits 2, as main's own does."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
