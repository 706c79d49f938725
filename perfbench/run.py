#!/usr/bin/env python3
"""voltmem benchmark: the `voltmem` CLI of this checkout on fixed workloads.

    python3 perfbench/run.py --workload map-mixed --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from `src/` next to this
directory. Workload configs, input sizes and the reasons for each workload
are in perfbench/spec.json; metric names and units in BENCHMARK.json.

--trace 0 (end to end, tracing off): the CLI runs as a child process, one
at a time, repeated until --seconds is used up. Reports the median wall time
from launch to exit, work per second of that median, the child's peak RSS
from os.wait4, and the median set-up time of a fresh interpreter that
imports voltmem.cli and loads the workload's config (one such probe before
each CLI run, at least ten).

Both times are scaled to the host's speed. On a shared host the same CLI run
takes 20-60% longer for minutes at a time, in CPU time as much as in wall
time. So this process and its children are pinned to one core, and between
CLI runs this process runs a fixed reference load (perfbench/reference.py)
for a quarter as long as the last CLI run. Each CLI run and the set-up probe
before it are multiplied by NOMINAL_CHUNK_S over the mean reference chunk
time just before and just after them: they read as seconds on a host where
one chunk takes NOMINAL_CHUNK_S, and the slow drift no longer moves their
medians. The unscaled medians are printed on stderr.

--trace 1 (per layer): the CLI's `main` runs in this process, alternating
untraced and traced passes. The traced pass wraps the program's public
functions with spans (perfbench/spans.py) and counts; the difference of the
median pass times is the tracing overhead.

Every run's output is checked (perfbench/checks.py). A run fails on a
non-zero exit, a traceback on stderr, a failed check, or output bytes that
differ from the first repeat of the same seed. The last stdout line is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
sys.path.insert(0, str(SRC))

CLI = [sys.executable, "-m", "voltmem.cli"]
ENV = dict(os.environ, PYTHONPATH=str(SRC))
DRIVERS = {"map": "run_map_verb", "transient": "run_transient_verb"}
SETUP_PROBES = 10         # fewest fresh-interpreter set-up probes per run
MIN_REPEATS = 3           # CLI runs per measurement, even past --seconds
CHILD_TIMEOUT_S = 100     # kill a hung child so the run ends within 180 s
HARD_LIMIT_S = 140        # start no repeat expected to end after this
REF_SHARE = 0.25          # reference seconds after a CLI run, per CLI second
REF_FIRST_S = 1.0         # reference seconds before the first CLI run
REF_PROBE_S = 0.25        # reference seconds after a set-up probe alone

# Runs one CLI child and reports its wall time and rusage. A child's
# ru_maxrss starts at the RSS of the process it was forked from, so the CLI
# is launched from this small interpreter, not from the benchmark, whose
# parsed outputs would otherwise set the child's peak.
SPAWN = """
import json, os, signal, subprocess, sys, time
argv, limit, out, err = json.loads(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4]
with open(out, "wb") as so, open(err, "wb") as se:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=so, stderr=se)
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(limit)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
proc.returncode = code = os.waitstatus_to_exitcode(status)
print(json.dumps({"wall": wall, "code": code, "maxrss_kb": usage.ru_maxrss}))
"""

PROBE = """
import json, sys, time
raw = json.loads(sys.argv[1])
t0 = time.perf_counter()
import voltmem.cli
t1 = time.perf_counter()
from voltmem.config import load_config_dict
load_config_dict(raw)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "file": voltmem.cli.__file__}))
"""


class Workload:
    """One workload at one seed: its files, its config and its output check."""

    def __init__(self, name: str, spec: dict, seed: int, workdir: Path,
                 launcher=CLI):
        from voltmem.config import load_config_dict

        self.name, self.verb, self.work = name, spec["verb"], spec["work"]
        self.seed, self.launcher = seed, launcher
        self.raw = dict(spec["config"], verb=self.verb, seed=seed)
        self.cfg = load_config_dict(self.raw)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(spec["config"]))
        self.out_path = workdir / "out.csv"
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"
        self.argv = [self.verb, "--config", str(self.config_path),
                     "--out", str(self.out_path), "--seed", str(seed)]
        self._first = None    # (digest, problems) of the first output

    def judge(self) -> list[str]:
        """Problems with the output files just written; empty when correct."""
        import checks

        try:
            out = self.out_path.read_bytes()
            stdout = self.stdout_path.read_bytes()
        except FileNotFoundError as e:
            return [f"no output: {e}"]
        digest = hashlib.sha256(out + b"\0" + stdout).digest()
        if self._first is not None:
            if digest != self._first[0]:
                return ["output bytes differ from the first repeat"]
            return self._first[1]
        try:
            if self.verb == "map":
                problems = checks.check_map(self.cfg, out.decode(),
                                            stdout.decode(), self.seed,
                                            self.work)
            else:
                problems = checks.check_transient(self.cfg, out.decode(),
                                                  self.work)
        except Exception:  # a corrupt file may break parsing in any way
            problems = ["output check crashed:\n" + traceback.format_exc()]
        self._first = (digest, problems)
        return problems

    def out_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.out_path, self.stdout_path)
                   if p.exists())


def setup_probe(wl: Workload) -> dict:
    """Import and config-load seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(wl.raw)], env=ENV,
        capture_output=True, text=True, timeout=60, check=True)
    probe = json.loads(done.stdout)
    if not Path(probe["file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"voltmem imported from {probe['file']}, "
                           f"not from {SRC}")
    return probe


def top_up(wl: Workload, probes: list[dict]) -> list[dict]:
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(wl))
    return probes


def run_child(wl: Workload):
    """One CLI run: (wall seconds, peak RSS in MB, problems).

    The output itself is not judged here; call wl.judge() for that."""
    done = subprocess.run(
        [sys.executable, "-c", SPAWN, json.dumps(wl.launcher + wl.argv),
         str(CHILD_TIMEOUT_S), str(wl.stdout_path), str(wl.stderr_path)],
        env=ENV, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S + 30)
    child = json.loads(done.stdout)
    wall, mb = child["wall"], child["maxrss_kb"] / 1024
    if child["code"] != 0:
        return wall, mb, [f"exit code {child['code']}"]
    if "Traceback (most recent call last)" in wl.stderr_path.read_text(
            errors="replace"):
        return wall, mb, ["traceback on stderr"]
    return wall, mb, []


def measure_end_to_end(wl: Workload, seconds: float):
    import reference

    def setup_seconds():
        probe = setup_probe(wl)
        return probe["import_s"] + probe["load_s"]

    setup_probe(wl)           # writes the bytecode caches; not counted
    before = reference.seconds_per_chunk(REF_FIRST_S)
    setups, walls, scaled_setups, scaled_walls, rss = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        # one probe per repeat spreads them over the run, like the repeats
        setup = setup_seconds()
        wall, mb, problems = run_child(wl)
        after = reference.seconds_per_chunk(REF_SHARE * wall)
        scale = reference.NOMINAL_CHUNK_S / ((before + after) / 2)
        before = after
        problems = problems or wl.judge()
        setups.append(setup)
        walls.append(wall)
        scaled_setups.append(setup * scale)
        scaled_walls.append(wall * scale)
        rss.append(mb)
        failed += bool(problems)
        report(wl, problems)
        if wall >= CHILD_TIMEOUT_S:
            break
        elapsed = time.perf_counter() - start
        due = elapsed + (1 + REF_SHARE) * statistics.median(walls)
        if due > HARD_LIMIT_S or (len(walls) >= MIN_REPEATS and due > seconds):
            break
    while len(setups) < SETUP_PROBES:
        setup = setup_seconds()
        after = reference.seconds_per_chunk(REF_PROBE_S)
        setups.append(setup)
        scaled_setups.append(
            setup * reference.NOMINAL_CHUNK_S / ((before + after) / 2))
        before = after
    wall = statistics.median(scaled_walls)
    print(f"{wl.name}: {len(walls)} CLI runs, unscaled wall min "
          f"{min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s; unscaled setup median "
          f"{statistics.median(setups):.4f} s; scaled wall median "
          f"{wall:.4f} s", file=sys.stderr)
    metrics = {
        "wall_s": wall,
        "work_per_s": wl.work / wall,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return len(walls), failed, metrics


def instrument(rec, verb: str) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from voltmem import circuit, cli, config, device, logic

    counts = rec.counts
    for key in ("logic.oscillating_cells", "circuit.samples",
                "device.switch_events", "device.rng_draws"):
        counts[key] = 0

    def on_gate(args, res):
        counts["logic.oscillating_cells"] += res.oscillated

    def on_transient(args, trace):
        counts["circuit.samples"] += len(trace)

    def on_step(args, new):
        params, old = args[0], args[1]
        counts["device.switch_events"] += new.conducting != old.conducting
        # step_device draws both jitter offsets whenever no switch is pending
        if old.pending_target is None and params.jitter_sigma > 0:
            counts["device.rng_draws"] += 2

    rec.trace(logic, "run_gate", "logic.run_gate", on_gate)
    rec.count(logic, "solve_node", "logic.solve_node")
    rec.trace(circuit, "run_transient", "circuit.run_transient", on_transient)
    rec.trace(circuit.SourceWaveform, "value", "circuit.source")
    rec.trace(circuit.Trace, "to_csv", "circuit.to_csv")
    rec.trace(device, "step_device", "device.step", on_step)
    rec.trace(config, "load_config_dict", "config.load")
    rec.trace(cli, DRIVERS[verb], "cli.driver")


def run_in_process(wl: Workload, rec=None):
    """One pass of the CLI's main in this process: (wall seconds, problems)."""
    from voltmem import cli

    main = cli.main if rec is None else rec.span("cli.main", cli.main)
    with open(wl.stdout_path, "w") as fh, contextlib.redirect_stdout(fh), \
            (rec or contextlib.nullcontext()):
        if rec is not None:
            instrument(rec, wl.verb)
        t0 = time.perf_counter()
        try:
            code = main(wl.argv)
        except Exception:
            return time.perf_counter() - t0, [traceback.format_exc()]
        wall = time.perf_counter() - t0
    if code != 0:
        return wall, [f"exit code {code}"]
    return wall, wl.judge()


def layer_metrics(rec, out_bytes: int) -> dict:
    totals = rec.totals()
    calls = {name: t[0] for name, t in totals.items()}
    total = {name: t[1] for name, t in totals.items()}
    own = {name: t[2] for name, t in totals.items()}
    gates = calls.get("logic.run_gate", 0)
    solves = rec.counts["logic.solve_node"]
    osc = rec.counts["logic.oscillating_cells"]
    return {
        "logic.gate_s": total.get("logic.run_gate", 0.0),
        "logic.gate_calls": gates,
        "logic.node_solves": solves,
        "logic.solves_per_cell": solves / gates if gates else 0.0,
        "logic.oscillating_cells": osc,
        "logic.settled_frac": (gates - osc) / gates if gates else 0.0,
        "circuit.transient_s": own.get("circuit.run_transient", 0.0),
        "circuit.source_s": total.get("circuit.source", 0.0),
        "circuit.source_calls": calls.get("circuit.source", 0),
        "circuit.csv_s": total.get("circuit.to_csv", 0.0),
        "circuit.samples": rec.counts["circuit.samples"],
        "device.step_s": total.get("device.step", 0.0),
        "device.step_calls": calls.get("device.step", 0),
        "device.switch_events": rec.counts["device.switch_events"],
        "device.rng_draws": rec.counts["device.rng_draws"],
        "cli.format_s": own.get("cli.driver", 0.0),
        "cli.write_s": own.get("cli.main", 0.0),
        "cli.out_bytes": out_bytes,
    }


def measure_layers(wl: Workload, seconds: float):
    from spans import Recorder

    setup_probe(wl)
    probes, plain, traced, layers, failed = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        probes.append(setup_probe(wl))
        wall, problems = run_in_process(wl)
        plain.append(wall)
        failed += bool(problems)
        report(wl, problems)
        rec = Recorder("voltmem")
        wall, problems = run_in_process(wl, rec)
        traced.append(wall)
        failed += bool(problems)
        report(wl, problems)
        layers.append(layer_metrics(rec, wl.out_bytes()))
        pair = plain[-1] + traced[-1]
        due = time.perf_counter() - start + pair
        if due > seconds or due > HARD_LIMIT_S:
            break
    rec.save(BUILD / f"spans-{wl.name}-seed{wl.seed}.npz")
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    top_up(wl, probes)
    metrics["import.cli_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["config.load_s"] = statistics.median(p["load_s"] for p in probes)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return len(plain) + len(traced), failed, metrics


def _median(values):
    """Median that keeps counts whole; counts repeat exactly across passes."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def report(wl: Workload, problems: list[str]) -> None:
    for problem in problems[:5]:
        print(f"{wl.name} seed {wl.seed}: {problem}", file=sys.stderr)


def run_workload(name: str, spec: dict, seed: int, seconds: float,
                 trace: bool, launcher=CLI) -> dict:
    """Measure one workload and return the result object."""
    workdir = BUILD / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(name, spec, seed, workdir, launcher)
        measure = measure_layers if trace else measure_end_to_end
        attempted, failed, values = measure(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    group = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in BENCH[group]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    names = list(SPEC["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "voltmem" / "cli.py").is_file():
        print(f"no voltmem sources under {SRC}", file=sys.stderr)
        return 2
    import numpy
    print(f"machine: nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}", file=sys.stderr)
    # One core for this process and every child it starts, so the reference
    # load measures the speed of the core the CLI runs on. Cores of a shared
    # host slow down independently of each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, SPEC["workloads"][name], args.seed,
                              args.seconds, bool(args.trace))
        summary = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                            for k, m in result["metrics"].items())
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name} (seed {args.seed}): {summary}, fail_frac={fail_frac:g} "
              f"({result['failed']}/{result['attempted']})")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
