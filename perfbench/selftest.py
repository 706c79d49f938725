#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark: `python3 perfbench/selftest.py`.

Runs every workload shrunk to a 15x15 map or a 5001-sample transient, in
both modes, and asserts that every metric BENCHMARK.json names is emitted
with its unit, that the output checks pass on the program as it is, and
that a CLI whose output file is corrupted after each run is counted as
failed. Exits non-zero on the first broken assertion. Takes under a minute.
"""

from __future__ import annotations

import copy
import sys

import run

SEED = 3
SECONDS = 0.5
SMALL = {
    "map-mixed": ({"sweep": {"v1": [-1, 6, 0.5], "v2": [-1, 6, 0.5]}}, 225),
    "transient-sweep": ({"circuit": {"t_end": 0.05}}, 5001),
    "transient-osc": ({"circuit": {"t_end": 0.05}}, 5001),
}

# Runs the real CLI, then appends a digit to the third field of the last CSV
# row: a gate code on the map, v_device on a transient.
CORRUPTING_CLI = """
import sys
from voltmem import cli
code = cli.main(sys.argv[1:])
path = sys.argv[sys.argv.index("--out") + 1]
with open(path) as fh:
    lines = fh.read().splitlines()
fields = lines[-1].split(",")
fields[2] += "1"
lines[-1] = ",".join(fields)
with open(path, "w") as fh:
    fh.write("\\n".join(lines) + "\\n")
sys.exit(code)
"""


def shrink(name: str) -> dict:
    spec = copy.deepcopy(run.SPEC["workloads"][name])
    overrides, work = SMALL[name]
    for block, values in overrides.items():
        spec["config"].setdefault(block, {}).update(values)
    spec["work"] = work
    return spec


def check_result(label: str, result: dict, group: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label
    declared = {m["name"]: m["unit"] for m in run.BENCH[group]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, f"{label}: {emitted} != {declared}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def main() -> int:
    for name in SMALL:
        spec = shrink(name)
        plain = run.run_workload(name, spec, SEED, SECONDS, trace=False)
        check_result(f"{name} end to end", plain, "end_to_end")
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

        traced = run.run_workload(name, spec, SEED, SECONDS, trace=True)
        check_result(f"{name} traced", traced, "per_layer")
        assert traced["correct"] and traced["failed"] == 0, (name, traced)
        layer = {k: m["value"] for k, m in traced["metrics"].items()}
        if spec["verb"] == "map":
            assert layer["logic.gate_calls"] == spec["work"], layer
            assert layer["circuit.samples"] == 0, layer
        else:
            assert layer["circuit.samples"] == spec["work"], layer
            assert layer["device.step_calls"] == spec["work"], layer
            assert layer["logic.gate_calls"] == 0, layer

        broken = run.run_workload(name, spec, SEED, SECONDS, trace=False,
                                  launcher=[sys.executable, "-c",
                                            CORRUPTING_CLI])
        assert not broken["correct"], (name, broken)
        assert broken["failed"] == broken["attempted"] >= 1, (name, broken)
        print(f"{name}: ok ({plain['attempted']} clean runs, "
              f"{broken['failed']}/{broken['attempted']} corrupted runs "
              f"counted as failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
