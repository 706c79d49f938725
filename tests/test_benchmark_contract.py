"""The benchmark's contract with the program, read from perfbench/ as it is.

perfbench/ judges each workload's output with checks.py and counts the
program's calls by wrapping its functions by name (run.instrument with
spans.Recorder). These tests run both on the workloads shrunk as
selftest.py shrinks them, through cli.main in this process, so that a
change that breaks an output check or a counted name fails here, not only
in CI's benchmark steps. Nothing under perfbench/ is written.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks
import run
import selftest
from spans import Recorder

SEED = selftest.SEED


def _workload(name, tmp_path):
    return run.Workload(name, selftest.shrink(name), SEED, tmp_path)


def _problems(wl, out_text, stdout_text):
    if wl.verb == "map":
        return checks.check_map(wl.cfg, out_text, stdout_text, wl.seed, wl.work)
    return checks.check_transient(wl.cfg, out_text, wl.work)


@pytest.mark.parametrize("name", sorted(selftest.SMALL))
def test_checks_pass_and_flag_a_corrupt_row(tmp_path, name):
    """The checks pass on the program's own output, and flag it once one
    digit is appended to the third field of the last row: a gate code on
    the map, v_device on a transient (selftest.py's corruption)."""
    wl = _workload(name, tmp_path)
    _, problems = run.run_in_process(wl)
    assert problems == []
    out, stdout = wl.out_path.read_text(), wl.stdout_path.read_text()
    assert _problems(wl, out, stdout) == []

    lines = out.splitlines()
    fields = lines[-1].split(",")
    fields[2] += "1"
    lines[-1] = ",".join(fields)
    assert _problems(wl, "\n".join(lines) + "\n", stdout) != []


@pytest.mark.parametrize("name, key, count", [
    # 4 calls for relax_program and 4 for the 15x15 grid's one block
    ("map-mixed", "logic.solve_node", 8),
    ("transient-sweep", "circuit.samples", 5001),
    ("transient-osc", "circuit.samples", 5001),
])
def test_instrumented_counts(tmp_path, name, key, count):
    """The counts that CI's trace step pins at full size (132 solve_node
    calls on map-mixed, 200001 samples on each transient) come from
    functions that instrument wraps by name; shrunk, they read these."""
    wl = _workload(name, tmp_path)
    rec = Recorder("voltmem")
    _, problems = run.run_in_process(wl, rec)
    assert problems == []
    assert rec.counts[key] == count
