"""A fixed pure-Python reference load that measures how fast the host runs.

On a shared host the same program can run 20-60% slower for minutes at a
time, with its CPU time rising as much as its wall time: the core is not
taken away, it executes more slowly. The end-to-end timings therefore run
this load right before and right after each timed CLI run, on the same
core, and scale the timing by how fast the load ran then (see run.py).

The load is interpreter work of the kinds the CLI does: frozen dataclasses
built and replaced, small tuples, lists and dicts, float arithmetic and
float formatting. It imports nothing from the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

# A chunk took 13-16 ms on a 2-vCPU Xeon VM when the host was quiet and up to
# 30 ms when it was busy (Python 3.11). The scaled timings read as seconds on
# a host where a chunk takes exactly this long, about those of a quiet host.
NOMINAL_CHUNK_S = 0.015


@dataclass(frozen=True)
class _Node:
    r_on: float
    r_off: float
    v_on: float
    v_off: float


@dataclass(frozen=True)
class _Step:
    t: float
    v: float
    on: bool
    held: float = 0.0


def _relax(a: _Node, b: _Node, v1: float, v2: float) -> tuple:
    """Fixed point of a two-switch divider, or the state where it cycles."""
    states = (False, False)
    seen = [states]
    while True:
        g1 = 1.0 / (a.r_on if states[0] else a.r_off)
        g2 = 1.0 / (b.r_on if states[1] else b.r_off)
        vn = (v1 * g1 + v2 * g2) / (g1 + g2 + 1e-3)
        nxt = (v1 - vn > (a.v_off if states[0] else a.v_on),
               v2 - vn > (b.v_off if states[1] else b.v_on))
        if nxt == states or nxt in seen:
            return states
        seen.append(nxt)
        states = nxt


def chunk(cells: int = 1500, steps: int = 4000) -> int:
    """One fixed unit of reference work; returns a value so none is skipped.

    It relaxes a grid of small switch networks built from frozen dataclasses
    and keeps every result, like a gate map, then steps a frozen state
    through time and formats a CSV row per step, like a transient.
    """
    a = _Node(300.0, 600.0, 2.2, 1.6)
    grid = {}
    for k in range(cells):
        b = replace(a, r_on=200.0 + k % 7)
        v1, v2 = (k % 41) * 0.17, (k % 37) * 0.19
        grid[(v1, v2, k)] = {(0, 0): _relax(a, b, v1, v2),
                             (1, 1): _relax(b, a, v2, v1)}
    state = _Step(0.0, 0.0, False)
    rows = []
    for i in range(steps):
        v = (i % 500) * 0.016
        on = v > 2.2 if not state.on else v > 1.6
        state = _Step(i * 1e-5, v, on, state.held + 1e-5 if on == state.on else 0.0)
        rows.append("%.9g,%.9g,%d,%.9g" % (state.t, state.v, state.on, state.held))
    return len(grid) + len("\n".join(rows))


def seconds_per_chunk(seconds: float) -> float:
    """Run whole chunks for about `seconds`; the mean seconds one took.

    The collector is off while it runs, so the time does not depend on how
    many objects the caller holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        done = 0
        t0 = time.perf_counter()
        while True:
            chunk()
            done += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / done
    finally:
        if enabled:
            gc.enable()
