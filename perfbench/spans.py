"""In-memory span recorder that traces program functions from outside.

Functions are wrapped by attribute replacement: every module of the package
that binds the same function object gets the wrapper, so calls through
`from .x import f` names are caught too, and nothing under `src/` is edited.
Each wrapped call records (name, start, end, parent) into flat arrays; the
arrays are written out once, when the caller asks, after the run. Used as a
context manager, the recorder restores the original attributes on exit.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Recorder:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _owners(self, owner, attr: str):
        """The package modules that bind owner.attr, or the class itself."""
        target = getattr(owner, attr)
        if isinstance(owner, type):
            return [owner]
        return [mod for name, mod in sorted(sys.modules.items())
                if (name == self.package or name.startswith(self.package + "."))
                and getattr(mod, attr, None) is target]

    def _install(self, owner, attr: str, wrapper) -> None:
        for o in self._owners(owner, attr):
            self._patches.append((o, attr, o.__dict__[attr]))
            setattr(o, attr, wrapper)

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped so each call records a span; observe(args, result)
        runs after the span closes, for counts derived from the call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = (self._name_id, self._parent,
                                       self._start, self._end)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def trace(self, owner, attr: str, name: str, observe=None) -> None:
        self._install(owner, attr, self.span(name, getattr(owner, attr), observe))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls only: for functions too hot to record a span per call."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        """Restore every replaced attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly because the program is single-threaded.
        """
        nid = np.frombuffer(self._name_id, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: (int(calls[k]), float(total[k]), float(own[k]))
                for k, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self._name_id, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start), end=np.frombuffer(self._end))
