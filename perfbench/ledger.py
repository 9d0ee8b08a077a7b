"""Per-layer cost ledger: spans recorded around public calls.

The traced run installs wrappers (:func:`wrap`, applied through
:class:`Patches`) around the public methods each layer exposes.  Every
wrapped call records one span -- name, start, end, parent span and
request id -- into column arrays held in memory, written out once when
the run ends.  A span's *self time* is its duration minus the
durations of its direct children; the calls are single-threaded and
nested, so the self times of all spans under the timed root add up to
the root's duration exactly.

The untraced run never imports a wrapper into the program's objects:
the end-to-end numbers are measured with the program as users run it.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

#: Name of the span that encloses one timed phase.
ROOT = "bench.round"
#: Name of the spans around the host-speed calibration kernel.
CALIBRATE = "bench.calibrate"


class Recorder:
    """In-memory span store with one stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        self._request = 0

    def _intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str, new_request: bool = False) -> int:
        """Start a span under the innermost open one; returns its id."""
        if new_request:
            self._request += 1
        span = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        """End *span*, the innermost open one."""
        self.end[span] = perf_counter_ns()
        self._stack.pop()

    def rename(self, span: int, name: str) -> None:
        """Rename *span* (e.g. by the outcome of the call it timed)."""
        self.name_id[span] = self._intern(name)

    def __len__(self) -> int:
        return len(self.name_id)

    def write(self, path: Path) -> None:
        """Write every span as one compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))


class Ledger:
    """Per-name totals derived from a recorder's spans."""

    def __init__(self, recorder: Recorder) -> None:
        n = len(recorder)
        self.names = list(recorder.names)
        names = np.frombuffer(recorder.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(recorder.parent, dtype=np.int64)[:n]
        dur = (np.frombuffer(recorder.end, dtype=np.int64)[:n]
               - np.frombuffer(recorder.start, dtype=np.int64)[:n])
        self_ns = self_times(parent, dur)
        width = len(self.names)
        self._count = np.bincount(names, minlength=width)
        self._dur = np.bincount(names, weights=dur, minlength=width)
        self._self = np.bincount(names, weights=self_ns, minlength=width)
        self.total_self_ns = float(self_ns.sum())

    def _get(self, table: np.ndarray, name: str) -> float:
        if name not in self.names:
            return 0.0
        return float(table[self.names.index(name)])

    def count(self, name: str) -> int:
        return int(self._get(self._count, name))

    def total_ns(self, name: str) -> float:
        return self._get(self._dur, name)

    def self_ns(self, name: str) -> float:
        return self._get(self._self, name)

    def rows(self) -> List[tuple]:
        """``(name, calls, total_ns, self_ns)`` per span name."""
        return [(name, int(self._count[i]), float(self._dur[i]),
                 float(self._self[i])) for i, name in enumerate(self.names)]


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(dur, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested],
                           minlength=len(dur))
    return dur - children


def wrap(recorder: Recorder, fn: Callable, name,
         new_request: bool = False,
         rename: Optional[Callable] = None) -> Callable:
    """*fn* recording one span per call.

    *name* is a string, or a callable of the call's arguments for
    names that depend on the receiver (e.g. which tier).  *rename*
    maps the call's result to a final name (e.g. hit vs miss path).
    """
    def wrapper(*args, **kwargs):
        label = name(*args) if callable(name) else name
        span = recorder.open(label, new_request)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if rename is not None:
            recorder.rename(span, rename(result))
        return result
    return wrapper


class Patches:
    """Attribute replacements and hooks, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` (instance or class) until :meth:`undo`."""
        if attr in vars(owner):
            old = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def on_undo(self, fn: Callable[[], None]) -> None:
        self._undo.append(fn)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


__all__ = ["CALIBRATE", "Ledger", "Patches", "ROOT", "Recorder", "self_times",
           "wrap"]
