"""In-memory span recorder for the traced benchmark run.

The recorder wraps library functions from outside the package. Each call
appends one span (name, start, end, parent) to typed arrays, which stay in
memory until the run ends. Self time is derived afterwards: a span's
duration minus the time its child spans cover. Calls on one thread nest
properly, so the children of a span are disjoint intervals inside it and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np


class Recorder:
    """Spans of wrapped calls plus per-name error and result counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.errors[name] = 0
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Callable[[Any], None] | None = None) -> Callable:
        """Return `fn` wrapped so each call records a span named `name`.

        `observe`, if given, sees each returned value (outside the span).
        Exceptions are counted per name and re-raised unchanged.
        """
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        own = self_times(parent, start, end)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own_sum = np.bincount(name_id, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own_sum[i])}
            for i, name in enumerate(self.names)
        }

    def child_calls(self, child: str, parent_name: str) -> int:
        """Number of `child` spans whose direct parent is a `parent_name` span."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        name_id, parent, _, _ = self.arrays()
        mask = (name_id == self._ids[child]) & (parent >= 0)
        return int(np.sum(name_id[parent[mask]] == self._ids[parent_name]))

    def save(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


@contextmanager
def patched(
    recorder: Recorder,
    functions: list[tuple[str, str, str]],
    closures: list[tuple[str, str, str]],
    observers: dict[str, Callable[[Any], None]] | None = None,
) -> Iterator[None]:
    """Install span wrappers at every binding site; restore them on exit.

    `functions` holds (module, qualname, span) triples such as
    ("slowent.cutstack", "Schedule.m", "cutstack.Schedule.m"). A
    module-level function is replaced in every loaded `slowent` module that
    binds it, so `from x import f` copies are traced too; a method is
    replaced on its class. `closures` holds the same triples for factories
    whose returned callables are traced under the span name. `observers`
    maps a span name to a callback that sees each returned value.
    """
    observers = observers or {}
    undo: list[tuple[Any, str, Any]] = []

    def replace(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, qualname, span in functions:
            module = sys.modules[module_name]
            owner_path, _, attr = qualname.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                replace(owner, attr, recorder.wrap(span, owner.__dict__[attr], observers.get(span)))
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(span, original, observers.get(span))
            for name, mod in list(sys.modules.items()):
                if name == "slowent" or name.startswith("slowent."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, key, wrapper)
        for module_name, qualname, span in closures:
            owner_path, _, attr = qualname.rpartition(".")
            owner = getattr(sys.modules[module_name], owner_path)
            factory = owner.__dict__[attr]

            def traced_factory(*args, _factory=factory, _span=span, **kwargs):
                return recorder.wrap(_span, _factory(*args, **kwargs))

            replace(owner, attr, functools.wraps(factory)(traced_factory))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
