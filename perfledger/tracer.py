"""In-memory span tracing through wrappers installed from outside ``src/``.

A :class:`SpanLog` stores one span per wrapped call -- metric key, parent
span, start and end -- in flat arrays, so a traced codec run with a
million calls stays small.  :func:`install` patches each target where it
is looked up: a method on its class, a module function in every loaded
``repro`` module whose namespace holds that function object (names that
``encoder.py`` imports from ``prediction`` are patched in ``encoder.py``
too).  :func:`uninstall` restores every original.

Busy time (``.s``) of a key counts only its outermost spans, so a
recursive call is not counted twice; self time (``.self_s``) is a span's
duration minus the union of its children's intervals clipped to it, so
overlapping siblings are not subtracted twice either.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: ``(counter, amount)``: ``amount(result)`` is added to the named
#: counter after each call.
Tally = Tuple[str, Callable[[Any], float]]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Class.method`` or ``module:function``."""

    key: str
    path: str
    tallies: Tuple[Tally, ...] = ()


class SpanLog:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self, keys: Sequence[str]) -> None:
        self.keys: List[str] = list(keys)
        self.key = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.nested = array("b")
        self.counters: Dict[str, float] = defaultdict(float)
        self.recording = False
        self._stack: List[int] = []
        self._depth = [0] * len(self.keys)

    def __len__(self) -> int:
        return len(self.t0)

    def open(self, key: int) -> int:
        index = len(self.t0)
        self.key.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._depth[key] > 0)
        self._depth[key] += 1
        self._stack.append(index)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return index

    def close(self, index: int, key: int) -> None:
        self.t1[index] = time.perf_counter()
        self._stack.pop()
        self._depth[key] -= 1

    def add(self, key: int, parent: int, t0: float, t1: float,
            nested: bool = False) -> int:
        """Append a finished span (tests build synthetic trees with this)."""
        index = len(self.t0)
        self.key.append(key)
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        self.nested.append(nested)
        return index


def self_times(parent: Sequence[int], t0: Sequence[float],
               t1: Sequence[float]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and merged, so two
    overlapping siblings are subtracted once, and a child that outlives
    its parent only removes the part inside it.
    """
    own = [b - a for a, b in zip(t0, t1)]
    children: Dict[int, List[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    for up, kids in children.items():
        lo, hi = t0[up], t1[up]
        covered, reach = 0.0, lo
        for kid in sorted(kids, key=t0.__getitem__):
            start, end = max(t0[kid], reach), min(t1[kid], hi)
            if end > start:
                covered += end - start
                reach = end
        own[up] -= covered
    return own


@dataclass
class KeyTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(log: SpanLog) -> Dict[str, KeyTotals]:
    """Per-key call counts, busy time and self time."""
    totals = {key: KeyTotals() for key in log.keys}
    own = self_times(log.parent, log.t0, log.t1)
    for index, key in enumerate(log.key):
        row = totals[log.keys[key]]
        row.calls += 1
        row.self_s += own[index]
        if not log.nested[index]:
            row.busy_s += log.t1[index] - log.t0[index]
    return totals


def _wrap(fn: Callable, key: int, log: SpanLog,
          tallies: Tuple[Tally, ...]) -> Callable:
    if not tallies:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not log.recording:
                return fn(*args, **kwargs)
            index = log.open(key)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index, key)
        return traced

    @functools.wraps(fn)
    def traced_tally(*args: Any, **kwargs: Any) -> Any:
        if not log.recording:
            return fn(*args, **kwargs)
        index = log.open(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index, key)
        for counter, amount in tallies:
            log.counters[counter] += amount(result)
        return result
    return traced_tally


#: (owner, attribute, original value) for every patch, for uninstall.
Patches = List[Tuple[Any, str, Any]]


def install(targets: Sequence[Target], log: SpanLog) -> Patches:
    """Wrap every target; returns what :func:`uninstall` must restore."""
    patches: Patches = []
    key_index = {key: i for i, key in enumerate(log.keys)}
    for target in targets:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        key = key_index[target.key]
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(
                    _wrap(raw.__func__, key, log, target.tallies))
            else:
                wrapped = _wrap(raw, key, log, target.tallies)
            patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(fn, key, log, target.tallies)
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is fn:
                    patches.append((loaded, binding, fn))
                    setattr(loaded, binding, wrapped)
    return patches


def uninstall(patches: Patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
