"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps the public entry point of each layer where its
callers bind it: the defining module, every ``repro`` module that imported
the function by name, and the class for methods.  Each wrapped call records
a span (name, start, end, parent span, request id) in memory; the spans are
written out once, when the traced pass ends.

Functions called once per RR set (the scalar samplers) would add a span per
call, hundreds of thousands per run.  They are *leaves*: their calls and
seconds are summed per enclosing span instead, which keeps the self-time
arithmetic exact at a fraction of the memory.

Parents come from a :mod:`contextvars` variable, so the spans of one asyncio
task (one server connection) nest correctly while other tasks interleave.
Work handed to an executor thread starts a new root there; its request id
comes from the request object the entry point receives.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (current span id, request id); span id 0 means "no enclosing span"
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "cwbench_span", default=(0, None))

Counter = Callable[["Tracer", Any, tuple, dict], None]


class Tracer:
    """In-memory span recorder with install/uninstall of entry wrappers."""

    def __init__(self) -> None:
        #: [span id, name, start, end, parent id, request id]
        self.spans: List[list] = []
        #: (parent id, leaf name) -> [calls, seconds]
        self.leaves: Dict[Tuple[int, str], List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Attribute spans opened inside the block to ``request_id``."""
        token = _CURRENT.set((_CURRENT.get()[0], request_id))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def _open(self, name: str, request_id: Any):
        parent, inherited = _CURRENT.get()
        span_id = next(self._ids)
        self._names[span_id] = name
        token = _CURRENT.set(
            (span_id, inherited if request_id is None else request_id))
        nested = self._names.get(parent) == name
        return span_id, parent, token, nested

    def _close(self, span_id, name, start, parent, token, request_id):
        end = time.perf_counter()
        _CURRENT.reset(token)
        if request_id is None:
            request_id = _CURRENT.get()[1]
        self.spans.append([span_id, name, start, end, parent, request_id])

    def _span_wrapper(self, func, name: str, count: Optional[Counter],
                      request: Optional[Callable[[tuple], Any]]):
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                rid = request(args) if request else None
                span_id, parent, token, nested = tracer._open(name, rid)
                start = time.perf_counter()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(span_id, name, start, parent, token, rid)
                if count is not None and not nested:
                    count(tracer, result, args, kwargs)
                return result
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rid = request(args) if request else None
            span_id, parent, token, nested = tracer._open(name, rid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_id, name, start, parent, token, rid)
            if count is not None and not nested:
                count(tracer, result, args, kwargs)
            return result
        return wrapper

    def _leaf_wrapper(self, func, name: str, count: Optional[Counter]):
        leaves = self.leaves
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            key = (_CURRENT.get()[0], name)
            cell = leaves.get(key)
            if cell is None:
                cell = leaves[key] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed
            if count is not None:
                count(tracer, result, args, kwargs)
            return result
        return wrapper

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, *,
             count: Optional[Counter] = None,
             request: Optional[Callable[[tuple], Any]] = None,
             leaf: bool = False) -> None:
        """Replace ``owner.attr`` (a module function or a class attribute)
        with a recording wrapper, everywhere a ``repro`` module binds it."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = (self._leaf_wrapper(func, name, count) if leaf
                   else self._span_wrapper(func, name, count, request))
        replacement = classmethod(wrapper) if isinstance(raw, classmethod) \
            else wrapper
        self._patch(owner, attr, replacement)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is owner:
                continue
            for bound, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, bound, replacement)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span or leaf name, minus the time of child spans
        and leaves (a layer's own work)."""
        child: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _rid in self.spans:
            if parent:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (parent, name), (_calls, seconds) in self.leaves.items():
            child[parent] += seconds
            totals[name] += seconds
        for sid, name, start, end, _parent, _rid in self.spans:
            totals[name] += (end - start) - child.get(sid, 0.0)
        return dict(totals)

    def inclusive_times(self) -> Dict[str, float]:
        """Seconds per span name, counting only outermost spans of a name
        (a span nested in one of the same name is already inside it)."""
        totals: Dict[str, float] = defaultdict(float)
        for _sid, name, start, end, parent, _rid in self.spans:
            if self._names.get(parent) != name:
                totals[name] += end - start
        return dict(totals)

    def calls(self, name: str) -> int:
        """Outermost calls of span or leaf ``name``."""
        spans = sum(1 for _s, n, _a, _b, parent, _r in self.spans
                    if n == name and self._names.get(parent) != name)
        leaves = sum(int(c) for (_p, n), (c, _s) in self.leaves.items()
                     if n == name)
        return spans + leaves

    def count_inside(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that sit inside a span named ``ancestor``."""
        parents = {sid: parent for sid, _n, _a, _b, parent, _r
                   in self.spans}
        found = 0
        for _sid, span_name, _a, _b, parent, _r in self.spans:
            if span_name != name:
                continue
            node = parent
            while node and self._names.get(node) != ancestor:
                node = parents.get(node, 0)
            found += bool(node)
        return found

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of all span intervals within [start, end]."""
        intervals = sorted((max(a, start), min(b, end))
                           for _s, _n, a, b, _p, _r in self.spans
                           if b > start and a < end)
        covered, cursor = 0.0, start
        for a, b in intervals:
            if b <= cursor:
                continue
            covered += b - max(a, cursor)
            cursor = b
        return covered

    def dump(self, path: Path, origin: float) -> None:
        """Write spans (times relative to ``origin``) and leaf totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name,
                    "start_s": round(start - origin, 6),
                    "end_s": round(end - origin, 6),
                    "parent": parent, "request": rid}) + "\n")
            for (parent, name), (calls, seconds) in sorted(
                    self.leaves.items()):
                handle.write(json.dumps({
                    "leaf": name, "parent": parent, "calls": int(calls),
                    "seconds": round(seconds, 6)}) + "\n")
