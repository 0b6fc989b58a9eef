"""Host-time spans recorded from outside the program.

:class:`SpanTracer` keeps every span in memory while the traced run
executes and attributes host time to layers:

* a span's **self time** is its duration minus the durations of its direct
  child spans, so the self times of all spans add up to the time covered
  by the outermost spans, whatever the nesting or recursion;
* a layer's **total time** counts only its outermost open span, so a
  recursive layer is not counted twice.

Hot layers (``emit=False``) are timed and counted like any other but keep
no per-call record; their time still leaves their parent's self time.
:func:`chrome_trace` writes the recorded spans in the Chrome trace-event
format that ``spectresim --trace`` writes and Perfetto loads.

:class:`Patches` installs wrappers over the program's functions and
methods and puts the originals back afterwards; nothing under ``src/``
is edited.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple


class Frame:
    """One open span."""

    __slots__ = ("name", "start", "child", "span_id", "parent_id", "cell")

    def __init__(self, name: str, start: float, span_id: int,
                 parent_id: int, cell: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id      # 0 for a hot span that keeps no record
        self.parent_id = parent_id  # nearest recorded ancestor, 0 at the root
        self.cell = cell


#: A recorded span: name, start, duration, self time, id, parent id, cell.
Span = Tuple[str, float, float, float, int, int, Optional[str]]


def _deactivate(ref: "weakref.ref[SpanTracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class SpanTracer:
    """In-memory span recorder with per-layer self and total times.

    Spans begin and end on one thread in strict nesting order.  The
    tracer records only in the process that created it: a forked pool
    worker inherits the wrappers, and :attr:`active` turns false there,
    making them plain calls, so work done in workers never reaches the
    parent's numbers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.active = True
        self.origin = clock()
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._open: Dict[str, int] = {}
        self._stack: List[Frame] = []
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=functools.partial(
            _deactivate, weakref.ref(self)))

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open (any depth)."""
        return self._open.get(name, 0) > 0

    def begin(self, name: str, emit: bool = True,
              cell: Optional[str] = None) -> Frame:
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = 0
        if parent is not None:
            parent_id = parent.span_id or parent.parent_id
            if cell is None:
                cell = parent.cell
        frame = Frame(name, 0.0, next(self._ids) if emit else 0, parent_id,
                      cell)
        stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        frame.start = self.clock()
        return frame

    def end(self, frame: Frame) -> None:
        now = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} ended out of order")
        stack.pop()
        name = frame.name
        duration = now - frame.start
        own = duration - frame.child
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        depth = self._open[name] = self._open[name] - 1
        if not depth:
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if stack:
            stack[-1].child += duration
        if frame.span_id:
            self.spans.append((name, frame.start, duration, own,
                               frame.span_id, frame.parent_id, frame.cell))

    def wrap(self, name: str, fn: Callable, emit: bool = True,
             cell: Optional[Callable[..., str]] = None) -> Callable:
        """``fn`` timed as a span called ``name``.

        ``cell`` maps the call's arguments to the id of the cell the span
        starts; spans opened inside it inherit that id.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.begin(name, emit,
                                 cell(*args, **kwargs) if cell else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return wrapper


def chrome_trace(tracer: SpanTracer,
                 other: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The recorded spans as a Chrome trace-event object (host µs)."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "perfbench"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "host-time"}},
    ]
    for name, start, duration, own, span_id, parent_id, cell in tracer.spans:
        args: Dict[str, Any] = {"span_id": span_id, "parent_id": parent_id,
                                "self_us": round(own * 1e6, 3)}
        if cell is not None:
            args["cell"] = cell
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - tracer.origin) * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": dict(other or {})}


class Patches:
    """Reversible replacement of program attributes."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` (a class or module attribute)."""
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_item(self, mapping: Dict[Any, Any], key: Any, value: Any) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def function(self, module: Any, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere the package binds it.

        ``from .stats import adaptive_measure`` copies the function into
        the importing module, so every loaded module of the package that
        holds the original object gets the wrapper.
        """
        original = getattr(module, name)
        wrapper = make(original)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
