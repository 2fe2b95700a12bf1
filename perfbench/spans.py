"""Spans around the functions each moofair layer exposes to its caller.

The benchmark wraps functions where their caller looks them up (a module
global, or a method on its class), records one span per call with its parent
span, and restores every wrapped attribute on exit. A name that no longer
exists is reported as absent instead of raising, so the traced run survives
refactors that delete or rename internals. High-frequency leaf calls
(``sigmoid``) are aggregated into their enclosing span instead of getting a
span each.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    index: int = -1
    parent: int = -1
    child_ns: int = 0
    info: object = None
    leaves: dict = field(default_factory=dict)  # name -> [calls, ns, elements]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


def resolve(target: str):
    """``"pkg.module:Attr.attr"`` -> (owner object, attribute name), or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Patches:
    """Replace attributes for the lifetime of a ``with`` block."""

    def __init__(self):
        self.absent: list[str] = []
        self._saved: list = []

    def replace(self, target: str, make_wrapper) -> None:
        found = resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr = found
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False


class Tracer(Patches):
    """Records a span per call of each wrapped function.

    ``name`` may be a string or a function of the call's arguments; ``info``
    a function of (args, result) whose value is stored on the span. A
    ``leaf`` gets no span of its own: its calls, time and returned elements
    are added to the enclosing span.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.root = Span("root", 0)
        self._stack: list[Span] = []

    def wrap(self, target: str, name, info=None, leaf: bool = False) -> None:
        def make_wrapper(func):
            if leaf:
                def wrapper(*args, **kwargs):
                    start = time.perf_counter_ns()
                    try:
                        result = func(*args, **kwargs)
                    finally:
                        elapsed = time.perf_counter_ns() - start
                        parent = self._stack[-1] if self._stack else self.root
                        parent.child_ns += elapsed
                        stats = parent.leaves.setdefault(name, [0, 0, 0])
                        stats[0] += 1
                        stats[1] += elapsed
                    stats[2] += getattr(result, "size", 1)
                    return result
            else:
                def wrapper(*args, **kwargs):
                    span_name = name(*args, **kwargs) if callable(name) else name
                    span = Span(span_name, 0, index=len(self.spans),
                                parent=self._stack[-1].index if self._stack else -1)
                    self.spans.append(span)
                    self._stack.append(span)
                    span.start_ns = time.perf_counter_ns()
                    try:
                        result = func(*args, **kwargs)
                    finally:
                        span.end_ns = time.perf_counter_ns()
                        self._stack.pop()
                        if self._stack:
                            self._stack[-1].child_ns += span.duration_ns
                    if info is not None:
                        span.info = info(args, result)
                    return result
            return wrapper

        self.replace(target, make_wrapper)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def ancestors(self, span: Span):
        while span.parent >= 0:
            span = self.spans[span.parent]
            yield span

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [[s.name, s.start_ns, s.end_ns, s.parent, s.self_ns, s.info,
                       s.leaves] for s in self.spans],
        }
