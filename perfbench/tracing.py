"""Outside-in span tracer for the slipdisk benchmark.

The tracer records spans around calls into the package's layers without
touching the package: it replaces a function or method with a timing
wrapper at the place where the caller looks the name up, and puts the
original back on `restore()`. A name bound by `from .field import
perp_grad` lives in the importing module's globals, so `patch_function`
rebinds every `slipdisk.*` module attribute that holds the same object.

Spans are kept in memory, one list and one open-span stack per thread
(the sweep runs its members on a thread pool), and are read out after
the traced jobs end. A span's self time is its duration minus the time
covered by its child spans on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    span_id: int
    parent_id: int | None
    job: int
    thread: int
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s")

    def __init__(self, name: str, span_id: int, start: float):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records nested spans per thread; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self.counts: list[tuple[int, str, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._buffers.append(local.spans)
        return local

    def begin(self, name: str) -> None:
        local = self._state()
        local.stack.append(_Frame(name, next(self._ids), self.clock()))

    def end(self) -> None:
        end = self.clock()
        local = self._state()
        frame = local.stack.pop()
        duration = end - frame.start
        parent = local.stack[-1] if local.stack else None
        if parent is not None:
            parent.child_s += duration
        local.spans.append(Span(
            name=frame.name, span_id=frame.span_id,
            parent_id=None if parent is None else parent.span_id,
            job=self.job, thread=threading.get_ident(),
            start=frame.start, end=end, self_s=duration - frame.child_s))

    def count(self, name: str, value: float) -> None:
        """Record a count observed at a layer boundary in the current job."""
        self.counts.append((self.job, name, value))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def spans(self) -> list[Span]:
        with self._lock:
            out = [s for buf in self._buffers for s in buf]
        return sorted(out, key=lambda s: s.span_id)

    # -- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr (a module function or a class attribute) by a
        traced wrapper. Class- and static methods keep their kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name))
        else:
            new = self.wrap(raw, name)
        self.replace(owner, attr, new, raw)

    def replace(self, owner, attr: str, new, original) -> None:
        """Set owner.attr to `new` until `restore()` puts `original` back."""
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def patch_function(self, fn, name: str, package: str = "slipdisk") -> int:
        """Trace `fn` under every module attribute of `package` bound to it;
        returns the number of bindings replaced."""
        wrapper = self.wrap(fn, name)
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper, value)
                    count += 1
        if count == 0:
            raise LookupError(f"{name}: no binding of {fn!r} found in {package}")
        return count

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and total self time."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += s.self_s
    return out
