"""Outside-in span recorder for the traced run.

Spans are recorded by wrapping public functions of the program from the
benchmark's side; nothing inside ``src`` is changed. Each span keeps its
name, start, end, parent span and job id, plus any counts the wrapper
reads off the call's arguments or result. Spans stay in memory until
the run ends.

Driver-side spans cannot see the Spark Python workers. Worker time comes
from the ``JobResult`` the engine returns.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``job`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._open: list[int] = []
        self._undo: list[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, parent=self._open[-1] if self._open else None, job=self.job)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.
        ``count(args, result)`` may return attrs to store on the span.
        ``restore`` puts the original back."""
        original = getattr(owner, attr)
        own = attr in vars(owner)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if count is not None:  # outside the span, so not timed as the call
                sp.attrs.update(count(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(
            (lambda: setattr(owner, attr, original)) if own
            else (lambda: delattr(owner, attr))
        )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        out = [sp.dur for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.dur
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "job": sp.job, "self": st, **sp.attrs}
            for sp, st in zip(self.spans, self.self_times())
        ]


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured on a
    no-op; multiplied by the span count it estimates tracing overhead."""

    class Target:
        @staticmethod
        def noop():
            return None

    def loop() -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            Target.noop()
        return time.perf_counter() - t0

    plain = min(loop() for _ in range(3))
    rec = Recorder()
    rec.wrap(Target, "noop", "noop")
    traced = min(loop() for _ in range(3))
    rec.restore()
    return max(0.0, (traced - plain) / n)
