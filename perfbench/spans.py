"""In-memory span recorder for the benchmark's traced runs.

A span records one call into a layer of the package: its name, its start and
end (``time.perf_counter``), the span that was open when it began (its
parent), and optionally the call's arguments and return value.  Spans are kept
in memory and summarised when the run ends.

Nothing inside ``src/`` is instrumented.  The benchmark records spans by
temporarily replacing a public function or method with a timed wrapper
(:func:`patched`), at the attribute the package itself looks the callee up
through, and restores the original when the traced operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Span", "Tracer", "named", "patched", "total"]


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    call: tuple[tuple, dict] | None = None
    result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one thread; :meth:`take` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, call: tuple[tuple, dict] | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, parent, time.perf_counter(), call=call)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn: Callable, capture: bool = False,
             keep: Callable[[Any], Any] | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``capture`` keeps the call's arguments; ``keep(result)`` is what the
        span keeps of the result.  Keep only what the caller holds anyway:
        pinning a large temporary alive makes later allocations fault in
        fresh pages, which slows the traced call itself.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, (args, kwargs) if capture else None) as record:
                result = fn(*args, **kwargs)
                if keep is not None:
                    record.result = keep(result)
            return result

        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


@contextlib.contextmanager
def patched(targets: Iterable[tuple[Any, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def total(spans: Iterable[Span], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s.seconds for s in spans if s.name == name)


def named(spans: Iterable[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]
