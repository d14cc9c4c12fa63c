"""Span recording for the traced benchmark run.

Spans are recorded from outside the package.  The benchmark opens spans
around its own calls into lrdcov, and `Tracer.wrap` swaps a public name in the
module that calls it (for example ``lrdcov.harness.build_reference``) for a
wrapper that records a span around every call.  Spans stay in memory until the
run ends; a layer's self time is its span duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field
from unittest import mock

MB = 2.0 ** 20


@dataclass
class Span:
    name: str
    start: float
    parent: int                 # index into Tracer.spans, -1 for a root
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; when disabled every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, alloc: bool = False, **attrs):
        """Yield the span's attribute dict.  `alloc` records the tracemalloc
        peak (numpy buffers included) reached inside the span as attrs['alloc_peak']."""
        if not self.enabled:
            yield attrs
            return
        own_alloc = alloc and not tracemalloc.is_tracing()
        if own_alloc:
            tracemalloc.start()
        record = Span(name, 0.0, self._stack[-1] if self._stack else -1, attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if alloc:
                attrs["alloc_peak"] = tracemalloc.get_traced_memory()[1]
            if own_alloc:
                tracemalloc.stop()

    def wrap(self, stack: contextlib.ExitStack, module, name: str, span_name: str,
             alloc: bool = False, keep: bool = False) -> None:
        """Replace module.name by a span-recording wrapper until `stack` closes.

        `keep` stores the call's arguments and result on the span, so counts
        are derived after the pass instead of inside the timed region.
        """
        original = getattr(module, name)

        def traced(*args, **kwargs):
            with self.span(span_name, alloc) as attrs:
                result = original(*args, **kwargs)
            if keep:
                attrs["args"], attrs["result"] = args, result
            return result

        stack.enter_context(mock.patch.object(module, name, traced))

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    totals: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.duration
    for index, sp in enumerate(spans):
        totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration - child_time[index]
    return totals


def named(spans: list[Span], name: str) -> list[Span]:
    return [sp for sp in spans if sp.name == name]


def alloc_peak_mb(spans: list[Span]) -> float:
    return max((sp.attrs.get("alloc_peak", 0) for sp in spans), default=0) / MB
