"""Outside-in tracing: spans around calls into the program's layers.

The traced run installs wrappers on the program's public functions and
methods at run time; the program's source is never changed. Methods are
patched on their class; a module-level function is rebound in every
loaded module that imported it (``from x import f`` copies the binding).

Each span records its name, start and end (``perf_counter_ns``), the id
of the span that was open on the same thread when it started, and the
request or batch id that thread is serving. Spans stay in memory until
the process under test exits. Per-record hot functions (for example
``PublishedPackage.live``) are never wrapped; :meth:`Tracer.counter`
counts calls of mid-frequency ones without a span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from common import now_ns

#: (span id, parent id, name, start ns, end ns, thread id, context id)
Span = Tuple[int, int, str, int, int, int, Optional[str]]


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: values summed from wrapped calls' results (e.g. k-means iterations)
        self.totals: Dict[str, float] = defaultdict(float)
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_context(self, context: Optional[str]) -> None:
        """Tag spans this thread opens from now on with ``context``."""
        self._local.context = context

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        getattr(local, "context", None),
                    )
                )
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing wrappers -------------------------------------------------
    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and rebind it wherever it was imported."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_result)
        for held in list(sys.modules.values()):
            namespace = getattr(held, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(held, attr, traced)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Wrap a method (plain or classmethod) on the class defining it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_result)))
        else:
            setattr(cls, attr, self.wrap(name, raw, on_result))

    def count_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.counter(name, cls.__dict__[attr]))

    def export(self) -> Dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "totals": dict(self.totals),
        }


# -- reading spans -------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _, _ in spans:
        if parent:
            covered[parent] += end - start
    return {span[0]: (span[4] - span[3]) - covered[span[0]] for span in spans}


def durations_ms(spans: Iterable[Span], name: str) -> List[float]:
    return [(s[4] - s[3]) / 1e6 for s in spans if s[2] == name]


def total_s(spans: Iterable[Span], *names: str) -> float:
    wanted = set(names)
    return sum(s[4] - s[3] for s in spans if s[2] in wanted) / 1e9


def self_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self time in seconds."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span[4] - span[3]) / 1e9
        row["self_s"] += selfs[span[0]] / 1e9
    return table


def layer_self_table(spans: List[Span]) -> Dict[str, float]:
    """Per layer (the span name's prefix before the dot): self seconds."""
    layers: Dict[str, float] = defaultdict(float)
    for name, row in self_table(spans).items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return dict(layers)


def chrome_trace(processes: Dict[str, List[Span]]) -> Dict:
    """Chrome trace-event JSON (opens offline in Perfetto / chrome://tracing)."""
    starts = [s[3] for spans in processes.values() for s in spans]
    base = min(starts) if starts else 0
    events = []
    for pid, (label, spans) in enumerate(sorted(processes.items()), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
        )
        threads: Dict[int, int] = {}
        for span_id, parent, name, start, end, tid, context in spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - base) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": threads.setdefault(tid, len(threads) + 1),
                    "args": {"id": span_id, "parent": parent, "context": context},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
