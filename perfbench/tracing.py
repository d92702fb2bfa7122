"""In-memory spans for the traced benchmark run.

Spans are recorded only from this directory: around each call the
benchmark makes, and by three proxies wrapped around the objects the
program takes by injection (the API service, the crawl client and the
serving planner). Nothing inside ``src/`` is touched.

A span is ``[id, name, start, end, parent, item]``: ``start``/``end``
are ``time.perf_counter()`` seconds, ``parent`` is the id of the
enclosing span (``None`` at top level) and ``item`` names the batch,
video, country or request the span served.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False

    def span(self, name: str, item=None) -> _NullSpan:
        return _NULL_SPAN


NULL = NullTracer()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", name: str, item):
        self._tracer = tracer
        self._record = [next(tracer._ids), name, 0.0, 0.0, None, item]

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        # A span opened on a thread with nothing open (the API server's
        # handler thread) belongs to the client call in flight.
        self._record[4] = stack[-1] if stack else tracer.handoff
        stack.append(self._record[0])
        self._record[2] = _clock()
        return self._record[0]

    def __exit__(self, *exc):
        self._record[3] = _clock()
        self._tracer._stack().pop()
        self._tracer.spans.append(self._record)
        return False


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them once."""

    enabled = True

    def __init__(self):
        self.spans: List[list] = []
        self.handoff: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, item=None) -> _Span:
        return _Span(self, name, item)

    def take(self) -> List[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(path, spans: Iterable[list]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in spans:
                out.write(json.dumps(record) + "\n")


# -- proxies for injected objects ---------------------------------------------


class TracedService:
    """The API service as handed to a crawler or to the TCP server.

    ``tracer`` may be swapped between rounds (the server keeps one
    service object for its whole life).
    """

    def __init__(self, inner, tracer=NULL):
        self._inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get_video(self, video_id):
        with self.tracer.span("api.service", video_id):
            return self._inner.get_video(video_id)

    def related_videos(self, video_id, page_token=None, max_results=25):
        with self.tracer.span("api.service", video_id):
            return self._inner.related_videos(
                video_id, page_token=page_token, max_results=max_results
            )

    def most_popular(self, country_code, page_token=None, max_results=10):
        with self.tracer.span("api.service", country_code):
            return self._inner.most_popular(
                country_code, page_token=page_token, max_results=max_results
            )


class TracedClient:
    """The resilient TCP client as handed to the crawler.

    While a call is in flight its span id is published as the tracer's
    ``handoff``, so the server thread's service span links to it.
    """

    def __init__(self, inner, tracer=NULL):
        self._inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _call(self, item, method, *args, **kwargs):
        tracer = self.tracer
        if not tracer.enabled:
            return method(*args, **kwargs)
        with tracer.span("api.transport", item) as span_id:
            tracer.handoff = span_id
            try:
                return method(*args, **kwargs)
            finally:
                tracer.handoff = None

    def get_video(self, video_id):
        return self._call(video_id, self._inner.get_video, video_id)

    def related_videos(self, video_id, page_token=None, max_results=25):
        return self._call(
            video_id, self._inner.related_videos, video_id,
            page_token=page_token, max_results=max_results,
        )

    def most_popular(self, country_code, page_token=None, max_results=10):
        return self._call(
            country_code, self._inner.most_popular, country_code,
            page_token=page_token, max_results=max_results,
        )


class TracedPlanner:
    """The serving planner as handed to the cluster (``plan`` only)."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def plan(self, catalogue, replicas, capacity):
        with self.tracer.span("serving.planner.plan"):
            return self._inner.plan(catalogue, replicas, capacity)


# -- span arithmetic -----------------------------------------------------------


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanSummary:
    """Per-name totals, self times and durations over a list of spans."""

    def __init__(self, spans: List[list]):
        self.total: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        children: Dict[int, List[tuple]] = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        for span_id, name, start, end, parent, _ in spans:
            duration = end - start
            self.total[name] += duration
            self.count[name] += 1
            self.durations[name].append(duration)
            self.self_time[name] += duration - _covered(children[span_id])
            if parent is None:
                self.top_level += duration
