"""Spans, self time and latency statistics for the benchmark.

A span covers one call the benchmark makes into a neutrolab module. Spans
are kept in memory while the workload runs and written out once at the end.
Span names follow the metric scheme `<module>.<function>[.<variant>]`, so
a per-layer metric is the span name plus a statistic.
"""

import json
import math
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = {}

    def set(self, **attrs):
        """Attach counts (e.g. `calls`, `subsets`, `failed`) to the span."""
        self.attrs.update(attrs)


class Tracer:
    """Records one span per `span()` block: name, start, end, parent span
    and the id of the operation that caused it."""

    enabled = True

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op = None

    def span(self, name):
        return _SpanContext(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.clock(), parent, self.op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def _close(self):
        idx = self._stack.pop()
        self.spans[idx].end = self.clock()


class _SpanContext:
    __slots__ = ("tracer", "name", "sp")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sp = self.tracer._open(self.name)
        return self.sp

    def __exit__(self, *exc):
        self.tracer._close()
        return False


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracer stand-in for untraced runs: every span is the same no-op."""

    enabled = False
    _span = _NullSpan()

    def __init__(self):
        self.spans = []
        self.op = None

    def span(self, name):
        return self._span


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c].start, sp.start),
                              min(spans[c].end, sp.end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(sp.end - sp.start - covered)
    return out


def aggregate(spans):
    """Per span name: `calls` (a span's `calls` attribute, else 1 per span),
    `self_ns`, and the sum of every other numeric attribute."""
    stats = {}
    for sp, own in zip(spans, self_times(spans)):
        st = stats.setdefault(sp.name, {"calls": 0, "self_ns": 0})
        st["calls"] += sp.attrs.get("calls", 1)
        st["self_ns"] += own
        for key, val in sp.attrs.items():
            if key != "calls":
                st[key] = st.get(key, 0) + val
    return stats


def write_spans(path, spans):
    """One JSON object per span, with its self time, in start order."""
    with open(path, "w") as fh:
        for i, (sp, own) in enumerate(zip(spans, self_times(spans))):
            fh.write(json.dumps({
                "id": i, "name": sp.name, "op": sp.op, "parent": sp.parent,
                "start_ns": sp.start, "end_ns": sp.end, "self_ns": own,
                **sp.attrs}) + "\n")


def percentile(latencies, q):
    """Nearest-rank q-th percentile (0 < q <= 100). A failed operation is
    passed as math.inf: it misses any latency limit, so it sorts last."""
    if not latencies:
        raise ValueError("no latencies")
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


MIN_WINDOW_OPS = 100


def windows(rounds, min_ops=MIN_WINDOW_OPS):
    """Group consecutive rounds, given as (latencies, seconds), into windows
    of at least `min_ops` operations, so that at least a tenth of each
    window (ten samples) lies beyond its 90th percentile. A short tail
    joins the last window."""
    out, lat, secs = [], [], 0.0
    for round_lat, round_secs in rounds:
        lat, secs = lat + list(round_lat), secs + round_secs
        if len(lat) >= min_ops:
            out.append((lat, secs))
            lat, secs = [], 0.0
    if lat:
        if out:
            lat, secs = out[-1][0] + lat, out[-1][1] + secs
            out[-1] = (lat, secs)
        else:
            out.append((lat, secs))
    return out
