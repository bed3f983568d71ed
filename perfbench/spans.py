"""In-memory spans for the benchmark's traced run.

A span is a tuple ``(name, start, end, parent, block)``: the layer call it
wraps, ``time.perf_counter`` bounds, the list index of the enclosing span
(-1 for a root), and the identifier of the block the work belongs to. Spans
are recorded from the benchmark's own code around calls into the public
``blockdag`` API, plus one span per processor call made through the
``processor=`` argument of the executors. Nothing is written until the run
ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()
    id = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans are a shared no-op and executors get their default processor."""

    def span(self, name: str, block, parent: int = -1) -> _NullSpan:
        return _NULL_SPAN

    def processor(self, apply, parent: int, block):
        return None


class _Span:
    __slots__ = ("_spans", "name", "block", "parent", "id", "start")

    def __init__(self, spans: list, name: str, block, parent: int) -> None:
        self._spans = spans
        self.name = name
        self.block = block
        self.parent = parent

    def __enter__(self) -> "_Span":
        # Reserve the slot first so children can name this span as parent.
        self.id = len(self._spans)
        self._spans.append(None)
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._spans[self.id] = (self.name, self.start, _clock(), self.parent, self.block)
        return False


class Tracer:
    """Tracing on: every span is kept in ``spans`` until ``write`` is called."""

    def __init__(self) -> None:
        self.spans: list = []

    def span(self, name: str, block, parent: int = -1) -> _Span:
        return _Span(self.spans, name, block, parent)

    def processor(self, apply, parent: int, block):
        """Wrap a family processor so each call becomes a ``families.apply`` span.

        Executor worker threads call it concurrently; ``list.append`` is a
        single atomic operation under the interpreter lock.
        """
        spans = self.spans

        def traced_apply(txn, store):
            start = _clock()
            try:
                return apply(txn, store)
            finally:
                spans.append(("families.apply", start, _clock(), parent, block))

        return traced_apply

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name","start","end","parent","block"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list[tuple]:
    """Per span: (name, block, parent, self seconds, total seconds).

    Self time is the span's duration minus the part of it that its child
    spans cover; overlapping children (two executor threads) count once.
    """
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, block in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, block) in enumerate(spans):
        duration = end - start
        own = duration - _covered(children.get(sid, []), start, end)
        out.append((name, block, parent, own, duration))
    return out


def layer_medians(spans: list) -> dict[str, float]:
    """Median over blocks of each layer's self time summed within a block, in ms.

    Path spans (``path.*``) are the benchmark's own grouping, not a layer,
    and are left out.
    """
    per_block: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for name, block, _parent, own, _total in self_times(spans):
        if not name.startswith("path."):
            per_block[name][block] += own
    return {
        name: statistics.median(blocks.values()) * 1000
        for name, blocks in sorted(per_block.items())
    }


def path_shares(spans: list) -> dict[str, dict[str, float]]:
    """Per path: median share of the path's duration spent in each layer's self time.

    A path's ``(self)`` entry is the benchmark's own glue inside it, such
    as creating the empty state store.
    """
    times = self_times(spans)
    per_path: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, _block, parent, own, _total in times:
        while parent >= 0 and not times[parent][0].startswith("path."):
            parent = times[parent][2]
        if parent >= 0:
            per_path[parent][name] += own
    shares: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for sid, layers in per_path.items():
        path_name, _block, _parent, own, total = times[sid]
        if total <= 0:
            continue
        for layer, seconds in layers.items():
            shares[path_name][layer].append(seconds / total)
        shares[path_name]["(self)"].append(own / total)
    return {
        path: {layer: statistics.median(values) for layer, values in layers.items()}
        for path, layers in sorted(shares.items())
    }
