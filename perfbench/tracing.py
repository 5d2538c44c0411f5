"""In-memory spans around the benchmark's calls into each sdof layer.

A span records name, start, end, parent and unit id, plus counts made at
the same boundary.  The layer is the first dotted component of the name
(``precoding.numeric_rank`` belongs to ``precoding``); the unit's root span
belongs to ``bench``, the benchmark's own checking code.  Probe spans wrap
calls that happen only inside another layer; they are installed by
patching the module attribute the caller looks up, and only while tracing.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("channel", "precoding", "interference_sets", "pam", "analysis", "converse", "bench")
ROOT = "bench.unit"


class Span:
    __slots__ = ("id", "name", "unit", "parent", "start", "end", "probe", "counts")

    def __init__(self, id, name, unit, parent, probe):
        self.id, self.name, self.unit, self.parent, self.probe = id, name, unit, parent, probe
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "unit": self.unit, "parent": self.parent,
                "start": self.start, "end": self.end, "probe": self.probe,
                "counts": self.counts}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key: str, value: float) -> None:
        pass


_NULL = _NullSpan()


class _LiveSpan:
    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer, self.span = tracer, span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans of the units it is told to trace; a no-op otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False
        self.unit: int | None = None

    def begin_unit(self, unit: int, traced: bool) -> None:
        self.unit, self.active = unit, traced

    def span(self, name: str, probe: bool = False):
        if not self.active:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.unit, parent, probe)
        self.spans.append(span)
        return _LiveSpan(self, span)


@contextmanager
def probes(tracer: Tracer, targets):
    """Wrap ``(module, attribute, span name, count function or None)`` targets."""
    saved = []
    for module, attr, name, count in targets:
        original = getattr(module, attr)

        def probe(*args, _original=original, _name=name, _count=count, **kwargs):
            with tracer.span(_name, probe=True) as sp:
                out = _original(*args, **kwargs)
                if _count is not None:
                    sp.count(*_count(out))
            return out

        saved.append((module, attr, original))
        setattr(module, attr, probe)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def summarize(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced units.

    ``<span name>.s`` is the median duration of one call, ``<layer>.self_s``
    the median per-unit time the layer was busy outside its child spans,
    ``<layer>.share`` that time over the unit's duration, and
    ``<layer>.<count>`` the median per-unit sum of a count.  A probe also
    gets ``<probe name>.share``, its per-unit time over the unit's duration,
    which splits its caller's time in two.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    durations: dict[str, list[float]] = defaultdict(list)
    unit_len: dict[int, float] = {}
    self_time: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
    counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    probe_time: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        duration = s.end - s.start
        if s.name == ROOT:
            unit_len[s.unit] = duration
        else:
            durations[s.name].append(duration)
        self_time[s.unit][s.layer] += duration - child_time[s.id]
        if s.probe:
            probe_time[s.name][s.unit] += duration
        for key, value in s.counts.items():
            counts[f"{s.layer}.{key}"][s.unit] += value

    out: dict[str, tuple[float, str]] = {}
    for name, values in durations.items():
        out[f"{name}.s"] = (statistics.median(values), "s")
    units = sorted(unit_len)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (statistics.median(self_time[u][layer] for u in units), "s")
        out[f"{layer}.share"] = (statistics.median(self_time[u][layer] / unit_len[u]
                                                   for u in units), "frac")
    for name, per_unit in probe_time.items():
        out[f"{name}.share"] = (statistics.median(per_unit.get(u, 0.0) / unit_len[u]
                                                  for u in units), "frac")
    for key, per_unit in counts.items():
        unit = "MB_computed" if key.endswith("_mb") else "count"
        out[key] = (statistics.median(per_unit.get(u, 0.0) for u in units), unit)
    return out
