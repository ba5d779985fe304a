"""In-memory spans around the benchmark's calls into each minkpi module.

A span is (name, parent, attrs, start, end). The layer of a span is the part
of its name before the first dot; spans named ``bench.*`` belong to the
benchmark itself. Self time is a span's duration minus the time its direct
children cover (children nest strictly, since the benchmark is one thread).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("geom2d", "gauge", "perimeter", "birkhoff", "regular_pi", "offset_shapes", "verify", "cli")


class Tracer:
    """Records spans when enabled; when disabled, ``wrap`` returns the callable unchanged."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> list:
        rec = [name, self._stack[-1] if self._stack else None, attrs, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, **attrs):
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            rec = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        rec = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(rec)

    def self_times(self) -> list[float]:
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, busy seconds) per layer; busy time is self time."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer][0] += 1
                totals[layer][1] += own
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def durations(self, name: str, **attrs) -> list[float]:
        """Durations in seconds of every span with this name whose attrs include ``attrs``."""
        return [
            end - start
            for n, _, a, start, end in self.spans
            if n == name and all(a.get(k) == v for k, v in attrs.items())
        ]

    def median(self, name: str, **attrs) -> float:
        values = self.durations(name, **attrs)
        if not values:
            raise LookupError(f"no span {name} {attrs}")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, attrs, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, attrs]) + "\n")
