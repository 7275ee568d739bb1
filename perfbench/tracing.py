"""In-memory spans around calls into privamp's public functions.

The benchmark does not instrument privamp itself: it replaces a
function or method by a wrapper that records a span and calls the
original, for the duration of one operation, and puts the original back
afterwards.  A span records its name, start, end, parent span (the
enclosing span on the same thread), the id of the operation it belongs
to, and optional attributes.  Spans stay in memory until the process
writes them out.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._local = threading.local()
        self._ids = itertools.count()

    def _open(self, name: str, attrs: dict) -> dict:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
            "name": name,
            "attrs": attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        return record

    def _close(self, record: dict):
        record["end"] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def wrapper(self, original, name: str, attrs=None):
        """``original`` wrapped in a span; ``attrs(*args)`` adds attributes."""

        def traced(*args, **kwargs):
            record = self._open(name, attrs(*args) if attrs else {})
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap ``(owner, attribute, span name[, attrs])`` targets, then restore them.

        A target that ``owner`` does not define is skipped: it records no
        spans, and the metrics built on them are not reported.
        """
        saved = []
        try:
            for owner, attr, name, *attrs in targets:
                if attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrapper(original, name, *attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans) -> dict[str, float]:
    """Total self time per layer, the part of a span name before the first dot."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
    return totals
