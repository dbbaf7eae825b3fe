"""In-memory spans around calls into liephase's public functions.

The benchmark never edits the library: a ``Tracer`` replaces each binding of
a public function (in every module that imported it, and on classes for
methods) with a wrapper that records a span, and puts the originals back
afterwards.  A span is ``[name, start, end, parent, size]``: ``parent`` is
the index of the enclosing span or ``None``, and ``size`` is an input size
taken from the call's arguments (steps, particles, rows) for computed counts.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str, size: int = 0) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, size])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, size_of):
        def traced(*args, **kwargs):
            self.begin(name, size_of(*args, **kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, namespaces) -> None:
        """Wrap every binding of each ``(span name, function, size_of)``.

        ``namespaces`` are the modules and classes searched for bindings, so
        calls made from inside the library (``wep_deviation`` calling
        ``integrate``, ``cli.run`` calling ``hamiltonian``) are traced too.
        """
        for name, fn, size_of in targets:
            wrapper = self._wrap(name, fn, size_of)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()


def summarize(spans, root: str = "pass") -> dict:
    """Per span name: calls, total seconds, self seconds and summed size.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.  The
    ``root`` entry's ``covered_s`` is the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, size) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["size"] += size
    if root in out:
        out[root]["covered_s"] = out[root]["total_s"] - out[root]["self_s"]
    return out
