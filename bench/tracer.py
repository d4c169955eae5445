"""Span tracer that times seqlab's layers from outside the package.

Every public function defined in a traced ``seqlab`` module (plus a few
named methods) is replaced by a wrapper that records a span: name, start,
end and the span that was open when it was called.  ``cli.py`` and
``pairwise.py`` bind library functions with ``from .x import f``, so
patching ``seqlab.x.f`` alone would miss those call sites; the wrapper is
therefore rebound in every ``seqlab.*`` namespace that holds the original.

Spans of the first recorded pass are kept in memory and written out by
:meth:`Tracer.write_spans` when the run ends; later passes keep only
their per-name totals, which bounds memory on long runs.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "seqlab"
# Modules whose public functions are wrapped; their names are the layers.
MODULES = (
    "qcore", "ramsey", "pairwise", "dissipative", "photostats",
    "io", "dsl", "config", "cli", "units",
)
# Public methods timed as well, as "<module>.<Class>.<method>".
METHODS = ("dissipative.DensityMatrix.validate",)


def _emitted_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs.get("text", "")
    return len(text.encode("utf-8"))


# Work counters recorded next to the span, by span name.
MEASURES = {"io.emit": ("io.emit.bytes", _emitted_bytes)}


class Tracer:
    """Installs span wrappers into the imported seqlab package."""

    def __init__(self):
        self.passes: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._begin_pass()

    # -- installation -----------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        found = []
        for short in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    found.append((f"{short}.{attr}", mod, attr, obj))
        for dotted in METHODS:
            short, cls_name, meth = dotted.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                found.append((dotted, cls, meth, fn))
        return found

    def install(self) -> list[str]:
        """Wrap every target and rebind it wherever seqlab holds it."""
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        names = []
        for name, owner, attr, original in self.targets():
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, original, wrapper)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)
            names.append(name)
        return names

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        if getattr(owner, attr) is wrapper:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                p = tracer._pass
                p["calls"][name] += 1
                p["self_s"][name] += duration - frame[1]
                p["spans"].append((span_id, parent, name, start, end))
                if measure is not None:
                    p["counters"][measure[0]] += measure[1](args, kwargs)

        return wrapper

    # -- passes -------------------------------------------------------------

    def _begin_pass(self) -> None:
        self._pass = {
            "calls": Counter(), "self_s": defaultdict(float),
            "counters": Counter(), "spans": [],
        }

    def end_pass(self) -> None:
        """Close the current pass; its calls, self_s and counters join passes."""
        done = self._pass
        if self.passes:
            done["spans"] = []
        self.passes.append(done)
        self._begin_pass()

    def discard_pass(self) -> None:
        self._begin_pass()

    def write_spans(self, path) -> int:
        """Write the first pass's spans as tab-separated text; returns the count."""
        n = 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for span_id, parent, name, start, end in self.passes[0]["spans"]:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
                n += 1
        return n
