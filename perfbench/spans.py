"""Span recording around calls into octoforms, and self-time arithmetic.

A span records its name, start, end and the span that was open when it began
(its parent).  Spans live in a list in the traced process and are returned to
the harness with the pass result.  Tracing works from outside the package:
`Tracer.install` replaces each named public function with a wrapper, in every
octoforms module that bound it (so `from .canonical import spin9_form`
bindings are traced too).  The untraced pass uses `NullTracer`, which patches
nothing.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    def span(self, name, arg=None):
        return nullcontext()

    def install(self, targets):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, arg=None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if arg is not None:
            rec["arg"] = arg
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, tag):
        def traced(*args, **kwargs):
            with self.span(name, tag(*args, **kwargs) if tag else None):
                return fn(*args, **kwargs)

        return traced

    def install(self, targets: dict):
        """Trace `module.function` names; `targets` maps each to a tag
        function of the call's arguments (or None)."""
        for name, tag in targets.items():
            modname, fname = name.split(".")
            original = getattr(importlib.import_module("octoforms." + modname), fname)
            traced = self._wrap(name, original, tag)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("octoforms"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def totals_by_name(spans: list[dict]) -> dict:
    """name -> {"calls", "total_s", "self_s"} summed over all spans."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out


def span_sum(spans: list[dict], name: str, arg=None, self_time: bool = True) -> float:
    """Summed self (or total) time of the spans called `name`, optionally
    only those tagged `arg`; 0.0 when there are none."""
    selfs = self_times(spans) if self_time else {}
    return sum((selfs[s["id"]] if self_time else s["end"] - s["start"]
                for s in spans if s["name"] == name and (arg is None or s.get("arg") == arg)),
               0.0)
