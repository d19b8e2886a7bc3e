"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function with a wrapper in every
longctx module namespace that holds it, so calls from ``cli`` and calls
inside a module (which resolve through module globals) are captured with
their nesting. Spans are kept in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# module -> functions to wrap; names in ALLOC_TRACKED also record their
# tracemalloc peak, which is only switched on inside those calls.
TRACED = {
    "ringsim": ("ring_attention", "exact_attention", "attention_weights", "random_problem"),
    "softnum": ("distinct_integer_census", "round_trip"),
    "rope": ("rotate", "relative_score", "plan_theta", "rotation_report"),
    "memplan": ("search_chunk_plan",),
    "niah": ("generate_case", "filler_sentences", "score", "run_grid"),
    "recipe": ("validate", "emit_manifest", "load_manifest", "megabeam_recipe"),
    "cli": ("dispatch", "build_parser"),
}
ALLOC_TRACKED = {"ringsim.exact_attention", "softnum.distinct_integer_census"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "alloc_peak", "tokens")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.alloc_peak = self.tokens = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; spans outside an op are not recorded."""
        if self.op_id is None:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else None, self.op_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        track = name in ALLOC_TRACKED and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        if name == "niah.generate_case":
            span.tokens = args[0].haystack_tokens
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if track:
                span.alloc_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("longctx") and m]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"longctx.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                if s.alloc_peak is not None:
                    record["alloc_peak_bytes"] = s.alloc_peak
                fh.write(json.dumps(record) + "\n")
