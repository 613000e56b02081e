"""Spans around the public functions of each coinwalk layer, recorded from outside.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded ``coinwalk`` module that binds it.  ``coinwalk.cli`` imports its layer
functions with ``from ... import``, so patching only the defining module would
leave the CLI path untraced.  Spans stay in memory until the run ends;
``uninstall`` restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# layer (coinwalk module) -> traced public functions
LAYERS = {
    "walk": ("evolve", "moment_series", "distribution_to_csv"),
    "momentum": ("dispersion_band", "dispersion_to_csv"),
    "asymptotics": (
        "moment_integrals",
        "classify_spreading",
        "weak_limit_density",
        "drift_sign",
        "velocity_density_to_csv",
    ),
    "gapscan": ("enumerate_closures", "assert_no_boundary", "scan_gap_map", "gap_map_to_csv", "closures_to_dict"),
    "export": ("write_csv", "write_json"),
    "coins": ("compose",),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    request: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "coinwalk" or n.startswith("coinwalk.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"coinwalk.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)``; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = {name: (0, 0.0) for name in TRACED}
        for span, inner in zip(self.spans, child):
            calls, self_s = out[span.name]
            out[span.name] = (calls + 1, self_s + (span.end - span.start) - inner)
        return out
