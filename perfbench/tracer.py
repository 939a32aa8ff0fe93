"""Span tracer that wraps chromcert's public functions from outside.

Each traced function is replaced, in every ``chromcert.*`` namespace that
binds it, by one wrapper that records a span (name, start, end, parent).
``extractor``, ``solver`` and ``connectivity`` import these names directly,
so patching only the defining module would miss their calls.  Spans stay in
memory; self time is computed from the span tree after the traced pass.
The wrappers only observe return values, so certificates are unchanged.
"""

from __future__ import annotations

import sys
import time

# Layer (module) -> traced public functions.  ``extractor.extract`` is
# traced only to tell the self-verify apart from the standalone verify.
TRACED = {
    "extractor": ["extract", "check_precondition", "descend", "finalize_chromatic", "verify_certificate"],
    "connectivity": ["is_k_connected", "min_vertex_cut", "connectivity", "split_by_cut"],
    "solver": ["extend"],
    "coloring": ["is_colourable", "list_chromatic_at_least", "list_colour", "greedy_list_colour"],
    "templates": [
        "strengthen_witness",
        "derive_separation_template",
        "derive_completion_template",
        "list_direct_completion",
        "validate_template",
    ],
    "graphs": ["induced_subgraph", "is_connected"],
}

SELF_VERIFY = "extractor.self_verify"

# Reported span names: every traced function except the root, plus the
# self-verify split out of extractor.verify_certificate.
REPORTED = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs if f != "extract"] + [SELF_VERIFY]


def _chromcert_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chromcert" or name.startswith("chromcert."))]


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``
    and read ``metrics()``.  Usable as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._returns: dict[str, list] = {"solver.extend": [], "coloring.greedy_list_colour": []}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self._returns.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _chromcert_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"chromcert.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def bindings(self) -> list[tuple[str, str]]:
        """(module, attribute) pairs currently patched."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def metrics(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per reported span name,
        plus the counters read from return values."""
        spans = self.spans
        child = [0.0] * len(spans)
        names = []
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            if name == "extractor.verify_certificate" and parent >= 0 and spans[parent][0] == "extractor.extract":
                name = SELF_VERIFY
            names.append(name)
        out: dict[str, float] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        subsets = 0
        for i, (name, (_, start, end, parent)) in enumerate(zip(names, spans)):
            if name not in REPORTED:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            if name == "graphs.is_connected" and parent >= 0 and names[parent] == "connectivity.min_vertex_cut":
                subsets += 1
        solves = self._returns["solver.extend"]
        greedy = self._returns["coloring.greedy_list_colour"]
        out["solver.extend.decisions"] = sum(r.stats.decisions for r in solves)
        out["solver.extend.backtracks"] = sum(r.stats.backtracks for r in solves)
        out["solver.extend.unsat_frac"] = (
            sum(r.outcome == "unsat" for r in solves) / len(solves) if solves else 0.0
        )
        out["coloring.greedy_list_colour.hit_frac"] = (
            sum(r is not None for r in greedy) / len(greedy) if greedy else 0.0
        )
        out["connectivity.min_vertex_cut.subsets"] = subsets
        return out
