"""Per-layer tracing by wrapping the module attributes one layer calls in another.

potgraph's modules bind each other's functions by name (``from .oracle import
oracle_potentially``) or reach them through a module (``kernels.search``).
Replacing such a binding with a timing wrapper puts a span on every call that
crosses that layer boundary, without touching the program's source. Spans
nest strictly (one thread), so a span's self time is its duration minus the
durations of the spans it encloses.

A survey makes hundreds of thousands of boundary calls, so spans are folded
into per-point sums as they close rather than kept one by one.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (point, layer, module, attribute). The benchmark's own calls into the
# program go through the same module attributes, so they are traced too.
POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("survey.cross_validate", "survey", "potgraph.survey", "cross_validate"),
    ("survey.enumerate", "survey", "potgraph.survey", "enumerate_graphic_sequences"),
    ("sequences.eg_enumeration", "sequences", "potgraph.survey", "is_graphic_eg"),
    ("sequences.eg_closed_form", "sequences", "potgraph.characterization", "is_graphic_eg"),
    ("sequences.eg_oracle", "sequences", "potgraph.oracle", "is_graphic_eg"),
    ("characterization.theorem_survey", "characterization", "potgraph.survey", "theorem31_decide"),
    ("characterization.theorem_query", "characterization", "potgraph.characterization", "theorem31_decide"),
    ("characterization.lemma_survey", "characterization", "potgraph.survey", "lemma_family_decide"),
    ("characterization.lemma_query", "characterization", "potgraph.characterization", "lemma_family_decide"),
    ("oracle.survey", "oracle", "potgraph.survey", "oracle_potentially"),
    ("oracle.query", "oracle", "potgraph.oracle", "oracle_potentially"),
    ("kernels.search", "kernels", "potgraph.kernels", "search"),
    ("graphs.contains", "graphs", "potgraph.oracle", "contains_subgraph"),
    ("graphs.degrees", "graphs", "potgraph.oracle", "degree_sequence_of"),
)


@dataclass
class Point:
    """Sums over every span recorded at one wrapped attribute."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # result counters: kernel nodes and witnesses, enumerated sequences
    nodes: int = 0
    hits: int = 0
    items: int = 0


def _count_search(point: Point, result) -> None:
    # kernel contract: (visited, nodes, complete, witness)
    point.nodes += result[1]
    point.hits += result[3] is not None


def _count_items(point: Point, result) -> None:
    point.items += len(result)


_RESULT_HOOKS: dict[str, Callable[[Point, object], None]] = {
    "kernels.search": _count_search,
    "survey.enumerate": _count_items,
}


@dataclass
class Tracer:
    points: dict[str, Point] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[float] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every attribute in POINTS that the program still has; the
        names of absent ones go to ``missing`` and read as zero."""
        for name, layer, module_name, attr in POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            point = self.points[name] = Point(layer)
            setattr(module, attr, self._wrap(point, original, _RESULT_HOOKS.get(name)))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        for point in self.points.values():
            point.calls = point.nodes = point.hits = point.items = 0
            point.total_s = point.self_s = 0.0

    def _wrap(self, point: Point, fn, hook: Optional[Callable[[Point, object], None]]):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                enclosed = stack.pop()
                if stack:
                    stack[-1] += duration
                point.calls += 1
                point.total_s += duration
                point.self_s += duration - enclosed
            if hook is not None:
                hook(point, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since ``reset``."""
        pts = self.points
        empty = Point("")

        def get(name: str) -> Point:
            return pts.get(name, empty)

        def total(prefix: str, attr: str) -> float:
            return sum(getattr(p, attr) for n, p in pts.items() if n.startswith(prefix))

        def layer_self(layer: str) -> float:
            return sum(p.self_s for p in pts.values() if p.layer == layer)

        eg = "sequences.eg_"
        candidates = get("sequences.eg_enumeration").calls
        oracle_calls = total("oracle.", "calls")
        search = get("kernels.search")
        return {
            "sequences.eg_calls": total(eg, "calls"),
            "sequences.eg_s": total(eg, "total_s"),
            "survey.enumerate_s": get("survey.enumerate").total_s,
            "survey.candidates": candidates,
            "survey.graphic_ratio": get("survey.enumerate").items / candidates if candidates else 0.0,
            "survey.self_s": layer_self("survey"),
            "characterization.theorem_calls": total("characterization.theorem_", "calls"),
            "characterization.theorem_s": total("characterization.theorem_", "total_s"),
            "characterization.lemma_s": total("characterization.lemma_", "total_s"),
            "oracle.calls": oracle_calls,
            "oracle.s": total("oracle.", "total_s"),
            "oracle.self_s": layer_self("oracle"),
            "oracle.searches": search.calls / oracle_calls if oracle_calls else 0.0,
            "oracle.hit_ratio": search.hits / search.calls if search.calls else 0.0,
            "kernels.search_calls": search.calls,
            "kernels.search_s": search.total_s,
            "kernels.nodes": search.nodes,
            "kernels.nodes_per_s": search.nodes / search.total_s if search.total_s else 0.0,
            "graphs.verify_calls": total("graphs.", "calls"),
            "graphs.verify_s": total("graphs.", "total_s"),
        }
