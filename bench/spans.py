"""Spans around xdoc's public functions, recorded from outside the package.

Each layer is wrapped where its caller looks it up (``xdoc.cli.emit_xml``
is the name ``cli`` imported, ``xdoc.pipeline.parse`` the one
``pipeline`` imported), so the package itself is untouched.  A span is
``(doc id, span id, parent span id, layer, start, end)``; spans stay in
memory.  A layer's self time is its duration minus the durations of its
child spans; the pipeline is single-threaded, so children never overlap.

Counts (chart nodes, trees, frame verdicts, relations, bytes) are read
from the objects a layer returns, right after its span ends.  Reading
them takes time that belongs to no layer, so it is booked as
``bookkeeping`` and taken out of the parent's self time.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

# layer -> (module whose namespace the caller uses, attribute)
SITES = {
    "cli.main": ("xdoc.cli", "main"),
    "pipeline.run_pipeline": ("xdoc.cli", "run_pipeline"),
    "pipeline.emit_xml": ("xdoc.cli", "emit_xml"),
    "pipeline.export_relations": ("xdoc.cli", "export_relations"),
    "resources.load_bundle": ("xdoc.pipeline", "load_bundle"),
    "resources.validate_bundle": ("xdoc.pipeline", "validate_bundle"),
    "structure.segment": ("xdoc.pipeline", "segment"),
    "tagging.import_external_tags": ("xdoc.pipeline", "import_external_tags"),
    "tagging.initial_tag": ("xdoc.pipeline", "initial_tag"),
    "tagging.apply_rules": ("xdoc.pipeline", "apply_rules"),
    "tagging.map_tagset": ("xdoc.pipeline", "map_tagset"),
    "parsing.parse": ("xdoc.pipeline", "parse"),
    "parsing.complete_parses": ("xdoc.pipeline", "complete_parses"),
    "parsing.chunks": ("xdoc.pipeline", "chunks"),
    "semantics.semantic_tag": ("xdoc.pipeline", "semantic_tag"),
    "semantics.instantiate_frames": ("xdoc.pipeline", "instantiate_frames"),
    "semantics.map_np_structure": ("xdoc.pipeline", "map_np_structure"),
}

# Layers with children report self time under ``.self_s``; the rest under ``.s``.
PARENT_LAYERS = ("cli.main", "pipeline.run_pipeline")
TIMED = [f"{layer}.self_s" if layer in PARENT_LAYERS else f"{layer}.s"
         for layer in SITES if not layer.startswith("resources.")]
# Layers whose time per token should not grow with document size.
GROWTH_LAYERS = [layer for layer in SITES
                 if not layer.startswith("resources.") and layer != "tagging.import_external_tags"]
REJECT_CODES = ("MissingSlot", "ConstraintViolation")


def _tree_nodes(trees) -> int:
    """Distinct (category, start, end) chart keys covered by the trees."""
    seen = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        seen.add((node.category, node.start, node.end))
        stack.extend(node.children)
    return len(seen)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.bookkeeping: defaultdict[int | None, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.curve: list[tuple[int, int]] = []  # (parser input length, chart nodes)
        self.missing: dict[str, str] = {}
        self.unreadable: set[str] = set()
        self.doc = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, attr) in SITES.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing[layer] = f"module {module_name} not found"
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing[layer] = f"{module_name}.{attr} not found"
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[span_id] = (self.doc, span_id, parent, layer, start, end)
                self._count(layer, args, exc, end, parent)
                raise
            end = clock()
            stack.pop()
            spans[span_id] = (self.doc, span_id, parent, layer, start, end)
            self._count(layer, args, result, end, parent)
            return result

        return traced

    # -- counts read from returned objects ---------------------------------

    def _count(self, layer: str, args: tuple, result, end: float, parent) -> None:
        c = self.counts
        try:
            if isinstance(result, BaseException):
                if layer == "parsing.complete_parses" and type(result).__name__ == "TooAmbiguous":
                    c["parsing.too_ambiguous"] += 1
            elif layer == "parsing.parse":
                c["parsing.chart_nodes"] += len(result.nodes)
                c["parsing.chart_derivations"] += sum(len(n.derivations) for n in result.nodes)
                self.curve.append((len(args[0]), len(result.nodes)))
            elif layer == "parsing.complete_parses":
                c["parsing.trees_enumerated"] += len(result)
                c["parsing.trees_used"] += bool(result)
                c["parsing.tree_nodes"] += _tree_nodes(result)
            elif layer == "parsing.chunks":
                c["parsing.chunk_fallbacks"] += 1
                c["parsing.tree_nodes"] += _tree_nodes(result)
            elif layer == "semantics.instantiate_frames":
                instances, diagnostics = result
                c["semantics.frames_accepted"] += len(instances)
                for diag in diagnostics:
                    code = diag.code if diag.code in REJECT_CODES else "other"
                    c[f"semantics.rejects.{code}"] += 1
            elif layer == "semantics.map_np_structure":
                c["semantics.relations.pattern"] += len(result)
            elif layer == "pipeline.run_pipeline":
                c["semantics.relations.all"] += sum(len(a.relations) for a in result.sentences)
            elif layer == "pipeline.emit_xml":
                c["pipeline.xml_bytes"] += len(result.encode("utf-8"))
            elif layer == "structure.segment":
                c["tokens.segmented"] += len(result[0])
            elif layer == "tagging.import_external_tags":
                c["tokens.imported"] += sum(len(s) for s in result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            self.unreadable.add(layer)
        self.bookkeeping[parent] += time.perf_counter() - end

    # -- aggregation -------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per layer over every recorded span."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[2] is not None:
                child_time[span[2]] += span[5] - span[4]
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            if span is None:
                continue
            _, span_id, _, layer, start, end = span
            self_s[layer] += end - start - child_time[span_id] - self.bookkeeping.get(span_id, 0.0)
            calls[layer] += 1
        return dict(self_s), dict(calls)

    def tokens(self) -> int:
        return self.counts["tokens.segmented"] + self.counts["tokens.imported"]


def curve_exponent(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(chart nodes) against log(input length)."""
    pts = [(math.log(n), math.log(m)) for n, m in points if n > 0 and m > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers per corpus pass, from one tracer's spans and counts."""
    self_s, calls = tracer.layer_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for layer in ("resources.load_bundle", "resources.validate_bundle"):
        out[f"{layer}.ms"] = 1000 * self_s.get(layer, 0.0) / max(calls.get(layer, 0), 1)
    for name in TIMED:
        layer = name.rsplit(".", 1)[0]
        out[name] = self_s.get(layer, 0.0) / passes
    segmented = c["tokens.segmented"]
    out["structure.segment.us_per_token"] = (
        1e6 * self_s.get("structure.segment", 0.0) / segmented if segmented else 0.0
    )
    for key in ("chart_nodes", "chart_derivations", "trees_enumerated", "trees_used",
                "tree_nodes", "too_ambiguous", "chunk_fallbacks"):
        out[f"parsing.{key}"] = c[f"parsing.{key}"] / passes
    out["parsing.node_use_ratio"] = c["parsing.tree_nodes"] / max(c["parsing.chart_nodes"], 1)
    out["parsing.tree_use_ratio"] = c["parsing.trees_used"] / max(c["parsing.trees_enumerated"], 1)
    out["parsing.chart_nodes.exponent"] = curve_exponent(tracer.curve)
    rejects = {code: c[f"semantics.rejects.{code}"] for code in (*REJECT_CODES, "other")}
    attempted = c["semantics.frames_accepted"] + sum(rejects.values())
    out["semantics.frames_attempted"] = attempted / passes
    out["semantics.frames_accepted"] = c["semantics.frames_accepted"] / passes
    out["semantics.frame_accept_ratio"] = c["semantics.frames_accepted"] / max(attempted, 1)
    for code, n in rejects.items():
        out[f"semantics.rejects.{code}"] = n / passes
    pattern = c["semantics.relations.pattern"]
    out["semantics.relations.frame"] = (c["semantics.relations.all"] - pattern) / passes
    out["semantics.relations.pattern"] = pattern / passes
    out["pipeline.xml_bytes"] = c["pipeline.xml_bytes"] / passes
    return out


def per_token_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per token for every layer whose work grows with the text."""
    self_s, _ = tracer.layer_times()
    tokens = max(tracer.tokens(), 1)
    return {layer: self_s.get(layer, 0.0) / tokens for layer in GROWTH_LAYERS}
