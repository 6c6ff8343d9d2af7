"""Spans around calls into zamen's modules, installed from outside the package.

A ``Tracer`` replaces each traced public function wherever a zamen module
binds it: in the module that defines it (which is how the benchmark and the
module itself call it) and in every module that imports it (for example
``zamen.cache.character_table`` and ``zamen.amenability.convolve``).  Nested
layer-to-layer calls therefore become child spans.  Spans stay in memory;
``write`` saves them when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Work in functions that are not traced counts towards the traced
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

from zamen import hypergroups

TRACED = {
    "groups": ("from_permutation_generators", "direct_product", "conjugacy_structure"),
    "characters": ("character_table", "class_constants", "canonical_form", "tensor_table"),
    "central": ("convolve",),
    "amenability": ("amenability_constant", "verify_diagonal", "hilbert_schmidt_lower_bound", "nonabelian_gap_check"),
    "specio": ("group_from_json", "character_table_payload", "load_character_table", "load_experiment_spec", "stable_json"),
    "cache": ("cached_character_table",),
    "hypergroups": ("run_experiment", "diagonal_norm", "bai_norm"),
    "tz2": ("verify_identity_measure",),
    "zoo": ("build",),
    "cli": ("main",),
}
# Layers that run inside a pass; zoo runs in set-up and cli in its own phase.
LAYERS = tuple(layer for layer in TRACED if layer not in ("zoo", "cli"))


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _kernel_flops(args: tuple, kwargs: dict, result) -> dict:
    """2 P^2 (n+1) for the kernel product on each of the two grids."""
    n = _arg(args, kwargs, 2, "n")
    quad = _arg(args, kwargs, 3, "quad") or hypergroups.QuadratureConfig()
    points = quad.panels * quad.nodes_per_panel
    return {"flops": 2 * (n + 1) * (points**2 + (points * quad.refinement_factor) ** 2)}


# Counts recorded at the boundary, from a call's arguments and result.
COUNTS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "specio.group_from_json": lambda a, k, g: {
        "table_bytes": g.order**2 * g.table.itemsize if g.table is not None else 0
    },
    "characters.class_constants": lambda a, k, t: {"bytes": t.shape[0] ** 3 * 8},
    "characters.character_table": lambda a, k, t: {"classes": t.num_classes, "residual": t.residual},
    "cache.cached_character_table": lambda a, k, r: {"hit": bool(r[1])},
    "specio.stable_json": lambda a, k, text: {"bytes": len(text.encode())},
    "hypergroups.diagonal_norm": _kernel_flops,
    "hypergroups.run_experiment": lambda a, k, rows: {
        "rows": len(rows),
        "unconverged": sum(not r["diagonal_converged"] for r in rows),
    },
    "tz2.verify_identity_measure": lambda a, k, r: {"pairs": r.pairs_checked},
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("groups.from_permutation_generators_s", "s", "lower"),
    ("groups.direct_product_s", "s", "lower"),
    ("groups.conjugacy_structure_s", "s", "lower"),
    ("groups.table_bytes", "bytes", "lower"),
    ("characters.character_table_s", "s", "lower"),
    ("characters.class_constants_s", "s", "lower"),
    ("characters.class_constants_bytes", "bytes", "lower"),
    ("characters.classes", "count", "higher"),
    ("characters.residual_max", "abs", "lower"),
    ("characters.canonical_form_s", "s", "lower"),
    ("specio.character_table_payload_s", "s", "lower"),
    ("specio.chartable_bytes", "bytes", "lower"),
    ("specio.group_from_json_s", "s", "lower"),
    ("specio.load_character_table_s", "s", "lower"),
    ("cache.miss_s", "s", "lower"),
    ("cache.hit_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.calls", "count", "higher"),
    ("amenability.amenability_constant_s", "s", "lower"),
    ("amenability.verify_diagonal_s", "s", "lower"),
    ("amenability.checks_s", "s", "lower"),
    ("central.convolve_s", "s", "lower"),
    ("central.convolve_calls", "count", "lower"),
    ("hypergroups.diagonal_norm_s", "s", "lower"),
    ("hypergroups.bai_norm_s", "s", "lower"),
    ("hypergroups.kernel_flops", "flop", "lower"),
    ("hypergroups.rows", "count", "higher"),
    ("hypergroups.unconverged_rows", "count", "lower"),
    ("tz2.verify_identity_measure_s", "s", "lower"),
    ("tz2.pairs", "count", "higher"),
    ("zoo.build_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.passes", "count", "higher"),
    ("trace.spans", "count", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    item: str  # "<phase>/<item name>", where phase is setup, cli or pass<i>
    counts: Optional[dict] = None

    @property
    def phase(self) -> str:
        return self.item.split("/", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = ""
        self._open: list[int] = []
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, count = self.spans, self._open, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.item)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every zamen binding of the traced functions; restore on exit."""
        if not self._wrappers:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"zamen.{layer}")
                for name in names:
                    fn = getattr(module, name)
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patched = []
        try:
            for module_name, module in list(sys.modules.items()):
                if module_name != "zamen" and not module_name.startswith("zamen."):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def phase_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per phase: self time per span name and layer, counts, and root-span time."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    spans = tracer.spans
    for span, own in zip(spans, tracer.self_times()):
        t = totals[span.phase]
        layer = span.name.split(".", 1)[0]
        t[f"{span.name}_s"] += own
        t[f"{layer}.self_s"] += own
        t[f"{span.name}.calls"] += 1
        t["spans"] += 1
        if span.parent < 0:
            t["root_s"] += span.end - span.start
        for key, value in (span.counts or {}).items():
            if key == "residual":
                t["characters.residual_max"] = max(t["characters.residual_max"], value)
            elif key == "hit":
                t["cache.hits"] += value
                t["cache.hit_s" if value else "cache.miss_s"] += own
            elif span.name == "specio.stable_json":
                if span.parent >= 0 and spans[span.parent].name == "cache.cached_character_table":
                    t["specio.chartable_bytes"] += value
            else:
                t[f"{span.name}.{key}"] += value
    return totals


def layer_metrics(t: dict[str, float], pass_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its phase totals."""
    calls = t["cache.cached_character_table.calls"]
    layer_self = sum(t[f"{layer}.self_s"] for layer in LAYERS)
    metrics = {name: t[name] for name, _, _ in PER_LAYER if name.endswith("_s")}
    metrics.update({
        "groups.table_bytes": t["specio.group_from_json.table_bytes"],
        "characters.class_constants_bytes": t["characters.class_constants.bytes"],
        "characters.classes": t["characters.character_table.classes"],
        "characters.residual_max": t["characters.residual_max"],
        "specio.chartable_bytes": t["specio.chartable_bytes"],
        "cache.hit_ratio": t["cache.hits"] / calls if calls else 0.0,
        "cache.calls": calls,
        "amenability.checks_s": t["amenability.hilbert_schmidt_lower_bound_s"] + t["amenability.nonabelian_gap_check_s"],
        "central.convolve_calls": t["central.convolve.calls"],
        "hypergroups.kernel_flops": t["hypergroups.diagonal_norm.flops"],
        "hypergroups.rows": t["hypergroups.run_experiment.rows"],
        "hypergroups.unconverged_rows": t["hypergroups.run_experiment.unconverged"],
        "tz2.pairs": t["tz2.verify_identity_measure.pairs"],
        "trace.pass_s": pass_s,
        "trace.glue_s": pass_s - t["root_s"],
        "trace.accounted_ratio": layer_self / pass_s,
        "trace.spans": t["spans"],
    })
    return metrics


def per_layer(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    """Medians over the traced passes; zoo and cli come from their own phases."""
    totals = phase_totals(tracer)
    per_pass = [layer_metrics(totals[f"pass{i}"], s) for i, s in enumerate(traced_s)]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["zoo.build_s"] = totals["setup"]["zoo.build_s"]
    metrics["cli.main_s"] = totals["cli"]["cli.main_s"]
    metrics["trace.untraced_pass_s"] = statistics.median(untraced_s)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    metrics["trace.passes"] = len(traced_s)
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
