"""Tracing of the escortropy layers, installed from outside the package.

A ``Tracer`` wraps every public function of the seven layer modules, plus the
constructors of the three validated probability objects and the JSON calls
made by ``cli``, and records one span per call: name, binding site, parent
span, start and end. Nothing inside the package is edited; the wrappers are
installed from outside and removed again, so untraced requests in the same
process run the original code.

Modules import each other's names (``from .prob import condition_on_a``), so
a function is reachable through several module namespaces. Each namespace
that binds a wrapped function gets its own wrapper, which also tells us the
call site (for example ``hybrid_rows`` called from ``axioms``).

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans, so the self times of all layers add up
to the duration of the root ``cli.main`` span.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import json
import statistics
import time
import types

import numpy as np

LAYERS = ("cli", "chain_rules", "axioms", "entropies", "escort", "qcalc", "prob")
PROB_OBJECTS = ("Distribution", "JointDistribution", "ConditionalDistribution")
CELL_LAYERS = ("entropies", "escort")

# Span record fields.
NAME, SITE, PARENT, START, END, CELLS, ROWS = range(7)


def _cells(x) -> int:
    """Number of cells of the array a call receives as its first argument."""
    while hasattr(x, "weights"):
        x = x.weights
    return int(np.size(x))


class _TracedJson(types.ModuleType):
    """Stand-in for the ``json`` module inside ``cli`` whose encode and decode
    calls are traced; every other attribute is the real module's."""

    def __init__(self, tracer: "Tracer", real: types.ModuleType):
        super().__init__("json")
        self.__dict__.update(vars(real))
        for name in ("load", "loads", "dump", "dumps"):
            setattr(self, name, tracer._wrap(getattr(real, name), f"cli.json.{name}", "cli"))


class Tracer:
    """Installs span-recording wrappers into the escortropy package.

    Use as ``with tracer.installed(): ...``. Spans accumulate in ``spans``;
    call ``take()`` after each request to hand them over and start afresh.
    """

    def __init__(self, package: types.ModuleType):
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        self.namespaces = [package, *self.modules.values()]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        layer = name.split(".", 1)[0]
        count_cells = layer in CELL_LAYERS
        count_rows = name == "entropies.hybrid_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cells = _cells(args[0]) if count_cells and args else 0
            rows = np.atleast_2d(args[0]).shape[0] if count_rows else 0
            span = [name, site, stack[-1] if stack else -1, 0, 0, cells, rows]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        public = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    public[id(value)] = f"{layer}.{attr}"
        for namespace in self.namespaces:
            site = namespace.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(namespace).items()):
                name = public.get(id(value)) if isinstance(value, types.FunctionType) else None
                if name is not None:
                    self._patch(namespace, attr, self._wrap(value, name, site))
        prob = self.modules["prob"]
        for cls_name in PROB_OBJECTS:
            cls = getattr(prob, cls_name)
            self._patch(cls, "__post_init__", self._wrap(cls.__post_init__, f"prob.{cls_name}", "prob"))
        cli = self.modules["cli"]
        self._patch(cli, "json", _TracedJson(self, cli.json))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start an empty list."""
        spans = self.spans[:]
        self.spans.clear()
        self._stack.clear()
        return spans


def request_profile(spans: list[list]) -> dict:
    """Per-layer counts and times of the spans of one request, as a Counter.

    Keys ending in ``_ns`` are times; ``report_ns`` lists the duration of each
    ``chain_rule_report`` call; every other key is a count.
    """
    n = len(spans)
    child_ns = [0] * n
    in_report = [False] * n
    in_sampler = [False] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_ns[parent] += span[END] - span[START]
            in_report[i] = in_report[parent]
            in_sampler[i] = in_sampler[parent]
        in_report[i] = in_report[i] or span[NAME] == "chain_rules.chain_rule_report"
        in_sampler[i] = in_sampler[i] or span[NAME] == "axioms.sample_dependent_joint"

    profile = collections.Counter()
    profile["report_ns"] = []
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        duration = span[END] - span[START]
        profile[f"{layer}.self_ns"] += duration - child_ns[i]
        if name.startswith("cli.json."):
            profile["cli.json_ns"] += duration
            continue
        if name.removeprefix("prob.") in PROB_OBJECTS:
            profile["objects"] += 1
            profile["objects_in_reports"] += in_report[i]
            profile["sampler_attempts"] += in_sampler[i] and name == "prob.JointDistribution"
            continue
        profile[f"{layer}.calls"] += 1
        profile[name] += 1
        parent = span[PARENT]
        if layer in CELL_LAYERS and (parent < 0 or not spans[parent][NAME].startswith(layer + ".")):
            profile[f"{layer}.cells"] += span[CELLS]
        if name == "entropies.hybrid_rows" and span[SITE] == "axioms":
            profile["objective_rows"] += span[ROWS]
        elif name == "axioms.sample_dependent_joint":
            profile["sampler_accepts"] += 1
        elif name == "chain_rules.chain_rule_report":
            profile["reports"] += 1
            profile["report_ns"].append(duration)
    return profile


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counted: list[dict], timed: list[dict], overhead_frac: float) -> dict[str, float]:
    """Per-request per-layer metrics.

    Counts are means over ``counted``, a fixed prefix of the traced requests,
    so they repeat exactly for a given workload seed. Times are means over
    every traced request in ``timed``. A ratio whose base is zero on a
    workload (no reports, no sampled joints) reads 0.
    """

    def count(key):
        return sum(p[key] for p in counted) / len(counted)

    def ms(key):
        return sum(p[key] for p in timed) / len(timed) / 1e6

    report_ns = [ns for p in timed for ns in p["report_ns"]]
    return {
        "prob.objects_built": count("objects"),
        "prob.objects_per_report": _ratio(count("objects_in_reports"), count("reports")),
        "prob.condition_on_a_calls": count("prob.condition_on_a"),
        "prob.marginal_a_calls": count("prob.marginal_a"),
        "prob.self_ms": ms("prob.self_ns"),
        "chain_rules.calls": count("chain_rules.calls"),
        "chain_rules.self_ms": ms("chain_rules.self_ns"),
        "chain_rules.report_us_p50": statistics.median(report_ns) / 1e3 if report_ns else 0.0,
        "entropies.calls": count("entropies.calls"),
        "entropies.cells": count("entropies.cells"),
        "entropies.computed_read_bytes": 8.0 * count("entropies.cells"),
        "entropies.self_ms": ms("entropies.self_ns"),
        "escort.calls": count("escort.calls"),
        "escort.cells": count("escort.cells"),
        "escort.self_ms": ms("escort.self_ns"),
        "qcalc.calls": count("qcalc.calls"),
        "qcalc.self_ms": ms("qcalc.self_ns"),
        "axioms.self_ms": ms("axioms.self_ns"),
        "axioms.objective_rows": count("objective_rows"),
        "axioms.sample_accept_ratio": _ratio(count("sampler_accepts"), count("sampler_attempts")),
        "cli.self_ms": ms("cli.self_ns"),
        "cli.json_ms": ms("cli.json_ns"),
        "cli.fmt_calls": count("cli.fmt"),
        "trace.overhead_frac": overhead_frac,
    }


def write_spans(path, requests: list[list[list]]) -> None:
    """Write the spans of the given requests as gzipped JSON, one line per
    request with one array per span field; ``parent`` indexes the same
    request's arrays and is -1 for the root span."""
    fields = {"name": NAME, "site": SITE, "parent": PARENT, "start_ns": START, "end_ns": END}
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
        for request_id, spans in enumerate(requests):
            columns = {key: [span[i] for span in spans] for key, i in fields.items()}
            handle.write(json.dumps({"request": request_id, **columns}) + "\n")
