"""Spans around leeyang's public functions, installed from the benchmark.

:func:`install` replaces each listed function or method by a wrapper that
records a span (name, start, end, parent, certificate id) and, for some,
counts of the work done.  Functions are replaced wherever a leeyang module
holds a reference to them, so calls between layers (for
example ``locate_zeros`` -> ``count_zeros_rectangle``, or ``cli`` ->
``mc_moment``) are seen.  Private helpers are not wrapped.  Spans stay in
memory; :func:`layer_metrics` turns the spans of one pass into per-layer
metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict


class Span:
    """One call: ``parent`` is the enclosing Span, ``cert`` the unit it served."""

    __slots__ = ("name", "start", "end", "parent", "cert", "pass_no", "ok", "counts")


def spans_as_dicts(spans: list[Span]) -> list[dict]:
    """JSON-ready spans; ``parent`` becomes the parent's index in the list."""
    pos = {id(s): i for i, s in enumerate(spans)}
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": pos.get(id(s.parent)) if s.parent is not None else None,
             "cert": s.cert, "pass": s.pass_no, "ok": s.ok, "counts": s.counts}
            for s in spans]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.cert: str | None = None
        self.pass_no = -1
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, counter=None):
        """Wrap fn; ``name`` is a string or a function of (args, kwargs)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.name = name if isinstance(name, str) else name(args, kwargs)
            span.parent = self._stack[-1] if self._stack else None
            span.cert, span.pass_no, span.ok, span.counts = self.cert, self.pass_no, False, None
            self._stack.append(span)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr: str, name, counter=None, modules=()) -> None:
        """Replace owner.attr, and every reference to it in ``modules``."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, counter)
        targets = [owner] if inspect.isclass(owner) else [owner, *modules]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, original))
                    setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer) -> None:
    """Wrap the public functions through which leeyang's layers call each other."""
    from leeyang import chain, cli, gibbs, gmc, lyclass, zeros

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "leeyang" or name.startswith("leeyang."))]

    observable_distribution = gibbs.observable_distribution
    dirichlet_ratio = chain.dirichlet_ratio

    def grid_counter(args, kwargs, dist):
        a = _bound(observable_distribution, args, kwargs)
        model = a["model"]
        free = len(model.graph.vertices) - len(model.boundary or {})
        return {"grid_points": a["N"] ** free, "atoms_out": len(dist.xs)}

    def locate_counter(args, kwargs, report):
        return {"cells": len(report.cell_counts),
                "zeros_found": sum(z.multiplicity for z in report.zeros)}

    def ratio_counter(args, kwargs, result):
        a = _bound(dirichlet_ratio, args, kwargs)
        n, N = a["n"], a["N"]
        # two pinned-end partitions, each n - 2 dense N x N matrix-vector products
        return {"flops_computed": 2 * max(n - 2, 0) * 2 * N * N}

    def samples_counter(args, kwargs, est):
        return {"samples": est.samples}

    seen = weakref.WeakSet()

    def evaluator_counter(args, kwargs, ev):
        if ev in seen:
            return {"built": 0}
        seen.add(ev)
        return {"built": 1, "spectral": int(args[0].fast_path == "spectral")}

    def cli_name(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return "cli." + (argv[0] if argv else "none")

    functions = [
        (gibbs, "observable_distribution", grid_counter),
        (gibbs, "distribution_from_atoms", None),
        (zeros, "refinement_stable_report", None),
        (zeros, "locate_zeros", locate_counter),
        (zeros, "count_zeros_rectangle", None),
        (zeros, "mgf_eval", None),
        (zeros, "hadamard_fit", None),
        (lyclass, "classify", None),
        (lyclass, "weak_limit_harness", None),
        (chain, "dirichlet_ratio", ratio_counter),
        (chain, "chain_vs_heat", None),
        (gmc, "mc_moment", samples_counter),
        (gmc, "dgff_sample", None),
        (gmc, "sample_m_statistics", None),
        (gmc, "bin_distribution", None),
        (gmc, "moment_growth_fit", None),
    ]
    for module, attr, counter in functions:
        layer = module.__name__.rsplit(".", 1)[-1]
        tracer.patch(module, attr, f"{layer}.{attr}", counter, modules)
    tracer.patch(cli, "main", cli_name, None, modules)
    tracer.patch(zeros.EntireMGF, "__init__", "zeros.EntireMGF")
    tracer.patch(zeros.EntireMGF, "evaluator", "zeros.evaluator", evaluator_counter)
    tracer.patch(gmc.LatticeDomain, "cholesky", "gmc.LatticeDomain.cholesky")
    tracer.patch(gmc.LatticeDomain, "green_matrix", "gmc.LatticeDomain.green_matrix")


CLI_COMMANDS = ("gmc-moments", "dgff-check", "m-stat", "chain-limit")
LAYERS = ("gibbs", "zeros", "lyclass", "chain", "gmc", "cli")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ["gibbs.observable_distribution.s", "gibbs.observable_distribution.calls",
     "gibbs.grid_points", "gibbs.atoms_out", "gibbs.distribution_from_atoms.s",
     "zeros.refinement_stable_report.self_s", "zeros.EntireMGF.s",
     "zeros.evaluator.direct_built", "zeros.evaluator.spectral_built",
     "zeros.evaluator.build_s",
     "zeros.count_zeros_rectangle.calls", "zeros.count_zeros_rectangle.s",
     "zeros.count_zeros_rectangle.failed", "zeros.count_zeros_rectangle.useful_ratio",
     "zeros.mgf_eval.calls", "zeros.mgf_eval.s",
     "zeros.locate_zeros.s", "zeros.locate_zeros.self_s", "zeros.cells", "zeros.zeros_found",
     "zeros.hadamard_fit.s", "lyclass.classify.s", "lyclass.weak_limit_harness.self_s",
     "chain.dirichlet_ratio.s", "chain.dirichlet_ratio.flops_computed",
     "chain.chain_vs_heat.s",
     "gmc.mc_moment.s", "gmc.mc_moment.samples", "gmc.mc_moment.samples_per_s",
     "gmc.dgff_sample.s", "gmc.LatticeDomain.cholesky.s",
     "gmc.LatticeDomain.green_matrix.s", "gmc.sample_m_statistics.s",
     "gmc.bin_distribution.s", "gmc.moment_growth_fit.s"]
    + [f"cli.{c}.{k}" for c in CLI_COMMANDS for k in ("s", "self_s")]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.uncovered_s",
       "trace.spans"]
)


COUNTS = {"gibbs.observable_distribution.calls", "gibbs.grid_points", "gibbs.atoms_out",
          "zeros.evaluator.direct_built", "zeros.evaluator.spectral_built",
          "zeros.count_zeros_rectangle.calls", "zeros.count_zeros_rectangle.failed",
          "zeros.mgf_eval.calls", "zeros.cells", "zeros.zeros_found",
          "chain.dirichlet_ratio.flops_computed", "gmc.mc_moment.samples", "trace.spans"}


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    return "ratio" if name.endswith("_ratio") else "1/s" if name.endswith("per_s") else "s"


def layer_metrics(spans: list[Span], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one pass; ``pass_wall`` is the pass's timed wall time.

    Self times of all spans plus ``trace.uncovered_s`` add up to ``pass_wall``.
    """
    pos = {id(s): i for i, s in enumerate(spans)}
    dur = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            covered[pos[id(s.parent)]] += dur[i]
    total, self_s, calls, failed = (defaultdict(float) for _ in range(4))
    counts: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        total[s.name] += dur[i]
        self_s[s.name] += dur[i] - covered[i]
        calls[s.name] += 1
        failed[s.name] += not s.ok
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "zeros.evaluator" and s.counts and s.counts["built"]:
            counts["zeros.evaluator.build_s"] += dur[i]

    m = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "s" and base in total:
            m[name] = total[base]
        elif kind == "self_s" and base in self_s:
            m[name] = self_s[base]
    m["gibbs.observable_distribution.calls"] = calls["gibbs.observable_distribution"]
    m["gibbs.grid_points"] = counts["gibbs.observable_distribution.grid_points"]
    m["gibbs.atoms_out"] = counts["gibbs.observable_distribution.atoms_out"]
    m["zeros.evaluator.direct_built"] = (counts["zeros.evaluator.built"]
                                         - counts["zeros.evaluator.spectral"])
    m["zeros.evaluator.spectral_built"] = counts["zeros.evaluator.spectral"]
    m["zeros.evaluator.build_s"] = counts["zeros.evaluator.build_s"]
    czr = "zeros.count_zeros_rectangle"
    m[f"{czr}.calls"], m[f"{czr}.failed"] = calls[czr], failed[czr]
    # useful = returned a count; 0 when the workload never counts zeros
    m[f"{czr}.useful_ratio"] = (calls[czr] - failed[czr]) / calls[czr] if calls[czr] else 0.0
    m["zeros.mgf_eval.calls"] = calls["zeros.mgf_eval"]
    m["zeros.cells"] = counts["zeros.locate_zeros.cells"]
    m["zeros.zeros_found"] = counts["zeros.locate_zeros.zeros_found"]
    m["chain.dirichlet_ratio.flops_computed"] = counts["chain.dirichlet_ratio.flops_computed"]
    m["gmc.mc_moment.samples"] = counts["gmc.mc_moment.samples"]
    mc_s = total["gmc.mc_moment"]
    m["gmc.mc_moment.samples_per_s"] = counts["gmc.mc_moment.samples"] / mc_s if mc_s else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    roots = sum(dur[i] for i, s in enumerate(spans) if s.parent is None)
    m["trace.wall_s"] = pass_wall
    m["trace.uncovered_s"] = pass_wall - roots
    m["trace.spans"] = len(spans)
    for name in COUNTS:
        m[name] = int(m[name])
    return m
