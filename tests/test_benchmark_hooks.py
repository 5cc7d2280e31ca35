"""The benchmark's tracer still finds every leeyang name it wraps.

``perfbench/tracing.py`` patches public functions and methods by name; a
rename or removal here would otherwise surface only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from leeyang import chain, gibbs, zeros
from leeyang.gibbs import ModelSpec, rademacher
from leeyang.graphs import path_graph, single_edge_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("tracing")


def test_benchmark_tracer_records_spans(monkeypatch):
    tracing = import_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        f = zeros.EntireMGF(rademacher())
        zeros.locate_zeros(f, zeros.Rectangle(-1, 1, 0, 2))
        # locate_zeros takes its axis residuals in one batch, not through mgf_eval
        zeros.mgf_eval(f, 0.5j)
        chain.chain_vs_heat(16, 1.0, 64)
        dist = gibbs.observable_distribution(ModelSpec("villain", single_edge_graph()), 16)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"zeros.mgf_eval", "zeros.evaluator", "zeros.locate_zeros",
            "chain.chain_vs_heat"} <= names
    # the counter binds observable_distribution's parameters by name
    [law] = [s for s in tracer.spans if s.name == "gibbs.observable_distribution"]
    assert law.counts == {"grid_points": 256, "atoms_out": len(dist.xs)}
    assert zeros.locate_zeros.__module__ == "leeyang.zeros"
    assert not hasattr(zeros.locate_zeros, "__wrapped__")


@pytest.mark.parametrize("law, path", [
    (lambda: gibbs.observable_distribution(ModelSpec("villain", path_graph(3)), 128), "gauss"),
    (rademacher, "direct"),
], ids=["villain-path3-128", "rademacher"])
def test_benchmark_tracer_sees_one_evaluator_per_report(law, path, monkeypatch):
    dist = law()
    tracing = import_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        report = zeros.locate_zeros(zeros.EntireMGF(dist), zeros.Rectangle(-4, 4, 0, 8))
    finally:
        tracer.uninstall()
    [span] = [s for s in tracer.spans if s.name == "zeros.evaluator"]
    # the tracer counts only a path named "spectral", which no evaluator has
    assert span.counts == {"built": 1, "spectral": 0}
    assert report.evaluator["path"] == path
