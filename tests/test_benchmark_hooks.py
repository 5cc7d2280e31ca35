"""The benchmark's tracer still finds every leeyang name it wraps.

``perfbench/tracing.py`` patches public functions and methods by name; a
rename or removal here would otherwise surface only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

from leeyang import chain, zeros
from leeyang.gibbs import rademacher

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_records_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        zeros.locate_zeros(zeros.EntireMGF(rademacher()), zeros.Rectangle(-1, 1, 0, 2))
        chain.chain_vs_heat(16, 1.0, 64)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"zeros.mgf_eval", "zeros.evaluator", "zeros.locate_zeros",
            "chain.chain_vs_heat"} <= names
    assert zeros.locate_zeros.__module__ == "leeyang.zeros"
    assert not hasattr(zeros.locate_zeros, "__wrapped__")
