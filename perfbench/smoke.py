#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 perfbench/smoke.py

Runs every workload of the harness at the tiny scale, untraced and
traced, and checks the last output line against BENCHMARK.json: the keys,
the metric names and units, finite values, and that traced self times plus
uncovered time add up to the traced wall time.  It then runs one pass with
a certificate made to fail and checks that it is counted, and checks that
the benchmark fails, printing no result, where src/ is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]
    return doc


def check_workload(name: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        doc = last_json(proc.stdout)
        metrics = doc["metrics"]
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert list(metrics) == list(expected), (name, trace, set(metrics) ^ set(expected))
        for metric, unit in expected.items():
            assert metrics[metric]["unit"] == unit, (metric, metrics[metric])
            assert math.isfinite(metrics[metric]["value"]), (metric, metrics[metric])
        if trace:
            v = {k: m["value"] for k, m in metrics.items()}
            layers = sum(val for k, val in v.items()
                         if k.count(".") == 1 and k.endswith(".self_s"))
            total = layers + v["trace.uncovered_s"]
            assert abs(total - v["trace.wall_s"]) <= 1e-9 + 1e-9 * v["trace.wall_s"], v
        print(f"smoke: {name} trace={trace}: {len(metrics)} metrics, "
              f"{doc['failed']}/{doc['attempted']} failed, correct={doc['correct']}")


def check_failure_counted() -> None:
    """A certificate made to fail shows in failed, fail_frac and correct."""
    import run
    workloads = run.import_program()

    def measure(extra):
        original = workloads.WORKLOADS["chain-limit"]
        workloads.WORKLOADS["chain-limit"] = lambda *a: original(*a) + extra
        args = argparse.Namespace(
            workload="chain-limit", seed=7, seconds=0.1, trace=0, scale="tiny",
            setup_only=False)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                assert run.measure(args) == 0
        finally:
            workloads.WORKLOADS["chain-limit"] = original
        return last_json(buf.getvalue())

    def broken_run():
        raise RuntimeError("made to fail")

    def check(res, err):
        out = workloads.Outcome("smoke:broken")
        if err is not None:
            out.fail(f"raised {err}")
        return [out]

    base = measure([])
    bad = measure([workloads.Unit("smoke:broken", broken_run, check)])
    assert bad["attempted"] == base["attempted"] + 1, (base, bad)
    assert bad["failed"] == base["failed"] + 1, (base, bad)
    assert base["correct"] and not bad["correct"], (base, bad)
    print(f"smoke: injected failure counted ({base['failed']}/{base['attempted']} -> "
          f"{bad['failed']}/{bad['attempted']}, correct -> {bad['correct']})")


def check_fails_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "7",
                             "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"smoke: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        check_workload(name)
    check_failure_counted()
    check_fails_without_program()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
