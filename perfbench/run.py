#!/usr/bin/env python3
"""Certificate benchmark for leeyang.

    python3 perfbench/run.py --workload piz-sweep --seed 7 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
this checkout.  One run makes its inputs from the seed and repeats one pass
over the workload's units for ``--seconds`` seconds, in closed loop from
this one process, with ``--threads 1`` and BLAS pinned to one thread.
Between passes it times setup: fresh processes that import leeyang and
make the inputs.  Every certificate is checked; failures are counted and the
pass goes on.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass and the tracing overhead against untraced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, failures, output digest) and the spans go to ``.perfbench_out/``.

``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3            # untraced run; a traced run makes 2 untraced + 2 traced
HARD_STOP_S = 140.0       # no new pass after this, so a run ends well within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import leeyang from this checkout's src/, or exit non-zero."""
    if not (SRC / "leeyang" / "__init__.py").is_file():
        sys.exit(f"perfbench: no leeyang sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leeyang
    if Path(leeyang.__file__).resolve().parent != (SRC / "leeyang").resolve():
        sys.exit(f"perfbench: leeyang imported from {leeyang.__file__}, not {SRC}")
    import workloads
    return workloads


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "leeyang_threads": 1, "commit": git_commit(), "seed": seed}


def time_setup(args) -> float:
    """Wall time of a fresh process that imports leeyang and makes the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    t0 = time.perf_counter()
    # no timeout: Popen.wait with a timeout polls, which rounds the time up
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_pass(units, tracer=None, pass_no=0) -> dict:
    times, outcomes = {}, []
    for unit in units:
        if tracer is not None:
            tracer.cert, tracer.pass_no = unit.uid, pass_no
        err = res = None
        t0 = time.perf_counter()
        try:
            res = unit.run()
        except Exception as e:  # a failed certificate; the pass goes on
            err = e
        times[unit.uid] = time.perf_counter() - t0
        try:
            outcomes += unit.check(res, err)
        except Exception as e:
            from workloads import Outcome
            bad = Outcome(unit.uid)
            bad.fail(f"check raised {type(e).__name__}: {e}")
            outcomes.append(bad)
    if tracer is not None:
        tracer.cert = None
    digest = hashlib.sha256(json.dumps([[o.cid, o.digest] for o in outcomes],
                                       sort_keys=True).encode()).hexdigest()
    return {"times": times, "wall": sum(times.values()), "outcomes": outcomes,
            "digest": digest, "pass_no": pass_no}


def run_passes(units, seconds: float, min_passes: int, tracer=None, first=0,
               setup: list[float] | None = None, args=None) -> list[dict]:
    """Passes until ``seconds`` are used.

    With ``setup``, also appends SETUP_REPEATS setup times spread over the
    window: the machine's speed drifts over seconds, so back-to-back samples
    would all see one phase of it.
    """
    passes, t0 = [], time.perf_counter()
    while True:
        if setup is not None and time.perf_counter() - t0 >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(time_setup(args))
        passes.append(run_pass(units, tracer, first + len(passes)))
        elapsed = time.perf_counter() - t0
        est = statistics.median(p["wall"] for p in passes)
        if elapsed + est > HARD_STOP_S or (len(passes) >= min_passes and elapsed + est > seconds):
            while setup is not None and len(setup) < SETUP_REPEATS:
                setup.append(time_setup(args))
            return passes


def median_wall(passes) -> float:
    """Sum over units of each unit's median time: one pass, robust to stalls."""
    return sum(statistics.median(p["times"][uid] for p in passes) for uid in passes[0]["times"])


def measure(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    workloads = import_program()
    out_dir = OUT / "cli" / f"{args.workload}-seed{args.seed}"
    units = workloads.WORKLOADS[args.workload](args.seed, args.scale, out_dir)
    if args.setup_only:
        return 0

    tracer, setup = None, []
    if args.trace:
        import tracing
        untraced = run_passes(units, args.seconds / 2, 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_passes(units, args.seconds / 2, 2, tracer, len(untraced))
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = run_passes(units, args.seconds, MIN_PASSES, setup=setup, args=args)

    per_pass = [p["outcomes"] for p in passes]
    worst = max(per_pass, key=lambda oc: sum(not o.ok for o in oc))
    attempted, failed = len(worst), sum(not o.ok for o in worst)
    unexpected = [o.cid for oc in per_pass for o in oc if not o.ok and o.known is None]
    deterministic = len({p["digest"] for p in passes}) == 1
    known: dict[str, int] = {}
    for o in worst:
        for d in o.known or ():
            known[d] = known.get(d, 0) + 1

    if args.trace:
        wall = median_wall(untraced)
        mid = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
        spans = [s for s in tracer.spans if s.pass_no == mid["pass_no"]]
        metrics = tracing.layer_metrics(spans, mid["wall"])
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = mid["wall"] - wall
        units_of = {n: tracing.unit_of(n) for n in metrics}
    else:
        metrics = {"wall_s": median_wall(passes), "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units_of = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "unit_median_s": {uid: statistics.median(p["times"][uid] for p in passes)
                          for uid in passes[0]["times"]},
        "setup_samples_s": setup,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": [{"cid": o.cid, "known": o.known, "problems": [m for m, _ in o.problems]}
                     for o in worst if not o.ok],
        "known_defect_failures": known, "known_defects": workloads.KNOWN_DEFECTS,
        "unexpected_failures": sorted(set(unexpected)),
        "digest": passes[0]["digest"], "deterministic": deterministic,
        "machine": machine_record(args.seed), "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        stem.with_name(stem.name + "-spans.json").write_text(
            json.dumps(tracing.spans_as_dicts(tracer.spans)))

    shown = " ".join(f"{k}={v:.4g} {units_of[k]}" for k, v in metrics.items() if v)
    print(f"{args.workload} seed={args.seed} passes={len(passes)}: {shown} "
          f"fail_frac={failed}/{attempted}={failed / attempted:.3f} "
          f"known={known} unexpected={len(set(unexpected))} digest={record['digest'][:12]} "
          f"record={stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not unexpected and deterministic, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of the end-to-end results."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print(lines[-2] if len(lines) > 1 else "")
        rows.append((name, json.loads(lines[-1])))
    if not args.trace:
        print(f"\n{'workload':<12} {'wall_s':>9} {'setup_s':>8} {'peak_rss_mb':>11} "
              f"{'fail_frac':>16} correct")
        for name, r in rows:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{name:<12} {m['wall_s']:>7.3f} s {m['setup_s']:>6.3f} s "
                  f"{m['peak_rss_mb']:>8.1f} MB {r['failed']:>4}/{r['attempted']:<3} "
                  f"= {r['failed'] / r['attempted']:.3f} {r['correct']}")
    return 0


WORKLOAD_NAMES = ("piz-sweep", "zero-ladder", "chaos-mc", "chain-limit")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("tiny", "bench", "full"), default="bench",
                   help="bench: the timed pass; full: the whole population; tiny: smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="import leeyang and make the inputs, then exit (times setup)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
