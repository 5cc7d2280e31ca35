"""Seeded workloads of the certificate benchmark.

A workload turns a seed and a scale into a list of units.  A unit is one
timed call into leeyang (``run``) plus the untimed checks of what the call
returned (``check``), which give one :class:`Outcome` per certificate.

Every call goes through a module attribute (``zeros.locate_zeros``, not a
name imported from it), so the tracer in ``tracing.py`` sees it.

Scales: ``bench`` is the pass that timed runs repeat; ``full`` is the whole
population of a workload (with the default seed: criterion 1's 24-model grid
and the README's ``--seed 7`` chaos commands); ``tiny`` is for the smoke test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from leeyang import cli, gibbs, graphs, lyclass, zeros
from leeyang.errors import NumericalError

DEFAULT_SEED = 7
TOL = 1e-10

# Defects of the program that the benchmark counts as failures.  A failure
# whose every problem carries one of these ids is "known"; any other failure
# is unexpected and makes the run incorrect.
KNOWN_DEFECTS = {
    "D1": "zeros of a law with only imaginary zeros: off-axis or inconclusive "
          "verdict, or locate_zeros raises (Newton's absolute |f| test; split "
          "lines through axis zeros)",
    "D2": "chain-limit: make_xy_kernel overflows once n*b > 709, NaN distances, exit 0",
    "D3": "dirichlet_ratio builds its limit with precision 1/b instead of b",
    "D4": "two neighbouring cells' Newton runs reach one zero; it is merged into a "
          "false multiple zero and the other zero is lost, under a PIZ verdict",
}
OVERFLOW_B = 709.0


@dataclass
class Outcome:
    cid: str
    problems: list[tuple[str, str | None]] = field(default_factory=list)
    digest: object = None

    def fail(self, message: str, defect: str | None = None) -> None:
        self.problems.append((message, defect))

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def known(self) -> list[str] | None:
        """Defect ids if every problem is a known defect, else None."""
        ids = [d for _, d in self.problems]
        if not ids or any(d is None for d in ids):
            return None
        return sorted(set(ids))


@dataclass
class Unit:
    uid: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], list[Outcome]]


def _r9(x: float):
    """Round for the output digest (1e-9 absolute; signed zero and NaN normalised)."""
    x = float(x)
    return round(x, 9) + 0.0 if math.isfinite(x) else repr(x)


def _s9(x: float):
    """Nine significant digits, for Monte Carlo and chain outputs."""
    x = float(x)
    return float(f"{x:.9g}") if math.isfinite(x) else repr(x)


def _zero_digest(report) -> list:
    return [[_r9(z.location.real), _r9(z.location.imag), z.multiplicity]
            for z in report.zeros]


def _raised(out: Outcome, err: BaseException, defect: str | None = None) -> list[Outcome]:
    out.fail(f"raised {type(err).__name__}: {err}", defect)
    return [out]


# ---------------------------------------------------------------------------
# piz-sweep: criterion 1, refinement_stable_report at N and 2N, then classify
# ---------------------------------------------------------------------------

PIZ_REGION = zeros.Rectangle(-4.0, 4.0, 0.0, 8.0)
PIZ_N = {"tiny": 32, "bench": 128, "full": 128}
J_LEVELS = (0.5, 1.0, 2.0)
LAM_LEVELS = (0.5, 1.0)
GRAPH_KINDS = tuple(itertools.product(("edge", "path3"), ("villain", "xy")))


def piz_blocks(seed: int) -> list[list[tuple[str, str, float, float]]]:
    """The 24 models (graph, kind, J, lambda) in 6 blocks of 4.

    Each block holds every graph x kind once, and each graph once at a low
    and once at a high lambda, so blocks cost about the same.  The default
    seed gives exactly criterion 1's grid; other seeds draw J log-uniformly
    within the third of [0.5, 2] around its level and lambda uniformly within
    the half of [0.5, 1] around its level.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(6):
        block = []
        for c, (graph, kind) in enumerate(GRAPH_KINDS):
            li, ji = (b + c) % 2, (b // 2 + c) % 3
            if seed == DEFAULT_SEED:
                J, lam = J_LEVELS[ji], LAM_LEVELS[li]
            else:
                J = 0.5 * 4.0 ** ((ji + rng.random()) / 3.0)
                lam = 0.5 + 0.25 * (li + rng.random())
            block.append((graph, kind, float(J), float(lam)))
        blocks.append(block)
    return blocks


def _piz_unit(graph: str, kind: str, J: float, lam: float, N: int) -> Unit:
    g = (graphs.single_edge_graph(J=J, lam=(lam, lam)) if graph == "edge"
         else graphs.path_graph(3, J=J, lam=lam))
    model = gibbs.ModelSpec(kind, g)
    uid = f"piz:{graph}:{kind}:J={J:.6g}:lam={lam:.6g}"

    def run():
        laws = {}

        def factory(n):
            laws[n] = gibbs.observable_distribution(model, n)
            return laws[n]

        report, disp = zeros.refinement_stable_report(factory, N, PIZ_REGION, TOL)
        return report, disp, lyclass.classify(laws[2 * N], zero_report=report).verdict

    def check(res, err):
        out = Outcome(uid)
        if err is not None:
            return _raised(out, err)
        report, disp, verdict = res
        if report.piz_verdict != zeros.VERDICT_PIZ:
            out.fail(f"verdict {report.piz_verdict}")
        if verdict != lyclass.VERDICT_CONSISTENT:
            out.fail(f"class verdict {verdict}")
        locs = [z.location for z in report.zeros]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in locs):
            out.fail("non-finite zero")
        max_re = max((abs(z.real) for z in locs), default=0.0)
        if not max_re < 1e-6:
            out.fail(f"max |Re z| = {max_re:.3e}")
        if not disp <= 10.0 * TOL:
            out.fail(f"zeros moved {disp:.3e} under grid doubling")
        if sum(z.multiplicity for z in report.zeros) != report.total_count:
            out.fail("listed zeros differ from the contour count")
        out.digest = {"verdict": report.piz_verdict, "zeros": _zero_digest(report),
                      "class": verdict}
        return [out]

    return Unit(uid, run, check)


def piz_sweep(seed: int, scale: str, out_dir: Path) -> list[Unit]:
    blocks = piz_blocks(seed)
    if scale == "tiny":
        models = [blocks[0][0]]
    elif scale == "bench":
        models = blocks[seed % 6]
    else:
        models = [m for block in blocks for m in block]
    return [_piz_unit(*m, PIZ_N[scale]) for m in models]


# ---------------------------------------------------------------------------
# zero-ladder: laws whose zeros are known in closed form
# ---------------------------------------------------------------------------

LADDER_REGION = zeros.Rectangle(-1.0, 1.0, 0.0, 6.0)
# A pass times the sum over many laws: a law that hits defect D1 by raising
# stops early, so few large laws would make the pass time depend on the seed.
LADDER_M = {"tiny": (6,),
            "bench": (8,) * 4 + (9,) * 4 + (10,) * 4 + (11,) * 3 + (13,) * 3 + (14,) * 2,
            "full": tuple(range(6, 15))}
THREE_ATOM_LAWS = {"tiny": 1, "bench": 2, "full": 3}
ZERO_TOL = 1e-7  # Newton stops on |f| < 1e-10, where |f'| can be ~1e-3
WEAK_NS = (4, 8, 16, 64)


def _match(found: list[float], oracle: list[float], tol: float) -> bool:
    return len(found) == len(oracle) and all(abs(a - b) <= tol for a, b in zip(found, oracle))


def _rademacher_unit(i: int, a: np.ndarray) -> Unit:
    """X = sum_i a_i eps_i: 2^m atoms, zeros i (k + 1/2) pi / a_i, B = 0, Var = sum a_i^2."""
    m = len(a)
    signs = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1) * 2.0 - 1.0
    atoms = np.column_stack([signs @ a, np.full(2**m, 2.0**-m)])
    H = LADDER_REGION.im_max
    oracle = sorted((k + 0.5) * math.pi / ai for ai in a
                    for k in range(int(H * ai / math.pi) + 1) if (k + 0.5) * math.pi / ai < H)
    var = float(np.sum(a * a))
    uid = f"ladder:sum{i}:m={m}"

    def run():
        dist = gibbs.distribution_from_atoms(atoms, symmetrize=True)
        f = zeros.EntireMGF(dist)
        report = zeros.locate_zeros(f, LADDER_REGION, TOL)
        fit = verdict = None
        if report.piz_verdict == zeros.VERDICT_PIZ:
            fit = zeros.hadamard_fit(f, report, Y=H, tol=TOL)
            verdict = lyclass.classify(dist, zero_report=report).verdict
        return f, report, fit, verdict

    def check(res, err):
        out = Outcome(uid)
        if err is not None:
            return _raised(out, err, "D1" if isinstance(err, NumericalError) else None)
        f, report, fit, verdict = res
        out.digest = {"verdict": report.piz_verdict, "zeros": _zero_digest(report),
                      "B": _r9(fit.B) if fit else None, "class": verdict}
        if not abs(f.variance - var) <= 1e-10 * var:
            out.fail(f"variance {f.variance!r} != sum a_i^2 = {var!r}")
        if report.piz_verdict != zeros.VERDICT_PIZ:
            out.fail(f"verdict {report.piz_verdict} (max |Re z| {report.max_abs_re:.2e})", "D1")
            return [out]
        found = sorted(z.location.imag for z in report.zeros for _ in range(z.multiplicity))
        if not _match(found, oracle, ZERO_TOL):
            merged = any(z.multiplicity > 1 for z in report.zeros)
            out.fail(f"zeros differ from the oracle ({len(found)} found, {len(oracle)} expected)",
                     "D4" if merged and len(found) == len(oracle) else None)
        # zeros agree to ZERO_TOL, so sum y^-2 agrees to sum 2 ZERO_TOL / y^3
        elif not (abs(fit.sum_inv_sq - sum(y**-2 for y in oracle))
                  <= sum(2.0 * ZERO_TOL / y**3 for y in oracle)):
            out.fail(f"Hadamard zero sum {fit.sum_inv_sq!r} off the oracle")
        # B = 0 exactly; the fit extrapolates the zero sum beyond Y, so allow
        # 5% of Var for that extrapolation.
        if not 0.0 <= fit.B <= 0.05 * var:
            out.fail(f"Hadamard B = {fit.B:.3e}, oracle 0")
        if verdict != lyclass.VERDICT_CONSISTENT:
            out.fail(f"class verdict {verdict}")
        return [out]

    return Unit(uid, run, check)


def _three_atom_unit(i: int, p: float, a: float) -> Unit:
    """(p, 1 - 2p, p) at (-a, 0, a): zeros (+-arccosh((1-2p)/2p) + i(2k+1) pi) / a."""
    r = math.acosh((1.0 - 2.0 * p) / (2.0 * p)) / a
    region = zeros.Rectangle(-2.0 * r, 2.0 * r, 0.0, 4.0 * math.pi / a)
    oracle = sorted(((s * r, (2 * k + 1) * math.pi / a) for k in (0, 1) for s in (-1.0, 1.0)),
                    key=lambda z: (z[1], z[0]))
    atoms = np.array([[-a, p], [0.0, 1.0 - 2.0 * p], [a, p]])
    uid = f"ladder:three{i}:p={p:.6g}:a={a:.6g}"

    def run():
        dist = gibbs.distribution_from_atoms(atoms, symmetrize=True)
        report = zeros.locate_zeros(zeros.EntireMGF(dist), region, TOL)
        return report, lyclass.classify(dist, zero_report=report).verdict

    def check(res, err):
        out = Outcome(uid)
        if err is not None:
            return _raised(out, err)
        report, verdict = res
        out.digest = {"verdict": report.piz_verdict, "zeros": _zero_digest(report),
                      "class": verdict}
        if report.piz_verdict != zeros.VERDICT_OFF_AXIS:
            out.fail(f"verdict {report.piz_verdict}, expected {zeros.VERDICT_OFF_AXIS}")
        found = sorted(((z.location.real, z.location.imag) for z in report.zeros),
                       key=lambda z: (round(z[1], 6), z[0]))
        if len(found) != len(oracle) or any(abs(complex(*u) - complex(*v)) > 1e-8
                                            for u, v in zip(found, oracle)):
            out.fail(f"zeros differ from the oracle ({len(found)} found, {len(oracle)} expected)")
        if verdict != lyclass.VERDICT_OFFAXIS:
            out.fail(f"class verdict {verdict}")
        return [out]

    return Unit(uid, run, check)


def _weak_limit_unit(s: float) -> Unit:
    """Rademacher laws at scale s (1 + 1/n) -> s; zeros i pi (k + 1/2) / (s (1 + 1/n))."""
    region = zeros.Rectangle(-2.0, 2.0, 0.0, 2.1 * math.pi / s)
    uid = f"ladder:weak:s={s:.6g}"

    def run():
        seq = [gibbs.rademacher(s * (1.0 + 1.0 / n)) for n in WEAK_NS]
        return lyclass.weak_limit_harness(seq, gibbs.rademacher(s), region=region, tol=TOL)

    def check(rep, err):
        out = Outcome(uid)
        if err is not None:
            return _raised(out, err)
        out.digest = {"verdicts": [r.piz_verdict for r in rep.zero_reports],
                      "zeros": [_zero_digest(r) for r in rep.zero_reports],
                      "consistent": rep.consistent}
        if not (rep.consistent and rep.all_piz and rep.distances_shrink
                and not rep.contradiction_flag):
            out.fail("weak-limit harness not consistent")
        for n, zr in zip(WEAK_NS, rep.zero_reports):
            c = s * (1.0 + 1.0 / n)
            oracle = [math.pi * (k + 0.5) / c for k in range(3)
                      if math.pi * (k + 0.5) / c < region.im_max]
            found = sorted(z.location.imag for z in zr.zeros for _ in range(z.multiplicity))
            if not _match(found, oracle, 1e-6) or zr.max_abs_re > 1e-6:
                out.fail(f"n={n}: zeros differ from the oracle")
        return [out]

    return Unit(uid, run, check)


def zero_ladder(seed: int, scale: str, out_dir: Path) -> list[Unit]:
    rng = np.random.default_rng(seed)
    units = [_rademacher_unit(i, rng.uniform(0.3, 1.0, m))
             for i, m in enumerate(LADDER_M[scale])]
    units += [_three_atom_unit(i, float(rng.uniform(0.03, 0.2)), float(rng.uniform(0.5, 2.0)))
              for i in range(THREE_ATOM_LAWS[scale])]
    units.append(_weak_limit_unit(float(rng.uniform(0.5, 1.5))))
    return units


# ---------------------------------------------------------------------------
# CLI workloads: chaos-mc and chain-limit run through leeyang.cli.main
# ---------------------------------------------------------------------------

def _cli_run(argv: list[str]) -> Callable[[], int]:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return run


def _results(path: Path) -> dict:
    return json.loads(path.read_text())["results"]


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


CHAOS_ARGS = {
    "tiny": (["gmc-moments", "--beta-sq", "1.44", "--k-max", "4", "--samples", "10000"],
             ["dgff-check", "--side", "5", "--samples", "5000"],
             ["m-stat", "--n", "4", "--r", "2", "--beta", "1.2", "--samples", "2000",
              "--bootstrap", "5"]),
    "bench": (["gmc-moments", "--beta-sq", "1.44", "--k-max", "5", "--samples", "250000"],
              ["dgff-check", "--side", "11", "--samples", "100000"],
              ["m-stat", "--n", "10", "--r", "2", "--beta", "1.2", "--samples", "20000"]),
    "full": (["gmc-moments", "--beta-sq", "1.44", "--k-max", "5", "--samples", "1000000"],
             ["dgff-check", "--side", "11", "--samples", "100000"],
             ["m-stat", "--n", "10", "--r", "2", "--beta", "1.2", "--samples", "20000"]),
}


def _chaos_unit(args: list[str], seed: int, out_dir: Path) -> Unit:
    sub = args[0]
    uid = f"chaos:{sub}"
    out = out_dir / sub
    argv = args + ["--seed", str(seed), "--threads", "1", "--out", str(out)]

    def check(rc, err):
        o = Outcome(uid)
        if err is not None:
            return _raised(o, err)
        if rc != 0:
            o.fail(f"exit code {rc}")
            return [o]
        if sub == "gmc-moments":
            res = _results(out / "gmc_moments.json")
            est = [m["estimate"] for m in res["moments"]]
            # stderr is not gated: at beta^2 >= 1 the batch-means error is not honest
            if not (_finite(*est) and all(e > 0 for e in est)):
                o.fail(f"moments not finite and positive: {est}")
            fit = res.get("growth_fit")
            if fit is None or not _finite(fit["beta_sq_hat"], fit["c_hat"]):
                o.fail("growth fit missing or not finite")
            o.digest = [_s9(e) for e in est]
        elif sub == "dgff-check":
            res = _results(out / "dgff_check.json")
            err_rel = res["frobenius_relative_error"]
            side = int(args[args.index("--side") + 1])
            if not (_finite(err_rel) and err_rel < 0.05):
                o.fail(f"DGFF covariance off green_matrix by {err_rel}")
            if res["interior_sites"] != side * side:
                o.fail(f"{res['interior_sites']} interior sites, expected {side * side}")
            o.digest = _s9(err_rel)
        else:
            res = _results(out / "m_stat.json")
            vals = [res["mean"], res["std"], res["second_moment"]]
            vals += [z[k] for z in res["zeros"] for k in ("re", "im", "residual")]
            if not (_finite(*vals) and res["std"] > 0 and res["second_moment"] > 0):
                o.fail("m-stat outputs not finite and positive")
            o.digest = [res["verdict"]] + [_s9(v) for v in vals]
        return [o]

    return Unit(uid, _cli_run(argv), check)


def chaos_mc(seed: int, scale: str, out_dir: Path) -> list[Unit]:
    return [_chaos_unit(list(args), seed, out_dir) for args in CHAOS_ARGS[scale]]


CHAIN_NS = {"tiny": (16, 32, 64), "bench": (32, 64, 128, 256, 512, 1024)}
CHAIN_GRID = {"tiny": 256, "bench": 512}


def periodized_gaussian(theta: float, precision: float) -> float:
    """sum_m exp(-(precision / 2) (theta + 2 pi m)^2), the benchmark's own oracle."""
    m = np.arange(-40, 41)
    return float(np.sum(np.exp(-0.5 * precision * (theta + 2.0 * math.pi * m) ** 2)))


def _chain_unit(b: float, ns: tuple[int, ...], grid: int, out_dir: Path) -> Unit:
    uid = f"chain:b={b:.6g}"
    out = out_dir / f"chain-b{b:.6g}"
    argv = ["chain-limit", "--b", repr(b), "--n-list", ",".join(map(str, ns)),
            "--grid-n", str(grid), "--threads", "1", "--out", str(out)]

    def check(rc, err):
        if err is not None or rc != 0:
            outcomes = [Outcome(f"{uid}:n={n}") for n in ns]
            for o in outcomes:
                o.fail(f"raised {type(err).__name__}: {err}" if err else f"exit code {rc}")
            return outcomes
        doc = json.loads((out / "chain_limit.json").read_text())
        pair, ref = doc["config"]["pair"], doc["config"]["pair_ref"]
        limit = (periodized_gaussian(pair[1] - pair[0], b)
                 / periodized_gaussian(ref[1] - ref[0], b))
        rows = {r["n"]: r for r in doc["results"]["rows"]}
        outcomes = []
        for n in ns:
            row, o = rows[n], Outcome(f"{uid}:n={n}")
            o.digest = [_s9(row[k]) for k in ("sup_distance", "l1_distance", "ratio",
                                             "limit_ratio")]
            if not _finite(row["sup_distance"], row["l1_distance"], row["ratio"]):
                o.fail("NaN or inf in the row", "D2" if n * b > OVERFLOW_B else None)
            if 2 * n in rows:
                d2 = rows[2 * n]["sup_distance"]
                q = row["sup_distance"] / d2 if _finite(row["sup_distance"], d2) else math.nan
                if not 1.6 <= q <= 2.4:
                    o.fail(f"d(n)/d(2n) = {q:.4g}", "D2" if 2 * n * b > OVERFLOW_B else None)
            if not abs(row["limit_ratio"] - limit) <= 1e-9 * limit:
                o.fail(f"limit_ratio {row['limit_ratio']:.6g}, oracle {limit:.6g}",
                       "D3" if b != 1.0 else None)
            # the chain ratio converges like 1/n; 0.5 / (n b) is 2.7x the worst
            # gap seen for b in [0.5, 2]
            if not abs(row["ratio"] - limit) <= 0.5 / (n * b):
                o.fail(f"ratio {row['ratio']:.6g} off the limit {limit:.6g}")
            outcomes.append(o)
        return outcomes

    return Unit(uid, _cli_run(argv), check)


def chain_limit(seed: int, scale: str, out_dir: Path) -> list[Unit]:
    """b = 1 (the README's value) plus one coupling drawn below and one above it."""
    rng = np.random.default_rng(seed)
    bs = (1.0, float(rng.uniform(0.5, 1.0)), float(rng.uniform(1.0, 2.0)))
    if scale == "tiny":
        bs = bs[:2]
    key = "tiny" if scale == "tiny" else "bench"
    return [_chain_unit(b, CHAIN_NS[key], CHAIN_GRID[key], out_dir) for b in bs]


WORKLOADS = {
    "piz-sweep": piz_sweep,
    "zero-ladder": zero_ladder,
    "chaos-mc": chaos_mc,
    "chain-limit": chain_limit,
}
