"""Reproducible experiment runner.

Every pipeline of the package is exposed as a subcommand writing JSON/CSV
files that embed a format version and, as ``config``, every flag of the
subcommand as parsed, so a run is reproducible from its own output: that
``config`` fed back through ``--config`` repeats the run.  One master seed
drives all randomness (streams are split with numpy's SeedSequence).

The argument parser is the only place a flag is known.  ``--config`` makes
the values of a JSON file the subcommand's defaults, so the file may supply
required flags and a flag on the command line, in any spelling argparse
accepts, wins over it.

Exit codes: 0 success, 1 numerical failure (including a failed PIZ
verification and a NaN or infinity in a report), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .chain import chain_vs_heat, dirichlet_ratio
from .errors import NumericalError
from .gibbs import (DiscretizedDistribution, ModelSpec, observable_distribution)
from .gmc import (DESK_MAX_K, LatticeDomain, _refuse_dense_summation, bin_distribution,
                  dgff_covariance, mc_moment, moment_growth_fit, sample_m_statistics,
                  tail_prediction)
from .graphs import graph_from_json
from .lyclass import TailProfile, classify, slowtail_applies
from .zeros import (MERGE_DISTANCE, OFFAXIS_FACTOR, EntireMGF, Rectangle,
                    VERDICT_INCONCLUSIVE, VERDICT_OFF_AXIS, VERDICT_PIZ, locate_zeros,
                    newton_refine, refinement_stable_report, zero_report_from_json)

FORMAT_VERSION = 1


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "config")}


def _report(args: argparse.Namespace, results: dict) -> str:
    try:
        return json.dumps({
            "format_version": FORMAT_VERSION,
            "tool_version": __version__,
            "config": _config(args),
            "results": results,
        }, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        raise NumericalError(f"{args.subcommand}: NaN or infinity in the report") from None


def _write(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(text)
    return target


def _csv_with_config(args: argparse.Namespace, body: str) -> str:
    return "# config: " + json.dumps(_config(args), sort_keys=True) + "\n" + body


def _load_dist(path: str) -> DiscretizedDistribution:
    return DiscretizedDistribution.from_csv(Path(path).read_text())


def _config_value(action: argparse.Action, key: str, val):
    """``val`` parsed by the type, choices and nargs of the flag's action,
    as the command line would parse it; a value it rejects raises ValueError."""
    tokens = [str(v) for v in val] if isinstance(val, list) else [str(val)]
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--value", type=action.type, nargs=action.nargs, choices=action.choices)
    try:
        ns, extra = probe.parse_known_args(["--value", *tokens])
    except argparse.ArgumentError as e:
        raise ValueError(f"--config key {key!r}: {e.message}") from None
    if extra:
        raise ValueError(f"--config key {key!r}: unexpected values {extra}")
    return ns.value


def _config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the values of the --config JSON the subcommand's defaults.

    Keys use either dash or underscore form.  A value is accepted exactly
    when the command line accepts it after the flag (a list gives one token
    per element); it satisfies a required flag, and the flag given on the
    line wins over it.  null keeps the default, and keys that name no option
    of the subcommand are ignored.
    """
    # a one-option parser finds --config under every spelling the real one
    # accepts; a missing value is left for the real parser to report
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    # the top-level parser takes no option values: its first positional is the subcommand
    name = next((tok for tok in argv if not tok.startswith("-")), None)
    # argparse has no public lookup of a subcommand's option actions
    sub = parser._subparsers._group_actions[0].choices.get(name)
    if path is None or sub is None:
        return
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {path}: not a JSON object")
    for key, val in cfg.items():
        action = sub._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.nargs == 0 or action.dest == "config" or val is None:
            continue
        action.default = _config_value(action, key, val)
        action.required = False


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spin_dist(args) -> int:
    graph = graph_from_json(Path(args.graph).read_text())
    model = ModelSpec(kind=args.model, graph=graph, inverse_temperature=args.beta)
    dist = observable_distribution(model, args.grid_n)
    _write(args.out, "spin_dist.json", _report(args, {
        "n_atoms": len(dist.xs), "variance": dist.variance,
        "support_radius": dist.support_radius, "symmetrized": dist.is_symmetric()}))
    _write(args.out, "spin_dist.csv", _csv_with_config(args, dist.to_csv()))
    print(f"spin-dist: {len(dist.xs)} atoms, variance {dist.variance:.6g}")
    return 0


def _cmd_zeros(args) -> int:
    dist = _load_dist(args.dist)
    report = locate_zeros(EntireMGF(dist), Rectangle(*args.region), args.tol)
    _write(args.out, "zero_report.json", _report(args, json.loads(report.to_json())))
    _write(args.out, "zeros.csv", _csv_with_config(args, report.zeros_csv()))
    print(f"zeros: {report.total_count} zero(s), verdict {report.piz_verdict}")
    return 0


def _cmd_classify(args) -> int:
    source = _load_dist(args.dist) if args.dist else None
    profile = None
    if args.tail_a is not None:
        b = float("nan") if args.tail_b is None else args.tail_b
        profile = TailProfile(exponent_a=args.tail_a, coefficient=b,
                              fit_residual=args.tail_residual, method="user_supplied")
    zr = zero_report_from_json(Path(args.zeros).read_text()) if args.zeros else None
    if source is None and profile is None:
        raise ValueError("classify needs --dist or --tail-a")
    verdict = classify(source, profile=profile, zero_report=zr)
    results = json.loads(verdict.to_json())
    results["tail_method"] = profile.method if profile else None
    _write(args.out, "class_verdict.json", _report(args, results))
    print(f"classify: {verdict.verdict}")
    return 0


def _cmd_chain_limit(args) -> int:
    rows = []
    for n in (int(s) for s in args.n_list.split(",")):
        row = chain_vs_heat(n, args.b, args.grid_n)
        rat = dirichlet_ratio(n, args.b, tuple(args.pair), tuple(args.pair_ref),
                              args.grid_n)
        rows.append(row | {"ratio": rat["ratio"], "limit_ratio": rat["limit_ratio"]})
    body = "n,b,sup_distance,l1_distance,ratio,limit_ratio\n" + "".join(
        f"{r['n']},{r['b']!r},{r['sup_distance']!r},{r['l1_distance']!r},"
        f"{r['ratio']!r},{r['limit_ratio']!r}\n" for r in rows)
    _write(args.out, "chain_limit.json", _report(args, {"rows": rows}))
    _write(args.out, "chain_limit.csv", _csv_with_config(args, body))
    for r in rows:
        print(f"chain-limit: n={r['n']} sup={r['sup_distance']:.3e} "
              f"l1={r['l1_distance']:.3e} ratio_gap={abs(r['ratio'] - r['limit_ratio']):.2e}")
    return 0


def _cmd_gmc_moments(args) -> int:
    if not 1 <= args.k_max <= DESK_MAX_K:
        raise ValueError(f"gmc-moments --k-max must be between 1 and {DESK_MAX_K}")
    ks = list(range(1, args.k_max + 1))
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(args.seed).spawn(len(ks))]
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        ests = list(pool.map(lambda kz: mc_moment(args.beta_sq, kz[0], args.samples, kz[1]),
                             zip(ks, seeds)))
    fit = moment_growth_fit(ests) if len(ests) >= 4 else None
    pred = tail_prediction(args.beta_sq)
    body = "k,estimate,stderr,samples,low_confidence\n" + "".join(
        f"{e.k},{e.estimate!r},{e.stderr!r},{e.samples},{int(e.low_confidence)}\n" for e in ests)
    results = {"moments": [e.as_dict() for e in ests],
               "tail_exponent": pred.exponent_a, "slowtail_flagged": slowtail_applies(pred)}
    if fit:
        results["growth_fit"] = {"beta_sq_hat": fit.beta_sq_hat, "c_hat": fit.c_hat,
                                 "residual": fit.residual, "slope_stderr": fit.slope_stderr,
                                 "ci": list(fit.ci)}
    _write(args.out, "gmc_moments.json", _report(args, results))
    _write(args.out, "gmc_moments.csv", _csv_with_config(args, body))
    for e in ests:
        print(f"gmc-moments: k={e.k} estimate={e.estimate:.6g} +- {e.stderr:.2g}")
    if fit:
        print(f"gmc-moments: growth slope {fit.beta_sq_hat:.4f} "
              f"(target beta^2 = {args.beta_sq}), CI {fit.ci}")
    return 0


def _cmd_dgff_check(args) -> int:
    if args.samples < 1:
        raise ValueError("dgff-check --samples must be at least 1")
    domain = LatticeDomain.square(args.side)
    emp = dgff_covariance(domain, args.seed, args.samples)
    G = domain.green_matrix()
    norm_G = np.linalg.norm(G)
    rel = float(np.linalg.norm(emp - G) / norm_G)
    # the sample covariance of N fields h ~ N(0, G) is Wishart: E ||G^ - G||_F^2
    # = (||G||_F^2 + (tr G)^2) / N, so this is what rel should read
    predicted = float(np.sqrt((norm_G**2 + np.trace(G)**2) / args.samples) / norm_G)
    # the sampled identity itself is exact: C C^T = L, and G = L^{-1}
    L, C = domain.laplacian.toarray(), domain.cholesky()
    _write(args.out, "dgff_check.json", _report(args, {
        "frobenius_relative_error": rel, "interior_sites": domain.n_interior,
        "predicted_relative_error": predicted, "error_ratio": rel / predicted,
        "cholesky_residual": float(np.linalg.norm(C @ C.T - L) / np.linalg.norm(L)),
        "green_residual": float(np.linalg.norm(L @ G - np.eye(domain.n_interior)))}))
    print(f"dgff-check: Frobenius relative error {rel:.4f} on {domain.n_interior} sites, "
          f"{rel / predicted:.3f} times the predicted {predicted:.4f}")
    return 0


def _same_zeros(ends, ok, starts, region: Rectangle) -> np.ndarray:
    """Which Newton runs from the baseline zeros ``starts`` found their own zero again:
    converged, inside ``region``, nearest their own start, no other end within MERGE_DISTANCE."""
    inside = ((region.re_min <= ends.real) & (ends.real <= region.re_max)
              & (region.im_min <= ends.imag) & (ends.imag <= region.im_max))
    own = np.argmin(np.abs(ends[:, None] - starts), axis=1) == np.arange(len(starts))
    alone = (np.abs(ends[:, None] - ends) < MERGE_DISTANCE).sum(axis=1) == 1
    return ok & inside & own & alone


def _linearised_se(f: EntireMGF, locs: np.ndarray, n: int) -> list[tuple]:
    """(se_re, se_im) of each zero of f in ``locs`` by the delta method, or (None, None).

    f is the MGF of a symmetrised binned law of n samples, so f(z) = sum_b p_b cosh(z x_b)
    over the raw bin frequencies p, which are multinomial with covariance
    (diag p - p p^T) / n.  To first order a zero z0 moves by dz = -df(z0) / f'(z0),
    so (Re dz, Im dz) has the covariance of u = -(cosh(z0 x) - f(z0)) / f'(z0) under
    the law, over n.  cosh is even, so the symmetrised weights give the raw bins' sums.
    On the axis cosh(z0 x) is real and f'(z0) imaginary, so se_re is exactly 0.
    (None, None) where the linearisation does not hold: |f'(z0)| is within the worst-case
    rounding of its own sum, len(xs) eps sum_b w_b |x_b e^{z0 x_b}|, or the se
    (the root of se_re^2 + se_im^2) exceeds a quarter of the distance from z0 to
    the nearest other zero of ``locs`` or to its mirror -conj z0.
    """
    xs, ws = f.source.xs, f.source.ws
    _, dmant, shift = f.eval_pair_batch(locs)
    zx = locs[:, None] * xs
    # e^{+-z0 x} on f's log-scale, which eval_pair_batch shares with f'
    ep, em = np.exp(zx - shift[:, None]), np.exp(-zx - shift[:, None])
    c = 0.5 * (ep + em)
    rounding = len(xs) * np.finfo(float).eps * ((np.abs(ep) + np.abs(em)) @ (0.5 * np.abs(xs) * ws))
    steep = np.abs(dmant) > rounding
    u = -(c - (c @ ws)[:, None]) / np.where(steep, dmant, 1.0)[:, None]
    se_re, se_im = np.sqrt((u.real**2 @ ws) / n), np.sqrt((u.imag**2 @ ws) / n)
    # the nearest other zero, or the mirror -conj z0, 2 |Re z0| away off the axis
    others = np.abs(locs[:, None] - locs) + np.diag(np.full(len(locs), np.inf))
    mirror = np.where(locs.real != 0.0, 2.0 * np.abs(locs.real), np.inf)
    gap = np.min(np.column_stack([others, mirror]), axis=1)
    ok = steep & (np.hypot(se_re, se_im) <= 0.25 * gap)
    return [(float(a), float(b)) if k else (None, None) for a, b, k in zip(se_re, se_im, ok)]


def _supported_verdict(verdict: str, rows: list[dict], tol: float) -> tuple[str, list[str]]:
    """The zero report's verdict and the notes to add to it: an off-axis verdict
    stands only where some off-axis zero row (refined, |Re z| > OFFAXIS_FACTOR tol)
    has an se_re and lies at least 2 se_re from the axis; otherwise the verdict is
    inconclusive, with a note naming each off-axis pair and its se_re."""
    if verdict != VERDICT_OFF_AXIS:
        return verdict, []
    off = [r for r in rows if r["refined"] and abs(r["re"]) > OFFAXIS_FACTOR * tol]
    if any(r["se_re"] is not None and abs(r["re"]) >= 2.0 * r["se_re"] for r in off):
        return verdict, []
    pairs = {(abs(r["re"]), r["im"]): r["se_re"] for r in off}
    return VERDICT_INCONCLUSIVE, [
        f"off-axis pair +-{re:.4g} + {im:.4g}i has se_re "
        f"{'null' if se is None else f'{se:.3g}'}: not 2 se_re from the axis"
        for (re, im), se in sorted(pairs.items())]


def _cmd_m_stat(args) -> int:
    if args.samples < 2:
        raise ValueError("m-stat --samples must be at least 2 for a standard deviation")
    if args.bootstrap < 0:
        raise ValueError("m-stat --bootstrap must be at least 0")
    if args.bins < 1:
        raise ValueError("m-stat --bins must be at least 1 (one bin on each side of 0)")
    if not 0 < args.tol < np.inf:
        raise ValueError(f"m-stat --tol must be positive and finite, got {args.tol}")
    region = Rectangle(*args.region)
    # the field domain holds about r^2 times the sites of D_n: refuse D_n first
    _refuse_dense_summation(args.n)
    domain = LatticeDomain.disk(args.n * args.r)
    samples = sample_m_statistics(domain, args.n, args.beta, args.samples, args.seed)
    f = EntireMGF(bin_distribution(samples, B=args.bins))
    report = locate_zeros(f, region, args.tol)
    starts = np.array([z.location for z in report.zeros], dtype=complex)
    zero_rows = []
    for z, (se_re, se_im) in zip(report.zeros, _linearised_se(f, starts, args.samples)):
        zero_rows.append({"re": z.location.real, "im": z.location.imag,
                          "residual": z.residual, "refined": z.refined,
                          "multiplicity": z.multiplicity,
                          "se_re": se_re, "se_im": se_im})

    # the resampling cross-check, only when asked for: one lockstep Newton per
    # replicate from every baseline zero; a replicate that does not find the
    # same zero again (see _same_zeros) is counted (None), not averaged in
    if args.bootstrap:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
        boot_lists: list[list[complex | None]] = [[] for _ in starts]
        for _ in range(args.bootstrap if len(starts) else 0):
            res = rng.choice(samples, size=len(samples), replace=True)
            fb = EntireMGF(bin_distribution(res, B=args.bins))
            zz, _, ok = newton_refine(fb, starts, args.tol)
            for boots, z, same in zip(boot_lists, zz, _same_zeros(zz, ok, starts, region)):
                boots.append(z if same else None)
        # a zero on the imaginary axis (a symmetrised law's) has a real part that
        # is rounding noise, so its spread is no error bar
        for row, boots in zip(zero_rows, boot_lists):
            bs = np.array([b for b in boots if b is not None])
            on_axis = abs(row["re"]) <= OFFAXIS_FACTOR * args.tol
            row |= {"bootstrap_se_re": (float(np.std(bs.real, ddof=1))
                                        if len(bs) > 1 and not on_axis else None),
                    "bootstrap_se_im": float(np.std(bs.imag, ddof=1)) if len(bs) > 1 else None,
                    "bootstrap_unconverged": boots.count(None)}

    verdict, notes = _supported_verdict(report.piz_verdict, zero_rows, args.tol)
    results = {"mean": float(np.mean(samples)), "std": float(np.std(samples, ddof=1)),
               "second_moment": float(np.mean(samples**2)),
               "exploratory": True,
               "verdict": verdict,
               "total_count": report.total_count,
               "notes": list(report.notes) + notes,
               "evaluator": report.evaluator,
               "zeros": zero_rows}
    _write(args.out, "m_stat.json", _report(args, results))
    print(f"m-stat: {args.samples} samples, mean {results['mean']:.3e}, "
          f"verdict {verdict} (exploratory)")
    return 0


def _cmd_villain_verify(args) -> int:
    graph = graph_from_json(Path(args.graph).read_text())
    model = ModelSpec(kind="villain", graph=graph)

    def factory(N: int) -> DiscretizedDistribution:
        return observable_distribution(model, N)

    report, disp = refinement_stable_report(factory, args.grid_n, Rectangle(*args.region),
                                            args.tol)
    results = json.loads(report.to_json())
    results["max_grid_displacement"] = disp
    _write(args.out, "zero_report.json", _report(args, results))
    ok = report.piz_verdict == VERDICT_PIZ
    print(f"villain-verify: {report.total_count} zero(s), max |Re z| = "
          f"{report.max_abs_re:.3e}, verdict {report.piz_verdict}")
    if not ok:
        raise NumericalError(f"PIZ verification failed: verdict {report.piz_verdict}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="leeyang",
                                description="spin-model and chaos-measure zero laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, seed_required=False):
        sp.add_argument("--config", help="JSON file with parameter defaults")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads (gmc-moments only)")
        if seed_required:
            sp.add_argument("--seed", type=int, required=True, help="master RNG seed")

    sp = sub.add_parser("spin-dist", help="exact law of the weighted cosine sum")
    common(sp)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--model", choices=["xy", "villain"], default="villain")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--grid-n", type=int, default=128)
    sp.set_defaults(func=_cmd_spin_dist)

    sp = sub.add_parser("zeros", help="locate MGF zeros of a stored distribution")
    common(sp)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--region", type=float, nargs=4, default=[-8.0, 8.0, 0.0, 8.0],
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_zeros)

    sp = sub.add_parser("classify", help="class verdict from distribution/tail/zero evidence")
    common(sp)
    sp.add_argument("--dist")
    sp.add_argument("--tail-a", type=float)
    sp.add_argument("--tail-b", type=float)
    sp.add_argument("--tail-residual", type=float, default=0.0)
    sp.add_argument("--zeros")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("chain-limit", help="n-step chain kernel vs heat kernel distances")
    common(sp)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--n-list", default="16,32,64,128,256")
    sp.add_argument("--grid-n", type=int, default=512)
    sp.add_argument("--pair", type=float, nargs=2, default=[0.0, float(np.pi / 2)],
                    help="pinned angles for the ratio columns")
    sp.add_argument("--pair-ref", type=float, nargs=2, default=[0.0, 0.0])
    sp.set_defaults(func=_cmd_chain_limit)

    sp = sub.add_parser("gmc-moments", help="Coulomb-gas moment estimates and growth fit")
    common(sp, seed_required=True)
    sp.add_argument("--beta-sq", type=float, required=True)
    sp.add_argument("--k-max", type=int, default=5)
    sp.add_argument("--samples", type=int, default=10**5)
    sp.set_defaults(func=_cmd_gmc_moments)

    sp = sub.add_parser("dgff-check", help="empirical DGFF covariance vs Green's matrix")
    common(sp, seed_required=True)
    sp.add_argument("--side", type=int, default=11)
    sp.add_argument("--samples", type=int, default=10**5)
    sp.set_defaults(func=_cmd_dgff_check)

    sp = sub.add_parser("m-stat", help="sample the renormalised chaos sum; exploratory zeros")
    common(sp, seed_required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=float, default=1.5)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--bins", type=int, default=200)
    sp.add_argument("--bootstrap", type=int, default=0,
                    help="replicates of a resampling cross-check of the linearised error "
                         "bars (default 0); zero rows carry bootstrap_se_re, "
                         "bootstrap_se_im and bootstrap_unconverged only when it ran; "
                         "it reads low where many replicates lose their zero, since "
                         "those that moved it furthest are dropped")
    sp.add_argument("--region", type=float, nargs=4, default=[-8.0, 8.0, 0.0, 8.0])
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_m_stat)

    sp = sub.add_parser("villain-verify",
                        help="end to end: build Villain model, locate zeros, assert PIZ")
    common(sp)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--grid-n", type=int, default=128)
    sp.add_argument("--region", type=float, nargs=4, default=[-4.0, 4.0, 0.0, 8.0])
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_villain_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        _config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as e:
        print(f"{type(e).__module__}: numerical failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"{type(e).__module__}.{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
