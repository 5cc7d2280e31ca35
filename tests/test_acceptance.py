"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 7c (growth-fit confidence interval containing the
coupling at desk-scale k) is expected to fail and is marked as such: the
asymptotic k log k slope is not identifiable from k <= 5 moments, see the
assertion message for the measured numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from leeyang.chain import chain_vs_heat, dirichlet_ratio, laplace_normalization, make_xy_kernel
from leeyang.gibbs import (DiscretizedDistribution, ModelSpec,
                           discretized_gaussian, observable_distribution,
                           rademacher)
from leeyang.gmc import (LatticeDomain, gmc_moment_formula,
                         dgff_sample, lattice_green, mc_moment,
                         moment_growth_fit, tail_prediction)
from leeyang.graphs import build_graph, path_graph, single_edge_graph
from leeyang.lyclass import (VERDICT_SLOWTAIL, classify, weak_limit_harness)
from leeyang.zeros import (EntireMGF, Rectangle, VERDICT_OFF_AXIS, VERDICT_PIZ,
                           hadamard_fit, locate_zeros, refinement_stable_report)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def bessel_i0_series(x: float) -> float:
    total, term, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (x * x / 4.0) / (k * k)
        total += term
    return total


# ---------------------------------------------------------------------------
# 1. PIZ verification for small Villain and XY models
# ---------------------------------------------------------------------------

def test_criterion_1_piz_verification():
    region = Rectangle(-4, 4, 0, 8)
    graphs = {
        "edge": lambda J, lam: single_edge_graph(J=J, lam=(lam, lam)),
        "path3": lambda J, lam: path_graph(3, J=J, lam=lam),
    }
    worst_re, worst_disp, worst_time = 0.0, 0.0, 0.0
    n_models = 0
    for gname, gf in graphs.items():
        for kind in ("villain", "xy"):
            for J in (0.5, 1.0, 2.0):
                for lam in (0.5, 1.0):
                    t0 = time.time()
                    model = ModelSpec(kind, gf(J, lam))
                    rep, disp = refinement_stable_report(
                        lambda N: observable_distribution(model, N), 128, region)
                    dt = time.time() - t0
                    n_models += 1
                    assert rep.piz_verdict == VERDICT_PIZ, (gname, kind, J, lam)
                    max_re = max((abs(z.location.real) for z in rep.zeros), default=0.0)
                    assert max_re < 1e-6, (gname, kind, J, lam, max_re)
                    assert dt < 60.0, (gname, kind, J, lam, dt)
                    worst_re = max(worst_re, max_re)
                    worst_disp = max(worst_disp, disp)
                    worst_time = max(worst_time, dt)
    report("1 (PIZ verification)", True,
           f"{n_models} models, max |Re z| = {worst_re:.2e}, max grid drift = "
           f"{worst_disp:.2e}, slowest model {worst_time:.1f}s")


# ---------------------------------------------------------------------------
# 2. off-axis counterexample
# ---------------------------------------------------------------------------

def test_criterion_2_off_axis_counterexample():
    d = DiscretizedDistribution(np.array([-2.0, 0.0, 2.0]),
                                np.array([0.1, 0.8, 0.1]))
    rep = locate_zeros(EntireMGF(d), Rectangle(-2, 2, 0, 2))
    assert rep.piz_verdict == VERDICT_OFF_AXIS
    expect = complex(0.5 * math.log(4 + math.sqrt(15.0)), math.pi / 2)
    errs = []
    for sign in (+1, -1):
        target = complex(sign * expect.real, expect.imag)
        err = min(abs(z.location - target) for z in rep.zeros)
        assert err < 1e-8
        errs.append(err)
    report("2 (off-axis counterexample)", True,
           f"zero at +-{expect.real:.8f} + {expect.imag:.8f}i located to "
           f"{max(errs):.2e}")


# ---------------------------------------------------------------------------
# 3. Hadamard variance identity
# ---------------------------------------------------------------------------

def test_criterion_3_hadamard_variance_identity():
    t0 = time.time()
    Y = 60 * math.pi

    f_r = EntireMGF(rademacher())
    rep_r = locate_zeros(f_r, Rectangle(-1, 1, 0, Y))
    fit_r = hadamard_fit(f_r, rep_r, Y=Y)
    gap_r = fit_r.identity_gap(f_r.variance)
    assert gap_r < 1e-3 and fit_r.B < 1e-4

    g = build_graph(["a"], [], {}, {"a": 1.0})
    f_u = EntireMGF(observable_distribution(ModelSpec("xy", g), 512))
    rep_u = locate_zeros(f_u, Rectangle(-1, 1, 0, Y))
    roots = jn_zeros(0, len(rep_u.zeros))  # oracle: independent Bessel roots
    locs = sorted(z.location.imag for z in rep_u.zeros)
    assert max(abs(a - b) for a, b in zip(locs, roots)) < 1e-6
    fit_u = hadamard_fit(f_u, rep_u, Y=Y)
    gap_u = abs(0.5 - 2.0 * (fit_u.sum_inv_sq + fit_u.tail_correction))
    assert gap_u < 1e-3 and fit_u.B < 1e-4

    dt = time.time() - t0
    assert dt < 10.0
    report("3 (Hadamard variance identity)", True,
           f"two-point gap {gap_r:.2e}, uniform-angle gap {gap_u:.2e}, "
           f"runtime {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. chain scaling limit
# ---------------------------------------------------------------------------

def test_criterion_4_chain_scaling():
    t0 = time.time()
    d128 = chain_vs_heat(128, 1.0, 512)["sup_distance"]
    d256 = chain_vs_heat(256, 1.0, 512)["sup_distance"]
    ratio = d128 / d256
    assert 1.6 <= ratio <= 2.4
    assert d256 < 0.01
    dt = time.time() - t0
    assert dt < 60.0
    report("4 (chain scaling)", True,
           f"d(128)/d(256) = {ratio:.3f}, d(256) = {d256:.2e}, runtime {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. pinned-end partition ratio
# ---------------------------------------------------------------------------

def test_criterion_5_dirichlet_ratio():
    res = dirichlet_ratio(256, 1.0, (0.0, math.pi / 2), (0.0, 0.0), 512)
    assert res["gap"] < 5e-3
    report("5 (pinned-end ratio)", True,
           f"|ratio - limit| = {res['gap']:.2e} at n = 256")


# ---------------------------------------------------------------------------
# 6. Bessel and steepest-descent identities
# ---------------------------------------------------------------------------

def test_criterion_6_bessel_laplace():
    worst = 0.0
    for B in (0.5, 1.0, 5.0):
        quad = math.exp(make_xy_kernel(B, 1024)[1])
        gap = abs(quad - 2 * math.pi * bessel_i0_series(B))
        assert gap < 1e-10
        worst = max(worst, gap)
    B = 50.0
    rel = abs(math.exp(make_xy_kernel(B, 2048)[1]) / laplace_normalization(B) - 1.0)
    assert rel < 1.0 / B**2
    # consistent with the next series coefficient 9/(128 B^2)
    assert 0.04 < rel * B**2 < 0.10
    report("6 (Bessel/Laplace identities)", True,
           f"normalization gap {worst:.2e}, strong-coupling residual "
           f"{rel:.2e} ~ 9/(128 B^2) = {9 / 128 / B**2:.2e}")


# ---------------------------------------------------------------------------
# 7. Coulomb-gas moments
# ---------------------------------------------------------------------------

def disk_pair_moment_oracle(beta_sq: float, nodes: int = 2000) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    d = x + 1.0
    dens = (4 * d / math.pi) * (np.arccos(d / 2) - (d / 2) * np.sqrt(1 - d * d / 4))
    return math.pi**2 * float(np.sum(w * d**(-beta_sq) * dens))


def test_criterion_7a_mc_vs_quadrature_oracle():
    t0 = time.time()
    est = mc_moment(1.0, 1, 10**6, seed=42)
    oracle = disk_pair_moment_oracle(1.0)
    sigma = abs(est.estimate - oracle) / est.stderr
    assert sigma < 3.0
    dt = time.time() - t0
    assert dt < 600.0
    report("7a (MC vs quadrature oracle)", True,
           f"estimate {est.estimate:.4f} vs oracle {oracle:.4f} "
           f"({sigma:.2f} standard errors, {dt:.0f}s at 1e6 samples)")


def test_criterion_7b_synthetic_recovery():
    ms = [(k, math.exp(1.44 * k * math.log(k) + 0.3 * k), 0.0) for k in range(1, 6)]
    fit = moment_growth_fit(ms)
    err = max(abs(fit.beta_sq_hat - 1.44), abs(fit.c_hat - 0.3))
    assert err < 1e-9
    report("7b (synthetic growth recovery)", True, f"(beta^2, c) recovered to {err:.1e}")


@pytest.mark.xfail(reason=(
    "the asymptotic k log k growth slope is not identifiable from k <= 5 "
    "moments: the 2-parameter model fits desk-scale data with slope ~0.45 and "
    "in-sample residuals below the Monte Carlo noise, so no honest confidence "
    "interval reaches 1.44 (see decisions ledger)"))
def test_criterion_7c_growth_fit_ci_contains_coupling():
    t0 = time.time()
    ests = [mc_moment(1.44, k, 10**6, seed=200 + k) for k in range(1, 6)]
    fit = moment_growth_fit(ests)
    lo, hi = fit.ci
    dt = time.time() - t0
    ok = lo <= 1.44 <= hi
    report("7c (MC growth fit CI contains 1.44)", ok,
           f"slope {fit.beta_sq_hat:.3f}, CI ({lo:.3f}, {hi:.3f}), {dt:.0f}s")
    assert ok, (f"CI ({lo:.3f}, {hi:.3f}) does not contain 1.44; "
                "pre-asymptotic bias dominates at k <= 5")


# ---------------------------------------------------------------------------
# 8. lattice Green's function and DGFF
# ---------------------------------------------------------------------------

def test_criterion_8_lattice_green_dgff():
    dom1 = LatticeDomain.disk(1.0)
    g_single = lattice_green(dom1, (0, 0), (0, 0))
    assert g_single == 0.25

    sq = LatticeDomain.square(11)
    fields = dgff_sample(sq, seed=7, size=10**5)
    emp = fields.T @ fields / 10**5
    G = sq.green_matrix()
    rel = float(np.linalg.norm(emp - G) / np.linalg.norm(G))
    assert rel < 0.05

    # (2d) L^{-1} is the expected-visits Green's function of simple random
    # walk, whose centre diagonal grows like (2/pi) log n + const
    vals = {}
    for n in (32, 64, 128):
        dom = LatticeDomain.disk(float(n))
        vals[n] = 4.0 * lattice_green(dom, (0, 0), (0, 0)) - (2 / math.pi) * math.log(n)
    d1 = abs(vals[64] - vals[32])
    d2 = abs(vals[128] - vals[64])
    assert d1 < 0.02 and d2 < 0.02
    report("8 (lattice Green / DGFF)", True,
           f"single-site G = {g_single}, covariance error {rel:.3f}, "
           f"log-asymptotic Cauchy gaps {d1:.4f}, {d2:.4f}")


# ---------------------------------------------------------------------------
# 9. discrete chaos moments
# ---------------------------------------------------------------------------

def test_criterion_9_discrete_gmc_moments():
    import scipy.linalg as sla
    n, r, beta = 10, 2.0, 1.0
    dom = LatticeDomain.disk(n * r)
    assert dom.n_interior <= 1500

    m1 = gmc_moment_formula(dom, n, beta, 1)
    sites = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
             if x * x + y * y <= n * n]
    assert abs(m1 - len(sites) / n**2) < 1e-12

    exact2 = gmc_moment_formula(dom, n, beta, 2)
    G = dom.green_matrix(sites)
    C = sla.cholesky(G + 1e-14 * np.eye(len(sites)), lower=True)
    lam = np.exp(0.5 * beta**2 * np.diag(G)) / n**2
    rng = np.random.default_rng(91)
    acc = []
    for _ in range(10):
        z = rng.standard_normal((len(sites), 4000))
        mhat = (lam[:, None] * np.exp(1j * beta * (C @ z))).sum(axis=0)
        acc.append(mhat**2)
    m2 = np.concatenate(acc)
    est = float(m2.mean().real)
    se = float(m2.real.std(ddof=1) / math.sqrt(len(m2)))
    sigma = abs(est - exact2) / se
    assert sigma < 3.0
    report("9 (discrete chaos moments)", True,
           f"k=1 cancellation exact, k=2 formula {exact2:.4f} vs MC {est:.4f} "
           f"({sigma:.2f} standard errors, {dom.n_interior} interior sites)")


# ---------------------------------------------------------------------------
# 10. weak-limit harness
# ---------------------------------------------------------------------------

def test_criterion_10_weak_limit_harness():
    seq_g = [discretized_gaussian(math.sqrt(1 - 1 / n)) for n in (2, 4, 8, 16)]
    rep_g = weak_limit_harness(seq_g, discretized_gaussian(1.0),
                               region=Rectangle(-2, 2, 0, 6))
    assert rep_g.consistent and rep_g.all_piz and not rep_g.contradiction_flag

    ns = (4, 8, 16, 64)
    seq_r = [rademacher(1 + 1 / n) for n in ns]
    rep_r = weak_limit_harness(seq_r, rademacher(1.0), region=Rectangle(-2, 2, 0, 8))
    # trajectory oracle: zeros of cosh((1 + 1/n) z) at i pi (k + 1/2)/(1 + 1/n)
    worst = 0.0
    for n, zrep in zip(ns, rep_r.zero_reports):
        for z in zrep.zeros:
            k = round(z.location.imag * (1 + 1 / n) / math.pi - 0.5)
            target = math.pi * (k + 0.5) / (1 + 1 / n)
            worst = max(worst, abs(z.location - complex(0.0, target)))
    assert worst < 1e-6
    drift = [abs(h - math.pi / 2) for h in rep_r.first_zero_heights]
    assert all(b < a for a, b in zip(drift[:-1], drift[1:]))

    prof = tail_prediction(1.44)
    assert abs(prof.exponent_a - 1.3889) < 1e-4
    v = classify(profile=prof)
    assert v.verdict == VERDICT_SLOWTAIL
    rep_c = weak_limit_harness(seq_r, prof, region=Rectangle(-2, 2, 0, 8))
    assert rep_c.contradiction_flag

    report("10 (weak-limit harness)", True,
           f"Gaussian family consistent; zero trajectories match the scaled "
           f"ladder to {worst:.1e}; slow-tail profile triggers "
           f"{VERDICT_SLOWTAIL} and the contradiction flag")
