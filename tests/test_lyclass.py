"""Class verdicts, tail-exponent fits, and the weak-limit harness."""

import math
import random

import numpy as np
import pytest

from leeyang.gibbs import (DiscretizedDistribution, discretized_gaussian,
                           rademacher)
from leeyang.gmc import moment_growth_fit, tail_prediction
from leeyang.lyclass import (TailProfile, VERDICT_CONSISTENT, VERDICT_OFFAXIS,
                             VERDICT_SLOWTAIL, VERDICT_UNDETERMINED,
                             classify, slowtail_applies, tail_exponent,
                             weak_limit_harness)
from leeyang.zeros import EntireMGF, Rectangle, locate_zeros


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def three_atom_law():
    return DiscretizedDistribution(np.array([-2.0, 0.0, 2.0]),
                                   np.array([0.1, 0.8, 0.1]))


# ---------------------------------------------------------------------------
# tail exponent
# ---------------------------------------------------------------------------

def test_tail_exponent_gaussian_moments():
    # m_{2k} = (2k-1)!!; Stirling gives slope 1, so a -> 2 and b -> 1/2
    ms = [float(double_factorial(2 * k - 1)) for k in range(1, 41)]
    prof = tail_exponent(moments=ms)
    assert abs(prof.exponent_a - 2.0) < 0.05
    assert abs(prof.coefficient - 0.5) < 0.05
    assert prof.method == "from_moments"


def test_tail_exponent_exact_model_recovery():
    rng = random.Random(9)
    for _ in range(10):
        s = rng.uniform(0.8, 2.5)
        c = rng.uniform(-1.0, 1.0)
        ms = [math.exp(s * k * math.log(k) + c * k) for k in range(1, 12)]
        prof = tail_exponent(moments=ms)
        assert abs(prof.exponent_a - 2.0 / s) < 1e-9
        assert prof.fit_residual < 1e-9


def test_tail_exponent_from_tail_probabilities():
    ts = np.linspace(1.0, 5.0, 15)
    prof = tail_exponent(tail_probabilities=[(t, math.exp(-0.7 * t**1.5)) for t in ts])
    assert abs(prof.exponent_a - 1.5) < 1e-9
    assert abs(prof.coefficient - 0.7) < 1e-9


def test_tail_exponent_gmc_arithmetic():
    # beta = 1.2 predicts a = 2 / 1.44
    assert abs(2.0 / 1.44 - 1.3888888888888888) < 1e-15


def test_tail_exponent_rejections():
    with pytest.raises(ValueError, match="K >= 4"):
        tail_exponent(moments=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="positive"):
        tail_exponent(moments=[1.0, -2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="increasing"):
        tail_exponent(moments=[1.0, 3.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        tail_exponent(moments=[1.0, 2.0, 3.0, 4.0], tail_probabilities=[(1, 0.5)])


@pytest.mark.parametrize("kwargs, named", [
    # strictly increasing, but log m = 10 k - k log k: the k log k slope is -1
    ({"moments": [math.exp(10 * k - k * math.log(k)) for k in range(1, 7)]},
     "slope -1 is not positive"),
    ({"tail_probabilities": [(1.0, 0.5), (2.0, 0.0), (3.0, 1.0)]}, "at least 3 usable points"),
    ({"tail_probabilities": [(-1.0, 0.5), (1.0, 0.3), (2.0, 0.1)]}, "thresholds must be positive"),
    # a tail that grows with t
    ({"tail_probabilities": [(1.0, 0.1), (2.0, 0.3), (3.0, 0.5)]}, "non-positive a"),
], ids=["moment-slope", "few-tail-points", "negative-threshold", "rising-tail"])
def test_tail_exponent_refuses_a_fit_without_a_stretched_tail(kwargs, named):
    with pytest.raises(ValueError, match=named):
        tail_exponent(**kwargs)


def former_tail_exponent_fit(m, min_k):
    """tail_exponent's own k log k regression before it was shared with
    moment_growth_fit: a diagonal weight matrix diag(k) multiplied in."""
    m = np.asarray(m, dtype=float)
    k = np.arange(1, len(m) + 1, dtype=float)
    keep = k >= min_k
    if keep.sum() < 2:
        keep = k >= 1
    kk, y = k[keep], np.log(m[keep])
    X = np.stack([kk * np.log(kk), kk], axis=1)
    W = np.diag(kk)
    coef, *_ = np.linalg.lstsq(np.sqrt(W) @ X, np.sqrt(W) @ y, rcond=None)
    s, c = float(coef[0]), float(coef[1])
    fitted = X @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)) / max(1.0, np.sqrt(np.mean(y**2))))
    a = 2.0 / s
    b_hat = (2.0 / (a * math.e)) * math.exp(-c * a / 2.0)
    return a, b_hat, (float(kk[0]), float(kk[-1])), residual


def former_growth_fit(rows):
    """moment_growth_fit's own regression before it was shared with tail_exponent."""
    k = np.array([r[0] for r in rows], dtype=float)
    est = np.array([r[1] for r in rows])
    se = np.array([r[2] for r in rows])
    y = np.log(est)
    sig = np.where(se > 0, se / est, 0.0)
    if np.all(sig > 0):
        w = 1.0 / sig**2
    else:
        w = np.ones_like(y)
    X = np.stack([k * np.log(k), k], axis=1)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    resid = y - X @ coef
    dof = max(len(y) - 2, 1)
    chi2 = float(np.sum(w * resid**2))
    cov = np.linalg.inv((X * w[:, None]).T @ X)
    scale = max(1.0, chi2 / dof) if np.all(sig > 0) else chi2 / dof
    return (float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2))),
            float(math.sqrt(cov[0, 0] * scale)))


def growth_inputs():
    """Moment sequences for the bit-identity checks: exact Gaussian and
    stretched-exponential moments and noisy k log k growth, K = 4..39."""
    seqs = [[float(double_factorial(2 * k - 1)) for k in range(1, K + 1)] for K in (4, 9, 20)]
    seqs += [[math.gamma((2 * k + 1) / 1.4) / math.gamma(1 / 1.4) for k in range(1, K + 1)]
             for K in (5, 12, 39)]
    rng = np.random.default_rng(18)
    for K in (4, 6, 11, 25):
        k = np.arange(1, K + 1)
        logm = rng.uniform(0.8, 2.5) * k * np.log(k) + rng.uniform(0.5, 1.5) * k
        seqs.append(list(np.exp(logm + rng.normal(0.0, 0.01, K))))
    return seqs


@pytest.mark.parametrize("min_k", [3])
def test_tail_exponent_keeps_its_former_fit_bits(min_k):
    for ms in growth_inputs():
        prof = tail_exponent(moments=ms)
        a, b, window, residual = former_tail_exponent_fit(ms, min_k)
        assert (prof.exponent_a, prof.coefficient, prof.fit_window, prof.fit_residual) == \
            (a, b, window, residual)


def test_moment_growth_fit_keeps_its_former_fit_bits():
    rng = np.random.default_rng(19)
    for ms in growth_inputs():
        exact = [(k, m, 0.0) for k, m in enumerate(ms, 1)]
        noisy = [(k, m, m * rng.uniform(0.01, 0.2)) for k, m in enumerate(ms, 1)]
        mixed = noisy[:-1] + [exact[-1]]
        for rows in (exact, noisy, mixed):
            fit = moment_growth_fit(rows)
            assert (fit.beta_sq_hat, fit.c_hat, fit.residual, fit.slope_stderr) == \
                former_growth_fit(rows)


@pytest.mark.parametrize("coefficient, residual", [(0.0, 0.0), (-1.0, 0.0), (-math.inf, 0.0),
                                                   (1.0, -0.01), (math.inf, 0.0),
                                                   (1.0, math.nan), (1.0, math.inf),
                                                   (math.nan, math.nan)])
def test_tail_profile_refuses_impossible_fits(coefficient, residual):
    with pytest.raises(ValueError, match="tail coefficient > 0"):
        TailProfile(exponent_a=2.5, coefficient=coefficient, fit_window=None,
                    fit_residual=residual, method="user_supplied")


@pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
def test_tail_profile_refuses_exponent_that_is_not_finite_and_positive(a):
    with pytest.raises(ValueError, match="tail exponent must be finite and positive"):
        TailProfile(exponent_a=a, coefficient=1.0, fit_window=None, fit_residual=0.0,
                    method="user_supplied")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_rademacher_consistent():
    d = rademacher()
    rep = locate_zeros(EntireMGF(d), Rectangle(-8, 8, 0, 8))
    v = classify(d, zero_report=rep)
    assert v.verdict == VERDICT_CONSISTENT
    assert v.symmetric
    assert v.subgaussian_evidence == "yes"


def test_classify_asymmetric_law_undetermined():
    # a PIZ certificate does not make an asymmetric law consistent with the class
    d = DiscretizedDistribution(np.array([-1.0, 1.0]), np.array([0.3, 0.7]))
    rep = locate_zeros(EntireMGF(rademacher()), Rectangle(-8, 8, 0, 8))
    v = classify(d, zero_report=rep)
    assert not v.symmetric
    assert "source distribution is not symmetric" in v.notes
    assert v.verdict == VERDICT_UNDETERMINED


def test_classify_gmc_profile_excluded():
    prof = TailProfile(exponent_a=2.0 / 1.44, coefficient=1.0,
                       fit_window=None, fit_residual=0.0, method="predicted")
    v = classify(profile=prof)
    assert v.verdict == VERDICT_SLOWTAIL
    assert v.subgaussian_evidence == "no"


def test_classify_off_axis_excluded():
    d = three_atom_law()
    rep = locate_zeros(EntireMGF(d), Rectangle(-2, 2, 0, 2))
    v = classify(d, zero_report=rep)
    assert v.verdict == VERDICT_OFFAXIS


def test_classify_monotone_in_evidence():
    # adding off-axis evidence can never yield the consistent verdict
    d = rademacher()
    off_rep = locate_zeros(EntireMGF(three_atom_law()), Rectangle(-2, 2, 0, 2))
    v = classify(d, zero_report=off_rep)
    assert v.verdict != VERDICT_CONSISTENT
    prof = TailProfile(exponent_a=1.4, coefficient=1.0, fit_window=None,
                       fit_residual=0.0, method="predicted")
    v2 = classify(profile=prof, zero_report=off_rep)
    assert v2.verdict == VERDICT_OFFAXIS


def test_classify_poisson_guard():
    # fitted or typed-in a <= 1.05 stay undetermined (Poisson-type tails are
    # compatible with purely imaginary zeros)
    for a, method in ((1.02, "from_moments"), (1.03, "user_supplied")):
        prof = TailProfile(exponent_a=a, coefficient=1.0, fit_window=None,
                           fit_residual=0.0, method=method)
        v = classify(profile=prof)
        assert v.verdict == VERDICT_UNDETERMINED
        assert v.subgaussian_evidence == "undetermined"


@pytest.mark.parametrize("beta_sq", [1.44, 1.92, 1.95])
def test_predicted_slow_tail_agrees_with_classify(beta_sq):
    # an exact exponent 2/beta^2 in (1, 1.05] is no fit, so the Poisson
    # guard does not hold it back: the flag and the verdict say the same
    pred = tail_prediction(beta_sq)
    v = classify(profile=pred)
    assert slowtail_applies(pred)
    assert v.verdict == VERDICT_SLOWTAIL and v.subgaussian_evidence == "no"


def test_classify_uncertain_fit_undetermined():
    prof = TailProfile(exponent_a=1.5, coefficient=1.0, fit_window=None,
                       fit_residual=0.2, method="from_moments")
    v = classify(profile=prof)
    assert v.verdict == VERDICT_UNDETERMINED


def test_classify_numerical_tension_flagged():
    # confident slow-tail fit AND a PIZ certificate over a large region
    prof = TailProfile(exponent_a=1.4, coefficient=1.0, fit_window=None,
                       fit_residual=0.0, method="from_moments")
    rep = locate_zeros(EntireMGF(rademacher()), Rectangle(-8, 8, 0, 8))
    v = classify(profile=prof, zero_report=rep)
    assert v.numerical_tension
    assert v.verdict == VERDICT_UNDETERMINED


def test_classify_without_evidence_undetermined():
    v = classify(None)
    assert v.verdict == VERDICT_UNDETERMINED
    assert v.piz_evidence == "undetermined"


# ---------------------------------------------------------------------------
# weak-limit harness
# ---------------------------------------------------------------------------

def test_harness_gaussian_family_consistent():
    seq = [discretized_gaussian(math.sqrt(1 - 1 / n)) for n in (2, 4, 8, 16)]
    rep = weak_limit_harness(seq, discretized_gaussian(1.0),
                             region=Rectangle(-2, 2, 0, 6))
    assert rep.all_piz
    assert rep.distances_shrink
    assert rep.consistent
    assert not rep.contradiction_flag
    assert rep.variance_sup < 1.0 + 1e-9
    assert all(h == math.inf for h in rep.first_zero_heights)


def test_harness_scaled_rademacher_zero_drift():
    ns = (2, 4, 8, 16, 64)
    seq = [rademacher(1 + 1 / n) for n in ns]
    rep = weak_limit_harness(seq, rademacher(1.0), region=Rectangle(-2, 2, 0, 8))
    assert rep.all_piz
    for n, h in zip(ns, rep.first_zero_heights):
        assert abs(h - math.pi / 2 / (1 + 1 / n)) < 1e-6
    drift = [abs(h - math.pi / 2) for h in rep.first_zero_heights]
    assert all(b < a for a, b in zip(drift[:-1], drift[1:]))


def test_harness_limit_contradiction_flag():
    # all finite-n laws look PIZ, but the limit profile violates sub-Gaussianity
    seq = [rademacher(1 + 1 / n) for n in (2, 4, 8)]
    prof = TailProfile(exponent_a=2.0 / 1.44, coefficient=1.0,
                       fit_window=None, fit_residual=0.0, method="predicted")
    rep = weak_limit_harness(seq, prof, region=Rectangle(-2, 2, 0, 8))
    assert rep.contradiction_flag
    assert not rep.consistent
    assert rep.limit_subgaussian_violated


def test_harness_requires_three_laws():
    with pytest.raises(ValueError, match="at least 3"):
        weak_limit_harness([rademacher(), rademacher()], None)
