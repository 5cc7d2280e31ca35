"""Coulomb-gas moments, lattice Green's function, DGFF, and the chaos sum."""

import math
import os
import re

import numpy as np
import pytest

from leeyang import gmc
from leeyang.cli import main
from leeyang.errors import BudgetExceededError, NumericalError
from leeyang.gmc import (CoulombConfig, Domain, LatticeDomain, UNIT_DISK,
                         bin_distribution, coulomb_weight, dgff_sample,
                         gmc_moment_formula, lambda_weights, lattice_green,
                         load_field_snapshot, m_statistic, mc_moment,
                         moment_growth_fit, sample_gmc_field,
                         sample_m_statistics, save_field_snapshot,
                         tail_prediction)
from leeyang.gmc import _log_coulomb


def disk_distance_density(d):
    """Density of |x - y| for two uniform points in the unit disk.

    Derived from the lens-overlap area of two unit disks at distance d;
    self-validated below against total mass and the known mean 128/(45 pi).
    """
    d = np.asarray(d, dtype=float)
    return (4 * d / math.pi) * (np.arccos(d / 2) - (d / 2) * np.sqrt(1 - d * d / 4))


def disk_pair_moment_oracle(beta_sq: float, nodes: int = 2000) -> float:
    """Deterministic quadrature for E|W|^2 = pi^2 E[|x-y|^{-beta^2}]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    d = x + 1.0  # map to (0, 2)
    return math.pi**2 * float(np.sum(w * d**(-beta_sq) * disk_distance_density(d)))


def test_distance_density_self_validation():
    x, w = np.polynomial.legendre.leggauss(2000)
    d = x + 1.0
    mass = float(np.sum(w * disk_distance_density(d)))
    mean = float(np.sum(w * d * disk_distance_density(d)))
    assert abs(mass - 1.0) < 1e-12
    assert abs(mean - 128.0 / (45.0 * math.pi)) < 1e-12
    # beta^2 = 1 has the closed form 16 pi / 3
    assert abs(disk_pair_moment_oracle(1.0) - 16 * math.pi / 3) < 1e-10


# ---------------------------------------------------------------------------
# Coulomb weights
# ---------------------------------------------------------------------------

def test_coulomb_weight_single_pair():
    cfg = CoulombConfig([[0.5, 0.0]], [[-0.5, 0.0]], beta_sq=0.7)
    assert abs(coulomb_weight(cfg) - 1.0) < 1e-14
    cfg2 = CoulombConfig([[0.25, 0.0]], [[-0.25, 0.0]], beta_sq=1.0)
    assert abs(coulomb_weight(cfg2) - 2.0) < 1e-14


def test_coulomb_weight_permutation_invariant():
    rng = np.random.default_rng(4)
    pos = rng.uniform(-0.5, 0.5, size=(3, 2))
    neg = rng.uniform(-0.5, 0.5, size=(3, 2))
    w1 = coulomb_weight(CoulombConfig(pos, neg, 1.2))
    w2 = coulomb_weight(CoulombConfig(pos[[2, 0, 1]], neg, 1.2))
    assert w1 == w2


def test_coulomb_weight_rotation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pos = rng.uniform(-0.5, 0.5, size=(2, 2))
        neg = rng.uniform(-0.5, 0.5, size=(2, 2))
        th = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        w1 = coulomb_weight(CoulombConfig(pos, neg, 0.9))
        w2 = coulomb_weight(CoulombConfig(pos @ R.T, neg @ R.T, 0.9))
        assert abs(w1 - w2) < 1e-12 * abs(w1)


def pairwise_log_coulomb(pos, neg):
    """The former batched kernel: one hypot and one log per pair of charges.

    pos, neg have shape (S, k, 2); returns shape (S,) with
    sum log|same-charge distances| - sum log|opposite-charge distances|.
    """
    S, k, _ = pos.shape
    out = np.zeros(S)
    with np.errstate(divide="ignore"):
        if k > 1:
            iu, ju = np.triu_indices(k, 1)
            for arr in (pos, neg):
                d = arr[:, iu, :] - arr[:, ju, :]
                out += np.sum(np.log(np.hypot(d[..., 0], d[..., 1])), axis=1)
        d = pos[:, :, None, :] - neg[:, None, :, :]
        out -= np.sum(np.log(np.hypot(d[..., 0], d[..., 1])), axis=(1, 2))
    return out


def test_log_coulomb_matches_pairwise_reference():
    # the mantissa-exponent products against one log per pair; the logs reach
    # about 15 in size at k = 8, so 1e-12 absolute leaves 100x headroom
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 4, 5, 6, 8):
        pos = UNIT_DISK.sample(rng, 500 * k).reshape(500, k, 2)
        neg = UNIT_DISK.sample(rng, 500 * k).reshape(500, k, 2)
        fast, ref = _log_coulomb(pos, neg), pairwise_log_coulomb(pos, neg)
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast - ref)) <= 1e-12


def test_log_coulomb_many_charges_do_not_underflow():
    # k = 60: a same-charge product of 3,540 mantissas would fall below the
    # float range without the split after each row; the reference's summed
    # logs are themselves off by up to 9.4e-13 here (30-digit check, seed 29)
    rng = np.random.default_rng(29)
    pos = UNIT_DISK.sample(rng, 6 * 60).reshape(6, 60, 2)
    neg = UNIT_DISK.sample(rng, 6 * 60).reshape(6, 60, 2)
    fast = _log_coulomb(pos, neg)
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - pairwise_log_coulomb(pos, neg))) <= 1e-11


def test_log_coulomb_outside_the_normal_range():
    # squared distances that underflow (1e-200 and 1e-300 apart) or overflow
    # (1e160 apart), large ones still in range (1e150 apart), and exactly
    # coincident same and opposite charges
    pos = np.array([[[0.0, 0.0], [1e-200, 0.0]],
                    [[0.0, 0.0], [0.0, 1e-300]],
                    [[0.0, 0.0], [1e150, 0.0]],
                    [[0.0, 0.0], [1e160, 0.0]],
                    [[0.3, 0.2], [0.3, 0.2]],
                    [[0.1, 0.1], [0.5, 0.5]]])
    neg = np.array([[[0.5, 0.5], [0.2, 0.1]],
                    [[0.5, 0.5], [0.2, 0.1]],
                    [[0.5, 0.5], [-1e150, 3.0]],
                    [[0.5, 0.5], [-1e160, 3.0]],
                    [[0.5, 0.5], [0.2, 0.1]],
                    [[0.4, 0.4], [0.1, 0.1]]])
    fast, ref = _log_coulomb(pos, neg), pairwise_log_coulomb(pos, neg)
    assert np.all(np.isfinite(ref[:4]))
    assert np.max(np.abs(fast[:4] - ref[:4])) <= 1e-12
    assert fast[4] == ref[4] == -math.inf  # coincident same charges: weight 0
    assert fast[5] == ref[5] == math.inf  # coincident opposite charges: weight diverges


def test_log_coulomb_matches_coulomb_weight():
    # the batched kernel of mc_moment against the scalar reference, k <= 6
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 4, 5, 6):
        pos = UNIT_DISK.sample(rng, 20 * k).reshape(20, k, 2)
        neg = UNIT_DISK.sample(rng, 20 * k).reshape(20, k, 2)
        beta_sq = rng.uniform(0.1, 1.9, size=20)
        fast = np.exp(beta_sq * _log_coulomb(pos, neg))
        for s in range(20):
            ref = coulomb_weight(CoulombConfig(pos[s], neg[s], float(beta_sq[s])))
            assert abs(fast[s] - ref) <= 1e-12 * ref


def test_coulomb_weight_divergence():
    with pytest.raises(ValueError, match="diverges"):
        coulomb_weight(CoulombConfig([[0.1, 0.1]], [[0.1, 0.1]], 1.0))


def test_coulomb_config_validation():
    with pytest.raises(ValueError, match="beta"):
        CoulombConfig([[0.0, 0.0]], [[0.5, 0.0]], 2.5)
    with pytest.raises(ValueError, match="outside"):
        CoulombConfig([[2.0, 0.0]], [[0.5, 0.0]], 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo moments
# ---------------------------------------------------------------------------

def test_mc_moment_weak_coupling_is_area_power():
    est = mc_moment(UNIT_DISK, 1e-12, 1, 20000, seed=1)
    assert abs(est.estimate - math.pi**2) < 1e-9
    est2 = mc_moment(UNIT_DISK, 1e-12, 2, 20000, seed=2)
    assert abs(est2.estimate - math.pi**4) < 1e-6


def test_mc_moment_matches_quadrature_oracle():
    est = mc_moment(UNIT_DISK, 1.0, 1, 200000, seed=42)
    oracle = disk_pair_moment_oracle(1.0)
    assert abs(est.estimate - oracle) < 3 * est.stderr


def test_mc_moment_reproducible():
    a = mc_moment(UNIT_DISK, 1.0, 2, 20000, seed=7)
    b = mc_moment(UNIT_DISK, 1.0, 2, 20000, seed=7)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mc_moment_stable_under_doubling():
    a = mc_moment(UNIT_DISK, 0.5, 2, 50000, seed=3)
    b = mc_moment(UNIT_DISK, 0.5, 2, 100000, seed=30)
    tol = 3 * math.hypot(a.stderr, b.stderr)
    assert abs(a.estimate - b.estimate) < tol


def test_mc_moment_monotone_in_coupling():
    lo = mc_moment(UNIT_DISK, 0.4, 2, 50000, seed=8)
    hi = mc_moment(UNIT_DISK, 0.9, 2, 50000, seed=9)
    assert hi.estimate - lo.estimate > -3 * math.hypot(lo.stderr, hi.stderr)


def test_mc_moment_rejects_small_samples():
    with pytest.raises(ValueError, match="1e4"):
        mc_moment(UNIT_DISK, 1.0, 1, 100, seed=1)


def test_mc_moment_order_cap_overridable():
    with pytest.raises(ValueError, match="cap"):
        mc_moment(UNIT_DISK, 0.5, 7, 20000, seed=1)
    est = mc_moment(UNIT_DISK, 1e-12, 7, 20000, seed=1, max_k=8)
    assert abs(est.estimate - math.pi**14) < 1e-3


def test_unit_square_domain():
    dom = Domain("square")
    est = mc_moment(dom, 1e-12, 1, 20000, seed=4)
    assert abs(est.estimate - 1.0) < 1e-12


@pytest.mark.parametrize("k", [1, 3, 5])
def test_mc_moment_same_with_pairwise_kernel(k, monkeypatch):
    new = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=31 + k)
    monkeypatch.setattr(gmc, "_log_coulomb", pairwise_log_coulomb)
    old = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=31 + k)
    assert abs(new.estimate - old.estimate) <= 1e-13 * old.estimate
    assert abs(new.stderr - old.stderr) <= 1e-13 * old.stderr


def test_mc_moment_non_finite_mean_raises(monkeypatch, tmp_path):
    # one configuration with coincident opposite charges: its weight is +inf
    def one_infinite_row(pos, neg):
        out = pairwise_log_coulomb(pos, neg)
        out[7] = math.inf
        return out

    monkeypatch.setattr(gmc, "_log_coulomb", one_infinite_row)
    with pytest.raises(NumericalError, match=r"batch 0 .*k = 2"):
        mc_moment(UNIT_DISK, 0.5, 2, 20000, seed=1)
    out = tmp_path / "o"
    assert main(["gmc-moments", "--beta-sq", "0.5", "--k-max", "2", "--samples", "20000",
                 "--seed", "1", "--out", str(out)]) == 1
    assert not (out / "gmc_moments.json").exists()


def test_mc_moment_error_bar_reliability_and_effective_size():
    heavy = mc_moment(UNIT_DISK, 1.44, 2, 20000, seed=5)
    light = mc_moment(UNIT_DISK, 0.5, 2, 20000, seed=5)
    flat = mc_moment(UNIT_DISK, 1e-12, 2, 20000, seed=5)
    assert heavy.stderr_reliable is False and light.stderr_reliable is True
    assert mc_moment(UNIT_DISK, 1.0, 1, 20000, seed=5).stderr_reliable is False
    for est in (heavy, light):
        assert 0 < est.effective_sample_size <= est.samples
    assert heavy.effective_sample_size < light.effective_sample_size
    assert abs(flat.effective_sample_size - flat.samples) <= 1e-6 * flat.samples
    d = heavy.as_dict()
    assert d["stderr_reliable"] is False
    assert d["effective_sample_size"] == heavy.effective_sample_size


# ---------------------------------------------------------------------------
# growth fit and tail prediction
# ---------------------------------------------------------------------------

def test_growth_fit_exact_model():
    ms = [(k, math.exp(1.5 * k * math.log(k) + 0.3 * k), 0.0) for k in range(1, 6)]
    fit = moment_growth_fit(ms)
    assert abs(fit.beta_sq_hat - 1.5) < 1e-9
    assert abs(fit.c_hat - 0.3) < 1e-9


def test_growth_fit_gaussian_modulus_moments():
    # m_{2k} = k!: Stirling gives slope -> 1 as the fit window grows
    slopes = []
    for K in (20, 40, 100):
        ms = [(k, math.exp(math.lgamma(k + 1)), 0.0) for k in range(1, K + 1)]
        slopes.append(moment_growth_fit(ms).beta_sq_hat)
    assert slopes[0] < slopes[1] < slopes[2] < 1.0
    assert abs(slopes[2] - 1.0) < 0.06


def test_growth_fit_ci_covers_truth_under_mc_noise():
    # calibration: noisy samples of the exact growth law at realistic MC error
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(20):
        rows = []
        for k in range(1, 6):
            true = math.exp(1.44 * k * math.log(k) + 1.0 * k)
            rel = 0.05 * k
            est = true * math.exp(rng.normal(0, rel))
            rows.append((k, est, est * rel))
        fit = moment_growth_fit(rows)
        lo, hi = fit.ci
        hits += int(lo <= 1.44 <= hi)
    assert hits >= 17  # two-sigma CI should cover ~95%


def test_growth_fit_rejections():
    with pytest.raises(ValueError, match="at least 4"):
        moment_growth_fit([(1, 2.0, 0.1)])
    with pytest.raises(ValueError, match="finite"):
        moment_growth_fit([(k, float("inf"), 0.0) for k in range(1, 5)])


def test_tail_prediction_values():
    p = tail_prediction(1.44)
    assert abs(p.exponent - 2.0 / 1.44) < 1e-15
    assert p.slowtail_flagged
    assert not tail_prediction(1.0).slowtail_flagged
    assert abs(tail_prediction(0.64).exponent - 3.125) < 1e-15
    assert not tail_prediction(0.64).slowtail_flagged
    prof = p.to_profile()
    assert prof.exponent_a == p.exponent


# ---------------------------------------------------------------------------
# lattice Green's function and DGFF
# ---------------------------------------------------------------------------

def test_green_single_interior_site():
    dom = LatticeDomain.disk(1.0)
    assert dom.n_interior == 1
    assert lattice_green(dom, (0, 0), (0, 0)) == 0.25


def test_green_symmetry():
    dom = LatticeDomain.disk(6.0)
    pairs = [((0, 0), (2, 1)), ((1, -2), (-3, 0)), ((2, 2), (-1, -1))]
    for a, b in pairs:
        assert abs(lattice_green(dom, a, b) - lattice_green(dom, b, a)) < 1e-12


def test_green_boundary_rejected():
    dom = LatticeDomain.disk(3.0)
    boundary_site = dom.boundary[0]
    with pytest.raises(ValueError, match="interior"):
        lattice_green(dom, boundary_site, (0, 0))
    with pytest.raises(ValueError, match=re.escape(f"site {boundary_site} is not an interior")):
        dom.green_matrix([(0, 0), boundary_site])


def test_green_block_is_one_reader():
    # the full matrix, a site block of it and a single entry read the same
    # per-site solves, bit for bit (the m-stat domain: disk 20, sites D_10)
    dom = LatticeDomain.disk(20.0)
    sites = [(x, y) for x in range(-10, 11) for y in range(-10, 11) if x * x + y * y <= 100]
    idx = [dom.interior.index(s) for s in sites]
    block = dom.green_matrix()[np.ix_(idx, idx)]
    assert np.array_equal(block, dom.green_matrix(sites))
    for a, b in ((0, 0), (5, 17), (200, 3)):
        assert lattice_green(dom, sites[b], sites[a]) == block[a, b]


def test_green_solves_each_distinct_site_once():
    dom = LatticeDomain.disk(6.0)
    ref = dom.green_matrix([(0, 0)])[0, 0]

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, b):
            self.solves += 1
            return self.lu.solve(b)

    dom._lu = CountingLU(dom._lu)
    assert lattice_green(dom, (0, 0), (0, 0)) == ref
    assert dom._lu.solves == 1
    G = dom.green_matrix([(1, 2), (0, 0), (1, 2)])
    assert dom._lu.solves == 3
    assert np.array_equal(G[:, 0], G[:, 2]) and np.array_equal(G[0], G[2])
    assert G[1, 1] == ref


def test_field_angles_at_names_a_non_interior_site():
    field = sample_gmc_field(LatticeDomain.disk(4.0), 1.0, 2)
    with pytest.raises(ValueError, match=re.escape("site (-4, 0) is not an interior")):
        field.angles_at([(0, 0), (-4, 0)])


def test_green_center_log_growth():
    # the rescaled diagonal (2d) G(0,0) tracks (2/pi) log n between sizes
    vals = {}
    for n in (8, 16, 32):
        dom = LatticeDomain.disk(float(n))
        vals[n] = 4.0 * lattice_green(dom, (0, 0), (0, 0))
    for n in (8, 16):
        grow = vals[2 * n] - vals[n]
        assert abs(grow - (2 / math.pi) * math.log(2)) < 0.05


def test_dgff_covariance_small_domain():
    dom = LatticeDomain.square(5)
    fields = dgff_sample(dom, seed=21, size=20000)
    emp = fields.T @ fields / 20000
    G = dom.green_matrix()
    rel = np.linalg.norm(emp - G) / np.linalg.norm(G)
    assert rel < 0.08


def test_dgff_site_variance_matches_green():
    dom = LatticeDomain.disk(4.0)
    fields = dgff_sample(dom, seed=5, size=20000)
    i = dom._idx[(0, 0)]
    var = float(np.var(fields[:, i]))
    g = lattice_green(dom, (0, 0), (0, 0))
    se = g * math.sqrt(2.0 / 20000)
    assert abs(var - g) < 4 * se


def test_dgff_boundary_shift_exact():
    dom = LatticeDomain.square(4)
    h0 = dgff_sample(dom, seed=3)
    h1 = dgff_sample(dom, seed=3, boundary_value=2.5)
    assert np.allclose(h1 - h0, 2.5, atol=0, rtol=0)


def test_dgff_domain_cap():
    dom = LatticeDomain.disk(50.0)
    with pytest.raises(BudgetExceededError, match="cap"):
        dom.cholesky()


# ---------------------------------------------------------------------------
# chaos field and renormalised statistic
# ---------------------------------------------------------------------------

def test_gmc_field_reproducible_and_wrapped():
    dom = LatticeDomain.disk(6.0)
    f1 = sample_gmc_field(dom, 1.2, seed=10)
    f2 = sample_gmc_field(dom, 1.2, seed=10)
    assert np.array_equal(f1.h, f2.h) and f1.phi == f2.phi
    assert np.all((f1.h > -math.pi) & (f1.h <= math.pi))
    assert -math.pi < f1.phi <= math.pi


def test_lambda_weights_positive():
    dom = LatticeDomain.disk(9.0)
    lam = lambda_weights(4, dom, 1.1)
    assert np.all(lam > 0)


def test_m_statistic_site_check():
    dom = LatticeDomain.disk(4.0)
    field = sample_gmc_field(dom, 1.0, seed=2)
    with pytest.raises(ValueError, match="interior"):
        m_statistic(4, field)  # D_4 touches the boundary of the disk-4 domain


def test_m_statistic_phase_averages_to_zero():
    dom = LatticeDomain.disk(9.0)
    samples = sample_m_statistics(dom, 4, 1.0, 3000, seed=12)
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean()) < 4 * se
    # sign-flip symmetry of the ensemble within Monte Carlo error
    t = np.percentile(np.abs(samples), 75)
    p_pos = np.mean(samples > t)
    p_neg = np.mean(samples < -t)
    assert abs(p_pos - p_neg) < 4 * math.sqrt(0.25 / len(samples))


def test_moment_formula_k1_cancellation():
    dom = LatticeDomain.disk(9.0)
    m1 = gmc_moment_formula(dom, 4, 1.3, 1)
    sites = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if x * x + y * y <= 16]
    assert abs(m1 - len(sites) / 16.0) < 1e-15


def test_moment_formula_weak_coupling_k2():
    dom = LatticeDomain.disk(9.0)
    m1 = gmc_moment_formula(dom, 4, 1e-8, 1)
    m2 = gmc_moment_formula(dom, 4, 1e-8, 2)
    assert abs(m2 - m1**2) < 1e-10


def test_moment_formula_exact_k3_weak_coupling():
    dom = LatticeDomain.disk(6.0)
    m1 = gmc_moment_formula(dom, 3, 1e-8, 1)
    m3 = gmc_moment_formula(dom, 3, 1e-8, 3)
    assert abs(m3 - m1**3) < 1e-9


def test_moment_formula_k2_matches_mc():
    dom = LatticeDomain.disk(10.0)
    n, beta = 5, 1.0
    exact = gmc_moment_formula(dom, n, beta, 2)
    sites = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
             if x * x + y * y <= n * n]
    G = dom.green_matrix(sites)
    import scipy.linalg as sla
    C = sla.cholesky(G + 1e-14 * np.eye(len(sites)), lower=True)
    lam = np.exp(0.5 * beta**2 * np.diag(G)) / n**2
    rng = np.random.default_rng(31)
    z = rng.standard_normal((len(sites), 20000))
    mhat = (lam[:, None] * np.exp(1j * beta * (C @ z))).sum(axis=0)
    m2 = mhat**2
    est, se = m2.mean(), m2.std(ddof=1) / math.sqrt(m2.shape[0])
    assert abs(est.real - exact) < 3 * abs(se)


def test_moment_formula_budget():
    dom = LatticeDomain.disk(20.0)
    with pytest.raises(BudgetExceededError, match="budget"):
        gmc_moment_formula(dom, 18, 1.0, 3)


def test_moment_formula_mc_tuples_close_to_exact():
    dom = LatticeDomain.disk(8.0)
    exact = gmc_moment_formula(dom, 3, 0.8, 2)
    mc = gmc_moment_formula(dom, 3, 0.8, 2, mc_tuples=200000, seed=6)
    assert abs(mc - exact) / exact < 0.05


def test_bin_distribution_symmetric():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 1, 5000)
    d = bin_distribution(samples, B=50)
    assert d.symmetrized and d.is_symmetric()
    assert abs(d.ws.sum() - 1.0) < 1e-12
    assert d.grid_size == 101


def test_field_snapshot_roundtrip(tmp_path):
    dom = LatticeDomain.disk(5.0)
    field = sample_gmc_field(dom, 1.1, seed=77)
    path = os.path.join(tmp_path, "field.bin")
    save_field_snapshot(path, field, n=3, r=5.0 / 3.0)
    back = load_field_snapshot(path)
    assert back["n"] == 3 and back["beta"] == 1.1 and back["seed"] == 77
    assert np.array_equal(back["values"], field.h)
    with pytest.raises(ValueError, match="magic"):
        p2 = os.path.join(tmp_path, "bad.bin")
        open(p2, "wb").write(b"nope" * 20)
        load_field_snapshot(p2)
