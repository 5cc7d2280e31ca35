"""Coulomb-gas moments, lattice Green's function, DGFF, and the chaos sum."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from leeyang import gmc
from leeyang.cli import main
from leeyang.errors import BudgetExceededError, NumericalError
from leeyang.gmc import (Domain, LatticeDomain, UNIT_DISK, bin_distribution,
                         dgff_covariance, dgff_sample, gmc_moment_formula, lattice_green, mc_moment,
                         moment_growth_fit, sample_m_statistics, tail_prediction)
from leeyang.gibbs import distribution_from_atoms
from leeyang.lyclass import slowtail_applies
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

def charge_major(a):
    """Configurations given as (S, k, 2) lists in the kernel's (2, k, S) layout."""
    return np.asarray(a, dtype=float).transpose(2, 1, 0)


def draw_charges(domain, rng, S, k):
    """S configurations of k charges, drawn and laid out as :func:`mc_moment` does."""
    return domain.sample(rng, S * k).reshape(2, S, k).swapaxes(1, 2)


def coulomb_weights(pos, neg, beta_sq):
    """The weights exp(beta^2 _log_coulomb) of configurations given as (S, k, 2) lists."""
    return np.exp(beta_sq * _log_coulomb(charge_major(pos), charge_major(neg)))


def test_coulomb_weight_single_pair():
    # for k = 1 the weight is |x - y|^{-beta^2}
    assert abs(coulomb_weights([[[0.5, 0.0]]], [[[-0.5, 0.0]]], 0.7)[0] - 1.0) < 1e-14
    assert abs(coulomb_weights([[[0.25, 0.0]]], [[[-0.25, 0.0]]], 1.0)[0] - 2.0) < 1e-14


def test_coulomb_weight_permutation_invariant():
    rng = np.random.default_rng(4)
    pos = rng.uniform(-0.5, 0.5, size=(1, 3, 2))
    neg = rng.uniform(-0.5, 0.5, size=(1, 3, 2))
    w1 = coulomb_weights(pos, neg, 1.2)
    for p, n in ((pos[:, [2, 0, 1]], neg), (pos, neg[:, [1, 2, 0]])):
        assert abs(coulomb_weights(p, n, 1.2) - w1) <= 1e-14 * w1


def test_coulomb_weight_rotation_invariant():
    rng = np.random.default_rng(5)
    pos = rng.uniform(-0.5, 0.5, size=(5, 2, 2))
    neg = rng.uniform(-0.5, 0.5, size=(5, 2, 2))
    th = rng.uniform(0, 2 * math.pi, size=5)
    R = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                  np.stack([np.sin(th), np.cos(th)], -1)], -2)
    w1 = coulomb_weights(pos, neg, 0.9)
    w2 = coulomb_weights(pos @ R.transpose(0, 2, 1), neg @ R.transpose(0, 2, 1), 0.9)
    assert np.all(np.abs(w1 - w2) < 1e-12 * np.abs(w1))


def test_coulomb_weight_divergence():
    # coincident opposite charges: the weight diverges
    assert coulomb_weights([[[0.1, 0.1]]], [[[0.1, 0.1]]], 1.0)[0] == math.inf


def pairwise_log_coulomb(pos, neg):
    """The former batched kernel: one hypot and one log per pair of charges.

    pos, neg have shape (2, k, S), charge-major as :func:`gmc._log_coulomb`
    takes them; returns shape (S,) with
    sum log|same-charge distances| - sum log|opposite-charge distances|.
    """
    _, k, S = pos.shape
    out = np.zeros(S)
    with np.errstate(divide="ignore"):
        if k > 1:
            iu, ju = np.triu_indices(k, 1)
            for arr in (pos, neg):
                dx, dy = arr[:, iu] - arr[:, ju]
                out += np.sum(np.log(np.hypot(dx, dy)), axis=0)
        dx, dy = pos[:, :, None] - neg[:, None]
        out -= np.sum(np.log(np.hypot(dx, dy)), axis=(0, 1))
    return out


def former_log_coulomb(pos, neg):
    """The kernel as it was before one product per charge sign: each squared
    distance split by ``np.frexp`` as it is multiplied in, both products split
    again after each charge, and a hypot rebuild of any d^2 outside the normal
    range.  Takes and returns what :func:`gmc._log_coulomb` does."""
    _, k, S = pos.shape
    q = np.empty((2 * k, 2, S))
    q[:k] = pos.transpose(1, 0, 2)
    q[k:] = neg.transpose(1, 0, 2)
    same, opposite = np.ones(S), np.ones(S)
    exponent = np.zeros(S, dtype=np.int64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(2 * k - 1):
            x, y = q[i]
            for j in range(i + 1, 2 * k):
                dx, dy = x - q[j, 0], y - q[j, 1]
                d2 = dx * dx + dy * dy
                m, e = np.frexp(d2)
                if not (gmc._TINY <= d2.min() and d2.max() <= gmc._HUGE):
                    off = ~((d2 >= gmc._TINY) & (d2 <= gmc._HUGE))
                    mh, eh = np.frexp(np.hypot(dx[off], dy[off]))
                    m[off], e[off] = mh * mh, 2 * eh
                if (i < k) == (j < k):
                    same *= m
                    exponent += e
                else:
                    opposite *= m
                    exponent -= e
            same, e_same = np.frexp(same)
            opposite, e_opposite = np.frexp(opposite)
            exponent += e_same - e_opposite
        return 0.5 * (np.log(same / opposite) + math.log(2.0) * exponent)


@pytest.mark.parametrize("radius", [2.0**-330, 1.0, 2.0**100])
def test_log_coulomb_matches_the_former_kernel_bit_for_bit(radius):
    # 5,000 configurations: two blocks of _log_coulomb
    dom = Domain(radius)
    for k in (*range(1, gmc.DESK_MAX_K + 1), 8):
        rng = np.random.default_rng(53 + k)
        pos, neg = draw_charges(dom, rng, 5000, k), draw_charges(dom, rng, 5000, k)
        assert np.array_equal(_log_coulomb(pos, neg), former_log_coulomb(pos, neg)), k


def test_log_coulomb_matches_pairwise_reference():
    # one product per charge sign against one log per pair; the logs reach
    # about 15 in size at k = 8, so 1e-12 absolute leaves 100x headroom
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 4, 5, 6, 8):
        pos, neg = draw_charges(UNIT_DISK, rng, 500, k), draw_charges(UNIT_DISK, rng, 500, k)
        fast, ref = _log_coulomb(pos, neg), pairwise_log_coulomb(pos, neg)
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast - ref)) <= 1e-12


def test_log_coulomb_many_charges_do_not_underflow():
    # k = 60: the same-charge product of 3,540 squared distances falls below
    # the float range, so the range guard recomputes every row one log per
    # pair; the reference's summed logs are themselves off by up to 9.4e-13
    # here (30-digit check, seed 29)
    rng = np.random.default_rng(29)
    pos, neg = draw_charges(UNIT_DISK, rng, 6, 60), draw_charges(UNIT_DISK, rng, 6, 60)
    fast = _log_coulomb(pos, neg)
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - pairwise_log_coulomb(pos, neg))) <= 1e-11


def test_log_coulomb_guard_recomputes_near_coincident_charges():
    # row 0: twelve charges within 1e-30 of each other about the origin, so
    # the product of the 36 opposite squared distances (about 1e-60 each)
    # would underflow unscaled; rows 1-4 hold unit-disk charges
    rng = np.random.default_rng(59)
    pos, neg = draw_charges(UNIT_DISK, rng, 5, 6).copy(), draw_charges(UNIT_DISK, rng, 5, 6).copy()
    pos[:, :, 0] = 1e-30 * rng.uniform(-1, 1, (2, 6))
    neg[:, :, 0] = 1e-30 * rng.uniform(-1, 1, (2, 6))
    dx, dy = pos[:, :, None, 0] - neg[:, None, :, 0]
    assert np.prod(dx * dx + dy * dy) == 0.0
    ref = pairwise_log_coulomb(pos, neg)
    # in one block with unit-scale rows the cluster stays at 1e-30 and its
    # products underflow: the guard recomputes it one log per pair; alone it
    # is scaled by 2^99 and needs no recomputation
    for fast in (_log_coulomb(pos, neg), _log_coulomb(pos[:, :, :1], neg[:, :, :1])):
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast - ref[:len(fast)])) <= 1e-12


def test_log_coulomb_recomputed_rows_do_not_depend_on_each_other():
    # 64 clusters of twelve charges within 1e-30, recomputed together and
    # each alone, in a block with one unit-disk configuration that keeps them
    # unscaled; a numpy sum over the pairs axis would change its order with
    # the count of recomputed rows
    rng = np.random.default_rng(71)
    unit_pos, unit_neg = draw_charges(UNIT_DISK, rng, 1, 6), draw_charges(UNIT_DISK, rng, 1, 6)
    pos, neg = 1e-30 * rng.uniform(-1, 1, (2, 6, 64)), 1e-30 * rng.uniform(-1, 1, (2, 6, 64))
    together = _log_coulomb(np.concatenate((pos, unit_pos), axis=2),
                            np.concatenate((neg, unit_neg), axis=2))
    alone = [_log_coulomb(np.concatenate((pos[:, :, [s]], unit_pos), axis=2),
                          np.concatenate((neg[:, :, [s]], unit_neg), axis=2))[0] for s in range(64)]
    assert np.array_equal(together[:64], alone)


@pytest.mark.parametrize("m", [-300, -1, 1, 100, 300])
def test_log_coulomb_moves_by_k_log_2_under_power_of_two_scaling(m):
    # sum over same pairs minus opposite pairs of log(2^m d): k(k-1) - k^2 = -k terms of m log 2
    rng = np.random.default_rng(61)
    for k in range(1, gmc.DESK_MAX_K + 1):
        pos, neg = draw_charges(UNIT_DISK, rng, 300, k), draw_charges(UNIT_DISK, rng, 300, k)
        moved = _log_coulomb(np.ldexp(pos, m), np.ldexp(neg, m))
        assert np.max(np.abs(moved - (_log_coulomb(pos, neg) - m * k * math.log(2.0)))) <= 1e-12


def test_log_coulomb_outside_the_normal_range():
    # squared distances that underflow (1e-200 and 1e-300 apart) or overflow
    # (1e160 apart), large ones still in range (1e150 apart), and exactly
    # coincident same and opposite charges
    pos = charge_major([[[0.0, 0.0], [1e-200, 0.0]],
                        [[0.0, 0.0], [0.0, 1e-300]],
                        [[0.0, 0.0], [1e150, 0.0]],
                        [[0.0, 0.0], [1e160, 0.0]],
                        [[0.3, 0.2], [0.3, 0.2]],
                        [[0.1, 0.1], [0.5, 0.5]]])
    neg = charge_major([[[0.5, 0.5], [0.2, 0.1]],
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


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_domain_refuses_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        Domain(radius)


def test_mc_moment_order_cap():
    with pytest.raises(ValueError, match="cap"):
        mc_moment(UNIT_DISK, 0.5, 7, 20000, seed=1)


@pytest.mark.parametrize("k", [1, 3, 5, 6])
def test_mc_moment_same_with_pairwise_kernel(k, monkeypatch):
    new = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=31 + k)
    monkeypatch.setattr(gmc, "_log_coulomb", pairwise_log_coulomb)
    old = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=31 + k)
    assert abs(new.estimate - old.estimate) <= 1e-13 * old.estimate
    assert abs(new.stderr - old.stderr) <= 1e-13 * old.stderr


@pytest.mark.parametrize("k", range(1, gmc.DESK_MAX_K + 1))
def test_mc_moment_same_bits_with_the_former_kernel(k, monkeypatch):
    new = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=67 + k)
    monkeypatch.setattr(gmc, "_log_coulomb", former_log_coulomb)
    assert mc_moment(UNIT_DISK, 1.44, k, 20000, seed=67 + k) == new


def former_disk_sample(self, rng, n):
    """The disk sampler with a cosine and a sine per point, as it was before
    :func:`gmc._unit_circle`, in the (2, n) layout of today's."""
    r = self.radius * np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)])


def test_unit_circle_matches_mpmath():
    import mpmath
    v = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53],
                        np.random.default_rng(41).random(2000)])
    h = math.pi * v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = gmc._unit_circle(h)
    with mpmath.workdps(40):
        cos2h = np.array([float(mpmath.cos(2 * mpmath.mpf(x))) for x in h])
        sin2h = np.array([float(mpmath.sin(2 * mpmath.mpf(x))) for x in h])
    assert np.max(np.abs(c - cos2h)) <= 4e-16
    assert np.max(np.abs(s - sin2h)) <= 4e-16


def test_cos_double_angle_matches_mpmath():
    import mpmath
    poles = (np.arange(-16, 16) + 0.5) * math.pi
    h = np.concatenate([poles, np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf),
                        poles + 1e-9, poles - 1e-9, poles / 2, [0.0, 1e-300, -1e-8],
                        np.random.default_rng(43).uniform(-50.0, 50.0, 4000),
                        np.random.default_rng(44).uniform(-2.0, 2.0, 1000)])
    h = h[np.abs(h) <= 50.0]
    assert np.any(np.abs(h - math.pi / 2) < 1e-15) and np.any(np.abs(h + math.pi / 2) < 1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gmc._cos_double_angle(h.copy())
    with mpmath.workdps(40):
        want = np.array([float(mpmath.cos(2 * mpmath.mpf(x))) for x in h])
    assert np.max(np.abs(got - want)) <= 4e-16


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_disk_sample_matches_the_former_sampler(radius):
    dom = Domain(radius)
    rng_new, rng_old = np.random.default_rng(43), np.random.default_rng(43)
    new, old = dom.sample(rng_new, 5000), former_disk_sample(dom, rng_old, 5000)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert new.shape == (2, 5000) and new.flags.c_contiguous
    assert np.max(np.abs(new - old)) <= 4e-16 * radius
    assert np.all(np.hypot(*new) <= radius + 1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_mc_moment_same_with_the_former_sampler(k, monkeypatch):
    new = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=37 + k)
    monkeypatch.setattr(gmc.Domain, "sample", former_disk_sample)
    old = mc_moment(UNIT_DISK, 1.44, k, 20000, seed=37 + k)
    for field in ("estimate", "stderr", "effective_sample_size"):
        a, b = getattr(new, field), getattr(old, field)
        assert abs(a - b) <= 1e-13 * b, field


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
    assert abs(p.exponent_a - 2.0 / 1.44) < 1e-15
    assert slowtail_applies(p)
    assert not slowtail_applies(tail_prediction(1.0))
    assert abs(tail_prediction(0.64).exponent_a - 3.125) < 1e-15
    assert not slowtail_applies(tail_prediction(0.64))
    # the exact profile: exponent 2/beta^2, coefficient unknown, no fit
    assert (p.exponent_a, p.fit_residual, p.method) == (2.0 / 1.44, 0.0, "predicted")
    assert math.isnan(p.coefficient)
    with pytest.raises(ValueError, match="beta"):
        tail_prediction(2.0)


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


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes traced while fn runs); numpy reports its buffers."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dgff_sample_matches_the_left_solve():
    import scipy.linalg as sla

    dom = LatticeDomain.square(6)
    n = dom.n_interior
    for size in (1, 700):
        h = dgff_sample(dom, seed=41, size=size)
        z = np.random.default_rng(np.random.SeedSequence(41)).standard_normal((size, n))
        ref = sla.solve_triangular(dom.cholesky(), z.T, lower=True, trans="T").T
        assert h.shape == (size, n)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dgff_sample_matches_the_left_solve_at_side_30():
    import scipy.linalg as sla

    dom = LatticeDomain.square(30)
    h = dgff_sample(dom, seed=43, size=300)
    z = np.random.default_rng(np.random.SeedSequence(43)).standard_normal((300, 900))
    ref = sla.solve_triangular(dom.cholesky(), z.T, lower=True, trans="T").T
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dgff_sample_solves_in_the_normal_block():
    dom = LatticeDomain.square(11)
    dom.cholesky()
    h, peak = traced_peak(dgff_sample, dom, seed=9, size=20000)
    assert h.shape == (20000, 121)
    # the triangular product runs in the normals' own memory; a Fortran-ordered
    # copy of the (sites x samples) block would double the peak
    assert peak < 1.25 * h.nbytes


def m_statistics_draws(domain, n, beta, nsamples, seed):
    """(lam, C, [(Phi, z) per block]) of the sampler, in its draw order:
    every Phi, then the normals z as (c x sites) per block."""
    import scipy.linalg as sla

    sites = gmc._summation_sites(domain, n)
    G = domain.green_matrix(sites)
    C = sla.cholesky(G + 1e-14 * np.eye(len(sites)), lower=True)
    lam = gmc._site_weights(n, beta, G)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    phi = rng.uniform(-math.pi, math.pi, size=nsamples)
    blocks = []
    for i in range(0, nsamples, gmc.SAMPLE_BLOCK):
        c = min(gmc.SAMPLE_BLOCK, nsamples - i)
        blocks.append((phi[i:i + c, None], rng.standard_normal((c, len(sites)))))
    return lam, C, blocks


def former_sample_m_statistics(domain, n, beta, nsamples, seed):
    """The out-of-place expression of the in-place sampler: g = z C^T by one
    ``trmm`` on a copy, then cos(beta g + Phi) as 2 / (1 + tan^2 h) - 1 of
    h = (beta/2) g + Phi/2."""
    from scipy.linalg.blas import dtrmm

    lam, C, blocks = m_statistics_draws(domain, n, beta, nsamples, seed)
    out = []
    for phi, z in blocks:
        g = dtrmm(1.0, C, z.T, side=0, lower=1).T
        t = np.tan(0.5 * beta * g + phi * 0.5)
        out.append((2.0 / (1.0 + t * t) - 1.0) @ lam)
    return np.concatenate(out)


def test_m_statistics_in_place_keep_the_bits():
    dom = LatticeDomain.disk(6.0)
    for n, beta, seed in ((3, 1.2, 19), (2, 0.7, 4)):
        assert np.array_equal(sample_m_statistics(dom, n, beta, 3000, seed),
                              former_sample_m_statistics(dom, n, beta, 3000, seed))


def test_m_statistics_match_the_dense_product_and_cosine():
    # the expression before the triangular product and the tangent cosine:
    # g = z @ C.T and np.cos(beta g + Phi); the products round differently and
    # each cosine is within 4e-16, so M moves by far less than 1e-13 sum(lam)
    dom = LatticeDomain.disk(20.0)
    for n, beta, seed in ((10, 1.2, 7), (3, 0.7, 4)):
        lam, C, blocks = m_statistics_draws(dom, n, beta, 3000, seed)
        want = np.concatenate([np.cos(beta * (z @ C.T) + phi) @ lam for phi, z in blocks])
        got = sample_m_statistics(dom, n, beta, 3000, seed)
        assert np.max(np.abs(got - want)) <= 1e-13 * lam.sum()


def test_m_statistics_hold_one_block():
    dom = LatticeDomain.disk(6.0)
    sites = len(gmc._summation_sites(dom, 3))
    nsamples = 10 * gmc.SAMPLE_BLOCK
    sample_m_statistics(dom, 3, 1.0, 10, seed=1)
    out, peak = traced_peak(sample_m_statistics, dom, 3, 1.0, nsamples, seed=1)
    assert out.shape == (nsamples,)
    # one block, reused by every block, beside the angles and the output;
    # 0.1 MB more holds the 29 x 29 Green's block, its factor and numpy's
    # 64 kB iteration buffer for the broadcast add of the angles
    assert peak < gmc.SAMPLE_BLOCK * sites * 8 + 2 * out.nbytes + 10**5


def test_dgff_covariance_holds_one_block():
    # no sample block is held: the draws and arrays depend on the sample
    # count only through min(N, p)
    dom = LatticeDomain.square(11)
    dom.cholesky()
    few, few_peak = traced_peak(dgff_covariance, dom, 9, 10**3)
    many, many_peak = traced_peak(dgff_covariance, dom, 9, 10**6)
    assert few.shape == many.shape == (121, 121)
    assert many_peak <= few_peak + 121 * 121 * 8


def bartlett_factor(p, size, seed):
    """The p x min(size, p) Bartlett factor A of dgff_covariance, from its
    seeded draws in their order: the chi-squares of the diagonal, then the
    normals below it, row by row."""
    m = min(size, p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    A = np.zeros((p, m))
    for i, chi_sq in enumerate(rng.chisquare(size - np.arange(m))):
        A[i, i] = math.sqrt(chi_sq)
    rows, cols = np.tril_indices(p, -1, m)
    A[rows, cols] = rng.standard_normal(len(rows))
    return A


def test_dgff_covariance_is_the_bartlett_product():
    import scipy.linalg as sla

    dom = LatticeDomain.square(6)
    p = dom.n_interior
    for size in (1, 20, p - 1, p, 2 * gmc.SAMPLE_BLOCK + 300):
        X = sla.solve_triangular(dom.cholesky(), bartlett_factor(p, size, 13),
                                 lower=True, trans="T")
        want = X @ X.T / size
        got = dgff_covariance(dom, 13, size)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def block_loop_covariance(domain, seed, size):
    """The empirical covariance of the fields dgff_sample(domain, seed, size)
    returns: their normals drawn in blocks of at most SAMPLE_BLOCK samples,
    the Gram matrix W = sum_s z_s z_s^T added up by ``syrk``, and
    C^{-T} W C^{-1} / size by two triangular solves."""
    from scipy.linalg.blas import dsyrk, dtrsm

    n = domain.n_interior
    C = domain.cholesky()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W = np.zeros((n, n), order="F")
    for i in range(0, size, gmc.SAMPLE_BLOCK):
        z = rng.standard_normal((min(gmc.SAMPLE_BLOCK, size - i), n))
        dsyrk(1.0, z.T, beta=1.0, c=W, lower=1, overwrite_c=1)
    W += np.tril(W, -1).T
    dtrsm(1.0, C, W, side=0, lower=1, trans_a=1, overwrite_b=1)
    dtrsm(1.0, C, W, side=1, lower=1, overwrite_b=1)
    return (W + W.T) / (2.0 * size)


def test_dgff_covariance_has_the_law_of_the_fields_covariance():
    # for N fields h ~ N(0, G) the empirical covariance is Wishart:
    # E ||G^ - G||_F^2 = (||G||_F^2 + (tr G)^2) / N, and rank G^ = min(N, p);
    # the Bartlett draw and the block loop over the fields both give that
    dom = LatticeDomain.square(5)
    G = dom.green_matrix()
    p, seeds = dom.n_interior, range(200)
    for size in (1, 10, p - 1, p, p + 1, 4000):
        want = (np.linalg.norm(G)**2 + np.trace(G)**2) / size
        for route in (dgff_covariance, block_loop_covariance):
            covs = [route(dom, seed, size) for seed in seeds]
            sq = np.array([np.linalg.norm(c - G)**2 for c in covs])
            se = np.std(sq, ddof=1) / math.sqrt(len(sq))
            assert abs(np.mean(sq) - want) <= 4 * se, (route.__name__, size)
            assert all(np.linalg.matrix_rank(c) == min(size, p) for c in covs)


def test_dgff_covariance_is_exactly_symmetric():
    for side, size in ((6, 2 * gmc.SAMPLE_BLOCK + 300), (11, 500), (11, 7), (5, 10**20)):
        cov = dgff_covariance(LatticeDomain.square(side), 17, size)
        assert np.array_equal(cov, cov.T)


def test_dgff_covariance_refuses_no_samples():
    with pytest.raises(ValueError, match="at least one sample, got 0"):
        dgff_covariance(LatticeDomain.square(3), 1, 0)


def test_lattice_samplers_do_not_depend_on_the_block_size(monkeypatch):
    # the streams are sample-major, so small blocks draw the same normals;
    # only BLAS's rounding of the smaller products may differ
    dom = LatticeDomain.disk(6.0)

    def draws():
        return (dgff_sample(dom, seed=5, size=100),
                sample_m_statistics(dom, 3, 1.2, 100, seed=5))

    default = draws()
    monkeypatch.setattr(gmc, "SAMPLE_BLOCK", 7)
    for got, want in zip(draws(), default):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dgff_domain_cap():
    dom = LatticeDomain.disk(50.0)
    with pytest.raises(BudgetExceededError, match="cap"):
        dom.cholesky()


# ---------------------------------------------------------------------------
# chaos field and renormalised statistic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5, 10.0, 10.7, math.sqrt(50.0), 31.0])
def test_disk_sites_by_column_match_the_square_scan(radius):
    R = int(math.floor(radius))
    scan = [(x, y) for x in range(-R, R + 1) for y in range(-R, R + 1)
            if x * x + y * y <= radius * radius]
    assert gmc._disk_sites(radius) == scan


def test_sampling_cap_counts_the_disk_without_listing_it(monkeypatch):
    # D_35 has 3,853 sites and D_36 4,053: the cap 4000 falls between them
    assert len(gmc._disk_sites(35)) <= gmc.DENSE_SAMPLING_CAP < len(gmc._disk_sites(36))
    gmc._refuse_dense_summation(35)
    monkeypatch.setattr(gmc, "_disk_sites", None)
    with pytest.raises(BudgetExceededError, match="4053 summation sites"):
        gmc._refuse_dense_summation(36)


def test_m_statistic_site_check():
    # D_4 touches the boundary of the disk-4 domain: neither the sampler nor
    # the moment formula sums over it
    dom = LatticeDomain.disk(4.0)
    with pytest.raises(ValueError, match=re.escape("summation site (-4, 0) is not interior")):
        sample_m_statistics(dom, 4, 1.0, 10, seed=2)
    with pytest.raises(ValueError, match="interior"):
        gmc_moment_formula(dom, 4, 1.0, 2)


def test_m_statistic_sums_the_weighted_cosines():
    # M = sum_x lam(x) cos(beta (C z)_x + Phi), lam(x) = exp(beta^2 G(x,x) / 2) / n^2,
    # on the sampler's own stream: the angles Phi first, then the normals z sample by sample
    import scipy.linalg as sla

    dom = LatticeDomain.disk(9.0)
    sites = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if x * x + y * y <= 16]
    C = sla.cholesky(dom.green_matrix(sites) + 1e-14 * np.eye(len(sites)), lower=True)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    phi = rng.uniform(-math.pi, math.pi, size=50)
    g = C @ rng.standard_normal((50, len(sites))).T
    # at beta -> 0 every angle is the boundary angle Phi and every weight 1/n^2
    assert np.max(np.abs(sample_m_statistics(dom, 4, 1e-6, 50, seed=3)
                         - len(sites) / 16.0 * np.cos(phi))) < 1e-5
    # beta = 1
    lam = np.array([math.exp(0.5 * lattice_green(dom, x, x)) / 16.0 for x in sites])
    want = lam @ np.cos(g + phi)
    assert np.max(np.abs(sample_m_statistics(dom, 4, 1.0, 50, seed=3) - want)) < 1e-12 * lam.sum()


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


def test_bin_distribution_symmetric():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 1, 5000)
    d = bin_distribution(samples, B=50)
    assert d.is_symmetric()
    assert abs(d.ws.sum() - 1.0) < 1e-12


def test_bin_distribution_of_all_zero_samples_is_the_point_mass_at_0():
    # no sample away from 0 sets a bin width: the bins span [-1, 1]
    d = bin_distribution(np.zeros(50), B=3)
    assert d.xs.tolist() == [0.0] and d.ws.tolist() == [1.0]


def test_bin_distribution_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        bin_distribution(np.zeros(0), B=3)


def former_bin_distribution(samples, B):
    """The binning through explicit edges and a list of atoms it replaced."""
    half = float(np.max(np.abs(samples))) * (1.0 + 1e-9)
    edges = np.linspace(-half, half, 2 * B + 2)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    atoms = list(zip(centers[keep], counts[keep].astype(float)))
    return distribution_from_atoms(atoms, symmetrize=True)


@pytest.mark.parametrize("B", [1, 7, 200])
def test_bin_distribution_equal_bins_count_every_edge(B):
    # samples exactly on every interior edge of the binning their own largest
    # |sample| m fixes, and at +-m; then every edge and +-half directly
    m = 1.3
    half = m * (1.0 + 1e-9)
    edges = np.linspace(-half, half, 2 * B + 2)
    on_edges = np.concatenate([edges[1:-1], [-m, m, 0.0]])
    normal = np.random.default_rng(B).normal(0, 1, 5000)
    for samples in (on_edges, normal):
        new, old = bin_distribution(samples, B), former_bin_distribution(samples, B)
        assert new.xs.tobytes() == old.xs.tobytes() and new.ws.tobytes() == old.ws.tobytes()
        assert new.is_symmetric()
    counts, got_edges = np.histogram(edges, bins=2 * B + 1, range=(-half, half))
    assert np.array_equal(got_edges, edges)
    assert np.array_equal(counts, np.histogram(edges, bins=edges)[0])
    assert counts.sum() == len(edges)
