"""Zero location and Hadamard fits against closed-form and series oracles."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ive, jn_zeros, polygamma

from leeyang import zeros
from leeyang.errors import NumericalError
from leeyang.gibbs import (DiscretizedDistribution, ModelSpec,
                           discretized_gaussian, distribution_from_atoms,
                           observable_distribution, rademacher)
from leeyang.gmc import bin_distribution
from leeyang.graphs import build_graph, path_graph, single_edge_graph
from leeyang.zeros import (EntireMGF, Rectangle, VERDICT_INCONCLUSIVE,
                           VERDICT_OFF_AXIS, VERDICT_PIZ, count_zeros_rectangle,
                           hadamard_fit, locate_zeros, mgf_eval, newton_refine,
                           refinement_stable_report, zero_report_from_json)


def bessel_j0_series(x: float) -> float:
    """Alternating power series for J0 (accurate for |x| <= 6)."""
    total, term, k = 1.0, 1.0, 0
    while abs(term) > 1e-18:
        k += 1
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def j0_first_root_bisection() -> float:
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0_series(lo) * bessel_j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def three_atom_law() -> DiscretizedDistribution:
    return DiscretizedDistribution(np.array([-2.0, 0.0, 2.0]), np.array([0.1, 0.8, 0.1]))


def rademacher_sum_law(a) -> DiscretizedDistribution:
    """X = sum_i a_i eps_i: MGF prod_i cosh(a_i z), zeros i (k + 1/2) pi / a_i."""
    a = np.asarray(a, dtype=float)
    signs = ((np.arange(2 ** len(a))[:, None] >> np.arange(len(a))) & 1) * 2.0 - 1.0
    atoms = np.column_stack([signs @ a, np.full(2 ** len(a), 2.0 ** -len(a))])
    return distribution_from_atoms(atoms, symmetrize=True)


def ladder_oracle(a, H: float) -> list[float]:
    return sorted((k + 0.5) * math.pi / ai for ai in a
                  for k in range(int(H * ai / math.pi) + 1) if (k + 0.5) * math.pi / ai < H)


def uniform_angle_law(N: int = 256) -> DiscretizedDistribution:
    g = build_graph(["a"], [], {}, {"a": 1.0})
    return observable_distribution(ModelSpec("xy", g), N)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_mgf_eval_rademacher_cosh_zero():
    f = EntireMGF(rademacher())
    assert abs(mgf_eval(f, 1j * math.pi / 2)) < 1e-12


def test_symmetric_flag_on_a_skewed_law_is_rejected():
    # mirrored weights 0.9e-12 apart: symmetric within COALESCE_TOL, but over
    # 2000 atoms Im f(0.3i) = 0.9e-12 sum_k sin(0.003 k) is 6.0e-10, which the
    # cosh halves of the law would report as exactly 0
    xs = 0.01 * np.arange(1, 1001)
    ws = np.full(1000, 1.0 / 2000)
    skew = DiscretizedDistribution(np.concatenate([-xs[::-1], xs]),
                                   np.concatenate([ws - 0.45e-12, ws + 0.45e-12]))
    assert skew.is_symmetric()
    assert 5e-10 < np.sin(0.3 * skew.xs) @ skew.ws < 7e-10
    with pytest.raises(ValueError, match="not real"):
        EntireMGF(skew)


def test_mgf_eval_point_mass():
    d = DiscretizedDistribution(np.array([0.0]), np.array([1.0]))
    f = EntireMGF(d)
    assert mgf_eval(f, 3.0 + 4.0j) == 1.0


def test_mgf_eval_symmetric_is_real_on_axis():
    f = EntireMGF(uniform_angle_law(128))
    assert abs(mgf_eval(f, 0.7j).imag) < 1e-12


def test_mgf_eval_matches_direct_sum_random_sources():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        xs = sorted(rng.uniform(-2, 2) for _ in range(n))
        ws = [rng.uniform(0.1, 1.0) for _ in range(n)]
        tot = sum(ws)
        d = DiscretizedDistribution(np.array(xs), np.array(ws) / tot)
        f = EntireMGF(d)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        direct = sum(w / tot * np.exp(z * x) for x, w in zip(xs, ws))
        assert abs(mgf_eval(f, z) - direct) < 1e-13 * max(1.0, abs(direct))


def test_evaluator_scaled_handles_large_arguments():
    f = EntireMGF(rademacher())
    mant, _, scale = f.evaluator(800.0).eval_pair_batch(np.array([800.0]))
    assert scale[0] == 800.0
    assert abs(mant[0] - 0.5) < 1e-12  # cosh(800) = e^800 / 2 to double precision
    # representable-but-large values go through the scaled path transparently
    assert abs(mgf_eval(f, 680.0) - 0.5 * math.exp(680.0)) < 1e290
    with pytest.raises(OverflowError, match="scale"):
        mgf_eval(f, 800.0)


def test_evaluator_derivative():
    f = EntireMGF(rademacher())
    z = 0.4 + 0.2j
    _, dmant, scale = f.evaluator(1.0).eval_pair_batch(np.array([z]))
    assert abs(dmant[0] * np.exp(scale[0]) - np.sinh(z)) < 1e-13


def test_f0_is_one_enforced():
    with pytest.raises(ValueError):
        DiscretizedDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.51]))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_rademacher_examples():
    f = EntireMGF(rademacher())
    assert count_zeros_rectangle(f, Rectangle(-1, 1, 1, 2)) == 1
    assert count_zeros_rectangle(f, Rectangle(0.5, 1.5, -0.5, 0.5)) == 0


def test_count_uniform_angle_first_bessel_root():
    f = EntireMGF(uniform_angle_law(256))
    root = j0_first_root_bisection()
    assert abs(root - 2.404825557695773) < 1e-10
    assert count_zeros_rectangle(f, Rectangle(-0.2, 0.2, 2.2, 2.6)) == 1


def test_count_partition_additivity():
    f = EntireMGF(three_atom_law())
    region = Rectangle(-2.1, 2.1, 0.05, 3.1)
    total = count_zeros_rectangle(f, region)
    rng = random.Random(11)
    for _ in range(8):
        frac = rng.uniform(0.25, 0.75)
        a, b = region.split(frac)
        try:
            ca = count_zeros_rectangle(f, a, perturb=False)
            cb = count_zeros_rectangle(f, b, perturb=False)
        except NumericalError:
            continue  # split line too close to a zero; other fractions cover it
        assert ca + cb == total


def test_count_zero_on_contour_raises_without_perturbation():
    f = EntireMGF(rademacher())
    # boundary passes exactly through the zero at i pi/2
    with pytest.raises(NumericalError):
        count_zeros_rectangle(f, Rectangle(-1, 1, math.pi / 2, 3.0), perturb=False)


def test_zero_on_contour_is_found_after_perturbation():
    # the same boundary through i pi/2: the grown rectangle holds the zero
    f = EntireMGF(rademacher())
    region = Rectangle(-1, 1, math.pi / 2, 3.0)
    assert count_zeros_rectangle(f, region) == 1
    rep = locate_zeros(f, region)
    assert rep.piz_verdict == VERDICT_PIZ
    assert [z.location for z in rep.zeros] == [1.5707963267948966j]


# ---------------------------------------------------------------------------
# locate_zeros
# ---------------------------------------------------------------------------

def test_locate_rademacher_ladder():
    f = EntireMGF(rademacher())
    rep = locate_zeros(f, Rectangle(-2, 2, 0, 8))
    assert rep.piz_verdict == VERDICT_PIZ
    got = sorted(z.location.imag for z in rep.zeros)
    expect = [math.pi * (k + 0.5) for k in range(3)]
    assert len(got) == 3
    assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-9
    assert all(z.residual < 1e-10 for z in rep.zeros)
    assert rep.total_count == 3


def test_locate_three_atom_off_axis():
    f = EntireMGF(three_atom_law())
    rep = locate_zeros(f, Rectangle(-2, 2, 0, 2))
    assert rep.piz_verdict == VERDICT_OFF_AXIS
    expect_re = 0.5 * math.log(4 + math.sqrt(15.0))
    locs = sorted((z.location for z in rep.zeros), key=lambda z: z.real)
    assert len(locs) == 2
    assert abs(locs[1] - complex(expect_re, math.pi / 2)) < 1e-8
    assert abs(locs[0] - complex(-expect_re, math.pi / 2)) < 1e-8


def test_locate_gaussian_no_zeros():
    d = discretized_gaussian(1.0)
    f = EntireMGF(d)
    region = Rectangle(-2, 2, 0, 6)
    # oracle: the MGF is exp(z^2/2) up to discretization error, nonvanishing;
    # check the relative gap on the contour is far below 1 (Rouche)
    for z in (2 + 0j, 2 + 6j, -2 + 3j, 0 + 6j, 1.3 + 0.7j):
        exact = np.exp(z * z / 2)
        assert abs(mgf_eval(f, z) - exact) < 1e-12
    rep = locate_zeros(f, region)
    assert rep.total_count == 0
    assert rep.zeros == ()
    assert rep.piz_verdict == VERDICT_PIZ


def test_locate_respects_quadruple_symmetry():
    f = EntireMGF(three_atom_law())
    rep = locate_zeros(f, Rectangle(-2, 2, 0, 2))
    locs = [z.location for z in rep.zeros]
    for z in locs:
        mirror = complex(-z.real, z.imag)
        assert any(abs(mirror - w) < 1e-7 for w in locs)


def test_report_json_roundtrip():
    f = EntireMGF(three_atom_law())
    rep = locate_zeros(f, Rectangle(-2, 2, 0, 2))
    rep2 = zero_report_from_json(rep.to_json())
    assert rep2.piz_verdict == rep.piz_verdict
    assert rep2.evaluator == rep.evaluator == {"path": "direct", "K": None, "xval_ratio": None}
    doc = json.loads(rep.to_json())
    del doc["evaluator"]
    assert zero_report_from_json(json.dumps(doc)).evaluator is None
    assert len(rep2.zeros) == len(rep.zeros)
    assert abs(rep2.zeros[0].location - rep.zeros[0].location) < 1e-15
    csv_text = rep.zeros_csv()
    assert csv_text.startswith("re,im,residual")
    assert len(csv_text.strip().splitlines()) == 1 + len(rep.zeros)


def test_locate_double_axis_zero():
    # f(z) = (cosh z + cosh 2z)/2 has an exactly double zero at i pi:
    # f(i pi) = (-1 + 1)/2 = 0 and f'(i pi) = (sin pi + 2 sin 2pi) terms vanish.
    # Newton stops anywhere inside the sqrt-tolerance disk of a quadratic
    # zero, so the locator must not report the ghost pair as off-axis.
    d = DiscretizedDistribution(np.array([-2.0, -1.0, 1.0, 2.0]),
                                np.array([0.25] * 4))
    f = EntireMGF(d)
    assert mgf_eval(f, 1j * math.pi) == 0
    _, dmant, scale = f.evaluator(math.pi).eval_pair_batch(np.array([1j * math.pi]))
    assert scale[0] == 0.0
    assert abs(dmant[0]) < 1e-15
    rep = locate_zeros(f, Rectangle(-1, 1, 2.5, 4.0))
    assert rep.piz_verdict == VERDICT_PIZ
    assert len(rep.zeros) == 1
    z = rep.zeros[0]
    assert z.multiplicity == 2
    assert z.location.real == 0.0
    assert abs(z.location.imag - math.pi) < 1e-5  # sqrt-tol limited for m = 2
    assert rep.total_count == 2


LADDER_REGION = Rectangle(-1, 1, 0, 6)


def assert_ladder_zeros(a, rep):
    assert rep.piz_verdict == VERDICT_PIZ
    assert all(z.location.real == 0.0 for z in rep.zeros)
    got = sorted(z.location.imag for z in rep.zeros for _ in range(z.multiplicity))
    oracle = ladder_oracle(a, LADDER_REGION.im_max)
    assert len(got) == len(oracle) == rep.total_count
    assert max(abs(x - y) for x, y in zip(got, oracle)) < 1e-8


@pytest.mark.parametrize("a", [
    (1.0, 1.0005),  # two pairs of zeros, 7.9e-4 and 2.4e-3 apart
    # a pair of zeros 2.3e-3 apart at 5.17i
    (0.7376, 0.928, 0.843, 0.4576, 0.5101, 0.9115, 0.3037, 0.8749),
    # a pair of zeros 1.8e-3 apart at 2.38i
    (0.325, 0.6604, 0.6263, 0.942, 0.7405, 0.6599, 0.6478, 0.4733),
    # a cut whose halves miscount 1 + 1 with no sign change of g: parity check
    (0.7823, 0.6886, 0.3294, 0.5073, 0.949, 0.8492, 0.309, 0.5076, 0.3069, 0.8792),
], ids=["m2-close-pairs", "m8-pair-at-5.17i", "m8-pair-at-2.38i", "m10-parity"])
def test_locate_rademacher_sums_on_the_axis(a):
    rep = locate_zeros(EntireMGF(rademacher_sum_law(a)), LADDER_REGION)
    assert_ladder_zeros(a, rep)


def test_uncut_axis_band_lists_no_cluster():
    # the third law of the benchmark's zero-ladder at seed 7 (m = 8): zeros
    # 2.9e-5 apart at 4.749i in a band 5e-2 high that no cut resolves; a
    # cluster at the band's minimum of |g| read PIZ with a false double zero
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.uniform(0.3, 1.0, 8)
    rep = locate_zeros(EntireMGF(rademacher_sum_law(a)), LADDER_REGION)
    assert rep.piz_verdict == VERDICT_INCONCLUSIVE
    assert any("axis band [4.73719, 4.78688]i" in note for note in rep.notes)
    oracle = ladder_oracle(a, LADDER_REGION.im_max)
    assert len(oracle) == rep.total_count == len(rep.zeros) + 2
    assert all(z.multiplicity == 1 and min(abs(z.location.imag - y) for y in oracle) < 1e-8
               for z in rep.zeros)


def test_locate_asymmetric_region_symmetric_source():
    f = EntireMGF(rademacher())
    wide = locate_zeros(f, Rectangle(-1, 2, 0, 8))
    core = locate_zeros(f, Rectangle(-1, 1, 0, 8))
    assert wide.piz_verdict == core.piz_verdict == VERDICT_PIZ
    assert wide.total_count == 3
    assert [z.location for z in wide.zeros] == [z.location for z in core.zeros]


def assert_three_atom_pairs(rep, p: float, a: float):
    """Zeros (+-arccosh((1 - 2p) / 2p) + i (2k + 1) pi) / a of (p, 1 - 2p, p) at (-a, 0, a)."""
    r = math.acosh((1.0 - 2.0 * p) / (2.0 * p)) / a
    assert rep.piz_verdict == VERDICT_OFF_AXIS
    locs = sorted((z.location for z in rep.zeros), key=lambda z: (round(z.imag, 6), z.real))
    expect = [complex(s * r, (2 * k + 1) * math.pi / a) for k in (0, 1) for s in (-1, 1)]
    assert len(locs) == 4
    assert max(abs(u - v) for u, v in zip(locs, expect)) < 1e-8


def test_locate_asymmetric_region_three_atom_mirror_pair():
    r = math.acosh(4.0) / 2.0
    rep = locate_zeros(EntireMGF(three_atom_law()), Rectangle(-2 * r, 3 * r, 0, 2 * math.pi))
    assert_three_atom_pairs(rep, 0.1, 2.0)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
def test_property_rademacher_sums_have_their_exact_axis_zeros(a):
    ys = ladder_oracle(a, LADDER_REGION.im_max) + [LADDER_REGION.im_max]
    assume(min(np.diff(ys), default=1.0) >= 1e-3)
    assert_ladder_zeros(a, locate_zeros(EntireMGF(rademacher_sum_law(a)), LADDER_REGION))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.floats(0.03, 0.2), st.floats(0.5, 2.0))
def test_property_three_atom_laws_give_their_off_axis_pairs(p, a):
    r = math.acosh((1.0 - 2.0 * p) / (2.0 * p)) / a
    law = DiscretizedDistribution(np.array([-a, 0.0, a]), np.array([p, 1.0 - 2.0 * p, p]))
    rep = locate_zeros(EntireMGF(law), Rectangle(-2 * r, 2 * r, 0, 4 * math.pi / a))
    assert_three_atom_pairs(rep, p, a)


def test_hadamard_counts_multiplicity():
    # the double zero at i pi contributes twice to the inverse-square sum
    d = DiscretizedDistribution(np.array([-2.0, -1.0, 1.0, 2.0]),
                                np.array([0.25] * 4))
    f = EntireMGF(d)
    rep = locate_zeros(f, Rectangle(-1, 1, 0, 40 * math.pi))
    assert sum(z.multiplicity for z in rep.zeros) == rep.total_count
    fit = hadamard_fit(f, rep, Y=40 * math.pi)
    assert abs(f.variance - 2.5) < 1e-15
    assert fit.identity_gap(f.variance) < 1e-3


def test_refinement_stability_harness():
    m = ModelSpec("villain", build_graph(["x", "y"], [("x", "y")],
                                         {("x", "y"): 1.0}, {"x": 1.0, "y": 1.0}))
    rep, disp = refinement_stable_report(
        lambda N: observable_distribution(m, N), 64, Rectangle(-4, 4, 0, 8))
    assert rep.piz_verdict == VERDICT_PIZ
    assert disp < 1e-9


def test_locate_rejects_bad_tol():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            locate_zeros(EntireMGF(rademacher()), Rectangle(-1, 1, 0, 2), tol=tol)


@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
def test_refinement_rejects_bad_tol_before_building_a_law(tol):
    def factory(N):
        raise AssertionError("built a law for a tol that is no tolerance")

    with pytest.raises(ValueError, match="tol must be positive and finite"):
        refinement_stable_report(factory, 64, Rectangle(-1, 1, 0, 2), tol)


def test_refinement_drops_unstable_zeros():
    # a factory whose law genuinely depends on the grid size moves its zeros
    # far beyond the stability budget; they must be dropped, not reported
    def factory(N):
        return rademacher(1.0 + 50.0 / N)

    rep, disp = refinement_stable_report(factory, 64, Rectangle(-1, 1, 0, 4))
    assert disp > 1e-2
    assert rep.zeros == ()
    assert rep.piz_verdict == VERDICT_INCONCLUSIVE
    assert any("unstable" in n for n in rep.notes)


def test_refinement_max_abs_re_reads_only_the_kept_zeros():
    # three-atom laws (p, 1 - 2p, p) at +-1 have off-axis zeros that move with
    # p: every 2N zero is dropped, and so is its real part
    def factory(N):
        p = 0.10 if N == 64 else 0.11
        return DiscretizedDistribution(np.array([-1.0, 0.0, 1.0]), np.array([p, 1 - 2 * p, p]))

    rep, _ = refinement_stable_report(factory, 64, Rectangle(-3, 3, 0, 4))
    assert rep.piz_verdict == VERDICT_INCONCLUSIVE
    assert rep.zeros == () and rep.max_abs_re == 0.0
    assert json.loads(rep.to_json())["max_abs_re"] == 0.0


def test_refinement_requires_equal_counts_on_both_grids():
    # the 2N law's one zero 3 pi i / 4 is also a zero of the N law, so every
    # 2N zero is matched; the N law's zeros pi i / 4 and 5 pi i / 4 vanish
    def factory(N):
        return rademacher(2.0 if N == 64 else 2.0 / 3.0)

    region = Rectangle(-1, 1, 0, 4)
    r1 = locate_zeros(EntireMGF(factory(64)), region)
    r2 = locate_zeros(EntireMGF(factory(128)), region)
    assert (r1.total_count, r2.total_count) == (3, 1)
    assert r1.piz_verdict == r2.piz_verdict == VERDICT_PIZ
    rep, disp = refinement_stable_report(factory, 64, region)
    assert len(rep.zeros) == 1
    assert abs(rep.zeros[0].location - 0.75j * math.pi) < 1e-9
    assert rep.piz_verdict == VERDICT_INCONCLUSIVE
    assert disp > 1.0  # pi/2 back to the nearest surviving zero
    assert any("vanished" in n for n in rep.notes)
    assert any("contour count 3" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# Hadamard fit
# ---------------------------------------------------------------------------

def test_hadamard_rademacher_identity():
    # sum_{k>=0} (pi (k+1/2))^{-2} = 1/2, so Var = 1 = 2 (B + sum), B = 0
    f = EntireMGF(rademacher())
    rep = locate_zeros(f, Rectangle(-1, 1, 0, 60 * math.pi))
    assert len(rep.zeros) == 60
    fit = hadamard_fit(f, rep, Y=60 * math.pi)
    assert fit.B == 0.0
    assert fit.identity_gap(f.variance) < 1e-6
    assert abs(fit.sum_inv_sq + fit.tail_correction - 0.5) < 1e-7


def test_hadamard_gaussian_pure_quadratic():
    f = EntireMGF(discretized_gaussian(1.0))
    fit = hadamard_fit(f, [], Y=8.0)
    assert abs(fit.B - 0.5) < 1e-6
    assert fit.variance_residual < 1e-10


def test_hadamard_uniform_angle_rayleigh_sum():
    # sum_k j_{0,k}^{-2} = 1/4; oracle roots from an independent Bessel routine
    f = EntireMGF(uniform_angle_law(512))
    rep = locate_zeros(f, Rectangle(-1, 1, 0, 60 * math.pi))
    roots = jn_zeros(0, len(rep.zeros))
    got = sorted(z.location.imag for z in rep.zeros)
    assert max(abs(a - b) for a, b in zip(got, roots)) < 1e-7
    fit = hadamard_fit(f, rep, Y=60 * math.pi)
    assert abs(fit.sum_inv_sq + fit.tail_correction - 0.25) < 1e-6
    assert abs(f.variance - 0.5) < 1e-12
    assert fit.identity_gap(f.variance) < 1e-3


def test_hadamard_rejects_off_axis_and_asymmetric():
    f3 = EntireMGF(three_atom_law())
    rep = locate_zeros(f3, Rectangle(-2, 2, 0, 2))
    with pytest.raises(ValueError, match="off-axis"):
        hadamard_fit(f3, rep)
    skew = DiscretizedDistribution(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
    with pytest.raises(ValueError, match="symmetric"):
        hadamard_fit(EntireMGF(skew), [])


@pytest.mark.parametrize("y", [0.0, -math.pi / 2])
def test_hadamard_rejects_a_non_positive_ordinate(y):
    with pytest.raises(ValueError, match="ordinates must be positive"):
        hadamard_fit(EntireMGF(rademacher()), [zeros.ZeroInfo(complex(0.0, y), 0.0, True)])


def test_trigamma_matches_scipy_polygamma():
    xs = np.concatenate([np.geomspace(0.05, 1e6, 20001),
                         [np.nextafter(20.0, 0.0), 19.999999, 20.0, 1.0, 0.5]])
    got = np.array([zeros._trigamma(float(x)) for x in xs])
    ref = polygamma(1, xs)
    assert np.max(np.abs(got - ref) / ref) <= 1e-14


@pytest.mark.parametrize("law, Y", [
    (rademacher(), 60 * math.pi),
    (uniform_angle_law(512), 60 * math.pi),
    (DiscretizedDistribution(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.25] * 4)),
     40 * math.pi),
], ids=["rademacher", "uniform-angle", "double-zero"])
def test_hadamard_tail_matches_polygamma_reference(law, Y):
    f = EntireMGF(law)
    fit = hadamard_fit(f, locate_zeros(f, Rectangle(-1, 1, 0, Y)), Y=Y)
    K = len(fit.y_k)
    assert K >= 6 and fit.spacing > 0
    tail = float(polygamma(1, K + 1 + fit.offset / fit.spacing)) / fit.spacing**2
    B = max(0.0, 0.5 * f.variance - fit.sum_inv_sq - tail)
    assert abs(fit.tail_correction - tail) <= 1e-14 * tail
    assert abs(fit.B - B) <= 1e-14 * B


def test_spectral_evaluator_agrees_with_direct():
    m = ModelSpec("villain", build_graph(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}))
    d = observable_distribution(m, 128)
    f = EntireMGF(d)
    ev = f.evaluator(10.0)
    assert f.fast_path == "gauss"
    rng = random.Random(5)
    zs = np.array([complex(rng.uniform(-4, 4), rng.uniform(-7, 7)) for _ in range(12)])
    fast, shift = ev.values(zs)
    for z, fv, s in zip(zs, fast, shift):
        assert abs(fv * np.exp(s) - mgf_eval(f, z)) < 1e-9 * max(1.0, abs(mgf_eval(f, z)))


def villain_path3_law():
    return observable_distribution(ModelSpec("villain", path_graph(3)), 128)


def tilted_xy_path3_law():
    """The free XY path3 law at N = 64 (6,017 atoms, over the Gauss-rule
    threshold) reweighted by e^{0.3 x}, as an external field would: skewed."""
    d = observable_distribution(ModelSpec("xy", path_graph(3)), 64)
    return distribution_from_atoms(np.column_stack([d.xs, d.ws * np.exp(0.3 * d.xs)]))


@pytest.mark.parametrize("law, symmetric", [(villain_path3_law, True),
                                            (tilted_xy_path3_law, False)])
def test_spectral_evaluator_against_full_atom_sum(law, symmetric):
    # the Gauss rule and the direct sum both read the nonnegative half of a
    # symmetric law; the reference here is a plain numpy sum over every
    # atom.  Points lie in the criterion-1 region [-4, 4] x [0, 8] and its
    # mirror, where e^{|Re z| L} stays far from overflow.
    d = law()
    f = EntireMGF(d)
    radius = 8.0 * math.sqrt(2.0)
    ev = f.evaluator(radius)
    assert f.fast_path == "gauss" and f.symmetric == symmetric
    rng = random.Random(5)
    zs = np.array([complex(rng.uniform(-4, 4), rng.uniform(-8, 8)) for _ in range(16)])
    fv, shift = ev.values(zs)
    ref = np.exp(np.outer(zs, d.xs)) @ d.ws
    assert np.all(np.abs(fv * np.exp(shift) - ref) <= 1e-9 * np.abs(ref))
    on_axis = ev.values(1j * np.linspace(0.1, radius, 13))[0]
    assert np.all(on_axis.imag == 0.0) == symmetric
    assert 0.0 <= ev.xval_ratio <= 1.0


def test_report_records_the_spectral_evaluator():
    f = EntireMGF(villain_path3_law())
    region = Rectangle(-1, 1, 0, 2)
    rep = locate_zeros(f, region)
    ev = f.evaluator(zeros._rect_radius(region))  # a new one, built as the report's was
    assert rep.evaluator == {"path": "gauss", "K": ev.K, "xval_ratio": ev.xval_ratio}
    assert zero_report_from_json(rep.to_json()).evaluator == rep.evaluator


def test_zero_report_does_not_depend_on_an_earlier_region():
    # a Gauss-law evaluator built for the larger region would be valid here
    # too, but with another K and cross-check it would write another report
    law = observable_distribution(ModelSpec("villain", path_graph(3, J=2.0)), 128)
    region = Rectangle(-4, 4, 0, 8)
    f = EntireMGF(law)
    locate_zeros(f, Rectangle(-4, 4, 0, 12))
    assert locate_zeros(f, region).to_json() == locate_zeros(EntireMGF(law), region).to_json()


@pytest.mark.parametrize("law, region, path, n_counts", [
    (villain_path3_law, Rectangle(-4, 4, 0, 8), "gauss", 1),  # the axis accounts for all
    (three_atom_law, Rectangle(-2, 2, 0, 2), "direct", 22),  # criterion 2: band cuts and splits
], ids=["villain-path3-128", "criterion-2-three-atom"])
def test_a_report_builds_one_evaluator_and_counts_on_it(law, region, path, n_counts,
                                                        monkeypatch):
    f = EntireMGF(law())
    radii, counted_on = [], []
    build, count = EntireMGF.evaluator, zeros.count_zeros_rectangle
    monkeypatch.setattr(EntireMGF, "evaluator",
                        lambda self, radius: radii.append(radius) or build(self, radius))
    monkeypatch.setattr(zeros, "count_zeros_rectangle",
                        lambda ev, rect, **kw: counted_on.append(ev) or count(ev, rect, **kw))
    rep = locate_zeros(f, region)
    assert radii == [zeros._rect_radius(region)]
    assert rep.evaluator["path"] == path == counted_on[0].path
    assert len(counted_on) == n_counts and all(ev is counted_on[0] for ev in counted_on)
    assert (counted_on[0] is f) == (path == "direct")


def test_count_is_the_same_on_the_mgf_and_on_its_evaluator():
    f = EntireMGF(villain_path3_law())
    region = Rectangle(-4, 4, 0, 8)
    ev = f.evaluator(zeros._rect_radius(region))
    assert ev.path == "gauss" and f.fast_path == "gauss"
    counts = [(count_zeros_rectangle(f, r), count_zeros_rectangle(ev, r))
              for r in (region, Rectangle(-1, 1, 0, 3), Rectangle(0.5, 4, 0, 8))]
    assert [c for c, _ in counts] == [c for _, c in counts]
    assert counts[0][0] > counts[1][0] > 0


def binned_normal_law():
    return bin_distribution(np.random.default_rng(3).standard_normal(20000), B=200)


def model_law(kind, graph, N):
    return lambda: observable_distribution(ModelSpec(kind, graph), N)


def asymmetric_three_atom_law():
    return distribution_from_atoms([(-1.0, 0.3), (0.5, 0.5), (2.0, 0.2)])


CRITERION_1_REGION = Rectangle(-4, 4, 0, 8)
# (law, region, the path at a threshold of 0 atoms): the Gauss law where it
# is smaller than the law, else the direct sum
EVALUATOR_CASES = [
    pytest.param(rademacher, Rectangle(-2, 2, 0, 8), "direct", id="rademacher"),
    pytest.param(three_atom_law, Rectangle(-2, 2, 0, 4), "direct", id="three-atom"),
    pytest.param(lambda: rademacher_sum_law((0.9, 0.55, 0.35, 0.7)), LADDER_REGION, "direct",
                 id="rademacher-sum-4"),
    *(pytest.param(model_law(kind, single_edge_graph(J=1.0), 128), CRITERION_1_REGION, "gauss",
                   id=f"{kind}-edge-128") for kind in ("villain", "xy")),
    *(pytest.param(model_law(kind, path_graph(3), 32), CRITERION_1_REGION, "gauss",
                   id=f"{kind}-path3-32") for kind in ("villain", "xy")),
    pytest.param(tilted_xy_path3_law, CRITERION_1_REGION, "gauss", id="xy-path3-tilted-64"),
    pytest.param(binned_normal_law, CRITERION_1_REGION, "gauss", id="binned-normal-200"),
    pytest.param(asymmetric_three_atom_law, CRITERION_1_REGION, "direct",
                 id="asymmetric-three-atom"),
    # PIZ with no zeros on either path, as e^{z^2/2} has none; the Chebyshev
    # evaluator this law once took was inconclusive here
    pytest.param(lambda: discretized_gaussian(1.0, n_atoms=5001), Rectangle(-2, 2, 0, 6),
                 "gauss", id="gaussian-5001"),
]


@pytest.mark.parametrize("law, region, compressed", EVALUATOR_CASES)
def test_zero_report_does_not_depend_on_the_evaluator(law, region, compressed, monkeypatch):
    reports = []
    for threshold, path in ((0, compressed), (10**12, "direct")):
        monkeypatch.setattr(zeros, "_GAUSS_ATOM_THRESHOLD", threshold)
        f = EntireMGF(law())
        reports.append(locate_zeros(f, region))
        assert f.fast_path == path
    gauss, direct = reports
    assert gauss.piz_verdict == direct.piz_verdict
    assert gauss.total_count == direct.total_count
    assert ([z.multiplicity for z in gauss.zeros]
            == [z.multiplicity for z in direct.zeros])
    assert all(abs(a.location - b.location) <= 1e-9
               for a, b in zip(gauss.zeros, direct.zeros))
    if not f.symmetric:
        # the general path: the evaluator only counts, and Newton reads the
        # direct sum, so each zero is the same to the bit
        assert [repr(z) for z in gauss.zeros] == [repr(z) for z in direct.zeros]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Gauss law error above 1e-10 |f| where |f| << e^{|Re z| L}")
def test_gauss_value_matches_the_direct_sum_where_f_is_small():
    # the rule's error is bounded against the envelope e^{|Re z| L}, not |f|:
    # at 2 + 6i, where |f| is about 1e-7, the Gauss law of gaussian-5001 is
    # about 1e-7 of |f| off, too little to move the contour count (PIZ with
    # count 0, above) but above the cross-check's relative tolerance
    # 1e-10 |f|, which is the bound here, without the envelope floor
    # 1e-13 e^{|Re z| L} (2.6e-3 here)
    f = EntireMGF(discretized_gaussian(1.0, n_atoms=5001))
    gauss = f.evaluator(zeros._rect_radius(Rectangle(-2, 2, 0, 6)))  # 5001 atoms: compressed
    z = np.array([2.0 + 6.0j])
    mant, shift = gauss.values(z)
    fast = zeros._unscale(mant[0], shift[0])
    mant, shift = f.values(z)
    direct = zeros._unscale(mant[0], shift[0])
    assert abs(fast - direct) <= 1e-10 * abs(direct)


DIRECT = 10**12  # an atom threshold no law reaches: every evaluator is the direct sum
SYMMETRIC_LAWS = [pytest.param(three_atom_law, id="three-atom"),
                  pytest.param(villain_path3_law, id="villain-path3-128"),
                  pytest.param(binned_normal_law, id="binned-normal-200")]


@pytest.mark.parametrize("law", SYMMETRIC_LAWS)
def test_direct_sum_is_exactly_real_on_the_axis(law, monkeypatch):
    monkeypatch.setattr(zeros, "_GAUSS_ATOM_THRESHOLD", DIRECT)
    f = EntireMGF(law())
    fv, dv, shift = f.evaluator(12.0).eval_pair_batch(1j * np.linspace(0.05, 12.0, 97))
    assert f.fast_path == "direct"
    assert np.all(fv.imag == 0.0) and np.all(dv.real == 0.0) and np.all(shift == 0.0)


@pytest.mark.parametrize("threshold", [0, DIRECT], ids=["spectral", "direct"])
@pytest.mark.parametrize("law", SYMMETRIC_LAWS[1:])
def test_newton_from_an_axis_zero_stays_on_the_axis(law, threshold, monkeypatch):
    monkeypatch.setattr(zeros, "_GAUSS_ATOM_THRESHOLD", threshold)
    f = EntireMGF(law())
    rep = locate_zeros(f, Rectangle(-1, 1, 0, 8))
    axis = [z.location for z in rep.zeros if z.location.real == 0.0]
    assert axis
    for y0 in axis:
        # started off the zero along the axis, so Newton takes several steps
        (z,), (res,), (ok,) = newton_refine(f, y0 + 1e-3j, 1e-10)
        assert ok and z.real == 0.0 and abs(z - y0) < 1e-9


def nudged(d):
    """``d`` with its top atom moved up by one ulp: symmetric within
    COALESCE_TOL but not a bitwise mirror, so it takes the half sum of a
    law that is not a mirror."""
    xs = d.xs.copy()
    xs[-1] = np.nextafter(xs[-1], math.inf)
    return DiscretizedDistribution(xs, d.ws)


def unsymmetrised_villain_path3_law():
    return nudged(observable_distribution(ModelSpec("villain", path_graph(3)), 64))


def scalar_newton_reference(f, z0, tol, max_iter=100):
    """The former one-start Newton loop, kept as the reference of each start."""
    z = complex(z0)
    for _ in range(max_iter):
        fv, dv, shift = f.eval_pair_batch(np.array([z]))
        fz, dfz = fv[0], dv[0]
        res = abs(zeros._unscale(fz, float(shift[0])))
        if res < tol:
            if dfz != 0:
                z = z - fz / dfz
                res = abs(mgf_eval(f, z))
            return z, res, True
        if dfz == 0:
            break
        step = fz / dfz
        z = z - step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            res = abs(mgf_eval(f, z))
            return z, res, bool(res < tol)
    res = abs(mgf_eval(f, z))
    return z, res, bool(res < tol)


def newton_bits(z, res, ok):
    return (np.asarray(z, dtype=complex).tobytes(), np.asarray(res, dtype=float).tobytes(),
            np.asarray(ok, dtype=bool).tobytes())


# per law: a start near a zero, a repeated start, z = 0 (where f' = 0 for a
# symmetric law), an off-axis start and a far start
NEWTON_CASES = [
    pytest.param(rademacher, [0.01 + 1.57j, 4.71j, 4.71j, 0.0, 0.4 + 2.2j, 2.5 + 9.0j],
                 id="rademacher"),
    pytest.param(three_atom_law, [1.0 + 1.6j, 1.03 + 4.7j, 1.03 + 4.7j, 0.0, -0.9 + 1.5j,
                                  2.5 + 9.0j], id="three-atom"),
    pytest.param(unsymmetrised_villain_path3_law, [1.0j, 2.2j, 2.2j, 0.0, 0.3 + 4.0j,
                                                   2.5 + 9.0j], id="villain-path3-unsym"),
    pytest.param(asymmetric_three_atom_law, [0.5 + 2.0j, 2.0j, 2.0j, 0.0, -0.7 + 3.1j,
                                             2.5 + 9.0j], id="asymmetric"),
]


@pytest.mark.parametrize("law, starts", NEWTON_CASES)
def test_newton_batch_matches_one_start_at_a_time_on_the_direct_sum(law, starts, monkeypatch):
    monkeypatch.setattr(zeros, "_GAUSS_ATOM_THRESHOLD", DIRECT)
    f = EntireMGF(law())
    ev = f.evaluator(12.0)
    assert ev is f
    starts = np.array(starts)
    # tol 1e-10: polished or stopped; tol 0: no start converges, so each one
    # stalls or stops where f' = 0; a cap of 2 steps: most stop at the cap
    for tol, max_iter in ((1e-10, 100), (0.0, 100), (1e-10, 2)):
        monkeypatch.setattr(zeros, "NEWTON_MAX_ITER", max_iter)
        batch = newton_refine(f, starts, tol)
        assert all(len(a) == len(starts) for a in batch)
        singles = [newton_refine(f, z0, tol) for z0 in starts]
        assert all(len(a) == 1 for single in singles for a in single)
        reference = [scalar_newton_reference(f, z0, tol, max_iter) for z0 in starts]
        for i in range(len(starts)):
            one = tuple(a[i] for a in batch)
            assert newton_bits(*one) == newton_bits(*singles[i]) == newton_bits(*reference[i])
    monkeypatch.setattr(zeros, "NEWTON_MAX_ITER", 100)
    z, res, ok = newton_refine(f, starts, 1e-10)
    assert ok.dtype == bool and res.dtype == float and z.dtype == complex
    assert ok[0] and res[0] < 1e-10  # polished past the gate
    assert newton_bits(z[1], res[1], ok[1]) == newton_bits(z[2], res[2], ok[2])
    if f.symmetric:
        # f'(0) = 0: the start stays put, unconverged, with its residual f(0) = 1
        assert z[3] == 0.0 and not ok[3] and abs(res[3] - 1.0) < 1e-12
    # without a tolerance to meet, a start that converges stops by stalling
    # at its zero long before the cap: a thousand more iterations change nothing
    stalled = newton_refine(f, starts[ok], 0.0)
    monkeypatch.setattr(zeros, "NEWTON_MAX_ITER", 1100)
    assert newton_bits(*stalled) == newton_bits(*newton_refine(f, starts[ok], 0.0))
    assert not stalled[2].any() and np.all(np.abs(stalled[0] - z[ok]) < 1e-9)
    monkeypatch.setattr(zeros, "NEWTON_MAX_ITER", 2)
    capped_z, _, capped_ok = newton_refine(f, starts, 1e-10)
    assert not capped_ok[5] and capped_z[5] != z[5]


def test_newton_of_no_start_evaluates_nothing():
    f = EntireMGF(three_atom_law())
    values = f.values

    def no_steps(zs):
        raise AssertionError("no start, no evaluation")

    def no_residuals(zs):
        assert len(zs) == 0, "no start, no residual"
        return values(zs)

    f.eval_pair_batch, f.values = no_steps, no_residuals
    z, res, ok = newton_refine(f, [], 1e-10)
    assert z.shape == res.shape == ok.shape == (0,)


def real_part_at_650(L):
    """The float a > 0 nearest 650 / L with a L == 650 exactly in float64."""
    near = 650.0 / L + np.spacing(650.0 / L) * np.array([0, -1, 1, -2, 2, -3, 3])
    exact = near[near * L == 650.0]
    assert len(exact), f"no float a with a * {L!r} == 650"
    return float(exact[0])


@pytest.mark.parametrize("law", [rademacher, villain_path3_law, tilted_xy_path3_law,
                                 unsymmetrised_villain_path3_law])
def test_mgf_eval_is_the_direct_sum_bit_for_bit(law, monkeypatch):
    monkeypatch.setattr(zeros, "_GAUSS_ATOM_THRESHOLD", DIRECT)
    d = law()
    f = EntireMGF(d)
    L = f.support_radius
    a650 = real_part_at_650(L)
    # z = 0, real points of each sign, axis and off-axis points, |Re z| L = 650
    # (the full sum) and two beyond it, where the log-scale is taken
    zs = np.array([0.0, 0.8, -1.7, 0.7j, 3.1j, 0.4 + 2.2j, -1.3 - 0.6j,
                   a650 + 0.3j, -a650, 660.0 / L + 1.0j, -680.0 / L + 0.5j])
    if law is unsymmetrised_villain_path3_law:
        assert not np.array_equal(d.xs, -d.xs[::-1])
        assert f.symmetric and f._half is not None
    mant, _, shift = f.evaluator(float(np.max(np.abs(zs)))).eval_pair_batch(zs)
    assert f.fast_path == "direct"
    if f.symmetric:
        assert np.all(shift[:7] == 0.0)  # the half sum
    assert np.all(shift[7:] != 0.0)  # the full sum from |Re z| L = 650 on
    for z, m, s in zip(zs, mant, shift):
        assert mgf_eval(f, z) == complex(m) * math.exp(s)
    assert mgf_eval(f, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_spectral_cross_check_reads_the_direct_sum(monkeypatch):
    d = villain_path3_law()
    f = EntireMGF(d)
    R = 8.0 * math.sqrt(2.0)
    ev = f.evaluator(R)
    assert f.fast_path == "gauss"
    # the ratio from eight separate mgf_eval calls, bit for bit
    pts = R * np.array(zeros._XVAL_POINTS)
    fast = ev.values(pts)[0]
    direct = np.array([mgf_eval(f, z) for z in pts])
    scale = np.exp(np.abs(pts.real) * f.support_radius)
    bound = 1e-10 * np.maximum(np.abs(direct), 1e-12 * scale) + 1e-13 * scale
    assert ev.xval_ratio == float(np.max(np.abs(fast - direct) / bound))
    # weights off by 1e-6 are caught, and the evaluator falls back to the
    # direct sum; so are nodes off by 1e-6, which keep the rule's unit mass
    rule = zeros._gauss_rule
    for fault in ((1.0, 1.0 + 1e-6), (1.0 + 1e-6, 1.0)):
        monkeypatch.setattr(zeros, "_gauss_rule", lambda t, w, K, fault=fault: tuple(
            a * c for a, c in zip(rule(t, w, K), fault)))
        assert zeros._gauss_law(f, R) is None
        g = EntireMGF(d)
        assert g.evaluator(R) is g and g.fast_path == "direct"


@pytest.mark.parametrize("w", [0.0, 0.1 + 0.05j, 1.0, 34.0, 34.0j, 20.0 + 25.0j,
                               101.8 * np.exp(0.3j), -60.0 + 5.0j, 600.0 * np.exp(0.7j), 649.0])
def test_gauss_degree_bounds_the_chebyshev_tail(w):
    # 4 sum_{k>n} |I_k(w)| <= 2^-53 e^{|Re w|}; ive(k, w) = I_k(w) e^{-|Re w|}
    n = zeros._gauss_degree(abs(w))
    assert 4.0 * np.sum(np.abs(ive(np.arange(n + 1, n + 2000), w))) <= 2.0**-53


def test_gauss_law_finishes_ladder_axis_zeros_on_the_direct_sum():
    # the 19th law of the benchmark's zero-ladder at bench scale and seed 11
    # (m = 14, 16,384 atoms), where |g'| falls to 2.4e-10 at an axis zero:
    # bisection on the Gauss law alone fixes such a zero only to about
    # 1e-14 / |g'|, and the Chebyshev evaluator it replaced was 4.8e-7 off
    rng = np.random.default_rng(11)
    for m in (8,) * 4 + (9,) * 4 + (10,) * 4 + (11,) * 3 + (13,) * 3 + (14,):
        a = rng.uniform(0.3, 1.0, m)
    f = EntireMGF(rademacher_sum_law(a))
    rep = locate_zeros(f, LADDER_REGION)
    assert rep.evaluator["path"] == "gauss" and rep.piz_verdict == VERDICT_PIZ
    got = sorted(z.location.imag for z in rep.zeros for _ in range(z.multiplicity))
    oracle = ladder_oracle(a, LADDER_REGION.im_max)
    assert len(got) == len(oracle) == rep.total_count
    assert all(z.location.real == 0.0 for z in rep.zeros)
    assert max(abs(x - y) for x, y in zip(got, oracle)) <= 1e-7


@pytest.mark.parametrize("law, located", [
    (lambda: observable_distribution(ModelSpec("villain", path_graph(3)), 128), True),
    (rademacher, True),
    (lambda: discretized_gaussian(1.0), False),
    (lambda: nudged(observable_distribution(ModelSpec("xy", path_graph(3)), 64)), False),
], ids=["villain-path3-128", "rademacher", "gaussian", "xy-path3-unsymmetrised"])
def test_axis_residuals_in_one_batch_match_mgf_eval(law, located):
    # _axis_zeros takes a band's root residuals in one direct-sum batch; each
    # must carry the bits mgf_eval gives at that root alone
    f = EntireMGF(law())
    ys = np.concatenate([np.linspace(0.0, 8.0, 29), [math.pi / 2, 1.2345678901234567]])
    batch = zeros._abs_values(*f.values(1j * ys)).tolist()
    assert batch == [abs(mgf_eval(f, 1j * y)) for y in ys]
    if located:
        axis = [z for z in locate_zeros(f, Rectangle(-4.0, 4.0, 0.0, 8.0)).zeros
                if z.location.real == 0.0]
        assert axis
        for z in axis:
            assert type(z.residual) is float and z.residual == abs(mgf_eval(f, z.location))
