"""Zero location and Hadamard fits against closed-form and series oracles."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from leeyang.errors import NumericalError
from leeyang.gibbs import (DiscretizedDistribution, ModelSpec,
                           discretized_gaussian, distribution_from_atoms,
                           observable_distribution, rademacher)
from leeyang.graphs import build_graph, path_graph
from leeyang.zeros import (EntireMGF, Rectangle, VERDICT_INCONCLUSIVE,
                           VERDICT_OFF_AXIS, VERDICT_PIZ, _scaled_direct,
                           count_zeros_rectangle, hadamard_fit, locate_zeros,
                           mgf_eval, refinement_stable_report,
                           zero_report_from_json)


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
    return DiscretizedDistribution(np.array([-2.0, 0.0, 2.0]),
                                   np.array([0.1, 0.8, 0.1]), symmetrized=True)


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
    # Im f(it) = 0.1 sin t is 0.030, 0.064, 0.096 at the checked t; the cosh
    # halves of the law would report exactly 0
    skew = DiscretizedDistribution(np.array([-1.0, 0.0, 1.0]), np.array([0.2, 0.5, 0.3]))
    object.__setattr__(skew, "symmetrized", True)
    with pytest.raises(ValueError, match="not real"):
        EntireMGF(skew)


def test_mgf_eval_point_mass():
    d = DiscretizedDistribution(np.array([0.0]), np.array([1.0]), symmetrized=True)
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
    mant, scale = f.evaluator(800.0).eval_batch(np.array([800.0]))
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
                                np.array([0.25] * 4), symmetrized=True)
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
    law = DiscretizedDistribution(np.array([-a, 0.0, a]), np.array([p, 1.0 - 2.0 * p, p]),
                                  symmetrized=True)
    rep = locate_zeros(EntireMGF(law), Rectangle(-2 * r, 2 * r, 0, 4 * math.pi / a))
    assert_three_atom_pairs(rep, p, a)


def test_hadamard_counts_multiplicity():
    # the double zero at i pi contributes twice to the inverse-square sum
    d = DiscretizedDistribution(np.array([-2.0, -1.0, 1.0, 2.0]),
                                np.array([0.25] * 4), symmetrized=True)
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
    with pytest.raises(ValueError):
        locate_zeros(EntireMGF(rademacher()), Rectangle(-1, 1, 0, 2), tol=0.0)


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


def test_spectral_evaluator_agrees_with_direct():
    m = ModelSpec("villain", build_graph(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}))
    d = observable_distribution(m, 128)
    f = EntireMGF(d)
    ev = f.evaluator(10.0)
    assert f.fast_path == "spectral"
    rng = random.Random(5)
    zs = np.array([complex(rng.uniform(-4, 4), rng.uniform(-7, 7)) for _ in range(12)])
    fast, shift = ev.eval_batch(zs)
    for z, fv, s in zip(zs, fast, shift):
        assert abs(fv * np.exp(s) - mgf_eval(f, z)) < 1e-9 * max(1.0, abs(mgf_eval(f, z)))


def villain_path3_law():
    return observable_distribution(ModelSpec("villain", path_graph(3)), 128)


def pinned_xy_path4_law():
    m = ModelSpec("xy", path_graph(4), boundary={"v0": 0.3})
    return observable_distribution(m, 64, symmetrize=False)


@pytest.mark.parametrize("law, symmetric", [(villain_path3_law, True),
                                            (pinned_xy_path4_law, False)])
def test_spectral_evaluator_against_full_atom_sum(law, symmetric):
    # the spectral moments and mgf_eval both read the nonnegative half of a
    # symmetric law; the reference here sums over every atom.  Points lie in
    # the criterion-1 region [-4, 4] x [0, 8] and its mirror.
    d = law()
    f = EntireMGF(d)
    radius = 8.0 * math.sqrt(2.0)
    ev = f.evaluator(radius)
    assert f.fast_path == "spectral" and f.symmetric == symmetric
    rng = random.Random(5)
    zs = np.array([complex(rng.uniform(-4, 4), rng.uniform(-8, 8)) for _ in range(16)])
    fv, dv, shift = ev.eval_pair_batch(zs)
    mant, dmant, ref_shift = _scaled_direct(d.xs, d.ws, zs, d.ws * d.xs)
    for got, ref in ((fv * np.exp(shift), mant * np.exp(ref_shift)),
                     (dv * np.exp(shift), dmant * np.exp(ref_shift))):
        assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))
    on_axis = ev.eval_batch(1j * np.linspace(0.1, radius, 13))[0]
    assert np.all(on_axis.imag == 0.0) == symmetric
    assert 0.0 <= ev.xval_ratio <= 1.0


def test_report_records_the_spectral_evaluator():
    f = EntireMGF(villain_path3_law())
    rep = locate_zeros(f, Rectangle(-1, 1, 0, 2))
    ev = f.evaluator(1.0)
    assert rep.evaluator == {"path": "spectral", "K": ev.K, "xval_ratio": ev.xval_ratio}
    assert zero_report_from_json(rep.to_json()).evaluator == rep.evaluator
