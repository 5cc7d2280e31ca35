"""Exact spin-model laws: quadrature accuracy against independent oracles."""

import functools
import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from leeyang import gibbs
from leeyang.errors import BudgetExceededError, NumericalError
from leeyang.gibbs import (DiscretizedDistribution, ModelSpec, _coalesce, _finish_law,
                           _restrict, circle_grid, distribution_from_atoms, edge_weight,
                           kolmogorov_distance, observable_distribution,
                           discretized_gaussian, periodized_gaussian, rademacher,
                           wrap_angle)
from leeyang.graphs import build_graph, path_graph, single_edge_graph, subdivide
from leeyang.zeros import EntireMGF, mgf_eval


def bessel_i0_series(x: float) -> float:
    """Power-series oracle for the modified Bessel function of order 0."""
    total, term, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (x * x / 4.0) / (k * k)
        total += term
    return total


def poisson_dual_gaussian(theta: float, J: float, kmax: int = 40) -> float:
    """Periodized Gaussian via its Fourier series (Poisson summation oracle)."""
    coeff = math.sqrt(2 * math.pi / J) / (2 * math.pi)
    return coeff * sum(math.exp(-k * k / (2 * J)) * math.cos(k * theta)
                       for k in range(-kmax, kmax + 1))


# ---------------------------------------------------------------------------
# periodized Gaussian
# ---------------------------------------------------------------------------

def test_periodized_gaussian_strong_coupling_single_term():
    assert abs(periodized_gaussian(0.0, 50.0) - 1.0) < 1e-12


def test_periodized_gaussian_weak_coupling_flat():
    vals = [periodized_gaussian(t, 0.01) for t in (-3.0, -1.0, 0.0, 0.4, 2.2, math.pi)]
    for t, v in zip((-3.0, -1.0, 0.0, 0.4, 2.2, math.pi), vals):
        assert abs(v - poisson_dual_gaussian(t, 0.01)) < 1e-10
    assert max(vals) - min(vals) < 1e-6
    assert abs(vals[0] - 3.98942) < 1e-4


def test_periodized_gaussian_refuses_a_non_finite_coupling():
    # J = inf would add images until the loop's cap of 10^6
    for J in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="needs a finite J > 0"):
            periodized_gaussian(0.3, J)


def test_periodized_gaussian_periodicity():
    for theta in (0.3, -2.0, 1.9):
        a = periodized_gaussian(theta, 1.0)
        b = periodized_gaussian(theta + 2 * math.pi, 1.0)
        assert abs(a - b) <= 4 * np.finfo(float).eps * a


def test_periodized_gaussian_rejects_bad_inputs():
    with pytest.raises(ValueError):
        periodized_gaussian(0.1, 0.0)
    with pytest.raises(ValueError):
        periodized_gaussian(0.1, -1.0)


# ---------------------------------------------------------------------------
# XY edge weight
# ---------------------------------------------------------------------------

def test_xy_edge_weight_values():
    # exp(J (cos - 1)) = exp(J cos) / e^J; tolerances are the relative
    # ones of the unscaled values e^{2} and e^{-2}
    assert abs(edge_weight("xy", 0.0, 2.0) - 1.0) < 1e-12 / math.e**2
    assert abs(edge_weight("xy", math.pi, 2.0) - math.e**-4) < 1e-14 * math.e**-2
    with pytest.raises(ValueError, match="kind"):
        edge_weight("ising", 0.0, 1.0)


def test_xy_edge_weight_integral_is_bessel():
    N = 512
    quad = float(np.sum(edge_weight("xy", circle_grid(N), 1.0))) * 2 * math.pi / N
    exact = 2 * math.pi * math.exp(-1.0) * bessel_i0_series(1.0)
    assert abs(quad - exact) < 1e-10 * math.exp(-1.0)


# ---------------------------------------------------------------------------
# DiscretizedDistribution invariants
# ---------------------------------------------------------------------------

def test_distribution_validates_mass():
    with pytest.raises(ValueError, match="sum"):
        DiscretizedDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="positive"):
        DiscretizedDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5]))


def test_distribution_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        DiscretizedDistribution(np.array([0.0, math.nan]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        DiscretizedDistribution(np.array([0.0, math.inf]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="positive"):
        DiscretizedDistribution(np.array([0.0, 1.0]), np.array([math.nan, 1.0]))


def test_is_symmetric_basic():
    assert rademacher().is_symmetric()
    skew = DiscretizedDistribution(np.array([-1.0, 1.0]), np.array([0.4, 0.6]))
    assert not skew.is_symmetric()


def test_is_symmetric_permutation_invariant():
    rng = random.Random(2)
    xs = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    ws = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        d = DiscretizedDistribution(xs[perm], ws[perm])
        assert d.is_symmetric()


def is_symmetric_with_coalesce_calls(d, monkeypatch):
    import leeyang.gibbs as gibbs

    calls = []

    def spy(xs, ws):
        calls.append(len(xs))
        return _coalesce(xs, ws)

    monkeypatch.setattr(gibbs, "_coalesce", spy)
    return d.is_symmetric(), len(calls)


def test_is_symmetric_reads_a_bitwise_mirror_first(monkeypatch):
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    ws = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    # a bitwise mirror needs no coalescing
    assert is_symmetric_with_coalesce_calls(DiscretizedDistribution(xs, ws), monkeypatch) == (True, 0)
    # positions mirrored within 1e-13 only: the coalescing comparison says yes
    near = DiscretizedDistribution(xs + np.array([0.0, 0.0, 0.0, 1e-13, 0.0]), ws)
    assert not np.array_equal(near.xs, -near.xs[::-1])
    assert is_symmetric_with_coalesce_calls(near, monkeypatch) == (True, 1)
    # one weight off by 1e-9 (the atom at 0 keeps the mass), and mirrored
    # positions under asymmetric weights
    off = (xs, ws + np.array([1e-9, 0.0, -1e-9, 0.0, 0.0]))
    skew = (np.array([-1.0, 1.0]), np.array([0.3, 0.7]))
    for atoms in (off, skew):
        assert is_symmetric_with_coalesce_calls(DiscretizedDistribution(*atoms),
                                                monkeypatch) == (False, 1)


@pytest.mark.parametrize("n_atoms", [2, 10, 1200, 1201])
def test_discretized_gaussian_has_the_atoms_asked_for(n_atoms):
    # the grid has exactly n_atoms points, an even count included
    law = discretized_gaussian(0.8, n_atoms=n_atoms)
    assert len(law.xs) == n_atoms
    assert law.is_mirror()


def test_laws_and_graphs_compare_by_identity():
    # atoms, couplings and weights are all data: two laws or graphs that
    # differ only there must not compare equal, nor the models built on them
    assert rademacher(1.0) != discretized_gaussian()
    assert len({rademacher(1.0), rademacher(5.0)}) == 2
    assert single_edge_graph(J=1.0) != single_edge_graph(J=5.0)
    assert (ModelSpec("villain", single_edge_graph(J=1.0))
            != ModelSpec("villain", single_edge_graph(J=5.0, lam=(0, 9))))


def test_csv_roundtrip():
    d = rademacher(1.5)
    d2 = DiscretizedDistribution.from_csv(d.to_csv())
    assert np.allclose(d2.xs, d.xs) and np.allclose(d2.ws, d.ws)


def test_kolmogorov_distance_exact():
    p = rademacher(1.0)
    q = DiscretizedDistribution(np.array([-1.0, 1.0]), np.array([0.3, 0.7]))
    assert abs(kolmogorov_distance(p, q) - 0.2) < 1e-15
    assert kolmogorov_distance(p, p) == 0.0


def test_atoms_in_any_order_are_sorted_by_position():
    flipped = DiscretizedDistribution(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    assert flipped.cdf(0.0) == 0.5
    assert kolmogorov_distance(rademacher(), flipped) == 0.0
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    ws = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    perm = np.array([3, 0, 4, 2, 1])
    shuffled = DiscretizedDistribution(xs[perm], ws[perm])
    assert np.array_equal(shuffled.xs, xs) and np.array_equal(shuffled.ws, ws)
    # a file written by hand need not list its atoms in order
    d = DiscretizedDistribution(xs, ws)
    header, *rows = d.to_csv().splitlines()
    reread = DiscretizedDistribution.from_csv("\n".join([header, *rows[::-1]]))
    assert np.array_equal(reread.xs, xs) and np.array_equal(reread.ws, ws)
    assert np.array_equal(reread.cdf(xs), d.cdf(xs))
    # sorted input, as every builder makes, passes through bit for bit
    law = observable_distribution(ModelSpec("xy", single_edge_graph(1.0)), 32)
    again = DiscretizedDistribution(law.xs, law.ws)
    assert np.array_equal(again.xs, law.xs) and np.array_equal(again.ws, law.ws)


# ---------------------------------------------------------------------------
# observable_distribution
# ---------------------------------------------------------------------------

def test_single_vertex_uniform_angle_mgf_is_bessel():
    g = build_graph(["a"], [], {}, {"a": 1.0})
    d = observable_distribution(ModelSpec("xy", g), 256)
    f = EntireMGF(d)
    assert abs(mgf_eval(f, 1.0) - bessel_i0_series(1.0)) < 1e-10


def test_all_zero_weights_point_mass():
    g = single_edge_graph(J=1.0, lam=(0.0, 0.0))
    d = observable_distribution(ModelSpec("villain", g), 64)
    assert len(d.xs) == 1
    assert d.xs[0] == 0.0 and abs(d.ws[0] - 1.0) < 1e-15


def test_villain_edge_spectral_refinement():
    g = single_edge_graph(J=2.0)
    m = ModelSpec("villain", g)
    f1 = EntireMGF(observable_distribution(m, 128))
    f2 = EntireMGF(observable_distribution(m, 256))
    assert abs(mgf_eval(f1, 1.0) - mgf_eval(f2, 1.0)) < 1e-10


def test_mgf_stable_under_grid_doubling_shipped_models():
    models = [
        ModelSpec("villain", single_edge_graph(J=1.0)),
        ModelSpec("xy", single_edge_graph(J=0.5), inverse_temperature=2.0),
        ModelSpec("villain", path_graph(3, J=2.0, lam=0.5)),
    ]
    zs = [0.5, -1.3, 2.0, 1.0 + 1.0j, 2.0j]
    for m in models:
        f1 = EntireMGF(observable_distribution(m, 64))
        f2 = EntireMGF(observable_distribution(m, 128))
        for z in zs:
            assert abs(mgf_eval(f1, z) - mgf_eval(f2, z)) < 1e-8


def test_budget_rejection_names_cost(monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_EVAL_BUDGET", 10**6)
    g = path_graph(4)
    with pytest.raises(BudgetExceededError, match=r"128\^4"):
        observable_distribution(ModelSpec("xy", g), 128)


def test_a_model_pins_no_vertex():
    # every law is a free-boundary law; ``boundary`` stays a class attribute,
    # None, for the benchmark tracer that counts free vertices
    with pytest.raises(TypeError, match="boundary"):
        ModelSpec("villain", single_edge_graph(), boundary={"y": 0.1})
    assert ModelSpec("villain", single_edge_graph()).boundary is None


@pytest.mark.parametrize("build, named", [
    (lambda: ModelSpec("ising", single_edge_graph()), "unknown model kind 'ising'"),
    (lambda: DiscretizedDistribution(np.array([0.0, 1.0]), np.array([1.0])), "equal length"),
    (lambda: DiscretizedDistribution(np.zeros((1, 1)), np.ones((1, 1))), "1-d arrays"),
    (lambda: ModelSpec("xy", single_edge_graph(), math.inf), "inverse temperature must be "
     "positive and finite, got inf"),
    (lambda: ModelSpec("villain", single_edge_graph(), math.nan), "got nan"),
    (lambda: discretized_gaussian(n_atoms=1), "n_atoms must be an integer >= 2, got 1"),
    (lambda: discretized_gaussian(n_atoms=0), "n_atoms must be an integer >= 2, got 0"),
], ids=["unknown-kind", "law-unequal-lengths", "law-not-1d", "beta-inf", "beta-nan",
        "gaussian-one-atom", "gaussian-no-atoms"])
def test_model_and_law_refusals_name_the_bad_value(build, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("J", [1e-12, 5e-324])
def test_periodized_gaussian_refuses_a_coupling_too_small_to_sum(J):
    # about 1/sqrt(J) images would be needed: refused before the first of them
    with pytest.raises(ValueError, match=re.escape(f"periodized Gaussian with J = {J}")):
        periodized_gaussian(np.linspace(-math.pi, math.pi, 5), J)
    # the smallest J in use still sums, and keeps its Poisson-dual value
    assert abs(periodized_gaussian(0.3, 0.01) - poisson_dual_gaussian(0.3, 0.01, 400)) < 1e-12


def test_periodized_gaussian_refuses_an_angle_that_is_not_finite():
    with pytest.raises(ValueError, match="not finite"):
        periodized_gaussian(np.array([0.0, math.nan]), 1.0)


def test_output_symmetric_and_normalized():
    for kind in ("xy", "villain"):
        d = observable_distribution(ModelSpec(kind, path_graph(3, J=1.5, lam=1.0)), 64)
        assert abs(d.ws.sum() - 1.0) < 1e-12
        assert d.is_symmetric()


STRONG_COUPLING_MODELS = {
    "villain-edge-J200": ModelSpec("villain", single_edge_graph(J=200.0)),
    "villain-path3-J160": ModelSpec("villain", path_graph(3, J=160.0)),
    "xy-edge-B380": ModelSpec("xy", single_edge_graph(), inverse_temperature=380.0),
    "xy-edge-B800": ModelSpec("xy", single_edge_graph(), inverse_temperature=800.0),
    "xy-path3-B400": ModelSpec("xy", path_graph(3), inverse_temperature=400.0),
}


@pytest.mark.parametrize("model, raw", [
    *(pytest.param(m, False, id=name) for name, m in STRONG_COUPLING_MODELS.items()),
    # raw: the reference's law from every chunk, unsymmetrised, is symmetric
    # too: underflow drops no atom on one side only, so the builder loses
    # nothing by folding the grid in half
    *(pytest.param(m, True, id=f"{name}-raw") for name, m in STRONG_COUPLING_MODELS.items())])
def test_strong_coupling_builds_a_law(model, raw):
    # most grid configurations get a weight that underflows to 0, some only
    # when the law is normalised
    d = _finish_law(*chunked_atoms(model, 64), False) if raw else observable_distribution(model, 64)
    assert np.all(np.isfinite(d.xs)) and np.all(np.isfinite(d.ws))
    assert abs(d.ws.sum() - 1.0) < 1e-12
    assert d.is_symmetric() if raw else d.is_mirror()


def test_odd_grid_rejected():
    with pytest.raises(ValueError, match="even"):
        observable_distribution(ModelSpec("xy", single_edge_graph()), 63)


@pytest.mark.parametrize("N", [0, -2, 64.0])
def test_grid_size_must_be_positive_even_integer(N):
    with pytest.raises(ValueError, match="grid size"):
        observable_distribution(ModelSpec("xy", single_edge_graph()), N)
    with pytest.raises(ValueError, match="grid size"):
        circle_grid(N)


@pytest.mark.parametrize("N", [2, 8, 64, 512])
def test_circle_grid_is_fft_ordered(N):
    grid = circle_grid(N)
    assert grid[0] == 0.0 and grid[N // 2] == math.pi
    assert np.all((grid > -math.pi) & (grid <= math.pi))
    # index -j holds -theta_j, and index i - j holds theta_i - theta_j modulo 2 pi
    ulp = np.spacing(math.pi)
    j = np.array([k for k in range(N) if k != N // 2])
    assert np.max(np.abs(grid[-j % N] + grid[j])) <= 4 * ulp
    idx = np.arange(N)
    diff = wrap_angle(grid[:, None] - grid[None, :]) - grid[(idx[:, None] - idx[None, :]) % N]
    assert np.max(np.abs(wrap_angle(diff))) <= 8 * ulp


def test_free_law_reads_the_circle_grid(monkeypatch):
    import leeyang.gibbs as gibbs

    sizes = []

    def spy(N):
        sizes.append(N)
        return circle_grid(N)

    monkeypatch.setattr(gibbs, "circle_grid", spy)
    d = observable_distribution(ModelSpec("villain", path_graph(3, J=1.0)), 64)
    assert sizes == [64]
    assert np.array_equal(d.xs, -d.xs[::-1])


# ---------------------------------------------------------------------------
# chains: weight-0 vertices summed out
# ---------------------------------------------------------------------------

def xy_chain(n, B, lam_ends=(1.0, 1.0)):
    """The n-edge XY chain with unit couplings at inverse temperature B and
    weight only at its two ends."""
    verts = [f"c{i}" for i in range(n + 1)]
    return ModelSpec("xy", build_graph(verts, zip(verts, verts[1:]), {},
                                       {verts[0]: lam_ends[0], verts[-1]: lam_ends[1]}), B)


SUMMED_OUT_MODELS = {
    **{f"chain{n}": xy_chain(n, 2.0, (1.0, 0.7)) for n in (2, 3)},
    # both spokes go: summing the first out leaves the second between the hubs
    "subdivided-edge": ModelSpec("xy", subdivide(single_edge_graph(), 1, J=4.0)),
}


def test_summed_out_chain_matches_chunked_reference(monkeypatch):
    for model in SUMMED_OUT_MODELS.values():
        for N in (16, 32):
            atoms = chunked_atoms(model, N)  # every vertex on the tensor grid
            # two free vertices are left: the budget of N^2 refuses any more
            monkeypatch.setattr(gibbs, "DEFAULT_EVAL_BUDGET", N * N)
            assert_matches_reference(model, N, atoms)


def test_weight0_vertex_between_joined_neighbours_stays(monkeypatch):
    # summing q out would join p and r a second time, so q stays on the grid:
    # N^2 refuses, and N^3 builds the law of every vertex on the tensor grid
    J = {("p", "q"): 1.2, ("q", "r"): 0.6, ("p", "r"): 0.8}
    model = ModelSpec("xy", build_graph(["q", "p", "r"], list(J), J,
                                        {"p": 1.0, "q": 0.0, "r": 0.4}), 1.1)
    for N in (8, 16):
        monkeypatch.setattr(gibbs, "DEFAULT_EVAL_BUDGET", N**2)
        with pytest.raises(BudgetExceededError, match=rf"{N}\^3"):
            observable_distribution(model, N)
        monkeypatch.setattr(gibbs, "DEFAULT_EVAL_BUDGET", N**3)
        assert_matches_reference(model, N, chunked_atoms(model, N))


def test_budget_refusal_builds_no_grid_table(monkeypatch):
    # with N^2 over budget no two free vertices fit, so nothing is summed out
    # and the refusal comes before any N x N table is built
    monkeypatch.setattr(gibbs, "DEFAULT_EVAL_BUDGET", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"2048\^3"):
            observable_distribution(xy_chain(2, 1.0), 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_chain_zero_weights_point_mass():
    d = observable_distribution(xy_chain(5, 1.0, (0.0, 0.0)), 64)
    assert len(d.xs) == 1 and d.xs[0] == 0.0


def test_chain_self_refinement():
    f1 = EntireMGF(observable_distribution(xy_chain(3, 2.0), 128))
    f2 = EntireMGF(observable_distribution(xy_chain(3, 2.0), 256))
    assert abs(mgf_eval(f1, 1.0) - mgf_eval(f2, 1.0)) < 1e-9


def test_chain_converges_to_villain_edge():
    """Endpoint law of the strongly coupled chain approaches the single-edge law."""
    d_v = observable_distribution(ModelSpec("villain", single_edge_graph(J=1.0)), 256)
    fv = EntireMGF(d_v)
    gaps = []
    for n in (16, 64, 256):
        fc = EntireMGF(observable_distribution(xy_chain(n, float(n)), 256))
        gaps.append(max(abs(mgf_eval(fv, z) - mgf_eval(fc, z)) for z in (1.0, 2.0j, 1.0 + 1.0j)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_chain_law_refuses_unresolved_grid():
    # the rule of leeyang.chain: on 8 points the 16-step kernel at B = 16
    # keeps 0.55 of its mass in the top Fourier mode, and the law's f(1)
    # would read 2.2178 against 1.9887
    with pytest.raises(NumericalError, match="grid size 8 does not resolve the 16-step"):
        observable_distribution(xy_chain(16, 16.0), 8)
    f = EntireMGF(observable_distribution(xy_chain(16, 16.0), 64))
    assert abs(mgf_eval(f, 1.0) - 1.9887) < 1e-4


def test_distribution_from_atoms_coalesces():
    d = distribution_from_atoms([(1.0, 0.25), (1.0 + 1e-14, 0.25), (-1.0, 0.5)],
                                symmetrize=True)
    assert len(d.xs) == 2
    assert d.is_symmetric()


def test_distribution_from_atoms_takes_only_x_w_pairs():
    for atoms in ([(1.0, 0.5, 7.0), (-1.0, 0.5, 9.0)], [], np.empty((0, 2)), [1.0, -1.0],
                  [[(1.0, 0.5)]]):
        with pytest.raises(ValueError, match=r"non-empty sequence of \(x, w\) pairs"):
            distribution_from_atoms(atoms)
    # the (2^m, 2) array of a Rademacher sum, as the zero-ladder builds it
    signs = ((np.arange(4)[:, None] >> np.arange(2)) & 1) * 2.0 - 1.0
    atoms = np.column_stack([signs @ np.array([0.5, 0.75]), np.full(4, 0.25)])
    d = distribution_from_atoms(atoms, symmetrize=True)
    assert d.xs.tolist() == [-1.25, -0.25, 0.25, 1.25] and d.ws.tolist() == [0.25] * 4


@pytest.mark.parametrize("atoms, named", [
    ([(0.0, -1.0), (1.0, 2.0)], "atom (0.0, -1.0): weight must be nonnegative and finite"),
    ([(0.0, math.nan), (1.0, 1.0)], "atom (0.0, nan): weight"),
    ([(0.0, math.inf), (1.0, 1.0)], "atom (0.0, inf): weight"),
    ([(0.0, 0.0), (1.0, 0.0)], "atom weights sum to 0.0, not a positive finite total"),
    ([(0.0, 1e308), (1.0, 1e308)], "atom weights sum to inf, not a positive finite total"),
], ids=["negative", "nan", "inf", "all-zero", "sum-overflows"])
def test_distribution_from_atoms_refuses_bad_weights(atoms, named):
    # each was once dropped silently or blamed on underflow
    with pytest.raises(ValueError, match=re.escape(named)):
        distribution_from_atoms(atoms)


def test_distribution_from_atoms_drops_zero_weights():
    d = distribution_from_atoms([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])
    assert d.xs.tolist() == [1.0, 3.0] and d.ws.tolist() == [0.5, 0.5]


def test_vertex_listing_order_is_immaterial():
    lam = {"b": 1.0, "c": 0.5, "d": 0.25}
    g1 = build_graph(["b", "c", "d"], [("b", "c"), ("c", "d")], {}, lam)
    g2 = build_graph(["d", "c", "b"], [("b", "c"), ("c", "d")], {}, lam)
    f1 = EntireMGF(observable_distribution(ModelSpec("xy", g1, 1.3), 32))
    f2 = EntireMGF(observable_distribution(ModelSpec("xy", g2, 1.3), 32))
    for z in (0.7, 1.0 + 0.5j, 2.0j):
        assert abs(mgf_eval(f1, z) - mgf_eval(f2, z)) < 1e-14


TRIANGLE_J = {("p", "r"): 0.8, ("p", "q"): 1.2, ("q", "r"): 0.6}


def triangle_model(kind):
    verts = ["q", "p", "r"]
    lam = {"p": 1.0, "q": 0.7, "r": 0.4}
    return ModelSpec(kind, build_graph(verts, list(TRIANGLE_J), TRIANGLE_J, lam), 1.1)


# raw: against the Gibbs sum itself, else against its average with the reflection
@pytest.mark.parametrize("raw", [False, True], ids=["free", "free-raw"])
@pytest.mark.parametrize("kind", ["xy", "villain"])
def test_triangle_matches_brute_force_tensor_sum(kind, raw):
    N = 16
    model = triangle_model(kind)
    verts, J, lam = model.graph.vertices, TRIANGLE_J, model.graph.weight
    f = EntireMGF(observable_distribution(model, N))
    grid = circle_grid(N)
    z = 0.9 + 0.3j

    def weight(d, je):  # at beta = 1.1
        if kind == "xy":
            return math.exp(1.1 * je * math.cos(d))
        return poisson_dual_gaussian(d, 1.1 * je)

    num_p, num_m, den = 0.0, 0.0, 0.0
    for idx in itertools.product(range(N), repeat=len(verts)):
        th = dict(zip(verts, grid[list(idx)]))
        w = 1.0
        for (u, v), je in J.items():
            w *= weight(th[u] - th[v], je)
        s = sum(lam[v] * math.cos(th[v]) for v in verts)
        num_p += w * np.exp(z * s)
        num_m += w * np.exp(-z * s)
        den += w
    # the law is symmetric, so symmetrising it changes it only by rounding:
    # it is both the Gibbs sum and that sum's average with its reflection
    want = num_p / den if raw else 0.5 * (num_p + num_m) / den
    assert abs(mgf_eval(f, z) - want) < 1e-13


def chunked_atoms(model, N):
    """The former builder's atoms before the finish: one chunk per grid index
    of the first angle, each chunk's atoms sorted and coalesced on their
    own."""
    G = model.graph
    m = len(G.vertices)
    grid = circle_grid(N)
    axis = {v: i for i, v in enumerate(G.vertices)}
    beta = model.inverse_temperature
    idx = np.arange(N)
    weights = [((), np.array(1.0))]
    for e in G.edges:
        a, b = axis[e[0]], axis[e[1]]
        row = edge_weight(model.kind, 2 * math.pi * idx / N, beta * G.coupling[e])
        mat = row[(idx[:, None] - idx[None, :]) % N]
        weights.append(((a, b), mat) if a < b else ((b, a), np.ascontiguousarray(mat.T)))
    values = [((), np.array(0.0))] + [((axis[v],), G.weight[v] * np.cos(grid)) for v in G.vertices]
    nd = m - 1
    xs, ws = [], []
    for i0 in range(N):
        w = functools.reduce(np.multiply, (_restrict(ax, t, i0, nd) for ax, t in weights))
        s = functools.reduce(np.add, (_restrict(ax, t, i0, nd) for ax, t in values))
        cx, cw = _coalesce(np.broadcast_to(s, (N,) * nd).ravel(),
                           np.broadcast_to(w, (N,) * nd).ravel())
        xs.append(cx)
        ws.append(cw)
    return np.concatenate(xs), np.concatenate(ws)


def assert_matches_reference(model, N, atoms):
    """The law at grid N equals the reference's ``atoms`` finished as a
    symmetrised law."""
    want = _finish_law(*atoms, True)
    got = observable_distribution(model, N)
    assert len(got.xs) == len(want.xs), N
    assert np.max(np.abs(got.xs - want.xs)) <= 1e-13, N
    assert np.max(np.abs(got.ws / want.ws - 1.0)) <= 1e-12, N


MIDDLE_FIRST_PATH3 = build_graph(["v1", "v0", "v2"], [("v0", "v1"), ("v1", "v2")],
                                 {("v0", "v1"): 1.0, ("v1", "v2"): 0.6},
                                 {"v0": 1.0, "v1": 0.8, "v2": 0.5})
STAR4 = build_graph(["o", "a", "b", "c"], [("o", "a"), ("o", "b"), ("o", "c")],
                    {("o", "a"): 0.9, ("o", "b"): 1.3, ("o", "c"): 0.7},
                    {"o": 0.6, "a": 1.0, "b": 0.8, "c": 0.5})
CRITERION_1_MODELS = {
    f"{gname}-{kind}-J{J}-lam{lam}": ModelSpec(kind, gf(J, lam))
    for gname, gf in {"edge": lambda J, lam: single_edge_graph(J=J, lam=(lam, lam)),
                      "path3": lambda J, lam: path_graph(3, J=J, lam=lam)}.items()
    for kind in ("villain", "xy") for J in (0.5, 1.0, 2.0) for lam in (0.5, 1.0)}
REFERENCE_MODELS = {
    **CRITERION_1_MODELS,
    **{f"triangle-{kind}-free": triangle_model(kind) for kind in ("xy", "villain")},
    # the first listed vertex is the chunk axis: 2 and 3 neighbours, or none,
    # with no other axis (nd = 0) or with one that no factor touches
    "path3-middle-first": ModelSpec("villain", MIDDLE_FIRST_PATH3),
    "star4-centre-first": ModelSpec("xy", STAR4, 1.2),
    "one-free-vertex": ModelSpec("xy", build_graph(["a"], [], {}, {"a": 0.8}), 0.9),
    "two-vertices-no-edge": ModelSpec("villain", build_graph(["a", "b"], [], {},
                                                             {"a": 1.0, "b": 0.6})),
}


@pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
def test_observable_distribution_matches_chunked_reference(model):
    for N in (2, 6, 30, 32, 34, 64):  # N = 2 mod 4 has no chunk that is its own pi-shift mirror
        assert_matches_reference(model, N, chunked_atoms(model, N))


@pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
def test_free_boundary_raw_law_is_symmetric(model):
    # the pi shift that lets a free law build half its chunks and be
    # symmetrised: its reference law from every chunk, unsymmetrised, is
    # already symmetric
    assert _finish_law(*chunked_atoms(model, 32), False).is_symmetric()
    assert observable_distribution(model, 32).is_mirror()


def test_a_law_builds_a_quarter_of_the_chunks(monkeypatch):
    # _merge_runs runs once per chunk and once in the finish
    count = []
    merge = gibbs._merge_runs
    monkeypatch.setattr(gibbs, "_merge_runs", lambda *a: count.append(1) or merge(*a))
    observable_distribution(triangle_model("villain"), 64)
    assert len(count) == 64 // 4 + 2


def test_inverse_temperature_multiplies_every_coupling():
    # a Villain edge at beta carries the periodized Gaussian of parameter beta J_e
    doubled = triangle_model("villain").graph
    doubled = replace(doubled, coupling={e: 2.0 * J for e, J in doubled.coupling.items()})
    pairs = [(replace(triangle_model("villain"), inverse_temperature=2.0),
              ModelSpec("villain", doubled)),
             (ModelSpec("xy", single_edge_graph(), 380.0),
              ModelSpec("xy", single_edge_graph(J=380.0)))]
    for hot, stiff in pairs:
        a, b = observable_distribution(hot, 32), observable_distribution(stiff, 32)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ws, b.ws)


def test_observable_distribution_bit_stable():
    m = ModelSpec("villain", path_graph(3, J=1.0, lam=1.0))
    d1 = observable_distribution(m, 64)
    d2 = observable_distribution(m, 64)
    assert np.array_equal(d1.xs, d2.xs)
    assert np.array_equal(d1.ws, d2.ws)
