"""Chain kernels, spectral convolution, and the heat-kernel scaling limit."""

import math

import numpy as np
import pytest

from leeyang.chain import (CircleKernel, chain_vs_heat, dirichlet_ratio,
                           heat_kernel_circle, kernel_power,
                           laplace_normalization, make_xy_kernel)
from leeyang.errors import NumericalError
from leeyang.gibbs import circle_grid, periodized_gaussian


def bessel_i0_series(x: float) -> float:
    total, term, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (x * x / 4.0) / (k * k)
        total += term
    return total


def test_xy_kernel_zero_coupling_uniform():
    k = make_xy_kernel(0.0, 128)
    assert np.allclose(k.values, 1.0 / (2 * math.pi))
    assert abs(k.normalization - 2 * math.pi) < 1e-12


@pytest.mark.parametrize("N", [8, 101, 512])
def test_kernels_read_the_circle_grid(N):
    k = make_xy_kernel(2.0, N)
    assert np.array_equal(k.grid, circle_grid(N))
    w = np.exp(2.0 * (np.cos(circle_grid(N)) - 1.0))
    assert np.array_equal(k.values, w / (float(w.sum()) * 2 * math.pi / N))


def test_xy_kernel_normalization_is_bessel():
    for B in (0.5, 1.0, 5.0):
        k = make_xy_kernel(B, 512)
        assert abs(k.normalization - 2 * math.pi * bessel_i0_series(B)) < 1e-10


def test_laplace_expansion_strong_coupling():
    B = 50.0
    quad = make_xy_kernel(B, 1024).normalization
    rel = abs(quad / laplace_normalization(B) - 1.0)
    assert rel < 1.0 / B**2
    # the residual is the next series coefficient 9/(128 B^2)
    assert 0.04 < rel * B**2 < 0.10


def test_kernel_mass_invariant():
    with pytest.raises(ValueError, match="mass"):
        CircleKernel(values=np.ones(64), log_normalization=0.0)
    with pytest.raises(ValueError, match="negative"):
        CircleKernel(values=np.full(64, -1.0), log_normalization=0.0)


def test_kernel_rejects_nan():
    v = np.full(64, 1.0 / (2 * math.pi))
    v[3] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        CircleKernel(values=v, log_normalization=0.0)
    v[3] = math.inf
    with pytest.raises(ValueError, match="mass"):
        CircleKernel(values=v, log_normalization=0.0)
    with pytest.raises(ValueError, match="finite"):
        CircleKernel(values=np.full(64, 1.0 / (2 * math.pi)), log_normalization=math.nan)


def test_strong_coupling_kernel_stays_finite():
    # n b = 2048 > 709: exp(B cos) alone overflows a float
    B = 2048.0
    k = make_xy_kernel(B, 512)
    assert np.all(np.isfinite(k.values))
    log_laplace = B + 0.5 * math.log(2 * math.pi / B) + math.log1p(1 / (8 * B))
    assert abs(k.log_normalization - log_laplace) < 1e-6
    with pytest.raises(OverflowError):
        k.normalization
    r = chain_vs_heat(1024, 2.0, 512)
    assert math.isfinite(r["sup_distance"]) and math.isfinite(r["l1_distance"])


def test_kernel_power_identity_and_uniform():
    k = make_xy_kernel(2.0, 256)
    k1 = kernel_power(k, 1)
    assert np.array_equal(k1.values, k.values)
    u = make_xy_kernel(0.0, 256)
    u5 = kernel_power(u, 5)
    assert np.max(np.abs(u5.values - 1.0 / (2 * math.pi))) < 1e-14


def test_kernel_power_semigroup():
    k = make_xy_kernel(4.0, 512)
    a = kernel_power(kernel_power(k, 2), 3)
    b = kernel_power(k, 6)
    assert a.sup_distance(b) < 1e-10


def test_kernel_power_rejects_bad_n():
    with pytest.raises(ValueError):
        kernel_power(make_xy_kernel(1.0, 64), 0)


def test_heat_kernel_delta_limit():
    def near_zero_mass(t):
        h = heat_kernel_circle(t, 1.0, 512)
        return float(np.sum(h.values[np.abs(h.grid) < 0.1])) * 2 * math.pi / 512

    assert near_zero_mass(1e-3) > 0.99
    assert near_zero_mass(1e-5) > 1 - 1e-8
    assert near_zero_mass(1e-5) > near_zero_mass(1e-3)


def test_heat_kernel_uniform_limit():
    h = heat_kernel_circle(100.0, 1.0, 512)
    assert np.max(np.abs(h.values - 1.0 / (2 * math.pi))) < 1e-10


def test_heat_kernel_proportional_to_periodized_gaussian():
    t, b = 2.0, 3.0
    h = heat_kernel_circle(t, b, 512)
    g = h.grid
    ratios = h.values[:20] / np.asarray(periodized_gaussian(g[:20], b / t))
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_heat_kernel_rejects_bad_args():
    with pytest.raises(ValueError):
        heat_kernel_circle(0.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel_circle(1.0, -2.0)


def test_chain_vs_heat_rate():
    sups = {}
    for n in (32, 64, 128, 256):
        r = chain_vs_heat(n, 1.0, 512)
        sups[n] = r["sup_distance"]
        assert abs(r["chain_mass"] - 1.0) < 1e-10
    assert sups[32] > sups[64] > sups[128] > sups[256]
    for n in (32, 64, 128):
        assert 1.7 < sups[n] / sups[2 * n] < 2.3


def test_chain_vs_heat_parameter_grid_monotone():
    for b in (0.5, 1.0, 2.0):
        d = [chain_vs_heat(n, b, 512)["sup_distance"] for n in (16, 32, 64)]
        assert d[0] > d[1] > d[2]


def test_dirichlet_ratio_identical_pairs():
    r = dirichlet_ratio(16, 1.0, (0.3, -0.7), (0.3, -0.7), 256)
    assert r["ratio"] == 1.0


def test_dirichlet_ratio_reciprocal():
    a = dirichlet_ratio(16, 1.0, (0.0, 1.0), (0.5, -0.5), 256)
    b = dirichlet_ratio(16, 1.0, (0.5, -0.5), (0.0, 1.0), 256)
    assert abs(a["ratio"] * b["ratio"] - 1.0) < 1e-12


def test_dirichlet_ratio_approaches_wrapped_gaussian():
    r = dirichlet_ratio(128, 1.0, (0.0, math.pi / 2), (0.0, 0.0), 512)
    assert r["gap"] < 1e-2
    # limit value is the ratio of periodized Gaussians at J = 1/b
    num = periodized_gaussian(math.pi / 2, 1.0)
    den = periodized_gaussian(0.0, 1.0)
    assert abs(r["limit_ratio"] - num / den) < 1e-15


def dense_dirichlet_ratio(n, b, pair, pair_ref, N):
    """The former implementation: n - 2 dense circulant matvecs, logs accumulated.

    The logs (each of size about B) are summed exactly by fsum; a running
    float sum of them loses up to 1.2e-10 relative at n = 256, b = 2.
    """
    B = n * b
    grid = circle_grid(N)
    M = np.exp(B * (np.cos(grid[:, None] - grid[None, :]) - 1.0))

    def log_terms(th0, th1):
        if n == 1:
            return [B * math.cos(th1 - th0)]
        v = np.exp(B * (np.cos(grid - th0) - 1.0))
        acc = [B]
        for _ in range(n - 2):
            v = (M @ v) * (2 * math.pi / N)
            s = float(np.max(v))
            v /= s
            acc += [B, math.log(s)]
        last = float(np.exp(B * (np.cos(th1 - grid) - 1.0)) @ v) * (2 * math.pi / N)
        return acc + [B, math.log(last)]

    return math.exp(math.fsum(log_terms(*pair) + [-t for t in log_terms(*pair_ref)]))


def test_dirichlet_ratio_matches_dense_reference():
    # the reference's logs carry about n B eps each (3e-11 at n = 256, b = 2)
    rng = np.random.default_rng(20)
    for N in (128, 256):
        for b in (0.5, 1.0, 2.0):
            for n in (1, 2, 3, 16, 128, 256):
                pair, ref = (tuple(float(math.pi - 2 * math.pi * u) for u in rng.random(2))
                             for _ in range(2))
                want = dense_dirichlet_ratio(n, b, pair, ref, N)
                got = dirichlet_ratio(n, b, pair, ref, N)["ratio"]
                assert abs(got / want - 1.0) < 1e-10, (n, b, N, pair, ref)


def test_dirichlet_limit_has_precision_b():
    n, b = 256, 2.0
    m = np.arange(-40, 41)

    def gauss(theta):
        return float(np.sum(np.exp(-0.5 * b * (theta + 2 * math.pi * m) ** 2)))

    limit = gauss(math.pi / 2) / gauss(0.0)
    r = dirichlet_ratio(n, b, (0.0, math.pi / 2), (0.0, 0.0), 512)
    assert abs(r["limit_ratio"] / limit - 1.0) < 1e-12
    assert abs(r["ratio"] - limit) < 0.5 / (n * b)


def test_dirichlet_ratio_refuses_unresolved_tail():
    # the true ratio is 1.6e-27, far below the FFT's absolute rounding
    with pytest.raises(NumericalError, match="resolution"):
        dirichlet_ratio(1024, 50.0, (0.0, math.pi / 2), (0.0, 0.0), 512)
    # a deep tail that is still accepted keeps the documented 1e-6 accuracy
    args = (256, 3.5, (0.0, math.pi), (0.0, 0.0), 256)
    got = dirichlet_ratio(*args)["ratio"]
    assert abs(got / dense_dirichlet_ratio(*args) - 1.0) < 1e-6


def test_unresolved_grid_is_refused():
    # on 1, 2, 3 or 8 points the n-step kernel keeps 0.55 to 1 of its mass in
    # the top Fourier mode (N = 16 keeps 5.9e-10 at n = 16, b = 1)
    for N in (1, 2, 3, 8):
        with pytest.raises(NumericalError, match=f"grid size {N} does not resolve"):
            chain_vs_heat(16, 1.0, N)
        for n in (2, 16):
            with pytest.raises(NumericalError, match=f"grid size {N} does not resolve"):
                dirichlet_ratio(n, 1.0, (0.0, 1.0), (0.0, 0.0), N)
    chain_vs_heat(16, 1.0, 16)
    dirichlet_ratio(16, 1.0, (0.0, 1.0), (0.0, 0.0), 16)
    # the one-edge closed form needs no grid
    r = dirichlet_ratio(1, 1.0, (0.0, 1.0), (0.0, 0.0), 1)
    assert r["ratio"] == math.exp(1.0 * (math.cos(1.0) - math.cos(0.0)))


def test_dirichlet_ratio_validates_angles():
    with pytest.raises(ValueError, match="outside"):
        dirichlet_ratio(8, 1.0, (4.0, 0.0), (0.0, 0.0), 128)


def test_fft_grid_convolution_has_no_phase_offset():
    # convolving a narrow symmetric kernel with itself must stay centred at 0
    k = make_xy_kernel(30.0, 256)
    k2 = kernel_power(k, 2)
    assert abs(k2.grid[int(np.argmax(k2.values))]) < 1e-12
