"""Chain kernels, spectral convolution, and the heat-kernel scaling limit."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from leeyang.chain import (_convolution_power, chain_vs_heat, dirichlet_ratio,
                           laplace_normalization, make_xy_kernel)
from leeyang.errors import NumericalError
from leeyang.gibbs import circle_grid, edge_weight, periodized_gaussian


def bessel_i0_series(x: float) -> float:
    total, term, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (x * x / 4.0) / (k * k)
        total += term
    return total


def test_xy_kernel_zero_coupling_uniform():
    density, log_z = make_xy_kernel(0.0, 128)
    assert np.allclose(density, 1.0 / (2 * math.pi))
    assert abs(math.exp(log_z) - 2 * math.pi) < 1e-12


@pytest.mark.parametrize("N", [8, 101, 512])
def test_kernels_read_the_circle_grid(N):
    density, _ = make_xy_kernel(2.0, N)
    w = np.exp(2.0 * (np.cos(circle_grid(N)) - 1.0))
    assert np.array_equal(density, w / (float(w.sum()) * 2 * math.pi / N))


def test_xy_kernel_normalization_is_bessel():
    for B in (0.5, 1.0, 5.0):
        z = math.exp(make_xy_kernel(B, 512)[1])
        assert abs(z - 2 * math.pi * bessel_i0_series(B)) < 1e-10


def test_laplace_expansion_strong_coupling():
    B = 50.0
    quad = math.exp(make_xy_kernel(B, 1024)[1])
    rel = abs(quad / laplace_normalization(B) - 1.0)
    assert rel < 1.0 / B**2
    # the residual is the next series coefficient 9/(128 B^2)
    assert 0.04 < rel * B**2 < 0.10


def test_kernel_mass_invariant():
    # every density here is >= 0 with grid mass 1 within 1e-10
    for N in (8, 101, 512):
        for B in (0.0, 2.0, 50.0, 2048.0):
            density, log_z = make_xy_kernel(B, N)
            assert np.all(density >= 0) and math.isfinite(log_z)
            assert abs(float(density.mean()) * 2 * math.pi - 1.0) < 1e-10
    for n in (2, 16, 1024):
        assert abs(chain_vs_heat(n, 1.0, 512)["chain_mass"] - 1.0) < 1e-10


def test_kernel_rejects_nan():
    for B in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="inverse temperature must be non-negative"):
            make_xy_kernel(B, 64)


def test_strong_coupling_kernel_stays_finite():
    # n b = 2048 > 709: exp(B cos) alone overflows a float
    B = 2048.0
    density, log_z = make_xy_kernel(B, 512)
    assert np.all(np.isfinite(density))
    log_laplace = B + 0.5 * math.log(2 * math.pi / B) + math.log1p(1 / (8 * B))
    assert abs(log_z - log_laplace) < 1e-6
    with pytest.raises(OverflowError):
        math.exp(log_z)
    r = chain_vs_heat(1024, 2.0, 512)
    assert math.isfinite(r["sup_distance"]) and math.isfinite(r["l1_distance"])


def test_kernel_power_identity_and_uniform():
    # masses on the grid; times N / (2 pi) they are densities
    density, _ = make_xy_kernel(2.0, 256)
    assert np.max(np.abs(_convolution_power(density, 1) - density / density.sum())) < 1e-16
    assert np.array_equal(_convolution_power(density, 0), np.eye(256)[0])
    u5 = _convolution_power(np.ones(256), 5) * (256 / (2 * math.pi))
    assert np.max(np.abs(u5 - 1.0 / (2 * math.pi))) < 1e-14


def test_kernel_power_semigroup():
    density, _ = make_xy_kernel(4.0, 512)
    a = _convolution_power(_convolution_power(density, 2), 3)
    b = _convolution_power(density, 6)
    assert np.max(np.abs(a - b)) * 512 / (2 * math.pi) < 1e-10


def test_kernel_power_rejects_bad_n():
    # the n-step chain kernel needs an integer n >= 2
    for n in (1, 0, -3, 2.0, 16.5):
        with pytest.raises(ValueError, match="chain length"):
            chain_vs_heat(n, 1.0, 64)


def test_heat_kernel_rejects_bad_args():
    # the heat kernel needs a finite precision b > 0
    for b in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            chain_vs_heat(16, b, 64)


@dataclass(frozen=True)
class FormerCircleKernel:
    """The density-and-log-normalization object the chain kernels used to be."""

    values: np.ndarray
    log_normalization: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        assert np.all(v >= -1e-12) and abs(float(v.mean()) * 2 * math.pi - 1.0) <= 1e-10
        assert math.isfinite(self.log_normalization)


def former_chain_vs_heat(n, b, N):
    """The former class-based chain_vs_heat: make_xy_kernel, kernel_power and
    heat_kernel_circle on FormerCircleKernel, then its distance methods."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need chain length n >= 2, got {n}")
    B = n * b
    if not B >= 0:
        raise ValueError(f"inverse temperature must be non-negative, got {B}")
    g = edge_weight("xy", circle_grid(N), B)
    Z = float(g.sum()) * 2 * math.pi / N
    one = FormerCircleKernel(values=g / Z, log_normalization=B + math.log(Z))
    top = abs(np.fft.rfft(one.values)[-1] / one.values.sum()) ** n
    if not top <= 1e-9:
        raise NumericalError(f"grid size {N} does not resolve the {n}-step kernel")
    stepped = FormerCircleKernel(values=_convolution_power(one.values, n) * (N / (2 * math.pi)),
                                 log_normalization=one.log_normalization)
    t = 1.0
    if not t > 0 or not b > 0:
        raise ValueError("heat kernel needs t > 0 and b > 0")
    vals = np.asarray(periodized_gaussian(circle_grid(N), b / t))
    Zh = float(vals.sum()) * 2 * math.pi / N
    heat = FormerCircleKernel(values=vals / Zh, log_normalization=math.log(Zh))
    return {"n": n, "b": b, "N": N,
            "sup_distance": float(np.max(np.abs(stepped.values - heat.values))),
            "l1_distance": float(np.sum(np.abs(stepped.values - heat.values))) * 2 * math.pi / N,
            "chain_mass": float(stepped.values.mean()) * 2 * math.pi}


def test_chain_vs_heat_matches_the_former_kernels():
    cases = [(n, b, N) for n in (2, 3, 16, 64, 257, 1024) for b in (0.25, 1.0, 2.0, 8.0, 50.0)
             for N in (2, 3, 16, 128, 512, 1000)]
    accepted = 0
    for case in cases:
        try:
            want = former_chain_vs_heat(*case)
        except NumericalError:
            with pytest.raises(NumericalError, match=f"grid size {case[2]} does not resolve"):
                chain_vs_heat(*case)
            continue
        got = chain_vs_heat(*case)
        for key in ("sup_distance", "l1_distance", "chain_mass"):
            assert got[key].hex() == want[key].hex(), (case, key)
        accepted += 1
    assert accepted >= 30


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


def test_dirichlet_ratio_refuses_an_underflowed_end_row():
    # B = 51200 on 8 points: the shifted end row exp(B (cos(theta - 0.3) - 1))
    # underflows at every grid point, so its mass is 0; the grid check on the
    # unshifted row refuses before any 0 / 0
    with pytest.raises(NumericalError, match="grid size 8 does not resolve the 1024-step "
                                             "kernel: its top Fourier mode holds 1 of its mass"):
        dirichlet_ratio(1024, 50.0, (0.3, 1.0), (0.0, 0.0), 8)


def test_dirichlet_ratio_validates_angles():
    with pytest.raises(ValueError, match="outside"):
        dirichlet_ratio(8, 1.0, (4.0, 0.0), (0.0, 0.0), 128)


@pytest.mark.parametrize("n, b, N, message", [
    (1, 1.0, 0, "grid size"),
    (1, math.inf, 64, "n b = inf must be finite"),
    (2, 1e308, 64, "n b = inf must be finite"),
    (1, 1e-12, 64, "periodized Gaussian with J = 1e-12 needs about"),
    (0, 1.0, 512, "chain length must be a positive integer, got 0"),
    (1, 0.0, 512, "coupling b must be positive, got 0.0"),
], ids=["one-edge-empty-grid", "infinite-b", "n-b-overflows", "tiny-b", "no-edge", "zero-b"])
def test_dirichlet_ratio_refuses_bad_input(n, b, N, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dirichlet_ratio(n, b, (0.0, math.pi / 2), (0.0, 0.0), N)


def test_dirichlet_ratio_refuses_a_non_finite_coupling():
    # b = inf, or n b past the float range, is refused before any weight is formed
    for n, b in ((1, math.inf), (16, math.inf), (2, 1e308), (4096, 1e306)):
        with pytest.raises(ValueError, match=r"B_n = n b = inf must be finite"):
            dirichlet_ratio(n, b, (0.0, 1.0), (0.0, 0.0), 64)


def test_fft_grid_convolution_has_no_phase_offset():
    # convolving a narrow symmetric kernel with itself must stay centred at 0
    density, _ = make_xy_kernel(30.0, 256)
    twice = _convolution_power(density, 2)
    assert abs(circle_grid(256)[int(np.argmax(twice))]) < 1e-12
