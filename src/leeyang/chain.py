"""Scaling limit of the one-dimensional XY chain kernel.

The n-edge XY chain at inverse temperature B_n = n b has one-step transition
density K(theta, theta') = exp(B_n cos(theta' - theta)) / integral, and its
n-step kernel converges to the periodized heat kernel on the circle with
variance parameter 1/b.  This module builds both kernels on a uniform grid
and measures the distance; it also computes the pinned-end partition-function
ratio whose limit is a ratio of periodized Gaussians with precision b.

Every chain here is one circle convolution power,
:func:`leeyang.gibbs._convolution_power`, of XY rows, and every row is the
XY :func:`leeyang.gibbs.edge_weight` with J = 1, exp(B (cos - 1)) <= 1, so no
coupling overflows.  Kernels are probability densities on (-pi, pi]: values
>= 0 on the grid and mean value times 2 pi equal to 1 within 1e-10 under
every operation here; NaN fails both checks.
Each (n, b) computation is deterministic and independent, so parameter grids
parallelise trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gibbs import _TWO_PI, _convolution_power, circle_grid, edge_weight, periodized_gaussian

DEFAULT_CHAIN_GRID = 512


@dataclass(frozen=True)
class CircleKernel:
    """Density samples on the uniform N-grid of (-pi, pi].

    ``log_normalization`` stores the log of the quadrature value of the
    defining integral before the density was normalised (e.g. the integral
    of exp(B cos) for the one-step XY kernel, which overflows a float once
    B > 709).
    """

    values: np.ndarray
    log_normalization: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(v >= -1e-12):
            raise ValueError(f"kernel has negative or NaN density {np.min(v):.3e}")
        mass = float(v.mean()) * _TWO_PI
        if not abs(mass - 1.0) <= 1e-10:
            raise ValueError(f"kernel mass {mass!r} differs from 1 beyond 1e-10")
        if not math.isfinite(self.log_normalization):
            raise ValueError(f"log normalization {self.log_normalization!r} is not finite")

    @property
    def normalization(self) -> float:
        """The defining integral; OverflowError past the float range."""
        return math.exp(self.log_normalization)

    @property
    def N(self) -> int:
        return len(self.values)

    @property
    def grid(self) -> np.ndarray:
        """Angles of the stored samples (FFT order, wrapped to (-pi, pi])."""
        return circle_grid(self.N)

    def mass(self) -> float:
        return float(self.values.mean()) * _TWO_PI

    def sup_distance(self, other: "CircleKernel") -> float:
        return float(np.max(np.abs(self.values - other.values)))

    def l1_distance(self, other: "CircleKernel") -> float:
        return float(np.sum(np.abs(self.values - other.values))) * _TWO_PI / self.N


def make_xy_kernel(B: float, N: int = DEFAULT_CHAIN_GRID) -> CircleKernel:
    """One-step XY transition density exp(B cos(dtheta)) / integral.

    The stored normalization is the grid quadrature of the integral of
    exp(B cos phi) over the circle, spectrally accurate in N, kept as
    B + log of the integral of exp(B (cos phi - 1)) so that it never
    overflows; at B = 0 the kernel is uniform 1/(2 pi).
    """
    if not B >= 0:
        raise ValueError(f"inverse temperature must be non-negative, got {B}")
    g = edge_weight("xy", circle_grid(N), 1.0, B)
    Z = float(g.sum()) * _TWO_PI / N
    return CircleKernel(values=g / Z, log_normalization=B + math.log(Z))


def kernel_power(k: CircleKernel, n: int) -> CircleKernel:
    """n-fold cyclic self-convolution, computed spectrally.

    The n-step law is the circle convolution power of the single-step mass
    vector (:func:`leeyang.gibbs._convolution_power`, which raises
    NumericalError if the transform loses positivity); the output is
    renormalised and keeps the single-step normalization.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n}")
    if n == 1:
        return CircleKernel(values=k.values.copy(), log_normalization=k.log_normalization)
    return CircleKernel(values=_convolution_power(k.values, n) * (k.N / _TWO_PI),
                        log_normalization=k.log_normalization)


def heat_kernel_circle(t: float, b: float, N: int = DEFAULT_CHAIN_GRID) -> CircleKernel:
    """Periodized Gaussian density on the circle with variance parameter t/b.

    The wrapped Gaussian sum_m exp(-b (theta + 2 pi m)^2 / (2 t)) is the
    periodized Gaussian with J = b/t; it is normalised here to unit mass on
    the grid (a probability density).
    """
    if not t > 0 or not b > 0:
        raise ValueError("heat kernel needs t > 0 and b > 0")
    vals = np.asarray(periodized_gaussian(circle_grid(N), b / t))
    Z = float(vals.sum()) * _TWO_PI / N
    return CircleKernel(values=vals / Z, log_normalization=math.log(Z))


def chain_vs_heat(n: int, b: float, N: int = DEFAULT_CHAIN_GRID) -> dict:
    """Distance between the n-step chain kernel at B_n = n b and the heat kernel.

    Returns sup and L1 distances at time t = 1; both shrink like 1/n.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need chain length n >= 2, got {n}")
    stepped = kernel_power(make_xy_kernel(n * b, N), n)
    heat = heat_kernel_circle(1.0, b, N)
    return {
        "n": n, "b": b, "N": N,
        "sup_distance": stepped.sup_distance(heat),
        "l1_distance": stepped.l1_distance(heat),
        "chain_mass": stepped.mass(),
    }


def dirichlet_ratio(n: int, b: float, pair, pair_ref, N: int = DEFAULT_CHAIN_GRID) -> dict:
    """Pinned-end partition-function ratio Z_n(pair) / Z_n(pair_ref).

    Both ends of the n-edge chain (B_n = n b) are pinned and the n - 1
    interior angles run over the N-grid.  With edge weight
    w(d) = exp(B_n (cos d - 1)) <= 1 (the factor e^{n B_n} cancels in the
    ratio) and q the (n - 2)-fold circle convolution power of w on the grid,
    Z_n(th0, th1) is proportional to the partial sum
    sum_j w(th1 - theta_j) (w(. - th0) * q)_j.  One q serves both pairs and
    its normalisation cancels, so the cost is a few FFTs of length N.  FFT
    rounding is absolute, so a partial sum below 1e6 n eps times its scale
    (a deep tail, e.g. b >= 4 with angle differences near pi) raises
    NumericalError instead of giving a ratio off by more than about 1e-6
    relative.  The limiting value is the ratio of periodized Gaussians with
    precision b (the heat kernel of :func:`heat_kernel_circle` at t = 1) at
    the two angle differences, returned alongside.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"chain length must be a positive integer, got {n}")
    if not b > 0:
        raise ValueError(f"coupling b must be positive, got {b}")
    for th in (*pair, *pair_ref):
        if not (-math.pi < th <= math.pi):
            raise ValueError(f"pinned angle {th} outside (-pi, pi]")
    B = n * b
    grid = circle_grid(N)  # the n = 1 ratio needs no grid, but N is checked for every n
    if n == 1:
        ratio = math.exp(B * (math.cos(pair[1] - pair[0]) - math.cos(pair_ref[1] - pair_ref[0])))
    else:
        q_hat = np.fft.rfft(_convolution_power(edge_weight("xy", grid, 1.0, B), n - 2))

        def partial_sum(th0: float, th1: float) -> float:
            first = np.fft.rfft(edge_weight("xy", grid - th0, 1.0, B))
            inner = np.fft.irfft(first * q_hat, N)
            last = edge_weight("xy", th1 - grid, 1.0, B)
            s = float(last @ inner)
            # the FFTs leave rounding noise of about 0.2 n eps times this scale
            # in s (measured for n <= 4096, N <= 2048)
            if not s >= 1e6 * n * np.finfo(float).eps * float(last.sum() * inner.max()):
                raise NumericalError(f"pinned-end sum {s:.3e} for ({th0}, {th1}) is below "
                                     "the FFT resolution; the ratio would be noise")
            return s

        ratio = partial_sum(*pair) / partial_sum(*pair_ref)
    limit = (periodized_gaussian(pair[1] - pair[0], b)
             / periodized_gaussian(pair_ref[1] - pair_ref[0], b))
    return {"n": n, "b": b, "N": N, "ratio": ratio, "limit_ratio": limit,
            "gap": abs(ratio - limit)}


def laplace_normalization(B: float) -> float:
    """Two-term steepest-descent value e^B sqrt(2 pi / B) (1 + 1/(8B)) of the
    circle integral of exp(B cos phi), for strong-coupling cross-checks."""
    if not B > 0:
        raise ValueError("need B > 0")
    return math.exp(B) * math.sqrt(_TWO_PI / B) * (1.0 + 1.0 / (8.0 * B))
