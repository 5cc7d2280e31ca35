"""Scaling limit of the one-dimensional XY chain kernel.

The n-edge XY chain at inverse temperature B_n = n b has one-step transition
density K(theta, theta') = exp(B_n cos(theta' - theta)) / integral, and its
n-step kernel converges to the periodized heat kernel on the circle with
variance parameter 1/b.  This module samples both kernels as numpy rows on
:func:`leeyang.gibbs.circle_grid` and measures the distance; it also computes
the pinned-end partition-function ratio whose limit is a ratio of periodized
Gaussians with precision b.

Every chain here is one circle convolution power, :func:`_convolution_power`,
of rows of the XY :func:`leeyang.gibbs.edge_weight` with J = 1,
exp(B (cos - 1)) <= 1, so no coupling overflows.  Each call checks the grid
once: |r_{N/2} / r_0|^n, for r the transform of the unshifted XY row, is the
share of the n-step kernel's mass in the top grid mode.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .gibbs import _TWO_PI, _require_resolved, circle_grid, edge_weight, periodized_gaussian

DEFAULT_CHAIN_GRID = 512


def _convolution_power(row: np.ndarray, n: int) -> np.ndarray:
    """n-fold cyclic self-convolution of the nonnegative ``row``, as unit-sum masses.

    The row is normalised to unit sum and its discrete Fourier transform is
    raised to the n-th power: O(N log N) instead of n circulant matvecs, and
    n = 0 gives the point mass at index 0.  The exact result is nonnegative,
    so a value below -1e-12 (or NaN) means the transform lost it and raises
    NumericalError; the rest is clamped at 0 and renormalised.
    """
    N = len(row)
    pn = np.fft.irfft(np.fft.rfft(row / row.sum()) ** n, N)
    if not np.all(pn >= -1e-12):
        raise NumericalError(f"{n}-fold circle convolution went negative or NaN "
                             f"(min {np.min(pn):.3e}); grid size {N} too small")
    pn = np.maximum(pn, 0.0)
    return pn / pn.sum()


def make_xy_kernel(B: float, N: int = DEFAULT_CHAIN_GRID) -> tuple[np.ndarray, float]:
    """One-step XY transition density exp(B cos(dtheta)) / integral on the N-grid,
    and the log of the integral.

    The integral is the grid quadrature of exp(B cos phi), spectrally accurate
    in N, returned as B + log of the integral of exp(B (cos phi - 1)), since
    it overflows a float once B > 709; at B = 0 the density is 1/(2 pi).
    """
    if not 0 <= B < math.inf:
        raise ValueError(f"inverse temperature must be non-negative and finite, got {B}")
    g = edge_weight("xy", circle_grid(N), 1.0, B)
    Z = float(g.sum()) * _TWO_PI / N
    return g / Z, B + math.log(Z)


def chain_vs_heat(n: int, b: float, N: int = DEFAULT_CHAIN_GRID) -> dict:
    """Distance between the n-step chain kernel at B_n = n b and the heat kernel.

    The heat kernel at time t = 1 is the periodized Gaussian with precision b,
    normalised to unit mass on the grid.  Returns the sup and L1 distances,
    which shrink like 1/n, and the chain's grid mass.  A grid whose top
    Fourier mode holds more than TOP_MODE_TOL = 1e-9 of the n-step kernel's
    mass raises NumericalError.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need chain length n >= 2, got {n}")
    one, _ = make_xy_kernel(n * b, N)
    _require_resolved(abs(np.fft.rfft(one)[-1] / one.sum()) ** n, n, N)
    if not b > 0:
        raise ValueError(f"heat kernel needs b > 0, got {b}")
    stepped = _convolution_power(one, n) * (N / _TWO_PI)
    heat = periodized_gaussian(circle_grid(N), b)
    gap = np.abs(stepped - heat / (float(heat.sum()) * _TWO_PI / N))
    return {
        "n": n, "b": b, "N": N,
        "sup_distance": float(np.max(gap)),
        "l1_distance": float(np.sum(gap)) * _TWO_PI / N,
        "chain_mass": float(stepped.mean()) * _TWO_PI,
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
    relative.  The limit, returned alongside, is the ratio of periodized
    Gaussians with precision b at the two angle differences.  For n >= 2 the
    grid check of :func:`chain_vs_heat` applies.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"chain length must be a positive integer, got {n}")
    if not b > 0:
        raise ValueError(f"coupling b must be positive, got {b}")
    B = n * b
    if not math.isfinite(B):
        raise ValueError(f"coupling b = {b} and B_n = n b = {B} must be finite")
    for th in (*pair, *pair_ref):
        if not (-math.pi < th <= math.pi):
            raise ValueError(f"pinned angle {th} outside (-pi, pi]")
    grid = circle_grid(N)  # the n = 1 ratio needs no grid, but N is checked for every n
    if n == 1:
        ratio = math.exp(B * (math.cos(pair[1] - pair[0]) - math.cos(pair_ref[1] - pair_ref[0])))
    else:
        row = edge_weight("xy", grid, 1.0, B)
        q_hat = np.fft.rfft(_convolution_power(row, n - 2))
        _require_resolved(abs(np.fft.rfft(row)[-1] / row.sum()) ** n, n, N)

        def partial_sum(th0: float, th1: float) -> float:
            inner = np.fft.irfft(np.fft.rfft(edge_weight("xy", grid - th0, 1.0, B)) * q_hat, N)
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
