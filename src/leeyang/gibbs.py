"""Exact Gibbs laws of S = sum_v lam_v cos(Theta_v) on small graphs.

Two angular spin models are supported on a :class:`~leeyang.graphs.FiniteGraph`;
every edge weight in the package (here and in :mod:`leeyang.chain`) is
:func:`edge_weight`:

* ``xy``      -- exp(B * J_e * (cos(theta_u - theta_v) - 1)) <= 1, B = 1/T: the
  factor e^{B J_e} cancels in every normalised law, so no coupling overflows,
* ``villain`` -- V(theta_u - theta_v; J_e), the periodized
  Gaussian sum_m exp(-(J_e/2)(theta + 2 pi m)^2).

At strong coupling most weights underflow to 0, in the product of edge weights
or when the law is normalised; those atoms carry no mass and are dropped.

Angles live on a uniform N-point grid of (-pi, pi]; with smooth periodic
integrands the trapezoid rule (uniform weights) is spectrally accurate, so
the law of S computed at grid size N and 2N agrees to near machine precision
for the coupling strengths used at desk scale.

The result type :class:`DiscretizedDistribution` is the universal input for
the zero-location and classification machinery: a finite symmetric atomic
measure {(x_j, w_j)} with unit total mass.

All functions here are pure; distributions are immutable once built.  The
tensor-grid evaluation sorts the chunk-independent part of S once and reduces
one chunk per mirror pair of angles (theta, -theta) in a fixed order, so
outputs are bit-stable for a given grid size.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .graphs import FiniteGraph

COALESCE_TOL = 1e-12
DEFAULT_GRID = 128
DEFAULT_EVAL_BUDGET = 10**8
PERIODIZED_GAUSSIAN_TOL = 1e-16
TOP_MODE_TOL = 1e-9  # most of its mass an n-step kernel may keep in the top grid mode

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Reduce an angle to (-pi, pi]."""
    t = np.mod(np.asarray(theta, dtype=float) + math.pi, _TWO_PI) - math.pi
    return np.where(t == -math.pi, math.pi, t)


def circle_grid(N: int) -> np.ndarray:
    """Angles 2 pi j / N (j = 0..N-1) wrapped to (-pi, pi], in FFT order.

    Index (i - j) mod N holds theta_i - theta_j, so index-space circular
    convolution of samples on this grid is exactly function convolution on
    the circle, with no phase offset.
    """
    if not (isinstance(N, numbers.Integral) and N > 0):
        raise ValueError(f"grid size must be a positive integer, got {N!r}")
    return wrap_angle(_TWO_PI * np.arange(N) / N)


def periodized_gaussian(theta, J: float):
    """Periodized Gaussian edge weight sum_m exp(-(J/2)(theta + 2 pi m)^2).

    ``theta`` is reduced to (-pi, pi] first, which makes the 2-pi periodicity
    exact.  Images m = 0, +-1, +-2, ... are added outward until the first
    omitted pair is below PERIODIZED_GAUSSIAN_TOL times the accumulated sum.
    Vectorises over ``theta``.
    """
    if not J > 0:
        raise ValueError(f"periodized Gaussian needs J > 0, got {J}")
    t = wrap_angle(theta)
    total = np.exp(-0.5 * J * t * t)
    m = 1
    while True:
        term = np.exp(-0.5 * J * (t + _TWO_PI * m) ** 2) + np.exp(-0.5 * J * (t - _TWO_PI * m) ** 2)
        new_total = total + term
        if np.all(term <= PERIODIZED_GAUSSIAN_TOL * new_total):
            total = new_total
            break
        total = new_total
        m += 1
        if m > 10**6:  # pragma: no cover - unreachable for J > 0
            raise RuntimeError("periodized Gaussian failed to converge")
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(total)
    return total


def edge_weight(kind: str, dtheta, J: float, B: float):
    """Gibbs weight of an edge with coupling J across the angle difference dtheta.

    ``xy`` gives exp(B J (cos(dtheta) - 1)) <= 1, the XY weight exp(B J cos)
    divided by e^{B J}; ``villain`` gives ``periodized_gaussian(dtheta, J)``
    and ignores B.  Vectorises over ``dtheta``.
    """
    if kind == "xy":
        return np.exp(B * J * (np.cos(dtheta) - 1.0))
    if kind == "villain":
        return periodized_gaussian(dtheta, J)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which Gibbs measure to build on which graph.

    ``kind`` is 'xy' or 'villain'.  ``inverse_temperature`` is the XY
    parameter B = 1/T (multiplying J_e in the edge weight); the Villain model
    ignores it since its couplings live on the graph.  ``boundary`` is either
    'free' or a mapping vertex -> pinned angle in (-pi, pi].
    """

    kind: str
    graph: FiniteGraph
    inverse_temperature: float = 1.0
    boundary: dict[str, float] | None = None

    def __post_init__(self):
        if self.kind not in ("xy", "villain"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.inverse_temperature > 0:
            raise ValueError("inverse temperature must be positive")
        if self.boundary:
            for v, ang in self.boundary.items():
                if v not in self.graph.vertices:
                    raise ValueError(f"pinned boundary on vertex {v!r} not in the graph")
                if not (-math.pi < ang <= math.pi):
                    raise ValueError(f"pinned angle {ang} for {v!r} outside (-pi, pi]")


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """Start indices of the runs of the sorted ``xs``: a run ends at a gap above COALESCE_TOL."""
    return np.concatenate(([0], np.nonzero(np.diff(xs) > COALESCE_TOL)[0] + 1))


def _merge_runs(xs: np.ndarray, ws: np.ndarray, starts: np.ndarray):
    """One atom per run of the sorted ``xs``: the run's total weight at its
    weighted-mean position; runs of total weight 0 (underflowed) carry no
    mass and are dropped."""
    out_w = np.add.reduceat(ws, starts)
    keep = out_w > 0
    out_w = out_w[keep]
    out_x = np.add.reduceat(xs * ws, starts)[keep] / out_w
    return out_x, out_w


def _coalesce(xs: np.ndarray, ws: np.ndarray):
    """Merge atoms whose positions differ by at most COALESCE_TOL (weights added)."""
    if len(xs) == 0:
        return xs, ws
    order = np.argsort(xs)  # a tie only reorders the sum of one run's weights
    xs = xs[order]
    return _merge_runs(xs, ws[order], _run_starts(xs))


@dataclass(frozen=True)
class DiscretizedDistribution:
    """Finite atomic measure {(x_j, w_j)} with unit mass, sorted by position.

    ``grid_size`` records the angular grid N that produced it (None for
    synthetic sources); ``symmetrized`` flags exact closure under x -> -x.
    """

    xs: np.ndarray = field(compare=False)
    ws: np.ndarray = field(compare=False)
    grid_size: int | None = None
    symmetrized: bool = False

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ws = np.asarray(self.ws, dtype=float)
        if xs.shape != ws.shape or xs.ndim != 1:
            raise ValueError("atom positions and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(xs)):
            raise ValueError("atom positions must be finite")
        if not np.all((ws > 0) & np.isfinite(ws)):
            raise ValueError("atom weights must be positive and finite")
        if np.any(xs[1:] < xs[:-1]):  # atoms read from a file come in any order
            order = np.argsort(xs, kind="stable")
            xs, ws = xs[order], ws[order]
        if not abs(ws.sum() - 1.0) <= 1e-12:
            raise ValueError(f"atom weights sum to {ws.sum()!r}, not 1 within 1e-12")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)
        if self.symmetrized and not self.is_symmetric():
            raise ValueError("symmetrized distribution is not closed under x -> -x")

    @property
    def variance(self) -> float:
        return float(np.dot(self.ws, self.xs**2))

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.xs))) if len(self.xs) else 0.0

    def is_symmetric(self) -> bool:
        """True iff the atoms are a bitwise mirror (as :func:`_finish_law` builds) or
        the reflected atom list matches within COALESCE_TOL after coalescing."""
        if np.array_equal(self.xs, -self.xs[::-1]) and np.array_equal(self.ws, self.ws[::-1]):
            return True
        xs, ws = _coalesce(self.xs, self.ws)
        # the reflection of a coalesced list is sorted with every gap > COALESCE_TOL,
        # so coalescing it again would return it unchanged
        rx, rw = -xs[::-1], ws[::-1]
        return bool(np.all(np.abs(rx - xs) <= COALESCE_TOL)
                    and np.all(np.abs(rw - ws) <= COALESCE_TOL))

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at x (vectorised)."""
        cum = np.cumsum(self.ws)
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["x", "w"])
        for x, wt in zip(self.xs, self.ws):
            w.writerow([repr(float(x)), repr(float(wt))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, grid_size=None, symmetrized=False):
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        rows = list(csv.reader(lines))
        body = rows[1:] if rows and rows[0][:1] == ["x"] else rows
        if any(len(r) < 2 for r in body):
            raise ValueError(f"law CSV row {','.join(min(body, key=len))!r}: not an x,w pair")
        xs = np.array([float(r[0]) for r in body])
        ws = np.array([float(r[1]) for r in body])
        return cls(xs, ws, grid_size=grid_size, symmetrized=symmetrized)


def _finish_law(xs: np.ndarray, ws: np.ndarray, grid_size, symmetrize: bool) -> DiscretizedDistribution:
    """The law of raw atoms, coalesced once and normalised to unit mass.

    Atoms whose weight underflows to 0 when normalised carry no mass and are
    dropped.  A symmetrised law averages the measure with its reflection: the
    atoms are folded onto |x| before the coalesce and mirrored after it, so
    paired atoms have bitwise opposite positions and identical weights, and
    an atom within COALESCE_TOL of 0 sits at exactly 0.
    """
    xs, ws = _coalesce(np.abs(xs) if symmetrize else xs, ws)
    total = ws.sum()
    if not total > 0:
        raise NumericalError(f"atom weights sum to {total!r}; every configuration's "
                             "weight underflowed")
    ws = ws / total
    xs, ws = xs[ws > 0], ws[ws > 0]
    if symmetrize:
        n0 = int(xs[0] <= COALESCE_TOL)  # the atom at 0 is its own mirror
        pos, half = xs[n0:], ws[n0:] / 2.0
        xs = np.concatenate([-pos[::-1], np.zeros(n0), pos])
        ws = np.concatenate([half[::-1], ws[:n0], half])
    return DiscretizedDistribution(xs, ws, grid_size=grid_size, symmetrized=symmetrize)


def distribution_from_atoms(atoms, grid_size=None, symmetrize: bool = False) -> DiscretizedDistribution:
    """Build a distribution from raw (x, w) pairs: coalesce, normalise, optionally symmetrise."""
    arr = np.asarray(list(atoms), dtype=float)
    return _finish_law(arr[:, 0], arr[:, 1], grid_size, symmetrize)


def kolmogorov_distance(p: DiscretizedDistribution, q: DiscretizedDistribution) -> float:
    """Exact sup-distance between the CDFs of two atomic laws."""
    pts = np.union1d(p.xs, q.xs)
    return float(np.max(np.abs(p.cdf(pts) - q.cdf(pts))))


def _check_grid(N) -> None:
    if not (isinstance(N, numbers.Integral) and N > 0 and N % 2 == 0):
        raise ValueError(f"grid size must be a positive even integer, got {N!r}")


def _restrict(axes: tuple, table: np.ndarray, i0: int, nd: int) -> np.ndarray:
    """A factor over the ascending free axes ``axes``, with axis 0 fixed at
    index i0 and shaped to broadcast over the remaining axes 1..nd."""
    if axes and axes[0] == 0:
        axes, table = axes[1:], table[i0]
    shape = [1] * nd
    for k, ax in enumerate(axes):
        shape[ax - 1] = table.shape[k]
    return table.reshape(shape)


def observable_distribution(model: ModelSpec, N: int = DEFAULT_GRID, *,
                            budget: int = DEFAULT_EVAL_BUDGET,
                            symmetrize: bool = True) -> DiscretizedDistribution:
    """Exact law of S = sum_v lam_v cos(Theta_v) by tensor-grid quadrature.

    Every free vertex ranges over the N-point grid; the Gibbs density is the
    product of edge weights, and uniform (trapezoid) quadrature weights apply
    on the periodic grid.  The exact law of S is symmetric for free boundary
    (the global shift theta -> theta + pi flips every cosine and preserves
    every edge weight), and the output is symmetrised by averaging with its
    reflection so downstream symmetry checks pass at 1e-12 exactly.

    The tensor grid is summed in chunks that fix the first free angle.  The
    rest of S does not depend on it, so it is sorted and cut into
    ``COALESCE_TOL`` runs once, and the factors that do not touch the first
    angle are multiplied once and gathered into that order.  A chunk builds
    only the factors on the first angle, a table over its free neighbours
    (N entries for a path end), gathers it by each sorted point's neighbour
    index, multiplies and sums per run: its atoms come out sorted.  Two grid
    angles theta and -theta share one chunk, whose table is the sum of their
    two restricted tables (never one of them doubled: a pinned neighbour
    makes the density asymmetric in theta), so N/2 + 1 chunks cover the
    grid.

    Refuses when N**(number of free vertices) exceeds ``budget``, and a grid
    size N that is not a positive even integer.
    """
    _check_grid(N)
    G = model.graph
    pinned = dict(model.boundary or {})
    free = [v for v in G.vertices if v not in pinned]
    m = len(free)
    n_evals = N**m
    if n_evals > budget:
        raise BudgetExceededError(
            f"tensor grid needs N^|V| = {N}^{m} = {n_evals} evaluations, over budget {budget}")

    s_pinned = sum(G.weight[v] * math.cos(pinned[v]) for v in G.vertices if v in pinned)
    if m == 0:
        return _finish_law(np.array([s_pinned]), np.array([1.0]), N, symmetrize)

    # The Gibbs density as a list of factors over ascending free axes
    # (Koller & Friedman, ch. 9): the pinned-pinned constant, one vector per
    # free vertex with its pinned-neighbour edges folded in, and one N x N
    # matrix per free-free edge.
    grid = circle_grid(N)
    axis = {v: i for i, v in enumerate(free)}
    B = model.inverse_temperature
    idx = np.arange(N)
    const = 1.0
    node = [np.ones(N) for _ in range(m)]
    pairs = []
    for e in G.edges:
        u, v = e
        J_e = G.coupling[e]
        if u in axis and v in axis:
            a, b = axis[u], axis[v]
            # [i_a, i_b] is the weight at theta_{i_a} - theta_{i_b}
            mat = edge_weight(model.kind, grid, J_e, B)[(idx[:, None] - idx[None, :]) % N]
            pairs.append(((a, b), mat) if a < b else ((b, a), np.ascontiguousarray(mat.T)))
        elif u in axis or v in axis:
            fv, pv = (u, v) if u in axis else (v, u)
            node[axis[fv]] *= edge_weight(model.kind, grid - pinned[pv], J_e, B)
        else:
            const *= edge_weight(model.kind, pinned[u] - pinned[v], J_e, B)
    weights = [((), np.array(const))] + [((ax,), node[ax]) for ax in range(m)] + pairs

    # S = lam cos(theta) on axis 0 plus a rest that no chunk changes: the
    # rest is sorted and cut into runs once, and the factors off axis 0 are
    # multiplied once (``base``).  Every free axis carries a value and a node
    # factor, so both span all N^nd points
    nd = m - 1
    rest = functools.reduce(np.add, (_restrict((axis[v],), G.weight[v] * np.cos(grid), 0, nd)
                                     for v in free[1:]), np.array(s_pinned)).ravel()
    order = np.argsort(rest, kind="stable")
    rest = rest[order]
    starts = _run_starts(rest)
    x0 = G.weight[free[0]] * np.cos(grid)
    on0 = [(ax, t) for ax, t in weights if ax[:1] == (0,)]
    base = functools.reduce(np.multiply, (_restrict(ax, t, 0, nd) for ax, t in weights
                                          if ax[:1] != (0,))).ravel()[order]
    # t_idx: each sorted rest point's flat index over axis 0's free neighbours
    t_idx = 0
    for b in sorted({ax[1] for ax, _ in on0 if len(ax) == 2}):
        t_idx = t_idx * N + order // N ** (nd - b) % N

    def table(i0):
        # the factors on axis 0 at grid index i0, multiplied in list order:
        # a table over axis 0's free neighbours
        return functools.reduce(np.multiply, (_restrict(ax, t, i0, nd) for ax, t in on0))

    # indices j and -j (mod N) carry the angles theta and -theta: one chunk
    # sums the pair's tables in index order (0 and pi are their own mirrors)
    xs, ws = [], []
    for j in range(N // 2 + 1):
        u = functools.reduce(np.add, (table(i) for i in sorted({j, -j % N})))
        cx, cw = _merge_runs(rest, u.ravel()[t_idx] * base, starts)
        xs.append(x0[j] + cx)
        ws.append(cw)
    return _finish_law(np.concatenate(xs), np.concatenate(ws), N, symmetrize)


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


def _require_resolved(top: complex, n: int, N: int) -> None:
    """NumericalError naming N unless |top| <= TOP_MODE_TOL, for ``top`` the top grid
    mode of an n-step chain kernel over its mass (here and in :mod:`leeyang.chain`)."""
    if not abs(top) <= TOP_MODE_TOL:
        raise NumericalError(f"grid size {N} does not resolve the {n}-step kernel: its top "
                             f"Fourier mode holds {abs(top):.3g} of its mass "
                             f"(limit {TOP_MODE_TOL:g})")


def transfer_chain_distribution(n: int, B: float, lam_ends=(1.0, 1.0),
                                N: int = DEFAULT_GRID, *,
                                symmetrize: bool = True) -> DiscretizedDistribution:
    """Law of lam0 cos(theta_0) + lam1 cos(theta_n) for the n-edge XY chain.

    The chain has unit couplings and inverse temperature B; theta_0 is uniform
    and the one-step transition density on the grid is the row-normalised
    circulant of the XY :func:`edge_weight` with J = 1.  The n-step kernel is
    its n-fold circle convolution power (:func:`_convolution_power`), which
    agrees with n repeated kernel applications to machine precision, on a
    grid that resolves it (:func:`_require_resolved`, else NumericalError).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"chain length must be a positive integer, got {n}")
    _check_grid(N)
    cosg = np.cos(circle_grid(N))
    row = edge_weight("xy", circle_grid(N), 1.0, B)
    _require_resolved((np.fft.rfft(row)[-1] / row.sum()) ** n, n, N)
    pn = _convolution_power(row, n)

    lam0, lam1 = float(lam_ends[0]), float(lam_ends[1])
    # value over (start index i, step d): lam0 cos theta_i + lam1 cos theta_{i+d}
    vals = lam0 * cosg[:, None] + lam1 * cosg[(np.arange(N)[:, None] + np.arange(N)[None, :]) % N]
    wts = np.broadcast_to(pn[None, :] / N, (N, N))
    return _finish_law(vals.ravel(), wts.ravel(), N, symmetrize)


def discretized_gaussian(sigma: float = 1.0, *, half_width: float = 12.0,
                         n_atoms: int = 1201) -> DiscretizedDistribution:
    """Symmetric grid discretization of N(0, sigma^2), truncated at half_width sigma."""
    if n_atoms % 2 == 0:
        n_atoms += 1
    xs = np.linspace(-half_width * sigma, half_width * sigma, n_atoms)
    ws = np.exp(-0.5 * (xs / sigma) ** 2)
    return _finish_law(xs, ws / ws.sum(), None, True)


def rademacher(scale: float = 1.0) -> DiscretizedDistribution:
    """The two-atom law (+-scale, 1/2 each)."""
    return DiscretizedDistribution(np.array([-scale, scale]), np.array([0.5, 0.5]),
                                   symmetrized=True)
