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
the zero-location and classification machinery: a finite atomic measure
{(x_j, w_j)} with unit total mass, symmetric when symmetrised (the default of
:func:`observable_distribution`).

All functions here are pure; distributions are immutable once built.  The
tensor-grid evaluation sorts the chunk-independent part of S once and reduces
one chunk per mirror pair of angles (theta, -theta) in a fixed order, so
outputs are bit-stable for a given grid size.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import math
import numbers
from dataclasses import dataclass

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
    A J whose images fall below that tolerance only past 10^6 of them, and an
    angle that is not finite, raise ValueError.
    Vectorises over ``theta``.
    """
    if not 0 < J < math.inf:
        raise ValueError(f"periodized Gaussian needs a finite J > 0, got {J}")
    images = (math.sqrt(2.0 * math.log(1.0 / PERIODIZED_GAUSSIAN_TOL) / J) + math.pi) / _TWO_PI + 1
    if images > 10**6:
        raise ValueError(f"periodized Gaussian with J = {J} needs about {images:.3g} "
                         "images, over the cap 1e6")
    t = wrap_angle(theta)
    if np.isnan(t).any():
        raise ValueError("periodized Gaussian of an angle that is not finite")
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


@dataclass(frozen=True, eq=False)
class DiscretizedDistribution:
    """Finite atomic measure {(x_j, w_j)} with unit mass, sorted by position.

    Whether it is symmetric is read from the atoms (:meth:`is_symmetric`).
    """

    xs: np.ndarray
    ws: np.ndarray

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

    @property
    def variance(self) -> float:
        return float(np.dot(self.ws, self.xs**2))

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.xs))) if len(self.xs) else 0.0

    def is_mirror(self) -> bool:
        """True iff the atoms are a bitwise mirror, as :func:`_finish_law` builds them."""
        return np.array_equal(self.xs, -self.xs[::-1]) and np.array_equal(self.ws, self.ws[::-1])

    def is_symmetric(self) -> bool:
        """True iff :meth:`is_mirror` or the reflected atom list matches within
        COALESCE_TOL after coalescing."""
        if self.is_mirror():
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
    def from_csv(cls, text: str):
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        rows = list(csv.reader(lines))
        body = rows[1:] if rows and rows[0][:1] == ["x"] else rows
        if any(len(r) < 2 for r in body):
            raise ValueError(f"law CSV row {','.join(min(body, key=len))!r}: not an x,w pair")
        xs = np.array([float(r[0]) for r in body])
        ws = np.array([float(r[1]) for r in body])
        return cls(xs, ws)


def _finish_law(xs: np.ndarray, ws: np.ndarray, symmetrize: bool) -> DiscretizedDistribution:
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
    return DiscretizedDistribution(xs, ws)


def distribution_from_atoms(atoms, symmetrize: bool = False) -> DiscretizedDistribution:
    """Build a distribution from raw (x, w) pairs: coalesce, normalise, optionally symmetrise.

    Anything but a non-empty sequence of pairs or an (n, 2) array raises ValueError."""
    arr = np.asarray(list(atoms), dtype=float)
    if not (arr.ndim == 2 and arr.shape[1] == 2 and len(arr)):
        raise ValueError(f"atoms must be a non-empty sequence of (x, w) pairs, "
                         f"got shape {arr.shape}")
    return _finish_law(arr[:, 0], arr[:, 1], symmetrize)


def kolmogorov_distance(p: DiscretizedDistribution, q: DiscretizedDistribution) -> float:
    """Exact sup-distance between the CDFs of two atomic laws."""
    pts = np.union1d(p.xs, q.xs)
    return float(np.max(np.abs(p.cdf(pts) - q.cdf(pts))))


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
    grid.  A symmetrised free-boundary law needs only N//4 + 1 of them: the
    pi shift maps chunk j onto chunk N/2 - j with S negated, which the fold
    onto |x| cannot tell apart.

    Before that, each free weight-0 vertex whose two edges go to free vertices
    not joined to each other is summed out: its two edge rows over the grid
    index difference convolve exactly into one, so a chain becomes one edge.
    A row for k > 1 edges must pass the k-step kernel check (NumericalError).
    Refuses when N**(free vertices left) exceeds DEFAULT_EVAL_BUDGET (read at
    each call), and a grid size N that is not a positive even integer.
    """
    if not (isinstance(N, numbers.Integral) and N > 0 and N % 2 == 0):
        raise ValueError(f"grid size must be a positive even integer, got {N!r}")
    G = model.graph
    pinned = dict(model.boundary or {})
    grid = circle_grid(N)
    B = model.inverse_temperature
    idx = np.arange(N)
    # free-free edge (u, v) -> (row, k): row[d] is the weight at theta_u - theta_v
    # for the index difference d, summed over the k - 1 vertices it passes
    links = {e: (edge_weight(model.kind, grid, G.coupling[e], B), 1) for e in G.edges
             if e[0] not in pinned and e[1] not in pinned}
    # one N x N gather serves every row; with N^2 over budget no two free
    # vertices fit, so nothing is summed out and the budget check refuses
    diff = (idx[:, None] - idx[None, :]) % N if links and N * N <= DEFAULT_EVAL_BUDGET else None
    free = [v for v in G.vertices if v not in pinned]
    # each free vertex's links, in the order of ``links``, and each vertex's degree in G
    at = {v: [] for v in free}
    for e in links:
        at[e[0]].append(e)
        at[e[1]].append(e)
    degree = collections.Counter(v for e in G.edges for v in e)
    for w in free[:] if diff is not None else ():  # one pass: summing out makes none eligible
        mine = at[w]
        if G.weight[w] != 0 or len(mine) != 2 or degree[w] != 2:
            continue
        # both rows oriented towards w: (a, ra) with ra[d] the weight at theta_a - theta_w
        (a, ra, ka), (b, rb, kb) = [(e[0], *links[e]) if e[1] == w else
                                    (e[1], links[e][0][-idx % N], links[e][1]) for e in mine]
        if (a, b) in links or (b, a) in links:
            continue
        for v, e in zip((a, b), mine):
            del links[e]
            at[v].remove(e)
            at[v].append((a, b))
        row = ra @ rb[diff]  # the sum over theta_w: exact, and nonnegative
        links[(a, b)] = (row / row.sum(), ka + kb)
        free.remove(w)

    m = len(free)
    if N**m > DEFAULT_EVAL_BUDGET:
        raise BudgetExceededError(f"tensor grid needs N^|V| = {N}^{m} = {N**m} evaluations, "
                                  f"over budget {DEFAULT_EVAL_BUDGET}")

    s_pinned = sum(G.weight[v] * math.cos(pinned[v]) for v in G.vertices if v in pinned)
    if m == 0:
        return _finish_law(np.array([s_pinned]), np.array([1.0]), symmetrize)

    # The Gibbs density as a list of factors over ascending free axes
    # (Koller & Friedman, ch. 9): the pinned-pinned constant, one vector per
    # free vertex with its pinned-neighbour edges folded in, and one N x N
    # matrix per free-free row.
    axis = {v: i for i, v in enumerate(free)}
    const = 1.0
    node = [np.ones(N) for _ in range(m)]
    for e in G.edges:
        u, v = e
        if u in pinned and v in pinned:
            const *= edge_weight(model.kind, pinned[u] - pinned[v], G.coupling[e], B)
        elif u in pinned or v in pinned:
            fv, pv = (v, u) if u in pinned else (u, v)
            node[axis[fv]] *= edge_weight(model.kind, grid - pinned[pv], G.coupling[e], B)
    pairs = []
    for (u, v), (row, k) in links.items():
        if k > 1:
            _require_resolved(np.fft.rfft(row)[-1], k, N)
        a, b = axis[u], axis[v]
        # [i_a, i_b] is the weight at theta_{i_a} - theta_{i_b}
        mat = row[diff]
        pairs.append(((a, b), mat) if a < b else ((b, a), np.ascontiguousarray(mat.T)))
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
    # sums the pair's tables in index order (0 and pi are their own mirrors).
    # With no pin, the pi shift (index + N/2 on every free axis) keeps every
    # weight bitwise and negates S, so chunk N/2 - j holds chunk j's atoms
    # reflected; a folded law builds j <= N/4 and doubles all but j = N/4
    half = symmetrize and not pinned
    xs, ws = [], []
    for j in range(N // 4 + 1 if half else N // 2 + 1):
        u = functools.reduce(np.add, (table(i) for i in sorted({j, -j % N})))
        cx, cw = _merge_runs(rest, u.ravel()[t_idx] * base, starts)
        xs.append(x0[j] + cx)
        ws.append(2.0 * cw if half and 4 * j != N else cw)
    return _finish_law(np.concatenate(xs), np.concatenate(ws), symmetrize)


def _require_resolved(top: complex, n: int, N: int) -> None:
    """NumericalError naming N unless |top| <= TOP_MODE_TOL, for ``top`` the top grid
    mode of an n-step chain kernel over its mass: a summed-out chain link here, the
    XY chain of :mod:`leeyang.chain` there."""
    if not abs(top) <= TOP_MODE_TOL:
        raise NumericalError(f"grid size {N} does not resolve the {n}-step kernel: its top "
                             f"Fourier mode holds {abs(top):.3g} of its mass "
                             f"(limit {TOP_MODE_TOL:g})")


def discretized_gaussian(sigma: float = 1.0, *, n_atoms: int = 1201) -> DiscretizedDistribution:
    """Symmetric grid discretization of N(0, sigma^2), truncated at 12 sigma."""
    if n_atoms % 2 == 0:
        n_atoms += 1
    xs = np.linspace(-12.0 * sigma, 12.0 * sigma, n_atoms)
    ws = np.exp(-0.5 * (xs / sigma) ** 2)
    return _finish_law(xs, ws / ws.sum(), True)


def rademacher(scale: float = 1.0) -> DiscretizedDistribution:
    """The two-atom law (+-scale, 1/2 each)."""
    return DiscretizedDistribution(np.array([-scale, scale]), np.array([0.5, 0.5]))
