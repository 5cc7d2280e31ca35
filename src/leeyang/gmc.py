"""Complex Gaussian multiplicative chaos: continuum moments and lattice fields.

Continuum side: the 2k-th absolute moment of W = integral over U of
exp(i beta h) for a whole-plane Gaussian field, U a disk (:class:`Domain`),
is a Coulomb-gas partition function -- k positive and k negative unit
charges confined in U with the pair interaction
|same-charge distance|^{beta^2} / |opposite-charge distance|^{beta^2}.
:func:`mc_moment` estimates it by plain Monte Carlo with batch-means error
bars, which it flags as unreliable for beta^2 >= 1 (the weight's second
moment diverges there), and a Kish effective sample size;
:func:`moment_growth_fit` fits the growth law log m_{2k} = beta^2 k log k
+ c k (the regression of :func:`leeyang.lyclass.tail_exponent`, with its
own weights), and :func:`tail_prediction` gives the exact
:class:`~leeyang.lyclass.TailProfile` of exponent 2 / beta^2, which
:func:`~leeyang.lyclass.slowtail_applies` flags in the range (1, 2) where
slow tails force off-axis zeros.

Lattice side: a :class:`LatticeDomain` carries the sites of a disk (or
square) in Z^2, the interior/boundary partition, and the Dirichlet Green's
matrix -- the inverse of the unit-weight graph Laplacian on interior sites,
which is exactly the covariance of the zero-boundary discrete Gaussian free
field sampled by :func:`dgff_sample` (whose empirical covariance
:func:`dgff_covariance` draws from its Bartlett factor, without any field).
The renormalised chaos sum M = sum_{x in D_n} lam(x) cos(beta g(x) + Phi)
is drawn by :func:`sample_m_statistics`; its zero-boundary moments have the
closed form evaluated by :func:`gmc_moment_formula`, which doubles as the
Monte Carlo oracle.

Normaliser convention: the renormalising exponent for site x is
(beta^2/2) G(x, x) with the finite-lattice Green's diagonal used directly
(rather than its log-asymptotic form), which cancels exactly in the k = 1
moment and removes any additive-constant ambiguity.

Imports: scipy (sparse LU, dense Cholesky, triangular solves and BLAS) is imported
inside the functions that factor a lattice Laplacian, so importing this
module -- and ``leeyang`` -- loads numpy only; the continuum side never
loads scipy.

Randomness: every sampler takes one integer seed; independent streams are
derived with numpy's SeedSequence spawning, and reductions run in a fixed
order, so results are reproducible bit-for-bit for a given seed -- with one
exception: the lattice samplers (:func:`dgff_sample`, :func:`dgff_covariance`
and :func:`sample_m_statistics`) multiply and solve through BLAS, whose
blocking depends on its thread count.  That moves only rounding: at one and
two BLAS threads, dgff-check and small m-stat runs give the same verdicts and
counts, and values within 1e-12 relative (residuals, which are rounding
themselves, stay below their bounds).  :func:`sample_m_statistics` draws
its normals sample-major in blocks of at most SAMPLE_BLOCK samples, each
reduced before the next is drawn, so its memory does not grow with the
sample count and its stream does not depend on the block size.
:func:`dgff_sample` returns every field, so it draws them all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .gibbs import DiscretizedDistribution, _finish_law
from .lyclass import TailProfile, _growth_lstsq

DENSE_SAMPLING_CAP = 4000
MC_BATCHES = 64
DESK_MAX_K = 6
EXACT_MOMENT_BUDGET = 2 * 10**7
SAMPLE_BLOCK = 2048
# configurations per block of _log_coulomb: at k <= 6 a block's points take at
# most 786 kB and stay in a 2 MB L2 cache, where a 15,625-configuration batch
# of k = 5 (2.5 MB) would not
_COULOMB_BLOCK = 4096
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# continuum Coulomb gas
# ---------------------------------------------------------------------------

def _unit_circle(h: np.ndarray) -> np.ndarray:
    """(cos 2h, sin 2h) from t = tan h, as ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)),
    the two rows of one (2, n) array.

    Where numpy dispatches AVX-512, its tan is vectorised and its cos and sin
    are scalar libm calls, so one tangent costs a fraction of a cosine and a
    sine; without AVX-512 tan is scalar too and about as dear as either.  For
    h in [0, pi) no double is a pole of tan: |t| < 2e16, so t^2 cannot overflow.
    """
    cs = np.empty((2,) + h.shape)
    c, t = cs
    np.tan(h, out=t)
    d = t * t
    np.subtract(1.0, d, out=c)
    d += 1.0
    c /= d
    t += t
    t /= d
    return cs


def _cos_double_angle(h: np.ndarray) -> np.ndarray:
    """cos 2h in h's own memory, as 2 / (1 + tan^2 h) - 1; returns h.

    Where numpy dispatches AVX-512, its tan is vectorised and its cos a
    scalar libm call, so this is several times faster than np.cos; without
    AVX-512 both are scalar and this is 10-25% slower than np.cos.  Within
    4e-16 of the exact cos 2h for |h| <= 50, next to the poles of tan
    included (np.cos within 1.2e-16).
    """
    np.tan(h, out=h)
    np.multiply(h, h, out=h)
    h += 1.0
    np.divide(2.0, h, out=h)
    h -= 1.0
    return h


@dataclass(frozen=True)
class Domain:
    """The integration domain U: the disk about 0 of a positive, finite radius."""

    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"disk radius must be positive and finite, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points as the rows x and y of one (2, n) array.

        A point is r (cos phi, sin phi) with r = R sqrt(u), phi = 2 pi v,
        and u, v from two ``rng.random(n)`` calls in that order.  With
        t = tan(phi / 2), cos phi = (1 - t^2) / (1 + t^2) and
        sin phi = 2t / (1 + t^2) (:func:`_unit_circle`; h = pi v is bitwise
        phi / 2): one tangent per point instead of a cosine and a sine, which
        saves the most where numpy's tan is vectorised (AVX-512).  Each value
        is within 4e-16 of the exact cos phi and sin phi (libm's within
        1.2e-16), so a point is within 4e-16 R of r (np.cos, np.sin), and the
        random stream, every later draw included, is unchanged.
        """
        r = self.radius * np.sqrt(rng.random(n))
        pts = _unit_circle(math.pi * rng.random(n))
        pts *= r
        return pts


UNIT_DISK = Domain(1.0)


def _log_coulomb(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """log of the charge-interaction ratio for a batch of configurations.

    pos, neg have shape (2, k, S), charge-major: [:, i, s] is the (x, y) of
    charge i in configuration s.  Returns shape (S,) with
    sum log|same-charge distances| - sum log|opposite-charge distances|.
    Coincident opposite charges give +inf (the weight diverges and the
    caller decides); coincident same charges give -inf, weight 0.

    One log per configuration.  In blocks of at most _COULOMB_BLOCK
    configurations, the 2k charges are copied into contiguous rows and
    scaled by 2^-e, e the frexp exponent of the block's largest |coordinate|,
    so every coordinate lies in [-1, 1] and every squared distance
    d^2 = dx dx + dy dy is at most 8.  For each pair i < j, d^2 multiplies
    the same-charge or the opposite-charge product; each product is split by
    ``np.frexp`` once, and the result is
    (log(m_same / m_opposite) + (e_same - e_opposite - 2 k e) log 2) / 2.
    Away from subnormal numbers a power of two scales exactly, so these are
    the bits of splitting each d^2 by frexp as it is multiplied in.

    Range guard: a row is kept where each product of n factors (n = k(k-1)
    same, k^2 opposite) is finite and at least tiny 16^n, tiny the smallest
    normal double.  Proof that no partial product of a kept row fell below
    2 tiny: rounding is monotone and multiplying by 8 is exact, so a factor
    d^2 <= 8 at most multiplies a partial product by 8; one below 2 tiny
    would leave a final product below 2 tiny 8^n < tiny 16^n.  So every
    exact partial product exceeds tiny and is rounded as with an unbounded
    exponent: a kept row carries only the n + 1 relative roundings of its
    products and the roundings of its d^2, each at least 8 tiny 2^n by the
    same argument.  No partial product can overflow and come back finite.
    Every other row -- near-coincident charges, far-apart scales in one
    block, or k large enough (about 15 in the unit disk) that the products
    underflow -- is computed again from the unscaled points with one hypot
    and one log per pair.
    """
    _, k, S = pos.shape
    out = np.empty(S)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound_same, bound_opposite = np.ldexp(_TINY, 4 * k * (k - 1)), np.ldexp(_TINY, 4 * k * k)
        for a in range(0, S, _COULOMB_BLOCK):
            block = slice(a, a + _COULOMB_BLOCK)
            c = min(_COULOMB_BLOCK, S - a)
            q = np.empty((2, 2 * k, c))
            q[:, :k], q[:, k:] = pos[:, :, block], neg[:, :, block]
            e = math.frexp(max(q.max(), -q.min()))[1]
            if e:
                np.ldexp(q, -e, out=q)
            x, y = q
            same, opposite, d2, dy = np.ones(c), np.ones(c), np.empty(c), np.empty(c)
            for i in range(2 * k - 1):
                for j in range(i + 1, 2 * k):
                    np.subtract(x[i], x[j], out=d2)
                    np.subtract(y[i], y[j], out=dy)
                    d2 *= d2
                    dy *= dy
                    d2 += dy
                    if (i < k) == (j < k):
                        same *= d2
                    else:
                        opposite *= d2
            keep = ((same >= bound_same) & (same <= _HUGE)
                    & (opposite >= bound_opposite) & (opposite <= _HUGE))
            m_same, e_same = np.frexp(same)
            m_opposite, e_opposite = np.frexp(opposite)
            out[block] = 0.5 * (np.log(m_same / m_opposite)
                                + _LN2 * (e_same - e_opposite - 2 * k * e))
            if not keep.all():
                rows = a + np.flatnonzero(~keep)
                p, n = pos[:, :, rows], neg[:, :, rows]
                iu, ju = np.triu_indices(k, 1)
                d_same = np.concatenate((p[:, iu] - p[:, ju], n[:, iu] - n[:, ju]), axis=1)
                d_opposite = (p[:, :, None] - n[:, None]).reshape(2, k * k, -1)
                # the builtin sum adds the pair rows in order, so a row's bits do
                # not depend on how many rows are recomputed with it
                out[rows] = sum(np.log(np.hypot(*d_same))) - sum(np.log(np.hypot(*d_opposite)))
    return out


@dataclass(frozen=True)
class MomentEstimate:
    beta_sq: float
    k: int
    estimate: float
    stderr: float
    samples: int
    seed: int
    domain: Domain
    low_confidence: bool
    stderr_reliable: bool
    effective_sample_size: float

    def as_dict(self) -> dict:
        return {"beta_sq": self.beta_sq, "k": self.k, "estimate": self.estimate,
                "stderr": self.stderr, "samples": self.samples, "seed": self.seed,
                "radius": self.domain.radius, "low_confidence": self.low_confidence,
                "stderr_reliable": self.stderr_reliable,
                "effective_sample_size": self.effective_sample_size}


def mc_moment(domain: Domain, beta_sq: float, k: int, samples: int, seed: int) -> MomentEstimate:
    """Monte Carlo estimate of E|W_U|^{2k} = |U|^{2k} E[coulomb weight].

    Plain average of the Coulomb weight over uniform 2k-tuples in the
    disk U, times |U|^{2k}; the standard error comes from batch means over
    MC_BATCHES contiguous blocks.  Estimates whose relative
    standard error exceeds 0.5 are flagged low-confidence.  For beta^2 >= 1
    the weight's second moment diverges in 2-D, so the batch means have no
    finite variance and ``stderr_reliable`` is False.  The Kish effective
    sample size (sum w)^2 / sum w^2 is accumulated from the same weights.
    A batch whose mean is not finite raises NumericalError.  k is capped at
    DESK_MAX_K, the desk-scale order: the weight tails get heavier with k.
    A radius whose |U|^{2k} overflows or leaves the normal float range is
    refused with ValueError before any draw.
    """
    if not 0.0 < beta_sq < 2.0:
        raise ValueError(f"beta^2 must lie in (0, 2), got {beta_sq}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DESK_MAX_K:
        raise ValueError(f"k = {k} above the desk-scale cap {DESK_MAX_K}")
    if samples < 10**4:
        raise ValueError(f"need at least 1e4 samples, got {samples}")
    log_scale = 2 * k * (math.log(math.pi) + 2.0 * math.log(domain.radius))
    if not math.log(_TINY) <= log_scale <= math.log(_HUGE):
        raise ValueError(f"disk radius {domain.radius} gives |U|^(2k) = e^{log_scale:.4g} at "
                         f"k = {k}, outside the normal float range")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    per_batch = samples // MC_BATCHES
    total = per_batch * MC_BATCHES
    scale = domain.area ** (2 * k)
    means = np.empty(MC_BATCHES)
    # Kish sums per batch, of weights scaled by the batch's largest so squares cannot overflow
    peaks, sums, squares = np.zeros(MC_BATCHES), np.zeros(MC_BATCHES), np.zeros(MC_BATCHES)
    for b in range(MC_BATCHES):
        pos = domain.sample(rng, per_batch * k).reshape(2, per_batch, k).swapaxes(1, 2)
        neg = domain.sample(rng, per_batch * k).reshape(2, per_batch, k).swapaxes(1, 2)
        w = np.exp(beta_sq * _log_coulomb(pos, neg))
        means[b] = float(np.mean(w)) * scale
        if not math.isfinite(means[b]):
            raise NumericalError(f"Monte Carlo mean of batch {b} of {MC_BATCHES} at k = {k} "
                                 f"is {means[b]} (beta^2 = {beta_sq})")
        peak = float(np.max(w))
        if peak > 0:
            u = w / peak
            peaks[b], sums[b], squares[b] = peak, np.sum(u), u @ u
    estimate = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(MC_BATCHES))
    low = bool(stderr > 0.5 * abs(estimate)) if estimate != 0 else True
    top = peaks.max()
    c = peaks / top if top > 0 else peaks
    ess = float(np.sum(c * sums) ** 2 / np.sum(c * c * squares)) if top > 0 else 0.0
    return MomentEstimate(beta_sq=beta_sq, k=k, estimate=estimate, stderr=stderr,
                          samples=total, seed=seed, domain=domain, low_confidence=low,
                          stderr_reliable=beta_sq < 1.0, effective_sample_size=ess)


@dataclass(frozen=True)
class GrowthFit:
    beta_sq_hat: float
    c_hat: float
    residual: float
    slope_stderr: float

    @property
    def ci(self) -> tuple[float, float]:
        """Two-sigma confidence interval for the k log k slope."""
        return (self.beta_sq_hat - 2.0 * self.slope_stderr,
                self.beta_sq_hat + 2.0 * self.slope_stderr)


def moment_growth_fit(moments) -> GrowthFit:
    """Weighted least squares of log m_{2k} on (k log k, k).

    ``moments`` is a list of (k, estimate, stderr) triples or
    :class:`MomentEstimate` objects, at least 4 of them.  Weights are the
    inverse variances of log m (delta method, (stderr/estimate)^2); exact
    inputs (stderr 0 or None) get equal weights.  The slope of the k log k
    regressor estimates beta^2 and the linear coefficient estimates c.
    """
    rows = []
    for mo in moments:
        if isinstance(mo, MomentEstimate):
            rows.append((mo.k, mo.estimate, mo.stderr))
        else:
            kk, est, se = (list(mo) + [0.0])[:3]
            rows.append((int(kk), float(est), float(se or 0.0)))
    if len(rows) < 4:
        raise ValueError(f"growth fit needs at least 4 moments, got {len(rows)}")
    k = np.array([r[0] for r in rows], dtype=float)
    est = np.array([r[1] for r in rows])
    se = np.array([r[2] for r in rows])
    if np.any(~np.isfinite(est)) or np.any(est <= 0):
        raise ValueError("moments must be finite and positive")
    y = np.log(est)
    sig = np.where(se > 0, se / est, 0.0)
    if np.all(sig > 0):
        w = 1.0 / sig**2
    else:
        w = np.ones_like(y)
    coef, resid, X = _growth_lstsq(k, y, w)
    dof = max(len(y) - 2, 1)
    chi2 = float(np.sum(w * resid**2))
    cov = np.linalg.inv((X * w[:, None]).T @ X)
    scale = max(1.0, chi2 / dof) if np.all(sig > 0) else chi2 / dof
    slope_se = float(math.sqrt(cov[0, 0] * scale))
    return GrowthFit(beta_sq_hat=float(coef[0]), c_hat=float(coef[1]),
                     residual=float(np.sqrt(np.mean(resid**2))), slope_stderr=slope_se)


def tail_prediction(beta_sq: float) -> TailProfile:
    """The exact tail profile of |W_U|: exponent a = 2/beta^2, coefficient unknown.

    :func:`leeyang.lyclass.slowtail_applies` flags a in (1, 2), i.e. beta in
    (1, sqrt 2): tails slower than Gaussian yet faster than exponential, the
    regime where the PIZ property is impossible for the limiting law.
    """
    if not 0.0 < beta_sq < 2.0:
        raise ValueError(f"beta^2 must lie in (0, 2), got {beta_sq}")
    return TailProfile(exponent_a=2.0 / beta_sq, coefficient=float("nan"),
                       fit_residual=0.0, method="predicted")


# ---------------------------------------------------------------------------
# lattice domains, Green's function, DGFF
# ---------------------------------------------------------------------------

def _disk_columns(radius: float) -> list[tuple[int, int]]:
    """(x, h) for each column of the points of Z^2 in the closed disk of the
    given radius about 0, whose points are (x, -h) .. (x, h); a radius that is
    not positive and finite raises ValueError."""
    if not 0 < radius < math.inf:
        raise ValueError(f"lattice disk radius must be positive and finite, got {radius}")
    R = int(math.floor(radius))
    # integers satisfy x^2 + y^2 <= r^2 exactly when they satisfy it against floor(r^2)
    r2 = math.floor(float(radius) * float(radius))
    return [(x, math.isqrt(r2 - x * x)) for x in range(-R, R + 1)]


def _disk_sites(radius: float) -> list[tuple[int, int]]:
    """The points of Z^2 in the closed disk of the given radius about 0, by
    column (x, then y ascending)."""
    return [(x, y) for x, h in _disk_columns(radius) for y in range(-h, h + 1)]


class LatticeDomain:
    """A finite chunk of Z^2 with its Dirichlet graph Laplacian.

    ``sites`` are all lattice points of the region; boundary sites are those
    adjacent to the complement, interior sites form the domain of the
    Laplacian L = 4 I - A (unit edge weights, adjacency among interior
    only).  The Green's matrix is G = L^{-1}: the covariance of the
    zero-boundary discrete Gaussian free field.  Boundary sites carry no
    Green's entries, and a region without interior sites is refused.
    :meth:`green_matrix` is the only reader of G: one solve of the cached
    sparse LU factorisation per distinct requested site.  The dense
    factorisation used for sampling is limited to DENSE_SAMPLING_CAP
    interior sites.
    """

    def __init__(self, sites):
        import scipy.sparse as sp

        self.sites = sorted(set((int(x), int(y)) for x, y in sites))
        site_set = set(self.sites)
        self.boundary = [s for s in self.sites
                         if any((s[0] + dx, s[1] + dy) not in site_set
                                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))]
        bset = set(self.boundary)
        self.interior = [s for s in self.sites if s not in bset]
        if not self.interior:
            raise ValueError(f"lattice domain of {len(self.sites)} sites has no interior site")
        self._idx = {s: i for i, s in enumerate(self.interior)}
        n = len(self.interior)
        rows, cols, vals = [], [], []
        for s, i in self._idx.items():
            rows.append(i)
            cols.append(i)
            vals.append(4.0)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (s[0] + dx, s[1] + dy)
                j = self._idx.get(nb)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(-1.0)
        self.laplacian = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        self._lu = None
        self._chol = None

    @classmethod
    def disk(cls, radius: float) -> "LatticeDomain":
        return cls(_disk_sites(radius))

    @classmethod
    def square(cls, interior_side: int) -> "LatticeDomain":
        m = interior_side + 2
        sites = [(x, y) for x in range(m) for y in range(m)]
        return cls(sites)

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    def is_interior(self, site) -> bool:
        return (int(site[0]), int(site[1])) in self._idx

    def _interior_index(self, sites) -> np.ndarray:
        """Positions of ``sites`` among the interior sites; a non-interior
        site raises ValueError naming it."""
        try:
            return np.array([self._idx[(int(x), int(y))] for x, y in sites], dtype=np.intp)
        except KeyError as e:
            raise ValueError(f"site {e.args[0]} is not an interior site "
                             "(boundary sites carry no Green's entries)") from None

    def green_matrix(self, sites=None) -> np.ndarray:
        """Green's block G[a, b] = G(sites[a], sites[b]), column b one LU solve
        against the unit vector of sites[b] (one solve per distinct site); all
        interior sites (capped) by default."""
        import scipy.sparse.linalg as spla

        if sites is None:
            if self.n_interior > DENSE_SAMPLING_CAP:
                raise BudgetExceededError(
                    f"dense Green's matrix for {self.n_interior} interior sites exceeds "
                    f"the cap {DENSE_SAMPLING_CAP}; restrict to a site list instead")
            sites = self.interior
        idx = self._interior_index(sites)
        if self._lu is None:
            self._lu = spla.splu(self.laplacian)
        distinct, col = np.unique(idx, return_inverse=True)
        G = np.empty((len(idx), len(distinct)))
        for b, i in enumerate(distinct):
            e = np.zeros(self.n_interior)
            e[i] = 1.0
            G[:, b] = self._lu.solve(e)[idx]
        return G[:, col]

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the Laplacian (dense; capped size)."""
        import scipy.linalg as sla

        if self._chol is None:
            if self.n_interior > DENSE_SAMPLING_CAP:
                raise BudgetExceededError(
                    f"domain too large for dense factorization: {self.n_interior} interior "
                    f"sites exceed the cap {DENSE_SAMPLING_CAP}")
            self._chol = sla.cholesky(self.laplacian.toarray(), lower=True)
        return self._chol


def lattice_green(domain: LatticeDomain, x, y) -> float:
    """Entry G(x, y) of the inverse Dirichlet graph Laplacian.

    Row y of the solve for source column x; both sites must be interior.
    """
    return float(domain.green_matrix([y, x])[0, 1])


def dgff_sample(domain: LatticeDomain, seed: int, *, size: int) -> np.ndarray:
    """``size`` Gaussian fields on interior sites, each with covariance G = L^{-1}.

    Shape (size, n_interior): row i is the field C^{-T} z_i of row i of the
    normals ``rng.standard_normal((size, n_interior))``.  With L = C C^T
    (dense Cholesky), C^{-T} z has covariance C^{-T} C^{-1} = L^{-1} = G
    exactly.  C^{-1} is formed once per call, and BLAS ``trmm`` multiplies
    the Fortran-ordered view of the normals by C^{-T} in their own memory:
    faster than a triangular solve by C^T, and within 1e-14 relative of it.
    """
    import scipy.linalg as sla
    from scipy.linalg.blas import dtrmm

    n = domain.n_interior
    c_inv = sla.solve_triangular(domain.cholesky(), np.eye(n), lower=True)
    fields = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((size, n))
    dtrmm(1.0, c_inv, fields.T, side=0, lower=1, trans_a=1, overwrite_b=1)
    return fields


def dgff_covariance(domain: LatticeDomain, seed: int, size: int) -> np.ndarray:
    """A draw of the empirical covariance of ``size`` fields C^{-T} z_s of
    :func:`dgff_sample`, from the same factor C (L = C C^T), with no field drawn.

    That covariance is C^{-T} W C^{-1} / size, where W = sum_s z_s z_s^T of
    standard normals on the p interior sites is Wishart_p(size, I).  W is drawn
    as A A^T from its Bartlett factor A (Bartlett 1933; Muirhead 1982, 3.2),
    the transposed R factor of the (size x p) normal block's QR decomposition:
    p x m lower trapezoidal, m = min(size, p), with A_ii = sqrt(chi^2_{size-i})
    (i = 0 .. m-1) and A_ji ~ N(0, 1) for j > i, for every size >= 1.  Draw
    order: ``rng.chisquare(size - arange(m))``, then one ``standard_normal``
    call for the entries below the diagonal, row by row.  ``trsm`` forms
    C^{-T} A in A's memory and ``syrk`` the lower triangle of the result,
    mirrored to be exactly symmetric: O(p m) draws and O(p^2 m) flops,
    whatever ``size`` is.
    """
    from scipy.linalg.blas import dsyrk, dtrsm

    if size < 1:
        raise ValueError(f"need at least one sample, got {size}")
    p = domain.n_interior
    m = min(size, p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    A = np.zeros((p, m), order="F")
    A[np.diag_indices(m)] = np.sqrt(rng.chisquare(size - np.arange(m, dtype=float)))
    below = np.tril_indices(p, -1, m)
    A[below] = rng.standard_normal(len(below[0]))
    X = dtrsm(1.0, domain.cholesky(), A, side=0, lower=1, trans_a=1, overwrite_b=1)  # C^{-T} A
    cov = dsyrk(1.0 / size, X, lower=1)
    return np.tril(cov) + np.tril(cov, -1).T


# ---------------------------------------------------------------------------
# the renormalised chaos sum
# ---------------------------------------------------------------------------

def _refuse_dense_summation(n: int) -> None:
    """BudgetExceededError if D_n holds more than DENSE_SAMPLING_CAP sites,
    counted column by column before any site is listed."""
    count = sum(2 * h + 1 for _, h in _disk_columns(n))
    if count > DENSE_SAMPLING_CAP:
        raise BudgetExceededError(
            f"dense sampling factorisation for {count} summation sites exceeds "
            f"the cap {DENSE_SAMPLING_CAP}")


def _summation_sites(domain: LatticeDomain, n: int) -> list[tuple[int, int]]:
    """The sites of D_n, each checked to be interior to the field domain."""
    sites = _disk_sites(n)
    for s in sites:
        if not domain.is_interior(s):
            raise ValueError(f"summation site {s} is not interior to the field domain")
    return sites


def _site_weights(n: int, beta: float, G: np.ndarray) -> np.ndarray:
    """lam(x) = (1/n^2) exp((beta^2/2) G(x,x)) from the Green's block G on D_n."""
    return np.exp(0.5 * beta**2 * np.diag(G)) / float(n) ** 2


def gmc_moment_formula(domain: LatticeDomain, n: int, beta: float, k: int) -> float:
    """Zero-boundary moment E[Mhat^k] of the complex renormalised sum.

    With the Green's-diagonal normaliser the diagonal terms cancel and
    E[Mhat^k] = sum over k-tuples of sites of n^{-2k}
    exp(-(beta^2/2) sum_{i != j} G(x_i, x_j)).  k = 1 gives |D_n|/n^2
    exactly; k >= 2 sums over all |D_n|^k site tuples, and a sum of more
    than EXACT_MOMENT_BUDGET terms raises BudgetExceededError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sites = _summation_sites(domain, n)
    m = len(sites)
    if k == 1:
        return m / float(n) ** 2

    if m**k > EXACT_MOMENT_BUDGET:
        raise BudgetExceededError(
            f"exact k={k} moment needs {m}^{k} = {m**k} terms, over budget "
            f"{EXACT_MOMENT_BUDGET}")

    G = domain.green_matrix(sites)
    pref = float(n) ** (-2 * k)
    idx = np.stack(np.meshgrid(*([np.arange(m)] * k), indexing="ij"), axis=-1).reshape(-1, k)
    ex = np.zeros(len(idx))
    for a in range(k):
        for b in range(a + 1, k):
            ex -= beta**2 * G[idx[:, a], idx[:, b]]
    return pref * float(np.sum(np.exp(ex)))


def sample_m_statistics(domain: LatticeDomain, n: int, beta: float,
                        nsamples: int, seed: int) -> np.ndarray:
    """Monte Carlo ensemble of M over independent (field, Phi) draws.

    Samples the exact Gaussian marginal of the field on the D_n summation
    sites (Cholesky of the restricted Green's matrix), which has the same
    law as restricting a full-domain DGFF sample; Phi is drawn uniformly per
    sample, so the ensemble law of M is symmetric under sign flip.  The
    stream is sample-major: every Phi first, then per block of
    c <= SAMPLE_BLOCK samples the normals z as (c x sites).  One buffer of
    (SAMPLE_BLOCK x sites) holds a block whatever ``nsamples`` is: BLAS
    ``trmm`` turns z into the field g = z C^T in place (C is lower
    triangular, so half the flops of a dense product), and
    cos(beta g + Phi) is taken as cos 2h (:func:`_cos_double_angle`) of
    h = (beta/2) g + Phi/2, which is bitwise half of beta g + Phi.  More
    than DENSE_SAMPLING_CAP sites raise BudgetExceededError before any site
    is checked or solved for.
    """
    import scipy.linalg as sla
    from scipy.linalg.blas import dtrmm

    if not 0.0 < beta < math.sqrt(2.0):
        raise ValueError(f"beta must lie in (0, sqrt 2), got {beta}")
    _refuse_dense_summation(n)
    sites = _summation_sites(domain, n)
    G = domain.green_matrix(sites)
    C = sla.cholesky(G + 1e-14 * np.eye(len(sites)), lower=True)
    lam = _site_weights(n, beta, G)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    half_phi = rng.uniform(-math.pi, math.pi, nsamples)
    half_phi *= 0.5
    out = np.empty(nsamples)
    buf = np.empty((min(SAMPLE_BLOCK, nsamples), len(sites)))
    for i in range(0, nsamples, SAMPLE_BLOCK):
        c = min(SAMPLE_BLOCK, nsamples - i)
        g = buf[:c]
        rng.standard_normal(out=g)
        # g^T = C z^T on g's Fortran-ordered view
        dtrmm(1.0, C, g.T, side=0, lower=1, overwrite_b=1)
        np.multiply(0.5 * beta, g, out=g)
        np.add(g, half_phi[i:i + c, None], out=g)
        np.matmul(_cos_double_angle(g), lam, out=out[i:i + c])
    return out


def bin_distribution(samples: np.ndarray, B: int = 200) -> DiscretizedDistribution:
    """Symmetric binning of an empirical sample into 2B+1 bins around 0.

    The bin width covers the sample range symmetrically; the result is
    symmetrised (exploratory input for zero analysis, not a certificate).
    B >= 1: with no bin on either side the law would be the point mass at 0.
    """
    if B < 1:
        raise ValueError(f"need at least one bin on each side of 0, got bins B = {B}")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot bin an empty sample")
    half = float(np.max(np.abs(samples))) * (1.0 + 1e-9)
    if half == 0.0:
        half = 1.0
    counts, edges = np.histogram(samples, bins=2 * B + 1, range=(-half, half))
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    return _finish_law(centers[keep], counts[keep].astype(float), True)
