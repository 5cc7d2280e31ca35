"""Complex Gaussian multiplicative chaos: continuum moments and lattice fields.

Continuum side: the 2k-th absolute moment of W = integral over U of
exp(i beta h) for a whole-plane Gaussian field is a Coulomb-gas partition
function -- k positive and k negative unit charges confined in U with the
pair interaction |same-charge distance|^{beta^2} / |opposite-charge
distance|^{beta^2}.  :func:`mc_moment` estimates it by plain Monte Carlo
with batch-means error bars, which it flags as unreliable for beta^2 >= 1
(the weight's second moment diverges there), and a Kish effective sample
size; :func:`moment_growth_fit` fits the growth law
log m_{2k} = beta^2 k log k + c k, and
:func:`tail_prediction` converts beta^2 into the stretched tail exponent
2 / beta^2, flagging the exponent range (1, 2) where slow tails force
off-axis zeros.

Lattice side: a :class:`LatticeDomain` carries the sites of a disk (or
square) in Z^2, the interior/boundary partition, and the Dirichlet Green's
matrix -- the inverse of the unit-weight graph Laplacian on interior sites,
which is exactly the covariance of the zero-boundary discrete Gaussian free
field sampled by :func:`dgff_sample`.  The wrapped field
h = (beta g + Phi) mod 2pi feeds the renormalised statistic
:func:`m_statistic`; its zero-boundary moments have the closed form
evaluated by :func:`gmc_moment_formula`, which doubles as the Monte Carlo
oracle.

Normaliser convention: the renormalising exponent for site x is
(beta^2/2) G(x, x) with the finite-lattice Green's diagonal used directly
(rather than its log-asymptotic form), which cancels exactly in the k = 1
moment and removes any additive-constant ambiguity.

Imports: scipy (sparse LU, dense Cholesky and triangular solves) is imported
inside the functions that factor a lattice Laplacian, so importing this
module -- and ``leeyang`` -- loads numpy only; the continuum side never
loads scipy.

Randomness: every sampler takes one integer seed; independent streams are
derived with numpy's SeedSequence spawning, and reductions run in a fixed
order, so results are reproducible bit-for-bit for a given seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .gibbs import DiscretizedDistribution, distribution_from_atoms
from .lyclass import TailProfile, slowtail_applies

DENSE_SAMPLING_CAP = 4000
MC_BATCHES = 64
DESK_MAX_K = 6
EXACT_MOMENT_BUDGET = 2 * 10**7
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# continuum Coulomb gas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Integration domain: 'disk' of given radius or the unit square [0,1]^2."""

    kind: str
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("disk", "square"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "disk" and not self.radius > 0:
            raise ValueError("disk radius must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2 if self.kind == "disk" else 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points, shape (n, 2)."""
        if self.kind == "disk":
            r = self.radius * np.sqrt(rng.random(n))
            phi = 2.0 * math.pi * rng.random(n)
            return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        return rng.random((n, 2))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= self.radius + 1e-12
        return np.all((pts >= -1e-12) & (pts <= 1 + 1e-12), axis=1)


UNIT_DISK = Domain("disk", 1.0)


@dataclass(frozen=True)
class CoulombConfig:
    """k positive and k negative charges in a domain, with coupling beta^2."""

    positive: np.ndarray
    negative: np.ndarray
    beta_sq: float
    domain: Domain = UNIT_DISK

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positive, dtype=float))
        neg = np.atleast_2d(np.asarray(self.negative, dtype=float))
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)
        if pos.shape != neg.shape or pos.shape[0] < 1 or pos.shape[1] != 2:
            raise ValueError("need equal numbers (>= 1) of positive and negative 2d charges")
        if not 0.0 < self.beta_sq < 2.0:
            raise ValueError(f"beta^2 must lie in (0, 2), got {self.beta_sq}")
        if not (np.all(self.domain.contains(pos)) and np.all(self.domain.contains(neg))):
            raise ValueError("charge outside the domain")

    @property
    def k(self) -> int:
        return self.positive.shape[0]


def _log_coulomb(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """log of the charge-interaction ratio for a batch of configurations.

    pos, neg have shape (S, k, 2); returns shape (S,) with
    sum log|same-charge distances| - sum log|opposite-charge distances|.
    Coincident opposite charges give +inf (the weight diverges and the
    caller decides); coincident same charges give -inf, weight 0.

    One log per configuration: the 2k charges are laid out as (2k, 2, S)
    rows, and for each pair i < j the squared distance d^2 is split by
    ``np.frexp``.  Its mantissa multiplies a same-charge or an
    opposite-charge product and its exponent is added to or subtracted from
    one integer accumulator; the result is
    (log(same / opposite) + exponents * log 2) / 2.  After each i both
    products are split again, so neither can underflow for any k.  Where
    d^2 leaves the normal range (points closer than about 1e-154 or farther
    than about 1e154) its mantissa and exponent are rebuilt from the
    squared mantissa and doubled exponent of ``hypot``; exactly coincident
    points keep mantissa 0.
    """
    S, k, _ = pos.shape
    q = np.empty((2 * k, 2, S))
    q[:k] = pos.transpose(1, 2, 0)
    q[k:] = neg.transpose(1, 2, 0)
    same, opposite = np.ones(S), np.ones(S)
    exponent = np.zeros(S, dtype=np.int64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(2 * k - 1):
            x, y = q[i]
            for j in range(i + 1, 2 * k):
                dx, dy = x - q[j, 0], y - q[j, 1]
                d2 = dx * dx + dy * dy
                m, e = np.frexp(d2)
                if not (_TINY <= d2.min() and d2.max() <= _HUGE):
                    off = ~((d2 >= _TINY) & (d2 <= _HUGE))
                    mh, eh = np.frexp(np.hypot(dx[off], dy[off]))
                    m[off], e[off] = mh * mh, 2 * eh
                if (i < k) == (j < k):
                    same *= m
                    exponent += e
                else:
                    opposite *= m
                    exponent -= e
            same, e_same = np.frexp(same)
            opposite, e_opposite = np.frexp(opposite)
            exponent += e_same - e_opposite
        return 0.5 * (np.log(same / opposite) + _LN2 * exponent)


def coulomb_weight(cfg: CoulombConfig) -> float:
    """The interaction ratio raised to beta^2, computed in log space.

    For k = 1 the ratio is simply |x - y|^{-1}.  Exactly coincident
    opposite charges make the weight diverge and raise ValueError.  Pair
    terms are summed in sorted order, so the value is exactly invariant
    under permuting charges of either sign.
    """
    pos, neg, k = cfg.positive, cfg.negative, cfg.k
    same = []
    for arr in (pos, neg):
        for i in range(k):
            for j in range(i + 1, k):
                same.append(math.hypot(*(arr[i] - arr[j])))
    opp = [math.hypot(*(pos[i] - neg[j])) for i in range(k) for j in range(k)]
    if any(d == 0.0 for d in opp):
        raise ValueError("coincident opposite-charge points: weight diverges")
    log_ratio = (float(np.sum(np.sort(np.log(same)))) if same else 0.0) \
        - float(np.sum(np.sort(np.log(opp))))
    return float(np.exp(cfg.beta_sq * log_ratio))


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
                "domain": self.domain.kind, "radius": self.domain.radius,
                "low_confidence": self.low_confidence,
                "stderr_reliable": self.stderr_reliable,
                "effective_sample_size": self.effective_sample_size}


def mc_moment(domain: Domain, beta_sq: float, k: int, samples: int, seed: int, *,
              max_k: int = DESK_MAX_K) -> MomentEstimate:
    """Monte Carlo estimate of E|W_U|^{2k} = |U|^{2k} E[coulomb weight].

    Plain average of the Coulomb weight over uniform 2k-tuples in the
    domain, times |U|^{2k}; the standard error comes from batch means over
    MC_BATCHES contiguous blocks.  Estimates whose relative
    standard error exceeds 0.5 are flagged low-confidence.  For beta^2 >= 1
    the weight's second moment diverges in 2-D, so the batch means have no
    finite variance and ``stderr_reliable`` is False.  The Kish effective
    sample size (sum w)^2 / sum w^2 is accumulated from the same weights.
    A batch whose mean is not finite raises NumericalError.  ``max_k`` is
    the desk-scale order cap (the weight tails get heavier with k; raise it
    knowingly).
    """
    if not 0.0 < beta_sq < 2.0:
        raise ValueError(f"beta^2 must lie in (0, 2), got {beta_sq}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > max_k:
        raise ValueError(f"k = {k} above the desk-scale cap {max_k}; "
                         "pass max_k explicitly to go higher")
    if samples < 10**4:
        raise ValueError(f"need at least 1e4 samples, got {samples}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    per_batch = samples // MC_BATCHES
    total = per_batch * MC_BATCHES
    scale = domain.area ** (2 * k)
    means = np.empty(MC_BATCHES)
    # Kish sums per batch, of weights scaled by the batch's largest so squares cannot overflow
    peaks, sums, squares = np.zeros(MC_BATCHES), np.zeros(MC_BATCHES), np.zeros(MC_BATCHES)
    for b in range(MC_BATCHES):
        pos = domain.sample(rng, per_batch * k).reshape(per_batch, k, 2)
        neg = domain.sample(rng, per_batch * k).reshape(per_batch, k, 2)
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
    X = np.stack([k * np.log(k), k], axis=1)
    sw = np.sqrt(w)
    coef, res_arr, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    fitted = X @ coef
    resid = y - fitted
    dof = max(len(y) - 2, 1)
    chi2 = float(np.sum(w * resid**2))
    cov = np.linalg.inv((X * w[:, None]).T @ X)
    scale = max(1.0, chi2 / dof) if np.all(sig > 0) else chi2 / dof
    slope_se = float(math.sqrt(cov[0, 0] * scale))
    return GrowthFit(beta_sq_hat=float(coef[0]), c_hat=float(coef[1]),
                     residual=float(np.sqrt(np.mean(resid**2))), slope_stderr=slope_se)


@dataclass(frozen=True)
class TailPrediction:
    beta_sq: float
    exponent: float

    @property
    def slowtail_flagged(self) -> bool:
        """The class's slow-tail rule applied to this prediction's own profile."""
        return slowtail_applies(self.to_profile())

    def to_profile(self) -> TailProfile:
        return TailProfile(exponent_a=self.exponent, coefficient=float("nan"),
                           fit_window=None, fit_residual=0.0, method="predicted")


def tail_prediction(beta_sq: float) -> TailPrediction:
    """Stretched tail exponent 2/beta^2 of |W_U|, flagged when in (1, 2).

    The flag marks beta in (1, sqrt 2): tails slower than Gaussian yet
    faster than exponential, the regime where the PIZ property is impossible
    for the limiting law.
    """
    if not 0.0 < beta_sq < 2.0:
        raise ValueError(f"beta^2 must lie in (0, 2), got {beta_sq}")
    return TailPrediction(beta_sq=beta_sq, exponent=2.0 / beta_sq)


# ---------------------------------------------------------------------------
# lattice domains, Green's function, DGFF
# ---------------------------------------------------------------------------

def _disk_sites(radius: float) -> list[tuple[int, int]]:
    """The points of Z^2 in the closed disk of the given radius about 0."""
    R = int(math.floor(radius))
    r2 = float(radius) * float(radius)
    return [(x, y) for x in range(-R, R + 1) for y in range(-R, R + 1)
            if x * x + y * y <= r2]


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
                             "(boundary sites carry no Green's entries or field values)") from None

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


def dgff_sample(domain: LatticeDomain, seed: int | None = None, *,
                rng: np.random.Generator | None = None,
                boundary_value: float = 0.0, size: int | None = None) -> np.ndarray:
    """Gaussian field on interior sites with covariance G = L^{-1}.

    With L = C C^T (dense Cholesky), h = C^{-T} z for standard normal z has
    covariance C^{-T} C^{-1} = L^{-1} exactly.  A constant Dirichlet
    boundary value shifts every sample by that constant (the domain-Markov
    decomposition of a constant-boundary field).  Returns shape
    (n_interior,) or (size, n_interior).
    """
    import scipy.linalg as sla

    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    C = domain.cholesky()
    n = domain.n_interior
    z = rng.standard_normal((n, 1) if size is None else (n, size))
    h = sla.solve_triangular(C, z, lower=True, trans="T")
    if boundary_value != 0.0:
        h = h + boundary_value
    return h[:, 0] if size is None else h.T


# ---------------------------------------------------------------------------
# discrete chaos field and its renormalised statistic
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class DiscreteGmcField:
    """Wrapped field h = (beta g + Phi) mod 2pi on a lattice domain.

    ``g`` is the zero-boundary DGFF, ``phi`` the global boundary angle; the
    whole object is reproducible from (domain, beta, seed).
    """

    domain: LatticeDomain = field(repr=False)
    beta: float
    phi: float
    h: np.ndarray = field(repr=False)
    seed: int

    def angles_at(self, sites) -> np.ndarray:
        return self.h[self.domain._interior_index(sites)]


def sample_gmc_field(domain: LatticeDomain, beta: float, seed: int) -> DiscreteGmcField:
    """Draw Phi uniform on (-pi, pi] and h = wrap(beta * DGFF + Phi)."""
    if not 0.0 < beta < math.sqrt(2.0):
        raise ValueError(f"beta must lie in (0, sqrt 2), got {beta}")
    ss = np.random.SeedSequence(seed)
    s_phi, s_field = ss.spawn(2)
    phi = float(np.random.default_rng(s_phi).uniform(-math.pi, math.pi))
    g = dgff_sample(domain, rng=np.random.default_rng(s_field))
    h = np.mod(beta * g + phi + math.pi, 2.0 * math.pi) - math.pi
    return DiscreteGmcField(domain=domain, beta=beta, phi=phi, h=h, seed=seed)


def lambda_weights(n: int, domain: LatticeDomain, beta: float) -> np.ndarray:
    """Per-site weights (1/n^2) exp((beta^2/2) G(x,x)) over D_n (all positive)."""
    sites = _summation_sites(domain, n)
    return _site_weights(n, beta, domain.green_matrix(sites))


def m_statistic(n: int, field: DiscreteGmcField) -> float:
    """Renormalised chaos sum M = sum_{x in D_n} lam(x) cos h(x).

    lam(x) = (1/n^2) exp((beta^2/2) G(x,x)); using the lattice Green's
    diagonal as the renormalising exponent makes the k = 1 zero-boundary
    moment exactly |D_n|/n^2 (no asymptotic constants enter).
    """
    sites = _summation_sites(field.domain, n)
    lam = _site_weights(n, field.beta, field.domain.green_matrix(sites))
    return float(lam @ np.cos(field.angles_at(sites)))


def gmc_moment_formula(domain: LatticeDomain, n: int, beta: float, k: int, *,
                       mc_tuples: int | None = None, seed: int | None = None) -> float:
    """Zero-boundary moment E[Mhat^k] of the complex renormalised sum.

    With the Green's-diagonal normaliser the diagonal terms cancel and
    E[Mhat^k] = sum over k-tuples of sites of n^{-2k}
    exp(-(beta^2/2) sum_{i != j} G(x_i, x_j)).  k = 1 gives |D_n|/n^2
    exactly; k >= 2 sums over all site tuples, or over ``mc_tuples`` uniform
    Monte Carlo tuples when given (else the exact sum must fit the cost
    budget).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sites = _summation_sites(domain, n)
    m = len(sites)
    if k == 1:
        return m / float(n) ** 2

    if mc_tuples is None and m**k > EXACT_MOMENT_BUDGET:
        raise BudgetExceededError(
            f"exact k={k} moment needs {m}^{k} = {m**k} terms, over budget "
            f"{EXACT_MOMENT_BUDGET}; pass mc_tuples for Monte Carlo evaluation")

    G = domain.green_matrix(sites)
    pref = float(n) ** (-2 * k)
    if mc_tuples is None:
        idx = np.stack(np.meshgrid(*([np.arange(m)] * k), indexing="ij"), axis=-1).reshape(-1, k)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        idx = rng.integers(0, m, size=(mc_tuples, k))
    ex = np.zeros(len(idx))
    for a in range(k):
        for b in range(a + 1, k):
            ex -= beta**2 * G[idx[:, a], idx[:, b]]
    if mc_tuples is None:
        return pref * float(np.sum(np.exp(ex)))
    return pref * float(m**k) * float(np.mean(np.exp(ex)))


def sample_m_statistics(domain: LatticeDomain, n: int, beta: float,
                        nsamples: int, seed: int) -> np.ndarray:
    """Monte Carlo ensemble of M over independent (field, Phi) draws.

    Samples the exact Gaussian marginal of the field on the D_n summation
    sites (Cholesky of the restricted Green's matrix), which has the same
    law as restricting a full-domain DGFF sample; Phi is drawn uniformly per
    sample, so the ensemble law of M is symmetric under sign flip.
    """
    import scipy.linalg as sla

    if not 0.0 < beta < math.sqrt(2.0):
        raise ValueError(f"beta must lie in (0, sqrt 2), got {beta}")
    sites = _summation_sites(domain, n)
    G = domain.green_matrix(sites)
    C = sla.cholesky(G + 1e-14 * np.eye(len(sites)), lower=True)
    lam = _site_weights(n, beta, G)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty(nsamples)
    chunk = max(1, int(5e6 // max(len(sites), 1)))
    for i in range(0, nsamples, chunk):
        c = min(chunk, nsamples - i)
        z = rng.standard_normal((len(sites), c))
        g = C @ z
        phi = rng.uniform(-math.pi, math.pi, size=c)
        out[i:i + c] = lam @ np.cos(beta * g + phi[None, :])
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
    half = float(np.max(np.abs(samples))) * (1.0 + 1e-9) if len(samples) else 1.0
    if half == 0.0:
        half = 1.0
    edges = np.linspace(-half, half, 2 * B + 2)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    atoms = list(zip(centers[keep], counts[keep].astype(float)))
    return distribution_from_atoms(atoms, grid_size=2 * B + 1, symmetrize=True)


# ---------------------------------------------------------------------------
# field snapshots (flat binary, reproducibility)
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"LYFIELD1"


def save_field_snapshot(path, field_obj: DiscreteGmcField, n: int, r: float) -> None:
    """Flat binary snapshot: magic, n, r, beta, seed, count, then float64 values."""
    h = np.ascontiguousarray(field_obj.h, dtype="<f8")
    header = _SNAPSHOT_MAGIC + struct.pack("<qddQq", int(n), float(r),
                                           float(field_obj.beta),
                                           int(field_obj.seed) & (2**64 - 1), len(h))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(h.tobytes())


def load_field_snapshot(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"not a field snapshot (magic {magic!r})")
        n, r, beta, seed, count = struct.unpack("<qddQq", fh.read(40))
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
    return {"n": n, "r": r, "beta": beta, "seed": seed, "values": data}
