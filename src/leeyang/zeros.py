"""Complex-zero analysis of moment generating functions of atomic laws.

For a finite atomic law mu = {(x_j, w_j)} the moment generating function
f(z) = sum_j w_j exp(z x_j) is entire; this module locates its complex zeros
and certifies whether, inside a rectangle, they all sit on the imaginary
axis (the "pure imaginary zeros" property).

The toolchain is:

* :func:`mgf_eval` -- f(z) alone at one point by the direct atom sum, with
  the bits of the direct evaluator's f; it takes a symmetric source over its
  nonnegative half (so f(iy) is exactly real) and is scaled against
  overflow; every reported residual is one of these;
* :meth:`EntireMGF.evaluator` -- the batch evaluator used for contours and
  axis samples: the same direct sum, or its spectral compression for
  sources with many atoms; its one method ``values`` returns f as
  mantissas and their log-scales;
* :func:`count_zeros_rectangle` -- winding number along the rectangle
  boundary with adaptive phase tracking (segments are bisected until every
  phase increment is below pi/2);
* :func:`locate_zeros` -- a :class:`ZeroReport`; for a symmetric source the
  axis-symmetric part of the region is certified by the bisected sign
  changes of the real g(y) = f(iy), everything else by recursive rectangle
  subdivision driven by the counter and :func:`newton_refine`, whose f and
  f' are always the direct sum's;
* :func:`hadamard_fit` -- the quadratic coefficient B and the variance
  identity Var = 2 (B + sum_k y_k^{-2}) for the order-2 product form
  f(z) = exp(B z^2) prod_k (1 + z^2 / y_k^2) of a symmetric source.

The spectral compression pairs exact Chebyshev moments of the measure with
modified-Bessel factors; a symmetric source's moments come from the same
nonnegative half, with exact parity.  Every build is cross-validated
against the direct sum's f at eight points in one batch, and the report
records which evaluator ran.

Caveat: a discretized distribution approximates a continuum law, so its
MGF's zeros approximate the true ones only up to quadrature error.  Use
:func:`refinement_stable_report` to keep only zeros that are stable under
doubling the angular grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .gibbs import COALESCE_TOL, DiscretizedDistribution

DEFAULT_TOL = 1e-10
OFFAXIS_FACTOR = 100.0
MIN_CELL_DIAM = 0.1
BOUNDARY_FLOOR = 1e-13
MAX_PERTURB = 6
MERGE_DISTANCE = 5e-8  # Newton ends closer than this are one zero
GRID_STABILITY_FACTOR = 10.0
_SPECTRAL_ATOM_THRESHOLD = 4096
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39)
# the spectral evaluator's cross-check points, as fractions of its radius
_XVAL_POINTS = (0.31 + 0.17j, -0.52 + 0.61j, 0.05 + 0.93j, 0.71 - 0.13j,
                -0.23 - 0.47j, 0.97j, 0.89, -0.61)

VERDICT_PIZ = "PIZ-in-region"
VERDICT_OFF_AXIS = "off-axis-zero-found"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [re_min, re_max] x [im_min, im_max] in C."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        # NaN fails both comparisons, an infinite bound the second
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"degenerate or non-finite rectangle {self}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def corners(self) -> list[complex]:
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]

    def grow(self, eps: float) -> "Rectangle":
        return Rectangle(self.re_min - eps, self.re_max + eps,
                         self.im_min - eps, self.im_max + eps)

    def split(self, frac: float) -> tuple["Rectangle", "Rectangle"]:
        """Split the longer side at the given fraction."""
        if self.width >= self.height:
            cut = self.re_min + frac * self.width
            return (Rectangle(self.re_min, cut, self.im_min, self.im_max),
                    Rectangle(cut, self.re_max, self.im_min, self.im_max))
        cut = self.im_min + frac * self.height
        return (Rectangle(self.re_min, self.re_max, self.im_min, cut),
                Rectangle(self.re_min, self.re_max, cut, self.im_max))

    def as_dict(self) -> dict:
        return {"re_min": self.re_min, "re_max": self.re_max,
                "im_min": self.im_min, "im_max": self.im_max}


def default_region(R: float = 8.0) -> Rectangle:
    """[-R, R] x [0, R]i; symmetry of real measures supplies the other half."""
    return Rectangle(-R, R, 0.0, R)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class EntireMGF:
    """The entire function f(z) = E[exp(z X)] of a finite atomic law.

    Carries the cached variance, a symmetry flag, the nonnegative half of a
    symmetric source (atom at 0, then the x > 0 weights and positions) and
    the direct sum ``_direct``, built once and valid at every radius.
    Construction checks f(0) = 1 (unit mass) and, for symmetric sources,
    that Im f(it) = sum_j w_j sin(t x_j) over every atom is below 1e-10 at a
    few sampled t.
    """

    def __init__(self, source: DiscretizedDistribution):
        self.source = source
        self.variance = source.variance
        self.symmetric = source.symmetrized or source.is_symmetric()
        xs, ws, pos = source.xs, source.ws, source.xs > COALESCE_TOL
        # the atom at 0 of an unsymmetrised law may sit at +-1e-17
        self._ends = (float(xs.min()), float(xs.max()))
        self._cosh_half = (ws[np.abs(xs) <= COALESCE_TOL].sum(), ws[pos], xs[pos])
        if abs(float(np.sum(source.ws)) - 1.0) > 1e-12:
            raise ValueError("f(0) differs from 1 by more than 1e-12")
        # over every atom: the cosh halves would make f(it) real by construction
        if self.symmetric and np.any(np.abs(np.sin(np.outer((0.3, 0.7, 1.3), xs)) @ ws) > 1e-10):
            raise ValueError("symmetric source but f(it) not real to 1e-10")
        self._direct = _DirectEvaluator(self)
        self._fast: _SpectralEvaluator | _DirectEvaluator | None = None

    @property
    def support_radius(self) -> float:
        return max(abs(self._ends[0]), abs(self._ends[1]))

    @property
    def fast_path(self) -> str:
        """Which batch evaluator the last :meth:`evaluator` call returned."""
        return self._fast.path if self._fast is not None else "direct"

    def evaluator(self, radius: float):
        """Batch evaluator valid for |z| <= radius (spectral for large sources)."""
        if self._fast is not None and self._fast.radius >= radius:
            return self._fast
        n_atoms = len(self.source.xs)
        wmax = radius * max(self.support_radius, 1e-300)
        if n_atoms > _SPECTRAL_ATOM_THRESHOLD and wmax < 650.0:
            try:
                self._fast = _SpectralEvaluator(self, radius)
                return self._fast
            except NumericalError:
                pass
        self._fast = self._direct
        return self._fast


class _DirectEvaluator:
    """The direct atom sum, valid at every radius; :func:`mgf_eval` is one point of it.

    A symmetric source at |Re z| L < 650 (L the support radius) is summed
    over its nonnegative half, f = w_0 + sum w (e^{zx} + e^{-zx}) and
    f' = sum w x (e^{zx} - e^{-zx}), from p = e^{ax}, q = 1/p and c, s = cos,
    sin of bx (z = a + ib): on the axis p = q = 1, so f(iy) is exactly real and
    f'(iy) exactly imaginary.  Other points and sources are summed over all
    atoms of exp(z x_j - shift), shift = max_j Re z x_j.  Each point is one
    row of numpy's pairwise sums, so it gets the same bits in any batch, and
    f gets the same bits with or without f'.  ``eval_pair_batch`` is the one
    source of f' in the package: :func:`newton_refine` reads it.
    """

    path, K, xval_ratio, radius = "direct", None, None, math.inf

    def __init__(self, f: EntireMGF):
        self._ends, self._L, self._source = f._ends, f.support_radius, f.source
        self._half = f._cosh_half if f.symmetric else None

    def eval_pair_batch(self, zs):
        """(f, f') mantissas of an array of z sharing one log-scale per point."""
        (mant, dmant), shift = self._sums(zs, True)
        return mant, dmant, shift

    def values(self, zs):
        """(f mantissas, log-scales) of an array of z, without f'."""
        (mant,), shift = self._sums(zs, False)
        return mant, shift

    def _sums(self, zs, deriv: bool):
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        half = (self._half is not None) & (np.abs(zs.real) * self._L < 650.0)
        sums = np.empty((1 + deriv,) + zs.shape, dtype=complex)
        shift = np.zeros(zs.shape)
        for sel, part in ((half, self._half_sum), (~half, self._full_sum)):
            if sel.any():
                sums[:, sel], shift[sel] = part(zs[sel], deriv)
        return sums, shift

    def _half_sum(self, zs, deriv):
        # Re f = sum ((p + q) c) w, Im f = sum ((p - q) s) w; f' swaps the pairs
        # and takes x.  p + q = 2, p - q = 0 on the axis and c = 1, s = 0 on the
        # real axis exactly, so a block of such points (one point of a large
        # law) skips exp, or cos and sin
        at0, ws, xs = self._half
        sums = np.empty((1 + deriv, len(zs)), dtype=complex)
        chunk = max(1, int(1e5 // max(len(xs), 1)))
        for i in range(0, len(zs), chunk):
            sl = slice(i, i + chunk)
            z = zs[sl, None]
            if z.real.any():
                p = np.exp(z.real * xs)
                q = 1.0 / p
                even, odd = p + q, p - q
            else:
                even, odd = 2.0, None
            if z.imag.any():
                t = z.imag * xs
                cos, sin = np.cos(t), (np.sin(t) if deriv or odd is not None else None)
            else:
                cos, sin = 1.0, None
            sums[0, sl] = _term_sum(even, cos, ws) + 1j * _term_sum(odd, sin, ws)
            if deriv:
                sums[1, sl] = _term_sum(odd, cos, ws, xs) + 1j * _term_sum(even, sin, ws, xs)
        sums.real[0] += at0
        return sums, 0.0

    def _full_sum(self, zs, deriv):
        xs, ws = self._source.xs, self._source.ws
        shift = np.where(zs.real >= 0, zs.real * self._ends[1], zs.real * self._ends[0])
        sums = np.empty((1 + deriv,) + zs.shape, dtype=complex)
        chunk = max(1, int(1e6 // len(xs)))
        for i in range(0, len(zs), chunk):
            sl = slice(i, i + chunk)
            expo = np.exp(zs[sl, None] * xs - shift[sl, None])
            sums[0, sl] = np.sum(expo * ws, axis=1)
            if deriv:
                sums[1, sl] = np.sum(expo * (ws * xs), axis=1)
        return sums, shift


def _term_sum(h, t, ws, xs=None):
    """sum_j (h_j t_j) w_j [x_j] over the last axis; None is an exact zero factor."""
    if h is None or t is None:
        return 0.0
    terms = h * t * ws
    return np.sum(terms if xs is None else terms * xs, axis=-1)


def _chebyshev_moments(u: np.ndarray, cols: np.ndarray, K: int):
    """sum_j cols[j] T_k(u_j) for k = 0..K as a (K + 1, ncols) array.

    Works through the atoms in blocks: an in-place three-term recurrence
    fills a (K + 1) x block table of T_k(u_j) (1.5 MB at K = 92), and one
    matrix product with the block's columns accumulates every moment row.
    """
    block = 2048
    out = np.zeros((K + 1, cols.shape[1]))
    table = np.empty((K + 1, min(block, len(u))))
    for i in range(0, len(u), block):
        ub = u[i:i + block]
        t = table[:, :len(ub)]
        t[0] = 1.0
        t[1] = ub
        u2 = 2.0 * ub
        for k in range(2, K + 1):
            np.multiply(u2, t[k - 1], out=t[k])
            t[k] -= t[k - 2]
        out += t @ cols[i:i + len(ub)]
    return out


class _SpectralEvaluator:
    """Chebyshev--Bessel compression of the atom sum.

    Writing x = L u with u in [-1, 1] and w = z L, the expansion
    exp(w u) = I_0(w) + 2 sum_k I_k(w) T_k(u) turns f(z) into
    m_0 I_0(w) + 2 sum_k m_k I_k(w) with m_k the (exact) Chebyshev moments
    of the measure; it answers f only, as ``values``, since Newton steps
    read the direct sum.  For a symmetric source the moments come from the
    nonnegative half (``EntireMGF._cosh_half``) with doubled weights and
    exact parity, since T_k(-u) = (-1)^k T_k(u): odd m_k vanish, and the
    atom at 0 adds w_0 T_k(0) = w_0 (-1)^(k/2) to the even m_k.  The Bessel row
    I_0..I_K at complex w is obtained spectrally as the Fourier coefficients
    of t -> exp(w cos t).  Truncation K is chosen so the neglected terms are
    below machine precision for |z| <= radius; the instance is
    cross-validated against the direct sum's f (the values of :func:`mgf_eval`,
    in one batch) at the eight ``_XVAL_POINTS`` at construction
    (``xval_ratio`` is the largest error over its bound) and raises
    NumericalError on disagreement.
    """

    path = "spectral"

    def __init__(self, f: EntireMGF, radius: float):
        self.radius = radius
        self.scale = max(f.support_radius, 1e-300)
        wmax = radius * self.scale
        K = self.K = int(1.3 * wmax) + 48
        self.M = 1 << int(math.ceil(math.log2(max(4 * K, 64))))
        if f.symmetric:
            at0, ws, xs = f._cosh_half
            ws = 2.0 * ws
        else:
            ws, xs = f.source.ws, f.source.xs
        # the ws * xs column is not used, but a one-column product rounds
        # differently in BLAS and moves zero-ladder axis zeros where |g'| ~ 1e-10
        m = _chebyshev_moments(xs / self.scale, np.column_stack([ws, ws * xs]), K)[:, 0]
        if f.symmetric:
            m[1::2] = 0.0
            m[0::2] += at0 * (-1.0) ** np.arange(len(m[0::2]))
        m[1:] *= 2.0
        self._m = m
        self._cos_t = np.cos(2.0 * math.pi * np.arange(self.M) / self.M)
        self._symmetric = f.symmetric
        self._validate(f)

    def values(self, zs):
        """(f, log-scales) of an array of z; the log-scale is 0 at every point."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        out_f = np.empty(zs.shape, dtype=complex)
        chunk = max(1, int(2e6 // self.M))
        for i in range(0, len(zs), chunk):
            w = zs[i:i + chunk] * self.scale
            g = np.exp(w[:, None] * self._cos_t[None, :])
            coeff = np.fft.fft(g, axis=1)[:, : self.K + 1] / self.M
            out_f[i:i + chunk] = coeff @ self._m
        if self._symmetric:
            # f(iy) = E cos(yX) is real; the FFT's rounding would leave about
            # 1e-16 in its imaginary part
            out_f.imag[zs.real == 0.0] = 0.0
        return out_f, np.zeros(zs.shape)

    def _validate(self, f: EntireMGF):
        pts = self.radius * np.array(_XVAL_POINTS)
        fast, _ = self.values(pts)
        mant, shift = f._direct.values(pts)
        direct = np.array([_unscale(m, s) for m, s in zip(mant, shift)])
        scale = np.exp(np.abs(pts.real) * self.scale)
        bound = 1e-10 * np.maximum(np.abs(direct), 1e-12 * scale) + 1e-13 * scale
        self.xval_ratio = float(np.max(np.abs(fast - direct) / bound))
        if not self.xval_ratio <= 1.0:
            raise NumericalError("spectral MGF evaluator failed cross-validation against direct sum")


def _unscale(mant: complex, shift: float) -> complex:
    """mant e^shift, or an OverflowError naming the log-scale if it cannot be represented."""
    log_abs = shift + math.log(abs(mant)) if mant != 0 else -math.inf
    if log_abs > 700.0:
        raise OverflowError(f"|f(z)| overflows float64; log scale {shift:.6g}, "
                            f"use f.evaluator(radius).values for the mantissa")
    return complex(mant * math.exp(shift))


def mgf_eval(f: EntireMGF, z: complex) -> complex:
    """f(z) = sum_j w_j exp(z x_j): the direct sum ``f._direct`` at one point.

    Computes f only, with the same bits as the direct evaluator's ``values``.
    Every reported residual is one of these.  A value too large for float64
    raises an OverflowError naming its log-scale.
    """
    mant, shift = f._direct.values(np.array([complex(z)]))
    return _unscale(mant[0], float(shift[0]))


# ---------------------------------------------------------------------------
# argument-principle counting
# ---------------------------------------------------------------------------

def _contour_winding(evaluator, rect: Rectangle, floor_log: float, lam: float):
    """Winding number of f along the rectangle boundary, or raise NumericalError.

    Initial sampling resolves the intrinsic frequency of the atom sum: each
    term w exp(z x) rotates at rate at most lam = max |x| along the contour,
    so spacing 0.5/lam keeps healthy phase increments well under pi/2; the
    increments that still exceed pi/2 signal a nearby zero and trigger
    bisection of that segment.
    """
    h0 = 0.5 / max(lam, 1e-9)
    corners = rect.corners() + [rect.corners()[0]]
    pts: list[complex] = []
    for a, b in zip(corners[:-1], corners[1:]):
        per_side = max(8, min(int(math.ceil(abs(b - a) / h0)), 20000))
        for t in range(per_side):
            pts.append(a + (b - a) * (t / per_side))
    pts.append(corners[0])
    zs = np.array(pts, dtype=complex)
    mant, shift = evaluator.values(zs)

    min_seg = 1e-12 * max(rect.diameter, 1e-30)
    for _ in range(64):
        with np.errstate(divide="ignore"):
            logf = shift + np.log(np.abs(mant))
        if np.any(logf < floor_log):
            raise NumericalError("zero on contour: |f| under the boundary floor")
        inc = np.angle(mant[1:] / mant[:-1])
        bad = np.nonzero(np.abs(inc) >= 0.5 * math.pi)[0]
        if len(bad) == 0:
            winding = float(np.sum(inc)) / (2.0 * math.pi)
            nearest = round(winding)
            if abs(winding - nearest) > 0.2:
                raise NumericalError(f"winding {winding:.4f} is not close to an integer")
            return int(nearest)
        seg_len = np.abs(zs[bad + 1] - zs[bad])
        if np.any(seg_len < min_seg):
            raise NumericalError("zero on contour: phase jump persists at segment scale")
        mids = 0.5 * (zs[bad] + zs[bad + 1])
        m_mant, m_shift = evaluator.values(mids)
        zs = np.insert(zs, bad + 1, mids)
        mant = np.insert(mant, bad + 1, m_mant)
        shift = np.insert(shift, bad + 1, m_shift)
        if len(zs) > 200000:
            raise NumericalError("contour refinement exceeded the point budget")
    raise NumericalError("contour refinement did not converge")


def count_zeros_rectangle(f: EntireMGF, rect: Rectangle, *, perturb: bool = True) -> int:
    """Number of zeros of f inside the rectangle, with multiplicity.

    The count is the winding number of f along the boundary, tracked with
    adaptive segment bisection until every phase increment is below pi/2.
    If |f| dips under BOUNDARY_FLOOR on the discretized contour the
    rectangle is grown by a tiny amount and retried (a zero too close to the
    boundary); after MAX_PERTURB failures a NumericalError is raised.
    """
    evaluator = f.evaluator(_rect_radius(rect))
    floor_log = math.log(BOUNDARY_FLOOR)
    lam = f.support_radius
    eps = 0.0
    for attempt in range(MAX_PERTURB + 1):
        try:
            return _contour_winding(evaluator, rect.grow(eps) if eps else rect,
                                    floor_log, lam)
        except NumericalError:
            if not perturb or attempt == MAX_PERTURB:
                raise
            eps = rect.diameter * 1e-7 * 4.0**attempt


def _rect_radius(rect: Rectangle) -> float:
    return max(abs(rect.re_min), abs(rect.re_max), abs(rect.im_min), abs(rect.im_max)) * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# zero location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroInfo:
    location: complex
    residual: float
    refined: bool
    multiplicity: int = 1


@dataclass(frozen=True)
class ZeroReport:
    region: Rectangle
    zeros: tuple[ZeroInfo, ...]
    cell_counts: tuple[tuple[Rectangle, int], ...] = field(repr=False, default=())
    piz_verdict: str = VERDICT_INCONCLUSIVE
    max_abs_re: float = 0.0
    total_count: int = 0
    notes: tuple[str, ...] = ()
    # {"path", "K", "xval_ratio"} of the batch evaluator; K and xval_ratio
    # (largest cross-check error over its bound) are None when direct
    evaluator: dict | None = field(default=None, hash=False)

    def to_json(self) -> str:
        return json.dumps({
            "format_version": 1,
            "region": self.region.as_dict(),
            "zeros": [{"re": z.location.real, "im": z.location.imag,
                       "residual": z.residual, "refined": z.refined,
                       "multiplicity": z.multiplicity} for z in self.zeros],
            "verdict": self.piz_verdict,
            "max_abs_re": self.max_abs_re,
            "total_count": self.total_count,
            "cells": [{"rect": r.as_dict(), "count": c} for r, c in self.cell_counts],
            "notes": list(self.notes),
            "evaluator": self.evaluator,
        }, sort_keys=True)

    def zeros_csv(self) -> str:
        lines = ["re,im,residual,refined,multiplicity"]
        for z in self.zeros:
            lines.append(f"{z.location.real!r},{z.location.imag!r},{z.residual!r},"
                         f"{int(z.refined)},{z.multiplicity}")
        return "\n".join(lines) + "\n"


def zero_report_from_json(text: str) -> ZeroReport:
    """Rebuild a ZeroReport from its JSON serialization (cells omitted).

    Accepts both the bare report and the command-line wrapper that nests it
    under a "results" key.  A missing "region", "zeros" or "verdict", a
    region that is not four finite bounds, and a zero that lacks "re", "im",
    "residual" or "refined" raise ValueError naming it.
    """
    doc = json.loads(text)
    if isinstance(doc, dict) and "region" not in doc and "results" in doc:
        doc = doc["results"]
    for key in ("region", "zeros", "verdict"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"zero report JSON: not an object with the key {key!r}")
    region = doc["region"]  # Rectangle refuses non-finite and degenerate bounds
    if not (isinstance(region, dict) and sorted(region) == ["im_max", "im_min", "re_max", "re_min"]
            and all(isinstance(b, (int, float)) for b in region.values())):
        raise ValueError(f"zero report JSON: region {region!r} is not the four bounds "
                         "re_min, re_max, im_min, im_max")
    if not isinstance(doc["zeros"], list):
        raise ValueError(f"zero report JSON: zeros {doc['zeros']!r} is not a list")
    for z in doc["zeros"]:
        if not (isinstance(z, dict) and {"re", "im", "residual", "refined"} <= set(z)):
            raise ValueError(f"zero report JSON: zero {z!r} lacks one of the keys "
                             "re, im, residual, refined")
    region = Rectangle(**region)
    zeros = tuple(ZeroInfo(complex(z["re"], z["im"]), z["residual"],
                           bool(z["refined"]), int(z.get("multiplicity", 1)))
                  for z in doc["zeros"])
    return ZeroReport(region=region, zeros=zeros, piz_verdict=doc["verdict"],
                      max_abs_re=doc.get("max_abs_re", 0.0),
                      total_count=doc.get("total_count", len(zeros)),
                      notes=tuple(doc.get("notes", ())),
                      evaluator=doc.get("evaluator"))


def _abs_values(mant, shift) -> np.ndarray:
    """|mant e^shift| point by point, each through :func:`_unscale`."""
    return np.array([abs(_unscale(m, s)) for m, s in zip(mant, shift)])


def newton_refine(f: EntireMGF, z0, tol: float, max_iter: int = 100):
    """Newton from each start in ``z0`` on the direct sum ``f._direct``, in lockstep.

    Returns arrays (z, |f(z)|, converged), one entry per start (a scalar is
    one start).  Convergence means the direct-sum residual mgf_eval is below
    ``tol``; one polishing step is taken past that gate.  A start also stops
    where f' = 0, where its step falls below 1e-16 (1 + |z|), or after
    ``max_iter`` steps; then its residual is evaluated at its last z.  Every
    iteration evaluates the starts still running in one ``eval_pair_batch``
    of the direct sum, which gives each point the bits of a batch of its
    own: each start ends exactly where a run from it alone would, whichever
    batch evaluator counted the zeros.  Each residual is read off the
    evaluation that gives the step.
    """
    z = np.array(z0, dtype=complex).reshape(-1)
    res = np.empty(z.shape)
    ok = np.zeros(z.shape, dtype=bool)
    run = np.arange(len(z))
    for _ in range(max_iter):
        if not len(run):
            break
        fz, dfz, shift = f._direct.eval_pair_batch(z[run])
        r = _abs_values(fz, shift)
        conv, move = r < tol, dfz != 0
        step = np.zeros(fz.shape, dtype=complex)
        np.divide(fz, dfz, out=step, where=move)
        z[run[move]] -= step[move]  # for a converged start, its polishing step
        # np.hypot is abs() of one complex bit for bit; np.abs of an array may not be
        stall = move & (np.hypot(step.real, step.imag)
                        < 1e-16 * (1.0 + np.hypot(z[run].real, z[run].imag)))
        stop = conv | ~move | stall
        kept = conv & ~move  # converged where f' = 0: z did not move and r stands
        ok[run[conv]] = True
        res[run[kept]] = r[kept]
        last = run[stop & ~kept]
        res[last] = _abs_values(*f._direct.values(z[last]))
        ok[last] |= res[last] < tol
        run = run[~stop]
    res[run] = _abs_values(*f._direct.values(z[run]))
    ok[run] = res[run] < tol
    return z, res, ok


def _split_and_newton(f: EntireMGF, rect: Rectangle, cnt: int, tol: float,
                      cells: list, notes: list[str]) -> list[ZeroInfo]:
    """The general path: split rect until each cell holds one zero, then Newton.

    A cell is refined from its centre once it holds one zero and is under
    MIN_CELL_DIAM across, or as a cluster of its count once under 1e-5.
    """
    found: list[ZeroInfo] = []
    stack: list[tuple[Rectangle, int]] = [(rect, cnt)]
    while stack:
        rect, cnt = stack.pop()
        if cnt == 0:
            cells.append((rect, 0))
            continue
        if (cnt == 1 and rect.diameter < MIN_CELL_DIAM) or rect.diameter < 1e-5:
            (z,), (res,), (ok,) = newton_refine(f, rect.center, tol)
            found.append(ZeroInfo(z, float(res), bool(ok), cnt))
            cells.append((rect, cnt))
            if cnt != 1:
                notes.append(f"multiplicity-{cnt} cluster at {z:.6g}")
            continue
        for frac in _SPLIT_FRACTIONS:
            left, right = rect.split(frac)
            try:
                c1 = count_zeros_rectangle(f, left, perturb=False)
                c2 = count_zeros_rectangle(f, right, perturb=False)
            except NumericalError:
                continue
            if c1 + c2 == cnt:
                stack += [(left, c1), (right, c2)]
                break
        else:
            raise NumericalError(
                f"could not split cell {rect} consistently (count {cnt}); "
                "a zero may sit on every candidate split line")
    return found


def _axis_values(evaluator, ys: np.ndarray) -> np.ndarray:
    """g(y) = f(iy), real for a symmetric source; the log-scale is 0 on the axis."""
    return evaluator.values(1j * ys)[0].real


def _axis_roots(evaluator, lo: float, hi: float, n: int):
    """Sign changes of g on n + 1 equispaced points of [lo, hi], bisected together.

    Every bracket is halved in one batch evaluation per step until no bracket
    shrinks any more.  Returns (roots, sample ordinates, sample values).
    """
    ys = np.linspace(lo, hi, n + 1)
    g = _axis_values(evaluator, ys)
    i = np.nonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))[0]
    a, b, neg_a = ys[i], ys[i + 1], np.signbit(g[i])
    while len(a):
        mid = 0.5 * (a + b)
        if not np.any((mid > a) & (mid < b)):
            break
        left = np.signbit(_axis_values(evaluator, mid)) == neg_a
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    return 0.5 * (a + b), ys, g


def _axis_split(f: EntireMGF, evaluator, m: float, lo: float, hi: float,
                g_lo: float, g_hi: float, cnt: int):
    """Cut of the band [-m, m] x [lo, hi] whose counts add up to cnt, or None.

    Each half's count must have the parity of g's sign change across it
    (mirror pairs come in twos), which catches a shared edge whose miscount
    cancels in the sum.
    """
    cuts = lo + (hi - lo) * np.array(_SPLIT_FRACTIONS)
    for cut, g_cut in zip(cuts, _axis_values(evaluator, cuts)):
        try:
            c1 = count_zeros_rectangle(f, Rectangle(-m, m, lo, cut), perturb=False)
            c2 = count_zeros_rectangle(f, Rectangle(-m, m, cut, hi), perturb=False)
        except NumericalError:
            continue
        if (c1 + c2 == cnt and c1 % 2 == (np.signbit(g_lo) != np.signbit(g_cut))
                and c2 % 2 == (np.signbit(g_cut) != np.signbit(g_hi))):
            return [(lo, cut, c1), (cut, hi, c2)]
    return None


def _axis_zeros(f: EntireMGF, evaluator, core: Rectangle, cnt: int, tol: float,
                cells: list, notes: list[str]) -> list[ZeroInfo]:
    """Zeros of a symmetric source in the core [-m, m] x [lo, hi].

    The sign changes of g are axis zeros; when they fall short of a band's
    count the band is cut (_axis_split), or, once at most 0.5/lam high, its
    side box [h, m] may hold the rest in mirror pairs z, -conj z, located on
    the general path.  A band that cannot be cut is an axis cluster placed
    at the extremum of g.
    """
    lam = max(f.support_radius, 1e-9)
    m = core.re_max
    found: list[ZeroInfo] = []
    bands = [(core.im_min, core.im_max, cnt)]
    while bands:
        lo, hi, cnt = bands.pop()
        h = hi - lo
        ys, grid, g = _axis_roots(evaluator, lo, hi, max(64, math.ceil(4.0 * lam * h)))
        res = _abs_values(*f._direct.values(1j * ys)).tolist()
        roots = [ZeroInfo(complex(0.0, y), r, r < tol, 1) for y, r in zip(ys, res)]
        accounted = len(roots) == cnt
        n_side = 0
        if not accounted and h <= 0.5 / lam and h < m:
            try:
                n_side = count_zeros_rectangle(f, Rectangle(h, m, lo, hi), perturb=False)
            except NumericalError:
                pass
            accounted = len(roots) + 2 * n_side == cnt
        if not accounted and h >= 1e-5:
            halves = _axis_split(f, evaluator, m, lo, hi, g[0], g[-1], cnt)
            if halves:
                bands += halves
                continue
        found += roots
        cells.append((Rectangle(-m, m, lo, hi), cnt))
        if accounted and n_side:
            for z in _split_and_newton(f, Rectangle(h, m, lo, hi), n_side, tol, cells, notes):
                found += [z, replace(z, location=complex(-z.location.real, z.location.imag))]
        elif cnt > len(roots):
            y = float(grid[np.argmin(np.abs(g))])
            r = abs(mgf_eval(f, 1j * y))
            found.append(ZeroInfo(complex(0.0, y), r, r < tol, cnt - len(roots)))
            notes.append(f"multiplicity-{cnt - len(roots)} axis cluster at {y:.6g}i "
                         f"in a band {h:.2e} high")
    return found


def locate_zeros(f: EntireMGF, region: Rectangle | None = None,
                 tol: float = DEFAULT_TOL) -> ZeroReport:
    """Locate all zeros of f in the region and deliver a PIZ verdict.

    For a symmetric source the part [-m, m] x [im_min, im_max] of the region
    takes the axis path (_axis_zeros): axis zeros are sign changes of
    g(y) = f(iy) bisected to adjacent floats, with Re z = 0 exactly.  The
    rest, and any region of another source, takes the general path
    (_split_and_newton), whose Newton runs stop at direct-sum |f| < tol.
    The verdict is off-axis-zero-found iff some refined zero has
    |Re z| > 100 tol; unrefined zeros, or listed zeros that do not add up to
    the contour count, make it inconclusive.  The report depends only on the
    law, the region and tol: an evaluator that f cached for another radius
    is not reused.
    """
    if region is None:
        region = default_region()
    if not tol > 0:
        raise ValueError("tol must be positive")
    if f._fast is not None and f._fast.radius != _rect_radius(region):
        f._fast = None
    evaluator = f.evaluator(_rect_radius(region))
    notes: list[str] = []
    cells: list[tuple[Rectangle, int]] = []
    found: list[ZeroInfo] = []

    total = count_zeros_rectangle(f, region)
    general = [(region, total)]
    if f.symmetric and region.re_min < 0.0 < region.re_max:
        m = min(-region.re_min, region.re_max)
        core = Rectangle(-m, m, region.im_min, region.im_max)
        strips = [Rectangle(a, b, region.im_min, region.im_max)
                  for a, b in ((region.re_min, -m), (m, region.re_max)) if b > a]
        core_cnt = count_zeros_rectangle(f, core) if strips else total
        found += _axis_zeros(f, evaluator, core, core_cnt, tol, cells, notes)
        general = [(s, count_zeros_rectangle(f, s)) for s in strips]
    for rect, cnt in general:
        found += _split_and_newton(f, rect, cnt, tol, cells, notes)

    # merge duplicates (Newton iterates that converged to the same point)
    merged: list[ZeroInfo] = []
    for z in sorted(found, key=lambda zi: (zi.location.imag, zi.location.real)):
        if merged and abs(z.location - merged[-1].location) < MERGE_DISTANCE:
            prev = merged[-1]
            merged[-1] = ZeroInfo(prev.location, min(prev.residual, z.residual),
                                  prev.refined and z.refined,
                                  prev.multiplicity + z.multiplicity)
        else:
            merged.append(z)

    n_listed = sum(z.multiplicity for z in merged)
    if n_listed != total:
        notes.append(f"count mismatch: contour total {total}, listed {n_listed}")

    max_re = max((abs(z.location.real) for z in merged), default=0.0)
    if any(z.refined and abs(z.location.real) > OFFAXIS_FACTOR * tol for z in merged):
        verdict = VERDICT_OFF_AXIS
    elif n_listed != total or not all(z.refined for z in merged):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_PIZ

    return ZeroReport(region=region, zeros=tuple(merged),
                      cell_counts=tuple(cells), piz_verdict=verdict,
                      max_abs_re=max_re, total_count=total, notes=tuple(notes),
                      evaluator={"path": evaluator.path, "K": evaluator.K,
                                 "xval_ratio": evaluator.xval_ratio})


def refinement_stable_report(dist_factory, N: int, region: Rectangle | None = None,
                             tol: float = DEFAULT_TOL):
    """Run locate_zeros at grid N and 2N; keep the report only where stable.

    ``dist_factory(N)`` must return the discretized law at angular grid size
    N.  Zeros are matched both ways within GRID_STABILITY_FACTOR * tol: a
    zero at 2N with no partner at N is a quadrature artifact and is dropped,
    a zero at N with no partner at 2N has vanished.  Either, or a contour
    count or verdict that differs between the grids, is noted and makes the
    verdict inconclusive.  Returns (report_at_2N, max_zero_displacement),
    the displacement taken over both directions.
    """
    f1 = EntireMGF(dist_factory(N))
    f2 = EntireMGF(dist_factory(2 * N))
    r1 = locate_zeros(f1, region, tol)
    r2 = locate_zeros(f2, region, tol)
    limit = GRID_STABILITY_FACTOR * tol

    def nearest(z: ZeroInfo, others) -> float:
        return min((abs(z.location - o.location) for o in others), default=math.inf)

    keep: list[ZeroInfo] = []
    notes = list(r2.notes)
    max_disp = 0.0
    for z2 in r2.zeros:
        d = nearest(z2, r1.zeros)
        max_disp = max(max_disp, d)
        if d <= limit:
            keep.append(z2)
        else:
            notes.append(f"zero at {z2.location:.8g} unstable under grid doubling "
                         f"(moved {d:.3e}); dropped")
    stable = len(keep) == len(r2.zeros)
    for z1 in r1.zeros:
        d = nearest(z1, r2.zeros)
        max_disp = max(max_disp, d)
        if d > limit:
            notes.append(f"zero at {z1.location:.8g} on grid {N} vanished on grid "
                         f"{2 * N} (nearest {d:.3e})")
            stable = False
    if r1.total_count != r2.total_count:
        notes.append(f"contour count {r1.total_count} on grid {N} but "
                     f"{r2.total_count} on grid {2 * N}")
        stable = False
    if r1.piz_verdict != r2.piz_verdict:
        notes.append(f"verdict {r1.piz_verdict} on grid {N} but "
                     f"{r2.piz_verdict} on grid {2 * N}")
        stable = False
    verdict = r2.piz_verdict if stable else VERDICT_INCONCLUSIVE
    report = replace(r2, zeros=tuple(keep), piz_verdict=verdict, notes=tuple(notes))
    return report, max_disp


# ---------------------------------------------------------------------------
# Hadamard product fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HadamardFit:
    """Quadratic coefficient and zero sum for f = exp(B z^2) prod (1 + z^2/y_k^2).

    ``variance_residual`` is |Var - 2 (B + sum_k y_k^{-2} + tail)|; since B is
    clipped at 0 the residual is nonzero exactly when the zero sum plus tail
    overshoots Var/2.
    """

    B: float
    y_k: tuple[float, ...]
    tail_correction: float
    variance_residual: float
    sum_inv_sq: float
    spacing: float
    offset: float

    def identity_gap(self, variance: float) -> float:
        """|Var - 2 (sum + tail)| with B excluded (the raw zero-sum identity)."""
        return abs(variance - 2.0 * (self.sum_inv_sq + self.tail_correction))


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0: psi'(x) = 1/x^2 + psi'(x + 1) up to x >= 20, then
    the asymptotic series 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7)
    - 1/(30x^9) (Abramowitz & Stegun 6.4.12)."""
    head = 0.0
    while x < 20.0:
        head += 1.0 / (x * x)
        x += 1.0
    t = 1.0 / (x * x)
    return head + 1.0 / x + 0.5 * t + t / x * (1 / 6 - t * (1 / 30 - t * (1 / 42 - t / 30)))


def _axis_ordinates(zeros, tol: float) -> list[float]:
    ys = []
    for z in zeros:
        if abs(z.location.real) > OFFAXIS_FACTOR * tol:
            raise ValueError(f"off-axis zero {z.location} passed to hadamard_fit")
        if z.location.imag <= 0:
            raise ValueError(f"zero ordinates must be positive, got {z.location}")
        ys.extend([z.location.imag] * z.multiplicity)
    return sorted(ys)


def hadamard_fit(f: EntireMGF, zeros, Y: float | None = None,
                 tol: float = DEFAULT_TOL) -> HadamardFit:
    """Fit B from the variance identity Var = 2 (B + sum_k y_k^{-2}).

    ``zeros`` is a ZeroReport or a list of ZeroInfo on the positive imaginary
    axis, each counted with its multiplicity (only Im z <= Y are used).  The unseen tail
    of the zero sum is extrapolated by fitting the asymptotically linear
    spacing y_k ~ alpha k + gamma on the top half of the supplied zeros and
    summing (alpha k + gamma)^{-2} beyond the last one with the trigamma
    function (its recurrence up to argument 20, then the asymptotic series
    of Abramowitz & Stegun 6.4.12).  B = max(0, Var/2 - sum - tail).
    """
    if not f.symmetric:
        raise ValueError("hadamard_fit requires a symmetric source")
    if isinstance(zeros, ZeroReport):
        zeros = zeros.zeros
    ys = _axis_ordinates(zeros, tol)
    if Y is not None:
        ys = [y for y in ys if y <= Y]
    ys_arr = np.asarray(ys)
    s = float(np.sum(ys_arr**-2)) if len(ys) else 0.0

    alpha = gamma = 0.0
    tail = 0.0
    K = len(ys)
    if K >= 6:
        k_idx = np.arange(1, K + 1, dtype=float)
        half = K // 2
        A = np.stack([k_idx[half:], np.ones(K - half)], axis=1)
        coef, *_ = np.linalg.lstsq(A, ys_arr[half:], rcond=None)
        alpha, gamma = float(coef[0]), float(coef[1])
        if alpha > 0 and K + 1 + gamma / alpha > 0:
            tail = _trigamma(K + 1 + gamma / alpha) / alpha**2

    var = f.variance
    B = max(0.0, 0.5 * var - s - tail)
    residual = abs(var - 2.0 * (B + s + tail))
    return HadamardFit(B=B, y_k=tuple(ys), tail_correction=tail,
                       variance_residual=residual, sum_inv_sq=s,
                       spacing=alpha, offset=gamma)
