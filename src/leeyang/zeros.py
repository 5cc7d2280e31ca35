"""Complex-zero analysis of moment generating functions of atomic laws.

For a finite atomic law mu = {(x_j, w_j)} the moment generating function
f(z) = sum_j w_j exp(z x_j) is entire; this module locates its complex zeros
and certifies whether, inside a rectangle, they all sit on the imaginary
axis (the "pure imaginary zeros" property).

The toolchain is:

* :class:`EntireMGF` -- f itself, as the direct atom sum: ``values`` returns
  f as mantissas and their log-scales, ``eval_pair_batch`` f and f'; a
  symmetric source is summed over its nonnegative half (so f(iy) is exactly
  real);
* :func:`mgf_eval` -- f(z) alone at one point, with the bits of ``values``
  and scaled against overflow; every reported residual is one of these;
* :meth:`EntireMGF.evaluator` -- builds the batch evaluator for contours and
  axis samples: the MGF itself, or for sources with many atoms the MGF of a
  new Gauss rule of the law; the MGF keeps no reference to it;
* :func:`count_zeros_rectangle` -- winding number, on the evaluator it is
  given, along the rectangle boundary with adaptive phase tracking
  (segments are bisected until every phase increment is below pi/2);
* :func:`locate_zeros` -- a :class:`ZeroReport` from one evaluator built for
  its region; for a symmetric source the axis-symmetric part of the region
  is certified by the bisected sign changes of the real g(y) = f(iy) (one
  Newton step on the direct sum finishes those bisected on a Gauss law),
  everything else by recursive rectangle subdivision driven by the counter
  and :func:`newton_refine`, whose f and f' are always the direct sum's;
* :func:`hadamard_fit` -- the quadratic coefficient B and the variance
  identity Var = 2 (B + sum_k y_k^{-2}) for the order-2 product form
  f(z) = exp(B z^2) prod_k (1 + z^2 / y_k^2) of a symmetric source.

A K-point Gauss rule is itself a positive atomic law that matches 2K - 1
moments, so every evaluator is an :class:`EntireMGF`; K comes from an a
priori Chebyshev--Bessel bound on the truncation, a symmetric source's rule
is built on t = x^2 from its nonnegative half and mirrored exactly, and
every rule is cross-validated against the direct sum's f at eight points in
one batch.  The report records which evaluator ran.

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
NEWTON_MAX_ITER = 100
_GAUSS_ATOM_THRESHOLD = 4096
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39)
# the Gauss law's cross-check points, as fractions of its radius
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


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class EntireMGF:
    """The entire function f(z) = E[exp(z X)] of a finite atomic law, summed directly.

    The MGF is itself the direct batch evaluator, valid at every radius
    (``path = "direct"``, ``K = xval_ratio = None``);
    :func:`mgf_eval` is one point of it.  A symmetric source keeps its
    nonnegative half ``_half`` (atom at 0, then the x > 0 weights and
    positions) and at |Re z| L < 650 (L the support radius) is summed over
    it, f = w_0 + sum w (e^{zx} + e^{-zx}) and f' = sum w x (e^{zx} - e^{-zx}),
    from p = e^{ax}, q = 1/p and c, s = cos, sin of bx (z = a + ib): on the
    axis p = q = 1, so f(iy) is exactly real and f'(iy) exactly imaginary.
    Other points and sources are summed over all atoms of exp(z x_j - shift),
    shift = max_j Re z x_j.  Each point is one row of numpy's pairwise sums,
    so it gets the same bits in any batch, and f gets the same bits with or
    without f'.  ``eval_pair_batch`` is the one source of f' in the package:
    :func:`newton_refine` reads it.

    Construction checks, for symmetric sources that are not a bitwise
    mirror, that Im f(it) = sum_j w_j sin(t x_j) over every atom is below
    1e-10 at a few sampled t.
    """

    path, K, xval_ratio = "direct", None, None

    def __init__(self, source: DiscretizedDistribution):
        self.source = source
        self.variance = source.variance
        mirror = source.is_mirror()
        self.symmetric = mirror or source.is_symmetric()
        xs, ws, pos = source.xs, source.ws, source.xs > COALESCE_TOL
        # the atom at 0 of an unsymmetrised law may sit at +-1e-17
        self._ends = (float(xs.min()), float(xs.max()))
        self.support_radius = max(abs(self._ends[0]), abs(self._ends[1]))
        # over every atom: the half sums would make f(it) real by construction; in a
        # bitwise mirror w sin(tx) and w sin(-tx) cancel, so only rounding could fail it
        if (self.symmetric and not mirror
                and np.any(np.abs(np.sin(np.outer((0.3, 0.7, 1.3), xs)) @ ws) > 1e-10)):
            raise ValueError("symmetric source but f(it) not real to 1e-10")
        self._half = ((ws[np.abs(xs) <= COALESCE_TOL].sum(), ws[pos], xs[pos])
                      if self.symmetric else None)
        self.fast_path = "direct"  # the path of the last :meth:`evaluator`

    def evaluator(self, radius: float):
        """A batch evaluator valid for |z| <= radius, built anew on every call.

        For a source of more than 4096 atoms, the MGF of its Gauss rule
        (:func:`_gauss_law`) when that is smaller than the law and passes its
        cross-check; else the MGF itself.  Either way ``fast_path`` records
        its path and the MGF keeps no reference to it.
        """
        ev = self
        if len(self.source.xs) > _GAUSS_ATOM_THRESHOLD and radius * self.support_radius < 650.0:
            ev = _gauss_law(self, radius) or self
        self.fast_path = ev.path
        return ev

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
        half = (self._half is not None) & (np.abs(zs.real) * self.support_radius < 650.0)
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
        xs, ws = self.source.xs, self.source.ws
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


def _gauss_degree(w: float) -> int:
    """Least n with 4 sum_{k>n} (w/2)^k / k! below 2^-53, for 0 <= w < 1400 (finite terms).

    As |I_k(v)| <= (|v|/2)^k e^{|Re v|} / k! (DLMF 10.14.4), this bounds
    4 sum_{k>n} |I_k(v)| e^{-|Re v|} at |v| <= w; past k = w/2 the terms fall
    geometrically, so the tail is bounded from its first term.
    """
    h = 0.5 * w
    n, term = 0, h  # term = h^(n+1) / (n+1)!
    while not (n + 2 > h and 4.0 * term < 2.0**-53 * (1.0 - h / (n + 2))):
        n += 1
        term *= h / (n + 1)
    return n


def _gauss_rule(t: np.ndarray, w: np.ndarray, K: int):
    """(nodes, weights) of the K-point Gauss rule of the measure sum_j w_j delta_{t_j}.

    Stieltjes' procedure on the atoms, then the eigen-decomposition of the
    K x K Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).
    """
    mass = float(np.sum(w))
    alpha, beta = np.zeros(K), np.zeros(K)  # beta[k]: the off-diagonal above row k
    q_prev, q = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(mass))
    for k in range(K):
        alpha[k] = np.dot(w * q * q, t)
        if k == K - 1:
            break
        r = (t - alpha[k]) * q - beta[k - 1] * q_prev  # beta[-1] = 0 at k = 0
        beta[k] = math.sqrt(np.dot(w * r, r))
        q_prev, q = q, r / beta[k]
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    return nodes, mass * vecs[0] ** 2


def _gauss_law(f: EntireMGF, radius: float):
    """The MGF of a Gauss rule of f's law, valid for |z| <= radius, or None.

    The rule matches every moment up to degree n, so its MGF is off by at
    most 2 min_p max |e^{zx} - p| over the support, p of degree n: below
    2^-53 e^{|Re z| L} with n from :func:`_gauss_degree` at w = radius L.
    A symmetric law's rule is built on t = x^2 over its nonnegative half
    (K = n // 4 + 1) and mirrored, any other law's on x (K = n // 2 + 1).
    None when the rule is not smaller than the law or fails the cross-check
    against the direct sum at ``_XVAL_POINTS`` (``xval_ratio``: the largest
    error over its bound).
    """
    n = _gauss_degree(radius * f.support_radius)
    K = n // 4 + 1 if f.symmetric else n // 2 + 1
    if (2 * K if f.symmetric else K) >= len(f.source.xs):
        return None
    if f.symmetric:
        at0, ws, xs = f._half
        t, lam = _gauss_rule(np.append(xs * xs, 0.0), np.append(2.0 * ws, at0), K)
        r = np.sqrt(t)
        nodes, weights = np.concatenate([-r[::-1], r]), 0.5 * np.concatenate([lam[::-1], lam])
    else:
        nodes, weights = _gauss_rule(f.source.xs, f.source.ws, K)
    try:
        g = EntireMGF(DiscretizedDistribution(nodes, weights))
    except ValueError:  # the rule's mass is not 1 to 1e-12, or a weight is not positive
        return None
    pts = radius * np.array(_XVAL_POINTS)
    rule = np.array([_unscale(m, s) for m, s in zip(*g.values(pts))])
    direct = np.array([_unscale(m, s) for m, s in zip(*f.values(pts))])
    scale = np.exp(np.abs(pts.real) * f.support_radius)
    bound = 1e-10 * np.maximum(np.abs(direct), 1e-12 * scale) + 1e-13 * scale
    ratio = float(np.max(np.abs(rule - direct) / bound))
    if not ratio <= 1.0:
        return None
    g.path, g.K, g.xval_ratio = "gauss", K, ratio
    return g


def _unscale(mant: complex, shift: float) -> complex:
    """mant e^shift, or an OverflowError naming the log-scale if it cannot be represented."""
    log_abs = shift + math.log(abs(mant)) if mant != 0 else -math.inf
    if log_abs > 700.0:
        raise OverflowError(f"|f(z)| overflows float64; log scale {shift:.6g}, "
                            f"use f.values for the mantissa")
    return complex(mant * math.exp(shift))


def mgf_eval(f: EntireMGF, z: complex) -> complex:
    """f(z) = sum_j w_j exp(z x_j): the direct sum ``f.values`` at one point.

    Computes f only, with the same bits as in any batch of ``f.values``.
    Every reported residual is one of these.  A value too large for float64
    raises an OverflowError naming its log-scale.
    """
    mant, shift = f.values(np.array([complex(z)]))
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


def count_zeros_rectangle(ev, rect: Rectangle, *, perturb: bool = True) -> int:
    """Number of zeros of f inside the rectangle, with multiplicity, counted on ``ev``.

    ``ev`` is a batch evaluator valid on the rectangle: an :class:`EntireMGF`
    counts on its direct sum, ``f.evaluator(radius)`` on what that returns.
    The count is the winding number of f along the boundary, tracked with
    adaptive segment bisection until every phase increment is below pi/2.
    If |f| dips under BOUNDARY_FLOOR on the discretized contour the
    rectangle is grown by a tiny amount and retried (a zero too close to the
    boundary); after MAX_PERTURB failures a NumericalError is raised.
    """
    floor_log = math.log(BOUNDARY_FLOOR)
    eps = 0.0
    for attempt in range(MAX_PERTURB + 1):
        try:
            return _contour_winding(ev, rect.grow(eps) if eps else rect,
                                    floor_log, ev.support_radius)
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
    under a "results" key.  A missing "region", "zeros" or "verdict", or a
    value no report writes (a region that is not four finite bounds, an
    unknown verdict, a zero without numbers re, im, residual, a boolean
    refined and a positive integer multiplicity, an optional key of the
    wrong type), raises ValueError naming it.
    """
    doc = json.loads(text)
    if isinstance(doc, dict) and "region" not in doc and "results" in doc:
        doc = doc["results"]
    for key in ("region", "zeros", "verdict"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"zero report JSON: not an object with the key {key!r}")
    region = doc["region"]  # Rectangle refuses non-finite and degenerate bounds
    if not (isinstance(region, dict) and sorted(region) == ["im_max", "im_min", "re_max", "re_min"]
            and all(type(b) in (int, float) for b in region.values())):
        raise ValueError(f"zero report JSON: region {region!r} is not the four bounds "
                         "re_min, re_max, im_min, im_max")
    if doc["verdict"] not in (VERDICT_PIZ, VERDICT_OFF_AXIS, VERDICT_INCONCLUSIVE):
        raise ValueError(f"zero report JSON: verdict {doc['verdict']!r} is not one of "
                         f"{VERDICT_PIZ!r}, {VERDICT_OFF_AXIS!r}, {VERDICT_INCONCLUSIVE!r}")
    if not isinstance(doc["zeros"], list):
        raise ValueError(f"zero report JSON: zeros {doc['zeros']!r} is not a list")
    for z in doc["zeros"]:
        if not (isinstance(z, dict) and {"re", "im", "residual", "refined"} <= set(z)):
            raise ValueError(f"zero report JSON: zero {z!r} lacks one of the keys "
                             "re, im, residual, refined")
        if not (all(type(z[k]) in (int, float) for k in ("re", "im", "residual"))
                and isinstance(z["refined"], bool)):
            raise ValueError(f"zero report JSON: zero {z!r} needs numbers re, im, "
                             "residual and a boolean refined")
        if not (type(z.get("multiplicity", 1)) is int and z.get("multiplicity", 1) >= 1):
            raise ValueError(f"zero report JSON: zero {z!r} needs a positive integer "
                             "multiplicity")
    for key, types, what in (("max_abs_re", (int, float), "a number"),
                             ("total_count", (int,), "an integer"), ("notes", (list,), "a list"),
                             ("evaluator", (dict, type(None)), "an object or null")):
        if key in doc and type(doc[key]) not in types:
            raise ValueError(f"zero report JSON: {key!r} {doc[key]!r} is not {what}")
    region = Rectangle(**region)
    zeros = tuple(ZeroInfo(complex(z["re"], z["im"]), z["residual"],
                           z["refined"], z.get("multiplicity", 1))
                  for z in doc["zeros"])
    return ZeroReport(region=region, zeros=zeros, piz_verdict=doc["verdict"],
                      max_abs_re=doc.get("max_abs_re", 0.0),
                      total_count=doc.get("total_count", len(zeros)),
                      notes=tuple(doc.get("notes", ())),
                      evaluator=doc.get("evaluator"))


def _abs_values(mant, shift) -> np.ndarray:
    """|mant e^shift| point by point, each through :func:`_unscale`."""
    return np.array([abs(_unscale(m, s)) for m, s in zip(mant, shift)])


def newton_refine(f: EntireMGF, z0, tol: float):
    """Newton from each start in ``z0`` on the direct sum of f, in lockstep.

    Returns arrays (z, |f(z)|, converged), one entry per start (a scalar is
    one start).  Convergence means the direct-sum residual mgf_eval is below
    ``tol``; one polishing step is taken past that gate.  A start also stops
    where f' = 0, where its step falls below 1e-16 (1 + |z|), or after
    NEWTON_MAX_ITER steps.  Every iteration evaluates the starts still
    running in one ``eval_pair_batch`` of the direct sum, which gives each
    point the bits of a batch of its own: each start ends exactly where a run
    from it alone would, whichever batch evaluator counted the zeros.  The
    residuals are taken at the final z in one batch at the end, so a start
    that stopped short of the gate still converges if its last z passes it.
    """
    z = np.array(z0, dtype=complex).reshape(-1)
    ok = np.zeros(z.shape, dtype=bool)
    run = np.arange(len(z))
    for _ in range(NEWTON_MAX_ITER):
        if not len(run):
            break
        fz, dfz, shift = f.eval_pair_batch(z[run])
        conv, move = _abs_values(fz, shift) < tol, dfz != 0
        step = np.zeros(fz.shape, dtype=complex)
        np.divide(fz, dfz, out=step, where=move)
        z[run[move]] -= step[move]  # for a converged start, its polishing step
        # np.hypot is abs() of one complex bit for bit; np.abs of an array may not be
        stall = move & (np.hypot(step.real, step.imag)
                        < 1e-16 * (1.0 + np.hypot(z[run].real, z[run].imag)))
        ok[run[conv]] = True
        run = run[~(conv | ~move | stall)]
    res = _abs_values(*f.values(z))
    ok |= res < tol
    return z, res, ok


def _split_and_newton(f: EntireMGF, ev, rect: Rectangle, cnt: int, tol: float,
                      cells: list, notes: list[str]) -> list[ZeroInfo]:
    """The general path: split rect until each cell holds one zero, then Newton.

    Cells are counted on ``ev`` and Newton steps on the direct sum of f.  A
    cell is refined from its centre once it holds one zero and is under
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
                c1 = count_zeros_rectangle(ev, left, perturb=False)
                c2 = count_zeros_rectangle(ev, right, perturb=False)
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


def _axis_roots(f: EntireMGF, ev, lo: float, hi: float, n: int):
    """Sign changes of g on n + 1 equispaced points of [lo, hi], bisected together on ev.

    Every bracket is halved in one batch evaluation per step until no bracket
    shrinks any more.  Bisection on a Gauss law fixes a root of f only to
    about 1e-14 / |g'|, so such a root then takes one Newton step, f's direct
    g over the rule's g', kept only where it stays inside the root's sampling
    cell.  Returns (roots, sample ordinates, sample values).
    """
    ys = np.linspace(lo, hi, n + 1)
    g = _axis_values(ev, ys)
    i = np.nonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))[0]
    a, b, neg_a = ys[i], ys[i + 1], np.signbit(g[i])
    while len(a):
        mid = 0.5 * (a + b)
        if not np.any((mid > a) & (mid < b)):
            break
        left = np.signbit(_axis_values(ev, mid)) == neg_a
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    roots = 0.5 * (a + b)
    if ev is not f:
        dg = -ev.eval_pair_batch(1j * roots)[1].imag  # g'(y) = i f'(iy)
        step = np.zeros_like(roots)
        np.divide(_axis_values(f, roots), dg, out=step, where=dg != 0.0)
        finished = roots - step
        roots = np.where((finished > ys[i]) & (finished < ys[i + 1]), finished, roots)
    return roots, ys, g


def _axis_split(ev, m: float, lo: float, hi: float, g_lo: float, g_hi: float, cnt: int):
    """Cut of the band [-m, m] x [lo, hi] whose counts add up to cnt, or None.

    Each half's count must have the parity of g's sign change across it
    (mirror pairs come in twos), which catches a shared edge whose miscount
    cancels in the sum.
    """
    cuts = lo + (hi - lo) * np.array(_SPLIT_FRACTIONS)
    for cut, g_cut in zip(cuts, _axis_values(ev, cuts)):
        try:
            c1 = count_zeros_rectangle(ev, Rectangle(-m, m, lo, cut), perturb=False)
            c2 = count_zeros_rectangle(ev, Rectangle(-m, m, cut, hi), perturb=False)
        except NumericalError:
            continue
        if (c1 + c2 == cnt and c1 % 2 == (np.signbit(g_lo) != np.signbit(g_cut))
                and c2 % 2 == (np.signbit(g_cut) != np.signbit(g_hi))):
            return [(lo, cut, c1), (cut, hi, c2)]
    return None


def _axis_zeros(f: EntireMGF, ev, core: Rectangle, cnt: int, tol: float,
                cells: list, notes: list[str]) -> list[ZeroInfo]:
    """Zeros of a symmetric source in the core [-m, m] x [lo, hi].

    The sign changes of g are axis zeros; when they fall short of a band's
    count the band is cut (_axis_split), or, once at most 0.5/lam high, its
    side box [h, m] may hold the rest in mirror pairs z, -conj z, located on
    the general path.  The rest of a band under 1e-5 high, the general path's
    cluster scale, is an axis cluster at the extremum of g; in a higher band
    that cannot be cut it is left unlisted, so the report is inconclusive.
    """
    lam = max(f.support_radius, 1e-9)
    m = core.re_max
    found: list[ZeroInfo] = []
    bands = [(core.im_min, core.im_max, cnt)]
    while bands:
        lo, hi, cnt = bands.pop()
        h = hi - lo
        ys, grid, g = _axis_roots(f, ev, lo, hi, max(64, math.ceil(4.0 * lam * h)))
        res = _abs_values(*f.values(1j * ys)).tolist()
        roots = [ZeroInfo(complex(0.0, y), r, r < tol, 1) for y, r in zip(ys, res)]
        accounted = len(roots) == cnt
        n_side = 0
        if not accounted and h <= 0.5 / lam and h < m:
            try:
                n_side = count_zeros_rectangle(ev, Rectangle(h, m, lo, hi), perturb=False)
            except NumericalError:
                pass
            accounted = len(roots) + 2 * n_side == cnt
        if not accounted and h >= 1e-5:
            halves = _axis_split(ev, m, lo, hi, g[0], g[-1], cnt)
            if halves:
                bands += halves
                continue
        found += roots
        cells.append((Rectangle(-m, m, lo, hi), cnt))
        if accounted and n_side:
            for z in _split_and_newton(f, ev, Rectangle(h, m, lo, hi), n_side, tol, cells,
                                       notes):
                found += [z, replace(z, location=complex(-z.location.real, z.location.imag))]
        elif cnt > len(roots) and h < 1e-5:
            y = float(grid[np.argmin(np.abs(g))])
            r = abs(mgf_eval(f, 1j * y))
            found.append(ZeroInfo(complex(0.0, y), r, r < tol, cnt - len(roots)))
            notes.append(f"multiplicity-{cnt - len(roots)} axis cluster at {y:.6g}i "
                         f"in a band {h:.2e} high")
        elif cnt > len(roots):
            notes.append(f"{cnt - len(roots)} of {cnt} zeros in the axis band "
                         f"[{lo:.6g}, {hi:.6g}]i not located: no cut resolved it")
    return found


def locate_zeros(f: EntireMGF, region: Rectangle, tol: float = DEFAULT_TOL) -> ZeroReport:
    """Locate all zeros of f in the region and deliver a PIZ verdict.

    For a symmetric source the part [-m, m] x [im_min, im_max] of the region
    takes the axis path (_axis_zeros): axis zeros are sign changes of
    g(y) = f(iy) bisected to adjacent floats, with Re z = 0 exactly.  The
    rest, and any region of another source, takes the general path
    (_split_and_newton), whose Newton runs stop at direct-sum |f| < tol.
    The verdict is off-axis-zero-found iff some refined zero has
    |Re z| > 100 tol; unrefined zeros, or listed zeros that do not add up to
    the contour count, make it inconclusive.  Every count of the report is
    taken on the one evaluator ``f.evaluator`` builds for the region, so the
    report depends only on the law, the region and tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    ev = f.evaluator(_rect_radius(region))
    notes: list[str] = []
    cells: list[tuple[Rectangle, int]] = []
    found: list[ZeroInfo] = []

    total = count_zeros_rectangle(ev, region)
    general = [(region, total)]
    if f.symmetric and region.re_min < 0.0 < region.re_max:
        m = min(-region.re_min, region.re_max)
        core = Rectangle(-m, m, region.im_min, region.im_max)
        strips = [Rectangle(a, b, region.im_min, region.im_max)
                  for a, b in ((region.re_min, -m), (m, region.re_max)) if b > a]
        core_cnt = count_zeros_rectangle(ev, core) if strips else total
        found += _axis_zeros(f, ev, core, core_cnt, tol, cells, notes)
        general = [(s, count_zeros_rectangle(ev, s)) for s in strips]
    for rect, cnt in general:
        found += _split_and_newton(f, ev, rect, cnt, tol, cells, notes)

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
                      evaluator={"path": ev.path, "K": ev.K, "xval_ratio": ev.xval_ratio})


def refinement_stable_report(dist_factory, N: int, region: Rectangle,
                             tol: float = DEFAULT_TOL):
    """Run locate_zeros at grid N and 2N; keep the report only where stable.

    ``dist_factory(N)`` must return the discretized law at angular grid size
    N.  Zeros are matched both ways within GRID_STABILITY_FACTOR * tol: a
    zero at 2N with no partner at N is a quadrature artifact and is dropped,
    a zero at N with no partner at 2N has vanished.  Either, or a contour
    count or verdict that differs between the grids, is noted and makes the
    verdict inconclusive.  The report's max_abs_re is taken over the zeros
    it keeps.  Returns (report_at_2N, max_zero_displacement), the
    displacement taken over both directions.  A tol that is not positive and
    finite raises ValueError before any law is built.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
    report = replace(r2, zeros=tuple(keep), piz_verdict=verdict, notes=tuple(notes),
                     max_abs_re=max((abs(z.location.real) for z in keep), default=0.0))
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
