"""Membership evidence for the class of symmetric sub-Gaussian PIZ laws.

A law belongs to the class when (1) it is symmetric, (2) it has a
sub-Gaussian moment bound E[exp(b X^2)] < infinity for some b > 0, and
(3) its MGF has only pure imaginary zeros.  Two exclusion routes are
implemented:

* a stretched-exponential tail exponent a strictly between 1 and 2
  (estimated from even moments or tail probabilities) rules the law out --
  tails slower than Gaussian but faster than exp(-c|x|) force off-axis
  zeros;
* an off-axis zero exhibited by a :class:`~leeyang.zeros.ZeroReport` rules
  it out directly.

:func:`weak_limit_harness` checks the observable consequences of the
weak-convergence stability of the class: per-term PIZ verdicts, shrinking
Kolmogorov distances, bounded variances, and the contradiction flag raised
when every term looks PIZ while the limit law violates the sub-Gaussian
bound (in that case all but finitely many terms must in fact have off-axis
zeros, so finite-n PIZ verdicts and the limit profile cannot both stand).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gibbs import DiscretizedDistribution, kolmogorov_distance
from .zeros import (EntireMGF, Rectangle, ZeroReport, VERDICT_OFF_AXIS,
                    VERDICT_PIZ, locate_zeros)

SLOWTAIL_RESIDUAL_MAX = 0.05
POISSON_GUARD = 1.05  # fitted or typed-in a <= 1.05 stay undetermined, never excluded

VERDICT_CONSISTENT = "consistent-with-class"
VERDICT_SLOWTAIL = "excluded-by-slow-tail"
VERDICT_OFFAXIS = "excluded-by-off-axis-zero"
VERDICT_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class TailProfile:
    """Stretched-exponential tail description P(|X| > t) ~ exp(-b t^a).

    ``method`` records how it was estimated ('from_moments',
    'from_tail_probabilities', 'predicted' for exact arithmetic, or
    'user_supplied' for a profile typed in by hand).
    """

    exponent_a: float
    coefficient: float
    fit_residual: float
    method: str

    def __post_init__(self):
        if not 0 < self.exponent_a < math.inf:
            raise ValueError(f"tail exponent must be finite and positive, got {self.exponent_a}")
        b = self.coefficient
        if not ((math.isnan(b) or 0 < b < math.inf) and 0 <= self.fit_residual < math.inf):
            raise ValueError(f"need a finite tail coefficient > 0 (NaN if unknown) and a finite "
                             f"fit residual >= 0, got {b} and {self.fit_residual}")


def _growth_lstsq(k: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares of y = log m_{2k} on X = (k log k, k): (coef, y - X coef, X)."""
    X = np.stack([k * np.log(k), k], axis=1)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    return coef, y - X @ coef, X


def tail_exponent(moments=None, tail_probabilities=None) -> TailProfile:
    """Estimate the stretched-exponential exponent a.

    From even moments m_{2k}, k = 1..K (K >= 4): weighted least squares of
    log m_{2k} on the regressors (k log k, k) with weights k, dropping the
    pre-asymptotic k < 3; the k log k slope s gives a = 2/s, since the
    moments of exp(-b t^a) tails grow like (2/a) k log k + c k.  From tail
    probabilities [(t_i, P(|X| > t_i))]: the slope of log(-log P) against
    log t gives a directly and the intercept gives log b.
    """
    if (moments is None) == (tail_probabilities is None):
        raise ValueError("provide exactly one of moments, tail_probabilities")

    if moments is not None:
        m = np.asarray(moments, dtype=float)
        if len(m) < 4:
            raise ValueError(f"moment method needs K >= 4 even moments, got {len(m)}")
        if np.any(m <= 0):
            raise ValueError("moments must be positive")
        if np.any(np.diff(m) <= 0):
            raise ValueError("moments must be strictly increasing")
        k = np.arange(1, len(m) + 1, dtype=float)
        kk, y = k[2:], np.log(m[2:])
        coef, resid, _ = _growth_lstsq(kk, y, kk)
        s, c = float(coef[0]), float(coef[1])
        if s <= 0:
            raise ValueError(f"moment growth slope {s:.4g} is not positive; no stretched tail")
        a = 2.0 / s
        # moments of exp(-b t^a): log m_{2k} = (2/a) k log k + (2/a)(log(2/a) - 1 - log b) k + O(log k)
        b = (2.0 / (a * math.e)) * math.exp(-c * a / 2.0)
        method = "from_moments"
    else:
        pts = [(float(t), float(p)) for t, p in tail_probabilities if 0.0 < p < 1.0]
        if len(pts) < 3:
            raise ValueError("tail-probability method needs at least 3 usable points")
        t = np.array([p[0] for p in pts])
        p = np.array([p[1] for p in pts])
        if np.any(t <= 0):
            raise ValueError("tail thresholds must be positive")
        x = np.log(t)
        y = np.log(-np.log(p))
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        a, logb = float(coef[0]), float(coef[1])
        if a <= 0:
            raise ValueError(f"tail exponent fit gave non-positive a = {a:.4g}")
        b, method = math.exp(logb), "from_tail_probabilities"
    residual = float(np.sqrt(np.mean(resid ** 2)) / max(1.0, np.sqrt(np.mean(y**2))))
    return TailProfile(exponent_a=a, coefficient=b, fit_residual=residual, method=method)


@dataclass(frozen=True)
class ClassVerdict:
    symmetric: bool
    subgaussian_evidence: str        # "yes", "no", "undetermined"
    subgaussian_b: float | None
    piz_evidence: str                # "PIZ-in-tested-region", "off-axis-found", "undetermined"
    verdict: str
    numerical_tension: bool = False
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        b = self.subgaussian_b
        return json.dumps({
            "format_version": 1,
            "symmetric": self.symmetric,
            "subgaussian_evidence": self.subgaussian_evidence,
            "subgaussian_b": b if b is not None and math.isfinite(b) else None,
            "piz_evidence": self.piz_evidence,
            "verdict": self.verdict,
            "numerical_tension": self.numerical_tension,
            "notes": list(self.notes),
        }, sort_keys=True)


def slowtail_applies(profile: TailProfile) -> bool:
    """A confident tail exponent in (1, 2), which excludes the class.  The
    Poisson guard holds back fitted and user-supplied exponents; an exact
    prediction is no fit."""
    floor = 1.0 if profile.method == "predicted" else POISSON_GUARD
    return floor < profile.exponent_a < 2.0 and profile.fit_residual < SLOWTAIL_RESIDUAL_MAX


def classify(source=None, *, profile: TailProfile | None = None,
             zero_report: ZeroReport | None = None) -> ClassVerdict:
    """Combine symmetry, tail and zero evidence into a class verdict.

    ``source`` is a DiscretizedDistribution.  A finite atomic law is always
    sub-Gaussian (bounded support), so sub-Gaussianity verdicts carry
    information only for a ``profile`` describing a limiting law.  Exclusion
    is monotone in evidence: an off-axis zero or a confident exponent fit in
    (1, 2) can never be outweighed.  A confident slow-tail fit together with
    a PIZ certificate over a large region is contradictory and is flagged as
    numerical tension instead of being silently resolved.
    """
    notes: list[str] = []

    symmetric = True
    if source is not None:
        symmetric = source.is_symmetric()
        if not symmetric:
            notes.append("source distribution is not symmetric")

    sub_ev, sub_b = "undetermined", None
    if source is not None:
        sub_ev, sub_b = "yes", math.inf  # bounded support
        notes.append("finite atomic law: sub-Gaussian trivially (bounded support)")
    elif profile is not None:
        if profile.fit_residual < SLOWTAIL_RESIDUAL_MAX:
            if profile.exponent_a >= 2.0:
                sub_ev, sub_b = "yes", profile.coefficient
            elif slowtail_applies(profile):
                sub_ev = "no"
            else:
                notes.append("tail exponent a <= 1, or a fit in the Poisson-guard band "
                             "a <= 1.05; undetermined")
        else:
            notes.append(f"tail fit residual {profile.fit_residual:.3g} above "
                         f"{SLOWTAIL_RESIDUAL_MAX}; undetermined")

    piz_ev = "undetermined"
    if zero_report is not None:
        if zero_report.piz_verdict == VERDICT_OFF_AXIS:
            piz_ev = "off-axis-found"
        elif zero_report.piz_verdict == VERDICT_PIZ:
            piz_ev = "PIZ-in-tested-region"

    slowtail = profile is not None and slowtail_applies(profile)

    tension = False
    if slowtail and piz_ev == "PIZ-in-tested-region":
        region = zero_report.region
        if region.height >= 8.0 and region.width >= 8.0:
            tension = True
            notes.append("numerical-tension: confident slow-tail fit but PIZ certified "
                         "over a large region")

    if piz_ev == "off-axis-found":
        verdict = VERDICT_OFFAXIS
    elif tension:
        verdict = VERDICT_UNDETERMINED
    elif slowtail:
        verdict = VERDICT_SLOWTAIL
    elif symmetric and piz_ev == "PIZ-in-tested-region" and sub_ev != "no":
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_UNDETERMINED

    return ClassVerdict(symmetric=symmetric, subgaussian_evidence=sub_ev,
                        subgaussian_b=sub_b, piz_evidence=piz_ev,
                        verdict=verdict, numerical_tension=tension,
                        notes=tuple(notes))


@dataclass(frozen=True)
class WeakLimitReport:
    distances_consecutive: tuple[float, ...]
    distances_to_limit: tuple[float, ...]
    variances: tuple[float, ...]
    variance_sup: float
    first_zero_heights: tuple[float, ...]
    zero_reports: tuple[ZeroReport, ...]
    all_piz: bool
    limit_subgaussian_violated: bool
    contradiction_flag: bool
    distances_shrink: bool
    consistent: bool
    notes: tuple[str, ...] = ()


def weak_limit_harness(sequence, limit=None, *, region: Rectangle,
                       tol: float = 1e-10) -> WeakLimitReport:
    """Check the observable consequences of class stability along a sequence.

    ``sequence`` is a list (>= 3) of DiscretizedDistribution; ``limit`` may
    be another distribution (Kolmogorov distances to it are reported) or a
    TailProfile for a limiting law known only through its tails.  Every term
    gets a zero report over a fixed region; if all terms look PIZ while the
    limit profile confidently violates the sub-Gaussian bound, the
    contradiction flag is raised: were the finite-n laws truly in the class,
    the limit would inherit both the PIZ property and a sub-Gaussian tail,
    so all but finitely many terms must actually have off-axis zeros.
    """
    seq = list(sequence)
    if len(seq) < 3:
        raise ValueError(f"need at least 3 laws in the sequence, got {len(seq)}")

    notes: list[str] = []
    reports = [locate_zeros(EntireMGF(d), region, tol) for d in seq]
    variances = [d.variance for d in seq]
    d_consec = [kolmogorov_distance(a, b) for a, b in zip(seq[:-1], seq[1:])]

    limit_profile: TailProfile | None = None
    d_limit: list[float] = []
    if isinstance(limit, TailProfile):
        limit_profile = limit
    elif isinstance(limit, DiscretizedDistribution):
        d_limit = [kolmogorov_distance(d, limit) for d in seq]

    first_zero = [float(min((z.location.imag for z in r.zeros), default=math.inf))
                  for r in reports]
    all_piz = all(r.piz_verdict == VERDICT_PIZ for r in reports)
    violated = limit_profile is not None and slowtail_applies(limit_profile)
    contradiction = all_piz and violated
    if contradiction:
        notes.append("all finite-n verdicts are PIZ but the limit profile violates the "
                     "sub-Gaussian bound: off-axis zeros must appear for all but finitely "
                     "many n (tested region/grid too coarse to exhibit them)")

    ref = d_limit if d_limit else d_consec
    shrink = all(b <= a + 1e-15 for a, b in zip(ref[:-1], ref[1:])) if len(ref) > 1 else True
    if not shrink:
        notes.append("distance trend is not monotone decreasing")

    consistent = bool(all_piz and not contradiction and shrink
                      and np.isfinite(max(variances)))
    return WeakLimitReport(
        distances_consecutive=tuple(d_consec), distances_to_limit=tuple(d_limit),
        variances=tuple(variances), variance_sup=float(max(variances)),
        first_zero_heights=tuple(first_zero), zero_reports=tuple(reports),
        all_piz=all_piz, limit_subgaussian_violated=violated,
        contradiction_flag=contradiction, distances_shrink=shrink,
        consistent=consistent, notes=tuple(notes))
