"""Statistics kernel: the probit, Pearson correlation with
Student-t significance, and the signal-detection analysis (d', beta,
criterion) of the robot's accuracy audit.

Everything here is pure and reentrant. No third-party numerics: probit is
the standard library's NormalDist.inv_cdf, Wichura's algorithm AS241
(Applied Statistics 37:477, 1988), and the incomplete-beta continued
fraction below keeps the t-CDF's relative error under 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist


class StatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

_STANDARD_NORMAL = NormalDist()


def probit(p: float) -> float:
    """Inverse standard-normal CDF, domain (0, 1): the stdlib's
    NormalDist.inv_cdf (Wichura's AS241, relative error below 1e-15)."""
    if not 0.0 < p < 1.0:
        raise StatsError(f"probit domain is (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# Incomplete beta / Student-t
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Lentz's algorithm).
    MAXIT, EPS, FPMIN = 300, 1e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise StatsError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), x in [0, 1]."""
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """P(T > t) for Student-t with df >= 1 degrees of freedom."""
    x = df / (df + t * t)
    p_two = betainc_reg(df / 2.0, 0.5, x)
    if t >= 0:
        return 0.5 * p_two
    return 1.0 - 0.5 * p_two


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    t_stat: float
    df: int
    p_two_tailed: float
    p_one_tailed: float


def _centered(vs) -> list[float]:
    """Deviations from the mean, corrected two-pass and scaled to a largest
    magnitude of 1. The rounded mean leaves residuals whose own mean is taken
    out again, so a near-constant series such as [1, 1, 1, 1 + 2**-52] keeps
    the shape of its deviations; the scaling keeps tiny deviations from
    underflowing when squared. Pearson's r is blind to both steps."""
    m = sum(vs) / len(vs)
    d = [v - m for v in vs]
    c = sum(d) / len(d)
    d = [v - c for v in d]
    scale = max(abs(v) for v in d)
    return [v / scale for v in d] if scale else d


def pearson_r(xs, ys) -> float:
    """Product-moment correlation of two equally long series; errors on
    fewer than 3 points or zero variance."""
    n = len(xs)
    if n < 3:
        raise StatsError(f"need at least 3 points, got {n}")
    dx = _centered(xs)
    dy = _centered(ys)
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("ZERO_VARIANCE: an input series is constant")
    sxy = sum(a * b for a, b in zip(dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def r_to_p(r: float, n: int) -> CorrelationResult:
    """Significance of r over n >= 3 points via the t-transform, df = n - 2."""
    df = n - 2
    if abs(r) == 1.0:
        return CorrelationResult(
            r=r, n=n, t_stat=math.inf if r > 0 else -math.inf, df=df,
            p_two_tailed=0.0, p_one_tailed=0.0)
    t = r * math.sqrt(df / (1.0 - r * r))
    p_one = t_sf(abs(t), df)
    return CorrelationResult(
        r=r, n=n, t_stat=t, df=df,
        p_two_tailed=min(1.0, 2.0 * p_one), p_one_tailed=p_one,
    )


def correlate(xs, ys) -> CorrelationResult:
    return r_to_p(pearson_r(xs, ys), len(xs))


# ---------------------------------------------------------------------------
# Signal detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    """Audit counts conditioned on TRUE class.

    hits: true OA called OA; misses: true OA called NOA;
    false_alarms: true NOA called OA; correct_rejections: true NOA called NOA.
    """

    hits: int
    misses: int
    false_alarms: int
    correct_rejections: int

    def __post_init__(self) -> None:
        if self.hits + self.misses < 1:
            raise StatsError("no true-OA items in audit")
        if self.false_alarms + self.correct_rejections < 1:
            raise StatsError("no true-NOA items in audit")


@dataclass(frozen=True)
class SdtResult:
    hit_rate: float
    fa_rate: float
    d_prime: float
    beta: float
    criterion_c: float
    correction_applied: bool


def build_confusion_from_audit(oa_tagged_true_labels, noa_tagged_true_labels
                               ) -> ConfusionMatrix:
    """Build the confusion matrix from two hand-checked samples.

    Each argument is the list of manually determined TRUE labels (True = the
    article really is OA) for items the robot tagged OA resp. NOA. The two
    samples are pooled and counts conditioned on the true class.
    """
    hits = sum(1 for t in oa_tagged_true_labels if t)
    false_alarms = len(oa_tagged_true_labels) - hits
    misses = sum(1 for t in noa_tagged_true_labels if t)
    correct_rejections = len(noa_tagged_true_labels) - misses
    return ConfusionMatrix(hits, misses, false_alarms, correct_rejections)


def sdt_analysis(m: ConfusionMatrix) -> SdtResult:
    """d', beta and criterion c from a confusion matrix.

    Rates of exactly 0 or 1 get the log-linear correction (+0.5 to every
    cell) so the probits stay finite; correction_applied reports when.
    """
    h, mi, fa, cr = m.hits, m.misses, m.false_alarms, m.correct_rejections
    hit_rate = h / (h + mi)
    fa_rate = fa / (fa + cr)
    corrected = hit_rate in (0.0, 1.0) or fa_rate in (0.0, 1.0)
    if corrected:
        hit_rate = (h + 0.5) / (h + mi + 1.0)
        fa_rate = (fa + 0.5) / (fa + cr + 1.0)
    z_h = probit(hit_rate)
    z_fa = probit(fa_rate)
    d_prime = z_h - z_fa
    criterion_c = -(z_h + z_fa) / 2.0
    beta = math.exp((z_fa * z_fa - z_h * z_h) / 2.0)
    return SdtResult(
        hit_rate=hit_rate, fa_rate=fa_rate, d_prime=d_prime, beta=beta,
        criterion_c=criterion_c, correction_applied=corrected,
    )
