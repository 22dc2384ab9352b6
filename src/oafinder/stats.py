"""Statistics kernel: normal/probit primitives, Pearson correlation with
Student-t significance, and the signal-detection analysis (d', beta,
criterion) of the robot's accuracy audit.

Everything here is pure and reentrant. No third-party numerics: the
incomplete-beta continued fraction and the refined probit below are accurate
to well past the tolerances the rest of the toolkit needs (probit < 1e-9
absolute over [1e-12, 1 - 1e-12], t-CDF relative error < 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class StatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's rational approximation coefficients for the initial guess.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _probit_half(p: float) -> float:
    # p in (0, 0.5]; rational initial guess plus one Halley refinement.
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q
              + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r
              + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r
                + 1.0))
    # Halley's method on norm_cdf(x) - p.
    e = norm_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return x


def probit(p: float) -> float:
    """Inverse standard-normal CDF.

    Domain (0, 1); exactly antisymmetric: probit(1 - p) == -probit(p).
    """
    if not 0.0 < p < 1.0:
        raise StatsError(f"probit domain is (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -_probit_half(1.0 - p)
    return _probit_half(p)


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
    """Regularized incomplete beta function I_x(a, b)."""
    if x < 0.0 or x > 1.0:
        raise StatsError(f"betainc argument x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """P(T > t) for Student-t with df degrees of freedom."""
    if df < 1:
        raise StatsError(f"degrees of freedom must be >= 1, got {df}")
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
    at_machine_floor: bool = False  # |r| == 1: p below machine resolution


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
    """Product-moment correlation; errors on length mismatch or zero variance."""
    if len(xs) != len(ys):
        raise StatsError(f"length mismatch: {len(xs)} vs {len(ys)}")
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
    """Significance of a correlation via the t-transform, df = n - 2."""
    if n < 3:
        raise StatsError(f"need n >= 3, got {n}")
    if abs(r) > 1.0:
        raise StatsError(f"|r| must be <= 1, got {r}")
    df = n - 2
    if abs(r) == 1.0:
        return CorrelationResult(
            r=r, n=n, t_stat=math.inf if r > 0 else -math.inf, df=df,
            p_two_tailed=0.0, p_one_tailed=0.0, at_machine_floor=True,
        )
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

    def validate(self) -> None:
        for name in ("hits", "misses", "false_alarms", "correct_rejections"):
            if getattr(self, name) < 0:
                raise StatsError(f"{name} must be non-negative")
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
    if not oa_tagged_true_labels or not noa_tagged_true_labels:
        raise StatsError("both audit samples must be non-empty")
    hits = sum(1 for t in oa_tagged_true_labels if t)
    false_alarms = len(oa_tagged_true_labels) - hits
    misses = sum(1 for t in noa_tagged_true_labels if t)
    correct_rejections = len(noa_tagged_true_labels) - misses
    m = ConfusionMatrix(hits, misses, false_alarms, correct_rejections)
    m.validate()
    return m


def sdt_analysis(m: ConfusionMatrix) -> SdtResult:
    """d', beta and criterion c from a confusion matrix.

    Rates of exactly 0 or 1 get the log-linear correction (+0.5 to every
    cell) so the probits stay finite; correction_applied reports when.
    """
    m.validate()
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
