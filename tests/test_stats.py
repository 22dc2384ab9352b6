"""Statistics kernel tests.

The probit and t-distribution checks run against independent oracles built
here from numerical integration (Simpson quadrature of the densities plus
bisection), not against the implementation's own code paths.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oafinder.stats import (
    ConfusionMatrix,
    StatsError,
    build_confusion_from_audit,
    correlate,
    pearson_r,
    probit,
    r_to_p,
    sdt_analysis,
    t_sf,
)

from oracles import norm_cdf


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def simpson(f, a, b, n=2000):
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def normal_cdf_oracle(x):
    # integrate the density from 0, plus the half mass below 0
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    if x >= 0:
        return 0.5 + simpson(density, 0.0, x)
    return 0.5 - simpson(density, x, 0.0)


def probit_oracle(p, lo=-9.0, hi=9.0):
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if normal_cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def t_sf_oracle(t, df):
    # survival function by integrating the t density over [t, inf) via the
    # substitution x = t + u/(1-u), u in [0, 1)
    log_c = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
             - 0.5 * math.log(df * math.pi))

    def density(x):
        return math.exp(log_c - ((df + 1) / 2.0) * math.log1p(x * x / df))

    def integrand(u):
        return density(t + u / (1.0 - u)) / (1.0 - u) ** 2

    return simpson(integrand, 0.0, 1.0 - 1e-9, n=40000)


# ---------------------------------------------------------------------------
# probit
# ---------------------------------------------------------------------------

class TestProbit:
    def test_median(self):
        assert probit(0.5) == 0.0

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_inverse_identity(self, x):
        assert probit(norm_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_known_value(self):
        # frozen from the bisection/quadrature oracle above
        assert probit_oracle(0.975) == pytest.approx(1.959963985, abs=1e-8)
        assert probit(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 0.1, 0.4999, 0.73, 1 - 1e-9])
    def test_against_oracle(self, p):
        if 1e-4 < p < 1 - 1e-4:  # quadrature oracle resolution limit
            assert probit(p) == pytest.approx(probit_oracle(p), abs=1e-7)
        assert norm_cdf(probit(p)) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, p):
        with pytest.raises(StatsError):
            probit(p)

    @given(st.floats(1e-6, 0.5))
    def test_antisymmetry(self, p):
        # below ~1e-6 the rounding of the argument 1-p itself moves the
        # result by more than 1e-9 (the inverse CDF slope exceeds 1e5)
        assert probit(1.0 - p) == pytest.approx(-probit(p), abs=1e-9)

    def test_strictly_increasing(self):
        ps = [i / 1000 for i in range(1, 1000)]
        zs = [probit(p) for p in ps]
        assert all(a < b for a, b in zip(zs, zs[1:]))


# ---------------------------------------------------------------------------
# Pearson / significance
# ---------------------------------------------------------------------------

class TestPearson:
    def test_identity(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson_r(xs, xs) == pytest.approx(1.0)

    def test_reflection(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_matches_definitional_oracle(self):
        rng = random.Random(42)
        xs = [rng.gauss(0, 1) for _ in range(12)]
        ys = [0.76 * x + rng.gauss(0, 0.6) for x in xs]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        syy = sum(y * y for y in ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        oracle = ((n * sxy - sx * sy)
                  / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)))
        assert pearson_r(xs, ys) == pytest.approx(oracle, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(StatsError, match="ZERO_VARIANCE"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=20),
        st.floats(0.1, 10), st.floats(-5, 5))
    def test_affine_invariance(self, xs, a, b):
        rng = random.Random(int(sum(abs(x) for x in xs) * 1000) & 0xFFFF)
        ys = [rng.gauss(0, 1) for _ in xs]
        try:
            r0 = pearson_r(xs, ys)
            # near-constant inputs can round to an exactly constant series
            # after scaling; that degenerate case is rejected, not compared
            r_scaled = pearson_r([a * x + b for x in xs], ys)
            r_flipped = pearson_r([-a * x + b for x in xs], ys)
        except StatsError:
            return
        assert r_scaled == pytest.approx(r0, abs=1e-7)
        assert r_flipped == pytest.approx(-r0, abs=1e-7)
        assert abs(r0) <= 1.0

    def test_near_collinear_clamped(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0000000001, 4.0, 6.0, 8.0000000001]
        assert abs(pearson_r(xs, ys)) <= 1.0


class TestRToP:
    def test_published_correlation_r076_n12(self):
        res = r_to_p(0.76, 12)
        assert res.t_stat == pytest.approx(3.70, abs=0.01)
        assert res.df == 10
        assert res.p_two_tailed < 0.005
        assert res.p_two_tailed == pytest.approx(
            2 * t_sf_oracle(res.t_stat, 10), abs=1e-6)

    def test_published_correlation_r098_n6(self):
        res = r_to_p(0.98, 6)
        assert res.p_two_tailed < 0.005
        assert res.p_two_tailed == pytest.approx(
            2 * t_sf_oracle(res.t_stat, 4), abs=1e-6)

    def test_zero_r(self):
        assert r_to_p(0.0, 12).p_two_tailed == pytest.approx(1.0)

    def test_perfect_correlation_flagged(self):
        res = r_to_p(1.0, 5)
        assert res.t_stat == math.inf
        assert res.p_two_tailed == 0.0

    def test_monotone_in_abs_r(self):
        ps = [r_to_p(r / 100, 12).p_two_tailed for r in range(0, 100, 5)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("t,df", [(0.5, 3), (2.0, 10), (4.0, 30), (-1.5, 5)])
    def test_t_sf_against_quadrature(self, t, df):
        assert t_sf(t, df) == pytest.approx(t_sf_oracle(t, df), abs=1e-8)

    def test_correlate_composes(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [1.1, 1.9, 3.2, 3.9, 5.1]
        res = correlate(xs, ys)
        assert res.r == pytest.approx(pearson_r(xs, ys))


# ---------------------------------------------------------------------------
# Signal detection
# ---------------------------------------------------------------------------

class TestConfusionFromAudit:
    def test_reference_audit_counts(self):
        m = build_confusion_from_audit(
            [True] * 81 + [False] * 19, [True] * 6 + [False] * 94)
        assert m == ConfusionMatrix(hits=81, misses=6, false_alarms=19,
                                    correct_rejections=94)

    def test_perfect_robot(self):
        m = build_confusion_from_audit([True] * 40, [False] * 60)
        assert m == ConfusionMatrix(40, 0, 0, 60)

    def test_inversion_swaps_cells(self):
        oa = [True] * 30 + [False] * 10
        noa = [True] * 5 + [False] * 55
        m = build_confusion_from_audit(oa, noa)
        inv = build_confusion_from_audit(
            [not t for t in oa], [not t for t in noa])
        assert (inv.hits, inv.misses) == (m.false_alarms, m.correct_rejections)
        assert (inv.false_alarms, inv.correct_rejections) == (m.hits, m.misses)

    def test_empty_sample_rejected(self):
        with pytest.raises(StatsError):
            build_confusion_from_audit([], [True])


class TestSdt:
    def test_reference_audit_matrix(self):
        res = sdt_analysis(ConfusionMatrix(81, 6, 19, 94))
        assert res.hit_rate == pytest.approx(81 / 87, abs=1e-12)
        assert res.fa_rate == pytest.approx(19 / 113, abs=1e-12)
        assert res.d_prime == pytest.approx(2.45, abs=0.02)
        assert res.beta == pytest.approx(0.52, abs=0.01)
        assert res.beta < 1.0  # bias toward false alarms
        assert not res.correction_applied

    def test_symmetric_matrix(self):
        res = sdt_analysis(ConfusionMatrix(90, 10, 10, 90))
        assert res.beta == pytest.approx(1.0, abs=1e-12)
        assert res.criterion_c == pytest.approx(0.0, abs=1e-12)

    def test_high_accuracy_case(self):
        res = sdt_analysis(ConfusionMatrix(99, 1, 1, 99))
        assert res.d_prime == pytest.approx(2 * probit(0.99), abs=1e-9)
        assert res.d_prime == pytest.approx(4.653, abs=0.001)
        assert res.beta == pytest.approx(1.0, abs=1e-12)

    def test_correction_only_on_degenerate_rates(self):
        res = sdt_analysis(ConfusionMatrix(50, 0, 5, 95))
        assert res.correction_applied
        assert math.isfinite(res.d_prime)
        res2 = sdt_analysis(ConfusionMatrix(49, 1, 5, 95))
        assert not res2.correction_applied

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(StatsError):
            sdt_analysis(ConfusionMatrix(0, 0, 10, 90))

    @given(st.integers(1, 99), st.integers(1, 99),
           st.integers(1, 99), st.integers(1, 99))
    def test_population_swap_symmetry(self, h, mi, fa, cr):
        m = ConfusionMatrix(h, mi, fa, cr)
        swapped = ConfusionMatrix(cr, fa, mi, h)
        a, b = sdt_analysis(m), sdt_analysis(swapped)
        assert b.d_prime == pytest.approx(a.d_prime, abs=1e-12)
        assert b.criterion_c == pytest.approx(-a.criterion_c, abs=1e-12)
        assert b.beta * a.beta == pytest.approx(1.0, abs=1e-12)
