"""Checks of the pipeline's outputs against computations made apart from it.

Nothing here imports oafinder. Every expected value is recomputed with the
standard library from records.jsonl, ground_truth.jsonl and the evidence
lines, then compared with the program's files after their rounding:
percentages carry one decimal, other floats twelve.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

BINS = ("0", "1", "2-3", "4-7", "8-15", "16+")
_BIN_TOPS = ((0, "0"), (1, "1"), (3, "2-3"), (7, "4-7"), (15, "8-15"))

PCT_TOL = 0.05 + 1e-9  # one-decimal percentages
FLOAT_TOL = 1e-8  # twelve-decimal floats, with room for the probit's error

REPORT_FILES = {
    "analyze": ("exclusions.csv",)
    + tuple(f"oa_share_by_{d}.csv" for d in ("discipline", "country", "year"))
    + tuple(f"advantage_by_{d}.csv" for d in ("discipline", "country", "year")),
    "cohorts": ("cohorts_yearly.csv", "cohorts_pooled.csv"),
    "correlate": ("correlations.csv",),
    "audit": ("sdt.csv",),
}


class Findings:
    """Problems per pipeline stage plus the number of articles that failed."""

    def __init__(self):
        self.problems: dict[str, list[str]] = defaultdict(list)
        self.article_failures = 0
        self.article_examples: list[str] = []

    def expect(self, stage: str, ok: bool, message: str) -> None:
        if not ok:
            self.problems[stage].append(message)

    def fail_article(self, message: str) -> None:
        self.article_failures += 1
        if len(self.article_examples) < 5:
            self.article_examples.append(message)


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def citation_bin(count: int) -> str:
    for top, label in _BIN_TOPS:
        if count <= top:
            return label
    return "16+"


# ---------------------------------------------------------------------------
# Recomputations
# ---------------------------------------------------------------------------

def exclusions(recs):
    """All-OA journals, then all-OA issues among the surviving records."""
    journals = defaultdict(list)
    for r in recs:
        journals[r["journal_id"]].append(r["oa"])
    bad_journals = {j for j, flags in journals.items() if all(flags)}
    survivors = [r for r in recs if r["journal_id"] not in bad_journals]
    issues = defaultdict(list)
    for r in survivors:
        issues[r["issue_key"]].append(r["oa"])
    bad_issues = {i for i, flags in issues.items() if all(flags)}
    log = ([["journal", j, "ALL_OA_JOURNAL", str(len(journals[j]))]
            for j in sorted(bad_journals)]
           + [["issue", i, "ALL_OA_ISSUE", str(len(issues[i]))]
              for i in sorted(bad_issues)])
    kept = [r for r in survivors if r["issue_key"] not in bad_issues]
    return kept, log


def advantage(kept, dim):
    """Flat issue -> journal -> group loop over the kept records.

    Returns group -> (advantage or None, issues included, issues excluded,
    sorted exclusion reasons). An issue is counted in the group of its first
    record, and issues with no defined ratio (all NOA, all OA, or uncited
    NOA members) are skipped.
    """
    issues = defaultdict(list)
    for r in kept:
        issues[r["issue_key"]].append(r)
    ratios = defaultdict(list)  # (group, journal) -> issue ratios
    skipped = defaultdict(list)  # group -> reasons
    for members in issues.values():
        group = str(members[0][dim])
        oa = [m["citation_count"] for m in members if m["oa"]]
        noa = [m["citation_count"] for m in members if not m["oa"]]
        if not oa:
            skipped[group].append("ALL_NOA_ISSUE")
        elif not noa:
            skipped[group].append("ALL_OA_ISSUE")
        elif sum(noa) == 0:
            skipped[group].append("ZERO_NOA_CITATIONS")
        else:
            mean_oa, mean_noa = sum(oa) / len(oa), sum(noa) / len(noa)
            ratios[(group, members[0]["journal_id"])].append(
                (mean_oa - mean_noa) / mean_noa)
    journal_means = defaultdict(list)
    included = defaultdict(int)
    for (group, _), values in ratios.items():
        journal_means[group].append(sum(values) / len(values))
        included[group] += len(values)
    out = {}
    for group in set(journal_means) | set(skipped):
        means = journal_means.get(group, [])
        out[group] = (sum(means) / len(means) if means else None,
                      included[group], len(skipped[group]),
                      ";".join(sorted(set(skipped[group]))))
    return out


def cohort_counts(recs, per_year):
    """key -> bin -> [oa count, noa count], keyed by year or "all"."""
    counts = defaultdict(lambda: {b: [0, 0] for b in BINS})
    for r in recs:
        key = str(r["year"]) if per_year else "all"
        counts[key][citation_bin(r["citation_count"])][0 if r["oa"] else 1] += 1
    return counts


def cohort_shares(counts):
    """key -> bin -> (oa share, noa share) for keys with both populations."""
    out = {}
    for key, bins in counts.items():
        oa_total = sum(c[0] for c in bins.values())
        noa_total = sum(c[1] for c in bins.values())
        if oa_total and noa_total:
            out[key] = {b: (c[0] / oa_total, c[1] / noa_total)
                        for b, c in bins.items()}
    return out


def t_density(x: float, df: int) -> float:
    norm = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
    return norm / math.sqrt(df * math.pi) * (1 + x * x / df) ** (-(df + 1) / 2)


def _simpson(f, a: float, b: float, steps: int = 2000) -> float:
    h = (b - a) / steps
    total = f(a) + f(b)
    for k in range(1, steps):
        total += (4 if k % 2 else 2) * f(a + k * h)
    return total * h / 3


def t_upper_tail(t: float, df: int) -> float:
    """P(T > t) for t >= 0, by integrating the Student-t density."""
    if t <= 1.0:
        return 0.5 - _simpson(lambda x: t_density(x, df), 0.0, t)
    # x = t / u maps the infinite tail onto u in (0, 1]; the integrand
    # density(t / u) * t / u**2 is rewritten so that it is finite at u = 0.
    norm = t_density(0.0, df)
    return _simpson(lambda u: norm * t * u ** (df - 1)
                    * (u * u + t * t / df) ** (-(df + 1) / 2), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Stage checks
# ---------------------------------------------------------------------------

def check_detect(records, truth, evidence_lines, journal_lines, found):
    ids = [r["id"] for r in records]
    evidence = [json.loads(line) for line in evidence_lines]
    found.expect("detect", len(evidence) == len(records),
                 f"{len(evidence)} evidence lines for {len(records)} records")
    found.expect("detect", [e["article_id"] for e in evidence] == ids,
                 "evidence is not in records order")
    by_id = {e["article_id"]: (e, line) for e, line in zip(evidence, evidence_lines)}
    journal = {json.loads(line)["article_id"]: line for line in journal_lines}
    for art_id in ids:
        gt = truth[art_id]
        got = by_id.get(art_id)
        if got is None:
            found.fail_article(f"{art_id}: no evidence (UNKNOWN)")
            continue
        ev, line = got
        if ev["verdict"] not in ("OA", "NOA"):
            found.fail_article(f"{art_id}: verdict {ev['verdict']!r}")
        elif (ev["verdict"] == "OA") != gt["oa"]:
            found.fail_article(f"{art_id}: verdict {ev['verdict']}, planted "
                               f"{gt['kind']} (oa={gt['oa']})")
        elif gt["oa"] and (ev["depth"] != gt["chain_depth"] or not ev["url"]):
            found.fail_article(f"{art_id}: OA at depth {ev['depth']}, planted "
                               f"chain depth {gt['chain_depth']}")
        elif art_id in journal and journal[art_id] != line:
            found.fail_article(f"{art_id}: replayed line differs from journal")


def check_analyze(reports, kept, log, found):
    found.expect("analyze", _read_csv(reports / "exclusions.csv")[1:] == log,
                 "exclusions.csv differs from the recomputed exclusion log")
    for dim in ("discipline", "country", "year"):
        counts = defaultdict(lambda: [0, 0])
        for r in kept:
            counts[str(r[dim])][0 if r["oa"] else 1] += 1
        rows = _read_csv(reports / f"oa_share_by_{dim}.csv")[1:]
        found.expect("analyze", [row[0] for row in rows] == sorted(counts),
                     f"oa_share_by_{dim}: groups differ")
        for group, n_oa, n_noa, pct in rows:
            want = counts.get(group, [0, 0])
            ok = ([int(n_oa), int(n_noa)] == want and
                  abs(float(pct) - 100.0 * want[0] / sum(want)) <= PCT_TOL)
            found.expect("analyze", ok, f"oa_share_by_{dim} {group}: "
                         f"{n_oa}/{n_noa} {pct}%, recount {want}")

        adv = advantage(kept, dim)
        rows = _read_csv(reports / f"advantage_by_{dim}.csv")[1:]
        found.expect("analyze", [row[0] for row in rows] == sorted(adv),
                     f"advantage_by_{dim}: groups differ")
        for group, pct, n_inc, n_exc, reasons in rows:
            want = adv.get(group)
            ok = want is not None and (int(n_inc), int(n_exc), reasons) == want[1:]
            if ok and want[0] is None:
                ok = pct == "NO_DATA"
            elif ok:
                ok = pct != "NO_DATA" and abs(float(pct) - 100.0 * want[0]) <= PCT_TOL
            found.expect("analyze", ok, f"advantage_by_{dim} {group}: "
                         f"{[pct, n_inc, n_exc, reasons]}, recomputed {want}")


def check_cohorts(reports, recs, found):
    for name, per_year in (("cohorts_yearly.csv", True),
                           ("cohorts_pooled.csv", False)):
        shares = cohort_shares(cohort_counts(recs, per_year))
        rows = _read_csv(reports / name)[1:]
        groups = defaultdict(list)
        for row in rows:
            groups[row[0]].append(row)
        found.expect("cohorts", list(groups) == sorted(shares),
                     f"{name}: groups {list(groups)}, recount {sorted(shares)}")
        for key, group_rows in groups.items():
            found.expect("cohorts", [r[1] for r in group_rows] == list(BINS),
                         f"{name} {key}: bins {[r[1] for r in group_rows]}")
            for col in (2, 3):
                total = sum(float(r[col]) for r in group_rows)
                found.expect("cohorts", abs(total - 100.0) <= len(BINS) * PCT_TOL,
                             f"{name} {key}: column {col} sums to {total}")
            want = shares.get(key, {})
            for _, rng, oa_pct, noa_pct, ratio, delta in group_rows:
                oa, noa = want.get(rng, (math.nan, math.nan))
                ok = (abs(float(oa_pct) - 100.0 * oa) <= PCT_TOL
                      and abs(float(noa_pct) - 100.0 * noa) <= PCT_TOL)
                if noa == 0.0:
                    ok = ok and ratio == "undefined" and delta == "undefined"
                else:
                    ok = (ok and _close(float(ratio), oa / noa, FLOAT_TOL)
                          and abs(float(delta) - 100.0 * (oa - noa) / noa) <= PCT_TOL)
                found.expect("cohorts", ok, f"{name} {key} {rng}: "
                             f"{[oa_pct, noa_pct, ratio, delta]}, recount {(oa, noa)}")


def correlation_series(recs, kept):
    """The pairs correlate reports, in its row order, as (name, xs, ys)."""
    years = sorted({r["year"] for r in recs})
    total, n_oa = defaultdict(int), defaultdict(int)
    for r in recs:
        total[r["year"]] += 1
        n_oa[r["year"]] += r["oa"]
    pct = {y: n_oa[y] / total[y] for y in years}
    adv = {int(g): v[0] for g, v in advantage(kept, "year").items()}
    shares = cohort_shares(cohort_counts(recs, per_year=True))

    def ratio(year, rng):
        cell = shares.get(str(year), {}).get(rng)
        if cell is None or cell[1] == 0.0:
            return None
        return cell[0] / cell[1]

    pairs = [
        ("advantage_x_year", [(adv.get(y), y) for y in years]),
        ("advantage_x_total_articles", [(adv.get(y), total[y]) for y in years]),
        ("advantage_x_pct_oa", [(adv.get(y), pct[y]) for y in years]),
        ("total_articles_x_year", [(total[y], y) for y in years]),
        ("total_articles_x_pct_oa", [(total[y], pct[y]) for y in years]),
        ("pct_oa_x_year", [(pct[y], y) for y in years]),
    ] + [(f"ratio_{rng}_x_year", [(ratio(y, rng), y) for y in years])
         for rng in BINS]
    out = []
    for name, xy in pairs:
        xy = [(x, y) for x, y in xy if x is not None and y is not None]
        out.append((name, [x for x, _ in xy], [y for _, y in xy]))
    return out


def check_correlate(reports, recs, kept, found):
    rows = _read_csv(reports / "correlations.csv")[1:]
    series = correlation_series(recs, kept)
    found.expect("correlate", [r[0] for r in rows] == [s[0] for s in series],
                 "correlations.csv pairs differ")
    for row, (name, xs, ys) in zip(rows, series):
        if len(xs) < 3 or len(set(xs)) == 1 or len(set(ys)) == 1:
            found.expect("correlate", row[1] == "ZERO_VARIANCE",
                         f"{name}: expected ZERO_VARIANCE, got {row[1:]}")
            continue
        r = statistics.correlation(xs, ys)
        df = len(xs) - 2
        t = r * math.sqrt(df / (1.0 - r * r))
        p_one = t_upper_tail(abs(t), df)
        _, r_csv, n, t_csv, df_csv, p_two_csv, p_one_csv = row
        ok = (int(n) == len(xs) and int(df_csv) == df
              and _close(float(r_csv), r, FLOAT_TOL)
              and _close(float(t_csv), t, 1e-6)
              and _close(float(p_one_csv), p_one, FLOAT_TOL)
              and _close(float(p_two_csv), min(1.0, 2.0 * p_one), FLOAT_TOL))
        found.expect("correlate", ok, f"{name}: {row[1:]}, recomputed r={r} "
                     f"t={t} p_one={p_one}")


def check_audit(reports, sample_size, all_correct, found):
    header, row = _read_csv(reports / "sdt.csv")[:2]
    got = dict(zip(header, row))
    h, m, fa, cr = (int(got[k]) for k in
                    ("hits", "misses", "false_alarms", "correct_rejections"))
    found.expect("audit", h + m + fa + cr == 2 * sample_size
                 and h + fa == sample_size and m + cr == sample_size,
                 f"counts {h, m, fa, cr} do not split two samples of {sample_size}")
    if all_correct:
        found.expect("audit", m == 0 and fa == 0,
                     f"every verdict matches ground truth, yet misses={m} fa={fa}")
    hit_rate, fa_rate = h / (h + m), fa / (fa + cr)
    corrected = hit_rate in (0.0, 1.0) or fa_rate in (0.0, 1.0)
    if corrected:
        hit_rate, fa_rate = (h + 0.5) / (h + m + 1), (fa + 0.5) / (fa + cr + 1)
    z = statistics.NormalDist().inv_cdf
    z_h, z_fa = z(hit_rate), z(fa_rate)
    want = {"hit_rate": hit_rate, "fa_rate": fa_rate, "d_prime": z_h - z_fa,
            "beta": math.exp((z_fa * z_fa - z_h * z_h) / 2),
            "criterion_c": -(z_h + z_fa) / 2}
    for key, value in want.items():
        found.expect("audit", _close(float(got[key]), value, FLOAT_TOL),
                     f"{key} {got[key]}, recomputed {value}")
    found.expect("audit", got["correction_applied"] == str(corrected).lower(),
                 f"correction_applied {got['correction_applied']}, expected {corrected}")


def check_run(work: Path, sample_size: int, journal: Path | None) -> Findings:
    """Check the outputs one pipeline round left in ``work``."""
    found = Findings()
    corpus = work / "corpus"
    records = [json.loads(line) for line in _read_lines(corpus / "records.jsonl")]
    truth = {}
    for line in _read_lines(corpus / "ground_truth.jsonl"):
        obj = json.loads(line)
        truth[obj["article_id"]] = obj
    reports = work / "reports"
    try:
        evidence_lines = _read_lines(work / "detections.jsonl")
        journal_lines = _read_lines(journal) if journal else []
        check_detect(records, truth, evidence_lines, journal_lines, found)
    except (OSError, ValueError, KeyError) as exc:
        found.expect("detect", False, f"unreadable detections: {exc!r}")
        return found
    verdicts = {e["article_id"]: e["verdict"] for e in map(json.loads, evidence_lines)}
    recs = [dict(r, oa=verdicts.get(r["id"]) == "OA") for r in records]
    kept, log = exclusions(recs)
    stage_checks = (
        ("analyze", lambda: check_analyze(reports, kept, log, found)),
        ("cohorts", lambda: check_cohorts(reports, recs, found)),
        ("correlate", lambda: check_correlate(reports, recs, kept, found)),
        ("audit", lambda: check_audit(reports, sample_size,
                                      found.article_failures == 0, found)),
    )
    for stage, check in stage_checks:
        try:
            check()
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError,
                statistics.StatisticsError) as exc:
            found.expect(stage, False, f"unreadable output: {exc!r}")
    return found
