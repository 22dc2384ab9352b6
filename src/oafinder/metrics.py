"""Citation-impact analytics: percent-OA tables, within-issue OA citation
advantage with exclusion rules and citation-range cohort tables, plus
deterministic CSV report writers.

The table functions are pure and sort each report by group key, so reruns are
byte-identical; Reports keeps one run's tables and decides which records each
counts. Every table folds one Tally, filled in one pass over resolved records,
each a (record, is_oa) pair, which may be a stream: cli._resolved_records is
the one place that makes the pairs and decides what happens to an UNKNOWN
record. No table holds a record.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import stats
from .records import ALL_RANGES, ArticleRecord, CitationRange, bin_citations

# Exclusion reasons
ALL_OA_JOURNAL = "ALL_OA_JOURNAL"
ALL_OA_ISSUE = "ALL_OA_ISSUE"
ALL_NOA_ISSUE = "ALL_NOA_ISSUE"
ZERO_NOA_CITATIONS = "ZERO_NOA_CITATIONS"


# ---------------------------------------------------------------------------
# The tally
# ---------------------------------------------------------------------------

class IssueSums:
    """One issue's group fields, copied from its first record in records
    order, and its record counts and citation sums, each [OA, NOA]."""

    __slots__ = ("journal_id", "discipline", "country", "year", "n", "cites")

    def __init__(self, first: ArticleRecord):
        self.journal_id, self.year = first.journal_id, first.year
        self.discipline, self.country = first.discipline, first.country
        self.n = [0, 0]
        self.cites = [0, 0]


# The record fields of a Tally.cells key, before its class (0 OA, 1 NOA).
CELL_FIELDS = ("issue_key", "discipline", "country", "year")


class Tally:
    """Counts of resolved records, filled in one pass. sums: issue key ->
    IssueSums, in the order issues first appear. cells: records by
    CELL_FIELDS (each by its own discipline and country) and class.
    citations: records by year, citation count and class."""

    def __init__(self, resolved: Iterable[tuple[ArticleRecord, bool]]):
        self.sums: dict[str, IssueSums] = {}
        self.cells, self.citations = defaultdict(int), defaultdict(int)
        for rec, is_oa in resolved:
            issue = self.sums.get(rec.issue_key)
            if issue is None:
                issue = self.sums[rec.issue_key] = IssueSums(rec)
            noa = not is_oa  # index 0 counts OA, 1 NOA
            issue.n[noa] += 1
            issue.cites[noa] += rec.citation_count
            self.cells[rec.issue_key, rec.discipline, rec.country, rec.year,
                       noa] += 1
            self.citations[rec.year, rec.citation_count, noa] += 1


# ---------------------------------------------------------------------------
# Exclusion rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exclusion:
    kind: str  # "journal" or "issue"
    key: str
    reason: str
    n_records: int


def apply_exclusions(sums: dict[str, IssueSums]
                     ) -> tuple[dict[str, IssueSums], list[Exclusion]]:
    """Drop all-OA journals, then all-OA issues among the survivors.

    Returns the kept issues (input order preserved) and a log naming each
    excluded journal, then each excluded issue, in key order. Idempotent.
    """
    journals = defaultdict(lambda: [0, 0])  # journal -> [n_oa, n_noa]
    for issue in sums.values():
        counts = journals[issue.journal_id]
        counts[0] += issue.n[0]
        counts[1] += issue.n[1]
    log = [Exclusion("journal", key, ALL_OA_JOURNAL, n_oa)
           for key, (n_oa, n_noa) in sorted(journals.items()) if not n_noa]
    # An issue of an all-OA journal is all OA too: it goes with its journal.
    log += [Exclusion("issue", key, ALL_OA_ISSUE, sums[key].n[0])
            for key in sorted(sums)
            if not sums[key].n[1] and journals[sums[key].journal_id][1]]
    return {key: issue for key, issue in sums.items() if issue.n[1]}, log


# ---------------------------------------------------------------------------
# Percent OA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OAShareReport:
    group: object
    n_oa: int
    n_noa: int

    @property
    def percent_oa(self) -> float:
        return self.n_oa / (self.n_oa + self.n_noa)


def percent_oa(tally: Tally, group_by: str, issues=None
               ) -> list[OAShareReport]:
    """OA share n_oa / (n_oa + n_noa) per value of group_by, a CELL_FIELDS
    field, over issues (None: all), sorted by text as every table is."""
    at = CELL_FIELDS.index(group_by)
    counts = defaultdict(lambda: [0, 0])  # group -> [n_oa, n_noa]
    for key, n in tally.cells.items():
        if issues is None or key[0] in issues:
            counts[key[at]][key[-1]] += n
    return [OAShareReport(g, counts[g][0], counts[g][1])
            for g in sorted(counts, key=str)]


# ---------------------------------------------------------------------------
# Within-issue citation advantage
# ---------------------------------------------------------------------------

def issue_advantage(issue: IssueSums) -> tuple[Optional[float], Optional[str]]:
    """(mean_cit_oa - mean_cit_noa) / mean_cit_noa for one issue.

    Returns (value, None) when includable, else (None, exclusion reason):
    issues that are 100% or 0% OA, or whose NOA members are all uncited, have
    no defined ratio.
    """
    n_oa, n_noa = issue.n
    if not n_oa:
        return None, ALL_NOA_ISSUE
    if not n_noa:
        return None, ALL_OA_ISSUE
    mean_noa = issue.cites[1] / n_noa
    if mean_noa == 0.0:
        return None, ZERO_NOA_CITATIONS
    return (issue.cites[0] / n_oa - mean_noa) / mean_noa, None


@dataclass(frozen=True)
class AdvantageReport:
    group: object
    advantage: Optional[float]  # None = NO_DATA
    n_issues_included: int
    n_issues_excluded: int
    exclusion_reasons: tuple[str, ...]


def aggregate_advantage(sums: dict[str, IssueSums], group_by: str
                        ) -> list[AdvantageReport]:
    """Per-issue ratios averaged to journal, then journals averaged to the
    group, the IssueSums field group_by (the value on each issue's first
    record), each with equal weight (the within-issue ratio of Lawrence
    2001)."""
    # group -> journal -> issue ratios; a journal spans groups when grouping
    # by year, so the journal level is keyed per group.
    ratios = defaultdict(lambda: defaultdict(list))
    excluded = defaultdict(list)
    for issue_key in sorted(sums):
        issue = sums[issue_key]
        group = getattr(issue, group_by)
        ratio, reason = issue_advantage(issue)
        if ratio is None:
            excluded[group].append(reason)
        else:
            ratios[group][issue.journal_id].append(ratio)

    reports = []
    for group in sorted(set(ratios) | set(excluded), key=str):
        journals = ratios.get(group, {})
        means = [sum(r) / len(r) for _, r in sorted(journals.items())]
        reasons = excluded.get(group, [])
        reports.append(AdvantageReport(
            group=group,
            advantage=sum(means) / len(means) if means else None,
            n_issues_included=sum(len(r) for r in journals.values()),
            n_issues_excluded=len(reasons),
            exclusion_reasons=tuple(sorted(set(reasons))),
        ))
    return reports


# ---------------------------------------------------------------------------
# Citation-range cohorts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortCell:
    """Shares of the OA and NOA populations falling in one citation range."""

    oa_share: float
    noa_share: float
    ratio: Optional[float]  # undefined when noa_share == 0
    delta: Optional[float]  # (oa_share - noa_share) / noa_share


def cohort_cell(oa_in_range: int, oa_total: int,
                noa_in_range: int, noa_total: int) -> CohortCell:
    """The cell of one range; both totals are at least 1."""
    oa_share = oa_in_range / oa_total
    noa_share = noa_in_range / noa_total
    if noa_share == 0.0:
        return CohortCell(oa_share, noa_share, None, None)
    return CohortCell(oa_share, noa_share, oa_share / noa_share,
                      (oa_share - noa_share) / noa_share)


def cohort_table(tally: Tally, per_year: bool = True
                 ) -> dict[object, dict[CitationRange, CohortCell]]:
    """OA_c / NOA_c shares per citation range, keyed by year (per_year) or by
    the single key "all" (pooled over all years). Groups where either
    population is empty have no defined shares and are omitted."""
    counts = defaultdict(lambda: defaultdict(lambda: [0, 0]))  # key -> range -> [oa, noa]
    totals = defaultdict(lambda: [0, 0])
    for (year, cites, noa), n in tally.citations.items():
        key = year if per_year else "all"
        counts[key][bin_citations(cites)][noa] += n
        totals[key][noa] += n
    table = {}
    for key in sorted(counts, key=str):
        oa_total, noa_total = totals[key]
        if oa_total < 1 or noa_total < 1:
            continue
        table[key] = {
            rng: cohort_cell(counts[key][rng][0], oa_total,
                             counts[key][rng][1], noa_total)
            for rng in ALL_RANGES
        }
    return table


# ---------------------------------------------------------------------------
# One run's report tables
# ---------------------------------------------------------------------------

class Reports:
    """One run's report tables over its resolved records' Tally, each
    computed on first read and then kept. It alone decides which records a
    table counts: %OA and the advantage count the records kept after
    exclusions; the cohort tables, and the correlations' %OA and totals by
    year, count them all."""

    def __init__(self, resolved: Iterable[tuple[ArticleRecord, bool]]):
        self.tally = Tally(resolved)
        self._tables: dict = {}

    def _once(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    @cached_property
    def exclusions(self) -> tuple[dict[str, IssueSums], list[Exclusion]]:
        """The kept issues' sums and the exclusion log."""
        return apply_exclusions(self.tally.sums)

    def n_records(self, kept: bool) -> int:
        issues = self.exclusions[0] if kept else self.tally.sums
        return sum(sum(issue.n) for issue in issues.values())

    def oa_share(self, dim: str) -> list[OAShareReport]:
        return self._once(("oa_share", dim), lambda: percent_oa(
            self.tally, dim, self.exclusions[0]))

    def advantage(self, dim: str) -> list[AdvantageReport]:
        return self._once(("advantage", dim),
                          lambda: aggregate_advantage(self.exclusions[0], dim))

    def cohorts(self, per_year: bool) -> dict:
        return self._once(("cohorts", per_year),
                          lambda: cohort_table(self.tally, per_year))

    @cached_property
    def correlations(self) -> list:
        """The rows of correlations.csv: (pair name, result or None)."""
        shares = percent_oa(self.tally, "year")
        years = {rep.group: rep.group for rep in shares}  # the x_year series
        total = {rep.group: rep.n_oa + rep.n_noa for rep in shares}
        pct = {rep.group: rep.percent_oa for rep in shares}
        adv = {rep.group: rep.advantage for rep in self.advantage("year")}
        table = self.cohorts(per_year=True)
        rows = [("advantage_x_year", adv, years),
                ("advantage_x_total_articles", adv, total),
                ("advantage_x_pct_oa", adv, pct),
                ("total_articles_x_year", total, years),
                ("total_articles_x_pct_oa", total, pct),
                ("pct_oa_x_year", pct, years)]
        rows += [(f"ratio_{rng.value}_x_year",
                  {y: table[y][rng].ratio for y in table}, years)
                 for rng in ALL_RANGES]

        def correlate(xs, ys):
            # the years xs has (each ys has all); None where r is undefined
            pairs = [(xs[y], ys[y]) for y in years if xs.get(y) is not None]
            try:
                return stats.correlate([x for x, _ in pairs],
                                       [y for _, y in pairs])
            except stats.StatsError:
                return None

        return [(name, correlate(xs, ys)) for name, xs, ys in rows]


# ---------------------------------------------------------------------------
# CSV report writers
# ---------------------------------------------------------------------------

def _fmt_pct(x: Optional[float]) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def _fmt(x: Optional[float]) -> str:
    # + 0.0 turns -0.0 into 0.0, so a zero's sign, which can hang on the
    # last bit of a probit, does not reach the file.
    return "" if x is None else repr(round(x, 12) + 0.0)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_oa_share_csv(reports: list[OAShareReport], path) -> None:
    _write_csv(path, ["group", "n_oa", "n_noa", "percent_oa"],
               ([rep.group, rep.n_oa, rep.n_noa, _fmt_pct(rep.percent_oa)]
                for rep in reports))


def write_advantage_csv(reports: list[AdvantageReport], path) -> None:
    _write_csv(path, ["group", "advantage_pct", "n_issues_included",
                      "n_issues_excluded", "exclusion_reasons"],
               ([rep.group,
                 "NO_DATA" if rep.advantage is None else _fmt_pct(rep.advantage),
                 rep.n_issues_included, rep.n_issues_excluded,
                 ";".join(rep.exclusion_reasons)] for rep in reports))


def write_cohort_csv(table, path) -> None:
    def row(key, rng):
        cell = table[key][rng]
        return [key, rng.value, _fmt_pct(cell.oa_share),
                _fmt_pct(cell.noa_share),
                "undefined" if cell.ratio is None else _fmt(cell.ratio),
                "undefined" if cell.delta is None else _fmt_pct(cell.delta)]

    _write_csv(path, ["group", "citation_range", "oa_share_pct",
                      "noa_share_pct", "ratio", "delta_pct"],
               (row(key, rng) for key in sorted(table, key=str)
                for rng in ALL_RANGES))


def write_correlations_csv(rows, path) -> None:
    """rows: iterable of (pair_name, CorrelationResult or None)."""
    _write_csv(path, ["pair", "r", "n", "t", "df", "p_two_tailed",
                      "p_one_tailed"],
               ([name, "ZERO_VARIANCE", "", "", "", "", ""] if res is None
                else [name, _fmt(res.r), res.n, _fmt(res.t_stat), res.df,
                      _fmt(res.p_two_tailed), _fmt(res.p_one_tailed)]
                for name, res in rows))


def write_sdt_csv(m, result, path) -> None:
    _write_csv(path, ["hits", "misses", "false_alarms", "correct_rejections",
                      "hit_rate", "fa_rate", "d_prime", "beta", "criterion_c",
                      "correction_applied"],
               [[m.hits, m.misses, m.false_alarms, m.correct_rejections,
                 _fmt(result.hit_rate), _fmt(result.fa_rate),
                 _fmt(result.d_prime), _fmt(result.beta),
                 _fmt(result.criterion_c),
                 str(result.correction_applied).lower()]])


def write_exclusions_csv(log: list[Exclusion], path) -> None:
    _write_csv(path, ["kind", "key", "reason", "n_records"],
               ([exc.kind, exc.key, exc.reason, exc.n_records] for exc in log))
