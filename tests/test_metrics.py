"""Analytics tests: exclusion rules, percent OA, within-issue advantage,
cohort tables, CSV determinism.

Oracle style: where a spec value is derived, it is recomputed here with
flat, independent loops over the raw (record, is_oa) pairs (no shared
pipeline helpers).
"""

import csv
import gc
import random
import weakref
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from oafinder import metrics
from oafinder.metrics import (
    ALL_NOA_ISSUE,
    ALL_OA_ISSUE,
    ALL_OA_JOURNAL,
    ZERO_NOA_CITATIONS,
    Tally,
    aggregate_advantage,
    apply_exclusions,
    cohort_cell,
    cohort_table,
    issue_advantage,
    percent_oa,
)
from oafinder.records import ALL_RANGES, ArticleRecord, CitationRange
from oafinder.stats import ConfusionMatrix, sdt_analysis


def rec(i, journal="j1", year=2000, issue=1, cites=0, oa=False,
        discipline="biology", country="US"):
    """A resolved record: (record, is_oa)."""
    return ArticleRecord(
        id=f"r{i}", first_author_surname="Weiss", title=f"Paper number {i}",
        journal_id=journal, issue_key=f"{journal}|{year}|{issue}", year=year,
        discipline=discipline, country=country, citation_count=cites), oa


def sums(records):
    """The per-issue sums of one pass over records."""
    return Tally(records).sums


def n_records(sums):
    return sum(sum(issue.n) for issue in sums.values())


def one_issue(records):
    """The IssueSums of records that share one issue."""
    [issue] = sums(records).values()
    return issue


class TestExclusions:
    def test_all_oa_journal_dropped(self):
        records = [rec(i, journal="goldoa", oa=True) for i in range(10)]
        records += [rec(10 + i, journal="mixed", oa=(i == 0)) for i in range(4)]
        kept, log = apply_exclusions(sums(records))
        assert n_records(kept) == 4
        assert any(e.kind == "journal" and e.key == "goldoa"
                   and e.reason == ALL_OA_JOURNAL and e.n_records == 10
                   for e in log)

    def test_all_oa_issue_dropped_inside_mixed_journal(self):
        records = [rec(i, issue=1, oa=True) for i in range(3)]
        records += [rec(3 + i, issue=2, oa=(i < 2)) for i in range(7)]
        kept, log = apply_exclusions(sums(records))
        assert n_records(kept) == 7
        assert any(e.kind == "issue" and e.key == "j1|2000|1"
                   and e.reason == ALL_OA_ISSUE for e in log)

    def test_mixed_issue_kept(self):
        issues = sums([rec(i, oa=(i < 2)) for i in range(7)])
        kept, log = apply_exclusions(issues)
        assert kept == issues
        assert log == []

    def test_idempotent(self):
        records = [rec(i, journal="goldoa", oa=True) for i in range(5)]
        records += [rec(5 + i, journal="m", issue=1, oa=True) for i in range(2)]
        records += [rec(7 + i, journal="m", issue=2, oa=(i == 0)) for i in range(5)]
        kept1, _ = apply_exclusions(sums(records))
        kept2, log2 = apply_exclusions(kept1)
        assert kept2 == kept1
        assert log2 == []


class TestPercentOA:
    def test_published_overall_share(self):
        # 156,845 OA of 1,307,038 -> 12.0%
        assert 156845 / 1307038 == pytest.approx(0.120, abs=0.0005)

    def test_counts(self):
        records = [rec(i, oa=(i < 5)) for i in range(10)]
        [report] = percent_oa(Tally(records), "discipline")
        assert (report.n_oa, report.n_noa) == (5, 5)
        assert report.percent_oa == 0.5

    def test_zero_oa_group(self):
        [report] = percent_oa(Tally([rec(1), rec(2)]), "year")
        assert report.percent_oa == 0.0

    def test_group_count_conservation(self):
        records = [rec(i, country=("US" if i % 2 else "DE"), oa=(i % 3 == 0))
                   for i in range(30)]
        reports = percent_oa(Tally(records), "country")
        assert sum(r.n_oa + r.n_noa for r in reports) == len(records)
        assert all(0.0 <= r.percent_oa <= 1.0 for r in reports)


class TestIssueAdvantage:
    def test_hand_computed(self):
        # OA mean 3.0, NOA mean 2.0 -> (3-2)/2 = +0.5
        records = [rec(0, cites=3, oa=True),
                   rec(1, cites=1), rec(2, cites=3)]
        value, reason = issue_advantage(one_issue(records))
        assert reason is None
        assert value == pytest.approx(0.5)

    def test_equal_means(self):
        records = [rec(0, cites=2, oa=True), rec(1, cites=2)]
        value, _ = issue_advantage(one_issue(records))
        assert value == 0.0

    def test_zero_noa_citations_excluded(self):
        records = [rec(0, cites=5, oa=True), rec(1, cites=0)]
        value, reason = issue_advantage(one_issue(records))
        assert value is None
        assert reason == ZERO_NOA_CITATIONS

    def test_one_sided_issues_excluded(self):
        _, r1 = issue_advantage(one_issue([rec(0, cites=1, oa=True)]))
        assert r1 == ALL_OA_ISSUE
        _, r2 = issue_advantage(one_issue([rec(0, cites=1)]))
        assert r2 == ALL_NOA_ISSUE

    @given(st.integers(1, 50))
    def test_scale_equivariance(self, k):
        base = [rec(0, cites=6, oa=True), rec(1, cites=2), rec(2, cites=4)]
        scaled = [rec(0, cites=6 * k, oa=True), rec(1, cites=2 * k),
                  rec(2, cites=4 * k)]
        v1, _ = issue_advantage(one_issue(base))
        v2, _ = issue_advantage(one_issue(scaled))
        assert v2 == pytest.approx(v1, abs=1e-12)


class TestAggregateAdvantage:
    def test_mean_of_issue_ratios_within_journal(self):
        # issue 1 ratio +1.0, issue 2 ratio 0.0 -> journal advantage +0.5
        records = [rec(0, issue=1, cites=4, oa=True), rec(1, issue=1, cites=2),
                   rec(2, issue=2, cites=3, oa=True), rec(3, issue=2, cites=3)]
        [report] = aggregate_advantage(sums(records), "journal_id")
        assert report.advantage == pytest.approx(0.5)
        assert report.n_issues_included == 2

    def test_single_issue_identity(self):
        records = [rec(0, cites=6, oa=True), rec(1, cites=4)]
        [report] = aggregate_advantage(sums(records), "discipline")
        assert report.advantage == pytest.approx(0.5)

    def test_no_data_group(self):
        records = [rec(0, cites=1), rec(1, cites=2)]  # all NOA
        [report] = aggregate_advantage(sums(records), "discipline")
        assert report.advantage is None
        assert report.exclusion_reasons == (ALL_NOA_ISSUE,)

    def test_matches_bruteforce_oracle_on_synthetic_discipline(self):
        rng = random.Random(7)
        records = []
        i = 0
        for journal in ("ja", "jb", "jc"):
            for issue in range(1, 7):
                noa_mean = rng.choice([5, 10])  # 1.8x stays integral
                for _ in range(6):
                    records.append(rec(i, journal=journal, issue=issue,
                                       cites=noa_mean, oa=False))
                    i += 1
                for _ in range(3):
                    # planted advantage: OA cited exactly 1.8x the NOA mean
                    records.append(rec(i, journal=journal, issue=issue,
                                       cites=noa_mean * 9 // 5, oa=True))
                    i += 1

        # flat oracle: nested dict loops, no pipeline code
        per_issue = defaultdict(lambda: ([], []))
        for r, is_oa in records:
            per_issue[r.issue_key][0 if is_oa else 1].append(r.citation_count)
        per_journal = defaultdict(list)
        for key, (oa, noa) in per_issue.items():
            if oa and noa and sum(noa) > 0:
                m_oa, m_noa = sum(oa) / len(oa), sum(noa) / len(noa)
                per_journal[key.split("|")[0]].append((m_oa - m_noa) / m_noa)
        jmeans = [sum(v) / len(v) for v in per_journal.values()]
        oracle = sum(jmeans) / len(jmeans)

        [report] = aggregate_advantage(sums(records), "discipline")
        assert report.advantage == pytest.approx(oracle, abs=1e-9)
        assert report.advantage == pytest.approx(0.8, abs=0.05)

    def test_order_independence(self):
        rng = random.Random(3)
        records = [rec(i, journal=f"j{i % 3}", issue=i % 4,
                       cites=rng.randrange(0, 9), oa=(i % 5 == 0))
                   for i in range(60)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert aggregate_advantage(sums(records), "journal_id") == \
            aggregate_advantage(sums(shuffled), "journal_id")


class TestCohorts:
    def test_published_uncited_cohort_delta(self):
        # published counts: total 1,307,038 / uncited 793,494 / OA 156,845 /
        # OA uncited 85,794
        cell = cohort_cell(
            oa_in_range=85794, oa_total=156845,
            noa_in_range=793494 - 85794, noa_total=1307038 - 156845)
        assert cell.oa_share == pytest.approx(0.547, abs=0.0005)
        assert cell.noa_share == pytest.approx(0.615, abs=0.0005)
        assert cell.delta == pytest.approx(-0.111, abs=0.0005)

    def test_identical_distributions_give_zero_delta(self):
        records = []
        for i, cites in enumerate([0, 1, 3, 6, 10, 20] * 4):
            records.append(rec(2 * i, cites=cites, oa=True))
            records.append(rec(2 * i + 1, cites=cites, oa=False))
        table = cohort_table(Tally(records), per_year=False)
        for cell in table["all"].values():
            assert cell.delta == pytest.approx(0.0, abs=1e-12)

    def test_shares_sum_to_one_per_year(self):
        rng = random.Random(1)
        records = [rec(i, year=1992 + (i % 3), cites=rng.randrange(0, 30),
                       oa=(i % 4 == 0)) for i in range(300)]
        table = cohort_table(Tally(records), per_year=True)
        for year, cells in table.items():
            assert sum(c.oa_share for c in cells.values()) == \
                pytest.approx(1.0, abs=1e-9)
            assert sum(c.noa_share for c in cells.values()) == \
                pytest.approx(1.0, abs=1e-9)

    def test_planted_multiplier_matches_histogram_recount(self):
        rng = random.Random(5)
        records = []
        for i in range(4000):
            oa = rng.random() < 0.3
            cites = 0 if rng.random() < 0.4 else rng.randrange(1, 12)
            if oa:
                cites *= 2
            records.append(rec(i, cites=cites, oa=oa))
        table = cohort_table(Tally(records), per_year=False)

        # flat histogram recount
        bins = {"0": lambda c: c == 0, "1": lambda c: c == 1,
                "2-3": lambda c: 2 <= c <= 3, "4-7": lambda c: 4 <= c <= 7,
                "8-15": lambda c: 8 <= c <= 15, "16+": lambda c: c >= 16}
        oa_counts = [r.citation_count for r, is_oa in records if is_oa]
        noa_counts = [r.citation_count for r, is_oa in records if not is_oa]
        for rng_enum in ALL_RANGES:
            member = bins[rng_enum.value]
            oa_share = sum(1 for c in oa_counts if member(c)) / len(oa_counts)
            noa_share = sum(1 for c in noa_counts if member(c)) / len(noa_counts)
            cell = table["all"][rng_enum]
            assert cell.oa_share == pytest.approx(oa_share, abs=1e-12)
            assert cell.noa_share == pytest.approx(noa_share, abs=1e-12)
            if noa_share > 0:
                assert cell.delta == pytest.approx(
                    (oa_share - noa_share) / noa_share, abs=1e-9)

    def test_undefined_ratio_when_noa_bin_empty(self):
        records = [rec(0, cites=20, oa=True), rec(1, cites=0, oa=True),
                   rec(2, cites=0)]
        table = cohort_table(Tally(records), per_year=False)
        assert table["all"][CitationRange.R16_PLUS].ratio is None


class TestReports:
    def test_stream_gives_the_tables_of_a_list_and_keeps_no_record(self):
        # Mixed issues whose records differ in discipline and country (an
        # issue's records are 12 apart), an all-OA and an all-NOA journal.
        records = [rec(i, journal=f"j{i % 3}", year=1998 + i % 2,
                       issue=i % 4, cites=i % 9, oa=(i % 5 == 0),
                       discipline=("biology", "physics")[i // 12 % 2],
                       country=("US", "DE", "FR")[i // 12 % 3])
                   for i in range(84)]
        records += [rec(84 + i, journal=("gold", "closed")[i % 2], cites=i,
                        oa=(i % 2 == 0), country="SE") for i in range(6)]
        refs = []

        def stream():
            # A copy of each record, which nothing but the stream holds.
            for r, is_oa in records:
                copy = replace(r)
                refs.append(weakref.ref(copy))
                yield copy, is_oa

        listed, streamed = metrics.Reports(records), metrics.Reports(stream())
        tables = [
            (reports.exclusions[1],
             [(reports.oa_share(dim), reports.advantage(dim))
              for dim in ("discipline", "country", "year")],
             reports.cohorts(per_year=True), reports.cohorts(per_year=False),
             reports.correlations,
             reports.n_records(kept=True), reports.n_records(kept=False))
            for reports in (listed, streamed)]
        assert tables[0] == tables[1]
        gc.collect()
        assert len(refs) == 90
        assert [ref for ref in refs if ref() is not None] == []


class TestCsvDeterminism:
    def test_identical_bytes_on_rerun(self, tmp_path):
        records = [rec(i, year=1995 + i % 2, cites=i % 5, oa=(i % 3 == 0))
                   for i in range(40)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.write_oa_share_csv(percent_oa(Tally(records), "year"), p1)
        metrics.write_oa_share_csv(percent_oa(Tally(records), "year"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_table_lists_years_in_one_order(self, tmp_path):
        # Years 999-1001 sort one way as numbers and another as text; each
        # year has an issue with cited OA and NOA records, so it appears in
        # all three tables.
        records = [rec(4 * (year - 999) + k, year=year, cites=k + 1,
                       oa=k < 2)
                   for year in (999, 1000, 1001) for k in range(4)]
        reports = metrics.Reports(records)
        metrics.write_oa_share_csv(reports.oa_share("year"),
                                   tmp_path / "oa_share_by_year.csv")
        metrics.write_advantage_csv(reports.advantage("year"),
                                    tmp_path / "advantage_by_year.csv")
        metrics.write_cohort_csv(reports.cohorts(per_year=True),
                                 tmp_path / "cohorts_yearly.csv")
        for name in ("oa_share_by_year.csv", "advantage_by_year.csv",
                     "cohorts_yearly.csv"):
            with open(tmp_path / name, encoding="utf-8") as fh:
                groups = [row[0] for row in csv.reader(fh)][1:]
            assert list(dict.fromkeys(groups)) == ["1000", "1001", "999"], name

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        metrics.write_advantage_csv([], path)
        assert path.read_text().strip() == \
            "group,advantage_pct,n_issues_included,n_issues_excluded,exclusion_reasons"

    def test_perfect_audit_criterion_is_unsigned_zero(self, tmp_path):
        path = tmp_path / "sdt.csv"
        for n in range(1, 201):
            m = ConfusionMatrix(n, 0, 0, n)
            metrics.write_sdt_csv(m, sdt_analysis(m), path)
            row = dict(zip(*csv.reader(path.read_text().splitlines())))
            assert row["criterion_c"] == "0.0", n

    def test_cohort_golden_shape(self, tmp_path):
        records = [rec(i, cites=i % 20, oa=(i % 2 == 0)) for i in range(40)]
        path = tmp_path / "cohorts.csv"
        metrics.write_cohort_csv(cohort_table(Tally(records), per_year=False),
                                 path)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "group,citation_range,oa_share_pct,noa_share_pct,ratio,delta_pct"
        assert len(lines) == 1 + len(ALL_RANGES)
        assert [ln.split(",")[1] for ln in lines[1:]] == \
            ["0", "1", "2-3", "4-7", "8-15", "16+"]
