"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS` line on success (run with -v
and the test names mirror the criteria), and every numeric target is checked
against an independent oracle or a frozen, pre-verified constant.
"""

import csv
import math
import random
import statistics
import time
from collections import defaultdict
from urllib.parse import urlsplit, urlunsplit

import pytest

from oafinder import metrics
from oafinder.cli import main
from oafinder.corpus import (
    CorpusSpec,
    MockFetcher,
    MockSearchProvider,
    MockWeb,
    generate_corpus,
)
from oafinder.records import (
    ArticleRecord,
    DetectionEvidence,
    Verdict,
    save_rows,
)
from oafinder.robot.crawl import detect_oa
from oafinder.stats import (
    ConfusionMatrix,
    build_confusion_from_audit,
    pearson_r,
    probit,
    r_to_p,
    sdt_analysis,
)

from oracles import norm_cdf, reachable_within_depth

# Shared with the other suites: Simpson quadrature of the t density gives an
# implementation-independent p-value oracle.
from test_stats import t_sf_oracle


def ok(n, msg):
    print(f"criterion {n}: PASS — {msg}")


def test_c1_signal_detection_reproduction():
    # audit design: 100 robot-OA of which 19 are wrong, 100 robot-NOA of
    # which 6 are wrong
    matrix = build_confusion_from_audit(
        [True] * 81 + [False] * 19, [True] * 6 + [False] * 94)
    assert matrix == ConfusionMatrix(81, 6, 19, 94)
    res = sdt_analysis(matrix)
    assert res.d_prime == pytest.approx(2.45, abs=0.02)
    assert res.beta == pytest.approx(0.52, abs=0.01)
    ok(1, f"d'={res.d_prime:.4f} (2.45±0.02), beta={res.beta:.4f} (0.52±0.01)")


def test_c2_published_count_arithmetic():
    total = 1_307_038
    uncited = 793_494
    one_cite = 155_265
    sixteen_plus = 53_838
    oa = 156_845
    oa_uncited = 85_794

    assert 100 * uncited / total == pytest.approx(60.7, abs=0.05)
    assert 100 * one_cite / total == pytest.approx(11.9, abs=0.05)
    assert 100 * sixteen_plus / total == pytest.approx(4.1, abs=0.05)
    assert 100 * oa / total == pytest.approx(12.0, abs=0.05)
    assert 100 * oa_uncited / oa == pytest.approx(54.7, abs=0.05)

    cell = metrics.cohort_cell(oa_uncited, oa, uncited - oa_uncited, total - oa)
    assert cell.oa_share == pytest.approx(0.547, abs=0.0005)
    assert cell.noa_share == pytest.approx(0.615, abs=0.0005)
    assert 100 * cell.delta == pytest.approx(-12.0, abs=2.0)
    assert 100 * cell.delta == pytest.approx(-11.1, abs=0.05)
    ok(2, f"shares 60.7/11.9/4.1/12.0/54.7, delta_0={100 * cell.delta:.1f}% "
          "(−12±2)")


def test_c3_correlation_significance():
    a = r_to_p(0.76, 12)
    assert a.p_two_tailed < 0.005
    assert a.p_two_tailed == pytest.approx(
        2 * t_sf_oracle(a.t_stat, a.df), abs=1e-6)
    b = r_to_p(0.98, 6)
    assert b.p_two_tailed < 0.005
    assert b.p_two_tailed == pytest.approx(
        2 * t_sf_oracle(b.t_stat, b.df), abs=1e-6)
    ok(3, f"p(0.76,12)={a.p_two_tailed:.5f}, p(0.98,6)={b.p_two_tailed:.5f}, "
          "both <0.005 and within 1e-6 of quadrature")


def test_c4_end_to_end_mock_web_detection():
    # 500 articles, exactly 60 reachable full texts (frozen seed), with
    # abstract-only decoys, dead links and over-deep chains planted
    spec = CorpusSpec(
        n_articles=500, oa_probability=0.14,
        chain_depth_distribution=(
            (0, 0.4), (1, 0.25), (2, 0.15), (3, 0.1), (4, 0.1)),
        seed=8)
    t0 = time.time()
    corpus = generate_corpus(spec)
    kinds = defaultdict(int)
    for gt in corpus.ground_truth.values():
        kinds[gt.kind] += 1
    assert kinds["fulltext"] == 60
    assert kinds["abstract-decoy"] > 0 and kinds["deep-chain"] > 0

    provider = MockSearchProvider(corpus.web)
    fetcher = MockFetcher(corpus.web)
    cells = [0, 0, 0, 0]  # hits, misses, false alarms, correct rejections
    for rec in corpus.records:
        gt = corpus.ground_truth[rec.id]
        ev = detect_oa(rec, provider, fetcher)
        robot_oa = ev.verdict is Verdict.OA
        if robot_oa:
            assert (ev.url, ev.depth) == (gt.fulltext_url, gt.chain_depth)
        truly_oa = reachable_within_depth(corpus.web, rec, gt.fulltext_url)
        assert truly_oa == gt.oa
        if truly_oa:
            cells[0 if robot_oa else 1] += 1
        else:
            cells[2 if robot_oa else 3] += 1
    elapsed = time.time() - t0
    assert cells == [60, 0, 0, 440]
    assert elapsed < 30.0
    ok(4, f"500 articles: 60 hits, 0 misses, 0 false alarms, 440 correct "
          f"rejections in {elapsed:.1f}s (<30s)")


def test_c4_non_canonical_search_results():
    # Every search result rewritten to an equivalent but non-canonical URL
    # (upper-case scheme and host, the default port, a "./" segment), so the
    # robot must canonicalize each one before it fetches: the evidence is
    # that of the original web, article for article.
    corpus = generate_corpus(CorpusSpec(n_articles=300, seed=3))

    def non_canonical(url):
        parts = urlsplit(url)
        assert parts.scheme == "http" and parts.port is None, url
        return urlunsplit(("HTTP", parts.hostname.upper() + ":80",
                           "/." + parts.path, parts.query, parts.fragment))

    queries = {query: [non_canonical(url) for url in results]
               for query, results in corpus.web.queries.items()}
    rewritten = MockWeb(pages=corpus.web.pages, queries=queries)
    assert sum(map(len, queries.values())) > 200
    assert not set(corpus.web.pages) & {url for results in queries.values()
                                        for url in results}

    def evidence(web):
        provider, fetcher = MockSearchProvider(web), MockFetcher(web)
        return [detect_oa(rec, provider, fetcher) for rec in corpus.records]

    original = evidence(corpus.web)
    assert evidence(rewritten) == original
    n_oa = sum(ev.verdict is Verdict.OA for ev in original)
    assert n_oa == 33
    ok(4, f"300 articles with non-canonical search results: the same "
          f"evidence as the canonical web, {n_oa} OA")


def test_c5_depth_cutoff():
    from test_robot import RECORD, make_web

    ev3 = detect_oa(RECORD, MockSearchProvider(make_web(3)),
                    MockFetcher(make_web(3)))
    assert ev3.verdict is Verdict.OA and ev3.depth == 3
    ev4 = detect_oa(RECORD, MockSearchProvider(make_web(4)),
                    MockFetcher(make_web(4)))
    assert ev4.verdict is Verdict.NOA and ev4.reason == "EXHAUSTED"
    ok(5, "3-link chain -> OA at depth 3; 4-link chain -> NOA{EXHAUSTED}")


def _rec(i, journal, issue, oa, cites, year=2000, discipline="biology",
         country="US"):
    """A resolved record: (record, is_oa)."""
    return ArticleRecord(
        id=f"x{i}", first_author_surname="Reed", title=f"Item {i}",
        journal_id=journal, issue_key=f"{journal}|{year}|{issue}", year=year,
        discipline=discipline, country=country, citation_count=cites), oa


def brute_force_advantage(records):
    """Flat-loop recomputation over (record, is_oa) pairs: issue ratios ->
    journal means -> grand mean, skipping all-OA journals and any issue
    without both populations and cited NOA articles."""
    by_journal = defaultdict(list)
    for r, is_oa in records:
        by_journal[r.journal_id].append((r, is_oa))
    journal_means = []
    for journal in sorted(by_journal):
        members = by_journal[journal]
        if all(is_oa for _, is_oa in members):
            continue
        by_issue = defaultdict(list)
        for r, is_oa in members:
            by_issue[r.issue_key].append((r, is_oa))
        ratios = []
        for issue in sorted(by_issue):
            oa = [r.citation_count for r, is_oa in by_issue[issue] if is_oa]
            noa = [r.citation_count for r, is_oa in by_issue[issue]
                   if not is_oa]
            if not oa or not noa or sum(noa) == 0:
                continue
            m_oa, m_noa = sum(oa) / len(oa), sum(noa) / len(noa)
            ratios.append((m_oa - m_noa) / m_noa)
        if ratios:
            journal_means.append(sum(ratios) / len(ratios))
    return sum(journal_means) / len(journal_means) if journal_means else None


def test_c6_exclusion_rules_and_oracle():
    i = iter(range(10_000))
    records = []
    # j-allOA: every article OA -> whole journal excluded
    records += [_rec(next(i), "j-allOA", 1, True, c) for c in (3, 5, 7)]
    # j-mixed issue 1: all OA -> issue excluded
    records += [_rec(next(i), "j-mixed", 1, True, c) for c in (4, 6)]
    # j-mixed issue 2: zero NOA citations -> no defined ratio
    records += [_rec(next(i), "j-mixed", 2, True, 5),
                _rec(next(i), "j-mixed", 2, False, 0)]
    # j-mixed issue 3 and j-other: includable
    records += [_rec(next(i), "j-mixed", 3, True, 9),
                _rec(next(i), "j-mixed", 3, False, 6),
                _rec(next(i), "j-mixed", 3, False, 2)]
    records += [_rec(next(i), "j-other", 1, True, 2),
                _rec(next(i), "j-other", 1, False, 8),
                _rec(next(i), "j-other", 2, True, 10),
                _rec(next(i), "j-other", 2, False, 4)]

    kept, log = metrics.apply_exclusions(metrics.Tally(records).sums)
    logged = {(e.kind, e.key, e.reason) for e in log}
    assert ("journal", "j-allOA", metrics.ALL_OA_JOURNAL) in logged
    assert ("issue", "j-mixed|2000|1", metrics.ALL_OA_ISSUE) in logged

    reports = metrics.aggregate_advantage(kept, "discipline")
    assert len(reports) == 1
    rep = reports[0]
    assert metrics.ZERO_NOA_CITATIONS in rep.exclusion_reasons

    oracle = brute_force_advantage(records)
    assert rep.advantage == pytest.approx(oracle, abs=1e-9)
    ok(6, f"exclusions logged by name; advantage {rep.advantage:+.6f} matches "
          "flat-loop oracle to 1e-9")


def test_c7_null_and_planted_advantage():
    t0 = time.time()
    null_spec = CorpusSpec(n_articles=50_000, oa_probability=0.12, seed=4)
    # Records resolved from ground truth, bypassing the robot.
    null = generate_corpus(null_spec)
    null_recs = [(r, null.ground_truth[r.id].oa) for r in null.records]
    kept, _ = metrics.apply_exclusions(metrics.Tally(null_recs).sums)
    reports = metrics.aggregate_advantage(kept, "discipline")
    advs = [r.advantage for r in reports if r.advantage is not None]
    null_adv = sum(advs) / len(advs)
    assert abs(null_adv) < 0.05  # within 5 points of zero

    planted_spec = CorpusSpec(n_articles=50_000, oa_probability=0.12, seed=4,
                              oa_citation_multiplier=2.0)
    planted = generate_corpus(planted_spec)
    planted_recs = [(r, planted.ground_truth[r.id].oa)
                    for r in planted.records]
    kept2, _ = metrics.apply_exclusions(metrics.Tally(planted_recs).sums)
    reports2 = metrics.aggregate_advantage(kept2, "discipline")
    advs2 = [r.advantage for r in reports2 if r.advantage is not None]
    planted_adv = sum(advs2) / len(advs2)
    oracle = brute_force_advantage(planted_recs)
    elapsed = time.time() - t0
    assert planted_adv > 0
    assert planted_adv == pytest.approx(oracle, abs=0.10)
    assert elapsed < 60.0
    ok(7, f"null advantage {100 * null_adv:+.1f}% (|.|<5); doubled-citation "
          f"advantage {100 * planted_adv:+.1f}% vs oracle "
          f"{100 * oracle:+.1f}%; {elapsed:.1f}s (<60s)")


def test_c8_determinism(tmp_path):
    spec_file = tmp_path / "spec.cfg"
    spec_file.write_text("n_articles = 80\noa_probability = 0.2\nseed = 6\n")

    def run_all(root):
        corpus_dir = root / "corpus"
        assert main(["synth", "--spec", str(spec_file),
                     "--out", str(corpus_dir)]) == 0
        det = root / "detections.jsonl"
        assert main(["detect", "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(det),
                     "--mock-web", str(corpus_dir / "mockweb")]) == 0
        common = ["--records", str(corpus_dir / "records.jsonl"),
                  "--detections", str(det), "--out", str(root / "reports")]
        for cmd in ("analyze", "cohorts", "correlate"):
            assert main([cmd] + common) == 0
        cfg = root / "audit.cfg"
        cfg.write_text(
            f"records = {corpus_dir / 'records.jsonl'}\n"
            f"detections = {det}\n"
            f"ground_truth = {corpus_dir / 'ground_truth.jsonl'}\n"
            f"out = {root / 'reports'}\nsample_size = 10\nseed = 0\n")
        assert main(["audit", "--config", str(cfg)]) == 0

    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    run_all(r1)
    run_all(r2)
    checked = 0
    for p in sorted(r1.rglob("*")):
        if not p.is_file() or p.name == "audit.cfg":
            continue
        rel = p.relative_to(r1)
        assert (r2 / rel).read_bytes() == p.read_bytes(), str(rel)
        checked += 1
    assert checked > 10
    ok(8, f"{checked} output files byte-identical across independent reruns")


def test_c9_statistics_kernel_properties():
    worst = 0.0
    for i in range(1, 100_000):
        p = i / 100_000
        worst = max(worst, abs(norm_cdf(probit(p)) - p))
    assert worst <= 1e-9

    rng = random.Random(99)
    for _ in range(1_000):
        n = rng.randrange(4, 30)
        xs = [rng.gauss(0, 3) for _ in range(n)]
        ys = [rng.gauss(0, 3) for _ in range(n)]
        a, b = rng.uniform(0.1, 10), rng.uniform(-20, 20)
        r0 = pearson_r(xs, ys)
        assert pearson_r([a * x + b for x in xs], ys) == \
            pytest.approx(r0, abs=1e-7)

    for _ in range(1_000):
        m = ConfusionMatrix(rng.randrange(1, 100), rng.randrange(1, 100),
                            rng.randrange(1, 100), rng.randrange(1, 100))
        swapped = ConfusionMatrix(m.correct_rejections, m.false_alarms,
                                  m.misses, m.hits)
        res, sres = sdt_analysis(m), sdt_analysis(swapped)
        assert abs(sres.d_prime - res.d_prime) <= 1e-12
        assert abs(sres.beta * res.beta - 1.0) <= 1e-12
    ok(9, f"probit round-trip worst error {worst:.1e} on 1e5 grid; Pearson "
          "affine invariance x1000; d'/beta swap symmetry x1000 to 1e-12")


def test_c10_correlations_flat_loop_oracle(tmp_path):
    # Eight years of three mixed journals, a growing all-OA journal and, in
    # odd years, an all-OA issue of j1. The %OA, the article totals and the
    # range ratios count every record, the all-OA ones too; the advantage
    # and the %OA tables of analyze count the records the exclusions keep
    # (an all-OA issue has no ratio). One issue of j2 holds records of
    # three disciplines and countries.
    rng = random.Random(10)
    records = []

    def add(journal, issue, oa, year, discipline="biology", country="US"):
        records.append(_rec(len(records), journal, issue, oa,
                            rng.randrange(25), year, discipline, country))

    for year in range(1995, 2003):
        for journal in ("j1", "j2", "j3"):
            for issue in (1, 2):
                for _ in range(rng.randrange(4, 9)):
                    add(journal, issue, rng.random() < 0.3, year)
        for _ in range(year - 1993):
            add("j-allOA", 1, True, year)
        for _ in range(3 * (year % 2)):
            add("j1", 3, True, year)
    for k in range(9):
        add("j2", 4, k % 4 == 0, 1999,
            discipline=("physics", "chemistry", "biology")[k % 3],
            country=("DE", "US", "FR")[k // 3])
    save_rows([r for r, _ in records], tmp_path / "records.jsonl")
    save_rows([
        DetectionEvidence(r.id, Verdict.OA, url=f"http://oa.test/{r.id}")
        if is_oa else DetectionEvidence(r.id, Verdict.NOA)
        for r, is_oa in records], tmp_path / "detections.jsonl")
    for cmd in ("correlate", "analyze"):
        assert main([cmd, "--records", str(tmp_path / "records.jsonl"),
                     "--detections", str(tmp_path / "detections.jsonl"),
                     "--out", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r" / "correlations.csv", encoding="utf-8") as fh:
        rows = {row["pair"]: row for row in csv.DictReader(fh)}

    years = sorted({r.year for r, _ in records})
    by_year = {y: [(r, is_oa) for r, is_oa in records if r.year == y]
               for y in years}
    total = {y: len(by_year[y]) for y in years}
    pct = {y: sum(is_oa for _, is_oa in by_year[y]) / total[y] for y in years}
    series = {
        "advantage": {y: brute_force_advantage(by_year[y]) for y in years},
        "total_articles": total,
        "pct_oa": pct,
        "year": {y: y for y in years},
    }
    for name, lo, hi in (("0", 0, 0), ("1", 1, 1), ("2-3", 2, 3),
                         ("4-7", 4, 7), ("8-15", 8, 15),
                         ("16+", 16, math.inf)):
        ratio = series[f"ratio_{name}"] = {}
        for y in years:
            oa = [r.citation_count for r, is_oa in by_year[y] if is_oa]
            noa = [r.citation_count for r, is_oa in by_year[y] if not is_oa]
            noa_in = sum(lo <= c <= hi for c in noa)
            if oa and noa_in:
                ratio[y] = (sum(lo <= c <= hi for c in oa) / len(oa)
                            / (noa_in / len(noa)))

    assert len(rows) == 12
    for pair, row in rows.items():
        xs, _, ys = pair.partition("_x_")
        xy = [(series[xs][y], series[ys][y]) for y in years
              if series[xs].get(y) is not None
              and series[ys].get(y) is not None]
        try:
            r = statistics.correlation(*zip(*xy)) if len(xy) >= 3 else None
        except statistics.StatisticsError:  # a constant series
            r = None
        if r is None:
            assert row["r"] == "ZERO_VARIANCE", pair
        else:
            assert float(row["r"]) == pytest.approx(r, abs=1e-9), pair
            assert int(row["n"]) == len(xy), pair

    # The file's %OA counts the all-OA journal: without it, r differs.
    pct_mixed = [statistics.mean(is_oa for r, is_oa in by_year[y]
                                 if r.journal_id != "j-allOA") for y in years]
    assert statistics.correlation(pct_mixed, years) != \
        pytest.approx(float(rows["pct_oa_x_year"]["r"]), abs=1e-3)

    # %OA by each record's own discipline and country, over the records of
    # the issues that hold a NOA record.
    kept = [(r, is_oa) for r, is_oa in records
            if any(not o for q, o in records if q.issue_key == r.issue_key)]
    for dim in ("discipline", "country", "year"):
        counts = defaultdict(lambda: [0, 0])
        for r, is_oa in kept:
            counts[str(getattr(r, dim))][0 if is_oa else 1] += 1
        with open(tmp_path / "r" / f"oa_share_by_{dim}.csv",
                  encoding="utf-8") as fh:
            table = {row["group"]: [int(row["n_oa"]), int(row["n_noa"])]
                     for row in csv.DictReader(fh)}
        assert table == counts, dim
    ok(10, f"{len(rows)} correlations.csv rows match a flat-loop recount, "
           "%OA and totals over every record, the advantage and analyze's "
           "%OA over kept ones")
