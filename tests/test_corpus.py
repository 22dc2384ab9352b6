"""Synthetic corpus generation: determinism, realized rates, ground-truth
soundness against an independent reachability check, and the audit sampler."""

import ast
import inspect
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from oafinder import corpus as corpus_module
from oafinder.corpus import (
    CorpusError,
    CorpusSpec,
    GroundTruth,
    MockFetcher,
    MockSearchProvider,
    MockWeb,
    export_corpus,
    generate_corpus,
    load_ground_truth,
    load_mock_web,
    run_audit,
)
from oafinder.records import DetectionEvidence, Verdict, iter_records
from oafinder.robot.crawl import MAX_DEPTH, detect_oa, format_query
from oafinder.robot.extract import extract_text
from oafinder.robot.urls import host_of
from oafinder.stats import sdt_analysis

from oracles import reachable_within_depth


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestSpecValidation:
    def test_defaults_valid(self):
        CorpusSpec()

    def test_bad_depth_distribution(self):
        with pytest.raises(CorpusError):
            CorpusSpec(chain_depth_distribution=((0, 0.5),))
        with pytest.raises(CorpusError):
            CorpusSpec(chain_depth_distribution=((7, 1.0),))

    def test_no_disciplines(self):
        with pytest.raises(CorpusError, match="disciplines"):
            CorpusSpec(disciplines=())

    def test_oa_prob_lookup_precedence(self):
        spec = CorpusSpec(oa_probability={
            "biology|1999": 0.4, "1999": 0.3, "biology": 0.2, "default": 0.1})
        assert spec.oa_prob_for("biology", 1999) == 0.4
        assert spec.oa_prob_for("economics", 1999) == 0.3
        assert spec.oa_prob_for("biology", 2000) == 0.2
        assert spec.oa_prob_for("physics", 2000) == 0.1

    def test_oa_prob_key_names_spec_values(self):
        # Each is a key oa_prob_for never looks up for this spec.
        for key in ("physics", "1991", "2004", "01999", "|1999",
                    "biology|1899", "physics|1999", "biology|", "Default"):
            with pytest.raises(CorpusError, match=re.escape(repr(key))):
                CorpusSpec(oa_probability={key: 0.5})

    def test_multiplier_limit_is_the_samplers(self):
        # Just below the limit the geometric draw still has a value; just
        # above it 1 - 1/mean rounds to 1, and the draw would divide by 0.
        spec = CorpusSpec(n_articles=50, oa_probability=1.0,
                          oa_citation_multiplier=4.5e15)
        assert max(r.citation_count
                   for r in generate_corpus(spec).records) > 1e14
        with pytest.raises(CorpusError, match="oa_citation_multiplier"):
            CorpusSpec(oa_citation_multiplier=4.6e15)


class TestDeterminism:
    def test_same_seed_identical_export(self, tmp_path):
        spec = CorpusSpec(n_articles=80, seed=7)
        a, b = tmp_path / "a", tmp_path / "b"
        export_corpus(generate_corpus(spec), a)
        export_corpus(generate_corpus(spec), b)
        assert tree_bytes(a) == tree_bytes(b)

    def test_different_seed_differs(self):
        r1 = generate_corpus(CorpusSpec(n_articles=50, seed=1)).records
        r2 = generate_corpus(CorpusSpec(n_articles=50, seed=2)).records
        assert [r.title for r in r1] != [r.title for r in r2]

    def test_export_roundtrip(self, tmp_path):
        corpus = generate_corpus(CorpusSpec(n_articles=40, seed=3))
        # Two-byte UTF-8, a character whose lower case is two characters,
        # and one outside the BMP (four bytes).
        words = "Müller İzmir \U0001d518ber"
        corpus.web.pages["http://h.example/u.txt"] = ("text", words)
        corpus.web.pages["http://h.example/u.html"] = (
            "html", f"<p>{words}</p>")
        export_corpus(corpus, tmp_path)
        assert list(iter_records(tmp_path / "records.jsonl")) == corpus.records
        web = load_mock_web(tmp_path / "mockweb")
        assert web.pages == corpus.web.pages
        fetcher = MockFetcher(web)
        for url in ("http://h.example/u.txt", "http://h.example/u.html"):
            result = fetcher.fetch(url)
            assert extract_text(result.text, result.format_tag) == \
                (words, [])
        assert web.queries == corpus.web.queries
        assert load_ground_truth(tmp_path / "ground_truth.jsonl") == \
            corpus.ground_truth

    def test_repeated_values_held_once(self, big):
        # One string or int per distinct journal id, issue key and year,
        # not one per record.
        for name in ("journal_id", "issue_key", "year"):
            values = [getattr(r, name) for r in big.records]
            assert len({id(v) for v in values}) == len(set(values)), name

    def test_ground_truth_row_defaults(self, tmp_path):
        # A row without kind, chain_depth or fulltext_url reads as "", 0
        # and ""; a key that names no field is ignored.
        path = tmp_path / "ground_truth.jsonl"
        path.write_text('{"article_id": "a0", "oa": true, "note": 1}\n')
        assert load_ground_truth(path) == {
            "a0": GroundTruth("a0", True, kind="", chain_depth=0,
                              fulltext_url="")}


@pytest.fixture(scope="module")
def big():
    return generate_corpus(CorpusSpec(n_articles=10_000, seed=11))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(n_articles=150, seed=5))


class TestRealizedRates:
    def test_oa_share_near_target(self, big):
        share = sum(gt.oa for gt in big.ground_truth.values()) / 10_000
        assert share == pytest.approx(0.12, abs=0.02)

    def test_uncited_share_near_target(self, big):
        uncited = sum(r.citation_count == 0 for r in big.records) / 10_000
        assert uncited == pytest.approx(0.61, abs=0.02)

    def test_cited_mean_near_target(self, big):
        cited = [r.citation_count for r in big.records if r.citation_count > 0]
        assert sum(cited) / len(cited) == pytest.approx(4.0, rel=0.1)

    def test_multiplier_raises_oa_citations(self):
        spec = CorpusSpec(n_articles=10_000, seed=11, oa_probability=0.5,
                          oa_citation_multiplier=2.0)
        corpus = generate_corpus(spec)
        oa_mean = noa_mean = None
        groups = {True: [], False: []}
        for r in corpus.records:
            groups[corpus.ground_truth[r.id].oa].append(r.citation_count)
        oa_mean = sum(groups[True]) / len(groups[True])
        noa_mean = sum(groups[False]) / len(groups[False])
        assert oa_mean > 1.5 * noa_mean


class TestGroundTruthSoundness:
    def test_reachability_matches_label(self, corpus):
        for rec in corpus.records:
            gt = corpus.ground_truth[rec.id]
            assert reachable_within_depth(
                corpus.web, rec, gt.fulltext_url) == gt.oa, rec.id

    def test_kind_consistent_with_label(self, corpus):
        for gt in corpus.ground_truth.values():
            assert gt.oa == (gt.kind == "fulltext")
            if gt.kind == "fulltext":
                assert 0 <= gt.chain_depth <= 3
            if gt.kind == "deep-chain":
                assert gt.chain_depth > 3
            if gt.kind in ("fulltext", "deep-chain"):
                assert gt.fulltext_url in corpus.web.pages
            else:
                assert gt.fulltext_url == ""
        # Only an offline article has no search results, and its query has
        # no entry.
        assert all(corpus.web.queries.values())
        assert len(corpus.web.queries) == sum(
            gt.kind != "offline" for gt in corpus.ground_truth.values())

    def test_robot_agrees_with_ground_truth(self, corpus):
        provider = MockSearchProvider(corpus.web)
        fetcher = MockFetcher(corpus.web)
        for rec in corpus.records:
            ev = detect_oa(rec, provider, fetcher)
            gt = corpus.ground_truth[rec.id]
            assert (ev.verdict is Verdict.OA) == gt.oa
            if ev.verdict is Verdict.OA:
                assert (ev.url, ev.depth) == (gt.fulltext_url, gt.chain_depth)

    def test_ground_truth_depth_is_the_crawl_depth(self):
        # One cut-off for the planter and the robot: a full text behind
        # chain_depth landing pages is OA iff chain_depth <= MAX_DEPTH.
        spec = CorpusSpec(n_articles=120, seed=3, oa_probability=1.0,
                          chain_depth_distribution=tuple(
                              (d, 1 / 6) for d in range(6)))
        corpus = generate_corpus(spec)
        provider = MockSearchProvider(corpus.web)
        fetcher = MockFetcher(corpus.web)
        assert {gt.chain_depth for gt in corpus.ground_truth.values()} == \
            set(range(6))
        for rec in corpus.records:
            gt = corpus.ground_truth[rec.id]
            assert gt.oa == (gt.chain_depth <= MAX_DEPTH)
            assert gt.kind == ("fulltext" if gt.oa else "deep-chain")
            ev = detect_oa(rec, provider, fetcher)
            assert (ev.verdict is Verdict.OA) == gt.oa

    def test_depth4_only_corpus_unreachable(self):
        spec = CorpusSpec(n_articles=60, seed=9, oa_probability=1.0,
                          chain_depth_distribution=((4, 1.0),))
        corpus = generate_corpus(spec)
        assert not any(gt.oa for gt in corpus.ground_truth.values())
        for rec in corpus.records[:10]:
            target = corpus.ground_truth[rec.id].fulltext_url
            assert not reachable_within_depth(corpus.web, rec, target)
            # the planted URL is recorded, so the False above is a cut-off
            assert reachable_within_depth(corpus.web, rec, target, max_depth=4)

    def test_sibling_title_full_text_is_not_reached(self):
        # The only search result for "... cohort 0" is the full text of
        # "... cohort 1" by the same author. The matcher accepts that page
        # for either title; the planted-URL oracle reaches only cohort 1's.
        corpus = generate_corpus(CorpusSpec(
            n_articles=2, seed=0, oa_probability=1.0,
            chain_depth_distribution=((0, 1.0),)))
        sibling = corpus.records[1]
        record = replace(sibling, id=corpus.records[0].id,
                         title=sibling.title.replace("cohort 1", "cohort 0"))
        own_url = corpus.ground_truth[record.id].fulltext_url
        sibling_url = corpus.ground_truth[sibling.id].fulltext_url
        web = replace(corpus.web, queries={
            format_query(r.first_author_surname, r.title): [sibling_url]
            for r in (record, sibling)})
        assert reachable_within_depth(web, sibling, sibling_url)
        assert not reachable_within_depth(web, record, own_url)

    def test_fetches_stay_inside_mock_web(self, corpus):
        # A dead link's host may serve no page, so the journals' hosts
        # count as known too.
        known_hosts = {host_of(u) for u in corpus.web.pages} \
            | {f"www.{r.journal_id}.example" for r in corpus.records} \
            | {"www.mock-search.example"}
        assert any(gt.kind == "dead-link"
                   for gt in corpus.ground_truth.values())
        for urls in corpus.web.queries.values():
            for u in urls:
                # search results may point at blocklisted ad hosts; everything
                # else must resolve inside the generated web
                assert host_of(u) in known_hosts \
                    or host_of(u) == "ads.mock-search.example"


class TestOracleIndependence:
    def test_corpus_imports_no_matcher(self):
        # The reachability oracle takes from oafinder only the mock web's
        # contract, the depth cut-off and the query key, or it shares the
        # robot's errors.
        oracle_names = set()
        oracle = Path(__file__).with_name("oracles.py")
        for node in ast.walk(ast.parse(oracle.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("oafinder")
                               for alias in node.names), ast.unparse(node)
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("oafinder")):
                oracle_names.update(alias.name for alias in node.names)
        assert oracle_names == {"MAX_DEPTH", "format_query"}
        # The planters it checks take nothing private from the robot, nor
        # its matcher or its blocklist filter.
        for node in ast.walk(ast.parse(inspect.getsource(corpus_module))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not module.endswith("robot.match"), ast.unparse(node)
                names = {alias.name for alias in node.names}
                assert not names & {"crawl_order",
                                    "match_full_text"}, ast.unparse(node)
                if module.endswith("robot"):
                    assert "match" not in names, ast.unparse(node)
                if module.startswith("robot"):
                    assert not any(name.startswith("_") for name in names), \
                        ast.unparse(node)


class TestMockFetcher:
    def test_ipv6_page_served(self):
        url = "http://[2001:db8::1]:8080/a.pdf"
        web = MockWeb(pages={url: ("text", "full text")})
        result = MockFetcher(web).fetch(url)
        assert (result.status, result.text) == (200, "full text")

    def test_unknown_and_unparseable(self):
        fetcher = MockFetcher(MockWeb())
        assert fetcher.fetch("http://h.example/x").status == 404
        # The crawl never fetches an unparseable URL; one is just a miss.
        assert fetcher.fetch("http://[x/full.pdf").status == 404


class TestAudit:
    @staticmethod
    def verdicts(tags):
        return {f"a{i}": v is Verdict.OA for i, v in enumerate(tags)}

    @staticmethod
    def truth(tags, truths):
        return {f"a{i}": GroundTruth(f"a{i}", truths[i], "fulltext", 0)
                for i in range(len(tags))}

    def test_perfect_robot_zero_errors(self):
        tags = [Verdict.OA] * 120 + [Verdict.NOA] * 150
        truths = [True] * 120 + [False] * 150
        m = run_audit(self.verdicts(tags), self.truth(tags, truths),
                      sample_size=100, seed=1)
        assert m.misses == 0 and m.false_alarms == 0
        assert m.hits == 100 and m.correct_rejections == 100

    def test_planted_error_rates_recovered(self):
        # robot-OA pool: 81 true, 19 false; robot-NOA pool: 6 true, 94 false
        tags = [Verdict.OA] * 100 + [Verdict.NOA] * 100
        truths = [True] * 81 + [False] * 19 + [True] * 6 + [False] * 94
        m = run_audit(self.verdicts(tags), self.truth(tags, truths),
                      sample_size=100, seed=0)
        assert (m.hits, m.misses, m.false_alarms, m.correct_rejections) == \
            (81, 6, 19, 94)
        res = sdt_analysis(m)
        assert res.d_prime == pytest.approx(2.45, abs=0.02)
        assert res.beta == pytest.approx(0.52, abs=0.01)

    def test_sampling_is_seeded(self):
        tags = [Verdict.OA] * 200 + [Verdict.NOA] * 200
        truths = ([i % 3 != 0 for i in range(200)]
                  + [i % 7 == 0 for i in range(200)])
        gt = self.truth(tags, truths)
        dets = self.verdicts(tags)
        assert run_audit(dets, gt, sample_size=50, seed=4) == \
            run_audit(dets, gt, sample_size=50, seed=4)
        # counts can collide across seeds, but not for every seed
        matrices = {run_audit(dets, gt, sample_size=50, seed=s)
                    for s in range(8)}
        assert len(matrices) > 1

    def test_insufficient_pool_reports_counts(self):
        tags = [Verdict.OA] * 10 + [Verdict.NOA] * 100
        truths = [True] * 10 + [False] * 100
        with pytest.raises(CorpusError, match="only 10"):
            run_audit(self.verdicts(tags), self.truth(tags, truths),
                      sample_size=100, seed=0)

    def test_missing_ground_truth_rejected(self):
        tags = [Verdict.OA] * 5 + [Verdict.NOA] * 5
        truths = [True] * 5 + [False] * 5
        gt = self.truth(tags, truths)
        del gt["a3"]
        with pytest.raises(CorpusError, match="a3"):
            run_audit(self.verdicts(tags), gt, sample_size=5, seed=0)


class TestScale:
    def test_large_detections_roundtrip(self, tmp_path):
        rng = random.Random(13)
        evs = [DetectionEvidence(
            article_id=f"a{i}",
            verdict=Verdict.OA if rng.random() < 0.1 else Verdict.NOA,
            url="http://h.example/p.txt", depth=rng.randrange(4))
            for i in range(10_000)]
        from oafinder.records import load_detections, save_rows
        path = tmp_path / "det.jsonl"
        save_rows(evs, path)
        assert load_detections(path) == evs
