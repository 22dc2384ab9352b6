"""Crawl orchestration tests on hand-built mock webs: depth limits, visited
set, query construction, an empty search response, the low-confidence
flag; malformed URLs planted in a generated one; and the canonical form of
every URL the crawl fetches."""

import dataclasses

import pytest

from oafinder.corpus import (
    CorpusSpec,
    MockFetcher,
    MockSearchProvider,
    MockWeb,
    generate_corpus,
)
from oafinder.records import ArticleRecord, Verdict
from oafinder.robot import extract, match
from oafinder.robot.crawl import detect_oa, format_query
from oafinder.robot.urls import normalize_url

from oracles import reachable_within_depth

TITLE = "Structural survey of policy diffusion mechanisms"
SURNAME = "Lindqvist"

RECORD = ArticleRecord(
    id="a1", first_author_surname=SURNAME, title=TITLE, journal_id="j",
    issue_key="j|2001|1", year=2001, discipline="sociology", country="SE",
    citation_count=1)

FILLER = ("Measurement and estimation details are reported in the appendix "
          "alongside the robustness checks for the panel. ") * 30

FULLTEXT = (f"{TITLE}\n{SURNAME}, Uppsala\nAbstract: findings.\n"
            + FILLER
            + "\nReferences\n"
            + "\n".join(f"[{i}] Novak, P. (199{i}) Earlier result." for i in range(5)))


def chain_page(next_url):
    return (f"<html><body><h1>{TITLE}</h1><p>{SURNAME} (2001)</p>"
            f"<p><a href='{next_url}'>Full Text</a></p></body></html>")


class RecordingFetcher(MockFetcher):
    """A MockFetcher that keeps the URLs it was asked for, in order."""

    def __init__(self, web):
        super().__init__(web)
        self.urls = []

    def fetch(self, url):
        self.urls.append(url)
        return super().fetch(url)


def make_web(chain_len):
    """Search result -> chain of chain_len landing pages -> full text."""
    web = MockWeb()
    host = "http://www.site.example"
    ft = f"{host}/fulltext.txt"
    web.pages[ft] = ("text", FULLTEXT)
    next_url = ft
    for hop in range(chain_len - 1, -1, -1):
        url = f"{host}/landing{hop}.html"
        web.pages[url] = ("html", chain_page(next_url))
        next_url = url
    web.queries[format_query(SURNAME, TITLE)] = [next_url]
    return web


class TestBuildQuery:
    def test_surname_plus_quoted_title(self):
        rec = ArticleRecord(
            id="q", first_author_surname="Lawrence",
            title="Online or Invisible?", journal_id="n", issue_key="n|2001|1",
            year=2001, discipline="cs", country="US", citation_count=0)
        assert format_query(rec.first_author_surname, rec.title) == \
            'Lawrence "Online or Invisible?"'

    def test_internal_quotes_escaped_single_line(self):
        rec = ArticleRecord(
            id="q", first_author_surname="Weiss",
            title='The "hidden" web\nof science', journal_id="n",
            issue_key="n|2001|1", year=2001, discipline="cs", country="US",
            citation_count=0)
        q = format_query(rec.first_author_surname, rec.title)
        assert "\n" not in q
        assert '\\"hidden\\"' in q

    def test_diacritics_preserved(self):
        rec = ArticleRecord(
            id="q", first_author_surname="Gérard", title="Étude des réseaux",
            journal_id="n", issue_key="n|2001|1", year=2001, discipline="s",
            country="FR", citation_count=0)
        assert format_query(rec.first_author_surname, rec.title) == \
            'Gérard "Étude des réseaux"'


class TestDetectOa:
    @pytest.mark.parametrize("chain_len,expect_oa", [
        (0, True), (1, True), (2, True), (3, True), (4, False), (5, False)])
    def test_depth_cutoff(self, chain_len, expect_oa):
        web = make_web(chain_len)
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        if expect_oa:
            assert ev.verdict is Verdict.OA
            assert ev.depth == chain_len
            assert ev.url.endswith("fulltext.txt")
            assert ev.match_head_offset is not None
            assert ev.match_tail_marker.startswith("heading:")
        else:
            assert ev.verdict is Verdict.NOA
            assert ev.reason == "EXHAUSTED"

    def test_max_depth_zero_fetches_only_search_results(self):
        web = make_web(2)
        fetcher = RecordingFetcher(web)
        ev = detect_oa(RECORD, MockSearchProvider(web), fetcher, max_depth=0)
        assert ev.verdict is Verdict.NOA
        assert fetcher.urls == ["http://www.site.example/landing0.html"]

    def test_no_url_fetched_twice(self):
        web = make_web(3)
        # every chain page also links back to the entry page
        for url in list(web.pages):
            fmt, text = web.pages[url]
            if fmt == "html":
                web.pages[url] = (fmt, text.replace(
                    "</body>",
                    "<a href='/landing0.html'>Full Text</a></body>"))
        fetcher = RecordingFetcher(web)
        ev = detect_oa(RECORD, MockSearchProvider(web), fetcher)
        assert ev.verdict is Verdict.OA
        assert len(fetcher.urls) == len(set(fetcher.urls))

    def test_depth_never_exceeds_config(self):
        for chain_len in range(6):
            web = make_web(chain_len)
            fetcher = RecordingFetcher(web)
            detect_oa(RECORD, MockSearchProvider(web), fetcher)
            # fetches cover at most depths 0..3: entry + 3 hops
            assert len(fetcher.urls) <= 4

    def test_empty_provider_response_is_noa(self):
        web = MockWeb()
        web.queries[format_query(SURNAME, TITLE)] = []
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        assert ev.verdict is Verdict.NOA
        assert ev.reason == "EXHAUSTED"

    def test_blocklisted_ad_urls_never_fetched(self):
        web = make_web(0)
        q = format_query(SURNAME, TITLE)
        web.queries[q] = ["http://ads.mock-search.example/click?x"] + web.queries[q]
        fetcher = RecordingFetcher(web)
        ev = detect_oa(RECORD, MockSearchProvider(web), fetcher)
        assert ev.verdict is Verdict.OA
        assert all("ads.mock-search" not in url for url in fetcher.urls)

    def test_pdf_results_fetched_first(self):
        web = make_web(0)
        q = format_query(SURNAME, TITLE)
        web.pages["http://www.site.example/other.html"] = (
            "html", "<p>unrelated</p>")
        web.queries[q] = ["http://www.site.example/other.html",
                         "http://www.site.example/fulltext.txt",
                         "http://www.site.example/decoy.pdf"]
        fetcher = RecordingFetcher(web)
        detect_oa(RECORD, MockSearchProvider(web), fetcher)
        assert fetcher.urls[0] == "http://www.site.example/decoy.pdf"

    def test_abstract_only_page_is_noa(self):
        web = MockWeb()
        page = (f"<html><body><h1>{TITLE}</h1><p>{SURNAME}</p>"
                f"<p>Abstract only.</p></body></html>")
        web.pages["http://www.site.example/abs.html"] = ("html", page)
        web.queries[format_query(SURNAME, TITLE)] = \
            ["http://www.site.example/abs.html"]
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        assert ev.verdict is Verdict.NOA


class TestLowConfidence:
    """low_confidence marks a verdict resting on a title of fewer than
    match.MIN_CONFIDENT_TITLE_TOKENS tokens; it is set only once a
    non-empty page was matched."""

    URL = "http://www.site.example/fulltext.txt"

    def detect(self, title, planted):
        rec = dataclasses.replace(RECORD, title=title)
        web = MockWeb()
        if planted:
            web.pages[self.URL] = ("text", FULLTEXT.replace(TITLE, title))
        web.queries[format_query(SURNAME, title)] = \
            [self.URL] if planted else []
        return detect_oa(rec, MockSearchProvider(web), MockFetcher(web))

    @pytest.mark.parametrize("title,low", [
        ("Cohort dynamics", True),
        ("Cohort dynamics under reform", False)])
    def test_planted_full_text(self, title, low):
        ev = self.detect(title, planted=True)
        assert ev.verdict is Verdict.OA
        assert ev.low_confidence is low

    def test_short_title_without_search_results(self):
        ev = self.detect("Cohort dynamics", planted=False)
        assert ev.verdict is Verdict.NOA
        assert ev.low_confidence is False


class TestMalformedUrls:
    # urlsplit raises ValueError on the first, .port on the second
    BAD_URLS = ("http://[x/full.pdf", "http://host:abc/x.pdf")
    SPEC = CorpusSpec(n_articles=40, seed=3, oa_probability=0.6,
                      abstract_page_prob=0.8)

    @classmethod
    def planted(cls):
        """The SPEC corpus with BAD_URLS listed first in every search
        response and linked from every landing page."""
        corpus = generate_corpus(cls.SPEC)
        anchors = "".join(f"<a href='{u}'>Full Text PDF</a>"
                          for u in cls.BAD_URLS)
        n_pages = 0
        for url, (fmt, text) in corpus.web.pages.items():
            if fmt == "html" and "Landing page" in text:
                corpus.web.pages[url] = (
                    fmt, text.replace("</body>", anchors + "</body>"))
                n_pages += 1
        for urls in corpus.web.queries.values():
            urls[:0] = cls.BAD_URLS
        assert n_pages > 0
        return corpus

    def verdicts(self, corpus):
        provider = MockSearchProvider(corpus.web)
        fetcher = MockFetcher(corpus.web)
        return [detect_oa(rec, provider, fetcher) for rec in corpus.records]

    def test_planted_urls_change_no_verdict(self):
        clean = self.verdicts(generate_corpus(self.SPEC))
        corpus = self.planted()
        assert self.verdicts(corpus) == clean
        # the reachability oracle skips them too
        assert [reachable_within_depth(
                    corpus.web, rec, corpus.ground_truth[rec.id].fulltext_url)
                for rec in corpus.records] == \
            [corpus.ground_truth[rec.id].oa for rec in corpus.records]


class TestFetchedUrlsAreCanonical:
    """MockFetcher looks a page up by the URL it is given, as it is, so
    every URL detect_oa fetches must already be canonical."""

    @staticmethod
    def fetched(corpus):
        provider = MockSearchProvider(corpus.web)
        fetcher = RecordingFetcher(corpus.web)
        for rec in corpus.records:
            detect_oa(rec, provider, fetcher)
        return fetcher.urls

    def test_deep_chains_corpus(self):
        # Search results carry a "#utm" fragment, and chains run past
        # MAX_DEPTH, as in perfbench's deep-chains workload.
        spec = CorpusSpec(n_articles=200, seed=5, oa_probability=0.6,
                          abstract_page_prob=0.8,
                          chain_depth_distribution=(
                              (0, 0.1), (1, 0.3), (2, 0.3), (3, 0.2),
                              (4, 0.1)))
        urls = self.fetched(generate_corpus(spec))
        assert len(urls) > 200
        assert [u for u in urls if normalize_url(u) != u] == []

    def test_malformed_search_results(self):
        urls = self.fetched(TestMalformedUrls.planted())
        assert urls
        assert [u for u in urls if normalize_url(u) != u] == []


class TestOnePass:
    def test_each_page_parsed_and_tokenized_once(self, monkeypatch):
        counts = {"parse_html": 0, "tokenize_with_offsets": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(extract, "parse_html")
        counting(match, "tokenize_with_offsets")
        web = make_web(3)
        fetcher = RecordingFetcher(web)
        ev = detect_oa(RECORD, MockSearchProvider(web), fetcher)
        assert ev.verdict is Verdict.OA
        assert len(fetcher.urls) == 4  # three landing pages, full text
        assert counts == {"parse_html": 3, "tokenize_with_offsets": 4}

    def test_title_tokenized_once_per_article(self, monkeypatch):
        # four pages are matched and three of them searched for links
        texts = []
        inner = match.tokenize

        def counting(text):
            texts.append(text)
            return inner(text)
        monkeypatch.setattr(match, "tokenize", counting)
        match._article_terms.cache_clear()
        web = make_web(3)
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        assert ev.verdict is Verdict.OA
        assert texts.count(TITLE) == 1
        assert texts.count(SURNAME) == 1
