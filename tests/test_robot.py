"""Crawl orchestration tests on hand-built mock webs: depth limits, visited
set, query construction, search provider failure; and malformed URLs planted
in a generated one."""

import pytest

from oafinder.corpus import (
    CorpusSpec,
    MockFetcher,
    MockSearchProvider,
    MockWeb,
    generate_corpus,
    reachable_within_depth,
)
from oafinder.records import ArticleRecord, OAStatus, Verdict
from oafinder.robot import extract, match
from oafinder.robot.crawl import (
    CrawlConfig,
    CrawlObserver,
    DetectionError,
    detect_oa,
    format_query,
)

TITLE = "Structural survey of policy diffusion mechanisms"
SURNAME = "Lindqvist"

RECORD = ArticleRecord(
    id="a1", first_author_surname=SURNAME, title=TITLE, journal_id="j",
    issue_key="j|2001|1", year=2001, discipline="sociology", country="SE",
    citation_count=1, oa_status=OAStatus.UNKNOWN)

FILLER = ("Measurement and estimation details are reported in the appendix "
          "alongside the robustness checks for the panel. ") * 30

FULLTEXT = (f"{TITLE}\n{SURNAME}, Uppsala\nAbstract: findings.\n"
            + FILLER
            + "\nReferences\n"
            + "\n".join(f"[{i}] Novak, P. (199{i}) Earlier result." for i in range(5)))


def chain_page(next_url):
    return (f"<html><body><h1>{TITLE}</h1><p>{SURNAME} (2001)</p>"
            f"<p><a href='{next_url}'>Full Text</a></p></body></html>").encode()


def make_web(chain_len):
    """Search result -> chain of chain_len landing pages -> full text."""
    web = MockWeb()
    host = "http://www.site.example"
    ft = f"{host}/fulltext.txt"
    web.pages[ft] = ("text", FULLTEXT.encode())
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
        observer = CrawlObserver()
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                       CrawlConfig(max_depth=0), observer=observer)
        assert ev.verdict is Verdict.NOA
        assert [e.url for e in observer.fetch_log] == \
            ["http://www.site.example/landing0.html"]

    def test_no_url_fetched_twice(self):
        web = make_web(3)
        # every chain page also links back to the entry page
        for url in list(web.pages):
            fmt, data = web.pages[url]
            if fmt == "html":
                web.pages[url] = (fmt, data.replace(
                    b"</body>",
                    b"<a href='/landing0.html'>Full Text</a></body>"))
        observer = CrawlObserver()
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                       observer=observer)
        assert ev.verdict is Verdict.OA
        urls = [e.url for e in observer.fetch_log]
        assert len(urls) == len(set(urls))

    def test_depth_never_exceeds_config(self):
        for chain_len in range(6):
            web = make_web(chain_len)
            observer = CrawlObserver()
            detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                      observer=observer)
            # fetch log covers at most depths 0..3: entry + 3 hops
            assert len(observer.fetch_log) <= 4

    def test_empty_provider_response_is_noa(self):
        web = MockWeb()
        web.queries[format_query(SURNAME, TITLE)] = []
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        assert ev.verdict is Verdict.NOA
        assert ev.reason == "EXHAUSTED"

    def test_provider_connection_error_raises(self):
        class FailingProvider:
            blocklist = ()

            def query(self, author, title):
                raise ConnectionError("boom")

        with pytest.raises(DetectionError, match="boom"):
            detect_oa(RECORD, FailingProvider(), MockFetcher(MockWeb()))

    def test_blocklisted_ad_urls_never_fetched(self):
        web = make_web(0)
        q = format_query(SURNAME, TITLE)
        web.queries[q] = ["http://ads.mock-search.example/click?x"] + web.queries[q]
        observer = CrawlObserver()
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                       observer=observer)
        assert ev.verdict is Verdict.OA
        assert all("ads.mock-search" not in e.url for e in observer.fetch_log)

    def test_pdf_results_fetched_first(self):
        web = make_web(0)
        q = format_query(SURNAME, TITLE)
        web.pages["http://www.site.example/other.html"] = (
            "html", b"<p>unrelated</p>")
        web.queries[q] = ["http://www.site.example/other.html",
                         "http://www.site.example/fulltext.txt",
                         "http://www.site.example/decoy.pdf"]
        observer = CrawlObserver()
        detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                  observer=observer)
        assert observer.fetch_log[0].url == "http://www.site.example/decoy.pdf"

    def test_abstract_only_page_is_noa(self):
        web = MockWeb()
        page = (f"<html><body><h1>{TITLE}</h1><p>{SURNAME}</p>"
                f"<p>Abstract only.</p></body></html>")
        web.pages["http://www.site.example/abs.html"] = ("html", page.encode())
        web.queries[format_query(SURNAME, TITLE)] = \
            ["http://www.site.example/abs.html"]
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web))
        assert ev.verdict is Verdict.NOA


class TestMalformedUrls:
    # urlsplit raises ValueError on the first, .port on the second
    BAD_URLS = ("http://[x/full.pdf", "http://host:abc/x.pdf")

    def verdicts(self, corpus):
        provider = MockSearchProvider(corpus.web)
        fetcher = MockFetcher(corpus.web)
        return [detect_oa(rec, provider, fetcher) for rec in corpus.records]

    def test_planted_urls_change_no_verdict(self):
        spec = CorpusSpec(n_articles=40, seed=3, oa_probability=0.6,
                          abstract_page_prob=0.8)
        clean = self.verdicts(generate_corpus(spec))
        corpus = generate_corpus(spec)
        anchors = "".join(f"<a href='{u}'>Full Text PDF</a>"
                          for u in self.BAD_URLS).encode()
        n_pages = 0
        for url, (fmt, data) in corpus.web.pages.items():
            if fmt == "html" and b"Landing page" in data:
                corpus.web.pages[url] = (
                    fmt, data.replace(b"</body>", anchors + b"</body>"))
                n_pages += 1
        for urls in corpus.web.queries.values():
            urls[:0] = self.BAD_URLS
        assert n_pages > 0
        assert self.verdicts(corpus) == clean
        # the reachability oracle skips them too
        assert [reachable_within_depth(corpus.web, rec)
                for rec in corpus.records] == \
            [corpus.ground_truth[rec.id].oa for rec in corpus.records]


class TestCrawlConfig:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            CrawlConfig(head_fraction=0.7).validate()
        with pytest.raises(ValueError):
            CrawlConfig(tail_fraction=0.0).validate()
        with pytest.raises(ValueError):
            CrawlConfig(max_depth=-1).validate()
        with pytest.raises(ValueError):
            CrawlConfig(max_links_followed_per_page=-1).validate()
        with pytest.raises(ValueError):
            CrawlConfig(title_similarity_threshold=1.5).validate()
        with pytest.raises(ValueError):
            CrawlConfig(title_similarity_threshold=0).validate()
        CrawlConfig().validate()
        CrawlConfig(max_links_followed_per_page=0,
                    title_similarity_threshold=1.0).validate()


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
        observer = CrawlObserver()
        ev = detect_oa(RECORD, MockSearchProvider(web), MockFetcher(web),
                       observer=observer)
        assert ev.verdict is Verdict.OA
        assert len(observer.fetch_log) == 4  # three landing pages, full text
        assert counts == {"parse_html": 3, "tokenize_with_offsets": 4}
