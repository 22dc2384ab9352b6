import pytest
from hypothesis import given, strategies as st

from oafinder.robot.urls import (
    UrlError,
    dedup_urls,
    filter_irrelevant_links,
    normalize_url,
    prioritize_urls,
)


class TestNormalize:
    def test_kitchen_sink(self):
        assert normalize_url("HTTP://Host.EX:80/a/../b#frag") == "http://host.ex/b"

    def test_idempotent(self):
        u = normalize_url("https://Host.example:8080/x%2fy?a=%2f&b=2#z")
        assert normalize_url(u) == u

    def test_query_order_preserved(self):
        assert normalize_url("https://h/x?b=2&a=1") == "https://h/x?b=2&a=1"

    def test_percent_encoding_uppercased(self):
        assert normalize_url("http://h/a%2fb") == "http://h/a%2Fb"

    def test_default_https_port_stripped(self):
        assert normalize_url("https://h:443/p") == "https://h/p"

    def test_non_default_port_kept(self):
        assert normalize_url("http://h:8080/p") == "http://h:8080/p"

    def test_relative_url_rejected(self):
        with pytest.raises(UrlError):
            normalize_url("/just/a/path")

    @pytest.mark.parametrize("url", [
        "http://[x/full.pdf", "http://host:abc/x.pdf", "http://h:99999/x"])
    def test_unparseable_is_url_error(self, url):
        with pytest.raises(UrlError, match="unparseable"):
            normalize_url(url)

    @given(st.sampled_from([
        "http://a.example/x", "https://b.example:444/y?q=1",
        "http://c.example/a/b/../c#f", "ftp://d.example/z",
    ]))
    def test_idempotence_property(self, url):
        once = normalize_url(url)
        assert normalize_url(once) == once


class TestDedup:
    def test_first_occurrence_kept(self):
        a, b = "http://h/a", "http://h/b"
        assert dedup_urls([a, b, a]) == [a, b]

    def test_empty(self):
        assert dedup_urls([]) == []

    def test_fragment_only_difference_collapses(self):
        assert dedup_urls(["http://h/a#one", "http://h/a#two"]) == ["http://h/a"]

    def test_unparseable_dropped(self):
        assert dedup_urls(["nonsense", "http://h/a"]) == ["http://h/a"]

    def test_bad_bracket_and_port_dropped(self):
        assert dedup_urls(["http://[x/full.pdf", "http://host:abc/x.pdf",
                           "http://h/a"]) == ["http://h/a"]


class TestPrioritize:
    def test_pdf_and_ps_first(self):
        urls = ["http://h/a.html", "http://h/b.pdf", "http://h/c.ps",
                "http://h/d.htm"]
        assert prioritize_urls(urls) == [
            "http://h/b.pdf", "http://h/c.ps", "http://h/a.html",
            "http://h/d.htm"]

    def test_all_pdf_unchanged(self):
        urls = [f"http://h/{i}.pdf" for i in range(4)]
        assert prioritize_urls(urls) == urls

    def test_no_fulltext_extensions_unchanged(self):
        urls = [f"http://h/{i}.html" for i in range(4)]
        assert prioritize_urls(urls) == urls

    def test_extension_case_insensitive(self):
        assert prioritize_urls(["http://h/a.txt", "http://h/b.PDF"])[0] == \
            "http://h/b.PDF"

    def test_unparseable_dropped(self):
        assert prioritize_urls(["http://h/a.html", "http://[x/full.pdf",
                                "http://h/b.pdf"]) == \
            ["http://h/b.pdf", "http://h/a.html"]

    @given(st.lists(st.sampled_from(
        ["http://h/1.pdf", "http://h/2.ps", "http://h/3.html", "http://h/4",
         "http://h/5.pdf?x=1", "http://h/6.txt"]), max_size=20))
    def test_stable_partition_property(self, urls):
        def is_ft(u):
            return u.split("/")[-1].split("?")[0].endswith((".pdf", ".ps"))

        expected = [u for u in urls if is_ft(u)] + [u for u in urls if not is_ft(u)]
        assert prioritize_urls(urls) == expected


class TestBlocklistFilter:
    def test_blocked_host_removed(self):
        urls = ["http://site.example/result.pdf",
                "http://provider-ads.example/click?x"]
        assert filter_irrelevant_links(urls, {"provider-ads.example"}) == \
            ["http://site.example/result.pdf"]

    def test_subdomain_blocked(self):
        urls = ["http://ads.tracker.example/x"]
        assert filter_irrelevant_links(urls, {"tracker.example"}) == []

    def test_empty_list(self):
        assert filter_irrelevant_links([], {"x.example"}) == []

    def test_no_match_identity(self):
        urls = ["http://a.example/1", "http://b.example/2"]
        assert filter_irrelevant_links(urls, {"c.example"}) == urls

    def test_unparseable_dropped(self):
        urls = ["http://[x/full.pdf", "http://a.example/1"]
        assert filter_irrelevant_links(urls, {"c.example"}) == \
            ["http://a.example/1"]
