import posixpath
from urllib.parse import urljoin, urlsplit

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oafinder.corpus import CorpusSpec, generate_corpus
from oafinder.robot import urls
from oafinder.robot.extract import parse_html
from oafinder.robot.urls import (
    _CANONICAL_RE,
    _ROOT_RELATIVE_RE,
    UrlError,
    _canonicalize,
    crawl_order,
    host_of,
    join_url,
    normalize_url,
    url_extension,
)

# Characters a canonical path segment and query may hold.
_SEGMENT_CHARS = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789-._~!$&'()*+,=:@")
_QUERY_CHARS = _SEGMENT_CHARS + ";/?"

_hosts = st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789-",
                          min_size=1, max_size=6),
                  min_size=1, max_size=3).map(".".join)
_segments = st.one_of(
    st.sampled_from(["a000001", "fulltext.html", "gone.pdf", "paper.PS",
                     "landing0.html", "..."]),
    st.text(_SEGMENT_CHARS, min_size=1, max_size=6)).filter(
        lambda seg: seg not in (".", ".."))
_paths = st.builds(
    lambda segs, slash: "/" + "/".join(segs) + ("/" if segs and slash else ""),
    st.lists(_segments, max_size=4), st.booleans())
_queries = st.one_of(
    st.just(""), st.text(_QUERY_CHARS, min_size=1, max_size=8).map("?{}".format))

# (part, values): each replaces or corrupts one part of a canonical URL. A
# part may appear twice, so each kind of corruption is drawn often enough.
_HOSTILE_PARTS = [
    ("scheme", st.sampled_from(["HTTP", "Https", "ftp", "mailto"])),
    ("userinfo", st.sampled_from(["user@", "u:p@", ":p@", "u:@"])),
    ("host", st.one_of(_hosts.map("Www.{}".format),
                       _hosts.map("{}.EXAMPLE".format))),
    ("host", st.sampled_from(["[2001:db8::1]", "[::1]", "[2001:DB8::1]",
                              "[v1.abc]", "[V1.abc]", "[x", "x]", "",
                              "h..example", "h.example.", "h_x.example",
                              "h\u00e9.example"])),
    ("port", st.sampled_from([":80", ":443", ":21", ":8080", ":", ":0",
                              ":abc", ":99999"])),
    ("segment", st.sampled_from([".", ".."])),
    ("segment", st.sampled_from(["", "%2f", "a%2Fb", "%zz", "a;", ";", "a;p",
                                 "a b", "\u00e9", "a\\b", '"'])),
    ("path", st.sampled_from(["", "//", "//x", "/.", "/..", "/a/./",
                              "/a/../"])),
    ("query", st.sampled_from(["?", "?a=%2f", "?%41", "?q=1#", "?a b"])),
    ("fragment", st.sampled_from(["#", "#frag", "#utm"])),
    ("whitespace", st.sampled_from(["\t", "\n", "\r", " ", "\x00"])),
]


@st.composite
def _urls(draw):
    """A canonical URL with zero to two of its parts made hostile."""
    parts = {"scheme": draw(st.sampled_from(["http", "https"])),
             "userinfo": "", "host": draw(_hosts), "port": "",
             "path": draw(_paths), "query": draw(_queries), "fragment": ""}
    whitespace = []
    for part, values in draw(st.lists(st.sampled_from(_HOSTILE_PARTS),
                                      max_size=2)):
        value = draw(values)
        if part == "segment":
            segs = parts["path"].split("/")
            at = draw(st.integers(1, len(segs)))
            parts["path"] = "/".join(segs[:at] + [value] + segs[at:])
        elif part == "whitespace":
            whitespace.append(value)
        else:
            parts[part] = value
    url = "{scheme}://{userinfo}{host}{port}{path}{query}{fragment}".format(
        **parts)
    for char in whitespace:
        at = draw(st.integers(0, len(url)))
        url = url[:at] + char + url[at:]
    return url


_root_relative = st.builds("{}{}".format, _paths, _queries)
_hrefs = st.one_of(
    _urls(),
    _root_relative,
    st.builds("{}{}".format, _root_relative,
              st.sampled_from(["#f", "?", "/./", "/../x", "//", ";", ";p",
                               "\t"])),
    st.builds("/{}".format, _urls()),  # "//host..." protocol-relative
    st.sampled_from(["", "a/b.pdf", "../x", "./y", ".", "..", "?q=1", "#f",
                     "//h.example/x", "mailto:a@b", "http:x", "/\tx", "/a;",
                     "http://h.example/a;"]),
)


def _outcome(fn, *args):
    """fn's value, or the ValueError subclass it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


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

    @given(_urls())
    def test_idempotence_property(self, url):
        try:
            once = normalize_url(url)
        except UrlError:
            assume(False)
        assert normalize_url(once) == once

    def test_ipv6_brackets_kept(self):
        url = "http://[2001:db8::1]:8080/a.pdf"
        assert normalize_url(url) == url
        assert normalize_url(normalize_url(url)) == url
        assert host_of(url) == "2001:db8::1"

    def test_ipv6_host_lowercased_in_brackets(self):
        assert normalize_url("HTTP://[2001:DB8::1]:80/x") == \
            "http://[2001:db8::1]/x"

    def test_ipvfuture_brackets_kept(self):
        # No ":" in the host, but it is a literal, not a DNS name.
        url = "http://[v1.abc]/x"
        assert normalize_url(url) == url
        assert normalize_url("http://u@[v1.ABC]:80/x") == "http://u@[v1.abc]/x"

    def test_ipvfuture_upper_case_v(self):
        # RFC 3986 makes the "v" case-insensitive; urlsplit reads only "v".
        assert normalize_url("http://[V1.abc]/x") == "http://[v1.abc]/x"
        assert normalize_url("HTTP://u@[V1.ABC]:80/x") == \
            "http://u@[v1.abc]/x"
        # Only the host's bracket counts, not one in the userinfo or path.
        assert normalize_url("http://h.example/[V1.abc]") == \
            "http://h.example/[V1.abc]"
        with pytest.raises(UrlError):
            normalize_url("http://u@[V1.abc]@h.example/x")


class TestCanonicalFastPath:
    """Each helper with a canonical-URL fast path gives what urllib.parse
    alone gives, in value or in the ValueError raised."""

    @settings(max_examples=500)
    @given(_urls())
    # one near-canonical URL per way the pattern could be too loose
    @example("http://h.example/a/../b.pdf")
    @example("http://H.example/a")
    @example("http://h.example:80/a")
    @example("http://h.example/a?")
    @example("http://h.example/a%2fb")
    # a canonical URL plus a fragment, and two that only look like one
    @example("http://h.example/a#")
    @example("http://h.example/a?#f")
    @example("http://h.example/a/..#f")
    def test_normalize_equals_urllib(self, url):
        assert _outcome(normalize_url, url) == _outcome(_canonicalize, url)

    @pytest.mark.parametrize("url, parsed", [
        ("http://h.example/a#", False),
        ("http://h.example/a/b.pdf#utm", False),
        ("http://h.example/a?#f", True),
        ("http://h.example/a/..#f", True),
    ])
    def test_fragment_skips_urllib_only_after_canonical_prefix(
            self, url, parsed, monkeypatch):
        calls = []

        def counting(u):
            calls.append(u)
            return _canonicalize(u)
        monkeypatch.setattr(urls, "_canonicalize", counting)
        assert normalize_url(url) == _canonicalize(url)
        assert calls == ([url] if parsed else [])

    @settings(max_examples=500)
    @given(_urls())
    def test_host_of_equals_urlsplit(self, url):
        assert _outcome(host_of, url) == _outcome(
            lambda u: (urlsplit(u).hostname or "").lower(), url)

    @settings(max_examples=500)
    @given(_urls())
    def test_url_extension_equals_urlsplit(self, url):
        assert _outcome(url_extension, url) == _outcome(
            lambda u: posixpath.splitext(urlsplit(u).path)[1].lower(), url)

    @settings(max_examples=500)
    @given(st.one_of(_urls(), _urls().filter(_CANONICAL_RE.match)), _hrefs)
    @example("http://h.example/x", "/a;")
    @example("http://h.example/x", "//g.example/a")
    def test_join_url_equals_urljoin(self, base, href):
        assert _outcome(join_url, base, href) == _outcome(urljoin, base, href)

    @pytest.mark.parametrize("spec", [
        CorpusSpec(n_articles=200, seed=3),
        CorpusSpec(n_articles=200, seed=5, oa_probability=0.8,
                   chain_depth_distribution=((1, 0.2), (2, 0.2), (3, 0.2),
                                             (4, 0.2), (5, 0.2))),
    ], ids=["default", "deep-chains"])
    def test_generated_web_is_canonical(self, spec, monkeypatch):
        """The mock web's URLs take the fast paths, so a pattern that
        silently sent them to urllib would show here. A search result with
        a #utm fragment normalizes to its canonical prefix."""
        calls = []
        monkeypatch.setattr(urls, "_canonicalize", calls.append)
        web = generate_corpus(spec).web
        results = [u for us in web.queries.values() for u in us]
        assert results and web.pages
        assert any(url.endswith("#utm") for url in results)
        for url in list(web.pages) + results:
            prefix = url.removesuffix("#utm")
            assert _CANONICAL_RE.match(prefix), url
            assert normalize_url(url) == prefix
        assert calls == []
        for url, (fmt, text) in web.pages.items():
            if fmt == "html":
                for href, _ in parse_html(text)[1]:
                    assert (_CANONICAL_RE.match(href)
                            or _ROOT_RELATIVE_RE.match(href)), (url, href)


class TestDedup:
    def test_first_occurrence_kept(self):
        a, b = "http://h/a", "http://h/b"
        assert crawl_order([a, b, a]) == [a, b]

    def test_empty(self):
        assert crawl_order([]) == []

    def test_fragment_only_difference_collapses(self):
        assert crawl_order(["http://h/a#one", "http://h/a#two"]) == ["http://h/a"]

    def test_unparseable_dropped(self):
        assert crawl_order(["nonsense", "http://h/a"]) == ["http://h/a"]

    def test_bad_bracket_and_port_dropped(self):
        assert crawl_order(["http://[x/full.pdf", "http://host:abc/x.pdf",
                            "http://h/a"]) == ["http://h/a"]


class TestPrioritize:
    def test_pdf_and_ps_first(self):
        urls = ["http://h/a.html", "http://h/b.pdf", "http://h/c.ps",
                "http://h/d.htm"]
        assert crawl_order(urls) == [
            "http://h/b.pdf", "http://h/c.ps", "http://h/a.html",
            "http://h/d.htm"]

    def test_all_pdf_unchanged(self):
        urls = [f"http://h/{i}.pdf" for i in range(4)]
        assert crawl_order(urls) == urls

    def test_no_fulltext_extensions_unchanged(self):
        urls = [f"http://h/{i}.html" for i in range(4)]
        assert crawl_order(urls) == urls

    def test_extension_case_insensitive(self):
        assert crawl_order(["http://h/a.txt", "http://h/b.PDF"])[0] == \
            "http://h/b.PDF"

    def test_unparseable_dropped(self):
        assert crawl_order(["http://h/a.html", "http://[x/full.pdf",
                            "http://h/b.pdf"]) == \
            ["http://h/b.pdf", "http://h/a.html"]

    @given(st.lists(st.sampled_from(
        ["http://h/1.pdf", "http://h/2.ps", "http://h/3.html", "http://h/4",
         "http://h/5.pdf?x=1", "http://h/6.txt"]), max_size=20))
    def test_stable_partition_property(self, urls):
        def is_ft(u):
            return u.split("/")[-1].split("?")[0].endswith((".pdf", ".ps"))

        # crawl_order also drops repeats; a canonical repeat is an equal string.
        once = list(dict.fromkeys(urls))
        expected = [u for u in once if is_ft(u)] + [u for u in once if not is_ft(u)]
        assert crawl_order(urls) == expected


class TestBlocklistFilter:
    def test_blocked_host_removed(self):
        urls = ["http://site.example/result.pdf",
                "http://provider-ads.example/click?x"]
        assert crawl_order(urls, {"provider-ads.example"}) == \
            ["http://site.example/result.pdf"]

    def test_subdomain_blocked(self):
        urls = ["http://ads.tracker.example/x"]
        assert crawl_order(urls, {"tracker.example"}) == []

    def test_empty_list(self):
        assert crawl_order([], {"x.example"}) == []

    def test_no_match_identity(self):
        urls = ["http://a.example/1", "http://b.example/2"]
        assert crawl_order(urls, {"c.example"}) == urls

    def test_unparseable_dropped(self):
        urls = ["http://[x/full.pdf", "http://a.example/1"]
        assert crawl_order(urls, {"c.example"}) == \
            ["http://a.example/1"]


def _crawl_order_by_urllib(urls, blocklist):
    """crawl_order's four rules as one flat loop over urllib.parse alone."""
    patterns = [p.lower().lstrip(".") for p in blocklist]
    seen, first, rest = set(), [], []
    for url in urls:
        try:
            canon = _canonicalize(url)
        except UrlError:
            continue
        if canon in seen:
            continue
        seen.add(canon)
        host = (urlsplit(canon).hostname or "").lower()
        if any(host == p or host.endswith("." + p) for p in patterns):
            continue
        ext = posixpath.splitext(urlsplit(canon).path)[1].lower()
        (first if ext in (".pdf", ".ps") else rest).append(canon)
    return first + rest


def _parent_domains(url):
    """Each domain the host of url is, or is under; none if unreadable."""
    try:
        labels = (urlsplit(url).hostname or "").split(".")
    except ValueError:
        return []
    return [".".join(labels[i:]) for i in range(len(labels))]


@st.composite
def _urls_and_blocklist(draw):
    """Hostile URLs, some repeated, and up to three blocklist patterns that
    are often a parent domain of one of them."""
    urls = draw(st.lists(_urls(), max_size=6))
    urls += urls[::2]
    domains = [d for u in urls for d in _parent_domains(u)] or ["example"]
    blocklist = draw(st.lists(st.one_of(
        _hosts, st.sampled_from(domains),
        st.sampled_from([".example", "EXAMPLE", "2001:db8::1"])), max_size=3))
    return urls, blocklist


class TestCrawlOrder:
    @settings(max_examples=500)
    @given(_urls_and_blocklist())
    @example((["HTTP://Ads.Example/a.pdf", "http://h.example/b",
               "http://ads.example/a.pdf#f", "http://x.ads.example/c.ps"],
              ["ADS.example"]))
    def test_equals_urllib_loop(self, urls_and_blocklist):
        urls, blocklist = urls_and_blocklist
        assert crawl_order(urls, blocklist) == \
            _crawl_order_by_urllib(urls, blocklist)
