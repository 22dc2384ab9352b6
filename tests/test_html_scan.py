"""The one-pass HTML scanner against its html.parser reference: same text and
anchors on every document, and no fallback on the pages the corpus
generator writes."""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oafinder.corpus import CorpusSpec, generate_corpus
from oafinder.robot import extract
from oafinder.robot.extract import HTML_FORMATS, parse_html

reference = extract._parse_html_reference


@contextmanager
def counting_fallback():
    """Count the pages parse_html hands to html.parser."""
    calls = []

    def wrapper(html):
        calls.append(html)
        return reference(html)
    with mock.patch.object(extract, "_parse_html_reference", wrapper):
        yield calls


# --- in-grammar documents --------------------------------------------------

TAG_NAMES = ["p", "P", "br", "BR", "div", "Li", "tr", "h1", "H2", "h3", "h4",
             "a", "A", "noscript", "NoScript", "span", "B", "table", "x1"]
ATTR_NAMES = ["href", "HREF", "Href", "class", "title", "data-id", "download"]
VALUES = ["/x.pdf", "http://h.example/a?b=1&amp;c=2", "&#47;p&#x2F;q", "",
          "Full Text", "x/", "a'b", 'a"b', "&lt;tag&gt;", "q=1"]
WS = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\f"])
TEXTS = st.one_of(
    st.sampled_from(["Full Text", "pdf", " ", "\n\n", "  \n \n", "a&amp;b",
                     "&lt;&gt;", "&#65;&#x42;", "&nbsp;x", "&bogus;", "&",
                     "x & y", "\xa0", ">", "&amp", " "]),
    st.text(alphabet=st.characters(blacklist_characters="<"), min_size=1,
            max_size=12))


@st.composite
def attribute(draw):
    name = draw(st.sampled_from(ATTR_NAMES))
    form = draw(st.sampled_from(["bare", "double", "single", "unquoted"]))
    if form == "bare":
        return draw(WS) + name
    value = draw(st.sampled_from(VALUES))
    eq = draw(st.sampled_from(["=", " = ", "=\n"]))
    if form == "double" or (form == "unquoted" and (
            not value or any(c in value for c in " \"'=<>`"))):
        value = '"%s"' % value.replace('"', "")
    elif form == "single":
        value = "'%s'" % value.replace("'", "")
    return draw(WS) + name + eq + value


@st.composite
def tag(draw):
    name = draw(st.sampled_from(TAG_NAMES))
    if draw(st.booleans()):
        return "</%s%s>" % (name, draw(st.sampled_from(["", " ", "\n"])))
    attrs = "".join(draw(st.lists(attribute(), max_size=3)))
    end = draw(st.sampled_from([">", " >", "/>", " />"]))
    return "<%s%s%s" % (name, attrs, end)


IN_GRAMMAR = st.lists(st.one_of(tag(), TEXTS), max_size=30).map("".join)

# --- documents with markup the scanner does not model ----------------------

HOSTILE_FRAGMENTS = st.sampled_from([
    "<!-- a <p> comment -->", "<!DOCTYPE html>", "<?xml version='1.0'?>",
    "<script>if (a < b) { x = '<p>'; }</script>", "<style>p { }</style>",
    "a < b", "<", "< p>", "</ a>", "<a title='1 > 0' href='/t.pdf'>",
    '<a href="/q.pdf" title="x>y">', "<![CDATA[x]]>", "</>", "<!x>",
    "<p\xa0>", "<a href==x>", "<a href= >", "<title>A &amp; B</title>",
])
HOSTILE = st.lists(st.one_of(tag(), TEXTS, HOSTILE_FRAGMENTS),
                   max_size=30).map("".join)


class TestScannerMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(IN_GRAMMAR)
    def test_in_grammar_documents_never_fall_back(self, doc):
        with counting_fallback() as calls:
            got = parse_html(doc)
        assert calls == []
        assert got == reference(doc)

    @settings(max_examples=400, deadline=None)
    @given(HOSTILE)
    def test_hostile_documents(self, doc):
        assert parse_html(doc) == reference(doc)

    @pytest.mark.parametrize("doc,expected", [
        # the last href wins; an empty or valueless one is ignored
        ("<a href='/1' HREF=\"/2\">x</a>", ("x", [("/2", "x")])),
        ("<a href='/1' href=''>x</a><a href>y</a>", ("xy", [])),
        # a new <a href> drops an unclosed one; an <a> without href does not
        ("<a href=/1>one<a href=/2>two</a>", ("onetwo", [("/2", "two")])),
        ("<a href=/1>one<a name=n>two</a>", ("onetwo", [("/1", "onetwo")])),
        # self-closing anchors are empty; an unquoted value keeps its "/"
        ('<a href="/x.pdf"/>PDF', ("PDF", [("/x.pdf", "")])),
        ("<a href=/x/>PDF</a>", ("PDF", [("/x/", "PDF")])),
        # block tags: </br> adds nothing, <p/> adds two newlines
        ("A<BR>B</br>C<p/>D</P>E", ("A\nBC\n\nD\nE", [])),
        # charrefs in text and in href; noscript content is skipped
        ("<A HREF='/a?x=1&amp;y=2'>R&amp;D</A><noscript>js</noscript>",
         ("R&D", [("/a?x=1&y=2", "R&D")])),
        ("<div>  a  </div>\n\n\n<div>b</div>", ("a\n\nb", [])),
    ])
    def test_rules(self, doc, expected):
        with counting_fallback() as calls:
            assert parse_html(doc) == expected
        assert calls == []
        assert reference(doc) == expected

    @pytest.mark.parametrize("doc", [
        "<!-- c --><p>x</p>", "<!DOCTYPE html><p>x</p>", "<?pi?><p>x</p>",
        "<script>a<b</script>", "<style>p{}</style>", "1 < 2",
        "<a title='1 > 0' href=/t.pdf>t</a>",
        # html.parser reads "p\xa0" as the tag name: not a block tag
        "A<p\xa0>B",
    ])
    def test_unmodelled_markup_falls_back(self, doc):
        with counting_fallback() as calls:
            got = parse_html(doc)
        assert calls == [doc]
        assert got == reference(doc)


@pytest.mark.parametrize("spec", [
    CorpusSpec(),
    CorpusSpec(n_articles=300, seed=7, oa_probability=0.6,
               abstract_page_prob=0.8,
               chain_depth_distribution=((0, 0.1), (1, 0.3), (2, 0.3),
                                         (3, 0.2), (4, 0.1))),
], ids=["default", "deep-chains"])
def test_generated_pages_never_fall_back(spec):
    pages = [text for fmt, text in
             generate_corpus(spec).web.pages.values() if fmt in HTML_FORMATS]
    assert len(pages) > 50
    with counting_fallback() as calls:
        got = [parse_html(page) for page in pages]
    assert calls == []
    assert got == [reference(page) for page in pages]
