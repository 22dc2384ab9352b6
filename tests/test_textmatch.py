"""Text extraction, full-text matching and candidate-link selection."""

import re
import tempfile
from difflib import SequenceMatcher

import pytest
from hypothesis import example, given, settings, strategies as st

from oafinder.records import ArticleRecord
from oafinder.robot.extract import (
    ExternalConverter,
    ExtractionError,
    extract_text,
    parse_html,
)
from oafinder.robot import match
from oafinder.robot.match import (
    MatchVerdict,
    NotFoundReason,
    extract_candidate_links,
    match_full_text,
)

TITLE = "Longitudinal analysis of market regulation outcomes"
SURNAME = "Fontaine"

RECORD = ArticleRecord(
    id="a1", first_author_surname=SURNAME, title=TITLE, journal_id="j",
    issue_key="j|2000|1", year=2000, discipline="economics", country="FR",
    citation_count=2)

FILLER = ("The estimation strategy follows standard practice and the "
          "residual diagnostics showed no cause for concern. ")


def fulltext(title=TITLE, surname=SURNAME, refs_heading="References",
             n_refs=5, filler_reps=40):
    head = f"{title}\n{surname}, University of Somewhere\nAbstract: results.\n"
    refs = refs_heading + "\n" + "\n".join(
        f"[{i + 1}] Weiss, A. (199{i}) Prior work {i}." for i in range(n_refs))
    return head + FILLER * filler_reps + "\n" + refs


class TestExtractText:
    def test_html_stripped(self):
        assert extract_text("<p>Hello</p>", "html") == ("Hello", [])

    def test_plain_text_identity(self):
        assert extract_text("some text\n", "text") == ("some text\n", [])

    def test_scripts_and_styles_dropped(self):
        html = "<script>var x=1;</script><style>p{}</style><p>Body</p>"
        assert extract_text(html, "html") == ("Body", [])

    def test_pdf_without_converter(self):
        with pytest.raises(ExtractionError, match="CONVERTER_UNAVAILABLE"):
            extract_text("%PDF-1.4", "pdf")

    def test_external_converter_runs_command(self):
        conv = ExternalConverter("cat {in}")
        assert extract_text("converted body", "pdf", conv) == \
            ("converted body", [])

    def test_external_converter_input_path_is_quoted(self, tmp_path,
                                                     monkeypatch):
        # The temp file's path holds a space; {in} arrives shell-quoted.
        tmpdir = tmp_path / "tmp dir"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        conv = ExternalConverter("cat {in}")
        assert extract_text("converted body", "pdf", conv) == \
            ("converted body", [])
        assert list(tmpdir.iterdir()) == []

    def test_external_converter_failure(self):
        conv = ExternalConverter("false")
        with pytest.raises(ExtractionError, match="exit"):
            extract_text("x", "pdf", conv)

    def test_parse_html_keeps_anchor_targets_separately(self):
        text, anchors = parse_html(
            "<p>Intro</p><a href='/x.pdf'>Full Text</a>")
        assert "Intro" in text
        assert anchors == [("/x.pdf", "Full Text")]


class TestMatchFullText:
    def test_full_text_found(self):
        text = fulltext()
        verdict = match_full_text(text, RECORD)
        assert verdict.found and verdict.title_seen
        assert verdict.head_offset is not None
        assert verdict.head_offset < 0.2 * len(text)
        assert verdict.tail_evidence.startswith("heading:")
        # the heading really sits in the last 20%
        assert text.lower().rindex("references") > 0.8 * len(text)

    def test_abstract_only_page(self):
        text = (f"{TITLE}\n{SURNAME}\nAbstract: short summary only.\n"
                + FILLER * 2)
        verdict = match_full_text(text, RECORD)
        assert not verdict.found
        assert verdict.reason is NotFoundReason.NO_REFERENCES_SECTION
        assert verdict.title_seen

    def test_empty_text(self):
        verdict = match_full_text("   \n", RECORD)
        assert verdict.reason is NotFoundReason.EMPTY_TEXT
        assert not verdict.title_seen

    def test_wrong_title(self):
        text = fulltext(title="A completely different subject entirely")
        verdict = match_full_text(text, RECORD)
        assert verdict.reason is NotFoundReason.NO_TITLE_MATCH

    def test_surname_required_in_head(self):
        text = fulltext(surname="Unrelated")
        verdict = match_full_text(text, RECORD)
        assert verdict.reason is NotFoundReason.NO_TITLE_MATCH

    def test_citation_lines_substitute_for_heading(self):
        text = fulltext(refs_heading="Sources consulted:")
        verdict = match_full_text(text, RECORD)
        assert verdict.found
        assert verdict.tail_evidence.startswith("citation-lines:")

    def test_too_few_citation_lines(self):
        text = fulltext(refs_heading="Sources consulted:", n_refs=2)
        assert not match_full_text(text, RECORD).found

    def test_case_and_whitespace_invariance(self):
        base = fulltext()
        shouting = base.replace(TITLE, TITLE.upper().replace(" ", "   "))
        assert match_full_text(shouting, RECORD).found

    def test_near_title_passes_fuzzy_threshold(self):
        # one OCR-style substitution in a long title
        mangled = TITLE.replace("regulation", "regulatlon")
        assert match_full_text(fulltext(title=mangled), RECORD).found

    def test_short_title_low_confidence(self):
        rec = ArticleRecord(
            id="a2", first_author_surname=SURNAME, title="On mice",
            journal_id="j", issue_key="j|2000|1", year=2000,
            discipline="biology", country="US", citation_count=0)
        verdict = match_full_text(fulltext(title="On mice"), rec)
        assert verdict.found
        assert verdict.low_confidence

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 0.5), st.floats(0.2, 0.5))
    def test_window_monotonicity(self, head_fraction, tail_fraction):
        # enlarging either window never flips FOUND to NOT_FOUND
        text = fulltext()
        assert match_full_text(text, RECORD).found
        assert match_full_text(text, RECORD, head_fraction=head_fraction,
                               tail_fraction=tail_fraction).found

    def test_deterministic(self):
        text = fulltext()
        assert match_full_text(text, RECORD) == match_full_text(text, RECORD)

    def test_title_seen_anywhere(self):
        text = FILLER * 10 + TITLE + FILLER * 2
        assert match_full_text(text, RECORD).title_seen
        assert not match_full_text(FILLER * 12, RECORD).title_seen

    def test_token_straddling_head_end_is_whole(self):
        # head_len is 12, inside "Fontaine" (offsets 9-16): the surname
        # token is a head token whole, not cut at the window's end.
        text = "On mice\n\n" + SURNAME + "\n" + FILLER * 3
        rec = ArticleRecord(
            id="a3", first_author_surname=SURNAME, title="On mice",
            journal_id="j", issue_key="j|2000|1", year=2000,
            discipline="biology", country="US", citation_count=0)
        head_fraction = 12.5 / len(text)
        verdict = match_full_text(text, rec, head_fraction=head_fraction)
        assert verdict.reason is NotFoundReason.NO_REFERENCES_SECTION
        assert verdict.head_offset == 0

    @pytest.mark.parametrize("title", ["?!", "--", "—"])
    def test_title_without_tokens_matches_nowhere(self, title):
        rec = ArticleRecord(
            id="a4", first_author_surname=SURNAME, title=title,
            journal_id="j", issue_key="j|2000|1", year=2000,
            discipline="biology", country="US", citation_count=0)
        rec.validate()
        verdict = match_full_text(fulltext(title=title), rec)
        assert verdict.reason is NotFoundReason.NO_TITLE_MATCH
        assert not verdict.title_seen


_REF_TOKEN_RE = re.compile(r"[^\W_]+")


def eager_match_full_text(text, record, threshold, head_fraction,
                          tail_fraction):
    """Reference for match_full_text: the whole document is tokenized up
    front and difflib scores every window that passes the length screen,
    equal strings included."""
    if not text.strip():
        return MatchVerdict(False, NotFoundReason.EMPTY_TEXT)

    def tokens(s):
        return [(m.group(0).lower(), m.start())
                for m in _REF_TOKEN_RE.finditer(s)]

    def best(title, doc):
        target, width = " ".join(title), len(title)
        found = (None, 0.0)
        if not doc or not width:
            return found
        for start in range(max(1, len(doc) - width + 1)):
            window = doc[start:start + width]
            cand = " ".join(t for t, _ in window)
            if abs(len(cand) - len(target)) > (1.0 - threshold) * 2 * len(target):
                continue
            score = SequenceMatcher(None, cand, target).ratio()
            if score > found[1]:
                found = (window[0][1], score)
                if score == 1.0:
                    break
        return found

    title = [t for t, _ in tokens(record.title)]
    low_confidence = len(title) < match.MIN_CONFIDENT_TITLE_TOKENS
    head_len = max(1, int(len(text) * head_fraction))
    doc = tokens(text)
    head = [(t, off) for t, off in doc if off < head_len]
    offset, score = best(title, head)
    surname = {t for t, _ in tokens(record.first_author_surname)}
    if (offset is None or score < threshold or not surname
            or not surname <= {t for t, _ in head}):
        _, score = best(title, doc)
        return MatchVerdict(False, NotFoundReason.NO_TITLE_MATCH,
                            low_confidence=low_confidence,
                            title_seen=score >= threshold)
    tail = text[len(text) - max(1, int(len(text) * tail_fraction)):]
    evidence = match._has_references_tail(tail)
    if evidence is None:
        return MatchVerdict(False, NotFoundReason.NO_REFERENCES_SECTION,
                            head_offset=offset, low_confidence=low_confidence,
                            title_seen=True)
    return MatchVerdict(True, head_offset=offset, tail_evidence=evidence,
                        low_confidence=low_confidence, title_seen=True)


# "İzmir" lower-cases to one more char than it has, so lower-casing a whole
# text would move every offset after it.
_WORDS = ("market", "regulation", "outcomes", "analysis", "of", "Fontaine",
          "İzmir")
_PIECES = ("TITLE", "NEAR", "SURNAME", "References", "[1] Weiss (1999) x",
           "filler", "Fontaine_x", "—", "") + _WORDS


def _near(title):
    """title with one letter changed, so it scores in [threshold, 1)."""
    i = len(title) // 2
    return title[:i] + ("x" if title[i:i + 1] != "x" else "y") + title[i + 1:]


class TestLazyMatchEqualsEager:
    @settings(max_examples=300, deadline=None)
    @given(title_words=st.lists(st.sampled_from(_WORDS), max_size=5),
           pieces=st.lists(st.tuples(st.sampled_from(_PIECES),
                                     st.sampled_from((" ", "\n", "_", ", ",
                                                      "", "-"))),
                           max_size=30),
           threshold=st.floats(0.5, 1.0),
           head_fraction=st.floats(0.01, 1.0),
           tail_fraction=st.floats(0.01, 0.5))
    @example(title_words=[], pieces=[], threshold=0.9, head_fraction=0.2,
             tail_fraction=0.2)
    @example(title_words=[], pieces=[("SURNAME", " "), ("filler", " ")],
             threshold=0.9, head_fraction=0.2, tail_fraction=0.2)
    @example(title_words=["market", "regulation", "outcomes"],
             pieces=[("NEAR", "\n"), ("SURNAME", "\n")]
             + [("filler", " ")] * 8 + [("References", "\n")],
             threshold=0.9, head_fraction=0.3, tail_fraction=0.2)
    @example(title_words=["of", "market"],
             pieces=[("TITLE", " "), ("Fontaine_x", " ")]
             + [("filler", " ")] * 20, threshold=1.0, head_fraction=0.12,
             tail_fraction=0.5)
    # the head ends inside the surname (offsets 18-25, head_len 21)
    @example(title_words=["market", "regulation"],
             pieces=[("TITLE", " "), ("SURNAME", " ")] + [("filler", " ")] * 3,
             threshold=0.9, head_fraction=0.45, tail_fraction=0.2)
    # a near-miss window, then the exact title twice, all in the head
    @example(title_words=["market", "regulation", "outcomes"],
             pieces=[("NEAR", " "), ("TITLE", " "), ("SURNAME", "\n"),
                     ("TITLE", " ")]
             + [("filler", " ")] * 8 + [("References", "\n")],
             threshold=0.9, head_fraction=1.0, tail_fraction=0.2)
    # the title after a token whose lower-case form is longer
    @example(title_words=["İzmir", "market", "outcomes"],
             pieces=[("İzmir", " "), ("TITLE", "\n"), ("SURNAME", " ")]
             + [("filler", " ")] * 8 + [("References", "\n")],
             threshold=0.9, head_fraction=0.4, tail_fraction=0.2)
    def test_same_verdict(self, title_words, pieces, threshold,
                          head_fraction, tail_fraction):
        title = " ".join(title_words)
        words = {"TITLE": title, "NEAR": _near(title), "SURNAME": SURNAME}
        text = "".join(words.get(p, p) + sep for p, sep in pieces)
        rec = ArticleRecord(
            id="p", first_author_surname=SURNAME, title=title,
            journal_id="j", issue_key="j|2000|1", year=2000,
            discipline="economics", country="FR", citation_count=0)
        assert match_full_text(
            text, rec, title_similarity_threshold=threshold,
            head_fraction=head_fraction, tail_fraction=tail_fraction) == \
            eager_match_full_text(text, rec, threshold, head_fraction,
                                  tail_fraction)


def anchors_of(html):
    return parse_html(html)[1]


class TestCandidateLinks:
    def test_fulltext_anchor(self):
        html = "<a href='/p/doc.pdf'>Full Text (PDF)</a>"
        assert extract_candidate_links(
            anchors_of(html), "http://h.example/x", RECORD) == \
            ["http://h.example/p/doc.pdf"]

    @pytest.mark.parametrize("max_links", [0, 1, 20])
    def test_cap_in_document_order(self, max_links):
        html = "".join(f"<a href='/d{i}.pdf'>item</a>" for i in range(100))
        links = extract_candidate_links(anchors_of(html), "http://h.example/",
                                        RECORD, max_links=max_links)
        assert links == [f"http://h.example/d{i}.pdf" for i in range(max_links)]

    def test_unjoinable_href_dropped(self):
        html = "<a href='http://[x/full.pdf'>PDF</a><a href='/d.pdf'>PDF</a>"
        assert extract_candidate_links(
            anchors_of(html), "http://h.example/", RECORD) == \
            ["http://h.example/d.pdf"]

    def test_navigation_anchors_ignored(self):
        html = "<a href='/'>Home</a><a href='/login'>Login</a>"
        assert extract_candidate_links(
            anchors_of(html), "http://h.example/", RECORD) == []

    def test_title_tokens_in_anchor_text(self):
        html = "<a href='/view?id=9'>market regulation working paper</a>"
        assert extract_candidate_links(
            anchors_of(html), "http://h.example/", RECORD) == \
            ["http://h.example/view?id=9"]

    def test_title_tokens_in_url(self):
        html = "<a href='/market/regulation/9'>click</a>"
        assert extract_candidate_links(
            anchors_of(html), "http://h.example/", RECORD) == \
            ["http://h.example/market/regulation/9"]
