"""Text extraction, full-text matching and candidate-link selection."""

import pytest
from hypothesis import given, settings, strategies as st

from oafinder.records import ArticleRecord, OAStatus
from oafinder.robot.extract import (
    ConverterUnavailableError,
    ExternalConverter,
    ExtractionError,
    extract_text,
    parse_html,
)
from oafinder.robot.match import (
    NotFoundReason,
    extract_candidate_links,
    match_full_text,
)

TITLE = "Longitudinal analysis of market regulation outcomes"
SURNAME = "Fontaine"

RECORD = ArticleRecord(
    id="a1", first_author_surname=SURNAME, title=TITLE, journal_id="j",
    issue_key="j|2000|1", year=2000, discipline="economics", country="FR",
    citation_count=2, oa_status=OAStatus.UNKNOWN)

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
        assert extract_text(b"<p>Hello</p>", "html") == ("Hello", [])

    def test_plain_text_identity(self):
        assert extract_text("some text\n".encode(), "text") == ("some text\n", [])

    def test_scripts_and_styles_dropped(self):
        html = b"<script>var x=1;</script><style>p{}</style><p>Body</p>"
        assert extract_text(html, "html") == ("Body", [])

    def test_pdf_without_converter(self):
        with pytest.raises(ConverterUnavailableError, match="CONVERTER_UNAVAILABLE"):
            extract_text(b"%PDF-1.4", "pdf")

    def test_undecodable_text(self):
        with pytest.raises(ExtractionError):
            extract_text(b"\xff\xfe\x00bad", "text")

    def test_external_converter_runs_command(self):
        conv = ExternalConverter("cat {in}")
        assert extract_text(b"converted body", "pdf", conv) == \
            ("converted body", [])

    def test_external_converter_failure(self):
        conv = ExternalConverter("false")
        with pytest.raises(ExtractionError, match="exit"):
            extract_text(b"x", "pdf", conv)

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
