import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oafinder import records
from oafinder.corpus import GroundTruth, Page
from oafinder.records import (
    ArticleRecord,
    CitationRange,
    DetectionEvidence,
    ParseError,
    ValidationError,
    Verdict,
    bin_citations,
    iter_records,
    load_detections,
    row_to_json,
    save_rows,
)


def make_record(**kw):
    base = dict(
        id="a1", first_author_surname="Archer", title="A study of things",
        journal_id="j1", issue_key="j1|1999|2", year=1999,
        discipline="biology", country="US", citation_count=3,
    )
    base.update(kw)
    return ArticleRecord(**base)


class TestBinning:
    @pytest.mark.parametrize("c,expected", [
        (0, CitationRange.R0),
        (1, CitationRange.R1),
        (2, CitationRange.R2_3), (3, CitationRange.R2_3),
        (4, CitationRange.R4_7), (7, CitationRange.R4_7),
        (8, CitationRange.R8_15), (15, CitationRange.R8_15),
        (16, CitationRange.R16_PLUS), (1000, CitationRange.R16_PLUS),
    ])
    def test_boundaries(self, c, expected):
        assert bin_citations(c) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bin_citations(-1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_partition_and_monotone(self, c):
        order = list(CitationRange)
        rank = order.index(bin_citations(c))
        assert rank >= order.index(bin_citations(max(0, c - 1)))


class TestValidation:
    def test_valid_record(self):
        make_record().validate()

    def test_negative_citations(self):
        with pytest.raises(ValidationError):
            make_record(citation_count=-1).validate()

    @pytest.mark.parametrize("field,value", [
        ("title", "   "), ("first_author_surname", ""),
    ])
    def test_empty_text_fields(self, field, value):
        with pytest.raises(ValidationError):
            make_record(**{field: value}).validate()

    def test_issue_key_must_derive_from_parts(self):
        with pytest.raises(ValidationError):
            make_record(issue_key="other|1999|2").validate()

    def test_same_issue_shares_key(self):
        a = make_record(id="a")
        b = make_record(id="b")
        assert a.issue_key == b.issue_key


class TestRecordsFile:
    def test_roundtrip(self, tmp_path):
        recs = [make_record(id=f"a{i}", citation_count=i) for i in range(3)]
        path = tmp_path / "records.jsonl"
        save_rows(recs, path)
        assert list(iter_records(path)) == recs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        assert list(iter_records(path)) == []

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError, match=":1:"):
            list(iter_records(path))

    def test_invariant_violation_reports_lineno_and_field(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = make_record()
        save_rows([good], path)
        obj = json.loads(path.read_text())
        obj["citation_count"] = -1
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="citation_count"):
            list(iter_records(path))

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        save_rows([make_record(id="a1"), make_record(id="a2"),
                   make_record(id="a1", citation_count=9)], path)
        with pytest.raises(ParseError,
                           match=r":3: duplicate record id 'a1', first on line 1"):
            list(iter_records(path))


def distinct_objects(rows, name):
    """(distinct objects, distinct values) of one field over rows."""
    values = [getattr(row, name) for row in rows]
    return len({id(v) for v in values}), len(set(values))


def jsonl_bytes(rows) -> bytes:
    return "".join(row_to_json(row) + "\n" for row in rows).encode("utf-8")


class TestSharedValues:
    """A file's rows hold each value of a SHARED field once."""

    def test_records_share_repeated_values(self, tmp_path):
        recs = [make_record(id=f"a{i}", first_author_surname=f"Archer{i % 3}",
                            title=f"Study {i}", journal_id=f"j{i % 2}",
                            issue_key=f"j{i % 2}|{1999 + i % 4}|{i % 5}",
                            year=1999 + i % 4,
                            discipline=("biology", "physics")[i % 2],
                            country=("US", "UK", "DE")[i % 3])
                for i in range(40)]
        path = tmp_path / "records.jsonl"
        save_rows(recs, path)
        loaded = list(iter_records(path))
        assert loaded == recs
        for name in ("first_author_surname", "journal_id", "issue_key",
                     "year", "discipline", "country"):
            objects, values = distinct_objects(loaded, name)
            assert objects == values < len(loaded), name
        # titles repeat nowhere, so nothing is shared
        assert distinct_objects(loaded, "title") == (40, 40)
        assert jsonl_bytes(loaded) == path.read_bytes()

    def test_detections_share_reason(self, tmp_path):
        evs = [DetectionEvidence(article_id=f"a{i}", verdict=Verdict.NOA,
                                 reason=("NO_RESULTS", "EXHAUSTED")[i % 2])
               for i in range(20)]
        path = tmp_path / "det.jsonl"
        save_rows(evs, path)
        loaded = load_detections(path)
        assert loaded == evs
        assert distinct_objects(loaded, "reason") == (2, 2)
        assert jsonl_bytes(loaded) == path.read_bytes()

    def test_nothing_shared_across_reads(self, tmp_path):
        path = tmp_path / "det.jsonl"
        save_rows([DetectionEvidence(article_id="a1",
                                     verdict=Verdict.NOA,
                                     reason="EXHAUSTED")], path)
        (first,), (second,) = load_detections(path), load_detections(path)
        assert first.reason == second.reason
        assert first.reason is not second.reason


evidence_strategy = st.builds(
    DetectionEvidence,
    article_id=st.text(min_size=1, max_size=10),
    verdict=st.sampled_from([Verdict.OA, Verdict.NOA]),
    url=st.just("http://h.example/x.pdf"),
    match_head_offset=st.one_of(st.none(), st.integers(0, 10**6)),
    match_tail_marker=st.one_of(st.none(), st.text(max_size=20)),
    reason=st.one_of(st.none(), st.just("EXHAUSTED")),
    depth=st.integers(0, 3),
    low_confidence=st.booleans(),
)


class TestDetectionsFile:
    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "det.jsonl"
        save_rows([], path)
        assert load_detections(path) == []

    def test_single_oa_roundtrip(self, tmp_path):
        ev = DetectionEvidence(
            article_id="a1", verdict=Verdict.OA, url="http://h.example/p.pdf",
            match_head_offset=10, match_tail_marker="heading:references",
            depth=1)
        path = tmp_path / "det.jsonl"
        save_rows([ev], path)
        assert load_detections(path) == [ev]

    def test_repeated_id_kept_in_file_order(self, tmp_path):
        # A resumed journal may hold an article twice; the last entry wins
        # where detections are keyed by id.
        first = DetectionEvidence(article_id="a1", verdict=Verdict.NOA)
        last = DetectionEvidence(article_id="a1", verdict=Verdict.OA,
                                 url="http://h.example/p.pdf")
        path = tmp_path / "det.jsonl"
        save_rows([first, last], path)
        assert load_detections(path) == [first, last]

    @pytest.mark.parametrize("value", ["X", [1]])
    def test_unknown_verdict_is_named(self, value, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(json.dumps({"article_id": "a1", "verdict": value})
                        + "\n")
        with pytest.raises(ParseError, match=re.escape(
                f":1: verdict: {value!r} is not a valid Verdict")):
            load_detections(path)

    def test_oa_without_url_rejected(self):
        with pytest.raises(ValidationError):
            DetectionEvidence(article_id="a", verdict=Verdict.OA).validate()

    @given(evs=st.lists(evidence_strategy, max_size=25))
    def test_roundtrip_property(self, evs, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "det.jsonl"
        save_rows(evs, path)
        assert load_detections(path) == evs


# Text the writer escapes (a quote, a backslash, control characters) beside
# text it writes as it is, non-ASCII included; and text with no escape, so
# that a row of it is written in the form the reader matches.
ESCAPED = st.text(st.one_of(st.characters(exclude_categories=("Cs",)),
                            st.sampled_from('"\\\x00\n\x1f\x7fé ')),
                  max_size=8)
PLAIN = st.text(st.characters(exclude_categories=("Cs", "Cc"),
                              exclude_characters='"\\'), max_size=8)
ints = st.integers(-10**20, 10**20)


def article_records(text):
    nonblank = text.filter(str.strip)
    pipeless = text.filter(lambda s: "|" not in s)

    @st.composite
    def build(draw):
        journal = draw(pipeless.filter(str.strip))
        year = draw(ints)
        issue_key = f"{journal}|{year}|{draw(pipeless)}"
        return ArticleRecord(
            id=draw(text.filter(bool)), first_author_surname=draw(nonblank),
            title=draw(nonblank), journal_id=journal, issue_key=issue_key,
            year=year, discipline=draw(text), country=draw(text),
            citation_count=draw(st.integers(0, 10**30)))
    return build()


def detections(text):
    optional = st.one_of(st.none(), text)

    @st.composite
    def build(draw):
        verdict = draw(st.sampled_from(Verdict))
        return DetectionEvidence(
            article_id=draw(text), verdict=verdict,
            url=draw(text.filter(bool) if verdict is Verdict.OA else optional),
            match_head_offset=draw(st.one_of(st.none(), ints)),
            match_tail_marker=draw(optional), reason=draw(optional),
            depth=draw(st.integers(0, 10**20)),
            low_confidence=draw(st.booleans()))
    return build()


# Each row class's rows: all of plain text, or of text with escapes.
ROWS = {cls: st.one_of(build(PLAIN), build(ESCAPED)) for cls, build in [
    (ArticleRecord, article_records),
    (DetectionEvidence, detections),
    (GroundTruth, lambda text: st.builds(
        GroundTruth, article_id=text, oa=st.booleans(), kind=text,
        chain_depth=ints, fulltext_url=text)),
    (Page, lambda text: st.builds(Page, url=text, format=text, text=text)),
]}


@pytest.fixture(scope="module")
def rows_path(tmp_path_factory):
    """One file for a property test to write each example's rows to."""
    return tmp_path_factory.mktemp("rows") / "rows.jsonl"


row_classes = pytest.mark.parametrize("cls", ROWS, ids=lambda c: c.__name__)
NO_LINE = re.compile(r"(?!)")


def read_back(path, cls):
    """The rows the file reader gives, or its error's type and message."""
    try:
        return [row for _, row in records._read_jsonl(path, cls)]
    except ValueError as exc:
        return type(exc), str(exc)


def decoded(path, cls):
    """read_back with every line read by the JSON decoder."""
    with mock.patch.object(records, "_row_pattern", lambda cls: NO_LINE):
        return read_back(path, cls)


def perturb(pairs, how, at, draw):
    """A writer's line, given as (key, JSON text) pairs, changed by how at
    pair index at."""
    pairs = list(pairs)
    key, value = pairs[at]
    sep, colon = ", ", ": "
    if how == "reorder":
        pairs = draw(st.permutations(pairs))
    elif how == "space":
        sep, colon = draw(st.sampled_from([(" , ", ": "), (", ", " :"),
                                           (",", ":"), (",  ", ":\t")]))
    elif how == "extra key":  # sorted in after key
        pairs.insert(at + 1, (key + "0", json.dumps(draw(PLAIN))))
    elif how == "missing key":
        del pairs[at]
    elif how == "escape" and value.startswith('"'):
        escaped = json.dumps(json.loads(value) + draw(st.sampled_from('"é')))
        pairs[at] = key, escaped  # with \" or \u00e9
    elif how in ("1.0", "true", "null"):
        pairs[at] = key, how
    elif how == "unknown verdict":
        pairs = [(k, '"MAYBE"' if k == "verdict" else v) for k, v in pairs]
    elif how == "long int" and re.fullmatch(r"-?[0-9]+", value):
        pairs[at] = key, "9" * 5000
    return "{" + sep.join(f"{json.dumps(k)}{colon}{v}" for k, v in pairs) + "}"


class TestWriterForm:
    """A line in row_to_json's form is read off one pattern per row class;
    any other line by the JSON decoder. Both read a line to one row."""

    @pytest.mark.parametrize("row", [
        make_record(),
        DetectionEvidence(article_id="a1", verdict=Verdict.OA,
                          url="http://h.example/p.pdf", match_head_offset=10,
                          match_tail_marker="heading:references", depth=1),
        DetectionEvidence(article_id="a2", verdict=Verdict.NOA,
                          reason="EXHAUSTED", low_confidence=True),
        GroundTruth(article_id="a1", oa=True, kind="fulltext", chain_depth=1,
                    fulltext_url="http://h.example/p.pdf"),
        Page(url="http://h.example/", format="html", text="<p>Ünïcode</p>"),
    ], ids=lambda row: type(row).__name__)
    def test_pattern_matches_the_writer(self, row):
        # Were the writer's form to change (a json release, say), every
        # line would quietly take the slower decoder path.
        assert records._row_pattern(type(row)).fullmatch(row_to_json(row))

    @row_classes
    @given(data=st.data())
    def test_written_rows_read_back(self, cls, data, rows_path):
        rows = data.draw(st.lists(ROWS[cls], max_size=5))
        save_rows(rows, rows_path)
        assert read_back(rows_path, cls) == rows == decoded(rows_path, cls)

    @pytest.mark.parametrize("cls,how", [
        pytest.param(cls, how, id=f"{cls.__name__}-{how}") for cls in ROWS
        for how in ("reorder", "space", "extra key", "missing key", "escape",
                    "1.0", "true", "null", "unknown verdict", "long int")
        if how != "unknown verdict" or cls is DetectionEvidence])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_perturbed_line_reads_as_decoded(self, cls, how, data,
                                             rows_path):
        obj = json.loads(row_to_json(data.draw(ROWS[cls])))
        pairs = [(key, json.dumps(obj[key], ensure_ascii=False))
                 for key in sorted(obj)]
        at = data.draw(st.integers(0, len(pairs) - 1))
        rows_path.write_text(perturb(pairs, how, at, data.draw) + "\n",
                             encoding="utf-8")
        assert read_back(rows_path, cls) == decoded(rows_path, cls)

