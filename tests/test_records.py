import json

import pytest
from hypothesis import given, strategies as st

from oafinder.records import (
    ArticleRecord,
    CitationRange,
    DetectionEvidence,
    ParseError,
    ValidationError,
    Verdict,
    bin_citations,
    load_detections,
    load_records,
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
        assert load_records(path) == recs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        assert load_records(path) == []

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError, match=":1:"):
            load_records(path)

    def test_invariant_violation_reports_lineno_and_field(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = make_record()
        save_rows([good], path)
        obj = json.loads(path.read_text())
        obj["citation_count"] = -1
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="citation_count"):
            load_records(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        save_rows([make_record(id="a1"), make_record(id="a2"),
                   make_record(id="a1", citation_count=9)], path)
        with pytest.raises(ParseError,
                           match=r":3: duplicate record id 'a1', first on line 1"):
            load_records(path)


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
        loaded = load_records(path)
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

    def test_oa_without_url_rejected(self):
        with pytest.raises(ValidationError):
            DetectionEvidence(article_id="a", verdict=Verdict.OA).validate()

    @given(evs=st.lists(evidence_strategy, max_size=25))
    def test_roundtrip_property(self, evs, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "det.jsonl"
        save_rows(evs, path)
        assert load_detections(path) == evs

