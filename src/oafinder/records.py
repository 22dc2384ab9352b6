"""Bibliographic data model: article records, citation-range bins, detection
evidence, and JSONL persistence.

Titles and author names are stored verbatim; any normalization (casefolding,
whitespace collapsing) happens in the matcher so that evidence offsets keep
referring to source text.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Optional


class OAStatus(enum.Enum):
    OA = "OA"
    NOA = "NOA"
    UNKNOWN = "UNKNOWN"


class CitationRange(enum.Enum):
    """The six citation bins: 0, 1, 2-3, 4-7, 8-15, 16+."""

    R0 = "0"
    R1 = "1"
    R2_3 = "2-3"
    R4_7 = "4-7"
    R8_15 = "8-15"
    R16_PLUS = "16+"


# In definition order, for stable report output.
ALL_RANGES = tuple(CitationRange)


def bin_citations(c: int) -> CitationRange:
    """Map a non-negative citation count to its bin.

    Total on non-negative integers; raises ValueError on negative input.
    """
    if c < 0:
        raise ValueError(f"citation count must be non-negative, got {c}")
    if c == 0:
        return CitationRange.R0
    if c == 1:
        return CitationRange.R1
    if c <= 3:
        return CitationRange.R2_3
    if c <= 7:
        return CitationRange.R4_7
    if c <= 15:
        return CitationRange.R8_15
    return CitationRange.R16_PLUS


class ValidationError(ValueError):
    """A record violates one of the schema invariants."""


class ParseError(ValueError):
    """A persistence file line could not be parsed."""


def make_issue_key(journal_id: str, year: int, issue: int | str) -> str:
    """Composite sortable key "journal_id|year|issue"; "|" is forbidden in parts."""
    if "|" in journal_id or "|" in str(issue):
        raise ValidationError("'|' is not allowed in issue key components")
    return f"{journal_id}|{year}|{issue}"


@dataclass(frozen=True)
class ArticleRecord:
    """One bibliographic record with citation count and OA status."""

    id: str
    first_author_surname: str
    title: str
    journal_id: str
    issue_key: str
    year: int
    discipline: str
    country: str
    citation_count: int
    oa_status: OAStatus = OAStatus.UNKNOWN

    # Called where records are read or made, not from __post_init__:
    # apply_detections copies every record with dataclasses.replace in each
    # stage, which would re-run a __post_init__ on each copy.
    def validate(self) -> None:
        if not self.id:
            raise ValidationError("record has empty id")
        if self.citation_count < 0:
            raise ValidationError(
                f"record {self.id}: citation_count must be >= 0, "
                f"got {self.citation_count}"
            )
        if not self.title.strip():
            raise ValidationError(f"record {self.id}: title is empty")
        if not self.first_author_surname.strip():
            raise ValidationError(f"record {self.id}: first_author_surname is empty")
        parts = self.issue_key.split("|")
        if len(parts) != 3 or parts[0] != self.journal_id or parts[1] != str(self.year):
            raise ValidationError(
                f"record {self.id}: issue_key {self.issue_key!r} is not "
                f"'{self.journal_id}|{self.year}|<issue>'"
            )

    @property
    def citation_range(self) -> CitationRange:
        return bin_citations(self.citation_count)


class Verdict(enum.Enum):
    OA = "OA"
    NOA = "NOA"


@dataclass(frozen=True)
class DetectionEvidence:
    """The robot's decision for one article plus what justifies it."""

    article_id: str
    verdict: Verdict
    url: Optional[str] = None
    match_head_offset: Optional[int] = None
    match_tail_marker: Optional[str] = None
    reason: Optional[str] = None  # set for NOA verdicts
    depth: int = 0
    low_confidence: bool = False

    # Called where evidence is read, not from __post_init__: detect_oa
    # builds each one valid.
    def validate(self) -> None:
        if self.verdict is Verdict.OA and not self.url:
            raise ValidationError(
                f"evidence for {self.article_id}: OA verdict requires a url"
            )
        if self.depth < 0:
            raise ValidationError(f"evidence for {self.article_id}: negative depth")


def _typed(value, kind: type, key: str):
    """value, if it has the JSON type kind; else a TypeError naming key. A
    JSON boolean is not an int, though Python's bool subclasses int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


_STR_FIELDS = tuple(f.name for f in fields(ArticleRecord) if f.type == "str")


def _record_from_dict(obj: dict) -> ArticleRecord:
    try:
        rec = ArticleRecord(
            **{key: _typed(obj[key], str, key) for key in _STR_FIELDS},
            year=_typed(obj["year"], int, "year"),
            citation_count=_typed(obj["citation_count"], int, "citation_count"),
            oa_status=OAStatus(obj.get("oa_status", "UNKNOWN")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad record object: {exc}") from exc
    rec.validate()
    return rec


def _read_jsonl(path, from_dict) -> Iterator[tuple[int, object]]:
    """(1-based line number, from_dict of the line) for each non-blank line
    of a JSONL file, in file order.

    Errors carry the file and the line number of the offending line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            try:
                item = from_dict(obj)
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            yield lineno, item


def load_records(path) -> list[ArticleRecord]:
    """Load and validate a JSONL records file, one object per line. Ids are
    unique: a repeated id is a ParseError naming both lines."""
    recs, first_line = [], {}
    for lineno, rec in _read_jsonl(path, _record_from_dict):
        if rec.id in first_line:
            raise ParseError(f"{path}:{lineno}: duplicate record id "
                             f"{rec.id!r}, first on line {first_line[rec.id]}")
        first_line[rec.id] = lineno
        recs.append(rec)
    return recs


def save_records(records: Iterable[ArticleRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = dict(vars(rec), oa_status=rec.oa_status.value)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def save_detections(evidence: Iterable[DetectionEvidence], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in evidence:
            fh.write(detection_to_json(ev) + "\n")


def detection_to_json(ev: DetectionEvidence) -> str:
    return json.dumps(dict(vars(ev), verdict=ev.verdict.value),
                      ensure_ascii=False, sort_keys=True)


def detection_from_dict(obj: dict) -> DetectionEvidence:
    try:
        ev = DetectionEvidence(
            article_id=_typed(obj["article_id"], str, "article_id"),
            verdict=Verdict(obj["verdict"]),
            url=obj.get("url"),
            match_head_offset=obj.get("match_head_offset"),
            match_tail_marker=obj.get("match_tail_marker"),
            reason=obj.get("reason"),
            depth=_typed(obj.get("depth", 0), int, "depth"),
            low_confidence=_typed(obj.get("low_confidence", False), bool,
                                  "low_confidence"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad detection object: {exc}") from exc
    ev.validate()
    return ev


def load_detections(path) -> list[DetectionEvidence]:
    """Detections in file order. An id may repeat (a resumed journal); the
    reader that keys them by id keeps the last."""
    return [ev for _, ev in _read_jsonl(path, detection_from_dict)]


def apply_detections(
    records: Iterable[ArticleRecord], detections: Iterable[DetectionEvidence]
) -> list[ArticleRecord]:
    """Return records with oa_status set from detection verdicts (by article id).

    Records with no detection keep their current status.
    """
    status = {ev.article_id: OAStatus.OA if ev.verdict is Verdict.OA
              else OAStatus.NOA for ev in detections}
    return [replace(rec, oa_status=status[rec.id]) if rec.id in status
            else rec for rec in records]
