"""Bibliographic data model: article records, citation-range bins, detection
evidence, and JSONL persistence.

Titles and author names are stored verbatim; any normalization (casefolding,
whitespace collapsing) happens in the matcher so that evidence offsets keep
referring to source text.

_read_jsonl reads every JSONL row (record, evidence, ground truth, page) off
the fields and type hints of its dataclass, by the rule the README gives
under "Exit codes"; row_to_json writes it as one line. A line in that exact
form is read off one compiled pattern per class, without the JSON decoder,
which reads every other line and names its faults. save_rows is the one
writer of a row file; only detect's resumable journal is appended a line at
a time, by detection_to_json. A field whose metadata is SHARED holds a value
that repeats across rows (a discipline, a year, a reason): once it has
passed its type check, the reader replaces it with the first equal value
read from the same file, so a file's rows hold each such value once.
Nothing of that outlives the read.

ArticleRecord.validate, run wherever records are read, is the one check of
an issue key's "journal_id|year|issue" shape. A record holds no OA verdict:
its detection does: verdicts keys the last one of each id, for the reports
and the audit, and cli._resolved_records pairs each streamed record with it.
"""

from __future__ import annotations

import enum
import functools
import json
import re
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Iterator, Optional, get_args, get_type_hints


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
# The largest count of each bin but the last, in ALL_RANGES order.
_RANGE_TOPS = (0, 1, 3, 7, 15)


def bin_citations(c: int) -> CitationRange:
    """Map a non-negative citation count to its bin.

    Total on non-negative integers; raises ValueError on negative input.
    """
    if c < 0:
        raise ValueError(f"citation count must be non-negative, got {c}")
    return ALL_RANGES[bisect_left(_RANGE_TOPS, c)]


class ValidationError(ValueError):
    """A record violates one of the schema invariants."""


class ParseError(ValueError):
    """A persistence file line could not be parsed."""


# The metadata of a row field whose values repeat across a file's rows.
SHARED = {"shared": True}


@dataclass(frozen=True)
class ArticleRecord:
    """One bibliographic record with its citation count. Its OA verdict is
    not a field: it is the verdict of the record's detection."""

    id: str
    first_author_surname: str = field(metadata=SHARED)
    title: str
    journal_id: str = field(metadata=SHARED)
    issue_key: str = field(metadata=SHARED)
    year: int = field(metadata=SHARED)
    discipline: str = field(metadata=SHARED)
    country: str = field(metadata=SHARED)
    citation_count: int

    # Called where records are read, not from __post_init__: the row
    # reader builds records without running __init__.
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
    match_tail_marker: Optional[str] = field(default=None, metadata=SHARED)
    # set for NOA verdicts
    reason: Optional[str] = field(default=None, metadata=SHARED)
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


_ROW_DECODER = json.JSONDecoder()
# Each type's value as row_to_json writes it, a group named by its field: a
# string with no escape (so no ", \ or control character), a JSON int.
_FORMS = {str: r'"(?P<{}>[^"\\\x00-\x1f]*)"',
          int: r"(?P<{}>-?(?:0|[1-9][0-9]*))", bool: "(?P<{}>true|false)"}


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, default, types, read, shared) of each field of a row class;
    read takes a matched field's text, or an enum's value, to its value."""
    hints = get_type_hints(cls)  # Optional[str] gives (str, NoneType)
    rules = []
    for f in fields(cls):
        kinds = get_args(hints[f.name]) or (hints[f.name],)
        read = {int: int, bool: "true".__eq__}.get(kinds[0])
        if issubclass(kinds[0], enum.Enum):
            read = {member.value: member for member in kinds[0]}.__getitem__
        rules.append((f.name, f.default, kinds, read,
                      bool(f.metadata.get("shared"))))
    return tuple(rules)


@functools.cache
def _row_pattern(cls) -> re.Pattern:
    """A line as row_to_json writes a row of class cls: every key once, in
    sorted order, each value of its field's type in _FORMS' form."""
    parts = []
    for name, _, kinds, _, _ in sorted(_field_rules(cls)):
        form = _FORMS[kinds[0]].format(name) if kinds[0] in _FORMS else (
            f'"(?P<{name}>%s)"' % "|".join(re.escape(m.value) for m in kinds[0]))
        if type(None) in kinds:  # a null leaves the group None
            form = f"(?:{form}|null)"
        parts.append(f'"{name}": {form}')
    return re.compile("{%s}" % ", ".join(parts))


def _row_from_line(line: str, cls, rules, match):
    """The row of class cls on a stripped JSONL line, each field read by its
    (name, default, types, read, memo) rule, then swapped for the first equal
    value in memo where that is a dict. A line that match takes is read off
    its groups; any other is decoded, each field checked by exact type, so
    true is not an int (raw_decode is json.loads without whitespace scans)."""
    # Built as unpickling builds an object, without a frozen __init__'s
    # object.__setattr__ per field: rows check themselves in validate().
    row = object.__new__(cls)
    values = row.__dict__
    m = match(line)
    if m is not None:
        try:
            for name, _, _, read, memo in rules:
                value = m[name]
                if read is not None and value is not None:
                    value = read(value)
                if memo is not None:
                    value = memo.setdefault(value, value)
                values[name] = value
            return row
        except ValueError:  # an int past the digit limit: decoded below
            pass
    try:
        obj, end = _ROW_DECODER.raw_decode(line)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise ParseError(str(exc)) from exc
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if type(obj) is not dict:
        raise ParseError(f"expected a JSON object, got {obj!r:.60}")
    for name, default, kinds, read, memo in rules:
        value = obj.get(name, default)
        if type(value) not in kinds:
            if value is MISSING:
                raise ParseError(f"missing key {name!r}")
            if not issubclass(kinds[0], enum.Enum):
                names = " or ".join(k.__name__ for k in kinds)
                raise ParseError(f"{name} must be {names}, got {value!r}")
            try:
                value = read(value)
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise ParseError(f"{name}: {value!r} is not a valid "
                                 f"{kinds[0].__name__}") from None
        elif type(value) is str and not value.isascii():
            try:  # a \u escape can make a lone surrogate
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(f"{name} is not UTF-8 text: {exc}") from exc
        if memo is not None:  # after the type check: a list is unhashable
            value = memo.setdefault(value, value)
        values[name] = value
    return row


def _read_jsonl(path, cls) -> Iterator[tuple[int, object]]:
    """(1-based line number, row of class cls) for each non-blank line of a
    JSONL file, in file order, validated when cls has a validate(). Errors
    name the file and the line."""
    rules = [(name, default, kinds, read, {} if shared else None)
             for name, default, kinds, read, shared in _field_rules(cls)]
    match = _row_pattern(cls).fullmatch
    validate = getattr(cls, "validate", None)
    # Read as bytes and decoded line by line: a text-mode file decodes ahead
    # in chunks, so its UnicodeDecodeError could not name the line.
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                line = data.decode("utf-8").strip()
                if not line:
                    continue
                row = _row_from_line(line, cls, rules, match)
                if validate:
                    validate(row)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            yield lineno, row


# json.dumps(row, ensure_ascii=False, sort_keys=True), an enum as its value
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                                default=attrgetter("value"))


def row_to_json(row) -> str:
    """A row as one JSONL line, without the newline."""
    return _ROW_ENCODER.encode(vars(row))


def iter_records(path) -> Iterator[ArticleRecord]:
    """Stream and validate a JSONL records file, one object per line. Ids
    are unique: a repeated id is a ParseError naming both lines."""
    seen = set()  # ids alone: a repeat's first line is found by a reread
    for lineno, rec in _read_jsonl(path, ArticleRecord):
        if rec.id in seen:
            first = next(n for n, r in _read_jsonl(path, ArticleRecord)
                         if r.id == rec.id)
            raise ParseError(f"{path}:{lineno}: duplicate record id "
                             f"{rec.id!r}, first on line {first}")
        seen.add(rec.id)
        yield rec


def load_records(path) -> list[ArticleRecord]:
    """Every record of a JSONL records file, as iter_records reads them."""
    return list(iter_records(path))


def save_rows(rows: Iterable, path) -> None:
    """Write a JSONL row file: one row_to_json line per row, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row_to_json(row) + "\n")


def detection_to_json(ev: DetectionEvidence) -> str:
    return row_to_json(ev)


def load_detections(path) -> list[DetectionEvidence]:
    """Detections in file order. An id may repeat (a resumed journal); the
    reader that keys them by id keeps the last."""
    return [ev for _, ev in _read_jsonl(path, DetectionEvidence)]


def verdicts(detections: Iterable[DetectionEvidence]) -> dict[str, bool]:
    """Article id -> whether its last detection's verdict is OA."""
    return {ev.article_id: ev.verdict is Verdict.OA for ev in detections}


def load_verdicts(path) -> dict[str, bool]:
    """The verdicts of a detections file, read without keeping its rows."""
    return verdicts(ev for _, ev in _read_jsonl(path, DetectionEvidence))
