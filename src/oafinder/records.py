"""Bibliographic data model: article records, citation-range bins, detection
evidence, and JSONL persistence.

Titles and author names are stored verbatim; any normalization (casefolding,
whitespace collapsing) happens in the matcher so that evidence offsets keep
referring to source text.

_read_jsonl reads every JSONL row (record, evidence, ground truth, page) off
the fields and type hints of its dataclass, by the rule the README gives
under "Exit codes"; row_to_json writes it as one line. A stage that keeps
rows reads them whole; a stage that drops them reads only the values of
the fields it names, as a tuple, and builds no row. A line in row_to_json's
exact form is read by one function compiled per (class, field names): one
match, one m.group call, and a conversion of each typed field it returns.
Every other line goes through the JSON decoder, which names its faults,
into a row, and the named values are taken from that. save_rows is the one
writer of a row file; only detect's resumable journal, and the copy that
compacts it, take a line at a time. A field whose metadata is SHARED holds
a value that repeats across rows (a discipline, a year, a reason): where it
is kept, once it has passed its type check, the reader replaces it with the
first equal value read from the same file, so a file's rows hold each such
value once. Nothing of that outlives the read.

Each row class with invariants states them once, in a static check() whose
parameters are field names; validate() runs it on a row, and the readers
run it on every line they read, whichever fields they keep. A record holds
no OA verdict: its detection does: load_verdicts keys the last one of each
id, for the reports and the audit; cli._resolved_records pairs each
record's fields with it.
"""

from __future__ import annotations

import enum
import functools
import inspect
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

    @staticmethod
    def check(id, first_author_surname, title, journal_id, issue_key, year,
              citation_count) -> None:
        """The record invariants, on its field values: an id, a title, a
        surname, citation_count >= 0 and a "journal_id|year|issue" key."""
        if not id:
            raise ValidationError("record has empty id")
        if citation_count < 0:
            raise ValidationError(
                f"record {id}: citation_count must be >= 0, "
                f"got {citation_count}"
            )
        if not title.strip():
            raise ValidationError(f"record {id}: title is empty")
        if not first_author_surname.strip():
            raise ValidationError(f"record {id}: first_author_surname is empty")
        parts = issue_key.split("|")
        if len(parts) != 3 or parts[0] != journal_id or parts[1] != str(year):
            raise ValidationError(
                f"record {id}: issue_key {issue_key!r} is not "
                f"'{journal_id}|{year}|<issue>'"
            )

    # Called where records are read, not from __post_init__: the row
    # reader builds records without running __init__.
    def validate(self) -> None:
        _validate(self)


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

    @staticmethod
    def check(article_id, verdict, url, depth) -> None:
        """The evidence invariants: an OA verdict has a url, and the depth
        is not negative."""
        if verdict is Verdict.OA and not url:
            raise ValidationError(
                f"evidence for {article_id}: OA verdict requires a url"
            )
        if depth < 0:
            raise ValidationError(f"evidence for {article_id}: negative depth")

    # Called where evidence is read, not from __post_init__: detect_oa
    # builds each one valid.
    def validate(self) -> None:
        _validate(self)


@functools.cache
def _check_params(cls) -> tuple[str, ...]:
    """The field names cls.check takes, in order; () when cls has none."""
    check = getattr(cls, "check", None)
    return tuple(inspect.signature(check).parameters) if check else ()


def _validate(row) -> None:
    """Run the check of row's class, if it has one, on row's fields."""
    cls = type(row)
    if _check_params(cls):
        cls.check(*[getattr(row, name) for name in _check_params(cls)])


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


@functools.cache
def _fields_reader(cls, names):
    """The factory of the function that reads a stripped line in the form
    row_to_json writes for class cls: it returns the values of the fields
    names in that order, as a tuple (with names None, a row), each field
    converted and checked by cls.check; and None for any other line. The
    factory returns (read, memos): memos maps each kept SHARED field to the
    dict its values are kept in. Compiled once per (cls, names), so a line
    costs one match, one m.group and one conversion per typed field."""
    keep = names or tuple(f.name for f in fields(cls))
    params = _check_params(cls)
    # Also what check reads, and every int, which may be past the digit
    # limit whether it is kept or not.
    groups = tuple(dict.fromkeys(keep + params + tuple(
        name for name, _, kinds, _, _ in _field_rules(cls) if int in kinds)))
    env = {"match": _row_pattern(cls).fullmatch, "new": object.__new__,
           "cls": cls, "check": getattr(cls, "check", None)}
    memos, typed, memoized = [], [], []
    for name, _, kinds, read, shared in _field_rules(cls):
        if name not in groups:
            continue
        # Of these reads only int() can fail, past the digit limit: the
        # pattern took only true or false and an enum's values.
        if read is not None:
            env[f"read_{name}"] = read
            conv = f"read_{name}(v_{name})"
            if type(None) in kinds:
                conv = f"None if v_{name} is None else {conv}"
            typed.append(f"v_{name} = {conv}")
        if shared and name in keep:
            memos.append(name)
            memoized.append(f"v_{name} = memo_{name}(v_{name}, v_{name})")

    def v(of):
        return ", ".join(f"v_{name}" for name in of)

    lines = ["def factory():",
             "    memos = {%s}" % ", ".join(f"{n!r}: {{}}" for n in memos),
             *(f"    memo_{n} = memos[{n!r}].setdefault" for n in memos),
             "    def read(line):",
             "        m = match(line)",
             "        if m is None:",
             "            return None",
             # m.group of one name returns its value, of more a tuple
             f"        {v(groups)} = m.group({', '.join(map(repr, groups))})"]
    if typed:
        lines += ["        try:",
                  *(f"            {line}" for line in typed),
                  "        except ValueError:  # an int past the digit limit",
                  "            return None"]
    lines += [f"        {line}" for line in memoized]
    if params:
        lines.append(f"        check({v(params)})")
    if names is None:  # built as _decoded builds a row, a key at a time:
        # a dict.update would give each row a dict of its own keys.
        lines += ["        row = new(cls)",
                  "        values = row.__dict__",
                  *(f"        values[{n!r}] = v_{n}" for n in keep),
                  "        return row"]
    else:
        lines.append(f"        return ({v(keep)},)")
    lines.append("    return read, memos")
    exec(compile("\n".join(lines) + "\n", f"<{cls.__name__} reader>",
                 "exec"), env)
    return env["factory"]


def _decoded(line: str, cls, rules, names):
    """What the reader of names returns, for a line it does not take: the
    row the JSON decoder reads, each field checked by exact type, so true is
    not an int (raw_decode is json.loads without whitespace scans), then
    by cls.check; each field read by its (name, default, types, read, memo)
    rule, then swapped for the first equal value in memo where that is a
    dict."""
    # Built as unpickling builds an object, without a frozen __init__'s
    # object.__setattr__ per field: the check runs below.
    row = object.__new__(cls)
    values = row.__dict__
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
                types = " or ".join(k.__name__ for k in kinds)
                raise ParseError(f"{name} must be {types}, got {value!r}")
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
    _validate(row)
    return row if names is None else tuple(getattr(row, n) for n in names)


def _read_jsonl(path, cls, names=None) -> Iterator[tuple[int, object]]:
    """(1-based line number, value) for each non-blank line of a JSONL
    file of rows of class cls, in file order, each line checked by
    cls.check. The value is the row, or with a tuple of field names, the
    tuple of those fields' values. Errors name the file and the line."""
    read, memos = _fields_reader(cls, names)()
    rules = [(name, default, kinds, conv, memos.get(name))
             for name, default, kinds, conv, _ in _field_rules(cls)]
    # Read as bytes and decoded line by line: a text-mode file decodes ahead
    # in chunks, so its UnicodeDecodeError could not name the line.
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                line = data.decode("utf-8").strip()
                if not line:
                    continue
                value = read(line)
                if value is None:
                    value = _decoded(line, cls, rules, names)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            yield lineno, value


# json.dumps(row, ensure_ascii=False, sort_keys=True), an enum as its value
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                                default=attrgetter("value"))


def row_to_json(row) -> str:
    """A row as one JSONL line, without the newline."""
    return _ROW_ENCODER.encode(vars(row))


def repeated_id(path, lineno: int, cls, key, what: str) -> ParseError:
    """The error for the row on line lineno of path whose id, the first
    field of cls, an earlier row holds, naming both lines and what the id
    is of. The earlier line is found by reading the ids again, so a reader
    need keep no line numbers."""
    ids = _read_jsonl(path, cls, (fields(cls)[0].name,))
    first = next(n for n, (k,) in ids if k == key)
    return ParseError(f"{path}:{lineno}: duplicate {what} id {key!r}, "
                      f"first on line {first}")


def iter_records(path, names=None) -> Iterator:
    """Stream a JSONL records file, each line checked: each record, or with
    a tuple of field names that starts with "id", each record's values of
    those fields. Ids are unique: a repeat is a ParseError naming both
    lines."""
    seen = set()  # ids alone: a repeat's first line is found by a reread
    for lineno, rec in _read_jsonl(path, ArticleRecord, names):
        rec_id = rec.id if names is None else rec[0]
        if rec_id in seen:
            raise repeated_id(path, lineno, ArticleRecord, rec_id, "record")
        seen.add(rec_id)
        yield rec


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


def load_verdicts(path) -> dict[str, bool]:
    """Article id -> whether its last detection is OA, read off each line's
    id and verdict: no detection is built."""
    oa = Verdict.OA
    return {article_id: verdict is oa for _, (article_id, verdict)
            in _read_jsonl(path, DetectionEvidence, ("article_id", "verdict"))}
