"""Full-text matching: decides whether extracted text is the full text of a
given article (title and author in the head of the document, a references
section in the tail), and picks out candidate links worth following from
HTML pages that mention the title without carrying the full text.

Per page, the head is tokenized in one findall pass and the title is first
searched for as an exact token sequence; difflib scores windows only when
it does not occur. A record's title and surname tokens are computed once per
article and reused for each of its pages.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from functools import lru_cache
from itertools import islice
from typing import Optional

from .urls import FULLTEXT_EXTENSIONS, join_url, url_extension

REFERENCE_HEADINGS = ("references", "bibliography", "works cited",
                      "literature cited")
FULLTEXT_ANCHOR_PHRASES = ("full text", "fulltext", "pdf", "download",
                           "postscript")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The rest of a token that starts before pos and runs on past it.
_TOKEN_REST_RE = re.compile(r"(?<=[^\W_])[^\W_]+", re.UNICODE)
_ANCHOR_PHRASE_RE = re.compile("|".join(map(re.escape,
                                              FULLTEXT_ANCHOR_PHRASES)))
_YEAR_PAREN_RE = re.compile(r"\(\s*(1[6-9]\d{2}|20\d{2})\s*\)")
_BRACKET_NUM_RE = re.compile(r"^\s*\[\d+\]")

MIN_CONFIDENT_TITLE_TOKENS = 3
MIN_CITATION_LINES = 3


class NotFoundReason(enum.Enum):
    NO_TITLE_MATCH = "NO_TITLE_MATCH"
    NO_REFERENCES_SECTION = "NO_REFERENCES_SECTION"
    EMPTY_TEXT = "EMPTY_TEXT"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class MatchVerdict:
    found: bool
    reason: Optional[NotFoundReason] = None
    head_offset: Optional[int] = None  # char offset of title match in the text
    tail_evidence: Optional[str] = None
    low_confidence: bool = False
    # title anywhere in the text; link following keys on this weaker test
    title_seen: bool = False


def tokenize(text: str) -> list[str]:
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def tokenize_with_offsets(text: str, end: int) -> list[str]:
    """The lower-cased tokens of text that start before char offset end, in
    text order, each whole: a token the end falls inside is completed.

    One findall pass, with each token lower-cased on its own (lower-casing
    the text could change its length and so move the offsets). Offsets are
    not built up front, since a page needs at most one of them:
    ``_token_offset`` recovers the char offset of any token in the list.
    (The name is the span the benchmark counts as ``match.tokenize_calls``.)
    """
    raw = _TOKEN_RE.findall(text, 0, end)
    cut = _TOKEN_REST_RE.match(text, end)
    if cut is not None:
        raw[-1] += cut.group()
    return list(map(str.lower, raw))


def _token_offset(text: str, index: int) -> int:
    """Char offset in text of its token number ``index``."""
    return next(islice(_TOKEN_RE.finditer(text), index, None)).start()


# The robot crawls one article at a time, so a few entries cover it. A large
# cache is no faster and keeps its entries alive across the allocator's
# arenas: 256 entries raised the peak RSS of a detect-and-report run on
# 6,000 records from 33.5 to 35.2 MB.
@lru_cache(maxsize=8)
def _article_terms(title: str, surname: str
                   ) -> tuple[tuple[str, ...], frozenset[str], frozenset[str]]:
    """(title tokens, their set, surname token set), computed once per
    article rather than once per page."""
    title_tokens = tuple(tokenize(title))
    return title_tokens, frozenset(title_tokens), frozenset(tokenize(surname))


def _best_title_match(title_tokens, doc_tokens, threshold):
    """Best fuzzy occurrence of the title token sequence in doc_tokens;
    (index of its first token, score). A title with no tokens occurs
    nowhere.

    The first exact occurrence, found by one substring search, is the
    best: difflib scores windows only when there is none.
    """
    width = len(title_tokens)
    if not doc_tokens or width < 1:
        return None, 0.0
    target = " ".join(title_tokens)
    # Tokens hold no spaces, so a space-delimited hit is a token window.
    padded = f" {' '.join(doc_tokens)} "
    hit = padded.find(f" {target} ")
    if hit >= 0:
        return padded.count(" ", 0, hit), 1.0
    best = (None, 0.0)
    for start in range(0, max(1, len(doc_tokens) - width + 1)):
        cand = " ".join(doc_tokens[start:start + width])
        # cheap length screen before the quadratic ratio
        if abs(len(cand) - len(target)) > (1.0 - threshold) * 2 * len(target):
            continue
        score = SequenceMatcher(None, cand, target).ratio()
        if score > best[1]:
            best = (start, score)
    return best


def _has_references_tail(tail: str) -> Optional[str]:
    low = tail.lower()
    for heading in REFERENCE_HEADINGS:
        if heading in low:
            return f"heading:{heading}"
    n_cites = 0
    for line in tail.splitlines():
        if _BRACKET_NUM_RE.match(line) or _YEAR_PAREN_RE.search(line):
            n_cites += 1
            if n_cites >= MIN_CITATION_LINES:
                return f"citation-lines:{n_cites}"
    return None


def match_full_text(text: str, record, *, title_similarity_threshold=0.90,
                    head_fraction=0.20, tail_fraction=0.20) -> MatchVerdict:
    """Decide whether ``text`` is the full text of ``record``.

    Found iff the title occurs (edit similarity >= threshold, after
    normalization) together with the author surname within the first
    head_fraction of the characters, and the last tail_fraction contains a
    references section (a known heading, or >= 3 citation-like lines).
    """
    if not text.strip():
        return MatchVerdict(False, NotFoundReason.EMPTY_TEXT)

    title_tokens, _, surname_tokens = _article_terms(
        record.title, record.first_author_surname)
    low_confidence = len(title_tokens) < MIN_CONFIDENT_TITLE_TOKENS
    head_len = max(1, int(len(text) * head_fraction))
    head_tokens = tokenize_with_offsets(text, head_len)
    index, score = _best_title_match(title_tokens, head_tokens,
                                     title_similarity_threshold)
    if (index is None or score < title_similarity_threshold
            or not surname_tokens or not surname_tokens.issubset(head_tokens)):
        # a landing page can mention the title outside the head window
        _, score = _best_title_match(title_tokens, tokenize(text),
                                     title_similarity_threshold)
        return MatchVerdict(False, NotFoundReason.NO_TITLE_MATCH,
                            low_confidence=low_confidence,
                            title_seen=score >= title_similarity_threshold)

    offset = _token_offset(text, index)
    tail = text[len(text) - max(1, int(len(text) * tail_fraction)):]
    evidence = _has_references_tail(tail)
    if evidence is None:
        return MatchVerdict(False, NotFoundReason.NO_REFERENCES_SECTION,
                            head_offset=offset, low_confidence=low_confidence,
                            title_seen=True)
    return MatchVerdict(True, head_offset=offset, tail_evidence=evidence,
                        low_confidence=low_confidence, title_seen=True)


def extract_candidate_links(anchors, base_url: str, record, *,
                            max_links: int = 20) -> list[str]:
    """Absolute URLs of anchors plausibly leading to the full text.

    An anchor qualifies when its text or URL shares >= 2 title tokens, its
    URL ends in .pdf/.ps, or its text names a full-text action ("full text",
    "pdf", "download", "postscript"). ``anchors`` are the (href, anchor
    text) pairs ``extract_text`` returns. Document order, capped at max_links.
    An href urljoin cannot read is dropped.
    """
    _, title_tokens, _ = _article_terms(record.title,
                                        record.first_author_surname)
    out = []
    for href, anchor_text in anchors:
        if len(out) >= max_links:
            break
        try:
            url = join_url(base_url, href)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            continue
        text_tokens = tokenize(anchor_text)
        # the tests on the anchor text first: they are the cheaper ones
        if (_ANCHOR_PHRASE_RE.search(" ".join(text_tokens))
                or len(title_tokens.intersection(text_tokens)) >= 2
                or len(title_tokens.intersection(tokenize(url))) >= 2
                or url_extension(url) in FULLTEXT_EXTENSIONS):
            out.append(url)
    return out
