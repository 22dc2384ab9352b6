"""Full-text matching: decides whether extracted text is the full text of a
given article (title and author in the head of the document, a references
section in the tail), and picks out candidate links worth following from
HTML pages that mention the title without carrying the full text.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterator, Optional

from .urls import FULLTEXT_EXTENSIONS, join_url, url_extension

REFERENCE_HEADINGS = ("references", "bibliography", "works cited",
                      "literature cited")
FULLTEXT_ANCHOR_PHRASES = ("full text", "fulltext", "pdf", "download",
                           "postscript")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
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
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def tokenize_with_offsets(text: str) -> Iterator[tuple[str, int]]:
    """(lowercased token, char offset) pairs in text order, produced lazily
    so a caller can stop reading where its window ends."""
    return ((m.group(0).lower(), m.start()) for m in _TOKEN_RE.finditer(text))


def _best_title_match(title_tokens, doc_tokens, threshold):
    """Best fuzzy occurrence of the title token sequence; (offset, score).
    A title with no tokens occurs nowhere."""
    target = " ".join(title_tokens)
    width = len(title_tokens)
    best = (None, 0.0)
    n = len(doc_tokens)
    if n < 1 or width < 1:
        return best
    for start in range(0, max(1, n - width + 1)):
        window = doc_tokens[start:start + width]
        cand = " ".join(t for t, _ in window)
        # cheap length screen before the quadratic ratio
        if abs(len(cand) - len(target)) > (1.0 - threshold) * 2 * len(target):
            continue
        # ratio() of equal strings is 1.0; most windows that pass are exact
        score = (1.0 if cand == target
                 else SequenceMatcher(None, cand, target).ratio())
        if score > best[1]:
            best = (window[0][1], score)
            if score == 1.0:
                break
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

    title_tokens = tokenize(record.title)
    low_confidence = len(title_tokens) < MIN_CONFIDENT_TITLE_TOKENS
    head_len = max(1, int(len(text) * head_fraction))
    # Read tokens only up to the first one starting past the head; the rest
    # of the document is tokenized only if the whole-text search needs it.
    tokens = tokenize_with_offsets(text)
    head_tokens, past_head = [], []
    for tok in tokens:
        if tok[1] >= head_len:
            past_head.append(tok)
            break
        head_tokens.append(tok)

    offset, score = _best_title_match(title_tokens, head_tokens,
                                      title_similarity_threshold)
    surname_tokens = set(tokenize(record.first_author_surname))
    surname_in_head = surname_tokens and surname_tokens <= {t for t, _ in head_tokens}
    if offset is None or score < title_similarity_threshold or not surname_in_head:
        # a landing page can mention the title outside the head window
        doc_tokens = head_tokens + past_head + list(tokens)
        _, score = _best_title_match(title_tokens, doc_tokens,
                                     title_similarity_threshold)
        return MatchVerdict(False, NotFoundReason.NO_TITLE_MATCH,
                            low_confidence=low_confidence,
                            title_seen=score >= title_similarity_threshold)

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
    title_tokens = set(tokenize(record.title))
    out = []
    for href, anchor_text in anchors:
        if len(out) >= max_links:
            break
        try:
            url = join_url(base_url, href)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            continue
        text_tokens = tokenize(anchor_text)
        norm_text = " ".join(text_tokens)
        if (len(title_tokens.intersection(text_tokens)) >= 2
                or len(title_tokens.intersection(tokenize(url))) >= 2
                or url_extension(url) in FULLTEXT_EXTENSIONS
                or any(p in norm_text for p in FULLTEXT_ANCHOR_PHRASES)):
            out.append(url)
    return out
