"""The detection robot: query construction, one search, breadth-first
depth-limited link following, and the OA/NOA verdict for one article.

The crawl is deterministic: frontier order is (priority, discovery order)
within each depth level, a visited set over canonical URLs guarantees each
URL is fetched at most once, and the first full-text hit in that order wins.

The search provider and the fetcher are passed in (see ``SearchProvider``
and ``Fetcher``); the mock web in ``oafinder.corpus`` implements both.
Every URL handed to the fetcher is canonical, and a fetched page is text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..records import ArticleRecord, DetectionEvidence, Verdict
from . import urls as urlmod
from .extract import ExternalConverter, ExtractionError, extract_text
from .match import NotFoundReason, extract_candidate_links, match_full_text


@dataclass(frozen=True)
class FetchResult:
    status: int
    format_tag: str
    text: str

    @property
    def ok(self) -> bool:
        return self.status == 200


class SearchProvider(Protocol):
    blocklist: tuple[str, ...]

    def query(self, author: str, title: str) -> list[str]: ...


class Fetcher(Protocol):
    def fetch(self, url: str) -> FetchResult:
        """The page at url, which is in canonical form."""


# The most landing pages the crawl follows from a search result to a full
# text. Ground truth counts a full text OA iff it is planted within it.
MAX_DEPTH = 3


def format_query(surname: str, title: str) -> str:
    """Search query: bare surname plus the exact title as a quoted phrase."""
    title = title.replace("\\", "\\\\").replace('"', '\\"')
    title = " ".join(title.split())
    surname = " ".join(surname.split())
    return f'{surname} "{title}"'


def detect_oa(record: ArticleRecord, provider: SearchProvider,
              fetcher: Fetcher, *, max_depth: int = MAX_DEPTH,
              converter: Optional[ExternalConverter] = None,
              ) -> DetectionEvidence:
    """Classify one article OA or NOA with evidence.

    Breadth-first over search results and candidate links, PDF/PS-first
    within each page's contribution, visited set on canonical URLs, depth
    capped at max_depth. An empty provider response yields
    NOA{EXHAUSTED}.
    """
    results = provider.query(record.first_author_surname, record.title)
    frontier = [(url, 0) for url in
                urlmod.crawl_order(results, provider.blocklist)]
    visited: set[str] = set()
    max_depth_seen = 0
    low_confidence = False

    idx = 0
    while idx < len(frontier):
        url, depth = frontier[idx]
        idx += 1
        if url in visited:
            continue
        visited.add(url)
        max_depth_seen = max(max_depth_seen, depth)

        result = fetcher.fetch(url)
        if not result.ok:
            continue
        try:
            text, anchors = extract_text(result.text, result.format_tag,
                                         converter)
        except ExtractionError:
            continue

        verdict = match_full_text(text, record)
        low_confidence = low_confidence or verdict.low_confidence
        if verdict.found:
            return DetectionEvidence(
                article_id=record.id, verdict=Verdict.OA, url=url,
                match_head_offset=verdict.head_offset,
                match_tail_marker=verdict.tail_evidence,
                depth=depth, low_confidence=low_confidence)
        # Title present but no full text: follow the page's links.
        if verdict.title_seen and depth < max_depth:
            links = urlmod.crawl_order(
                extract_candidate_links(anchors, url, record))
            frontier.extend(
                (link, depth + 1) for link in links if link not in visited)

    return DetectionEvidence(
        article_id=record.id, verdict=Verdict.NOA,
        reason=NotFoundReason.EXHAUSTED.value, depth=max_depth_seen,
        low_confidence=low_confidence)
