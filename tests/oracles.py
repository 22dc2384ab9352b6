"""Oracles the tests hold the program to, kept apart from the code they
check.

From oafinder they import only the mock web's contract: the crawl's depth
cut-off MAX_DEPTH and the search key format_query. Pages are read by
html.parser and URLs by urllib.parse, not by the robot's scanner or its
canonical-URL code, so a fault there cannot read as agreement.
"""

import math
from collections import deque
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit, urlunsplit

from oafinder.robot.crawl import MAX_DEPTH, format_query


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails. NormalDist.cdf
    computes 1 + erf, which reads 0.0 from x = -8.5 down."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class _Hrefs(HTMLParser):
    """The non-empty href of each <a> start tag, in document order."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            href = dict(attrs).get("href")
            if href:
                self.hrefs.append(href)


def _hrefs(html: str) -> list[str]:
    parser = _Hrefs()
    parser.feed(html)
    parser.close()
    return parser.hrefs


def _page_key(url: str):
    """The mock web's key for url: its fragment dropped, its scheme and host
    lower-cased; None when urllib cannot read it."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(),
                       parts.path, parts.query, ""))


def reachable_within_depth(web, record, target: str,
                           max_depth: int = MAX_DEPTH) -> bool:
    """Exhaustive breadth-first check: follow every anchor of every HTML
    page (no candidate heuristics, no caps, no blocklist) from record's
    search results, and report whether the page at target, the web.pages
    key where the full text was planted, is reached within max_depth. No
    page's text is judged, so no matcher error leaks in, and "" is never
    reached."""
    start = web.queries.get(format_query(record.first_author_surname,
                                         record.title), [])
    frontier = deque((url, 0) for url in start)
    seen: set[str] = set()
    while frontier:
        url, depth = frontier.popleft()
        key = _page_key(url)
        if key is None or key in seen:
            continue
        seen.add(key)
        page = web.pages.get(key)
        if page is None:
            continue
        if key == target:
            return True
        fmt, text = page
        if fmt in ("html", "xml") and depth < max_depth:
            for href in _hrefs(text):
                try:
                    frontier.append((urljoin(key, href), depth + 1))
                except ValueError:
                    continue
    return False
