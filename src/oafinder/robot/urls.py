"""URL canonicalization, deduplication, blocklist filtering and the
PDF/PS-first priority ordering applied to search results.
"""

from __future__ import annotations

import posixpath
import re
from urllib.parse import urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}
_PCT_RE = re.compile(r"%[0-9a-fA-F]{2}")

FULLTEXT_EXTENSIONS = (".pdf", ".ps")


class UrlError(ValueError):
    pass


def _upper_pct(match: re.Match) -> str:
    return match.group(0).upper()


def normalize_url(url: str) -> str:
    """Canonical form: lowercase scheme/host, default port and fragment
    stripped, dot-segments resolved, percent-encodings uppercased.

    Query string is preserved as-is, parameter order included (reordering
    can change semantics on some hosts). Idempotent. A URL urlsplit cannot
    read (an unclosed IPv6 bracket, a port that is not a number in range)
    is a UrlError.
    """
    try:
        parts = urlsplit(url)
        port = parts.port
    except ValueError as exc:
        raise UrlError(f"unparseable URL {url!r}: {exc}") from exc
    if not parts.scheme or not parts.netloc:
        raise UrlError(f"not an absolute URL: {url!r}")
    scheme = parts.scheme.lower()
    host = parts.hostname
    if host is None:
        raise UrlError(f"URL has no host: {url!r}")
    netloc = host.lower()
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        netloc = f"{netloc}:{port}"
    if parts.username:
        cred = parts.username
        if parts.password:
            cred += f":{parts.password}"
        netloc = f"{cred}@{netloc}"
    path = parts.path or "/"
    path = posixpath.normpath(path)
    if path == ".":
        path = "/"
    if parts.path.endswith("/") and not path.endswith("/"):
        path += "/"
    path = _PCT_RE.sub(_upper_pct, path)
    query = _PCT_RE.sub(_upper_pct, parts.query)
    return urlunsplit((scheme, netloc, path, query, ""))


def dedup_urls(urls: list[str]) -> list[str]:
    """Keep the first occurrence of each URL, equality after normalization.

    Output URLs are the canonical forms; order of first occurrence preserved.
    Unparseable URLs are dropped.
    """
    seen = set()
    out = []
    for url in urls:
        try:
            canon = normalize_url(url)
        except UrlError:
            continue
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def url_extension(url: str) -> str:
    path = urlsplit(url).path
    return posixpath.splitext(path)[1].lower()


def prioritize_urls(urls: list[str]) -> list[str]:
    """Stable partition with probable full-texts (.pdf/.ps paths) first.
    Unparseable URLs are dropped."""
    first, rest = [], []
    for u in urls:
        try:
            ext = url_extension(u)
        except ValueError:
            continue
        (first if ext in FULLTEXT_EXTENSIONS else rest).append(u)
    return first + rest


def host_of(url: str) -> str:
    return (urlsplit(url).hostname or "").lower()


def filter_irrelevant_links(urls: list[str], blocklist) -> list[str]:
    """Drop URLs whose host matches a blocklist pattern (a provider's own
    navigation/ad/redirect hosts); survivor order preserved.

    A pattern matches the host exactly or as a parent domain suffix.
    Unparseable URLs are dropped.
    """
    patterns = [p.lower().lstrip(".") for p in blocklist]
    out = []
    for url in urls:
        try:
            host = host_of(url)
        except ValueError:
            continue
        if not any(host == p or host.endswith("." + p) for p in patterns):
            out.append(url)
    return out
