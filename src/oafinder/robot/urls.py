"""URL canonicalization, and the order in which the robot fetches a list of
URLs: canonical, each once, blocked hosts dropped, PDF/PS first.

A URL already in canonical form, with or without a fragment, is recognized
by one pattern and never parsed; every other URL goes through urllib.parse.
"""

from __future__ import annotations

import posixpath
import re
from urllib.parse import urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}
_PCT_RE = re.compile(r"%[0-9a-fA-F]{2}")

# A path of non-empty segments, none "." or "..", with an optional trailing
# slash, then an optional non-empty query. Neither part holds "%", "#",
# whitespace or anything else outside RFC 3986's characters; ";" is kept out
# of the path because urljoin splits it off as a parameter.
_SEGMENT = r"/(?!\.\.?(?:[/?]|\Z))[A-Za-z0-9._~!$&'()*+,=:@-]+"
_PATH_QUERY = (rf"(?P<path>(?:{_SEGMENT})*/?)"
               r"(?:\?[A-Za-z0-9._~!$&'()*+,;=:@/?-]+)?\Z")
# An absolute URL that _canonicalize returns unchanged when its path is not
# empty: lower-case http(s), a lower-case ASCII host with no userinfo or
# port, and no fragment. urlsplit reads its host and path as these groups.
_CANONICAL_RE = re.compile(
    r"(?P<scheme>https?)://(?P<host>[a-z0-9-]+(?:\.[a-z0-9-]+)*)" + _PATH_QUERY)
# A root-relative href ("/...", not "//") that urljoin appends to the
# scheme and host of a canonical base as it is.
_ROOT_RELATIVE_RE = re.compile(r"(?=/)" + _PATH_QUERY)
# A URL up to the "[" of a bracketed host that is an IPvFuture literal with
# an upper-case "v"; the lookahead keeps it to the bracket after the netloc's
# last "@". RFC 3986 makes the "v" case-insensitive; urlsplit accepts only a
# lower-case one.
_UPPER_IPVFUTURE_RE = re.compile(
    r"\A([^:/?#]*://(?:[^/?#]*@)?\[)V(?![^/?#]*@)")

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
    is a UrlError. A URL already in canonical form is recognized by one
    pattern and returned as it is; so is a canonical URL plus a fragment,
    returned without its fragment.
    """
    # urlsplit splits the fragment off at the first "#" before it parses.
    prefix = url.partition("#")[0]
    m = _CANONICAL_RE.match(prefix)
    if m is not None and m.group("path"):
        return prefix
    return _canonicalize(url)


def _canonicalize(url: str) -> str:
    """normalize_url through urllib.parse alone, for any URL."""
    try:
        parts = urlsplit(_UPPER_IPVFUTURE_RE.sub(r"\1v", url))
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
    if parts.netloc.rpartition("@")[2].startswith("["):  # IPv6 or IPvFuture
        netloc = f"[{netloc}]"
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


def url_extension(url: str) -> str:
    m = _CANONICAL_RE.match(url)
    path = m.group("path") if m is not None else urlsplit(url).path
    return posixpath.splitext(path)[1].lower()


def join_url(base: str, href: str) -> str:
    """urljoin(base, href). Against a canonical base, a canonical href or a
    plain root-relative one is joined without parsing."""
    m = _CANONICAL_RE.match(base)
    if m is not None:
        if _CANONICAL_RE.match(href) is not None:
            return href
        if _ROOT_RELATIVE_RE.match(href) is not None:
            return f"{m.group('scheme')}://{m.group('host')}{href}"
    return urljoin(base, href)


def host_of(url: str) -> str:
    m = _CANONICAL_RE.match(url)
    if m is not None:
        return m.group("host")
    return (urlsplit(url).hostname or "").lower()


def crawl_order(urls: list[str], blocklist=()) -> list[str]:
    """The URLs in the order the robot fetches them, each in canonical form.

    Unparseable URLs are dropped, and so is every occurrence of a canonical
    URL after its first. So is a URL whose host matches a blocklist pattern
    (a provider's own navigation/ad/redirect hosts) exactly or as a parent
    domain. Probable full-texts (.pdf/.ps paths) come first; input order is
    kept within each part.
    """
    patterns = [p.lower().lstrip(".") for p in blocklist]
    seen = set()
    first, rest = [], []
    for url in urls:
        try:
            canon = normalize_url(url)
        except UrlError:
            continue
        if canon in seen:
            continue
        seen.add(canon)
        host = host_of(canon)
        if any(host == p or host.endswith("." + p) for p in patterns):
            continue
        ext = url_extension(canon)
        (first if ext in FULLTEXT_EXTENSIONS else rest).append(canon)
    return first + rest
