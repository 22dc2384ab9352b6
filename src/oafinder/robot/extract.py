"""Document-to-text extraction.

HTML/XML are linearized in-process (tags stripped, scripts and styles
dropped, anchor targets kept separately for link following). A page is
scanned in one regex pass over text runs and start/end tags; a page with
markup outside that grammar (comments, declarations, processing
instructions, script/style raw text, a stray ``<``) is parsed whole by
html.parser instead, which gives the same result for in-grammar pages and
serves as the reference the scanner is tested against. Plain text passes
through; every other format (PDF, PS, RTF, Word, LaTeX) goes through a
pluggable external converter command. With no converter configured those
formats yield a distinct CONVERTER_UNAVAILABLE error.
"""

from __future__ import annotations

import re
import subprocess
import tempfile
from html import unescape
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional

HTML_FORMATS = {"html", "xml"}
TEXT_FORMATS = {"text", "txt", "plain"}
CONVERTER_FORMATS = {"pdf", "ps", "rtf", "doc", "word", "latex", "tex"}
CONVERTER_TIMEOUT_S = 30.0

EXTENSION_FORMATS = {
    ".html": "html", ".htm": "html", ".xml": "xml",
    ".txt": "text", ".text": "text",
    ".pdf": "pdf", ".ps": "ps", ".rtf": "rtf", ".doc": "doc",
    ".tex": "latex",
}


class ExtractionError(ValueError):
    pass


class ConverterUnavailableError(ExtractionError):
    """Format needs the external converter and none is configured."""


class _TextAndLinks(HTMLParser):
    """The html.parser reading of a page: the fallback for markup the
    scanner does not model and the reference it is tested against."""

    _SKIP = {"script", "style", "noscript"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks: list[str] = []
        self.anchors: list[tuple[str, str]] = []  # (href, anchor text)
        self._skip_depth = 0
        self._anchor_href: Optional[str] = None
        self._anchor_text: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        elif tag == "a":
            href = dict(attrs).get("href")
            if href:
                self._anchor_href = href
                self._anchor_text = []
        elif tag in ("p", "br", "div", "li", "tr", "h1", "h2", "h3", "h4"):
            self.chunks.append("\n")

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag == "a" and self._anchor_href is not None:
            self.anchors.append((self._anchor_href, "".join(self._anchor_text)))
            self._anchor_href = None
        elif tag in ("p", "div", "li", "tr", "h1", "h2", "h3", "h4"):
            self.chunks.append("\n")

    def handle_data(self, data):
        if self._skip_depth:
            return
        self.chunks.append(data)
        if self._anchor_href is not None:
            self._anchor_text.append(data)


def _collapse(text: str) -> str:
    """Strip each line and collapse runs of blank lines left by block tags."""
    lines = [ln.strip() for ln in text.splitlines()]
    out = []
    for ln in lines:
        if ln or (out and out[-1]):
            out.append(ln)
    return "\n".join(out).strip()


def _parse_html_reference(html: str) -> tuple[str, list[tuple[str, str]]]:
    """parse_html's result computed by html.parser."""
    parser = _TextAndLinks()
    parser.feed(html)
    parser.close()
    return _collapse("".join(parser.chunks)), parser.anchors


# The scanner's grammar. Whitespace is the ASCII set html.parser ends a tag
# name on; names and unquoted values are narrower than html.parser accepts,
# so that wherever a token matches, html.parser reads the same token.
_WS = r"[ \t\n\r\f]"
# One attribute: (name, "=value" part, value with its quotes). Every group
# in it is capturing, so that _TOKEN_RE can embed it with none.
_ATTR = (r"{ws}+([a-zA-Z_:][-.a-zA-Z0-9_:]*)"
         r"""({ws}*={ws}*("[^">]*"|'[^'>]*'|[^\s"'=<>`]+))?""").format(ws=_WS)
_ATTR_RE = re.compile(_ATTR)
_TOKEN_RE = re.compile(
    r"([^<]+)"                                  # 1 text run
    r"|<([a-zA-Z][a-zA-Z0-9]*)"                 # 2 start tag name
    r"((?:{attr})*){ws}*(/?)>"                  # 3 attributes, 4 "/"
    r"|</([a-zA-Z][a-zA-Z0-9]*){ws}*>"          # 5 end tag name
    r"|(<)"                                     # 6 anything else
    .format(attr=_ATTR.replace("(", "(?:"), ws=_WS))
# Start tags after which html.parser stops reading markup (script, style,
# and whatever else the running Python's html.parser treats as raw text).
_RAW_TEXT = frozenset(HTMLParser.CDATA_CONTENT_ELEMENTS).union(
    getattr(HTMLParser, "RCDATA_CONTENT_ELEMENTS", ()))
# The tags _TextAndLinks acts on, restated so the scanner stays independent
# of the reference it is tested against.
_SKIP = frozenset({"script", "style", "noscript"})
_BLOCK_END = frozenset({"p", "div", "li", "tr", "h1", "h2", "h3", "h4"})
_BLOCK_START = _BLOCK_END | {"br"}


def _href(attrs: str) -> Optional[str]:
    """The last href of a start tag's attributes, as html.parser gives it."""
    href = None
    for name, _, value in _ATTR_RE.findall(attrs):
        if name.lower() == "href":
            href = value[1:-1] if value[:1] in ("'", '"') else value
    return href and unescape(href)


def parse_html(html: str) -> tuple[str, list[tuple[str, str]]]:
    """Linearized text plus the (href, anchor text) pairs in document order."""
    chunks: list[str] = []
    anchors: list[tuple[str, str]] = []
    skip_depth = 0
    anchor_href: Optional[str] = None
    anchor_text: list[str] = []
    for text, start, attrs, slash, end, other in _TOKEN_RE.findall(html):
        if text:
            if not skip_depth:
                text = unescape(text)
                chunks.append(text)
                if anchor_href is not None:
                    anchor_text.append(text)
            continue
        if start:
            tag = start.lower()
            if tag in _RAW_TEXT:
                return _parse_html_reference(html)
            if tag in _SKIP:
                skip_depth += 1
            elif tag == "a":
                href = _href(attrs)
                if href:
                    anchor_href = href
                    anchor_text = []
            elif tag in _BLOCK_START:
                chunks.append("\n")
            if not slash:
                continue
            end = tag
        elif other:
            return _parse_html_reference(html)
        tag = end.lower()
        if tag in _SKIP and skip_depth > 0:
            skip_depth -= 1
        elif tag == "a" and anchor_href is not None:
            anchors.append((anchor_href, "".join(anchor_text)))
            anchor_href = None
        elif tag in _BLOCK_END:
            chunks.append("\n")
    return _collapse("".join(chunks)), anchors


class ExternalConverter:
    """Runs a configured command template to turn document bytes into text.

    The template gets the input written to a temp file substituted for
    ``{in}`` (and ``{format}`` for the format tag); the command must print
    UTF-8 text on stdout and exit 0. A template that names any other field,
    or does not parse as a format string, is a ValueError here, before any
    document needs it.
    """

    def __init__(self, command_template: str):
        try:
            command_template.format(**{"in": "in", "format": "pdf"})
        except (KeyError, IndexError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"bad command template {command_template!r} "
                f"({type(exc).__name__}: {exc}); it may use {{in}} and "
                f"{{format}}") from exc
        self.command_template = command_template

    def convert(self, data: bytes, format_tag: str) -> str:
        with tempfile.NamedTemporaryFile(suffix=f".{format_tag}", delete=False) as tf:
            tf.write(data)
            tmp = tf.name
        try:
            cmd = self.command_template.format(**{"in": tmp, "format": format_tag})
            try:
                proc = subprocess.run(
                    cmd, shell=True, capture_output=True, timeout=CONVERTER_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise ExtractionError(
                    f"converter timed out after {CONVERTER_TIMEOUT_S}s") from exc
            if proc.returncode != 0:
                raise ExtractionError(
                    f"converter failed (exit {proc.returncode}): "
                    f"{proc.stderr.decode('utf-8', 'replace')[:200]}")
            return proc.stdout.decode("utf-8", errors="replace")
        finally:
            Path(tmp).unlink(missing_ok=True)


def extract_text(data: bytes, format_tag: str,
                 converter: Optional[ExternalConverter] = None,
                 ) -> tuple[str, list[tuple[str, str]]]:
    """Text and (href, anchor text) pairs for a fetched document; only
    HTML/XML have anchors. See module docstring for routing."""
    tag = format_tag.lower()
    if tag in TEXT_FORMATS:
        try:
            return data.decode("utf-8"), []
        except UnicodeDecodeError as exc:
            raise ExtractionError(f"undecodable text bytes: {exc}") from exc
    if tag in HTML_FORMATS:
        return parse_html(data.decode("utf-8", errors="replace"))
    if tag in CONVERTER_FORMATS:
        if converter is None:
            raise ConverterUnavailableError(
                f"CONVERTER_UNAVAILABLE: no external converter configured "
                f"for format {tag!r}")
        return converter.convert(data, tag), []
    raise ExtractionError(f"unknown format tag {format_tag!r}")
