"""Document-to-text extraction.

HTML/XML are linearized in-process (tags stripped, scripts and styles
dropped, anchor targets kept separately for link following); plain text
passes through; every other format (PDF, PS, RTF, Word, LaTeX) goes through
a pluggable external converter command. With no converter configured those
formats yield a distinct CONVERTER_UNAVAILABLE error.
"""

from __future__ import annotations

import subprocess
import tempfile
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


def parse_html(html: str) -> tuple[str, list[tuple[str, str]]]:
    """Linearized text plus the (href, anchor text) pairs in document order."""
    parser = _TextAndLinks()
    parser.feed(html)
    parser.close()
    text = "".join(parser.chunks)
    # collapse runs of blank lines left by block tags
    lines = [ln.strip() for ln in text.splitlines()]
    out = []
    for ln in lines:
        if ln or (out and out[-1]):
            out.append(ln)
    return "\n".join(out).strip(), parser.anchors


class ExternalConverter:
    """Runs a configured command template to turn document bytes into text.

    The template gets the input written to a temp file substituted for
    ``{in}`` (and ``{format}`` for the format tag); the command must print
    UTF-8 text on stdout and exit 0.
    """

    def __init__(self, command_template: str):
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
