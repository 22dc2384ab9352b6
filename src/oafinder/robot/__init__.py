"""Web robot that hunts for open-access full texts of bibliographic records."""

from .crawl import (
    CrawlConfig,
    CrawlObserver,
    DetectionError,
    FetchResult,
    detect_oa,
    format_query,
)
from .extract import (
    ConverterUnavailableError,
    ExternalConverter,
    ExtractionError,
    extract_text,
    parse_html,
)
from .match import (
    MatchVerdict,
    NotFoundReason,
    extract_candidate_links,
    match_full_text,
)
from .urls import (
    UrlError,
    dedup_urls,
    filter_irrelevant_links,
    host_of,
    normalize_url,
    prioritize_urls,
)

__all__ = [
    "CrawlConfig", "CrawlObserver", "DetectionError", "FetchResult",
    "format_query", "detect_oa",
    "ConverterUnavailableError", "ExternalConverter", "ExtractionError",
    "extract_text", "parse_html",
    "MatchVerdict", "NotFoundReason", "extract_candidate_links",
    "match_full_text", "UrlError", "dedup_urls", "filter_irrelevant_links",
    "host_of", "normalize_url", "prioritize_urls",
]
