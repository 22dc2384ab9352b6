"""Deterministic synthetic corpus and mock web.

Generates article records with ground-truth OA labels plus a navigable fake
website tree: real full texts the matcher accepts, abstract-only decoy
pages, link chains of configurable depth, dead links, and a query index
that stands in for the search engines. Everything is a pure function of
(spec, seed), so corpora are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional
from urllib.parse import urljoin

from .records import (
    ArticleRecord,
    DetectionEvidence,
    OAStatus,
    ParseError,
    Verdict,
    _read_jsonl,
    make_issue_key,
    save_records,
)
from .robot.crawl import CrawlConfig, FetchResult, format_query
from .robot.extract import EXTENSION_FORMATS, _parse_html_reference
from .robot.match import match_full_text
from .robot.urls import filter_irrelevant_links, host_of, normalize_url
from .stats import ConfusionMatrix, build_confusion_from_audit

AD_HOST = "ads.mock-search.example"
DEFAULT_BLOCKLIST = (AD_HOST,)

_SURNAMES = [
    "Archer", "Bellamy", "Cardoso", "Dietrich", "Egwu", "Fontaine", "Grieg",
    "Hoshino", "Ivanova", "Jansen", "Kaplan", "Lindqvist", "Moreau", "Novak",
    "Okafor", "Petrov", "Quintana", "Rossi", "Sandoval", "Takahashi",
    "Ueda", "Vasquez", "Weiss", "Xu", "Yilmaz", "Zager",
]
_TITLE_ADJ = ["comparative", "longitudinal", "structural", "empirical",
              "theoretical", "computational", "experimental", "dynamic"]
_TITLE_NOUN = ["analysis", "survey", "model", "framework", "study",
               "assessment", "perspective", "evaluation"]
_TITLE_TOPIC = ["market regulation", "cell signaling", "learning outcomes",
                "voter behavior", "risk perception", "network formation",
                "policy diffusion", "memory consolidation",
                "labor mobility", "species diversity"]
_COUNTRIES = ["US", "UK", "CA", "DE", "FR", "JP", "AU", "NL", "SE", "BR"]

_FILLER_SENTENCES = [
    "The sample was drawn from the standing panel and screened for "
    "eligibility before inclusion in the final pool.",
    "Measurements were repeated across three sessions to control for "
    "instrument drift and observer effects.",
    "Results remained stable under alternative specifications of the "
    "baseline model and the pruning rule.",
    "Prior work has documented comparable effects in adjacent settings, "
    "though with smaller and noisier estimates.",
    "We discuss limitations of the design and directions for subsequent "
    "data collection in the closing section.",
]


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusSpec:
    n_articles: int = 500
    disciplines: tuple[str, ...] = ("biology", "economics", "psychology")
    years: tuple[int, int] = (1992, 2003)  # inclusive
    oa_probability: object = 0.12  # scalar, or dict keyed "disc|year", "year", "disc"
    uncited_mass: float = 0.61
    mean_cited: float = 4.0
    oa_citation_multiplier: float = 1.0
    abstract_page_prob: float = 0.3  # among NOA articles
    dead_link_prob: float = 0.1  # among NOA articles
    chain_depth_distribution: tuple[tuple[int, float], ...] = (
        (0, 0.55), (1, 0.25), (2, 0.1), (3, 0.1))
    journals_per_discipline: int = 3
    issues_per_year: int = 2
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_articles", "journals_per_discipline", "issues_per_year"):
            v = getattr(self, name)
            if v < 1:
                raise CorpusError(f"{name} must be >= 1, got {v}")
        if len(self.years) != 2:
            raise CorpusError("years must be FIRST-LAST, got "
                              + "-".join(map(str, self.years)))
        if self.years[0] > self.years[1]:
            raise CorpusError("years range is empty")
        for name in ("uncited_mass", "abstract_page_prob", "dead_link_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise CorpusError(f"{name} must be in [0, 1], got {v}")
        oa = self.oa_probability
        for v in oa.values() if isinstance(oa, dict) else (oa,):
            if not 0.0 <= v <= 1.0:
                raise CorpusError(f"oa_probability must be in [0, 1], got {v}")
        for name in ("mean_cited", "oa_citation_multiplier"):
            v = getattr(self, name)
            if not v >= 0:
                raise CorpusError(f"{name} must be >= 0, got {v}")
        if any(p < 0 for _, p in self.chain_depth_distribution):
            raise CorpusError("chain_depth_distribution probabilities must be >= 0")
        total = sum(p for _, p in self.chain_depth_distribution)
        if abs(total - 1.0) > 1e-9:
            raise CorpusError("chain_depth_distribution must sum to 1")
        if any(d < 0 or d > 5 for d, _ in self.chain_depth_distribution):
            raise CorpusError("chain depths must be in 0..5")

    def oa_prob_for(self, discipline: str, year: int) -> float:
        p = self.oa_probability
        if isinstance(p, dict):
            for key in (f"{discipline}|{year}", str(year), discipline):
                if key in p:
                    return float(p[key])
            return float(p.get("default", 0.0))
        return float(p)


@dataclass
class MockWeb:
    pages: dict[str, tuple[str, bytes]] = field(default_factory=dict)  # url -> (format, bytes)
    queries: dict[str, list[str]] = field(default_factory=dict)
    dead_links: set[str] = field(default_factory=set)

    def hosts(self) -> set[str]:
        return {host_of(u) for u in self.pages} | {host_of(u) for u in self.dead_links}


@dataclass(frozen=True)
class GroundTruth:
    article_id: str
    oa: bool  # a full text is reachable within the crawl's max_depth
    kind: str  # fulltext / deep-chain / abstract-decoy / dead-link / offline
    chain_depth: int


@dataclass
class Corpus:
    spec: CorpusSpec
    records: list[ArticleRecord]
    ground_truth: dict[str, GroundTruth]
    web: MockWeb


class MockSearchProvider:
    """Directory-backed provider: exact query string to URL list."""

    blocklist = DEFAULT_BLOCKLIST

    def __init__(self, web: MockWeb):
        self.web = web

    def query(self, author: str, title: str) -> list[str]:
        return list(self.web.queries.get(format_query(author, title), []))


class MockFetcher:
    """Serves MockWeb content; dead or unknown URLs get a 404. No network."""

    def __init__(self, web: MockWeb):
        self.web = web

    def fetch(self, url: str) -> FetchResult:
        try:
            canon = normalize_url(url)
        except ValueError:
            return FetchResult(url, 400, "text", b"")
        page = self.web.pages.get(canon)
        if page is None:
            return FetchResult(url, 404, "text", b"")
        fmt, data = page
        return FetchResult(url, 200, fmt, data)


# ---------------------------------------------------------------------------
# Document builders
# ---------------------------------------------------------------------------

def _references_block(rng: random.Random, surname: str) -> str:
    lines = ["References", ""]
    for i in range(5):
        other = _SURNAMES[(rng.randrange(len(_SURNAMES)))]
        year = 1980 + rng.randrange(25)
        lines.append(f"[{i + 1}] {other}, {surname[:1]}. ({year}) "
                     f"On {_TITLE_TOPIC[rng.randrange(len(_TITLE_TOPIC))]}. "
                     f"Journal of Prior Work, {rng.randrange(1, 40)}.")
    return "\n".join(lines)


def _pad_sections(head: str, refs: str, rng: random.Random) -> str:
    """Assemble head + filler + refs so the head sits inside the first 20%
    of the characters and the references inside the last 20%."""
    filler: list[str] = []

    def doc() -> str:
        return head + "\n\n" + "\n".join(filler) + "\n\n" + refs

    while True:
        d = doc()
        total = len(d)
        if len(head) <= 0.18 * total and (total - len(refs)) >= 0.82 * total:
            return d
        filler.append(_FILLER_SENTENCES[rng.randrange(len(_FILLER_SENTENCES))])


def _fulltext_doc(record: ArticleRecord, rng: random.Random) -> str:
    head = (f"{record.title}\n\n{record.first_author_surname}, "
            f"Department of {record.discipline.title()}\n\nAbstract\n"
            f"We report results bearing on {record.title.lower()}.")
    return _pad_sections(head, _references_block(rng, record.first_author_surname), rng)


def _abstract_doc(record: ArticleRecord) -> str:
    return (f"<html><body><h1>{record.title}</h1>"
            f"<p>{record.first_author_surname} ({record.year})</p>"
            f"<p>Abstract only. The publisher restricts the full text of "
            f"this article to subscribers.</p>"
            f"<p><a href='/'>Home</a> <a href='/login'>Login</a></p>"
            f"</body></html>")


def _chain_doc(record: ArticleRecord, next_url: str, hop: int) -> str:
    return (f"<html><body><h1>{record.title}</h1>"
            f"<p>{record.first_author_surname} ({record.year})</p>"
            f"<p>Landing page {hop} for this record. The document itself is "
            f"hosted one step further.</p>"
            f"<p><a href='{next_url}'>Full Text</a></p>"
            f"<p><a href='/about'>About</a></p>"
            f"</body></html>")


def _html_fulltext(text: str) -> str:
    paras = "".join(f"<p>{p}</p>" for p in text.split("\n\n"))
    return f"<html><body>{paras}</body></html>"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _sample_depth(spec: CorpusSpec, rng: random.Random) -> int:
    u = rng.random()
    acc = 0.0
    for depth, p in spec.chain_depth_distribution:
        acc += p
        if u < acc:
            return depth
    return spec.chain_depth_distribution[-1][0]


def _sample_citations(spec: CorpusSpec, rng: random.Random, is_oa: bool) -> int:
    if rng.random() < spec.uncited_mass:
        return 0
    mean = spec.mean_cited * (spec.oa_citation_multiplier if is_oa else 1.0)
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    u = rng.random()
    return 1 + int(math.log(1.0 - u) / math.log(1.0 - p))


def _make_title(i: int, rng: random.Random) -> str:
    return (f"A {_TITLE_ADJ[rng.randrange(len(_TITLE_ADJ))]} "
            f"{_TITLE_NOUN[rng.randrange(len(_TITLE_NOUN))]} of "
            f"{_TITLE_TOPIC[rng.randrange(len(_TITLE_TOPIC))]} "
            f"cohort {i}")


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Build records, ground truth and the mock web; pure in (spec, seed)."""
    spec.validate()
    rng = random.Random(spec.seed)
    web = MockWeb()
    records: list[ArticleRecord] = []
    truth: dict[str, GroundTruth] = {}
    years = list(range(spec.years[0], spec.years[1] + 1))

    for i in range(spec.n_articles):
        art_id = f"a{i:06d}"
        discipline = spec.disciplines[rng.randrange(len(spec.disciplines))]
        journal_no = rng.randrange(spec.journals_per_discipline)
        journal_id = f"{discipline[:4]}-j{journal_no}"
        year = years[rng.randrange(len(years))]
        issue = 1 + rng.randrange(spec.issues_per_year)
        surname = _SURNAMES[rng.randrange(len(_SURNAMES))]
        title = _make_title(i, rng)
        country = _COUNTRIES[rng.randrange(len(_COUNTRIES))]

        intended_oa = rng.random() < spec.oa_prob_for(discipline, year)
        record = ArticleRecord(
            id=art_id,
            first_author_surname=surname,
            title=title,
            journal_id=journal_id,
            issue_key=make_issue_key(journal_id, year, issue),
            year=year,
            discipline=discipline,
            country=country,
            citation_count=_sample_citations(spec, rng, intended_oa),
            oa_status=OAStatus.UNKNOWN,
        )
        record.validate()
        records.append(record)

        host = f"www.{journal_id}.example"
        query = format_query(surname, title)
        ad_url = f"http://{AD_HOST}/click?id={art_id}"

        if intended_oa:
            depth = _sample_depth(spec, rng)
            as_html = rng.random() < 0.5
            text = _fulltext_doc(record, rng)
            if as_html:
                ft_url = f"http://{host}/{art_id}/fulltext.html"
                web.pages[ft_url] = ("html", _html_fulltext(text).encode())
            else:
                ft_url = f"http://{host}/{art_id}/fulltext.txt"
                web.pages[ft_url] = ("text", text.encode())
            if depth == 0:
                entry = ft_url
            else:
                next_url = ft_url
                for hop in range(depth - 1, -1, -1):
                    url = f"http://{host}/{art_id}/landing{hop}.html"
                    web.pages[url] = (
                        "html", _chain_doc(record, next_url, hop).encode())
                    next_url = url
                entry = next_url
            web.queries[query] = [entry, ad_url, entry + "#utm"]
            reachable = depth <= CrawlConfig.max_depth
            truth[art_id] = GroundTruth(
                art_id, oa=reachable,
                kind="fulltext" if reachable else "deep-chain",
                chain_depth=depth)
        else:
            u = rng.random()
            if u < spec.abstract_page_prob:
                url = f"http://{host}/{art_id}/abstract.html"
                web.pages[url] = ("html", _abstract_doc(record).encode())
                web.queries[query] = [url, ad_url]
                truth[art_id] = GroundTruth(art_id, False, "abstract-decoy", 0)
            elif u < spec.abstract_page_prob + spec.dead_link_prob:
                url = f"http://{host}/{art_id}/gone.pdf"
                web.dead_links.add(url)
                web.queries[query] = [url]
                truth[art_id] = GroundTruth(art_id, False, "dead-link", 0)
            else:
                web.queries[query] = []
                truth[art_id] = GroundTruth(art_id, False, "offline", 0)

    return Corpus(spec=spec, records=records, ground_truth=truth, web=web)


def resolved_records(corpus: Corpus) -> list[ArticleRecord]:
    """Records with oa_status set straight from ground truth, bypassing the
    robot. For analytics-only corpora where no crawl is needed."""
    return [replace(rec, oa_status=OAStatus.OA if corpus.ground_truth[rec.id].oa
                    else OAStatus.NOA) for rec in corpus.records]


# ---------------------------------------------------------------------------
# Independent reachability checker
# ---------------------------------------------------------------------------

def reachable_within_depth(web: MockWeb, record: ArticleRecord,
                           max_depth: int = CrawlConfig.max_depth, *,
                           blocklist=DEFAULT_BLOCKLIST) -> bool:
    """Exhaustive breadth-first check, independent of the robot: follow every
    anchor of every HTML page (no candidate heuristics, no caps) from the
    search results, and report whether any page within max_depth satisfies
    the full-text matcher. Pages are parsed by html.parser (the reference
    parse_html is tested against), not by the robot's scanner."""
    start = web.queries.get(format_query(record.first_author_surname,
                                         record.title), [])
    frontier = [(u, 0) for u in filter_irrelevant_links(start, blocklist)]
    seen: set[str] = set()
    while frontier:
        url, depth = frontier.pop(0)
        try:
            canon = normalize_url(url)
        except ValueError:
            continue
        if canon in seen:
            continue
        seen.add(canon)
        page = web.pages.get(canon)
        if page is None:
            continue
        fmt, data = page
        if fmt in ("html", "xml"):
            text, anchors = _parse_html_reference(
                data.decode("utf-8", errors="replace"))
        else:
            text, anchors = data.decode("utf-8", errors="replace"), []
        if match_full_text(text, record).found:
            return True
        if depth < max_depth:
            for href, _ in anchors:
                try:
                    frontier.append((urljoin(canon, href), depth + 1))
                except ValueError:
                    continue
    return False


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

def run_audit(detections: list[DetectionEvidence],
              ground_truth: dict[str, GroundTruth],
              sample_size: int, seed: int) -> ConfusionMatrix:
    """Draw sample_size robot-OA and robot-NOA articles uniformly without
    replacement (seeded) and score them against ground truth."""
    oa_tagged = sorted(ev.article_id for ev in detections
                       if ev.verdict is Verdict.OA)
    noa_tagged = sorted(ev.article_id for ev in detections
                        if ev.verdict is Verdict.NOA)
    for name, pool in (("OA", oa_tagged), ("NOA", noa_tagged)):
        if len(pool) < sample_size:
            raise CorpusError(
                f"need {sample_size} robot-{name} articles, only {len(pool)}")
    missing = [a for a in oa_tagged + noa_tagged if a not in ground_truth]
    if missing:
        raise CorpusError(f"no ground truth for {missing[0]} "
                          f"(+{len(missing) - 1} more)")
    rng = random.Random(seed)
    oa_sample = rng.sample(oa_tagged, sample_size)
    noa_sample = rng.sample(noa_tagged, sample_size)
    return build_confusion_from_audit(
        [ground_truth[a].oa for a in oa_sample],
        [ground_truth[a].oa for a in noa_sample],
    )


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def export_corpus(corpus: Corpus, out_dir) -> None:
    """Write records.jsonl, ground_truth.jsonl and a mockweb/ directory with
    one file per URL plus index.json. Deterministic byte-for-byte."""
    out = Path(out_dir)
    pages_dir = out / "mockweb" / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    save_records(corpus.records, out / "records.jsonl")
    with open(out / "ground_truth.jsonl", "w", encoding="utf-8") as fh:
        for art_id in sorted(corpus.ground_truth):
            gt = corpus.ground_truth[art_id]
            fh.write(json.dumps({
                "article_id": gt.article_id, "oa": gt.oa, "kind": gt.kind,
                "chain_depth": gt.chain_depth}, sort_keys=True) + "\n")

    index = {"pages": {}, "queries": corpus.web.queries,
             "dead_links": sorted(corpus.web.dead_links)}
    for n, url in enumerate(sorted(corpus.web.pages)):
        fmt, data = corpus.web.pages[url]
        ext = next((e for e, f in EXTENSION_FORMATS.items() if f == fmt), ".bin")
        fname = f"p{n:06d}{ext}"
        (pages_dir / fname).write_bytes(data)
        index["pages"][url] = {"file": f"pages/{fname}", "format": fmt}
    with open(out / "mockweb" / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_mock_web(mockweb_dir) -> MockWeb:
    base = Path(mockweb_dir)
    with open(base / "index.json", encoding="utf-8") as fh:
        index = json.load(fh)
    web = MockWeb()
    try:
        for url, meta in index["pages"].items():
            web.pages[url] = (meta["format"], (base / meta["file"]).read_bytes())
        web.queries = {q: list(us) for q, us in index["queries"].items()}
        web.dead_links = set(index["dead_links"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{base / 'index.json'}: bad mock web index: "
                         f"{type(exc).__name__}: {exc}") from exc
    return web


def _ground_truth_from_dict(obj: dict) -> GroundTruth:
    try:
        return GroundTruth(obj["article_id"], bool(obj["oa"]),
                           obj.get("kind", ""), int(obj.get("chain_depth", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad ground truth object: {exc}") from exc


def load_ground_truth(path) -> dict[str, GroundTruth]:
    return {gt.article_id: gt
            for _, gt in _read_jsonl(path, _ground_truth_from_dict)}
