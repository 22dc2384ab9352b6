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
from dataclasses import dataclass, field
from pathlib import Path

from .records import (
    SHARED,
    ArticleRecord,
    ParseError,
    _read_jsonl,
    repeated_id,
    save_rows,
)
from .robot.crawl import MAX_DEPTH, FetchResult, format_query
from .stats import ConfusionMatrix, build_confusion_from_audit

AD_HOST = "ads.mock-search.example"
# The citation shape: 61% of articles uncited (the paper's 60.7% of
# 1,307,038), and a mean of 4 citations for a cited NOA article.
UNCITED_MASS = 0.61
MEAN_CITED = 4.0

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
    oa_citation_multiplier: float = 1.0
    abstract_page_prob: float = 0.3  # among NOA articles
    dead_link_prob: float = 0.1  # among NOA articles
    chain_depth_distribution: tuple[tuple[int, float], ...] = (
        (0, 0.55), (1, 0.25), (2, 0.1), (3, 0.1))
    journals_per_discipline: int = 3
    issues_per_year: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        # A discipline's first four characters name its journals, and "|"
        # separates the discipline from the year in oa_probability keys.
        if not self.disciplines:
            raise CorpusError("disciplines must name at least one discipline")
        by_prefix: dict[str, str] = {}
        for name in self.disciplines:
            if not name or "|" in name:
                raise CorpusError("disciplines: each name must be non-empty "
                                  f"and hold no '|', got {name!r}")
            if name[:4] in by_prefix:
                raise CorpusError(
                    f"disciplines: {by_prefix[name[:4]]!r} and {name!r} share "
                    f"the first four characters that name their journals")
            by_prefix[name[:4]] = name
        for name in ("n_articles", "journals_per_discipline", "issues_per_year"):
            v = getattr(self, name)
            if v < 1:
                raise CorpusError(f"{name} must be >= 1, got {v}")
        if len(self.years) != 2:
            raise CorpusError("years must be FIRST-LAST, got "
                              + "-".join(map(str, self.years)))
        if self.years[0] > self.years[1]:
            raise CorpusError("years range is empty")
        for name in ("abstract_page_prob", "dead_link_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise CorpusError(f"{name} must be in [0, 1], got {v}")
        oa = self.oa_probability
        for v in oa.values() if isinstance(oa, dict) else (oa,):
            if not 0.0 <= v <= 1.0:
                raise CorpusError(f"oa_probability must be in [0, 1], got {v}")
        # A key oa_prob_for never looks up would silently match nothing.
        for key in oa if isinstance(oa, dict) else ():
            disc, bar, year = key.rpartition("|")
            if not (key == "default" or key in self.disciplines
                    or (self._is_year(year)
                        and (not bar or disc in self.disciplines))):
                raise CorpusError(f"oa_probability: key {key!r} names no "
                                  f"discipline or year of this spec")
        # _sample_citations divides by log(1 - 1/mean), which is 0 once
        # 1 - 1/mean rounds to 1. Each "not x >= y" also rejects NaN.
        multiplier = self.oa_citation_multiplier
        mean = MEAN_CITED * multiplier
        if not multiplier >= 0 or (mean > 1.0 and 1.0 - 1.0 / mean == 1.0):
            raise CorpusError("oa_citation_multiplier must be >= 0 and below "
                              f"about 4.5e15, got {multiplier}")
        if not all(p >= 0 for _, p in self.chain_depth_distribution):
            raise CorpusError("chain_depth_distribution probabilities must be >= 0")
        total = sum(p for _, p in self.chain_depth_distribution)
        if not abs(total - 1.0) <= 1e-9:
            raise CorpusError("chain_depth_distribution must sum to 1")
        if any(d < 0 or d > 5 for d, _ in self.chain_depth_distribution):
            raise CorpusError("chain depths must be in 0..5")

    def _is_year(self, text: str) -> bool:
        """Whether text is str(year) for a year in the spec's range."""
        try:
            year = int(text)
        except ValueError:
            return False
        return str(year) == text and self.years[0] <= year <= self.years[1]

    def oa_prob_for(self, discipline: str, year: int) -> float:
        p = self.oa_probability
        if isinstance(p, dict):
            for key in (f"{discipline}|{year}", str(year), discipline):
                if key in p:
                    return float(p[key])
            return float(p.get("default", 0.0))
        return float(p)


@dataclass
class Page:
    """A line of mockweb/pages.jsonl; MockWeb.pages keeps (format, text)."""

    url: str
    format: str = field(metadata=SHARED)
    text: str


@dataclass
class MockWeb:
    pages: dict[str, tuple[str, str]] = field(default_factory=dict)  # url -> (format, text)
    queries: dict[str, list[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class GroundTruth:
    article_id: str
    oa: bool  # a full text is reachable within the crawl's MAX_DEPTH
    # fulltext/deep-chain/abstract-decoy/dead-link/offline
    kind: str = field(default="", metadata=SHARED)
    chain_depth: int = 0
    # where the planter put the full text (fulltext and deep-chain), else ""
    fulltext_url: str = ""


@dataclass
class Corpus:
    records: list[ArticleRecord]
    ground_truth: dict[str, GroundTruth]
    web: MockWeb


class MockSearchProvider:
    """Directory-backed provider: exact query string to URL list."""

    blocklist = (AD_HOST,)

    def __init__(self, web: MockWeb):
        self.web = web

    def query(self, author: str, title: str) -> list[str]:
        return list(self.web.queries.get(format_query(author, title), []))


class MockFetcher:
    """Serves MockWeb content by canonical URL; a URL with no page gets a
    404. No network."""

    def __init__(self, web: MockWeb):
        self.web = web

    def fetch(self, url: str) -> FetchResult:
        page = self.web.pages.get(url)
        if page is None:
            return FetchResult(404, "text", "")
        return FetchResult(200, *page)


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
    if rng.random() < UNCITED_MASS:
        return 0
    mean = MEAN_CITED * (spec.oa_citation_multiplier if is_oa else 1.0)
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


def _draw_record(spec: CorpusSpec, rng: random.Random, i: int,
                 shared: dict) -> tuple[ArticleRecord, bool]:
    """Draw article i's record and whether a full text is planted for it.
    Its journal id, year and issue key are the first equal ones in shared,
    so the records of one corpus hold each such value once."""
    discipline = spec.disciplines[rng.randrange(len(spec.disciplines))]
    journal_no = rng.randrange(spec.journals_per_discipline)
    journal_id = f"{discipline[:4]}-j{journal_no}"
    journal_id = shared.setdefault(journal_id, journal_id)
    year = spec.years[0] + rng.randrange(spec.years[1] - spec.years[0] + 1)
    year = shared.setdefault(year, year)
    issue = 1 + rng.randrange(spec.issues_per_year)
    issue_key = f"{journal_id}|{year}|{issue}"
    issue_key = shared.setdefault(issue_key, issue_key)
    surname = _SURNAMES[rng.randrange(len(_SURNAMES))]
    title = _make_title(i, rng)
    country = _COUNTRIES[rng.randrange(len(_COUNTRIES))]

    intended_oa = rng.random() < spec.oa_prob_for(discipline, year)
    record = ArticleRecord(
        id=f"a{i:06d}",
        first_author_surname=surname,
        title=title,
        journal_id=journal_id,
        issue_key=issue_key,
        year=year,
        discipline=discipline,
        country=country,
        citation_count=_sample_citations(spec, rng, intended_oa),
    )
    return record, intended_oa


def _article_base(record: ArticleRecord) -> str:
    return f"http://www.{record.journal_id}.example/{record.id}"


def _ad_url(record: ArticleRecord) -> str:
    # A search result the robot's blocklist drops; no page is planted there.
    return f"http://{AD_HOST}/click?id={record.id}"


def _list_results(web: MockWeb, record: ArticleRecord, urls: list[str]) -> None:
    web.queries[format_query(record.first_author_surname, record.title)] = urls


def _plant_fulltext(spec: CorpusSpec, record: ArticleRecord,
                    rng: random.Random, web: MockWeb) -> GroundTruth:
    """A full text behind a chain of `depth` landing pages; past the crawl's
    MAX_DEPTH it is a deep-chain, which the robot must not reach."""
    depth = _sample_depth(spec, rng)
    as_html = rng.random() < 0.5
    text = _fulltext_doc(record, rng)
    base = _article_base(record)
    if as_html:
        ft_url = f"{base}/fulltext.html"
        web.pages[ft_url] = ("html", _html_fulltext(text))
    else:
        ft_url = f"{base}/fulltext.txt"
        web.pages[ft_url] = ("text", text)
    entry = ft_url
    for hop in range(depth - 1, -1, -1):
        url = f"{base}/landing{hop}.html"
        web.pages[url] = ("html", _chain_doc(record, entry, hop))
        entry = url
    _list_results(web, record, [entry, _ad_url(record), entry + "#utm"])
    reachable = depth <= MAX_DEPTH
    return GroundTruth(record.id, oa=reachable,
                       kind="fulltext" if reachable else "deep-chain",
                       chain_depth=depth, fulltext_url=ft_url)


def _plant_abstract_decoy(record: ArticleRecord, web: MockWeb) -> GroundTruth:
    url = f"{_article_base(record)}/abstract.html"
    web.pages[url] = ("html", _abstract_doc(record))
    _list_results(web, record, [url, _ad_url(record)])
    return GroundTruth(record.id, False, "abstract-decoy", 0)


def _plant_dead_link(record: ArticleRecord, web: MockWeb) -> GroundTruth:
    # No page is planted at the listed URL, so fetching it gets a 404.
    _list_results(web, record, [f"{_article_base(record)}/gone.pdf"])
    return GroundTruth(record.id, False, "dead-link", 0)


def _plant_offline(record: ArticleRecord) -> GroundTruth:
    # No search result: the query is absent from web.queries.
    return GroundTruth(record.id, False, "offline", 0)


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Build records, ground truth and the mock web; pure in (spec, seed).
    Each article's record is drawn, then the planter of its kind writes its
    pages and search results and returns its ground truth."""
    rng = random.Random(spec.seed)
    web = MockWeb()
    records: list[ArticleRecord] = []
    truth: dict[str, GroundTruth] = {}
    shared: dict = {}
    for i in range(spec.n_articles):
        record, intended_oa = _draw_record(spec, rng, i, shared)
        records.append(record)
        if intended_oa:
            gt = _plant_fulltext(spec, record, rng, web)
        else:
            u = rng.random()
            if u < spec.abstract_page_prob:
                gt = _plant_abstract_decoy(record, web)
            elif u < spec.abstract_page_prob + spec.dead_link_prob:
                gt = _plant_dead_link(record, web)
            else:
                gt = _plant_offline(record)
        truth[record.id] = gt
    return Corpus(records=records, ground_truth=truth, web=web)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditConfig:
    """Audit sample_size robot-OA and robot-NOA articles, drawn with seed."""

    sample_size: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise CorpusError(
                f"sample_size must be >= 1, got {self.sample_size}")


def run_audit(is_oa: dict[str, bool], truth: dict[str, bool],
              sample_size: int, seed: int) -> ConfusionMatrix:
    """Draw sample_size robot-OA and robot-NOA articles of is_oa uniformly
    without replacement (seeded) and score them against truth, article id
    -> GroundTruth.oa."""
    oa_tagged = sorted(a for a, oa in is_oa.items() if oa)
    noa_tagged = sorted(a for a, oa in is_oa.items() if not oa)
    for name, pool in (("OA", oa_tagged), ("NOA", noa_tagged)):
        if len(pool) < sample_size:
            raise CorpusError(
                f"need {sample_size} robot-{name} articles, only {len(pool)}")
    missing = [a for a in oa_tagged + noa_tagged if a not in truth]
    if missing:
        raise CorpusError(f"no ground truth for {missing[0]} "
                          f"(+{len(missing) - 1} more)")
    rng = random.Random(seed)
    oa_sample = rng.sample(oa_tagged, sample_size)
    noa_sample = rng.sample(noa_tagged, sample_size)
    return build_confusion_from_audit(
        [truth[a] for a in oa_sample],
        [truth[a] for a in noa_sample],
    )


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def export_corpus(corpus: Corpus, out_dir) -> None:
    """Write records.jsonl, ground_truth.jsonl and a mockweb/ directory of
    index.json (the search results per query) and pages.jsonl (one page per
    line, in URL order). Deterministic byte-for-byte."""
    out = Path(out_dir)
    (out / "mockweb").mkdir(parents=True, exist_ok=True)
    save_rows(corpus.records, out / "records.jsonl")
    save_rows((corpus.ground_truth[art_id]
               for art_id in sorted(corpus.ground_truth)),
              out / "ground_truth.jsonl")
    save_rows((Page(url, fmt, text)
               for url, (fmt, text) in sorted(corpus.web.pages.items())),
              out / "mockweb" / "pages.jsonl")
    with open(out / "mockweb" / "index.json", "w", encoding="utf-8") as fh:
        json.dump({"queries": corpus.web.queries}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_mock_web(mockweb_dir) -> MockWeb:
    """The mock web export_corpus wrote, pages.jsonl read line by line."""
    base = Path(mockweb_dir)
    web = MockWeb()
    try:
        with open(base / "index.json", encoding="utf-8") as fh:
            index = json.load(fh)
        for query, urls in index["queries"].items():
            if type(urls) is not list or not all(type(u) is str for u in urls):
                raise ParseError(
                    f"{base / 'index.json'}: bad mock web index: query "
                    f"{query!r} maps to {urls!r:.60}, not a list of URLs")
            web.queries[query] = urls
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
            AttributeError) as exc:
        raise ParseError(f"{base / 'index.json'}: bad mock web index: "
                         f"{type(exc).__name__}: {exc}") from exc
    for _, page in _read_jsonl(base / "pages.jsonl", Page):
        web.pages[page.url] = (page.format, page.text)
    return web


def load_ground_truth(path) -> dict[str, bool]:
    """Article id -> GroundTruth.oa, read off each line's id and oa: no
    row is built. Ids are unique: a repeat is a ParseError naming both
    lines."""
    truth: dict[str, bool] = {}
    for lineno, (article_id, oa) in _read_jsonl(path, GroundTruth,
                                                ("article_id", "oa")):
        if article_id in truth:
            raise repeated_id(path, lineno, GroundTruth, article_id,
                              "ground truth")
        truth[article_id] = oa
    return truth
