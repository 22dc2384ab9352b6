"""Command-line surface: detect, analyze, cohorts, correlate, audit, synth,
evaluate.

Configuration is a flat key=value text file; command-line flags override
file values. Exit codes are a stable contract: 0 success, 2 configuration
or input error, 3 incomplete detections, 4 audit infeasible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpusmod
from . import metrics, records, stats
from .records import ALL_RANGES, OAStatus, load_detections, load_records
from .robot.crawl import CrawlConfig, DetectionError, detect_oa
from .robot.extract import ExternalConverter

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3
EXIT_AUDIT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def read_config(path, known=None) -> dict[str, str]:
    """Flat key=value file; blank lines and #-comments ignored. When known
    is given, a key outside it is a CliError naming the file and line."""
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if known is not None and key not in known:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _merged_config(args) -> dict[str, str]:
    cfg = (read_config(args.config, KNOWN_KEYS)
           if getattr(args, "config", None) else {})
    for key in ("records", "detections", "out", "mock_web", "ground_truth",
                "spec", "seed", "sample_size"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    if getattr(args, "allow_unknown", False):
        cfg["allow_unknown"] = "true"
    return cfg


def _require(cfg: dict, key: str) -> str:
    if key not in cfg or not cfg[key]:
        raise CliError(f"missing required config key {key!r}")
    return cfg[key]


def _cast_values(cfg: dict, casts: dict) -> dict:
    """The keys of casts that cfg sets, each passed through its cast; a value
    the cast rejects is a CliError."""
    out = {}
    for key, cast in casts.items():
        if key in cfg:
            try:
                out[key] = cast(cfg[key])
            except ValueError as exc:
                raise CliError(f"bad value for {key}: {exc}")
    return out


def _parse_dist(text):
    pairs = []
    for part in text.split(","):
        k, _, v = part.partition(":")
        pairs.append((int(k), float(v)))
    return tuple(pairs)


def _parse_prob(text):
    if ":" in text:
        out = {}
        for part in text.split(","):
            k, _, v = part.partition(":")
            out[k.strip()] = float(v)
        return out
    return float(text)


# The keys each stage reads through _cast_values, with their casts.
_CRAWL_CASTS = {
    "max_depth": int,
    "max_links_followed_per_page": int,
    "title_similarity_threshold": float,
    "head_fraction": float, "tail_fraction": float}
_AUDIT_CASTS = {"sample_size": int, "seed": int}
_SPEC_CASTS = {
    "n_articles": int,
    "disciplines": lambda s: tuple(x.strip() for x in s.split(",")),
    "years": lambda s: tuple(int(x) for x in s.split("-")),
    "oa_probability": _parse_prob,
    "uncited_mass": float,
    "mean_cited": float,
    "oa_citation_multiplier": float,
    "abstract_page_prob": float,
    "dead_link_prob": float,
    "chain_depth_distribution": _parse_dist,
    "journals_per_discipline": int,
    "issues_per_year": int,
    "seed": int,
}
# Keys commands read as plain strings.
_PLAIN_KEYS = ("records", "detections", "mock_web", "ground_truth", "out",
               "allow_unknown", "converter")
# A config or spec file may set any key some command reads (run.cfg serves
# every stage); any other key is a typo or a stale setting.
KNOWN_KEYS = frozenset(_PLAIN_KEYS).union(_CRAWL_CASTS, _AUDIT_CASTS,
                                          _SPEC_CASTS)


def _crawl_config(cfg: dict) -> CrawlConfig:
    config = CrawlConfig(**_cast_values(cfg, _CRAWL_CASTS))
    try:
        config.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    return config


def _load(cfg: dict, key: str, loader):
    """loader(path) for the file or directory cfg[key] names. A missing,
    unreadable or malformed input is a CliError."""
    path = _require(cfg, key)
    try:
        return loader(path)
    except OSError as exc:
        raise CliError(f"cannot read {key}: {exc}")
    except ValueError as exc:
        raise CliError(f"bad {key} file: {exc}")


def _resolved_records(cfg: dict, recs=None, detections=None):
    """recs with the detections' verdicts applied, each loaded from cfg when
    not given. UNKNOWN records are an error unless allow_unknown drops them."""
    if recs is None:
        recs = _load(cfg, "records", load_records)
    if detections is None:
        detections = _load(cfg, "detections", load_detections)
    merged = records.apply_detections(recs, detections)
    unknown = [r for r in merged if r.oa_status is OAStatus.UNKNOWN]
    if unknown:
        if cfg.get("allow_unknown", "").lower() in ("true", "1", "yes"):
            print(f"warning: dropping {len(unknown)} UNKNOWN records",
                  file=sys.stderr)
            merged = [r for r in merged if r.oa_status is not OAStatus.UNKNOWN]
        else:
            raise CliError(
                f"{len(unknown)} records have UNKNOWN status "
                f"(run detect, or pass --allow-unknown)", EXIT_INCOMPLETE)
    return merged


def _out_dir(cfg: dict) -> Path:
    out = Path(_require(cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _replay_journal(path) -> list:
    """The detections in a resumable journal. A last line cut off by a kill
    is truncated away first, so that article is detected again and the next
    append starts on a fresh line."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            keep = data.rfind(b"\n") + 1
            print(f"warning: {path}: dropping cut-off last line "
                  f"({len(data) - keep} bytes)", file=sys.stderr)
            fh.truncate(keep)
    return load_detections(path)


def cmd_detect(cfg: dict, recs=None, web=None) -> list:
    """Detect every record not already in the journal; returns the
    detections in records order. recs and web are loaded from cfg when not
    given."""
    if recs is None:
        recs = _load(cfg, "records", load_records)
    det_path = Path(_require(cfg, "detections"))
    if web is None:
        web = _load(cfg, "mock_web", corpusmod.load_mock_web)
    provider = corpusmod.MockSearchProvider(web)
    fetcher = corpusmod.MockFetcher(web)
    config = _crawl_config(cfg)
    converter_cmd = cfg.get("converter")
    try:
        converter = ExternalConverter(converter_cmd) if converter_cmd else None
    except ValueError as exc:
        raise CliError(f"bad value for converter: {exc}")

    # Resumable append-only journal: replay keeps the last entry per id.
    done: dict[str, records.DetectionEvidence] = {}
    replayed = False
    if det_path.exists():
        for ev in _load(cfg, "detections", _replay_journal):
            done[ev.article_id] = ev
        replayed = det_path.stat().st_size > 0

    try:
        journal = open(det_path, "a", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write detections: {exc}")
    n_unknown = 0
    with journal:
        for rec in recs:
            if rec.id in done:
                continue
            try:
                ev = detect_oa(rec, provider, fetcher, config,
                               converter=converter)
            except DetectionError as exc:
                print(f"warning: {exc}", file=sys.stderr)
                n_unknown += 1
                continue
            done[rec.id] = ev
            journal.write(records.detection_to_json(ev) + "\n")
            journal.flush()

    final = [done[r.id] for r in recs if r.id in done]
    # Record ids are unique, so a journal this run started is already in
    # records order; one that held lines before it is compacted into it.
    if replayed:
        records.save_detections(final, det_path)
    n_oa = sum(1 for ev in final if ev.verdict is records.Verdict.OA)
    n_noa = len(final) - n_oa
    print(f"detect: {len(recs)} records, OA={n_oa} NOA={n_noa} "
          f"UNKNOWN={n_unknown}")
    return final


def cmd_analyze(cfg: dict, merged=None) -> dict:
    """Write the exclusion log and the %OA and advantage tables; returns the
    advantage reports by dimension."""
    if merged is None:
        merged = _resolved_records(cfg)
    out = _out_dir(cfg)
    kept, log = metrics.apply_exclusions(merged)
    metrics.write_exclusions_csv(log, out / "exclusions.csv")
    shares, advantage = {}, {}
    for dim in ("discipline", "country", "year"):
        shares[dim] = metrics.percent_oa(kept, dim)
        metrics.write_oa_share_csv(shares[dim], out / f"oa_share_by_{dim}.csv")
        advantage[dim] = metrics.aggregate_advantage(kept, dim)
        metrics.write_advantage_csv(advantage[dim],
                                    out / f"advantage_by_{dim}.csv")
    pct = [rep.percent_oa for rep in shares["discipline"]]
    if len(pct) > 1:
        summary = metrics.summary_stats(pct)
        print(f"analyze: kept {len(kept)}/{len(merged)} records; "
              f"%OA by discipline mean {100 * summary['mean']:.1f} "
              f"median {100 * summary['median']:.1f} "
              f"sd {100 * summary['sd']:.2f}")
    else:
        print(f"analyze: kept {len(kept)}/{len(merged)} records")
    return advantage


def cmd_cohorts(cfg: dict, merged=None) -> None:
    if merged is None:
        merged = _resolved_records(cfg)
    out = _out_dir(cfg)
    metrics.write_cohort_csv(metrics.cohort_table(merged, per_year=True),
                             out / "cohorts_yearly.csv")
    metrics.write_cohort_csv(metrics.cohort_table(merged, per_year=False),
                             out / "cohorts_pooled.csv")
    print(f"cohorts: {len(merged)} records")


def _correlation_rows(merged):
    years = sorted({r.year for r in merged})
    shares = {rep.group: rep for rep in metrics.percent_oa(merged, "year")}
    kept, _ = metrics.apply_exclusions(merged)
    adv = {rep.group: rep.advantage
           for rep in metrics.aggregate_advantage(kept, "year")}
    table = metrics.cohort_table(merged, per_year=True)

    def series(pairs):
        xs = [x for x, y in pairs if x is not None and y is not None]
        ys = [y for x, y in pairs if x is not None and y is not None]
        try:
            return stats.correlate(xs, ys)
        except stats.StatsError:
            return None

    total = {y: shares[y].n_oa + shares[y].n_noa for y in years if y in shares}
    pct = {y: shares[y].percent_oa for y in years if y in shares}
    rows = [
        ("advantage_x_year",
         series([(adv.get(y), y) for y in years])),
        ("advantage_x_total_articles",
         series([(adv.get(y), total.get(y)) for y in years])),
        ("advantage_x_pct_oa",
         series([(adv.get(y), pct.get(y)) for y in years])),
        ("total_articles_x_year",
         series([(total.get(y), y) for y in years])),
        ("total_articles_x_pct_oa",
         series([(total.get(y), pct.get(y)) for y in years])),
        ("pct_oa_x_year",
         series([(pct.get(y), y) for y in years])),
    ]
    for rng in ALL_RANGES:
        pairs = [(table[y][rng].ratio if y in table else None, y)
                 for y in years]
        rows.append((f"ratio_{rng.value}_x_year", series(pairs)))
    return rows


def cmd_correlate(cfg: dict, merged=None) -> None:
    if merged is None:
        merged = _resolved_records(cfg)
    out = _out_dir(cfg)
    rows = _correlation_rows(merged)
    metrics.write_correlations_csv(rows, out / "correlations.csv")
    print(f"correlate: {sum(1 for _, r in rows if r is not None)} pairs")


def cmd_audit(cfg: dict, detections=None, truth=None):
    """Score a seeded sample of the detections against ground truth, write
    sdt.csv and print the audit line; returns (matrix, sdt result).
    detections and truth are loaded from cfg when not given."""
    if detections is None:
        detections = _load(cfg, "detections", load_detections)
    if truth is None:
        truth = _load(cfg, "ground_truth", corpusmod.load_ground_truth)
    values = _cast_values(cfg, _AUDIT_CASTS)
    sample_size = values.get("sample_size", 100)
    if sample_size < 1:
        raise CliError(f"sample_size must be >= 1, got {sample_size}")
    try:
        matrix = corpusmod.run_audit(detections, truth, sample_size,
                                     values.get("seed", 0))
    except corpusmod.CorpusError as exc:
        raise CliError(str(exc), EXIT_AUDIT)
    result = stats.sdt_analysis(matrix)
    out = _out_dir(cfg)
    metrics.write_sdt_csv(matrix, result, out / "sdt.csv")
    print(f"audit: hits={matrix.hits} misses={matrix.misses} "
          f"fa={matrix.false_alarms} cr={matrix.correct_rejections} "
          f"d'={result.d_prime:.3f} beta={result.beta:.3f}")
    return matrix, result


def _corpus_spec_from_config(cfg: dict) -> corpusmod.CorpusSpec:
    spec = corpusmod.CorpusSpec(**_cast_values(cfg, _SPEC_CASTS))
    try:
        spec.validate()
    except corpusmod.CorpusError as exc:
        raise CliError(str(exc))
    return spec


def cmd_synth(cfg: dict) -> corpusmod.Corpus:
    """Generate the corpus the spec file describes (its seed overridden by
    cfg's) and export it; returns the corpus."""
    spec_cfg = read_config(cfg["spec"], KNOWN_KEYS) if cfg.get("spec") else {}
    if "seed" in cfg:
        spec_cfg["seed"] = cfg["seed"]
    corp = corpusmod.generate_corpus(_corpus_spec_from_config(spec_cfg))
    out = _out_dir(cfg)
    corpusmod.export_corpus(corp, out)
    n_oa = sum(1 for gt in corp.ground_truth.values() if gt.oa)
    print(f"synth: {len(corp.records)} records, {n_oa} reachable full texts, "
          f"{len(corp.web.pages)} pages -> {out}")
    return corp


def cmd_evaluate(cfg: dict) -> None:
    """synth, detect, the reports and the audit, each stage handed what the
    one before it returned."""
    out = _out_dir(cfg)
    corp = cmd_synth(dict(cfg, out=str(out / "corpus")))

    # run.cfg lets a user rerun any one stage by hand on this run's files.
    base = {
        "records": str(out / "corpus" / "records.jsonl"),
        "detections": str(out / "detections.jsonl"),
        "mock_web": str(out / "corpus" / "mockweb"),
        "ground_truth": str(out / "corpus" / "ground_truth.jsonl"),
        "out": str(out / "reports"),
        "sample_size": cfg["sample_size"],
        "seed": cfg.get("seed", "0"),
    }
    (out / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")

    # The corpus was just regenerated: an older journal belongs to another.
    (out / "detections.jsonl").unlink(missing_ok=True)
    detections = cmd_detect(base, corp.records, corp.web)
    merged = _resolved_records(base, corp.records, detections)
    advantage = cmd_analyze(base, merged)
    cmd_cohorts(base, merged)
    cmd_correlate(base, merged)
    matrix, sdt = cmd_audit(base, detections, corp.ground_truth)

    n_oa = sum(1 for r in merged if r.oa_status is OAStatus.OA)
    advs = [rep.advantage for rep in advantage["discipline"]
            if rep.advantage is not None]
    print("evaluate summary")
    print(f"  articles: {len(merged)}  percent OA: "
          f"{100.0 * n_oa / len(merged):.1f}%")
    if advs:
        print(f"  mean citation advantage across disciplines: "
              f"{100.0 * sum(advs) / len(advs):.1f}%")
    print(f"  audit d'={sdt.d_prime:.3f} beta={sdt.beta:.3f} "
          f"(hits={matrix.hits} misses={matrix.misses} "
          f"fa={matrix.false_alarms} cr={matrix.correct_rejections})")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oafinder",
        description="Open-access detection robot and citation-impact reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, *keys):
        """--config, then a flag for each config key the command reads."""
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"))
        p.set_defaults(func=func)

    common(sub.add_parser("detect", help="classify each record OA/NOA"),
           cmd_detect, "records", "detections", "mock_web")

    for name, fn in (("analyze", cmd_analyze), ("cohorts", cmd_cohorts),
                     ("correlate", cmd_correlate)):
        p = sub.add_parser(name)
        common(p, fn, "records", "detections", "out")
        p.add_argument("--allow-unknown", action="store_true")

    p = sub.add_parser("audit", help="signal-detection audit vs ground truth")
    common(p, cmd_audit, "detections", "out", "ground_truth")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic corpus + mock web")
    p.add_argument("--spec", help="corpus spec file (key=value)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="synth + detect + analyze + audit")
    p.add_argument("--spec")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=50)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(_merged_config(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except metrics.UnresolvedStatusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except metrics.MetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
