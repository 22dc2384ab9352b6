"""Command-line surface: detect, analyze, cohorts, correlate, audit, synth,
evaluate.

Configuration is a flat key=value text file; command-line flags override
file values. Exit codes are a stable contract: 0 success, 2 configuration
or input error, 3 incomplete detections, 4 audit infeasible. The report
commands stream their records into counts (metrics.Reports) and hold none.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import corpus as corpusmod
from . import metrics, records, stats
from .records import iter_records, load_detections, load_records, load_verdicts
from .robot.crawl import detect_oa
from .robot.extract import ExternalConverter

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3
EXIT_AUDIT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def read_config(path, keys) -> dict[str, str]:
    """Flat key=value file; blank lines and #-comments ignored. A key outside
    keys is a CliError naming the file and line."""
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _merged_config(args) -> dict[str, str]:
    """The --config file's keys, each overridden by the flag of that name
    when the command line sets it; a switch sets "true"."""
    flags = dict(vars(args))
    del flags["command"], flags["func"], flags["inputs"]  # not settings
    path = flags.pop("config", None)
    cfg = read_config(path, CONFIG_KEYS) if path else {}
    for key, value in flags.items():
        # By identity: 0 == False, so "value in (None, False)" would drop
        # --seed 0.
        if value is None or value is False:
            continue
        cfg[key] = "true" if value is True else str(value)
    return cfg


def _require(cfg: dict, key: str) -> str:
    if key not in cfg or not cfg[key]:
        raise CliError(f"missing required config key {key!r}")
    return cfg[key]


def _pairs(text):
    """The (key, value) texts of a "key:value,key:value" list."""
    return [part.partition(":")[::2] for part in text.split(",")]


# The fields of the settings classes whose text is not read by the type of
# their default.
_FIELD_PARSERS = {
    "disciplines": lambda s: tuple(x.strip() for x in s.split(",")),
    "years": lambda s: tuple(int(x) for x in s.split("-")),
    "oa_probability": lambda s: (
        {k.strip(): float(v) for k, v in _pairs(s)} if ":" in s
        else float(s)),
    "chain_depth_distribution": lambda s: tuple(
        (int(k), float(v)) for k, v in _pairs(s)),
}


# Keys commands read as plain strings.
_PLAIN_KEYS = ("records", "detections", "mock_web", "ground_truth", "out",
               "allow_unknown", "converter")
# The keys a --config file may set: any key some command reads from it
# (run.cfg serves every stage). A spec file may set the CorpusSpec fields.
# Any other key is a typo, a stale setting or a key of the other kind.
CONFIG_KEYS = frozenset(_PLAIN_KEYS).union(
    f.name for f in fields(corpusmod.AuditConfig))
SPEC_KEYS = frozenset(f.name for f in fields(corpusmod.CorpusSpec))


def _build(cls, cfg: dict):
    """cls from each of its fields that cfg sets, the text read by the
    field's parser in _FIELD_PARSERS, else by the type of its default; a
    value that a parser or cls rejects is a CliError."""
    values = {}
    for f in fields(cls):
        if f.name in cfg:
            parse = _FIELD_PARSERS.get(f.name, type(f.default))
            try:
                values[f.name] = parse(cfg[f.name])
            except ValueError as exc:
                raise CliError(f"bad value for {f.name}: {exc}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise CliError(str(exc))


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


def _resolved_records(recs, is_oa: dict[str, bool],
                      allow_unknown: bool) -> metrics.Reports:
    """The reports over recs, a list or a stream, each paired with its
    verdict in is_oa as read, the one join of records and verdicts. A record
    with no verdict is UNKNOWN: an error unless allow_unknown drops it."""
    n_read = 0

    def resolved():
        nonlocal n_read
        for n_read, rec in enumerate(recs, start=1):
            if rec.id in is_oa:
                yield rec, is_oa[rec.id]

    reports = metrics.Reports(resolved())
    n_unknown = n_read - reports.n_records(kept=False)
    if n_unknown:
        if not allow_unknown:
            raise CliError(
                f"{n_unknown} records have UNKNOWN status "
                f"(run detect, or pass --allow-unknown)", EXIT_INCOMPLETE)
        print(f"warning: dropping {n_unknown} UNKNOWN records",
              file=sys.stderr)
    return reports


def _load_reports(cfg: dict) -> metrics.Reports:
    """The reports over cfg's records, streamed inside _load, resolved by its
    detections. allow_unknown is checked before either file is read."""
    allow = cfg.get("allow_unknown", "")
    if allow.lower() not in ("true", "1", "yes", "false", "0", "no", ""):
        raise CliError(f"bad value for allow_unknown: {allow!r}")
    is_oa = _load(cfg, "detections", load_verdicts)
    return _load(cfg, "records", lambda path: _resolved_records(
        iter_records(path), is_oa, allow.lower() in ("true", "1", "yes")))


def _converter(cfg: dict):
    """The ExternalConverter cfg's converter template names, or None."""
    template = cfg.get("converter")
    try:
        return ExternalConverter(template) if template else None
    except ValueError as exc:
        raise CliError(f"bad value for converter: {exc}")


# The inputs a command may declare, loaded from cfg in the order it declares
# them, settings first; evaluate passes in what the stage before made. Each
# looks its loader up when called, so a wrapped loader is the one run.
_INPUTS = {
    "audit": lambda cfg: _build(corpusmod.AuditConfig, cfg),
    "converter": _converter,
    "recs": lambda cfg: _load(cfg, "records", load_records),
    "web": lambda cfg: _load(cfg, "mock_web", corpusmod.load_mock_web),
    "verdicts": lambda cfg: _load(cfg, "detections", load_verdicts),
    "truth": lambda cfg: _load(cfg, "ground_truth",
                               corpusmod.load_ground_truth),
    "reports": _load_reports,
}


def _out_dir(cfg: dict) -> Path:
    """cfg's out directory, made if missing. A path that cannot be made a
    directory (a file is in the way) is a CliError naming it."""
    out = Path(_require(cfg, "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot make out directory {out}: {exc}")
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# Bytes read per step when looking back from a journal's end for its last
# newline: the journal itself is never read whole here.
_TAIL_STEP = 1 << 16


def _replay_journal(path) -> list:
    """The detections in a resumable journal. A last line cut off by a kill
    is truncated away first, so that article is detected again and the next
    append starts on a fresh line."""
    with open(path, "rb+") as fh:
        size = keep = fh.seek(0, os.SEEK_END)
        while keep:  # keep ends up just past the last newline, or at 0
            start = max(0, keep - _TAIL_STEP)
            fh.seek(start)
            newline = fh.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < size:
            print(f"warning: {path}: dropping cut-off last line "
                  f"({size - keep} bytes)", file=sys.stderr)
            fh.truncate(keep)
    return load_detections(path)


def cmd_detect(cfg: dict, converter, recs, web) -> list:
    """Detect every record not already in the journal, with converter (or
    None) for non-HTML pages; returns the detections in records order."""
    det_path = Path(_require(cfg, "detections"))
    provider = corpusmod.MockSearchProvider(web)
    fetcher = corpusmod.MockFetcher(web)

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
    with journal:
        for rec in recs:
            if rec.id in done:
                continue
            ev = detect_oa(rec, provider, fetcher, converter=converter)
            done[rec.id] = ev
            journal.write(records.detection_to_json(ev) + "\n")
            journal.flush()

    final = [done[r.id] for r in recs]
    # Record ids are unique, so a journal this run started is already in
    # records order; one that held lines before it is compacted into it.
    if replayed:
        records.save_rows(final, det_path)
    n_oa = sum(1 for ev in final if ev.verdict is records.Verdict.OA)
    n_noa = len(final) - n_oa
    print(f"detect: {len(recs)} records, OA={n_oa} NOA={n_noa}")
    return final


def cmd_analyze(cfg: dict, reports) -> None:
    """Write the exclusion log and the %OA and advantage tables."""
    out = _out_dir(cfg)
    _, log = reports.exclusions
    metrics.write_exclusions_csv(log, out / "exclusions.csv")
    for dim in ("discipline", "country", "year"):
        metrics.write_oa_share_csv(reports.oa_share(dim),
                                   out / f"oa_share_by_{dim}.csv")
        metrics.write_advantage_csv(reports.advantage(dim),
                                    out / f"advantage_by_{dim}.csv")
    print(f"analyze: kept {reports.n_records(kept=True)}/"
          f"{reports.n_records(kept=False)} records")


def cmd_cohorts(cfg: dict, reports) -> None:
    out = _out_dir(cfg)
    metrics.write_cohort_csv(reports.cohorts(per_year=True),
                             out / "cohorts_yearly.csv")
    metrics.write_cohort_csv(reports.cohorts(per_year=False),
                             out / "cohorts_pooled.csv")
    print(f"cohorts: {reports.n_records(kept=False)} records")


def cmd_correlate(cfg: dict, reports) -> None:
    out = _out_dir(cfg)
    rows = reports.correlations
    metrics.write_correlations_csv(rows, out / "correlations.csv")
    print(f"correlate: {sum(1 for _, r in rows if r is not None)} pairs")


def cmd_audit(cfg: dict, audit, is_oa, truth) -> None:
    """Score a seeded sample of the verdicts is_oa against ground truth, as
    the AuditConfig audit says, write sdt.csv and print the audit line."""
    try:
        matrix = corpusmod.run_audit(is_oa, truth, audit.sample_size,
                                     audit.seed)
    except (corpusmod.CorpusError, stats.StatsError) as exc:
        # StatsError: the sample lacks a true class, so d' has no value.
        raise CliError(str(exc), EXIT_AUDIT)
    result = stats.sdt_analysis(matrix)
    out = _out_dir(cfg)
    metrics.write_sdt_csv(matrix, result, out / "sdt.csv")
    print(f"audit: hits={matrix.hits} misses={matrix.misses} "
          f"fa={matrix.false_alarms} cr={matrix.correct_rejections} "
          f"d'={result.d_prime:.3f} beta={result.beta:.3f}")


def cmd_synth(cfg: dict) -> corpusmod.Corpus:
    """Generate the corpus the spec file describes (its seed overridden by
    cfg's) and export it; returns the corpus."""
    spec_cfg = read_config(cfg["spec"], SPEC_KEYS) if cfg.get("spec") else {}
    if "seed" in cfg:
        spec_cfg["seed"] = cfg["seed"]
    spec = _build(corpusmod.CorpusSpec, spec_cfg)
    # After the spec, so a bad spec writes nothing; before the corpus, so an
    # out path that cannot be a directory costs no generation.
    out = _out_dir(cfg)
    corp = corpusmod.generate_corpus(spec)
    corpusmod.export_corpus(corp, out)
    n_oa = sum(1 for gt in corp.ground_truth.values() if gt.oa)
    print(f"synth: {len(corp.records)} records, {n_oa} reachable full texts, "
          f"{len(corp.web.pages)} pages -> {out}")
    return corp


def cmd_evaluate(cfg: dict) -> None:
    """synth, detect, the reports and the audit, each stage handed what the
    one before it returned. Each stage prints its own line."""
    out = Path(_require(cfg, "out"))
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
    # Bad audit settings stop the run before it writes anything.
    audit = _build(corpusmod.AuditConfig, base)
    corp = cmd_synth(dict(cfg, out=str(out / "corpus")))
    (out / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")

    # The corpus was just regenerated: an older journal belongs to another.
    (out / "detections.jsonl").unlink(missing_ok=True)
    is_oa = records.verdicts(cmd_detect(base, None, corp.records, corp.web))
    reports = _resolved_records(corp.records, is_oa, allow_unknown=False)
    cmd_analyze(base, reports)
    cmd_cohorts(base, reports)
    cmd_correlate(base, reports)
    cmd_audit(base, audit, is_oa, corp.ground_truth)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oafinder",
        description="Open-access detection robot and citation-impact reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, inputs, *keys):
        """--config, a flag per config key func reads, and func's inputs."""
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"))
        p.set_defaults(func=func, inputs=inputs)

    common(sub.add_parser("detect", help="classify each record OA/NOA"),
           cmd_detect, ("converter", "recs", "web"), "records", "detections",
           "mock_web")

    for name, fn in (("analyze", cmd_analyze), ("cohorts", cmd_cohorts),
                     ("correlate", cmd_correlate)):
        p = sub.add_parser(name)
        common(p, fn, ("reports",), "records", "detections", "out")
        p.add_argument("--allow-unknown", action="store_true")

    p = sub.add_parser("audit", help="signal-detection audit vs ground truth")
    common(p, cmd_audit, ("audit", "verdicts", "truth"), "detections", "out",
           "ground_truth")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic corpus + mock web")
    p.add_argument("--spec", help="corpus spec file (key=value)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, inputs=())

    p = sub.add_parser("evaluate", help="synth + detect + analyze + audit")
    p.add_argument("--spec")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=50)
    p.set_defaults(func=cmd_evaluate, inputs=())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
        args.func(cfg, *[_INPUTS[name](cfg) for name in args.inputs])
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
