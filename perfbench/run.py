#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the oafinder pipeline.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn
    python3 perfbench/run.py --smoke

One run takes one workload from BENCHMARK.json. Set-up generates the corpus
and mock web with ``oafinder synth`` from the workload's spec and --seed
(offline-resume also prepares a half-done detect journal); it is repeated
SETUP_REPEATS times and timed each time. The run then repeats whole rounds
of ``detect``, ``analyze``, ``cohorts``, ``correlate`` and ``audit`` through
``oafinder.cli.main`` in this process until --seconds have passed, checks
the outputs against perfbench/checks.py, and prints the metrics of the
mode as the last line of standard output, one JSON object.

--trace 0 reports the end-to-end metrics, medians over the rounds. Set-up
then runs in child processes, so that this process's peak resident memory
is that of the pipeline stages. --trace 1 sets up once in this process, then
alternates untraced rounds with rounds in which perfbench/tracer.py wraps
the program's public functions (at least two of each), and reports the
per-layer metrics.

--smoke runs every workload at a tiny size, once untraced and twice traced,
and checks only that each passes its checks, that the outputs are
byte-identical between the runs and that the traced call counts repeat.
It asserts no timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

STAGES = ("detect", "analyze", "cohorts", "correlate", "audit")
STAGE_OUTPUTS = {"detect": ("detections.jsonl",),
                 **{stage: tuple(f"reports/{name}" for name in names)
                    for stage, names in checks.REPORT_FILES.items()}}

SETUP_REPEATS = 3
SAMPLE_SIZE = 100  # audit sample per verdict class
RESUME_WORKLOADS = {"offline-resume"}  # set-up leaves a half-done journal
CHILD_TIMEOUT_S = 170

SMOKE_ARTICLES = 400
SMOKE_SAMPLE_SIZE = 10


class BenchError(RuntimeError):
    pass


def load_program():
    """Import oafinder from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        from oafinder import cli
    except ImportError as exc:
        raise BenchError(f"cannot import oafinder from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"oafinder was imported from {cli.__file__}, not {SRC}")
    return cli


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    return file_digest(sorted(p for p in root.rglob("*") if p.is_file()))


class Workload:
    """One workload's inputs and the commands of its pipeline round."""

    def __init__(self, name: str, seed: int, work: Path, *,
                 n_articles=None, sample_size=SAMPLE_SIZE):
        self.name, self.seed, self.work = name, seed, work
        self.sample_size = sample_size
        self.resume = name in RESUME_WORKLOADS
        self.corpus = work / "corpus"
        self.records = self.corpus / "records.jsonl"
        self.detections = work / "detections.jsonl"
        self.journal = work / "journal.jsonl" if self.resume else None
        self.spec = HERE / "workloads" / f"{name}.cfg"
        if not self.spec.exists():
            raise BenchError(f"no spec for workload {name}: {self.spec}")
        work.mkdir(parents=True, exist_ok=True)
        if n_articles is not None:
            text = self.spec.read_text(encoding="utf-8")
            lines = [f"n_articles = {n_articles}"
                     if line.split("=")[0].strip() == "n_articles" else line
                     for line in text.splitlines()]
            self.spec = work / f"{name}.cfg"
            self.spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (work / "audit.cfg").write_text(f"sample_size = {sample_size}\n",
                                        encoding="utf-8")

    def setup_commands(self):
        yield ["synth", "--spec", str(self.spec), "--seed", str(self.seed),
               "--out", str(self.corpus)]
        if self.resume:
            # A detect over every other record leaves a journal of whole
            # lines; the timed detect resumes from a copy of it.
            half = self.work / "half.jsonl"
            lines = self.records.read_text(encoding="utf-8").splitlines(True)
            half.write_text("".join(lines[::2]), encoding="utf-8")
            yield ["detect", "--records", str(half), "--detections",
                   str(self.journal), "--mock-web", str(self.corpus / "mockweb")]

    def stage_argv(self, stage: str):
        files = ["--records", str(self.records),
                 "--detections", str(self.detections)]
        out = ["--out", str(self.work / "reports")]
        if stage == "detect":
            return ["detect", *files, "--mock-web", str(self.corpus / "mockweb")]
        if stage == "audit":
            return ["audit", "--config", str(self.work / "audit.cfg"),
                    "--detections", str(self.detections), "--ground-truth",
                    str(self.corpus / "ground_truth.jsonl"),
                    "--seed", str(self.seed), *out]
        return [stage, *files, *out]

    def clear_setup(self):
        shutil.rmtree(self.corpus, ignore_errors=True)
        if self.journal is not None:
            self.journal.unlink(missing_ok=True)

    def reset_round(self):
        if self.resume:
            shutil.copyfile(self.journal, self.detections)
        elif self.detections.exists():
            self.detections.unlink()

    def n_records(self) -> int:
        with open(self.records, "rb") as fh:
            return sum(1 for line in fh if line.strip())


def run_cli(cli, argv) -> int:
    """cli.main(argv) in this process, its output kept off our stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed command, not a failed run
        err.write(traceback.format_exc())
        code = -1
    if code != 0:
        print(f"perfbench: {argv[0]} exited {code}: {err.getvalue()[-2000:]}",
              file=sys.stderr)
    return code


def run_child(argv) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "oafinder.cli", *argv],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"perfbench: {argv[0]} exited {proc.returncode}: "
              f"{proc.stderr.decode('utf-8', 'replace')[-2000:]}", file=sys.stderr)
    return proc.returncode


def set_up(wl: Workload, cli, in_process: bool) -> float:
    """One timed set-up; returns its wall time in seconds."""
    wl.clear_setup()
    t0 = time.perf_counter()
    for argv in wl.setup_commands():
        code = run_cli(cli, argv) if in_process else run_child(argv)
        if code != 0:
            raise BenchError(f"set-up command {argv[0]} failed with exit {code}")
    return time.perf_counter() - t0


def run_round(wl: Workload, cli) -> dict:
    """One pipeline round: per-stage wall time, exit code and output digest."""
    wl.reset_round()
    gc.collect()
    times, codes = {}, {}
    for stage in STAGES:
        argv = wl.stage_argv(stage)
        t0 = time.perf_counter()
        codes[stage] = run_cli(cli, argv)
        times[stage] = time.perf_counter() - t0
    digests = {stage: file_digest(wl.work / name for name in STAGE_OUTPUTS[stage])
               for stage in STAGES}
    return {"times": times, "codes": codes, "digests": digests}


def count_failures(rounds, found, n_records) -> int:
    """Failed operations of all rounds, judged by the checks of the last
    round's outputs. A command fails on a non-zero exit, a failed check, or
    output that differs from the last round's; a round whose evidence
    differs from the checked evidence fails every article."""
    final = rounds[-1]["digests"]
    failed = 0
    for r in rounds:
        failed += sum(1 for stage in STAGES
                      if r["codes"][stage] != 0 or r["digests"][stage] != final[stage]
                      or found.problems.get(stage))
        failed += (found.article_failures if r["digests"]["detect"] == final["detect"]
                   else n_records)
    return failed


def end_to_end(rounds, n_records) -> dict:
    detect = [r["times"]["detect"] for r in rounds]
    reports = [sum(r["times"][s] for s in STAGES[1:]) for r in rounds]
    return {
        "detect_articles_per_s": statistics.median(n_records / t for t in detect),
        "reports_s": statistics.median(reports),
        "pipeline_s": statistics.median(d + r for d, r in zip(detect, reports)),
    }


# Per-layer metrics from the traced rounds: (metric, span name, kind) with
# kind "calls" (a count) or "self" (self time in seconds).
LAYER_SPANS = (
    ("cli.detect_s", "cli.cmd_detect", "self"),
    ("cli.analyze_s", "cli.cmd_analyze", "self"),
    ("cli.cohorts_s", "cli.cmd_cohorts", "self"),
    ("cli.correlate_s", "cli.cmd_correlate", "self"),
    ("cli.audit_s", "cli.cmd_audit", "self"),
    ("corpus.load_mock_web_s", "corpus.load_mock_web", "self"),
    ("corpus.fetch_calls", "corpus.MockFetcher.fetch", "calls"),
    ("corpus.query_calls", "corpus.MockSearchProvider.query", "calls"),
    ("crawl.detect_oa_calls", "crawl.detect_oa", "calls"),
    ("crawl.detect_oa_s", "crawl.detect_oa", "self"),
    ("extract.extract_text_calls", "extract.extract_text", "calls"),
    ("extract.extract_text_s", "extract.extract_text", "self"),
    ("extract.parse_html_calls", "extract.parse_html", "calls"),
    ("extract.parse_html_s", "extract.parse_html", "self"),
    ("match.match_full_text_calls", "match.match_full_text", "calls"),
    ("match.match_full_text_s", "match.match_full_text", "self"),
    ("match.contains_title_calls", "match.contains_title", "calls"),
    ("match.contains_title_s", "match.contains_title", "self"),
    ("match.extract_candidate_links_calls", "match.extract_candidate_links", "calls"),
    ("match.extract_candidate_links_s", "match.extract_candidate_links", "self"),
    ("match.tokenize_calls", "match.tokenize_with_offsets", "calls"),
    ("urls.normalize_url_calls", "urls.normalize_url", "calls"),
    ("urls.normalize_url_s", "urls.normalize_url", "self"),
    ("urls.dedup_urls_s", "urls.dedup_urls", "self"),
    ("records.load_records_calls", "records.load_records", "calls"),
    ("records.load_records_s", "records.load_records", "self"),
    ("records.load_detections_calls", "records.load_detections", "calls"),
    ("records.load_detections_s", "records.load_detections", "self"),
    ("records.detection_to_json_calls", "records.detection_to_json", "calls"),
    ("records.detection_to_json_s", "records.detection_to_json", "self"),
    ("records.apply_detections_s", "records.apply_detections", "self"),
    ("metrics.apply_exclusions_s", "metrics.apply_exclusions", "self"),
    ("metrics.percent_oa_s", "metrics.percent_oa", "self"),
    ("metrics.aggregate_advantage_s", "metrics.aggregate_advantage", "self"),
    ("metrics.cohort_table_s", "metrics.cohort_table", "self"),
    ("stats.correlate_calls", "stats.correlate", "calls"),
    ("stats.correlate_s", "stats.correlate", "self"),
    ("stats.sdt_analysis_s", "stats.sdt_analysis", "self"),
    ("stats.betainc_reg_calls", "stats.betainc_reg", "calls"),
)
SETUP_SPANS = (
    ("corpus.generate_s", "corpus.generate_corpus"),
    ("corpus.export_s", "corpus.export_corpus"),
)
HTML_FETCH = "corpus.MockFetcher.fetch"


def is_html_page(result) -> bool:
    return result.ok and result.format_tag in ("html", "xml")


def layer_metrics(calls, self_s, hits, n_records) -> dict:
    """Per-layer metrics of one traced round; each ratio names its base."""
    def ratio(count, base):
        return count / base if base else 0.0

    out = {metric: (calls[span] if kind == "calls" else self_s[span])
           for metric, span, kind in LAYER_SPANS}
    out["metrics.write_csv_s"] = sum(
        t for span, t in self_s.items()
        if span.startswith("metrics.write_") and span.endswith("_csv"))
    out["crawl.fetches_per_article"] = ratio(
        calls["corpus.MockFetcher.fetch"], calls["crawl.detect_oa"])
    out["extract.parses_per_html_fetch"] = ratio(
        calls["extract.parse_html"], hits[HTML_FETCH])
    out["match.tokenizations_per_page"] = ratio(
        calls["match.tokenize_with_offsets"], calls["extract.extract_text"])
    out["records.serializations_per_article"] = ratio(
        calls["records.detection_to_json"], n_records)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            setup_repeats=SETUP_REPEATS, n_articles=None,
            sample_size=SAMPLE_SIZE):
    """Run one workload; returns (metrics, attempted, failed, details)."""
    cli = load_program()
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = Workload(name, seed, work, n_articles=n_articles,
                      sample_size=sample_size)
        return _measure(wl, cli, seconds, trace, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(wl, cli, seconds, trace, setup_repeats):
    metrics, problems = {}, []
    tracer = Tracer(probes={HTML_FETCH: is_html_page}) if trace else None
    if trace:
        lo = tracer.mark()
        with tracer.patched():
            set_up(wl, cli, in_process=True)
        _, setup_self, _ = tracer.aggregate(lo, tracer.mark())
        metrics.update({metric: setup_self[span] for metric, span in SETUP_SPANS})
        setup_commands = 1 + wl.resume
    else:
        setup_times, corpus_digests = [], set()
        for _ in range(setup_repeats):
            setup_times.append(set_up(wl, cli, in_process=False))
            corpus_digests.add(tree_digest(wl.corpus))
        metrics["setup_s"] = statistics.median(setup_times)
        if len(corpus_digests) != 1:
            problems.append("setup: corpora differ between set-ups of one seed")
        setup_commands = setup_repeats * (1 + wl.resume)
    n_records = wl.n_records()

    # Whole rounds only: stop when one more round of the last one's length
    # would end past --seconds.
    rounds, untraced, traced = [], [], []
    t0 = time.perf_counter()

    def time_left(last_start):
        now = time.perf_counter()
        return now - t0 + (now - last_start) <= seconds

    if trace:
        # Untraced and traced rounds alternate, so that a drift in machine
        # speed does not show up as tracing overhead.
        while True:
            start = time.perf_counter()
            untraced.append(run_round(wl, cli))
            lo = tracer.mark()
            with tracer.patched():
                traced_round = run_round(wl, cli)
            traced.append((traced_round, tracer.aggregate(lo, tracer.mark())))
            rounds += [untraced[-1], traced_round]
            if len(traced) >= 2 and not time_left(start):
                break
    else:
        while True:
            start = time.perf_counter()
            rounds.append(run_round(wl, cli))
            if not time_left(start):
                break
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics.update(end_to_end(rounds, n_records))

    found = checks.check_run(wl.work, wl.sample_size, wl.journal)
    attempted = setup_commands + len(rounds) * (len(STAGES) + n_records)
    failed = len(problems) + count_failures(rounds, found, n_records)
    for stage, msgs in found.problems.items():
        problems.extend(f"{stage}: {m}" for m in msgs[:5])
    problems.extend(f"article {m}" for m in found.article_examples)

    if trace:
        per_round = [layer_metrics(*agg, n_records) for _, agg in traced]
        for metric in per_round[0]:
            values = [m[metric] for m in per_round]
            if metric.endswith("_calls"):
                if len(set(values)) != 1:
                    problems.append(f"trace: {metric} differs between rounds: {values}")
                metrics[metric] = values[0]
            else:
                metrics[metric] = statistics.median(values)
        metrics["trace.spans"] = sum(traced[0][1][0].values())
        metrics["trace.pipeline_s"] = end_to_end([r for r, _ in traced],
                                                 n_records)["pipeline_s"]
        metrics["trace.overhead_s"] = (metrics["trace.pipeline_s"]
                                       - end_to_end(untraced, n_records)["pipeline_s"])
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{wl.name}-s{wl.seed}.tsv.gz")
    details = {"rounds": len(rounds), "problems": problems,
               "outputs_sha256": file_digest(
                   wl.work / name for stage in STAGES
                   for name in STAGE_OUTPUTS[stage]),
               "calls": {k: v for k, v in metrics.items() if k.endswith("_calls")}}
    return metrics, attempted, failed, details


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(bench, workload, metrics, attempted, failed, details, trace) -> dict:
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    print(f"workload {workload}: {details['rounds']} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  outputs sha256 {details['outputs_sha256']}")
    for problem in details["problems"]:
        print(f"  FAILED {problem}")
    return {"correct": failed == 0 and not details["problems"],
            "attempted": attempted, "failed": failed, "metrics": out}


def smoke(bench) -> int:
    """Every workload at a tiny size: checks pass, reruns agree; no timing."""
    ok = True
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = [measure(name, 1, 0, trace, setup_repeats=1,
                        n_articles=SMOKE_ARTICLES, sample_size=SMOKE_SAMPLE_SIZE)
                for trace in (False, True, True)]
        problems = [p for _, _, _, d in runs for p in d["problems"]]
        problems += [f"{f} operations failed" for _, _, f, _ in runs if f]
        if len({d["outputs_sha256"] for _, _, _, d in runs}) != 1:
            problems.append("outputs differ between runs of one seed")
        if runs[1][3]["calls"] != runs[2][3]["calls"]:
            problems.append("traced call counts differ between two traced runs")
        for trace, (metrics, attempted, failed, details) in zip((0, 1, 1), runs):
            report(bench, name, metrics, attempted, failed, details, trace)
        print(f"smoke {name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def run_all(names, seed, seconds, trace) -> int:
    """Every workload in turn, each in its own process so that each reads
    its own peak resident memory."""
    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)]).returncode
             for name in names]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        if args.smoke:
            return smoke(bench)
        names = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        if args.workload is None:
            return run_all(names, args.seed, seconds, args.trace)
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        metrics, attempted, failed, details = measure(
            args.workload, args.seed, seconds, bool(args.trace))
        result = report(bench, args.workload, metrics, attempted, failed,
                        details, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
