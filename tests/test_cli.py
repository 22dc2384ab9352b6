"""End-to-end command-line tests: exit codes, config handling, resumable
detection, and byte-identical reruns."""

import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from oafinder import cli, corpus, records
from oafinder.cli import main
from oafinder.corpus import CorpusSpec, export_corpus, generate_corpus
from oafinder.records import (
    DetectionEvidence,
    Verdict,
    load_detections,
    save_detections,
)
from oafinder.robot.crawl import CrawlConfig


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    export_corpus(generate_corpus(CorpusSpec(n_articles=60, seed=21)), out)
    return out


def run_detect(corpus_dir, det_path):
    return main(["detect", "--records", str(corpus_dir / "records.jsonl"),
                 "--detections", str(det_path),
                 "--mock-web", str(corpus_dir / "mockweb")])


@pytest.fixture(scope="module")
def detections(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("det") / "detections.jsonl"
    assert run_detect(corpus_dir, path) == 0
    return path


def write_report_config(tmp_path, corpus_dir, detections, extra):
    """A config for the report, audit and detect commands, with one extra
    line (line 7) that may override a key before it."""
    cfg = tmp_path / "reports.cfg"
    cfg.write_text(f"""
records = {corpus_dir / 'records.jsonl'}
detections = {detections}
ground_truth = {corpus_dir / 'ground_truth.jsonl'}
out = {tmp_path / 'r'}
sample_size = 5
{extra}
mock_web = {corpus_dir / 'mockweb'}
""")
    return cfg


class TestExitCodes:
    def test_missing_records_file(self, tmp_path):
        assert main(["detect", "--records", str(tmp_path / "nope.jsonl"),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(tmp_path)]) == 2

    def test_missing_required_key(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "r")]) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("records\n")
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_unknown_status_blocks_analysis(self, corpus_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        save_detections([], empty)
        assert main(["analyze",
                     "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(empty),
                     "--out", str(tmp_path / "r")]) == 3

    def test_allow_unknown_drops_and_succeeds(self, corpus_dir, detections,
                                              tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        evs = load_detections(detections)
        save_detections(evs[: len(evs) // 2], partial)
        code = main(["analyze",
                     "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(partial),
                     "--out", str(tmp_path / "r"), "--allow-unknown"])
        assert code == 0
        assert "dropping" in capsys.readouterr().err

    def test_audit_insufficient_sample(self, corpus_dir, detections, tmp_path):
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  "sample_size = 10000")
        assert main(["audit", "--config", str(cfg)]) == 4

    def test_empty_records_detect_ok(self, corpus_dir, tmp_path):
        empty = tmp_path / "records.jsonl"
        empty.write_text("")
        assert main(["detect", "--records", str(empty),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(corpus_dir / "mockweb")]) == 0

    @pytest.mark.parametrize("cmd,key", [
        ("analyze", "detections"), ("cohorts", "detections"),
        ("correlate", "detections"), ("audit", "detections"),
        ("audit", "ground_truth"),
    ])
    def test_malformed_input_file(self, cmd, key, corpus_dir, detections,
                                  tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text({"detections": '{"article_id": "a0"}\n',
                        "ground_truth": '{"oa": true}\n'}[key])
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"{key} = {bad}")
        assert main([cmd, "--config", str(cfg)]) == 2
        assert f"{bad}:1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,line", [
        ("audit", "sample_size = abc"),
        ("audit", "seed = x"),
        ("audit", "sample_size = 0"),
        ("analyze", "weighting = bogus"),
        ("correlate", "weighting = bogus"),
        # checked at start-up, though no page of this corpus needs it
        ("detect", "converter = cat {input}"),
        ("detect", "converter = cat {}"),
        ("detect", "converter = cat {in"),
    ])
    def test_bad_value(self, cmd, line, corpus_dir, detections, tmp_path,
                       capsys):
        cfg = write_report_config(tmp_path, corpus_dir, detections, line)
        assert main([cmd, "--config", str(cfg)]) == 2
        if line.startswith("converter"):
            assert "bad value for converter" in capsys.readouterr().err

    def test_detections_in_missing_directory(self, corpus_dir, tmp_path,
                                             capsys):
        path = tmp_path / "no-such-dir" / "d.jsonl"
        assert run_detect(corpus_dir, path) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "max_depth = banana",
        "max_links_followed_per_page = -1",
        "title_similarity_threshold = 1.5",
        "title_similarity_threshold = 0",
        # No longer a crawl key: an old config that sets it exits 2.
        "per_host_rate = -2",
    ])
    def test_bad_crawl_config_value(self, line, corpus_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""
records = {corpus_dir / 'records.jsonl'}
detections = {tmp_path / 'd.jsonl'}
mock_web = {corpus_dir / 'mockweb'}
{line}
""")
        assert main(["detect", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", [
        "years = 1992",
        "years = 1992-1995-1999",
        "journals_per_discipline = 0",
        "issues_per_year = 0",
        "oa_probability = 1.5",
        "oa_probability = biology:2",
        "mean_cited = -3",
        "chain_depth_distribution = 0:1.5,1:-0.5",
    ])
    def test_bad_spec_value(self, line, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"n_articles = 20\n{line}\n")
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "c")]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["detect", "analyze", "cohorts",
                                     "correlate"])
    def test_duplicate_record_id(self, cmd, corpus_dir, detections, tmp_path,
                                 capsys):
        # Four lines, the fourth repeating the first line's id.
        lines = (corpus_dir / "records.jsonl").read_text().splitlines()
        recs = tmp_path / "records.jsonl"
        recs.write_text("\n".join(lines[:3] + [lines[0]]) + "\n")
        first_id = json.loads(lines[0])["id"]
        argv = [cmd, "--records", str(recs),
                "--detections", str(tmp_path / "d.jsonl")]
        argv += (["--mock-web", str(corpus_dir / "mockweb")]
                 if cmd == "detect" else ["--out", str(tmp_path / "r")])
        if cmd != "detect":
            (tmp_path / "d.jsonl").write_bytes(detections.read_bytes())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{recs}:4" in err and repr(first_id) in err
        assert "first on line 1" in err

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("# 20 articles\nn_article = 20\n")
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "c")]) == 2
        assert f"{spec}:2: unknown key 'n_article'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_unknown_config_key(self, corpus_dir, detections, tmp_path,
                                capsys):
        # A typo, and keys that old configs set but nothing reads any more.
        for key, value in (("max_dept", "0"), ("per_host_rate", "1.0")):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"""records = {corpus_dir / 'records.jsonl'}
detections = {tmp_path / 'd.jsonl'}
mock_web = {corpus_dir / 'mockweb'}
{key} = {value}
""")
            assert main(["detect", "--config", str(cfg)]) == 2
            assert f"{cfg}:4: unknown key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "d.jsonl").exists()
        for cmd in ("analyze", "correlate"):
            cfg = write_report_config(tmp_path, corpus_dir, detections,
                                      "weighting = bogus")
            assert main([cmd, "--config", str(cfg)]) == 2
            assert f"{cfg}:7: unknown key 'weighting'" in \
                capsys.readouterr().err

    def test_cast_tables_match_dataclasses(self):
        # A field deleted with its cast left behind would turn that config
        # line into a TypeError from the constructor, not exit 2.
        assert set(cli._CRAWL_CASTS) == {f.name for f in fields(CrawlConfig)}
        assert set(cli._SPEC_CASTS) == {f.name for f in fields(CorpusSpec)}

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg_path = tmp_path / "readme.cfg"
        cfg_path.write_text(block)
        cfg = cli.read_config(cfg_path, cli.KNOWN_KEYS)
        assert cli._crawl_config(cfg).max_depth == int(cfg["max_depth"])
        assert cli._cast_values(cfg, cli._AUDIT_CASTS) == {
            "sample_size": 100, "seed": 0}

    @pytest.mark.parametrize("argv", [
        ["detect", "--seed", "1"],
        ["analyze", "--seed", "1"],
        ["cohorts", "--seed", "1"],
        ["correlate", "--seed", "1"],
        ["audit", "--records", "r.jsonl"],
    ], ids=" ".join)
    def test_unread_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("body", [
        '{"pages": {}}',
        '[]',
        '{"pages": {"http://h.example/": {"file": "p.html"}},'
        ' "queries": {}, "dead_links": []}',
    ])
    def test_malformed_mock_web_index(self, body, corpus_dir, tmp_path,
                                      capsys):
        web = tmp_path / "mockweb"
        web.mkdir()
        (web / "index.json").write_text(body)
        assert main(["detect", "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(web)]) == 2
        assert "index.json" in capsys.readouterr().err


class TestDetect:
    def test_covers_every_record(self, corpus_dir, detections):
        evs = load_detections(detections)
        assert len(evs) == 60
        ids = {json.loads(line)["id"]
               for line in (corpus_dir / "records.jsonl").read_text().splitlines()}
        assert {ev.article_id for ev in evs} == ids

    def test_rerun_is_byte_identical(self, corpus_dir, detections, tmp_path):
        again = tmp_path / "again.jsonl"
        assert run_detect(corpus_dir, again) == 0
        assert again.read_bytes() == detections.read_bytes()

    def test_resume_from_truncated_journal(self, corpus_dir, detections,
                                           tmp_path, capsys):
        # A kill can cut the journal at any byte of the line being written;
        # resuming drops that line and detects its article again.
        partial = tmp_path / "resume.jsonl"
        lines = detections.read_bytes().splitlines(keepends=True)
        for cut in range(len(lines[25])):
            partial.write_bytes(b"".join(lines[:25]) + lines[25][:cut])
            assert run_detect(corpus_dir, partial) == 0, cut
            assert partial.read_bytes() == detections.read_bytes(), cut
            assert ("cut-off" in capsys.readouterr().err) == (cut > 0), cut

    def test_fresh_run_serializes_each_article_once(
            self, corpus_dir, detections, tmp_path, monkeypatch):
        # A journal this run started is already in records order, so
        # nothing is serialized a second time to compact it.
        calls = {"detection_to_json": 0, "save_detections": 0}
        for name in calls:
            def counted(*args, _inner=getattr(records, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(records, name, counted)
        fresh = tmp_path / "fresh.jsonl"
        assert run_detect(corpus_dir, fresh) == 0
        assert calls == {"detection_to_json": 60, "save_detections": 0}
        assert fresh.read_bytes() == detections.read_bytes()

    def test_resume_from_out_of_order_journal(self, corpus_dir, detections,
                                              tmp_path):
        # Every other record, newest first: the resumed run appends the
        # rest and compacts the journal into records order.
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(reversed(lines[::2])))
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()

    def test_resume_from_journal_with_timestamps(self, corpus_dir,
                                                 detections, tmp_path):
        # An older journal, each line carrying a timestamp, resumes to the
        # same verdicts; compacting it drops the key.
        lines = detections.read_text(encoding="utf-8").splitlines()
        old = [json.dumps(dict(json.loads(line), timestamp=1.0),
                          ensure_ascii=False, sort_keys=True)
               for line in lines[:30]]
        partial = tmp_path / "resume.jsonl"
        partial.write_text("\n".join(old) + "\n", encoding="utf-8")
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()
        assert b"timestamp" not in partial.read_bytes()

    def test_flag_overrides_config(self, corpus_dir, detections, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"""
records = {tmp_path / 'does-not-exist.jsonl'}
detections = {tmp_path / 'out.jsonl'}
mock_web = {corpus_dir / 'mockweb'}
""")
        code = main(["detect", "--config", str(cfg),
                     "--records", str(corpus_dir / "records.jsonl")])
        assert code == 0


class TestReports:
    def run_reports(self, cmd, corpus_dir, detections, out):
        return main([cmd, "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(detections), "--out", str(out)])

    @pytest.mark.parametrize("cmd,files", [
        ("analyze", ["exclusions.csv", "oa_share_by_discipline.csv",
                     "oa_share_by_country.csv", "oa_share_by_year.csv",
                     "advantage_by_discipline.csv", "advantage_by_year.csv"]),
        ("cohorts", ["cohorts_yearly.csv", "cohorts_pooled.csv"]),
        ("correlate", ["correlations.csv"]),
    ])
    def test_writes_expected_files(self, cmd, files, corpus_dir, detections,
                                   tmp_path):
        out = tmp_path / "reports"
        assert self.run_reports(cmd, corpus_dir, detections, out) == 0
        for name in files:
            assert (out / name).exists(), name

    @pytest.mark.parametrize("cmd", ["analyze", "cohorts", "correlate"])
    def test_rerun_byte_identical(self, cmd, corpus_dir, detections, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self.run_reports(cmd, corpus_dir, detections, out1) == 0
        assert self.run_reports(cmd, corpus_dir, detections, out2) == 0
        for p in sorted(out1.iterdir()):
            assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name

    def test_audit_writes_sdt_csv(self, corpus_dir, detections, tmp_path):
        cfg = write_report_config(tmp_path, corpus_dir, detections, "")
        assert main(["audit", "--config", str(cfg)]) == 0
        body = (tmp_path / "r" / "sdt.csv").read_text()
        assert "d_prime" in body


# sha256 of `evaluate --seed 4 --sample-size 50` (see run_digest). A change
# that alters outputs on purpose updates it and says so.
GOLDEN_EVALUATE_SHA256 = (
    "efd0d845eda4a148b330f65daee4d9663a1c93c174506e466ee0ff4086cb8f01")


def run_digest(out, stdout: str) -> str:
    """sha256 over every file of a run directory but run.cfg, each as its
    relative path and bytes in sorted path order, then stdout with the run
    directory replaced by a placeholder."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file() and p != out / "run.cfg"):
        data = (out / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode() + data)
    h.update(stdout.replace(str(out), "<run>").encode())
    return h.hexdigest()


class TestSynthAndEvaluate:
    def test_synth_writes_corpus(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 30\nseed = 2\n")
        out = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "records.jsonl").exists()
        assert (out / "mockweb" / "index.json").exists()
        assert (out / "ground_truth.jsonl").exists()

    def test_synth_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 30\nseed = 2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a),
                     "--seed", "99"]) == 0
        assert main(["synth", "--out", str(b), "--seed", "99"]) == 0
        # different n_articles would differ; same seed + same spec matches
        assert main(["synth", "--spec", str(spec), "--out",
                     str(tmp_path / "c"), "--seed", "99"]) == 0
        assert (a / "records.jsonl").read_bytes() == \
            (tmp_path / "c" / "records.jsonl").read_bytes()

    def test_evaluate_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 120\noa_probability = 0.3\n")
        out = tmp_path / "run"
        code = main(["evaluate", "--spec", str(spec), "--out", str(out),
                     "--seed", "3", "--sample-size", "20"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "evaluate summary" in captured
        assert (out / "reports" / "sdt.csv").exists()
        assert (out / "reports" / "correlations.csv").exists()
        assert (out / "detections.jsonl").exists()

    def test_evaluate_rerun_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 60\noa_probability = 0.3\n")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["evaluate", "--spec", str(spec), "--out", str(out),
                         "--seed", "8", "--sample-size", "10"]) == 0
            outs.append(out)
        files1 = sorted(p for p in outs[0].rglob("*")
                        if p.is_file() and p.name != "run.cfg")
        for p in files1:
            rel = p.relative_to(outs[0])
            assert (outs[1] / rel).read_bytes() == p.read_bytes(), str(rel)

    def test_evaluate_run_cfg_reruns_a_stage(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 60\noa_probability = 0.3\n")
        out = tmp_path / "run"
        assert main(["evaluate", "--spec", str(spec), "--out", str(out),
                     "--seed", "4", "--sample-size", "10"]) == 0
        assert set(cli.read_config(out / "run.cfg", cli.KNOWN_KEYS)) == {
            "records", "detections", "mock_web", "ground_truth", "out",
            "sample_size", "seed"}
        for cmd in ("analyze", "audit"):
            assert main([cmd, "--config", str(out / "run.cfg")]) == 0

    def test_evaluate_reads_nothing_back(self, tmp_path, monkeypatch):
        # Each stage gets what the one before it returned, so evaluate
        # loads none of the files it writes.
        calls = {}
        for mod, name in ((cli, "load_records"), (cli, "load_detections"),
                          (corpus, "load_mock_web"),
                          (corpus, "load_ground_truth")):
            def counted(*args, _load=getattr(mod, name), _name=name):
                calls[_name] += 1
                return _load(*args)
            calls[name] = 0
            monkeypatch.setattr(mod, name, counted)
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 60\noa_probability = 0.3\n")
        assert main(["evaluate", "--spec", str(spec), "--out",
                     str(tmp_path / "run"), "--seed", "4",
                     "--sample-size", "10"]) == 0
        assert calls == {"load_records": 0, "load_detections": 0,
                         "load_mock_web": 0, "load_ground_truth": 0}

    def test_evaluate_rerun_other_seed(self, tmp_path):
        # Article ids repeat across seeds, so a journal left by another
        # seed's run must not be resumed.
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 60\noa_probability = 0.3\n")
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        for out, seed in ((again, "4"), (again, "5"), (fresh, "5")):
            assert main(["evaluate", "--spec", str(spec), "--out", str(out),
                         "--seed", seed, "--sample-size", "10"]) == 0
        assert (again / "detections.jsonl").read_bytes() == \
            (fresh / "detections.jsonl").read_bytes()

    def test_evaluate_golden(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evaluate", "--out", str(out), "--seed", "4",
                     "--sample-size", "50"]) == 0
        assert run_digest(out, capsys.readouterr().out) == \
            GOLDEN_EVALUATE_SHA256


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self, tmp_path):
        from oafinder.cli import read_config
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nkey = value\nother=1\n")
        assert read_config(cfg) == {"key": "value", "other": "1"}

    def test_detections_output_is_sorted_json(self, detections):
        for line in detections.read_text().splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
