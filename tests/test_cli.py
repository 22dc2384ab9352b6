"""End-to-end command-line tests: exit codes, config handling, resumable
detection, and byte-identical reruns."""

import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from oafinder import cli, corpus, metrics, records
from oafinder.cli import main
from oafinder.corpus import (
    AuditConfig,
    CorpusSpec,
    export_corpus,
    generate_corpus,
)
from oafinder.records import (
    DetectionEvidence,
    Verdict,
    load_detections,
    save_rows,
)


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


def count_loads(monkeypatch):
    """Wrap every reader of a command's input files; returns a Counter of
    calls by reader name."""
    calls = Counter()
    for mod, name in ((cli, "iter_records"), (cli, "load_detections"),
                      (cli, "load_verdicts"),
                      (corpus, "load_mock_web"),
                      (corpus, "load_ground_truth")):
        def counted(*args, _load=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _load(*args)
        monkeypatch.setattr(mod, name, counted)
    return calls


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


# A records line that loads; each malformed case changes one field.
GOOD_RECORD = {"id": "a0", "first_author_surname": "Smith", "title": "A title",
               "journal_id": "j1", "issue_key": "j1|1999|1", "year": 1999,
               "discipline": "biology", "country": "US", "citation_count": 0}


class TestExitCodes:
    def test_python_m_help(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "oafinder", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage: oafinder" in proc.stdout

    def test_missing_records_file(self, corpus_dir, tmp_path, monkeypatch):
        # The records stream opens its file before the mock web is read or
        # the journal opened.
        calls = count_loads(monkeypatch)
        assert main(["detect", "--records", str(tmp_path / "nope.jsonl"),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(corpus_dir / "mockweb")]) == 2
        assert calls == Counter({"iter_records": 1})
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("cmd,name", [("detect", "detect_oa"),
                                          ("analyze", "Tally")])
    def test_fault_past_the_read_is_not_a_bad_records_file(
            self, cmd, name, corpus_dir, detections, tmp_path, monkeypatch):
        # Only the records read is an input error: a fault of the work
        # done on the streamed records propagates as itself.
        def fault(*args, **kwargs):
            raise ValueError("not a read fault")
        monkeypatch.setattr(cli if name == "detect_oa" else metrics, name,
                            fault)
        cfg = write_report_config(tmp_path, corpus_dir, detections, "")
        argv = [cmd, "--config", str(cfg)]
        if cmd == "detect":
            argv += ["--detections", str(tmp_path / "d.jsonl")]
        with pytest.raises(ValueError, match="not a read fault"):
            main(argv)

    def test_missing_required_key(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "r")]) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("records\n")
        assert main(["analyze", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("cmd,flag", [("synth", "--spec"),
                                          ("analyze", "--config")])
    def test_non_utf8_config_is_named(self, cmd, flag, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n_articles = 20\xff\n")
        assert main([cmd, flag, str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"cannot read config {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("inside", [False, True], ids=["file", "below"])
    @pytest.mark.parametrize("cmd", ["synth", "evaluate", "analyze", "cohorts",
                                     "correlate", "audit"])
    def test_out_that_cannot_be_a_directory(self, cmd, inside, corpus_dir,
                                            detections, tmp_path, capsys,
                                            monkeypatch):
        # A file stands where the out directory, or its parent, would go.
        # synth and evaluate find that out before they generate the corpus.
        generated = Counter()
        real_generate = corpus.generate_corpus

        def counted_generate(spec):
            generated["generate_corpus"] += 1
            return real_generate(spec)

        monkeypatch.setattr(corpus, "generate_corpus", counted_generate)
        blocker = tmp_path / "f"
        blocker.write_text("a file\n")
        out = blocker / "x" if inside else blocker
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 30\n")
        cfg = write_report_config(tmp_path, corpus_dir, detections, "")
        argv = (["--spec", str(spec)] if cmd in ("synth", "evaluate")
                else ["--config", str(cfg)])
        before = sorted(tmp_path.rglob("*"))
        assert main([cmd, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make out directory {out}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "a file\n"
        assert generated == Counter()

    def test_unknown_status_blocks_analysis(self, corpus_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        save_rows([], empty)
        assert main(["analyze",
                     "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(empty),
                     "--out", str(tmp_path / "r")]) == 3

    def test_records_line_oa_status_is_not_a_verdict(self, tmp_path, capsys):
        # Records files of an older format carry an "oa_status" key. A
        # record's verdict is its detection's alone: with no detection the
        # record is UNKNOWN, whatever the key says.
        recs = tmp_path / "records.jsonl"
        recs.write_text(json.dumps(dict(GOOD_RECORD, oa_status="OA")) + "\n")
        empty = tmp_path / "empty.jsonl"
        save_rows([], empty)
        assert main(["analyze", "--records", str(recs),
                     "--detections", str(empty),
                     "--out", str(tmp_path / "r")]) == 3
        assert "1 records have UNKNOWN status" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_allow_unknown_drops_and_succeeds(self, corpus_dir, detections,
                                              tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        evs = load_detections(detections)
        save_rows(evs[: len(evs) // 2], partial)
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

    @pytest.mark.parametrize("oa", [False, True])
    def test_audit_sample_lacks_a_true_class(self, oa, tmp_path, capsys):
        # Every sampled article has the same true class, so d' has no value.
        det = tmp_path / "d.jsonl"
        det.write_text("".join(
            f'{{"article_id": "a{i}", "verdict": "OA", "url": "http://h/{i}"}}\n'
            if i < 2 else f'{{"article_id": "a{i}", "verdict": "NOA"}}\n'
            for i in range(4)))
        gt = tmp_path / "gt.jsonl"
        gt.write_text("".join(
            f'{{"article_id": "a{i}", "oa": {str(oa).lower()}}}\n'
            for i in range(4)))
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"detections = {det}\nground_truth = {gt}\n"
                       f"out = {tmp_path / 'r'}\nsample_size = 2\n")
        assert main(["audit", "--config", str(cfg)]) == 4
        assert "true-" in capsys.readouterr().err

    def test_empty_records_detect_ok(self, corpus_dir, tmp_path):
        empty = tmp_path / "records.jsonl"
        empty.write_text("")
        assert main(["detect", "--records", str(empty),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(corpus_dir / "mockweb")]) == 0

    @pytest.mark.parametrize("cmd,key,line", [
        pytest.param(cmd, "detections", {"article_id": "a0"},
                     id=f"{cmd}-detections")
        for cmd in ("analyze", "cohorts", "correlate", "audit")
    ] + [
        pytest.param("audit", "ground_truth", {"oa": True},
                     id="audit-ground_truth"),
        # A JSON string is not a boolean, though bool("false") is True.
        pytest.param("audit", "ground_truth",
                     {"article_id": "a0", "oa": "false"},
                     id="audit-ground_truth-oa-string"),
        pytest.param("analyze", "detections",
                     {"article_id": "a0", "verdict": "NOA",
                      "low_confidence": "false"},
                     id="analyze-detections-low_confidence-string"),
    ] + [
        pytest.param("analyze", "records", dict(GOOD_RECORD, **{field: value}),
                     id=f"analyze-records-{field}-{value}")
        for field, value in (("title", 5), ("issue_key", 5),
                             ("first_author_surname", None),
                             ("discipline", 5), ("discipline", [1]))
    ] + [
        # An int field takes a JSON integer alone: int() would read 2.9,
        # true and "7" as 2, 1 and 7.
        pytest.param(cmd, key, dict(base, **{field: value}),
                     id=f"{cmd}-{key}-{field}-{json.dumps(value)}")
        for cmd, key, base, cases in (
            ("analyze", "records", GOOD_RECORD,
             (("citation_count", 2.9), ("citation_count", True),
              ("citation_count", "7"), ("year", "1999"), ("year", 1999.5))),
            ("analyze", "detections", {"article_id": "a0", "verdict": "NOA"},
             (("depth", 1.9), ("depth", True), ("depth", "1"),
              ("article_id", 5))),
            ("audit", "ground_truth", {"article_id": "a0", "oa": True},
             (("chain_depth", 2.9), ("chain_depth", True),
              ("article_id", 5))))
        for field, value in cases
    ] + [
        # Every field is read by its type: a str or Optional[str] field
        # takes a JSON string (or null where Optional), an Optional[int] a
        # JSON integer or null.
        pytest.param(cmd, key, dict(base, **{field: value}),
                     id=f"{cmd}-{key}-{field}-{json.dumps(value)}")
        for cmd, key, base, cases in (
            ("analyze", "detections", {"article_id": "a0", "verdict": "NOA"},
             (("url", 5), ("match_head_offset", "x"),
              ("match_tail_marker", [1]), ("reason", {"a": 1}))),
            ("audit", "ground_truth", {"article_id": "a0", "oa": True},
             (("kind", 5), ("fulltext_url", 7), ("kind", None),
              ("kind", [1]))))
        for field, value in cases
    ] + [
        # "\ud800" is valid JSON, but UTF-8 cannot write it: a report would
        # fail on it after writing others.
        pytest.param("analyze", "records", dict(GOOD_RECORD, country="\ud800"),
                     id="analyze-records-country-lone-surrogate"),
    ] + [
        # A line that is JSON but not an object.
        pytest.param(cmd, key, value, id=f"{cmd}-{key}-{json.dumps(value)}")
        for cmd, key in (("analyze", "records"), ("analyze", "detections"),
                         ("audit", "ground_truth"))
        for value in ([1, 2], "x", 5, None)
    ])
    def test_malformed_input_file(self, cmd, key, line, corpus_dir, detections,
                                  tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(line) + "\n")
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"{key} = {bad}")
        assert main([cmd, "--config", str(cfg)]) == 2
        assert f"{bad}:1" in capsys.readouterr().err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits",
                                    lambda: 0)(),
                        reason="this Python reads an int of any length")
    def test_over_long_int_names_the_line(self, corpus_dir, detections,
                                          tmp_path, capsys):
        # Past Python's digit limit json raises a plain ValueError, not a
        # JSONDecodeError; the message still names the file and the line.
        bad = tmp_path / "bad.jsonl"
        long = json.dumps(GOOD_RECORD).replace(
            '"citation_count": 0', '"citation_count": ' + "9" * 5000)
        bad.write_text(json.dumps(dict(GOOD_RECORD, id="a1")) + "\n"
                       + long + "\n")
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"records = {bad}")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"{bad}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,key,line,missing", [
        ("analyze", "records",
         {k: v for k, v in GOOD_RECORD.items() if k != "title"}, "title"),
        ("analyze", "detections", {"article_id": "a0"}, "verdict"),
        ("audit", "ground_truth", {"article_id": "a0"}, "oa"),
    ])
    def test_missing_key_is_named(self, cmd, key, line, missing, corpus_dir,
                                  detections, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(line) + "\n")
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"{key} = {bad}")
        assert main([cmd, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err and repr(missing) in err

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
        # checked though every record has a verdict
        ("analyze", "allow_unknown = ture"),
        ("cohorts", "allow_unknown = maybe"),
        ("correlate", "allow_unknown = 2"),
    ])
    def test_bad_value(self, cmd, line, corpus_dir, detections, tmp_path,
                       capsys):
        cfg = write_report_config(tmp_path, corpus_dir, detections, line)
        assert main([cmd, "--config", str(cfg)]) == 2
        key = line.partition(" =")[0]
        if key in ("converter", "allow_unknown"):
            assert f"bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("value,code", [
        ("true", 0), ("TRUE", 0), ("1", 0), ("Yes", 0),
        ("false", 3), ("False", 3), ("0", 3), ("no", 3), ("", 3),
    ])
    def test_allow_unknown_config_values(self, value, code, corpus_dir,
                                         detections, tmp_path):
        partial = tmp_path / "partial.jsonl"
        save_rows(load_detections(detections)[:5], partial)
        cfg = write_report_config(tmp_path, corpus_dir, partial,
                                  f"allow_unknown = {value}")
        assert main(["analyze", "--config", str(cfg)]) == code

    def test_detections_in_missing_directory(self, corpus_dir, tmp_path,
                                             capsys):
        path = tmp_path / "no-such-dir" / "d.jsonl"
        assert run_detect(corpus_dir, path) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        # No longer crawl keys: an old config that sets one exits 2, even
        # to a value the crawl uses.
        "max_depth = banana",
        "max_depth = 4",
        "max_links_followed_per_page = -1",
        "title_similarity_threshold = 1.5",
        "title_similarity_threshold = 0",
        "title_similarity_threshold = 0.9",
        "per_host_rate = -2",
    ])
    def test_bad_crawl_config_value(self, line, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""
records = {corpus_dir / 'records.jsonl'}
detections = {tmp_path / 'd.jsonl'}
mock_web = {corpus_dir / 'mockweb'}
{line}
""")
        assert main(["detect", "--config", str(cfg)]) == 2
        assert f"unknown key {line.split(' =')[0]!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "years = 1992",
        "years = 1992-1995-1999",
        "journals_per_discipline = 0",
        "issues_per_year = 0",
        "oa_probability = 1.5",
        "oa_probability = biology:2",
        # No longer spec keys: a spec that sets one exits 2.
        "mean_cited = -3",
        "uncited_mass = 0.5",
        "chain_depth_distribution = 0:1.5,1:-0.5",
        # Both names would give the journals econ-j*, mixing their issues.
        "disciplines = economics, economy",
        "disciplines =",
        "disciplines = biology, , chemistry",
        # "|" separates discipline and year in oa_probability keys.
        "disciplines = bio|logy, chemistry",
        # _sample_citations would divide by log(1 - 1/mean) = 0.
        "oa_citation_multiplier = inf",
        "oa_citation_multiplier = 1e17",
        # NaN compares false with everything, so no range check sees it.
        "chain_depth_distribution = 0:nan,1:1",
        # Keys that name no discipline or year of the spec match nothing.
        "oa_probability = biolgy:0.5",
        "oa_probability = 1899:0.5",
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

    def test_duplicate_ground_truth_id(self, corpus_dir, detections,
                                       tmp_path, capsys):
        # Every line, then the second line again with its truth flipped:
        # neither row may win.
        lines = (corpus_dir / "ground_truth.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["oa"] = not row["oa"]
        truth = tmp_path / "ground_truth.jsonl"
        truth.write_text("\n".join(lines + [json.dumps(row)]) + "\n")
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"ground_truth = {truth}")
        assert main(["audit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad ground_truth file: {truth}:{len(lines) + 1}: "
            f"duplicate ground truth id {row['article_id']!r}, "
            f"first on line 2\n")
        assert not (tmp_path / "r" / "sdt.csv").exists()

    def test_unknown_spec_key(self, tmp_path, capsys):
        # A typo, a former crawl key, and an audit key, which only a
        # --config file may set.
        for key in ("n_article", "max_depth", "sample_size"):
            spec = tmp_path / "spec.cfg"
            spec.write_text(f"# 20 articles\n{key} = 0\n")
            assert main(["synth", "--spec", str(spec),
                         "--out", str(tmp_path / "c")]) == 2
            assert f"{spec}:2: unknown key {key!r}" in \
                capsys.readouterr().err
            assert not (tmp_path / "c").exists()

    def test_unknown_config_key(self, corpus_dir, detections, tmp_path,
                                capsys):
        # A typo, a key that old configs set but nothing reads any more,
        # and a spec key, which only a --spec file may set.
        for key, value in (("max_dept", "0"), ("per_host_rate", "1.0"),
                           ("n_articles", "5")):
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
        # Every field of a settings class is a key of its kind of file, and
        # the only other keys are the plain ones.
        assert cli.CONFIG_KEYS == set(cli._PLAIN_KEYS) | {
            f.name for f in fields(AuditConfig)}
        assert cli.SPEC_KEYS == {f.name for f in fields(CorpusSpec)}
        # Each field read by the type of its default reads back its default
        # from str(default). bool("false") is True, so a bool field needs
        # a parser of its own.
        for cls in (AuditConfig, CorpusSpec):
            for f in fields(cls):
                if f.name not in cli._FIELD_PARSERS:
                    assert type(f.default) in (int, float, str), f.name
                    assert getattr(cli._build(cls, {f.name: str(f.default)}),
                                   f.name) == f.default, f.name
        # Each parsed field reads back its default from its config text.
        texts = {"disciplines": "biology, economics, psychology",
                 "years": "1992-2003",
                 "oa_probability": "0.12",
                 "chain_depth_distribution": "0:0.55,1:0.25,2:0.1,3:0.1"}
        assert set(cli._FIELD_PARSERS) == set(texts)
        assert cli._build(CorpusSpec, texts) == CorpusSpec()

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg_path = tmp_path / "readme.cfg"
        cfg_path.write_text(block)
        cfg = cli.read_config(cfg_path, cli.CONFIG_KEYS)
        assert cli._build(AuditConfig, cfg) == AuditConfig(
            int(cfg["sample_size"]), int(cfg["seed"])) == AuditConfig(100, 0)

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

    # A case with a bad index.json is named by that index.
    @pytest.mark.parametrize("index,pages,named", [
        pytest.param(body, "", "index.json", id=body)
        for body in ('{"pages": {}}', '[]')
    ] + [
        # Not JSON, and not UTF-8.
        pytest.param(body, "", "index.json: bad mock web index", id=name)
        for name, body in (("index-cut-off", '{"queries": '),
                           ("index-not-utf8", b'{"queries": {"\xff": []}}'))
    ] + [
        # A query's results are a list of URL strings, else normalize_url
        # would fail on them in the middle of the crawl.
        pytest.param(body, "", "index.json: bad mock web index: query 'q'",
                     id=body)
        for body in ('{"queries": {"q": [5]}}',
                     '{"queries": {"q": ["http://h.example/", null]}}',
                     '{"queries": {"q": "http://h.example/"}}')
    ] + [
        pytest.param('{"queries": {}}', line, "pages.jsonl:1", id=name)
        for name, line in (
            ("page-no-format", '{"text": "x", "url": "http://h.example/"}'),
            ("page-text-not-string",
             '{"format": "html", "text": 5, "url": "http://h.example/"}'),
            ("page-bad-json", '{"format": "html", "text": '),
            ("page-not-object-list", '[1, 2]'),
            ("page-not-object-string", '"x"'),
            ("page-not-object-number", '5'),
            ("page-not-object-null", 'null'),
            ("page-text-lone-surrogate", '{"format": "html", '
             '"text": "a\\ud800b", "url": "http://h.example/"}'))
    ] + [
        # The old layout of one file per page, which has no pages.jsonl:
        # such a web is regenerated with synth.
        pytest.param(body, None, "pages.jsonl", id=body)
        for body in ['{"pages": {"http://h.example/": {"file": "p.html"}},'
                     ' "queries": {}, "dead_links": []}']
    ])
    def test_malformed_mock_web_index(self, index, pages, named, corpus_dir,
                                      tmp_path, capsys):
        web = tmp_path / "mockweb"
        web.mkdir()
        if isinstance(index, bytes):
            (web / "index.json").write_bytes(index)
        else:
            (web / "index.json").write_text(index)
        if pages is not None:
            (web / "pages.jsonl").write_text(pages + "\n")
        assert main(["detect", "--records", str(corpus_dir / "records.jsonl"),
                     "--detections", str(tmp_path / "d.jsonl"),
                     "--mock-web", str(web)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("cmd,key,good,bad", [
        ("analyze", "records", GOOD_RECORD,
         dict(GOOD_RECORD, id="a1", title="A title \udcff")),
        ("audit", "detections", {"article_id": "a0", "verdict": "NOA"},
         {"article_id": "a1", "verdict": "NOA", "reason": "\udcff"}),
        ("detect", "mock_web",
         {"format": "html", "text": "x", "url": "http://h.example/a"},
         {"format": "html", "text": "\udcff", "url": "http://h.example/b"}),
    ], ids=["records", "detections", "pages"])
    def test_non_utf8_line_is_named(self, cmd, key, good, bad, corpus_dir,
                                    detections, tmp_path, capsys):
        # The second line holds byte 0xff, which no UTF-8 text holds:
        # surrogateescape writes "\udcff" as that byte.
        lines = b"".join(
            json.dumps(row, ensure_ascii=False).encode(
                "utf-8", "surrogateescape") + b"\n" for row in (good, bad))
        if key == "mock_web":
            path = tmp_path / "mockweb"
            path.mkdir()
            (path / "index.json").write_text('{"queries": {}}')
            named = path / "pages.jsonl"
        else:
            path = named = tmp_path / "bad.jsonl"
        named.write_bytes(lines)
        assert b"\xff" in lines
        cfg = write_report_config(tmp_path, corpus_dir, detections,
                                  f"{key} = {path}")
        argv = [cmd, "--config", str(cfg)]
        if cmd == "detect":  # the config's mock_web follows its extra line
            argv += ["--mock-web", str(path),
                     "--detections", str(tmp_path / "d.jsonl")]
        assert main(argv) == 2
        assert f"{named}:2: not UTF-8" in capsys.readouterr().err


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

    def test_resume_drops_cut_off_line_longer_than_a_read_step(
            self, corpus_dir, detections, tmp_path, capsys):
        # The last newline is looked for back from the end, step by step.
        lines = detections.read_bytes().splitlines(keepends=True)
        tail = lines[25][:-1] + b"x" * (2 * cli._TAIL_STEP)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:25]) + tail)
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()
        assert f"cut-off last line ({len(tail)} bytes)" in \
            capsys.readouterr().err

    def test_resume_from_journal_without_newline(self, corpus_dir,
                                                 detections, tmp_path, capsys):
        # A kill during the first write leaves no whole line: the journal
        # is truncated to empty and every article detected.
        partial = tmp_path / "resume.jsonl"
        first = detections.read_bytes().splitlines()[0]
        partial.write_bytes(first[:-3])
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()
        assert f"cut-off last line ({len(first) - 3} bytes)" in \
            capsys.readouterr().err

    def test_replay_leaves_whole_lines_untouched(self, detections, tmp_path,
                                                 capsys):
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:10]))
        before = partial.read_bytes()
        assert len(cli._replay_journal(partial)) == 10
        assert partial.read_bytes() == before
        assert capsys.readouterr().err == ""

    def test_fresh_run_serializes_each_article_once(
            self, corpus_dir, detections, tmp_path, monkeypatch):
        # A journal this run started is already in records order, so
        # nothing is serialized a second time to compact it.
        calls = {"detection_to_json": 0, "save_rows": 0}
        for name in calls:
            def counted(*args, _inner=getattr(records, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(records, name, counted)
        fresh = tmp_path / "fresh.jsonl"
        assert run_detect(corpus_dir, fresh) == 0
        assert calls == {"detection_to_json": 60, "save_rows": 0}
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

    @pytest.mark.parametrize("field,value", [
        ("url", 5), ("match_head_offset", "x"), ("depth", "1")])
    def test_resume_rejects_mistyped_journal_line(
            self, field, value, corpus_dir, detections, tmp_path, capsys):
        # A journal line is read by the same rule as any evidence file: a
        # mistyped field stops the run, which leaves the journal as it was.
        lines = detections.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(dict(json.loads(lines[2]), **{field: value}))
        partial = tmp_path / "resume.jsonl"
        partial.write_text("\n".join(lines[:10]) + "\n", encoding="utf-8")
        before = partial.read_bytes()
        assert run_detect(corpus_dir, partial) == 2
        err = capsys.readouterr().err
        assert f"{partial}:3:" in err and field in err
        assert partial.read_bytes() == before

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

    def test_resumed_run_serializes_each_article_once(
            self, corpus_dir, detections, tmp_path, monkeypatch):
        # The compacting copy takes each new row's appended line as it is,
        # so only a replayed row is serialized again.
        calls = Counter()
        inner = records.row_to_json

        def counted(row):
            calls["row_to_json"] += 1
            return inner(row)
        monkeypatch.setattr(records, "row_to_json", counted)
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:30]))
        assert run_detect(corpus_dir, partial) == 0
        assert calls == {"row_to_json": 60}
        assert partial.read_bytes() == detections.read_bytes()

    def test_copy_is_synced_before_it_replaces_the_journal(
            self, corpus_dir, detections, tmp_path, monkeypatch):
        # So an OS crash after the rename cannot leave the journal's name on
        # a copy whose data never reached the disk. A fresh journal gets no
        # copy, so nothing is synced or renamed.
        events = []
        fsync, replace = os.fsync, os.replace

        def synced(fd):
            events.append("fsync")
            fsync(fd)

        def replaced(src, dst):
            events.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)
        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", replaced)
        fresh = tmp_path / "fresh.jsonl"
        assert run_detect(corpus_dir, fresh) == 0
        assert events == []
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:30]))
        assert run_detect(corpus_dir, partial) == 0
        assert events == [
            "fsync", ("replace", "resume.jsonl.tmp", "resume.jsonl")]
        assert partial.read_bytes() == detections.read_bytes()

    @pytest.mark.parametrize("fail_at", [10, 45])
    def test_exception_in_compaction_keeps_the_journal(
            self, fail_at, corpus_dir, detections, tmp_path, monkeypatch):
        # Serialization 10 is a replayed row's copy; 45 is the 15th new row,
        # before its line is appended. Either way the journal keeps its
        # lines and those appended before the fault, and the copy goes.
        calls = Counter()
        inner = records.row_to_json

        def failing(row):
            calls["row_to_json"] += 1
            if calls["row_to_json"] == fail_at:
                raise RuntimeError("serializer fault")
            return inner(row)
        monkeypatch.setattr(records, "row_to_json", failing)
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:30]))
        with pytest.raises(RuntimeError, match="serializer fault"):
            run_detect(corpus_dir, partial)
        assert partial.read_bytes() == b"".join(lines[:max(30, fail_at - 1)])
        assert os.listdir(tmp_path) == ["resume.jsonl"]
        monkeypatch.setattr(records, "row_to_json", inner)
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="no SIGKILL on this platform")
    def test_kill_during_compaction_loses_nothing(self, corpus_dir,
                                                  detections, tmp_path):
        # A child resumes a journal of 30 of the 60 lines and kills itself
        # at the 45th serialization, mid-way through the compaction.
        lines = detections.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "resume.jsonl"
        partial.write_bytes(b"".join(lines[:30]))
        child = (
            "import os, signal, sys\n"
            "from oafinder import cli, records\n"
            "inner, calls = records.row_to_json, []\n"
            "def row_to_json(row):\n"
            "    calls.append(row)\n"
            "    if len(calls) == 45:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return inner(row)\n"
            "records.row_to_json = row_to_json\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", child, "detect",
             "--records", str(corpus_dir / "records.jsonl"),
             "--detections", str(partial),
             "--mock-web", str(corpus_dir / "mockweb")],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert partial.read_bytes().startswith(b"".join(lines[:30]))
        stale = tmp_path / "resume.jsonl.tmp"
        left = stale.read_bytes()
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()
        assert os.listdir(tmp_path) == ["resume.jsonl"]
        # A run that starts a fresh journal removes a stale copy too.
        stale.write_bytes(left)
        partial.unlink()
        assert run_detect(corpus_dir, partial) == 0
        assert partial.read_bytes() == detections.read_bytes()
        assert os.listdir(tmp_path) == ["resume.jsonl"]

    def test_bad_records_line_mid_run(self, corpus_dir, detections, tmp_path,
                                      capsys):
        # The records are streamed: the journal keeps whole lines for the
        # records before the bad one, and a rerun on the mended file
        # completes it to the bytes of a fresh run.
        good = (corpus_dir / "records.jsonl").read_text().splitlines(True)
        recs = tmp_path / "records.jsonl"
        recs.write_text("".join(good[:30]) + "not json\n" + "".join(good[30:]))
        journal = tmp_path / "d.jsonl"
        argv = ["detect", "--records", str(recs), "--detections",
                str(journal), "--mock-web", str(corpus_dir / "mockweb")]
        assert main(argv) == 2
        assert f"bad records file: {recs}:31: malformed JSON" in \
            capsys.readouterr().err
        lines = detections.read_bytes().splitlines(keepends=True)
        assert journal.read_bytes() == b"".join(lines[:30])
        recs.write_text("".join(good))
        assert main(argv) == 0
        assert journal.read_bytes() == detections.read_bytes()

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

    def test_analyze_summary_line(self, tmp_path, capsys):
        # Four disciplines of 8 records in one issue each, with 1, 2, 4 and
        # 6 OA. The line gives only the counts: no report holds a summary
        # of %OA across disciplines.
        resolved = [(metrics.tally_row(records.ArticleRecord(
            id=f"{disc}{i}", first_author_surname="Smith", title="A title",
            journal_id=f"{disc}-j1", issue_key=f"{disc}-j1|1999|1",
            year=1999, discipline=disc, country="US", citation_count=i)),
            i < n_oa)
            for disc, n_oa in (("a", 1), ("b", 2), ("c", 4), ("d", 6))
            for i in range(8)]
        cfg = {"out": str(tmp_path / "r")}
        cli.cmd_analyze(cfg, metrics.Reports(resolved))
        assert capsys.readouterr().out == "analyze: kept 32/32 records\n"
        cli.cmd_analyze(cfg, metrics.Reports(resolved[:8]))
        assert capsys.readouterr().out == "analyze: kept 8/8 records\n"

    @pytest.mark.parametrize("cmd", ["analyze", "cohorts", "correlate"])
    def test_unknown_records_gated_once(self, cmd, corpus_dir, detections,
                                        tmp_path, capsys):
        # A journal of half the detections leaves the other records
        # UNKNOWN. Without --allow-unknown the command exits 3 and writes
        # nothing; with it, it reports on the records that have a verdict,
        # as a run over those records alone does.
        half = tmp_path / "half.jsonl"
        evs = load_detections(detections)[::2]
        save_rows(evs, half)
        ids = {ev.article_id for ev in evs}
        all_records = corpus_dir / "records.jsonl"
        detected = tmp_path / "detected.jsonl"
        detected.write_text("".join(
            line for line in all_records.read_text().splitlines(True)
            if json.loads(line)["id"] in ids))

        def run(recs, out, *flags):
            return main([cmd, "--records", str(recs), "--detections",
                         str(half), "--out", str(tmp_path / out), *flags])

        assert run(all_records, "gated") == 3
        assert "UNKNOWN" in capsys.readouterr().err
        assert not (tmp_path / "gated").exists()
        assert run(all_records, "dropped", "--allow-unknown") == 0
        assert run(detected, "detected") == 0
        files = sorted(p.name for p in (tmp_path / "dropped").iterdir())
        assert files == sorted(p.name
                               for p in (tmp_path / "detected").iterdir())
        for name in files:
            assert (tmp_path / "dropped" / name).read_bytes() == \
                (tmp_path / "detected" / name).read_bytes(), name

    @pytest.mark.parametrize("cmd", ["analyze", "cohorts", "correlate"])
    def test_older_records_format_gives_same_reports(
            self, cmd, corpus_dir, detections, tmp_path):
        # Records files of an older format carry an "oa_status" key, which
        # the reader ignores: the reports are those of the current format.
        older = tmp_path / "older.jsonl"
        older.write_text("".join(
            json.dumps(dict(json.loads(line),
                            oa_status=("OA", "NOA", "UNKNOWN")[i % 3])) + "\n"
            for i, line in enumerate((corpus_dir / "records.jsonl")
                                     .read_text().splitlines())))
        current = tmp_path / "current"
        assert self.run_reports(cmd, corpus_dir, detections, current) == 0
        assert main([cmd, "--records", str(older), "--detections",
                     str(detections), "--out", str(tmp_path / "older")]) == 0
        files = sorted(p.name for p in current.iterdir())
        assert files == sorted(p.name for p in (tmp_path / "older").iterdir())
        for name in files:
            assert (tmp_path / "older" / name).read_bytes() == \
                (current / name).read_bytes(), name

    @staticmethod
    def count_table_calls(monkeypatch):
        """Wrap the tally and the metrics table functions; returns a Counter
        of calls by (function, dimension) and, for cohort_table, by
        per_year; a percent_oa over the kept issues adds "kept"."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(counts, *args, **kwargs):
                calls[(name, *("kept" if isinstance(arg, dict) else arg
                               for arg in (*args, *kwargs.values())))] += 1
                return fn(counts, *args, **kwargs)
            return wrapper

        for name in ("Tally", "apply_exclusions", "percent_oa",
                     "aggregate_advantage", "cohort_table"):
            monkeypatch.setattr(metrics, name,
                                counted(name, getattr(metrics, name)))
        return calls

    @pytest.mark.parametrize("cmd,expected", [
        ("analyze", {("Tally",): 1,
                     ("apply_exclusions",): 1,
                     ("percent_oa", "discipline", "kept"): 1,
                     ("percent_oa", "country", "kept"): 1,
                     ("percent_oa", "year", "kept"): 1,
                     ("aggregate_advantage", "discipline"): 1,
                     ("aggregate_advantage", "country"): 1,
                     ("aggregate_advantage", "year"): 1}),
        ("cohorts", {("Tally",): 1, ("cohort_table", True): 1,
                     ("cohort_table", False): 1}),
        ("correlate", {("Tally",): 1,
                       ("apply_exclusions",): 1,
                       ("percent_oa", "year"): 1,
                       ("aggregate_advantage", "year"): 1,
                       ("cohort_table", True): 1}),
    ])
    def test_each_command_computes_its_tables_once(
            self, cmd, expected, corpus_dir, detections, tmp_path,
            monkeypatch):
        calls = self.count_table_calls(monkeypatch)
        assert self.run_reports(cmd, corpus_dir, detections,
                                tmp_path / "r") == 0
        assert calls == expected

    def test_evaluate_computes_each_table_once(self, tmp_path, monkeypatch):
        calls = self.count_table_calls(monkeypatch)
        assert main(["evaluate", "--out", str(tmp_path / "run"), "--seed", "4",
                     "--sample-size", "10"]) == 0
        # %OA by year is two tables: over the kept records for
        # oa_share_by_year.csv, over all of them for correlations.csv.
        assert calls == {("Tally",): 1,
                         ("apply_exclusions",): 1,
                         ("percent_oa", "discipline", "kept"): 1,
                         ("percent_oa", "country", "kept"): 1,
                         ("percent_oa", "year", "kept"): 1,
                         ("percent_oa", "year"): 1,
                         ("aggregate_advantage", "discipline"): 1,
                         ("aggregate_advantage", "country"): 1,
                         ("aggregate_advantage", "year"): 1,
                         ("cohort_table", True): 1,
                         ("cohort_table", False): 1}

    def test_audit_seed_flag_zero_overrides_config(self, corpus_dir,
                                                    tmp_path):
        # Verdicts that ignore the truth, so that the sample the seed draws
        # shows in sdt.csv.
        recs = records.iter_records(corpus_dir / "records.jsonl")
        guesses = tmp_path / "guesses.jsonl"
        save_rows([
            DetectionEvidence(r.id, Verdict.OA, url="http://x.example/")
            if i % 2 else DetectionEvidence(r.id, Verdict.NOA,
                                            reason="EXHAUSTED")
            for i, r in enumerate(recs)], guesses)
        sdt = {}
        for name, seed, argv in (("flag", 5, ["--seed", "0"]),
                                 ("cfg0", 0, []), ("cfg5", 5, [])):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                f"detections = {guesses}\n"
                f"ground_truth = {corpus_dir / 'ground_truth.jsonl'}\n"
                f"out = {tmp_path / name}\nsample_size = 10\n"
                f"seed = {seed}\n")
            assert main(["audit", "--config", str(cfg), *argv]) == 0
            sdt[name] = (tmp_path / name / "sdt.csv").read_bytes()
        assert sdt["flag"] == sdt["cfg0"] != sdt["cfg5"]

    def test_audit_takes_the_last_verdict_of_an_id(self, tmp_path):
        # a0 and b0 change verdict on a later line, as in a resumed journal:
        # each is audited by its last verdict only, in one pool, so each
        # pool holds two articles: OA {a1, b0}, NOA {a0, b1}. A sample of 3
        # is infeasible, and one of 2 draws each pool whole.
        lines = [("a0", Verdict.OA), ("a1", Verdict.OA), ("b0", Verdict.NOA),
                 ("b1", Verdict.NOA), ("a0", Verdict.NOA), ("b0", Verdict.OA)]
        journal = tmp_path / "journal.jsonl"
        save_rows([DetectionEvidence(art, v, url="http://x.example/")
                   if v is Verdict.OA else DetectionEvidence(art, v)
                   for art, v in lines], journal)
        truth = tmp_path / "truth.jsonl"
        save_rows([corpus.GroundTruth(art, art.startswith("a"))
                   for art in ("a0", "a1", "b0", "b1")], truth)
        out = tmp_path / "r"

        def audit(sample_size):
            cfg = tmp_path / "audit.cfg"
            cfg.write_text(f"sample_size = {sample_size}\n")
            return main(["audit", "--config", str(cfg), "--detections",
                         str(journal), "--ground-truth", str(truth),
                         "--out", str(out), "--seed", "0"])

        assert audit(3) == 4
        assert audit(2) == 0
        row = dict(zip(*csv.reader(
            (out / "sdt.csv").read_text().splitlines())))
        assert [row[k] for k in ("hits", "misses", "false_alarms",
                                 "correct_rejections")] == ["1", "1", "1", "1"]

    def test_audit_writes_sdt_csv(self, corpus_dir, detections, tmp_path):
        cfg = write_report_config(tmp_path, corpus_dir, detections, "")
        assert main(["audit", "--config", str(cfg)]) == 0
        body = (tmp_path / "r" / "sdt.csv").read_text()
        assert "d_prime" in body


# sha256 of `evaluate --seed 4 --sample-size 50` (see run_digest). A change
# that alters outputs on purpose updates it and says so.
GOLDEN_EVALUATE_SHA256 = (
    "9e46fb972ec92f96e392f3af8667ac9266fde86361abc143992ea4787ec5d7f0")


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
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file()) == [
            "ground_truth.jsonl", "mockweb/index.json", "mockweb/pages.jsonl",
            "records.jsonl"]

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

    def test_synth_seed_flag_zero_overrides_spec(self, tmp_path):
        # 0 == False: the flag copy must not take --seed 0 for an unset flag.
        outs = {}
        for name, body, argv in (
                ("flag", "seed = 2", ["--seed", "0"]),
                ("spec0", "seed = 0", []),
                ("spec2", "seed = 2", [])):
            spec = tmp_path / f"{name}.cfg"
            spec.write_text(f"n_articles = 30\n{body}\n")
            assert main(["synth", "--spec", str(spec),
                         "--out", str(tmp_path / name), *argv]) == 0
            outs[name] = (tmp_path / name / "records.jsonl").read_bytes()
        assert outs["flag"] == outs["spec0"] != outs["spec2"]

    def test_evaluate_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 120\noa_probability = 0.3\n")
        out = tmp_path / "run"
        code = main(["evaluate", "--spec", str(spec), "--out", str(out),
                     "--seed", "3", "--sample-size", "20"])
        assert code == 0
        # Each stage prints its own line, and evaluate adds none.
        assert [line.partition(":")[0] for line in
                capsys.readouterr().out.splitlines()] == [
            "synth", "detect", "analyze", "cohorts", "correlate", "audit"]
        assert (out / "reports" / "sdt.csv").exists()
        assert (out / "reports" / "correlations.csv").exists()
        assert (out / "detections.jsonl").exists()

    def test_evaluate_bad_sample_size_writes_nothing(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 30\n")
        out = tmp_path / "run"
        assert main(["evaluate", "--spec", str(spec), "--out", str(out),
                     "--seed", "4", "--sample-size", "0"]) == 2
        assert [name for name in ("corpus", "detections.jsonl", "reports",
                                  "run.cfg") if (out / name).exists()] == []

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
        assert set(cli.read_config(out / "run.cfg", cli.CONFIG_KEYS)) == {
            "records", "detections", "mock_web", "ground_truth", "out",
            "sample_size", "seed"}
        for cmd in ("detect", "analyze", "cohorts", "correlate", "audit"):
            assert main([cmd, "--config", str(out / "run.cfg")]) == 0

    def test_evaluate_reads_nothing_back(self, tmp_path, monkeypatch):
        # Each stage gets what the one before it returned, so evaluate
        # loads none of the files it writes.
        calls = count_loads(monkeypatch)
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_articles = 60\noa_probability = 0.3\n")
        assert main(["evaluate", "--spec", str(spec), "--out",
                     str(tmp_path / "run"), "--seed", "4",
                     "--sample-size", "10"]) == 0
        assert calls == Counter()

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


class TestInputLoading:
    @pytest.mark.parametrize("cmd,loads", [
        ("detect", {"iter_records": 1, "load_mock_web": 1}),
        ("analyze", {"iter_records": 1, "load_verdicts": 1}),
        ("cohorts", {"iter_records": 1, "load_verdicts": 1}),
        ("correlate", {"iter_records": 1, "load_verdicts": 1}),
        ("audit", {"load_verdicts": 1, "load_ground_truth": 1}),
    ])
    def test_standalone_command_loads_each_input_once(
            self, cmd, loads, corpus_dir, detections, tmp_path, monkeypatch):
        calls = count_loads(monkeypatch)
        cfg = write_report_config(tmp_path, corpus_dir, detections, "")
        argv = [cmd, "--config", str(cfg)]
        if cmd == "detect":  # a fresh journal, so none is replayed
            argv += ["--detections", str(tmp_path / "d.jsonl")]
        assert main(argv) == 0
        assert calls == Counter(loads)

    @pytest.mark.parametrize("cmd,line", [
        ("audit", "sample_size = 0"),
        ("audit", "seed = x"),
        ("detect", "converter = cat {input}"),
    ])
    def test_bad_setting_reads_no_input(self, cmd, line, corpus_dir,
                                        detections, tmp_path, monkeypatch):
        calls = count_loads(monkeypatch)
        cfg = write_report_config(tmp_path, corpus_dir, detections, line)
        argv = [cmd, "--config", str(cfg)]
        if cmd == "detect":  # a fresh journal, so none is replayed
            argv += ["--detections", str(tmp_path / "d.jsonl")]
        assert main(argv) == 2
        assert calls == Counter()


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self, tmp_path):
        from oafinder.cli import read_config
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nrecords = value\nseed=1\n")
        assert read_config(cfg, cli.CONFIG_KEYS) == {"records": "value",
                                                     "seed": "1"}

    def test_perfbench_specs_load(self):
        paths = sorted((Path(__file__).parents[1] / "perfbench" /
                        "workloads").glob("*.cfg"))
        assert paths
        for path in paths:
            cfg = cli.read_config(path, cli.SPEC_KEYS)
            spec = cli._build(CorpusSpec, cfg)
            assert spec.n_articles == int(cfg["n_articles"]), path.name

    def test_detections_output_is_sorted_json(self, detections):
        for line in detections.read_text().splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
