import errno
import io
import json
import multiprocessing
import os
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import REQUIRED_ARGS, InProcessPool
from ref_conlleval import evaluate as ref_evaluate
from ref_nerdata import build_joint, serialize_conll, subsample
from xner import pipelines
from xner.cli import _output, run
from xner.nerdata import dataset_stats, parse_conll

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def music_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "Nirvana recorded Nevermind in Seattle. Kurt Cobain wrote most songs.\n"
        "The album sold well.\n"
        "\n"
        "Radiohead released Kid A in October. Critics praised Kid A widely.\n"
    )
    return path


@pytest.fixture
def gazetteer_file(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "Nirvana\tband\n"
        "Nevermind\talbum\n"
        "Seattle\tlocation\n"
        "Kurt Cobain\tperson\n"
        "Kurt Cobain\tmusicalartist\n"
        "Radiohead\tband\n"
        "Kid A\talbum\n"
        "October\tmiscellaneous\n"
    )
    return path


@pytest.fixture
def specialized_file(tmp_path):
    path = tmp_path / "sp.txt"
    path.write_text("band\nalbum\n")
    return path


@pytest.fixture
def hierarchy_file(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("musicalartist\tperson\n")
    return path


# The values that each checked flag rejects.
BAD_FLAG_VALUES = [
    ("stats", "--workers", ["0", "-1", "nan", "x"]),
    ("stats", "--format", ["xml"]),
    ("extract", "--min-mentions", ["0", "-1", "nan", "x"]),
    ("extract", "--min-specialized", ["0", "-1", "nan", "x"]),
    ("extract", "--upsample", ["0", "-1", "nan", "x"]),
    ("extract", "--percent", ["-1", "100.5", "nan", "inf", "x"]),
    ("mask", "--rate", ["0", "1", "-1", "nan", "inf", "-inf", "x"]),
    ("mask", "--min-len", ["0", "-1", "nan", "x"]),
    ("mask", "--vocab-size", ["0", "-1", "nan", "x"]),
    ("overlap", "--top-k", ["0", "-1", "nan", "x"]),
    ("overlap", "--inputs", ["=x", "a=", "a"]),
    ("subsample", "--n", ["-1", "nan", "x"]),
    ("joint", "--multiplier", ["0", "-1", "nan", "x"]),
    ("eval", "--misclassify", ["PER,", ",PER", ",", "PER"]),
]


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(command, flag, value, id=f"{command} {flag} {value}")
    for command, flag, values in BAD_FLAG_VALUES
    for value in values
])
def test_bad_flag_value_is_usage_error(capsys, monkeypatch, tmp_path, command, flag, value):
    # Every input is missing, so the value is checked before any file is read.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, *REQUIRED_ARGS[command], flag, value)
    assert (code, out) == (1, "")
    assert err.startswith(f"xner: usage error: argument {flag}: ")
    assert os.listdir(tmp_path) == []


class TestStats:
    def test_counts(self, capsys, music_corpus):
        code, out, _ = run_cli(capsys, "stats", "--input", str(music_corpus),
                               "--workers", "1")
        assert code == 0
        summary = json.loads(out)
        assert summary["paragraphs"] == 3
        assert summary["sentences"] == 5
        assert summary["tokens"] > 0

    def test_invalid_utf8_is_data_error_with_line(self, capsys, tmp_path):
        # The bad byte sits past the text reader's first decoded block.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"Plain words here.\n" * 2000 + b"caf\xff ok.\nMore.\n")
        code, out, err = run_cli(capsys, "stats", "--input", str(path), "--workers", "1")
        assert code == 2
        assert out == ""
        assert f"{path}:2001: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_deeply_nested_jsonl_is_data_error_with_line(self, capsys, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code, out, err = run_cli(capsys, "stats", "--input", str(path), "--format", "jsonl",
                                 "--workers", "1")
        assert code == 2
        assert out == ""
        assert f"{path}:1: invalid JSON" in err
        assert "Traceback" not in err

    def test_default_workers_are_the_cpus_this_process_may_use(
        self, capsys, monkeypatch, music_corpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        calls = []

        def map_documents(worker, documents, workers):
            calls.append(workers)
            return map(worker, documents)

        monkeypatch.setattr(pipelines, "map_documents", map_documents)
        code, out, _ = run_cli(capsys, "stats", "--input", str(music_corpus))
        assert code == 0
        assert json.loads(out)["sentences"] == 5
        assert calls == [1]


class TestExtract:
    def test_integrated_token_identity(
        self, capsys, tmp_path, music_corpus, gazetteer_file, specialized_file,
        hierarchy_file,
    ):
        outputs = {}
        for level in ("entity", "task", "integrated"):
            out_path = tmp_path / f"{level}.txt"
            code, out, _ = run_cli(
                capsys, "extract", "--level", level,
                "--input", str(music_corpus),
                "--gazetteer", str(gazetteer_file),
                "--specialized", str(specialized_file),
                "--hierarchy", str(hierarchy_file),
                "--output", str(out_path), "--workers", "1",
            )
            assert code == 0
            outputs[level] = json.loads(out)
        assert outputs["integrated"]["tokens"] == (
            outputs["entity"]["tokens"] + 2 * outputs["task"]["tokens"]
        )
        assert outputs["entity"]["sentences"] >= 1
        assert outputs["task"]["sentences"] >= 1

    def test_requires_gazetteer_or_mentions(self, capsys, tmp_path, music_corpus):
        code, _, err = run_cli(
            capsys, "extract", "--level", "entity",
            "--input", str(music_corpus),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 1
        assert "usage error" in err

    def test_gazetteer_and_mentions_together_is_usage_error(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        mentions = tmp_path / "m.jsonl"
        mentions.write_text("")
        out_path = tmp_path / "o.txt"
        code, out, err = run_cli(
            capsys, "extract", "--level", "entity", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file), "--mentions", str(mentions),
            "--output", str(out_path), "--workers", "1",
        )
        assert (code, out) == (1, "")
        assert err == (
            "xner: usage error: argument --mentions: not allowed with argument --gazetteer\n"
        )
        assert not out_path.exists()

    def test_task_without_specialized_fails(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        code, _, err = run_cli(
            capsys, "extract", "--level", "task",
            "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 1
        assert err == "xner: usage error: --level task needs a non-empty --specialized list\n"

    def test_external_mentions_route(self, capsys, tmp_path, music_corpus):
        mentions = tmp_path / "m.jsonl"
        doc_id = f"{music_corpus.stem}-000000"
        mentions.write_text(
            json.dumps({"doc_id": doc_id, "sentence_index": 0,
                        "start": 0, "end": 1, "type": "band"}) + "\n" +
            json.dumps({"doc_id": doc_id, "sentence_index": 0,
                        "start": 2, "end": 3, "type": "album"}) + "\n"
        )
        out_path = tmp_path / "e.txt"
        code, out, _ = run_cli(
            capsys, "extract", "--level", "entity",
            "--input", str(music_corpus),
            "--mentions", str(mentions),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        assert json.loads(out)["sentences"] == 1
        assert out_path.read_text().startswith("Nirvana recorded Nevermind")

    @staticmethod
    def _extract_with_mentions(capsys, tmp_path, mention_lines, workers="1"):
        corpus = tmp_path / "c.txt"
        corpus.write_text("Nirvana played Seattle.\n\nKurt Cobain sang.\n")
        mentions = tmp_path / "m.jsonl"
        mentions.write_text("".join(f"{line}\n" for line in mention_lines))
        out_path = tmp_path / "e.txt"
        code, out, err = run_cli(
            capsys, "extract", "--level", "entity", "--input", str(corpus),
            "--mentions", str(mentions), "--output", str(out_path), "--workers", workers,
        )
        return code, out, err, mentions

    @pytest.mark.parametrize("fields", [
        '"sentence_index": 0.9, "start": 0.7, "end": 1.5, "type": "band"',
        '"sentence_index": 0, "start": false, "end": true, "type": "band"',
        '"sentence_index": 0, "start": 0, "end": 1, "type": "two words"',
        '"sentence_index": -1, "start": 0, "end": 1, "type": "band"',
    ], ids=["fractional", "bool-offsets", "two-word-type", "negative-index"])
    def test_external_mention_fields_are_checked(self, capsys, tmp_path, fields):
        good = '{"doc_id": "c-000000", "sentence_index": 0, "start": 2, "end": 3, "type": "x"}'
        code, out, err, mentions = self._extract_with_mentions(
            capsys, tmp_path, [good, f'{{"doc_id": "c-000000", {fields}}}']
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"xner: data error: {mentions}:2: bad mention record: ")
        assert err.count("\n") == 1

    def test_external_mention_doc_id_must_be_a_string(self, capsys, tmp_path):
        code, _, err, mentions = self._extract_with_mentions(
            capsys, tmp_path,
            ['{"doc_id": 5, "sentence_index": 0, "start": 0, "end": 1, "type": "band"}'],
        )
        assert code == 2
        assert f"data error: {mentions}:1: bad mention record: doc_id must be a string" in err

    def test_external_mention_with_an_empty_span_is_data_error(self, capsys, tmp_path):
        code, out, err, mentions = self._extract_with_mentions(capsys, tmp_path, [
            '{"doc_id": "c-000000", "sentence_index": 0, "start": 2, "end": 2, "type": "band"}',
        ])
        assert (code, out) == (2, "")
        assert err == f"xner: data error: {mentions}:1: bad mention record: bad span [2, 2)\n"
        assert not (tmp_path / "e.txt").exists()

    def test_repeated_external_mention_counts_once(self, capsys, tmp_path):
        record = '{"doc_id": "c-000000", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}'
        code, out, _, _ = self._extract_with_mentions(capsys, tmp_path, [record, record])
        assert code == 0
        assert json.loads(out)["sentences"] == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_external_mention_past_sentence_end_is_data_error(
        self, capsys, tmp_path, workers
    ):
        code, out, err, mentions = self._extract_with_mentions(capsys, tmp_path, [
            '{"doc_id": "c-000000", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}',
            '{"doc_id": "c-000000", "sentence_index": 0, "start": 50, "end": 99, "type": "x"}',
        ], workers)
        assert (code, out) == (2, "")
        assert err == (
            f"xner: data error: {mentions}:2: bad mention record: span [50, 99) "
            "is past the end of a 4-token sentence\n"
        )

    def test_missing_input_is_data_error(self, capsys, tmp_path, gazetteer_file):
        code, _, err = run_cli(
            capsys, "extract", "--level", "entity",
            "--input", str(tmp_path / "absent.txt"),
            "--gazetteer", str(gazetteer_file),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 2
        assert "data error" in err

    def test_bad_record_is_data_error(self, capsys, tmp_path, gazetteer_file):
        # DataError is a ValueError; it must not be reported as a usage error.
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "Nirvana."}\nnot json\n')
        code, _, err = run_cli(
            capsys, "extract", "--level", "entity", "--format", "jsonl",
            "--input", str(corpus), "--gazetteer", str(gazetteer_file),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 2
        assert f"data error: {corpus}:2: invalid JSON" in err

    def test_malformed_hierarchy_is_data_error_with_mentions(
        self, capsys, tmp_path, music_corpus
    ):
        mentions = tmp_path / "m.jsonl"
        mentions.write_text("")
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_text("musical artist\tperson\nno tab here\n")
        code, _, err = run_cli(
            capsys, "extract", "--level", "entity", "--input", str(music_corpus),
            "--mentions", str(mentions), "--hierarchy", str(hierarchy),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 2
        assert f"data error: {hierarchy}:2:" in err

    def test_hierarchy_cycle_is_data_error_with_line(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_text(
            "musical artist\tperson\n\npolitician\tleader\nleader\tpolitician\n"
        )
        code, out, err = run_cli(
            capsys, "extract", "--level", "entity", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file), "--hierarchy", str(hierarchy),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"xner: data error: {hierarchy}:3: type hierarchy cycle through 'politician'\n"
        )

    def test_specialized_types_read_from_file(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        specialized = tmp_path / "sp.txt"
        specialized.write_text("\n band \n\nalbum\n")
        out_path = tmp_path / "task.txt"
        code, _, _ = run_cli(
            capsys, "extract", "--level", "task", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file), "--specialized", str(specialized),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        assert out_path.read_text() == (
            "Nirvana recorded Nevermind in Seattle .\n"
            "\n"
            "Radiohead released Kid A in October .\n"
            "Critics praised Kid A widely .\n"
        )

    @pytest.mark.parametrize("text,line,got", [
        ("band\nband album\n", 2, "'band album'"),
        # The gazetteer TSV given by mistake.
        ("Nirvana\tband\n", 1, "'Nirvana\\tband'"),
    ], ids=["two-words", "gazetteer-tsv"])
    def test_word_list_line_with_inner_whitespace_is_data_error(
        self, capsys, tmp_path, music_corpus, gazetteer_file, text, line, got
    ):
        # Such a line can never match a type or a token, so it would
        # silently select nothing.
        words = tmp_path / "words.txt"
        words.write_text(text)
        out_path = tmp_path / "task.txt"
        for argv in (
            ["extract", "--level", "task", "--input", str(music_corpus),
             "--gazetteer", str(gazetteer_file), "--specialized", str(words),
             "--output", str(out_path), "--workers", "1"],
            ["overlap", "--inputs", f"a={music_corpus}", "--stopwords", str(words)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"xner: data error: {words}:{line}: expected one word, got {got}\n"
        assert not out_path.exists()


    @staticmethod
    def _extract_entity(capsys, out_path, corpus, gazetteer, *extra):
        code, out, _ = run_cli(
            capsys, "extract", "--level", "entity", "--min-mentions", "1",
            "--input", str(corpus), "--gazetteer", str(gazetteer),
            "--output", str(out_path), *extra,
        )
        assert code == 0
        return json.loads(out), out_path.read_text()

    def test_percent_100_and_0(self, capsys, tmp_path, music_corpus, gazetteer_file):
        _, full = self._extract_entity(
            capsys, tmp_path / "full.txt", music_corpus, gazetteer_file, "--workers", "1"
        )
        assert full.count("\n") >= 4
        _, hundred = self._extract_entity(
            capsys, tmp_path / "100.txt", music_corpus, gazetteer_file,
            "--workers", "1", "--percent", "100",
        )
        assert hundred == full
        summary, zero = self._extract_entity(
            capsys, tmp_path / "0.txt", music_corpus, gazetteer_file,
            "--workers", "1", "--percent", "0",
        )
        assert (summary["sentences"], zero) == (0, "")

    def test_percent_50_worker_identical_in_order_subset(
        self, capsys, monkeypatch, tmp_path, music_corpus, gazetteer_file
    ):
        monkeypatch.setattr(pipelines, "CHUNK_CHARS", 1)
        _, full = self._extract_entity(
            capsys, tmp_path / "full.txt", music_corpus, gazetteer_file, "--workers", "1"
        )
        outputs = [
            self._extract_entity(
                capsys, tmp_path / f"half{workers}.txt", music_corpus, gazetteer_file,
                "--workers", workers, "--percent", "50", "--seed", "3",
            )
            for workers in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        summary, half = outputs[0]
        lines = [line for line in half.splitlines() if line]
        full_lines = [line for line in full.splitlines() if line]
        assert 0 < len(lines) == summary["sentences"] < len(full_lines)
        remaining = iter(full_lines)
        assert all(line in remaining for line in lines)  # an in-order subsequence


def _extract_args(level):
    return ["extract", "--level", level, "--specialized", str(DATA_DIR / "extract_specialized.txt")]


_GAZETTEER_ARGS = [
    "--gazetteer", str(DATA_DIR / "extract_gazetteer.tsv"),
    "--hierarchy", str(DATA_DIR / "extract_hierarchy.tsv"),
]

# Each golden output of extract_corpus.txt: the command line that writes it
# and its summary. The gazetteer has surfaces with two types, some under the
# hierarchy (Kurt Cobain: person and musicalartist) and some incomparable
# (Europe: location and continent), entries that others extend (Kid, Kid A,
# Kid A Mnesia) and a repeated row.
GAZETTEER_GOLDENS = {
    f"{level}.txt": (
        [*_extract_args(level), *_GAZETTEER_ARGS, "--percent", "75", "--seed", "3"],
        {"level": level, "sentences": sentences, "tokens": tokens},
    )
    for level, sentences, tokens in [
        ("entity", 12, 100), ("task", 10, 81), ("integrated", 32, 262)
    ]
} | {
    "mentions.txt": (
        [*_extract_args("integrated"), "--mentions", str(DATA_DIR / "extract_mentions.jsonl")],
        {"level": "integrated", "sentences": 10, "tokens": 68},
    ),
    "pre_annotate.conll": (
        ["pre-annotate", *_GAZETTEER_ARGS], {"sentences": 22, "review_flags": 0}
    ),
} | {
    # A surface with two types that a later row extends (Obama: person and
    # politician, then Obama's speech), so its types are resolved under a
    # node that was a leaf when they were merged.
    f"pre_annotate_extended{suffix}.conll": (
        ["pre-annotate", "--gazetteer", str(DATA_DIR / "extract_gazetteer_extended.tsv"),
         *hierarchy],
        {"sentences": 22, "review_flags": 0},
    )
    for suffix, hierarchy in [("", []), ("_hierarchy", _GAZETTEER_ARGS[2:])]
}


@pytest.mark.parametrize("name", GAZETTEER_GOLDENS)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_gazetteer_golden_bytes(capsys, tmp_path, name, workers):
    # The expected files were written by the version whose gazetteer was a
    # Gazetteer object over a TypeHierarchy; the pre_annotate_extended ones,
    # added later, by the trie-dict gazetteer.
    argv, summary = GAZETTEER_GOLDENS[name]
    out_path = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, *argv, "--input", str(DATA_DIR / "extract_corpus.txt"),
        "--output", str(out_path), "--workers", workers,
    )
    assert code == 0
    assert json.loads(out) == summary
    assert out_path.read_bytes() == (DATA_DIR / f"extract_corpus.{name}").read_bytes()


def test_only_a_replayed_level_makes_a_spool_file(capsys, monkeypatch, tmp_path):
    # With no temporary directory to make a file in, the entity and task
    # levels, which spool nothing, still run; integrated cannot spool.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    for level, code in [("entity", 0), ("task", 0), ("integrated", 2)]:
        argv, _ = GAZETTEER_GOLDENS[f"{level}.txt"]
        out_path = tmp_path / level
        assert run_cli(
            capsys, *argv, "--input", str(DATA_DIR / "extract_corpus.txt"),
            "--output", str(out_path), "--workers", "1",
        )[0] == code
        assert out_path.exists() == (code == 0)


_OVERLAP_INPUTS = [
    "overlap", "--inputs", f"music={DATA_DIR / 'extract_corpus.txt'}",
    f"mask={DATA_DIR / 'mask_corpus.txt'}", f"écologie={DATA_DIR / 'overlap_corpus.txt'}",
]

# The exact stdout of each summary command: its golden file
# tests/data/summary.NAME.json and the command line that prints it.
# json.loads would not see a change of key order, spacing or float form.
# The files were written by the version whose ner-stats and overlap
# summaries were SplitStats and OverlapMatrix records, and whose eval
# scores were EvalReport and TypeScore records.
_EVAL_PRED = ["eval", "--gold", str(DATA_DIR / "eval_gold.conll"),
              "--pred", str(DATA_DIR / "eval_pred.conll")]
SUMMARY_GOLDENS = [
    ("stats_plain", ["stats", "--input", str(DATA_DIR / "extract_corpus.txt"), "--workers", "1"]),
    ("stats_plain", ["stats", "--input", str(DATA_DIR / "extract_corpus.txt"), "--workers", "2"]),
    ("stats_jsonl", ["stats", "--input", str(DATA_DIR / "stats_corpus.jsonl"),
                     "--format", "jsonl", "--workers", "2"]),
    ("ner_stats_gold", ["ner-stats", "--input", str(DATA_DIR / "eval_gold.conll")]),
    ("ner_stats_conll2003", ["ner-stats", "--input", str(DATA_DIR / "ner_stats_conll2003.conll")]),
    ("ner_stats_empty", ["ner-stats", "--input", "empty.conll"]),
    ("overlap", _OVERLAP_INPUTS),
    ("overlap_stopwords", [*_OVERLAP_INPUTS, "--top-k", "12",
                           "--stopwords", str(DATA_DIR / "overlap_stopwords.txt")]),
    ("eval_pred", _EVAL_PRED),
    # 1 of the 14 gold albums is predicted as a person at the same span.
    ("eval_album_person", [*_EVAL_PRED, "--misclassify", "album,person"]),
    ("eval_person_person", [*_EVAL_PRED, "--misclassify", "person,person"]),
    # The gold file has no song, so the rate is 0.0.
    ("eval_song_band", [*_EVAL_PRED, "--misclassify", "song,band"]),
    ("eval_pred_conlleval", ["eval", "--gold", str(DATA_DIR / "eval_gold.conll"),
                             "--pred", str(DATA_DIR / "eval_pred_conlleval.conll")]),
]


@pytest.mark.parametrize("name, argv", [
    pytest.param(name, argv, id=f"{name} {' '.join(argv[argv.index('--workers'):])}"
                 if "--workers" in argv else name)
    for name, argv in SUMMARY_GOLDENS
])
def test_summary_golden_bytes(capsys, monkeypatch, tmp_path, name, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.conll").touch()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA_DIR / f"summary.{name}.json").read_text(encoding="utf-8")


def test_ner_stats_of_a_lenient_prediction_file_is_data_error(capsys):
    # eval reads this four-column, -DOCSTART- file leniently; ner-stats is strict.
    path = DATA_DIR / "eval_pred_conlleval.conll"
    code, out, err = run_cli(capsys, "ner-stats", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"xner: data error: {path}:3: invalid BIO tag 'I-album'\n"


_CORPUS = str(DATA_DIR / "extract_corpus.txt")
_GOLD = str(DATA_DIR / "eval_gold.conll")
# One valid run of each command that names every path flag it takes.
PATH_FLAG_RUNS = {
    "stats": ["stats", "--input", _CORPUS, "--workers", "1"],
    "extract": [*_extract_args("entity"), *_GAZETTEER_ARGS, "--input", _CORPUS,
                "--workers", "1", "--output", "out"],
    "extract-mentions": ["extract", "--level", "entity", "--input", _CORPUS, "--workers", "1",
                         "--mentions", str(DATA_DIR / "extract_mentions.jsonl"), "--output", "out"],
    "mask": ["mask", "--input", _CORPUS, "--workers", "1", "--output", "out"],
    "ner-stats": ["ner-stats", "--input", _GOLD],
    "eval": ["eval", "--gold", _GOLD, "--pred", _GOLD, "--output", "out"],
    "overlap": ["overlap", "--inputs", f"a={_CORPUS}",
                "--stopwords", str(DATA_DIR / "overlap_stopwords.txt")],
    "pre-annotate": ["pre-annotate", *_GAZETTEER_ARGS, "--input", _CORPUS, "--workers", "1",
                     "--output", "out"],
    "subsample": ["subsample", "--input", _GOLD, "--n", "1", "--output", "out"],
    "joint": ["joint", "--source", _GOLD, "--target", _GOLD, "--output", "out"],
}
PATH_FLAGS = {"--input", "--gazetteer", "--mentions", "--hierarchy", "--specialized",
              "--stopwords", "--gold", "--pred", "--source", "--target", "--output"}


@pytest.mark.parametrize("name, flag", [
    pytest.param(name, flag, id=f"{name} {flag}")
    for name, argv in PATH_FLAG_RUNS.items()
    for flag in argv
    if flag in PATH_FLAGS and (name != "extract-mentions" or flag == "--mentions")
])
def test_empty_path_is_a_missing_file(capsys, monkeypatch, tmp_path, name, flag):
    # An empty path is given, not left out: it names no file, so the run
    # fails as for any missing file and reports '' as the path.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = list(PATH_FLAG_RUNS[name])
    argv[argv.index(flag) + 1] = ""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "xner: data error: [Errno 2] No such file or directory: ''"
    assert os.listdir(tmp_path) == ["work"]
    assert os.listdir(work) == []


_NO_FILE = "[Errno 2] No such file or directory"


@pytest.mark.parametrize("output, error", [
    pytest.param("", _NO_FILE, id="empty"),
    pytest.param("missing/out", _NO_FILE, id="missing-directory"),
    # A trailing slash fails when the temporary file is made, not at the rename.
    pytest.param("missing/", _NO_FILE, id="missing-directory-slash"),
    pytest.param("file/", "[Errno 20] Not a directory", id="file-slash"),
])
@pytest.mark.parametrize("name", ["extract", "mask", "pre-annotate", "subsample", "joint", "eval"])
def test_unwritable_output_fails_first(capsys, monkeypatch, tmp_path, name, output, error):
    # Every input is missing too. The output is made before any input is
    # opened, so its error is the only line on stderr: no progress line
    # comes before it, and nothing is written anywhere.
    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "file").write_text("previous\n")
    monkeypatch.chdir(work)
    path = output and os.path.join(tmp_path, output)  # which keeps a trailing slash
    argv = [name, *REQUIRED_ARGS[name], "--output", path]
    if name == "subsample":  # REQUIRED_ARGS leaves --n to the flag-value test
        argv += ["--n", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"xner: data error: {error}: {path!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["file", "work"]
    assert (tmp_path / "file").read_text() == "previous\n"
    assert os.listdir(work) == []


def test_empty_output_path_fails_at_once(monkeypatch, tmp_path):
    # os.path.abspath("") is the working directory, so a temporary file
    # for "" would be made in its parent.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(FileNotFoundError) as info:
        with _output(""):
            pytest.fail("_output('') gave a file")
    assert (info.value.errno, info.value.filename) == (errno.ENOENT, "")
    assert os.listdir(tmp_path) == ["work"]
    assert os.listdir(work) == []


class TestMask:
    def test_mask_summary_and_output(self, capsys, tmp_path, music_corpus):
        out_path = tmp_path / "m.jsonl"
        code, out, _ = run_cli(
            capsys, "mask", "--strategy", "span", "--rate", "0.15",
            "--seed", "42", "--input", str(music_corpus),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["strategy"] == "span"
        assert summary["sentences"] > 0
        assert summary["targets"] > 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == summary["sentences"]
        for record in records:
            assert {"doc_id", "sentence_index", "tokens", "targets"} <= set(record)

    def test_identical_flags_identical_bytes(self, capsys, tmp_path, music_corpus):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "mask", "--seed", "7", "--input", str(music_corpus),
                "--output", str(out_path), "--workers", "1",
            )
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_byte_identical(self, capsys, monkeypatch, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n\n".join(
            f"Band {d} recorded album {d} in city {d} . "
            f"Critics praised the album {d} widely and often .\n"
            f"The tour of band {d} sold out every night of the week ."
            for d in range(9)
        ) + "\n")
        # One-document chunks and one chunk per worker a window, so the
        # pool merges several windows back into corpus order.
        monkeypatch.setattr(pipelines, "CHUNK_CHARS", 1)
        monkeypatch.setattr(pipelines, "WINDOW_CHUNKS", 1)
        outputs = {}
        for workers in ("1", "2", "3"):
            out_path = tmp_path / f"m{workers}.jsonl"
            code, out, _ = run_cli(
                capsys, "mask", "--strategy", "span", "--seed", "5",
                "--input", str(corpus), "--output", str(out_path),
                "--workers", workers,
            )
            assert code == 0
            outputs[workers] = (out, out_path.read_bytes())
        assert outputs["1"] == outputs["2"] == outputs["3"]
        assert json.loads(outputs["1"][0])["sentences"] == 27

    @pytest.mark.parametrize("strategy", ["token", "span"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_bytes(self, capsys, tmp_path, strategy, workers):
        # Two documents with clitics, quotes, backslashes and non-BMP
        # characters; the expected lines were written by the version that
        # built a new Random for every sentence.
        out_path = tmp_path / "m.jsonl"
        code, out, _ = run_cli(
            capsys, "mask", "--strategy", strategy, "--seed", "11", "--rate", "0.3",
            "--input", str(DATA_DIR / "mask_corpus.txt"), "--output", str(out_path),
            "--workers", workers,
        )
        assert code == 0
        assert json.loads(out) == {"strategy": strategy, "sentences": 6, "targets": 30}
        assert out_path.read_bytes() == (DATA_DIR / f"mask_corpus.{strategy}.jsonl").read_bytes()

    def test_one_token_sentences_are_never_masked(self, capsys, tmp_path):
        # Even at --min-len 1, a sentence needs 2 tokens to be masked.
        corpus = tmp_path / "c.txt"
        corpus.write_text("Hello\nWow\n\nNirvana played.\n")
        out_path = tmp_path / "m.jsonl"
        code, out, _ = run_cli(
            capsys, "mask", "--min-len", "1", "--input", str(corpus),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        assert json.loads(out)["sentences"] == 1
        [record] = map(json.loads, out_path.read_text().splitlines())
        assert (record["doc_id"], record["sentence_index"]) == ("c-000001", 0)

    def test_bad_rate_is_usage_error(self, capsys, tmp_path, music_corpus):
        code, _, err = run_cli(
            capsys, "mask", "--rate", "1.5", "--input", str(music_corpus),
            "--output", str(tmp_path / "m.jsonl"), "--workers", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_vocab_size_is_usage_error(
        self, capsys, tmp_path, music_corpus, size
    ):
        code, out, err = run_cli(
            capsys, "mask", "--vocab-size", size, "--input", str(music_corpus),
            "--output", str(tmp_path / "m.jsonl"), "--workers", "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"xner: usage error: argument --vocab-size: must be >= 1, got '{size}'\n"
        assert not (tmp_path / "m.jsonl").exists()

    def test_piped_input_is_data_error(self, tmp_path):
        # Named like /dev/stdin, so that both give the same document ids.
        corpus = tmp_path / "stdin"
        corpus.write_text(
            "Nirvana recorded Nevermind in Seattle. Kurt Cobain sang.\n\n"
            "Radiohead released Kid A. Critics praised it.\n"
        )

        def mask(name, **stdin):
            argv = [sys.executable, "-m", "xner.cli", "mask", "--min-len", "2",
                    "--input", name, "--workers", "1", "--output", str(tmp_path / "m.jsonl")]
            return subprocess.run(
                argv, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                text=True, timeout=120, **stdin,
            )

        # A pipe would read empty on the second of mask's two passes.
        piped = mask("/dev/stdin", input=corpus.read_text())
        assert (piped.returncode, piped.stdout) == (2, "")
        assert piped.stderr == (
            "xner: data error: /dev/stdin: mask reads its input twice; give a regular file\n"
        )
        assert not (tmp_path / "m.jsonl").exists()
        by_path = mask(str(corpus))
        assert by_path.returncode == 0
        assert json.loads(by_path.stdout)["sentences"] == 4
        expected = (tmp_path / "m.jsonl").read_bytes()
        # A file redirected onto stdin is still a regular file.
        with open(corpus) as fh:
            redirected = mask("/dev/stdin", stdin=fh)
        assert (redirected.returncode, redirected.stdout) == (0, by_path.stdout)
        assert (tmp_path / "m.jsonl").read_bytes() == expected

    def test_lines_are_json_dumps_of_the_record(self, capsys, tmp_path):
        corpus = tmp_path / "quoted.txt"
        corpus.write_text(
            'She said "Café" twice in a row back\\slash 𝄞 clef again here .\n'
            "Tabs\tand\x7fDEL and \x00NUL bytes stay inside the tokens .\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "m.jsonl"
        code, _, _ = run_cli(
            capsys, "mask", "--strategy", "span", "--rate", "0.5", "--input", str(corpus),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert list(record) == ["doc_id", "sentence_index", "tokens", "targets"]
            assert line == json.dumps(record, ensure_ascii=False)
        assert {'"', "Café", "back\\slash", "𝄞", "and\x7fDEL", "\x00NUL"} <= set(
            json.loads(lines[0])["tokens"] + json.loads(lines[1])["tokens"]
            + [t["orig"] for line in lines for t in json.loads(line)["targets"]]
        )


class TestLoneSurrogates:
    """A string that UTF-8 cannot encode fails as a data error naming its
    file, before any output is written."""

    @pytest.mark.parametrize("record", [
        '{"id": "a", "text": "Nirvana \\ud800 played in big Seattle today."}',
        '{"id": "\\udc80", "text": "Nirvana played in big Seattle today."}',
    ])
    @pytest.mark.parametrize("command", [
        ["mask", "--min-len", "2"],
        ["extract", "--level", "entity", "--min-mentions", "1"],
        ["pre-annotate"],
    ])
    def test_jsonl_record_is_data_error_with_line(
        self, capsys, tmp_path, gazetteer_file, record, command
    ):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "ok", "text": "Nirvana played."}\n' + record + "\n")
        if command[0] != "mask":
            command = command + ["--gazetteer", str(gazetteer_file)]
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, *command, "--format", "jsonl", "--input", str(corpus),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 2
        assert out == ""
        assert f"data error: {corpus}:2: 'id' or 'text' has a lone surrogate" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "g.tsv"]

    def test_non_utf8_file_name_is_a_mask_data_error(self, capsys, tmp_path):
        corpus = tmp_path / os.fsdecode(b"bad\xff.txt")
        corpus.write_text("Nirvana played in big Seattle today.\n")
        code, out, err = run_cli(
            capsys, "mask", "--min-len", "2", "--input", str(corpus),
            "--output", str(tmp_path / "m.jsonl"), "--workers", "1",
        )
        assert code == 2
        assert out == ""
        name = str(tmp_path / "bad\\xff.txt")
        assert err == f"xner: data error: {name}: the file name is not valid UTF-8\n"
        assert not (tmp_path / "m.jsonl").exists()
        # Only mask writes the document ids, so the other commands read the file.
        code, out, _ = run_cli(capsys, "stats", "--input", str(corpus), "--workers", "1")
        assert code == 0
        assert json.loads(out)["tokens"] == 7


class TestEval:
    def test_invalid_utf8_is_data_error_with_line(self, capsys, tmp_path):
        gold = tmp_path / "g.conll"
        gold.write_text("Nirvana B-band\nplayed O\n\n")
        pred = tmp_path / "p.conll"
        pred.write_bytes(b"Nirvana B-band\nplayed O\n\n\xc3( O\n\n")
        code, out, err = run_cli(
            capsys, "eval", "--gold", str(gold), "--pred", str(pred)
        )
        assert code == 2
        assert out == ""
        assert f"{pred}:4: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_perfect_prediction(self, capsys, tmp_path):
        conll = tmp_path / "g.conll"
        conll.write_text("Nirvana B-band\nplayed O\n\n")
        code, out, _ = run_cli(
            capsys, "eval", "--gold", str(conll), "--pred", str(conll)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["f1"] == 1.0

    def test_full_report_written(self, capsys, tmp_path):
        gold = tmp_path / "g.conll"
        gold.write_text("Nirvana B-band\nplayed O\n\n")
        pred = tmp_path / "p.conll"
        pred.write_text("Nirvana B-album\nplayed O\n\n")
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eval", "--gold", str(gold), "--pred", str(pred),
            "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["confusion"] == [{"gold": "band", "predicted": "album", "count": 1}]

    def test_misclassification_flag(self, capsys, tmp_path):
        gold = tmp_path / "g.conll"
        gold.write_text("Kurt B-person\nsang O\n\n")
        pred = tmp_path / "p.conll"
        pred.write_text("Kurt B-artist\nsang O\n\n")
        code, out, _ = run_cli(
            capsys, "eval", "--gold", str(gold), "--pred", str(pred),
            "--misclassify", "person,artist",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["misclassification_rate"] == 1.0


    def test_malformed_misclassification_flag_is_usage_error(self, capsys, tmp_path):
        conll = tmp_path / "g.conll"
        conll.write_text("Nirvana B-band\n\n")
        code, out, err = run_cli(
            capsys, "eval", "--gold", str(conll), "--pred", str(conll), "--misclassify", "x",
        )
        assert (code, out) == (1, "")
        assert "usage error" in err

    def test_malformed_misclassification_flag_reads_no_file(
        self, capsys, monkeypatch, tmp_path
    ):
        missing = str(tmp_path / "missing.conll")
        code, out, err = run_cli(
            capsys, "eval", "--gold", missing, "--pred", missing, "--misclassify", "A",
        )
        assert (code, out) == (1, "")
        assert err == (
            "xner: usage error: argument --misclassify: "
            "must be FROM,TO with both types given, got 'A'\n"
        )

        def parse_conll(path):
            raise AssertionError(f"read {path} before the usage error")

        monkeypatch.setattr("xner.cli.parse_conll", parse_conll)
        gold = str(DATA_DIR / "eval_gold.conll")
        code, out, err = run_cli(
            capsys, "eval", "--gold", gold, "--pred", gold, "--misclassify", "A",
        )
        assert (code, out) == (1, "")
        assert err == (
            "xner: usage error: argument --misclassify: "
            "must be FROM,TO with both types given, got 'A'\n"
        )

    def test_full_report_bytes(self, capsys, tmp_path):
        # eval_report.json was written by the frozen-dataclass records, so a
        # change in how a record becomes a dict cannot reorder the keys.
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "eval", "--gold", str(DATA_DIR / "eval_gold.conll"),
            "--pred", str(DATA_DIR / "eval_pred.conll"), "--output", str(report),
        )
        assert code == 0
        assert report.read_bytes() == (DATA_DIR / "eval_report.json").read_bytes()

    def test_i_after_o_in_four_column_pred_scored_as_conlleval(self, capsys, tmp_path):
        words = ["EU", "rejects", "German", "call", "to", "boycott", "British", "lamb"]
        gold_tags = ["B-ORG", "O", "B-MISC", "O", "O", "O", "B-MISC", "O"]
        pred_tags = ["I-ORG", "O", "I-MISC", "O", "I-ORG", "O", "B-ORG", "O"]
        gold, pred = tmp_path / "g.conll", tmp_path / "p.conll"
        for path, tags in ((gold, gold_tags), (pred, pred_tags)):
            path.write_text(
                "-DOCSTART- -X- -X- O\n\n"
                + "".join(f"{w} NNP I-NP {t}\n" for w, t in zip(words, tags))
            )
        code, out, err = run_cli(capsys, "eval", "--gold", str(gold), "--pred", str(pred))
        assert (code, err) == (0, "")
        summary = json.loads(out)
        ref = ref_evaluate([gold_tags], [pred_tags])["micro"]
        assert (ref["gold"], ref["predicted"], ref["correct"]) == (3, 4, 2)
        for key in ("precision", "recall", "f1"):
            assert summary[key] == pytest.approx(ref[key])

    def test_conlleval_data_file_matches_reference(self, capsys):
        def tag_sequences(path):
            sequences, tags = [], []
            for line in path.read_text().splitlines():
                fields = line.split()
                if fields and fields[0] != "-DOCSTART-":
                    tags.append(fields[-1])
                elif tags:
                    sequences.append(tags)
                    tags = []
            return sequences + [tags] if tags else sequences

        gold = DATA_DIR / "eval_gold.conll"
        pred = DATA_DIR / "eval_pred_conlleval.conll"
        code, out, _ = run_cli(capsys, "eval", "--gold", str(gold), "--pred", str(pred))
        assert code == 0
        summary = json.loads(out)
        ref = ref_evaluate(tag_sequences(gold), tag_sequences(pred))["micro"]
        for key in ("precision", "recall", "f1"):
            assert summary[key] == pytest.approx(ref[key])

    def test_token_mismatch_names_pred_line(self, capsys, tmp_path):
        gold = tmp_path / "g.conll"
        gold.write_text("a O\n\nb O\nc O\n")
        pred = tmp_path / "p.conll"
        pred.write_text("a O\n\nb O\nd O\n")
        code, out, err = run_cli(capsys, "eval", "--gold", str(gold), "--pred", str(pred))
        assert (code, out) == (2, "")
        assert err == f"xner: data error: {pred}:3: token mismatch at sentence 1\n"

    @pytest.mark.parametrize("count", [19, 21], ids=["shorter", "longer"])
    def test_sentence_count_mismatch_keeps_previous_report(self, capsys, tmp_path, count):
        gold = DATA_DIR / "eval_gold.conll"
        sentences = gold.read_text(encoding="utf-8").split("\n\n")[:-1]
        assert len(sentences) == 20
        pred = tmp_path / "p.conll"
        pred.write_text("".join(s + "\n\n" for s in [*sentences, "extra O"][:count]))
        report = tmp_path / "report.json"
        report.write_bytes(b"previous report\n")
        code, out, err = run_cli(
            capsys, "eval", "--gold", str(gold), "--pred", str(pred), "--output", str(report),
        )
        assert (code, out) == (2, "")
        assert err == f"xner: data error: gold has 20 sentences but pred has {count}\n"
        assert report.read_bytes() == b"previous report\n"
        assert sorted(os.listdir(tmp_path)) == ["p.conll", "report.json"]


class TestNerStatsSubsampleJoint:
    def _conll(self, tmp_path, name, n):
        path = tmp_path / name
        path.write_text("".join(f"w{i} B-x\n\n" for i in range(n)))
        return path

    def test_ner_stats(self, capsys, tmp_path):
        path = self._conll(tmp_path, "d.conll", 4)
        code, out, _ = run_cli(capsys, "ner-stats", "--input", str(path))
        assert code == 0
        summary = json.loads(out)
        assert summary["sentences"] == 4
        assert summary["entities"]["x"]["count"] == 4

    def test_subsample_deterministic(self, capsys, tmp_path):
        path = self._conll(tmp_path, "d.conll", 50)
        outputs = []
        for name in ("s1.conll", "s2.conll"):
            out_path = tmp_path / name
            code, out, _ = run_cli(
                capsys, "subsample", "--input", str(path), "--n", "10",
                "--seed", "3", "--output", str(out_path),
            )
            assert code == 0
            assert json.loads(out)["sampled"] == 10
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_subsample_oversized_usage_error(self, capsys, tmp_path):
        path = self._conll(tmp_path, "d.conll", 5)
        code, _, _ = run_cli(
            capsys, "subsample", "--input", str(path), "--n", "6",
            "--seed", "0", "--output", str(tmp_path / "s.conll"),
        )
        assert code == 1

    def test_joint(self, capsys, tmp_path):
        source = self._conll(tmp_path, "src.conll", 12)
        target = self._conll(tmp_path, "tgt.conll", 2)
        out_path = tmp_path / "joint.conll"
        code, out, _ = run_cli(
            capsys, "joint", "--source", str(source), "--target", str(target),
            "--multiplier", "100", "--output", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["total"] == 12 + 100 * 2

    @pytest.mark.parametrize("multiplier", ["0", "-1"])
    def test_joint_multiplier_below_one_is_usage_error(self, capsys, tmp_path, multiplier):
        source = self._conll(tmp_path, "src.conll", 2)
        code, out, err = run_cli(
            capsys, "joint", "--source", str(source), "--target", str(source),
            "--multiplier", multiplier, "--output", str(tmp_path / "joint.conll"),
        )
        assert (code, out) == (1, "")
        assert err == f"xner: usage error: argument --multiplier: must be >= 1, got '{multiplier}'\n"
        assert not (tmp_path / "joint.conll").exists()

    def test_subsample_keeps_every_column(self, capsys, tmp_path):
        path = tmp_path / "conll03.conll"
        path.write_text("EU NNP B-NP B-ORG\nrejects VBZ B-VP O\n")
        out_path = tmp_path / "few.conll"
        code, out, _ = run_cli(
            capsys, "subsample", "--input", str(path), "--n", "1", "--output", str(out_path),
        )
        assert (code, json.loads(out)) == (0, {"sampled": 1, "from": 1, "seed": 0})
        assert out_path.read_text() == "EU NNP B-NP B-ORG\nrejects VBZ B-VP O\n\n"

    def test_joint_writes_source_then_target_lines(self, capsys, tmp_path):
        source = tmp_path / "src.conll"
        source.write_text("-DOCSTART- -X- O O\n\nEU\tB-ORG\n\n\nlamb O \n")
        target = tmp_path / "tgt.conll"
        target.write_text("Kid B-album\nA I-album")
        out_path = tmp_path / "joint.conll"
        code, out, _ = run_cli(
            capsys, "joint", "--source", str(source), "--target", str(target),
            "--multiplier", "2", "--output", str(out_path),
        )
        assert code == 0
        assert json.loads(out) == {"source": 2, "target": 1, "multiplier": 2, "total": 4}
        assert out_path.read_text() == (
            "EU\tB-ORG\n\nlamb O \n\n" + "Kid B-album\nA I-album\n\n" * 2
        )

    @pytest.mark.parametrize("bad", ["source", "target"])
    def test_bad_input_keeps_previous_output(self, capsys, tmp_path, bad):
        # The source is written as it is read, so its bad line comes after
        # the sentences before it have gone to the temporary file.
        files = {name: self._conll(tmp_path, f"{name}.conll", 3) for name in ("source", "target")}
        files[bad].write_text("a O\n\nb O\nc I-x\n")
        out_path = tmp_path / "joint.conll"
        out_path.write_text("previous\n")
        code, out, err = run_cli(
            capsys, "joint", "--source", str(files["source"]), "--target", str(files["target"]),
            "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == f"xner: data error: {files[bad]}:4: invalid BIO tag 'I-x'\n"
        assert out_path.read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["joint.conll", "source.conll", "target.conll"]

    def test_commands_do_not_read_the_list_model(self, capsys, monkeypatch, tmp_path):
        gold = DATA_DIR / "eval_gold.conll"
        sentences = parse_conll(gold)

        def no_parse_conll(path):
            raise AssertionError(f"parse_conll read {path}")

        monkeypatch.setattr("xner.cli.parse_conll", no_parse_conll)
        code, out, _ = run_cli(capsys, "ner-stats", "--input", str(gold))
        assert (code, json.loads(out)) == (0, dataset_stats(sentences))

        expected = io.StringIO()
        serialize_conll(subsample(sentences, 5, 3), expected)
        out_path = tmp_path / "few.conll"
        code, _, _ = run_cli(
            capsys, "subsample", "--input", str(gold), "--n", "5", "--seed", "3",
            "--output", str(out_path),
        )
        assert (code, out_path.read_text()) == (0, expected.getvalue())

        code, _, _ = run_cli(
            capsys, "joint", "--source", str(gold), "--target", str(gold),
            "--multiplier", "2", "--output", str(out_path),
        )
        expected = io.StringIO()
        serialize_conll(build_joint(sentences, sentences, 2), expected)
        assert (code, out_path.read_text()) == (0, expected.getvalue())


def _bio(draft):
    """Valid BIO from tags where "I" continues the previous chunk, if any."""
    tags, current = [], None
    for tag in draft:
        if tag == "I":
            tag = f"I-{current}" if current else "O"
        current = None if tag == "O" else tag[2:]
        tags.append(tag)
    return tags


@st.composite
def conll_file(draw, columns, separators, trailing):
    """(file text, each sentence's lines, whether every line has a tag).

    Token lines have columns fields, the tag last, each field after the
    first preceded by a separator and the line's end by trailing; a
    one-field line has no tag. Runs of blank and -DOCSTART- lines sit
    between sentences, and the file's last newline may be missing."""
    token = st.sampled_from(["EU", "rejects", "Kid", "é", "B-x", "O", "-X-", "'s"])
    middle = st.sampled_from(["NNP", "VBZ", "B-NP", "I-VP", "-X-"])
    gap = st.lists(
        st.sampled_from(["\n", " \n", "\t\n", "-DOCSTART- -X- -X- O\n", "-DOCSTART-\n"]),
        min_size=1, max_size=3,
    ).map("".join)
    drafts = st.lists(st.sampled_from(["O", "B-x", "B-y", "I"]), min_size=1, max_size=4)
    sentences, tagged = [], True
    for draft in draw(st.lists(drafts, max_size=5)):
        lines = []
        for tag in _bio(draft):
            n = draw(columns)
            fields = [draw(token)] if n == 1 else [
                draw(token), *(draw(middle) for _ in range(n - 2)), tag,
            ]
            tagged &= n > 1
            line = fields[0] + "".join(draw(separators) + field for field in fields[1:])
            lines.append(line + draw(trailing) + "\n")
        sentences.append("".join(lines))
    text = draw(st.sampled_from(["", "\n", "-DOCSTART- -X- -X- O\n\n"]))
    text += "".join(sentence + draw(gap) for sentence in sentences[:-1])
    if sentences:
        text += sentences[-1] + draw(st.sampled_from(["", "", "\n", "\n-DOCSTART-\n"]))
        if text.endswith("\n") and draw(st.booleans()):
            text = text[:-1]
    return text, sentences, tagged


def _run_quiet(argv):
    """cli.run in-process, for hypothesis, which cannot use capsys: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _written_sentences(text):
    """The sentences of a file that subsample or joint wrote: each is its
    lines then one blank line, so a blank line ends every sentence."""
    *sentences, tail = text.split("\n\n")
    assert tail == ""
    return [sentence + "\n" for sentence in sentences]


PROPERTY_SETTINGS = settings(
    deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLosslessWriters:
    """subsample and joint write back the lines they read, and on the
    two-column, single-space files that the list model wrote they give
    its bytes."""

    ANY_COLUMNS = conll_file(
        st.sampled_from([2, 3, 4] * 8 + [1]),  # a one-field line is a data error
        st.sampled_from([" ", "\t"]),
        st.sampled_from(["", "", " ", "\t"]),
    )
    TWO_COLUMNS = conll_file(st.just(2), st.just(" "), st.just(""))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_written_sentences_are_input_sentences(self, data):
        source_text, source, source_tagged = data.draw(self.ANY_COLUMNS)
        target_text, target, target_tagged = data.draw(self.ANY_COLUMNS)
        n = data.draw(st.integers(0, len(source)))
        seed = data.draw(st.integers(0, 2**32))
        multiplier = data.draw(st.integers(1, 3))
        with tempfile.TemporaryDirectory() as tmp:
            src, tgt, out = (os.path.join(tmp, name) for name in ("src", "tgt", "out"))
            Path(src).write_bytes(source_text.encode())
            Path(tgt).write_bytes(target_text.encode())

            code, _ = _run_quiet([
                "subsample", "--input", src, "--n", str(n), "--seed", str(seed),
                "--output", out,
            ])
            if not source_tagged:
                assert (code, os.path.exists(out)) == (2, False)
            else:
                assert code == 0
                # Each written sentence is, byte for byte, one the generator made.
                written = _written_sentences(Path(out).read_bytes().decode())
                assert written == subsample(source, n, seed)
                os.unlink(out)

            code, _ = _run_quiet([
                "joint", "--source", src, "--target", tgt,
                "--multiplier", str(multiplier), "--output", out,
            ])
            if not (source_tagged and target_tagged):
                assert (code, os.path.exists(out)) == (2, False)
            else:
                assert code == 0
                written = _written_sentences(Path(out).read_bytes().decode())
                assert written == source + target * multiplier

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_two_column_output_equals_the_list_model(self, data):
        source_text, _, _ = data.draw(self.TWO_COLUMNS)
        target_text, _, _ = data.draw(self.TWO_COLUMNS)
        seed = data.draw(st.integers(0, 2**32))
        multiplier = data.draw(st.integers(1, 3))
        with tempfile.TemporaryDirectory() as tmp:
            src, tgt, out = (os.path.join(tmp, name) for name in ("src", "tgt", "out"))
            Path(src).write_bytes(source_text.encode())
            Path(tgt).write_bytes(target_text.encode())
            source, target = parse_conll(src), parse_conll(tgt)
            n = data.draw(st.integers(0, len(source)))

            def oracle(summary, sentences):
                expected = io.StringIO()
                serialize_conll(sentences, expected)
                return json.dumps(summary) + "\n", expected.getvalue().encode()

            assert _run_quiet(["ner-stats", "--input", src]) == (
                0, json.dumps(dataset_stats(source), ensure_ascii=False) + "\n",
            )

            code, summary = _run_quiet([
                "subsample", "--input", src, "--n", str(n), "--seed", str(seed),
                "--output", out,
            ])
            assert code == 0
            assert (summary, Path(out).read_bytes()) == oracle(
                {"sampled": n, "from": len(source), "seed": seed},
                subsample(source, n, seed),
            )

            code, summary = _run_quiet([
                "joint", "--source", src, "--target", tgt,
                "--multiplier", str(multiplier), "--output", out,
            ])
            joint = build_joint(source, target, multiplier)
            assert code == 0
            assert (summary, Path(out).read_bytes()) == oracle(
                {"source": len(source), "target": len(target),
                 "multiplier": multiplier, "total": len(joint)},
                joint,
            )


class TestOverlapAndPreAnnotate:
    def test_overlap_self_is_hundred(self, capsys, tmp_path, music_corpus):
        code, out, _ = run_cli(
            capsys, "overlap",
            "--inputs", f"a={music_corpus}", f"b={music_corpus}",
            "--top-k", "100",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["domains"] == ["a", "b"]
        assert summary["values"][0][0] == 100.0
        assert summary["values"][0][1] == 100.0

    def test_overlap_non_positive_top_k_is_usage_error(self, capsys, music_corpus):
        code, out, err = run_cli(
            capsys, "overlap", "--inputs", f"a={music_corpus}", "--top-k", "0",
        )
        assert (code, out) == (1, "")
        assert "usage error" in err

    def test_overlap_repeated_name_is_usage_error(self, capsys, tmp_path, music_corpus):
        other = tmp_path / "other.txt"
        other.write_text("Completely different words here.\n")
        code, out, err = run_cli(
            capsys, "overlap", "--inputs", f"a={music_corpus}", f"a={other}",
        )
        assert code == 1
        assert out == ""
        assert "'a'" in err

    def test_pre_annotate(self, capsys, tmp_path, music_corpus, gazetteer_file):
        out_path = tmp_path / "pre.conll"
        code, out, _ = run_cli(
            capsys, "pre-annotate", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        text = out_path.read_text()
        assert "Nirvana B-band" in text
        assert "Nevermind B-album" in text

    def test_pre_annotate_output_scores_against_itself(
        self, capsys, tmp_path, music_corpus, gazetteer_file, hierarchy_file
    ):
        out_path = tmp_path / "pre.conll"
        code, _, _ = run_cli(
            capsys, "pre-annotate", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file), "--hierarchy", str(hierarchy_file),
            "--output", str(out_path), "--workers", "1",
        )
        assert code == 0
        assert "Kurt B-musicalartist" in out_path.read_text()
        for argv in (
            ("ner-stats", "--input", str(out_path)),
            ("eval", "--gold", str(out_path), "--pred", str(out_path)),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
        assert json.loads(out)["f1"] == 1.0

    def test_pre_annotate_type_with_whitespace_is_data_error(
        self, capsys, tmp_path, music_corpus
    ):
        gazetteer = tmp_path / "g.tsv"
        gazetteer.write_text("Nirvana\tmusical band\n")
        out_path = tmp_path / "pre.conll"
        code, out, err = run_cli(
            capsys, "pre-annotate", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer), "--output", str(out_path), "--workers", "1",
        )
        assert code == 2
        assert out == ""
        assert f"{gazetteer}:1: expected 'surface<TAB>type', one-word type" in err
        assert not out_path.exists()

    def test_pre_annotate_blank_surface_is_data_error(self, capsys, tmp_path, music_corpus):
        gazetteer = tmp_path / "g.tsv"
        gazetteer.write_text("Nirvana\tband\n \tband\n")
        out_path = tmp_path / "pre.conll"
        code, out, err = run_cli(
            capsys, "pre-annotate", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer), "--output", str(out_path), "--workers", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"xner: data error: {gazetteer}:2: empty surface form\n"
        assert not out_path.exists()

    def test_pre_annotate_workers_byte_identical(
        self, capsys, tmp_path, music_corpus, gazetteer_file, hierarchy_file
    ):
        outputs = {}
        for workers in ("1", "2"):
            out_path = tmp_path / f"pre{workers}.conll"
            code, out, _ = run_cli(
                capsys, "pre-annotate", "--input", str(music_corpus),
                "--gazetteer", str(gazetteer_file), "--hierarchy", str(hierarchy_file),
                "--output", str(out_path), "--workers", workers,
            )
            assert code == 0
            outputs[workers] = (out, out_path.read_bytes())
        assert outputs["1"] == outputs["2"]
        assert json.loads(outputs["1"][0])["sentences"] == 5

    def test_pre_annotate_zero_workers_is_usage_error(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        code, _, err = run_cli(
            capsys, "pre-annotate", "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file),
            "--output", str(tmp_path / "pre.conll"), "--workers", "0",
        )
        assert code == 1
        assert "--workers" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


class TestImportFootprint:
    """Nothing loads OpenSSL or dataclasses (with inspect, which it imports),
    and only a pooled run loads the process-pool modules."""

    HEAVY = ["_hashlib", "dataclasses", "inspect", "concurrent.futures.process"]

    def _loaded(self, *statements):
        script = "\n".join([
            "import sys", *statements,
            f"print([m for m in {self.HEAVY!r} if m in sys.modules])",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True,
        )
        return result.stdout.splitlines()[-1]

    def test_import_cli(self):
        assert self._loaded("import xner.cli") == "[]"

    def test_unpooled_mask_and_eval(self, tmp_path, music_corpus):
        gold = DATA_DIR / "eval_gold.conll"
        mask = ["mask", "--input", str(music_corpus), "--workers", "1",
                "--output", str(tmp_path / "m.jsonl")]
        evaluate = ["eval", "--gold", str(gold), "--pred", str(gold)]
        assert self._loaded(
            "from xner.cli import run",
            f"assert run({mask!r}) == 0",
            f"assert run({evaluate!r}) == 0",
        ) == "[]"

    def test_pooled_run_loads_the_pool(self, tmp_path, music_corpus):
        mask = ["mask", "--input", str(music_corpus), "--workers", "2",
                "--output", str(tmp_path / "m.jsonl")]
        assert self._loaded(
            "from xner.cli import run", f"assert run({mask!r}) == 0"
        ) == "['concurrent.futures.process']"


START_METHODS = multiprocessing.get_all_start_methods()


def _start_pools_with(monkeypatch, method):
    """Make every pool that the CLI starts use the given start method."""
    monkeypatch.setattr(
        pipelines, "ProcessPoolExecutor",
        partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)),
        raising=False,
    )


# Pooled runs of extract_corpus.txt (11 documents) and mask_corpus.txt (2).
POOLED_RUNS = {
    "stats": ["stats", "--input", _CORPUS],
    "extract": [*GAZETTEER_GOLDENS["integrated.txt"][0], "--input", _CORPUS, "--output", "out"],
    "mask": ["mask", "--strategy", "span", "--seed", "11", "--rate", "0.3",
             "--input", str(DATA_DIR / "mask_corpus.txt"), "--output", "out"],
    "pre-annotate": [*GAZETTEER_GOLDENS["pre_annotate.conll"][0], "--input", _CORPUS,
                     "--output", "out"],
}


@pytest.mark.parametrize("name", POOLED_RUNS)
@pytest.mark.parametrize("method", START_METHODS)
def test_pooled_bytes_under_every_start_method(capsys, monkeypatch, tmp_path, method, name):
    # One-document chunks: every document is a pool task, and the summary
    # and output bytes are those of one worker however the pool starts.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipelines, "CHUNK_CHARS", 1)
    _start_pools_with(monkeypatch, method)
    out_path = tmp_path / "out"
    runs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, *POOLED_RUNS[name], "--workers", workers)
        assert code == 0
        runs.append((out, None if name == "stats" else out_path.read_bytes()))
        out_path.unlink(missing_ok=True)
    assert runs[0] == runs[1]


_SURFACES = {"Nirvana": "band", "Nevermind": "album", "Seattle": "location", "Kid A": "album"}
_SENTENCE = st.lists(
    st.sampled_from(["Nirvana", "Nevermind", "Seattle", "Kid", "A", "w", "w.", "Go"]),
    min_size=1, max_size=6,
).map(" ".join)
# Documents of paragraphs of sentences; a token "w." before a capital ends one.
_DOCUMENTS = st.lists(
    st.lists(st.lists(_SENTENCE, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=3),
    max_size=6,
)


@st.composite
def _extract_runs(draw):
    """The files and extract flags of one run: a plain or JSONL corpus, a
    gazetteer or a mention file over it, and the selection flags."""
    documents = draw(_DOCUMENTS)
    jsonl = draw(st.booleans())
    if jsonl:
        ids = [f"j{i}" for i in range(len(documents))]
        corpus = "".join(
            json.dumps({"id": i, "text": "\n".join(doc)}) + "\n" for i, doc in zip(ids, documents)
        )
    else:
        ids = [f"corpus-{i:06d}" for i in range(len(documents))]
        corpus = "\n".join("".join(p + "\n" for p in doc) for doc in documents)
    files = {"corpus": corpus, "specialized": "band\nalbum\n"}
    if ids and draw(st.booleans()):
        # Each record marks a sentence's first token, so no span is past its end.
        records = st.builds(
            lambda doc_id, index, entity_type: json.dumps({
                "doc_id": doc_id, "sentence_index": index, "start": 0, "end": 1,
                "type": entity_type,
            }),
            st.sampled_from(ids), st.integers(0, 3), st.sampled_from(sorted({*_SURFACES.values()})),
        )
        files["mentions"] = "".join(r + "\n" for r in draw(st.lists(records, max_size=12)))
    else:
        files["gazetteer"] = "".join(f"{k}\t{v}\n" for k, v in _SURFACES.items())
    flags = [
        "--format", "jsonl" if jsonl else "plain",
        "--level", draw(st.sampled_from(["entity", "task", "integrated"])),
        "--min-mentions", str(draw(st.integers(1, 2))),
        "--upsample", str(draw(st.integers(1, 3))),
        "--seed", str(draw(st.integers(0, 9))),
    ]
    if draw(st.booleans()):
        flags += ["--percent", str(draw(st.integers(0, 100)))]
    return files, flags


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    run_args=_extract_runs(), workers=st.integers(2, 4),
    chunk_chars=st.integers(1, 64), window_chunks=st.integers(1, 3),
)
def test_extract_bytes_do_not_depend_on_workers(run_args, workers, chunk_chars, window_chunks):
    # The pool runs in this process, so the chunks and windows of every
    # drawn size cost no process start. An integrated corpus is also the
    # entity corpus, then the task corpus --upsample times.
    files, flags = run_args
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipelines, "CHUNK_CHARS", chunk_chars)
        patch.setattr(pipelines, "WINDOW_CHUNKS", window_chunks)
        patch.setattr(pipelines, "ProcessPoolExecutor", InProcessPool, raising=False)
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text, encoding="utf-8")
        source = "mentions" if "mentions" in files else "gazetteer"
        output = os.path.join(tmp, "out")

        def extract(*extra):
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = run([
                    "extract", "--input", paths["corpus"], f"--{source}", paths[source],
                    "--specialized", paths["specialized"], "--output", output, *flags, *extra,
                ])
            assert code == 0
            return json.loads(stdout.getvalue()), Path(output).read_text(encoding="utf-8")

        one = extract("--workers", "1")
        assert extract("--workers", str(workers)) == one
        if one[0]["level"] == "integrated":
            (entity, entity_text), (task, task_text) = (
                extract("--workers", "1", "--level", level) for level in ("entity", "task")
            )
            upsample = int(flags[flags.index("--upsample") + 1])
            assert one[1] == "\n".join(t for t in [entity_text] + [task_text] * upsample if t)
            assert [one[0][k] for k in ("sentences", "tokens")] == [
                entity[k] + upsample * task[k] for k in ("sentences", "tokens")
            ]


@pytest.fixture
def third_record_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "d", "text": "Nirvana recorded Nevermind in Seattle. "
                       "Kurt Cobain wrote most songs for Nirvana and Nevermind."})
    path.write_text(f"{good}\n{good}\n{{\"id\": \"d2\", \"text\": \n{good}\n")
    return path


def _die(marker, *args, **kwargs):
    """Leave marker, so a test can tell this death from one at start-up."""
    Path(marker).touch()
    os._exit(1)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestFailedRuns:
    """A failed run exits cleanly and leaves its output file as it was."""

    @staticmethod
    def _previous_output(tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result"
        out.write_bytes(b"previous output\n")
        return out

    @staticmethod
    def _assert_untouched(out):
        assert out.read_bytes() == b"previous output\n"
        assert os.listdir(out.parent) == [out.name]

    COMMANDS = [
        ["mask"],
        ["extract", "--level", "integrated", "--gazetteer", "G", "--specialized", "S"],
        ["pre-annotate", "--gazetteer", "G"],
    ]

    @pytest.mark.parametrize("command, workers", [
        *(pytest.param(c, "1", id=f"command{i}") for i, c in enumerate(COMMANDS)),
        # mask reads the whole corpus for its vocabulary before it starts a
        # pool, so only extract and pre-annotate fail with a pool running.
        *(pytest.param(c, "2", id=f"command{i}-pool")
          for i, c in enumerate(COMMANDS) if i > 0),
    ])
    def test_malformed_record_keeps_previous_output(
        self, capsys, monkeypatch, tmp_path, third_record_malformed, gazetteer_file,
        specialized_file, command, workers,
    ):
        windows = []
        if workers != "1":
            # One-document chunks and one chunk per worker a window: the
            # pool is working on the first two records when the reader
            # meets the third.
            monkeypatch.setattr(pipelines, "CHUNK_CHARS", 1)
            monkeypatch.setattr(pipelines, "WINDOW_CHUNKS", 1)

            class CountingPool(pipelines.ProcessPoolExecutor):
                def map(self, fn, *iterables, **kwargs):
                    windows.append(len(iterables[0]))
                    return super().map(fn, *iterables, **kwargs)

            monkeypatch.setattr(pipelines, "ProcessPoolExecutor", CountingPool)
        out = self._previous_output(tmp_path)
        files = {"G": str(gazetteer_file), "S": str(specialized_file)}
        code, out_text, err = run_cli(
            capsys, *[files.get(arg, arg) for arg in command],
            "--input", str(third_record_malformed), "--format", "jsonl",
            "--workers", workers, "--output", str(out),
        )
        assert code == 2
        assert out_text == ""
        assert f"data error: {third_record_malformed}:3: invalid JSON" in err
        assert "Traceback" not in err
        assert windows == ([] if workers == "1" else [2])
        self._assert_untouched(out)

    def test_missing_output_directory_names_the_given_path(
        self, capsys, monkeypatch, tmp_path, music_corpus, gazetteer_file
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "extract", "--input", str(music_corpus), "--workers", "1",
            "--level", "entity", "--gazetteer", str(gazetteer_file), "--output", "nodir/e.txt",
        )
        assert code == 2
        assert out == ""
        assert err == "xner: data error: [Errno 2] No such file or directory: 'nodir/e.txt'\n"
        assert ".tmp" not in err
        assert not (tmp_path / "nodir").exists()

    def test_success_replaces_output_with_default_mode(
        self, capsys, tmp_path, music_corpus
    ):
        out = self._previous_output(tmp_path)
        code, _, _ = run_cli(
            capsys, "mask", "--input", str(music_corpus), "--workers", "1",
            "--output", str(out),
        )
        assert code == 0
        assert out.read_bytes().startswith(b'{"doc_id"')
        assert os.listdir(out.parent) == [out.name]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_symlink_and_fifo_outputs_are_written_through(
        self, capsys, tmp_path, music_corpus
    ):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        for out in (link, fifo):
            code, _, _ = run_cli(
                capsys, "mask", "--input", str(music_corpus), "--workers", "1",
                "--output", str(out),
            )
            assert code == 0
        reader.join(timeout=10)
        assert link.is_symlink()
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert received == [target.read_bytes()]
        assert target.read_bytes().startswith(b'{"doc_id"')

    @pytest.mark.parametrize("redirect", [">", ">>"])
    def test_output_to_redirected_stdout_keeps_data_then_summary(
        self, capsys, tmp_path, music_corpus, redirect
    ):
        expected = tmp_path / "expected.jsonl"
        _, summary, _ = run_cli(
            capsys, "mask", "--input", str(music_corpus), "--workers", "1",
            "--output", str(expected),
        )
        out = tmp_path / "out.jsonl"
        out.write_text('{"previous": "line"}\n')
        command = " ".join(map(shlex.quote, [
            sys.executable, "-m", "xner.cli", "mask", "--input", str(music_corpus),
            "--workers", "1", "--output", "/dev/stdout",
        ]))
        subprocess.run(
            ["sh", "-c", f"{command} {redirect} {shlex.quote(str(out))}"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
            stderr=subprocess.DEVNULL,
        )
        lines = out.read_text().splitlines(keepends=True)
        assert all(json.loads(line) for line in lines)
        if redirect == ">>":
            assert lines.pop(0) == '{"previous": "line"}\n'
        assert "".join(lines) == expected.read_text() + summary

    @pytest.mark.parametrize("method", START_METHODS)
    def test_crashed_worker_exits_2_in_one_line(
        self, capsys, monkeypatch, tmp_path, music_corpus, method
    ):
        # The patched worker reaches a process that does not fork through
        # the pool initializer's arguments, as a reference to this module.
        marker = tmp_path / "died"
        monkeypatch.setattr(pipelines, "_mask_doc", partial(_die, str(marker)))
        _start_pools_with(monkeypatch, method)
        out = self._previous_output(tmp_path)
        code, _, err = run_cli(
            capsys, "mask", "--input", str(music_corpus), "--workers", "2",
            "--output", str(out),
        )
        assert code == 2
        assert err.count("\n") == 2  # the vocabulary log line and the error
        assert "xner: worker process died:" in err
        assert "Traceback" not in err
        assert marker.exists()
        self._assert_untouched(out)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_interrupt_exits_130(self, capsys, monkeypatch, tmp_path, music_corpus, workers):
        monkeypatch.setattr(pipelines, "_mask_doc", _interrupt)
        out = self._previous_output(tmp_path)
        code, out_text, err = run_cli(
            capsys, "mask", "--input", str(music_corpus), "--workers", workers,
            "--output", str(out),
        )
        assert code == 130
        assert out_text == ""
        assert err.endswith("xner: interrupted\n")
        assert "Traceback" not in err
        self._assert_untouched(out)
