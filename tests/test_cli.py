import json
import multiprocessing
import os
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ref_conlleval import evaluate as ref_evaluate
from xner import pipelines
from xner.cli import run

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

    @pytest.mark.parametrize("value, message", [
        ("abc", "XNER_WORKERS must be a positive integer, got 'abc'"),
        ("0", "--workers and XNER_WORKERS must be >= 1"),
    ])
    def test_bad_xner_workers_is_usage_error(
        self, capsys, monkeypatch, music_corpus, value, message
    ):
        monkeypatch.setenv("XNER_WORKERS", value)
        code, out, err = run_cli(capsys, "stats", "--input", str(music_corpus))
        assert code == 1
        assert out == ""
        assert err == f"xner: usage error: {message}\n"


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

    def test_task_without_specialized_fails(
        self, capsys, tmp_path, music_corpus, gazetteer_file
    ):
        code, _, err = run_cli(
            capsys, "extract", "--level", "task",
            "--input", str(music_corpus),
            "--gazetteer", str(gazetteer_file),
            "--output", str(tmp_path / "o.txt"), "--workers", "1",
        )
        assert code != 0

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
        assert err == "xner: usage error: --vocab-size must be >= 1\n"
        assert not (tmp_path / "m.jsonl").exists()


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


@pytest.fixture
def third_record_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "d", "text": "Nirvana recorded Nevermind in Seattle. "
                       "Kurt Cobain wrote most songs for Nirvana and Nevermind."})
    path.write_text(f"{good}\n{good}\n{{\"id\": \"d2\", \"text\": \n{good}\n")
    return path


def _die(*args, **kwargs):
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

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches pool processes only when they fork",
    )
    def test_crashed_worker_exits_2_in_one_line(
        self, capsys, monkeypatch, tmp_path, music_corpus
    ):
        monkeypatch.setattr(pipelines, "_mask_doc", _die)
        out = self._previous_output(tmp_path)
        code, _, err = run_cli(
            capsys, "mask", "--input", str(music_corpus), "--workers", "2",
            "--output", str(out),
        )
        assert code == 2
        assert err.count("\n") == 2  # the vocabulary log line and the error
        assert "xner: worker process died:" in err
        assert "Traceback" not in err
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
