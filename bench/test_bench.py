"""Tiny-scale self-test of the benchmark: seeded inputs, oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen_inputs  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402

TINY_TOKENS = 3_000


def _inputs(tmp_path, seed=5, gold=True):
    dictionary = gen_inputs.make_dictionary(seed)
    corpus = gen_inputs.make_corpus(seed, dictionary, TINY_TOKENS)
    return run.write_inputs(tmp_path / f"inputs-{seed}", dictionary, corpus, gold)


def _files(inputs):
    paths = (inputs.corpus_path, inputs.gazetteer, inputs.hierarchy,
             inputs.specialized, inputs.gold)
    return [p.read_bytes() for p in paths]


def test_same_seed_same_input_bytes(tmp_path):
    first = _files(_inputs(tmp_path / "a"))
    assert first == _files(_inputs(tmp_path / "b"))
    assert first[0] != _files(_inputs(tmp_path / "c", seed=6))[0]


def test_generator_matches_the_tokenizer_and_matcher(tmp_path):
    inputs = _inputs(tmp_path)
    out = tmp_path / "pred.conll"
    code, stdout, _ = layer_trace.run_cli([
        "pre-annotate", "--input", str(inputs.corpus_path), "--gazetteer", str(inputs.gazetteer),
        "--hierarchy", str(inputs.hierarchy), "--workers", "1", "--output", str(out),
    ])
    assert code == 0
    gold = inputs.gold.read_text(encoding="utf-8").splitlines()
    pred = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(" ")[0] for line in gold] == [line.split(" ")[0] for line in pred]
    sentences = list(inputs.corpus.iter_sentences())
    assert out.read_text(encoding="utf-8") == gen_inputs.conll(sentences, "pred")
    assert json.loads(stdout)["sentences"] == inputs.corpus.sentences

    code, stdout, _ = layer_trace.run_cli(["stats", "--input", str(inputs.corpus_path), "--workers", "1"])
    assert code == 0
    assert json.loads(stdout)["tokens"] == inputs.corpus.tokens


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_checks_outputs(tmp_path, monkeypatch, workload):
    _, workers, tiny_docs = run.WORKLOADS[workload]
    monkeypatch.setitem(run.WORKLOADS, workload, (TINY_TOKENS, workers, tiny_docs))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    inputs, _ = run.prepare(workload, 5, tmp_path / "work")
    metrics, (checker,) = run.measure_traced(workload, inputs, tmp_path / "work", 5)
    assert (checker.attempted, checker.failed) == (3 * len(checker.record), 0), checker.errors
    names = [m["name"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert list(metrics) == names
    calls_per_sentence = {
        "extract_integrated": ("gazetteer.find_mentions.calls_per_sentence", 2.0),
        "annotate_eval": ("nerdata.validate_bio.calls_per_sentence", 2.0),
        "mask_span": ("corpus.split_text.passes", 2.0),
    }
    name, value = calls_per_sentence[workload]
    assert metrics[name]["value"] == value


def test_traced_run_survives_a_missing_layer(tmp_path, monkeypatch, capsys):
    """A traced function or module the program no longer has reads 0."""
    import xner.seeding

    _, workers, tiny_docs = run.WORKLOADS["mask_span"]
    monkeypatch.setitem(run.WORKLOADS, "mask_span", (TINY_TOKENS, workers, tiny_docs))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    # masker keeps its own reference, so masking still works without the attribute.
    monkeypatch.delattr(xner.seeding, "stable_hash")
    monkeypatch.setattr(layer_trace, "TRACED", layer_trace.TRACED + (
        ("no_such_module", "matcher", "gazetteer.find_mentions", "call"),
    ))
    inputs, _ = run.prepare("mask_span", 5, tmp_path / "work")
    metrics, (checker,) = run.measure_traced("mask_span", inputs, tmp_path / "work", 5)
    assert checker.failed == 0, checker.errors
    assert metrics["seeding.stable_hash.s"]["value"] == 0
    assert metrics["seeding.stable_hash.calls"]["value"] == 0
    assert metrics["masker.targets"]["value"] > 0
    err = capsys.readouterr().err
    assert "xner.seeding.stable_hash not found" in err
    assert "xner.no_such_module.matcher not found" in err
