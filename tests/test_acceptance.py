"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (run with -s
to see them on success). Timed criteria assert their wall-clock budget.
"""

import io
import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import FixedRoll, make_labeled, make_trie
from test_evaluation import (
    assert_matches_conlleval,
    ill_formed_pred,
    oracle_score,
    random_pair,
)
from test_masker import check_spanify_postconditions
from xner.corpus import Document, Sentence
from xner.evaluation import score, vocab_overlap
from xner.gazetteer import find_mentions, resolve_type
from xner.masker import MaskingConfig, apply_replacements, spanify
from xner.nerdata import dataset_stats, parse_conll
from xner.pipelines import select_documents, write_groups, write_masked
from xner.selector import SelectorConfig, select_entity_level

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


# ---------------------------------------------------------------- 1


def test_01_span_migration_worked_example():
    with criterion(1, "span migration moves {4,10} to {9,10} on the 12-token example"):
        words = ("Western music's effect would continue to grow within "
                 "the country 's sphere").split()
        assert len(words) == 12
        start = time.perf_counter()
        migrated = spanify({4, 10})
        elapsed = time.perf_counter() - start
        assert migrated == {9, 10}
        # render with every roll a mask to pin the surface form
        example = apply_replacements(words, migrated, FixedRoll(0.0), ["x"])
        assert example.output_tokens[8:12] == ("the", "[MASK]", "[MASK]", "sphere")
        assert elapsed < 0.001


# ---------------------------------------------------------------- 2


def test_02_masking_invariants_property_suite():
    with criterion(2, "span-migration invariants hold on 100000 random cases"):
        rng = random.Random(20240824)
        start = time.perf_counter()
        for _ in range(100_000):
            length = rng.randint(2, 64)
            k = rng.randint(1, length)
            before = set(rng.sample(range(length), k))
            after = spanify(before)
            check_spanify_postconditions(before, after, length)
        elapsed = time.perf_counter() - start
        assert elapsed < 30


# ---------------------------------------------------------------- 3


def test_03_replacement_proportions():
    with criterion(3, "mask/random/keep frequencies within 0.01 of 80/10/10"):
        tokens = [f"w{i}" for i in range(120_000)]
        start = time.perf_counter()
        example = apply_replacements(
            tokens, range(len(tokens)), random.Random(99), ["a", "b", "c"]
        )
        elapsed = time.perf_counter() - start
        counts = {"mask": 0, "random": 0, "keep": 0}
        for target in example.targets:
            counts[target.kind] += 1
        total = len(example.targets)
        assert total >= 100_000
        assert abs(counts["mask"] / total - 0.80) < 0.01
        assert abs(counts["random"] / total - 0.10) < 0.01
        assert abs(counts["keep"] / total - 0.10) < 0.01
        assert elapsed < 30


# ---------------------------------------------------------------- 4


def _random_documents(rng, n_docs, words, max_paragraphs=6, max_words=12):
    docs = []
    for d in range(n_docs):
        paragraphs = tuple(
            " ".join(rng.choice(words) for _ in range(rng.randint(3, max_words)))
            for _ in range(rng.randint(1, max_paragraphs))
        )
        docs.append(Document(f"doc{d}", paragraphs))
    return docs


def _group_tokens(groups):
    return sum(len(line.split()) for group in groups for line in group)


def test_04_integrated_corpus_identity():
    with criterion(4, "integrated tokens = entity + 2 x task on 50 random corpora"):
        gazetteer = make_trie(
            {("Nirvana",): {"band"}, ("Nevermind",): {"album"},
             ("Seattle",): {"location"}, ("Kurt", "Cobain"): {"person"}},
        )
        words = ["Nirvana", "Nevermind", "Seattle", "Kurt", "Cobain",
                 "played", "loudly", "fans", "cheered", "records"]
        rng = random.Random(4)
        start = time.perf_counter()
        for _ in range(50):
            docs = _random_documents(rng, rng.randint(1, 12), words)
            by_level = {
                level: select_documents(
                    docs, level, gazetteer, specialized_types={"band", "album"}
                )
                for level in ("entity", "task", "integrated")
            }
            assert _group_tokens(by_level["integrated"]) == (
                _group_tokens(by_level["entity"]) + 2 * _group_tokens(by_level["task"])
            )
        assert time.perf_counter() - start < 10


# ---------------------------------------------------------------- 5


def _released_data_dir():
    candidates = [os.environ.get("XNER_DATA_DIR")]
    candidates += [Path(__file__).parent.parent / "data", Path("/root/data")]
    for candidate in candidates:
        if not candidate:
            continue
        root = Path(candidate)
        if (root / "politics" / "train.txt").is_file():
            return root
    return None


def test_05_released_dataset_statistics():
    root = _released_data_dir()
    if root is None:
        print("[criterion  5] SKIP  released NER dataset not present")
        pytest.skip("released NER dataset not present (set XNER_DATA_DIR)")
    with criterion(5, "released dataset split sizes and politician share match"):
        start = time.perf_counter()
        expected = {
            "politics": (200, 541, 651),
            "music": (100, 380, 456),
            "ai": (100, 350, 431),
        }
        splits = {}
        for domain, sizes in expected.items():
            for split, size in zip(("train", "dev", "test"), sizes):
                sentences = parse_conll(root / domain / f"{split}.txt")
                assert len(sentences) == size, (domain, split, len(sentences))
                splits[(domain, split)] = sentences
        stats = dataset_stats(splits[("politics", "train")])
        politician = stats["entities"]["politician"]
        assert politician["count"] == 359
        assert abs(politician["percent"] - 27.53) < 0.01
        assert time.perf_counter() - start < 10


# ---------------------------------------------------------------- 6


def test_06_scorer_oracle_equivalence():
    with criterion(6, "scorer matches set-intersection oracle, conlleval and golden file"):
        rng = random.Random(6)
        start = time.perf_counter()
        for _ in range(1000):
            gold, pred = random_pair(rng, n_sentences=rng.randint(1, 5), max_len=10)
            report = score(gold, pred)
            p, r, f1, n_gold, n_pred, correct = oracle_score(gold, pred)
            assert report["micro"] == pytest.approx({
                "precision": p, "recall": r, "f1": f1,
                "gold": n_gold, "predicted": n_pred, "correct": correct,
            })
            ill_formed = ill_formed_pred(rng, gold)
            assert_matches_conlleval(score(gold, ill_formed), gold, ill_formed)

        golden = json.loads((DATA_DIR / "eval_golden.json").read_text())
        report = score(
            parse_conll(DATA_DIR / "eval_gold.conll"),
            parse_conll(DATA_DIR / "eval_pred.conll"),
        )
        assert report["micro"] == golden["micro"]
        assert report["per_type"] == golden["per_type"]

        half = score(
            [make_labeled("a b c d", ["B-x", "O", "B-y", "O"])],
            [make_labeled("a b c d", ["B-x", "O", "O", "B-y"])],
        )
        assert half["micro"] == {"precision": 0.5, "recall": 0.5, "f1": 0.5,
                                 "gold": 2, "predicted": 2, "correct": 1}
        assert time.perf_counter() - start < 10


# ---------------------------------------------------------------- 7


def test_07_hierarchy_resolution():
    with criterion(7, "specific type wins: politician over person, band over organization"):
        hierarchy = {"politician": "person", "band": "organization"}
        start = time.perf_counter()
        assert resolve_type({"person", "politician"}, hierarchy) == "politician"
        assert resolve_type({"organization", "band"}, hierarchy) == "band"
        assert time.perf_counter() - start < 1


# ---------------------------------------------------------------- 8


def test_08_longest_match_rule():
    with criterion(8, "5-token party name wins over inner country name"):
        gazetteer = make_trie({
            ("United", "Socialist", "Party", "of", "Venezuela"): {"political party"},
            ("Venezuela",): {"country"},
        })
        tokens = tuple("The United Socialist Party of Venezuela was founded".split())
        start = time.perf_counter()
        mentions = find_mentions(tokens, gazetteer)
        elapsed = time.perf_counter() - start
        assert [(m.start, m.end, m.entity_type) for m in mentions] == [
            (1, 6, "political party"),
        ]
        assert elapsed < 1


# ---------------------------------------------------------------- 9


def _parallel_corpus(n_docs=1000, paragraphs_per_doc=100):
    """100K one-sentence paragraphs over a small vocabulary."""
    rng = random.Random(9)
    words = [f"word{i}" for i in range(50)] + ["Nirvana", "Nevermind", "Seattle"]
    return [
        Document(
            f"doc{d}",
            tuple(
                " ".join(rng.choice(words) for _ in range(rng.randint(5, 12)))
                for _ in range(paragraphs_per_doc)
            ),
        )
        for d in range(n_docs)
    ]


def test_09_determinism_under_parallelism():
    with criterion(9, "1 vs 8 workers: byte-identical masking and extraction"):
        docs = _parallel_corpus()
        assert sum(len(d.paragraphs) for d in docs) == 100_000
        gazetteer = make_trie(
            {("Nirvana",): {"band"}, ("Nevermind",): {"album"},
             ("Seattle",): {"location"}},
        )
        cfg = MaskingConfig(seed=9)
        vocabulary = [f"word{i}" for i in range(50)]
        start = time.perf_counter()
        masked = {}
        for workers in (1, 8):
            buffer = io.StringIO()
            write_masked(docs, cfg, vocabulary, buffer, workers)
            masked[workers] = buffer.getvalue()
        assert masked[1].encode() == masked[8].encode()
        extracted = {}
        for workers in (1, 8):
            buffer = io.StringIO()
            groups = select_documents(
                docs, "integrated", gazetteer, workers=workers,
                specialized_types={"band", "album"},
            )
            write_groups(groups, buffer)
            extracted[workers] = buffer.getvalue()
        assert extracted[1].encode() == extracted[8].encode()
        assert extracted[1]
        assert time.perf_counter() - start < 60


# ---------------------------------------------------------------- 10


def test_10_vocabulary_overlap_sanity():
    with criterion(10, "overlap: self=100, disjoint=0, toy case=60.0"):
        start = time.perf_counter()
        same = vocab_overlap({"a": ["x", "y"], "b": ["x", "y"]}, k=5, stopwords=[])
        assert same["values"][0][0] == 100.0
        assert same["values"][0][1] == 100.0
        disjoint = vocab_overlap({"a": ["x"], "b": ["y"]}, k=5, stopwords=[])
        assert disjoint["values"][0][1] == 0.0
        a_words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        b_words = ["alpha", "beta", "gamma", "theta", "iota", "kappa"]
        corpus_a = [w for w, c in zip(a_words, range(6, 0, -1)) for _ in range(c)]
        corpus_b = [w for w, c in zip(b_words, range(6, 0, -1)) for _ in range(c)]
        toy = vocab_overlap({"a": corpus_a, "b": corpus_b}, k=5, stopwords=[])
        assert toy["values"][0][1] == 60.0
        assert time.perf_counter() - start < 1


# ---------------------------------------------------------------- 11


def test_11_selection_throughput():
    with criterion(11, "entity selection over 10M tokens, 50K-entry gazetteer, < 60 s"):
        rng = random.Random(11)
        entries = {(f"Entity{i}",): {"thing"} for i in range(50_000)}
        gazetteer = make_trie(entries)

        plain = [f"word{i}" for i in range(5000)]
        entity_tokens = [f"Entity{i}" for i in range(0, 50_000, 7)]
        templates = []
        for _ in range(1000):
            tokens = [rng.choice(plain) for _ in range(10)]
            if rng.random() < 0.3:
                tokens[rng.randrange(10)] = rng.choice(entity_tokens)
            templates.append(tuple(tokens))
        n_sentences = 1_000_000  # 10 tokens each
        sentences = [
            Sentence("d", i, templates[i % len(templates)])
            for i in range(n_sentences)
        ]
        assert sum(len(s.tokens) for s in sentences) == 10_000_000

        start = time.perf_counter()
        selected = list(select_entity_level(sentences, gazetteer))
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        # sanity: templates never place two entities in one sentence, so
        # the >= 2 mention threshold keeps selection empty only if matching
        # actually ran; require the cheaper >= 1 variant to find matches
        found = list(
            select_entity_level(
                sentences[:2000], gazetteer,
                SelectorConfig(min_mentions=1),
            )
        )
        assert found
        assert selected == []
