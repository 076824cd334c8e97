import io
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rejected, make_labeled, random_bio_tags, reference_ranking
from ref_conlleval import evaluate as ref_evaluate
from ref_nerdata import extract_entities, serialize_conll
from xner.errors import DataError
from xner.evaluation import (
    DEFAULT_STOPWORDS,
    misclassification_rate,
    score,
    top_vocabulary,
    vocab_overlap,
)
from xner.nerdata import iter_conll


def oracle_score(gold, pred):
    """Set intersection of (sentence, span, type) triples."""
    gold_triples = set()
    pred_triples = set()
    for i, s in enumerate(gold):
        for m in extract_entities(s):
            gold_triples.add((i, m.start, m.end, m.entity_type))
    for i, s in enumerate(pred):
        for m in extract_entities(s):
            pred_triples.add((i, m.start, m.end, m.entity_type))
    correct = len(gold_triples & pred_triples)
    p = correct / len(pred_triples) if pred_triples else 0.0
    r = correct / len(gold_triples) if gold_triples else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1, len(gold_triples), len(pred_triples), correct


def oracle_misclassification_rate(gold, pred, from_type, to_type):
    """Rescan of aligned gold/pred pairs: gold from_type mentions whose
    identical span is predicted as to_type, over all gold from_type mentions."""
    total = hits = 0
    for g_sentence, p_sentence in zip(gold, pred):
        p_mentions = {(m.start, m.end): m.entity_type for m in extract_entities(p_sentence)}
        for m in extract_entities(g_sentence):
            if m.entity_type == from_type:
                total += 1
                hits += p_mentions.get((m.start, m.end)) == to_type
    return hits / total if total else 0.0


TYPES = ["person", "band", "location"]


def random_pair(rng, n_sentences=5, max_len=12):
    gold, pred = [], []
    for _ in range(n_sentences):
        length = rng.randint(1, max_len)
        text = " ".join(f"w{j}" for j in range(length))
        gold.append(make_labeled(text, random_bio_tags(rng, length, TYPES)))
        pred.append(make_labeled(text, random_bio_tags(rng, length, TYPES)))
    return gold, pred


def ill_formed_pred(rng, gold):
    """Predictions of well-formed tags with no BIO constraint, so an I- tag
    may follow O or a tag of another type, as a tagger's output can."""
    choices = ["O", "O"] + [f"{p}-{t}" for t in TYPES for p in "BI"]
    return [
        SimpleNamespace(tokens=g.tokens, tags=tuple(rng.choice(choices) for _ in g.tags))
        for g in gold
    ]


def assert_matches_conlleval(report, gold, pred):
    ref = ref_evaluate([s.tags for s in gold], [s.tags for s in pred])
    assert report["micro"] == pytest.approx(ref["micro"])
    assert report["per_type"].keys() == ref["per_type"].keys()
    for t, scores in ref["per_type"].items():
        assert report["per_type"][t] == pytest.approx(scores)


class TestScore:
    def test_perfect_prediction(self):
        gold = [make_labeled("Nirvana played Help", ["B-band", "O", "B-song"])]
        report = score(gold, gold)
        assert report["micro"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0,
                                   "gold": 2, "predicted": 2, "correct": 2}

    def test_half_correct_fixture(self):
        gold = [make_labeled("a b c d", ["B-x", "O", "B-y", "O"])]
        pred = [make_labeled("a b c d", ["B-x", "O", "O", "B-y"])]
        report = score(gold, pred)
        assert report["micro"] == {"precision": 0.5, "recall": 0.5, "f1": 0.5,
                                   "gold": 2, "predicted": 2, "correct": 1}

    def test_span_match_wrong_type_is_incorrect_and_confused(self):
        gold = [make_labeled("Kurt Cobain sang", ["B-person", "I-person", "O"])]
        pred = [make_labeled("Kurt Cobain sang", ["B-artist", "I-artist", "O"])]
        report = score(gold, pred)
        assert report["micro"]["correct"] == 0
        assert report["confusion"] == [{"gold": "person", "predicted": "artist", "count": 1}]

    def test_partial_span_no_credit(self):
        gold = [make_labeled("New York City", ["B-loc", "I-loc", "I-loc"])]
        pred = [make_labeled("New York City", ["B-loc", "I-loc", "O"])]
        report = score(gold, pred)
        assert report["micro"]["correct"] == 0
        assert report["confusion"] == []

    def test_per_type_sums_to_micro(self, rng):
        for _ in range(50):
            gold, pred = random_pair(rng)
            report = score(gold, pred)
            for key in ("correct", "gold", "predicted"):
                assert sum(s[key] for s in report["per_type"].values()) == report["micro"][key]

    def test_precision_recall_swap_symmetry(self, rng):
        gold, pred = random_pair(rng)
        forward = score(gold, pred)
        backward = score(pred, gold)
        assert forward["micro"]["precision"] == backward["micro"]["recall"]
        assert forward["micro"]["recall"] == backward["micro"]["precision"]

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(1000):
            gold, pred = random_pair(rng, n_sentences=rng.randint(1, 5), max_len=10)
            report = score(gold, pred)
            p, r, f1, n_gold, n_pred, correct = oracle_score(gold, pred)
            assert report["micro"] == pytest.approx({
                "precision": p, "recall": r, "f1": f1,
                "gold": n_gold, "predicted": n_pred, "correct": correct,
            })

    def test_matches_reference_chunk_scorer(self, rng):
        for _ in range(200):
            gold, pred = random_pair(rng, n_sentences=8)
            assert_matches_conlleval(score(gold, pred), gold, pred)
        for _ in range(500):
            gold, _ = random_pair(rng, n_sentences=8)
            pred = ill_formed_pred(rng, gold)
            assert_matches_conlleval(score(gold, pred), gold, pred)

    def test_length_mismatch_reported(self):
        gold = [make_labeled("a", ["O"])]
        with pytest.raises(DataError, match="sentences"):
            score(gold, [])

    def test_length_mismatch_reported_both_ways_on_streams(self):
        gold = [make_labeled("a", ["O"]), make_labeled("b", ["O"])]
        with pytest.raises(DataError, match="^gold has 2 sentences but pred has 1$"):
            score(gold, iter(gold[:1]))
        with pytest.raises(DataError, match="^gold has 1 sentences but pred has 2$"):
            score(gold[:1], iter(gold))
        with pytest.raises(DataError, match="^gold has 0 sentences but pred has 2$"):
            score([], iter(gold))

    def test_token_mismatch_stops_the_pred_stream(self, tmp_path):
        gold = [make_labeled(f"w{i} x{i}", ["B-a", "O"]) for i in range(6)]
        k = 3
        pred = list(gold)
        pred[k] = make_labeled("other x3", ["B-a", "O"])
        buffer = io.StringIO()
        serialize_conll(pred, buffer)
        path = tmp_path / "pred.conll"
        path.write_text(buffer.getvalue())
        pulled = 0

        def one_shot():
            nonlocal pulled
            for sentence in iter_conll(path, strict=False):
                pulled += 1
                yield sentence

        # Each sentence is two token lines and a blank one.
        where = re.escape(f"{path}:{3 * k + 1}: token mismatch at sentence {k}")
        with pytest.raises(DataError, match=where):
            score(gold, one_shot())
        assert pulled <= k + 1

    def test_token_mismatch_reports_sentence(self):
        gold = [make_labeled("a", ["O"]), make_labeled("b", ["O"])]
        pred = [make_labeled("a", ["O"]), make_labeled("c", ["O"])]
        with pytest.raises(DataError, match="sentence 1"):
            score(gold, pred)


class TestMisclassificationRate:
    def test_no_gold_mentions_of_type(self):
        gold = [make_labeled("a", ["O"])]
        pred = [make_labeled("a", ["O"])]
        assert misclassification_rate(score(gold, pred), "person", "artist") == 0.0

    def test_hand_count(self):
        # 4 gold person mentions; 3 predicted as musical artist at the same span
        gold, pred = [], []
        for i in range(4):
            gold.append(make_labeled("Kurt Cobain sang", ["B-person", "I-person", "O"]))
            tag = "musicalartist" if i < 3 else "person"
            pred.append(make_labeled("Kurt Cobain sang", [f"B-{tag}", f"I-{tag}", "O"]))
        assert misclassification_rate(score(gold, pred), "person", "musicalartist") == 0.75

    def test_same_type_on_perfect_prediction(self):
        gold = [make_labeled("Kurt Cobain sang", ["B-person", "I-person", "O"])]
        assert misclassification_rate(score(gold, gold), "person", "person") == 1.0

    def test_span_must_match_exactly(self):
        gold = [make_labeled("Kurt Cobain sang", ["B-person", "I-person", "O"])]
        pred = [make_labeled("Kurt Cobain sang", ["B-artist", "O", "O"])]
        assert misclassification_rate(score(gold, pred), "person", "artist") == 0.0

    def test_matches_rescan_oracle(self, rng):
        types = ["person", "band", "location", "song"]
        for _ in range(300):
            gold, pred = random_pair(rng, n_sentences=rng.randint(1, 6), max_len=10)
            report = score(gold, pred)
            for from_type in types:
                for to_type in types:
                    assert misclassification_rate(report, from_type, to_type) == (
                        oracle_misclassification_rate(gold, pred, from_type, to_type)
                    )


class TestVocabOverlap:
    def test_identical_corpora(self):
        tokens = ["guitar", "drum", "bass", "guitar"]
        matrix = vocab_overlap({"a": tokens, "b": list(tokens)}, k=5, stopwords=[])
        assert matrix["domains"] == ["a", "b"]
        assert matrix["values"][0][0] == 100.0
        assert matrix["values"][0][1] == 100.0
        assert matrix["values"][1][0] == 100.0

    def test_disjoint_vocabularies(self):
        matrix = vocab_overlap(
            {"a": ["guitar", "drum"], "b": ["election", "senate"]}, k=5, stopwords=[]
        )
        assert matrix["values"][0][1] == 0.0
        assert matrix["values"][0][0] == 100.0

    def test_toy_sixty_percent(self):
        # top-5 vocabularies share 3 words -> 60%
        a = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        b = ["alpha", "beta", "gamma", "theta", "iota", "kappa"]
        counts_a = [6, 5, 4, 3, 2, 1]
        counts_b = [6, 5, 4, 3, 2, 1]
        corpus_a = [w for w, c in zip(a, counts_a) for _ in range(c)]
        corpus_b = [w for w, c in zip(b, counts_b) for _ in range(c)]
        matrix = vocab_overlap({"a": corpus_a, "b": corpus_b}, k=5, stopwords=[])
        assert matrix["values"][0][1] == 60.0
        assert matrix["values"][1][0] == 60.0

    def test_stopwords_and_punctuation_excluded(self):
        tokens = ["the", "of", ".", ",", "guitar"]
        matrix = vocab_overlap({"a": tokens, "b": ["guitar"]}, k=5)
        assert matrix["values"][0][1] == 100.0

    def test_lowercasing(self):
        matrix = vocab_overlap({"a": ["Guitar"], "b": ["guitar"]}, k=5, stopwords=[])
        assert matrix["values"][0][1] == 100.0

    def test_small_corpus_uses_all_words(self):
        # corpus with < k distinct words: denominator is its own vocab size
        matrix = vocab_overlap(
            {"a": ["x", "y"], "b": ["x", "z", "w", "v"]}, k=3, stopwords=[]
        )
        assert matrix["values"][0][1] == 50.0

    def test_k_validation(self):
        # vocab_overlap trusts k: the parser checks --top-k.
        assert_rejected("overlap", "--top-k", "0")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "A", "b", "B", "ab", "The", "the", ".", "?!", "x-1"]),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_top_vocabulary_matches_reference_ranking(self, tokens, k):
        # Small alphabet, so equal counts are common; k runs from below to
        # above the number of distinct words left after filtering.
        kept = [
            t.lower() for t in tokens
            if t.lower() not in DEFAULT_STOPWORDS and any(c.isalnum() for c in t)
        ]
        assert top_vocabulary(tokens, k, DEFAULT_STOPWORDS) == reference_ranking(kept, k)

    def test_default_stopwords_applied(self):
        assert "the" in DEFAULT_STOPWORDS
        matrix = vocab_overlap({"a": ["the", "guitar"], "b": ["guitar"]}, k=5)
        assert matrix["values"][0][1] == 100.0
