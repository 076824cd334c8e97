import pytest

from conftest import make_labeled, random_bio_tags
from ref_conlleval import evaluate as ref_evaluate
from ref_nerdata import extract_entities
from xner.errors import DataError
from xner.evaluation import (
    DEFAULT_STOPWORDS,
    misclassification_rate,
    score,
    vocab_overlap,
)


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


def random_pair(rng, n_sentences=5, max_len=12):
    types = ["person", "band", "location"]
    gold, pred = [], []
    for _ in range(n_sentences):
        length = rng.randint(1, max_len)
        text = " ".join(f"w{j}" for j in range(length))
        gold.append(make_labeled(text, random_bio_tags(rng, length, types)))
        pred.append(make_labeled(text, random_bio_tags(rng, length, types)))
    return gold, pred


class TestScore:
    def test_perfect_prediction(self):
        gold = [make_labeled("Nirvana played Help", ["B-band", "O", "B-song"])]
        report = score(gold, gold)
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (1, 1, 1)

    def test_half_correct_fixture(self):
        gold = [make_labeled("a b c d", ["B-x", "O", "B-y", "O"])]
        pred = [make_labeled("a b c d", ["B-x", "O", "O", "B-y"])]
        report = score(gold, pred)
        assert report.micro.precision == 0.5
        assert report.micro.recall == 0.5
        assert report.micro.f1 == 0.5

    def test_span_match_wrong_type_is_incorrect_and_confused(self):
        gold = [make_labeled("Kurt Cobain sang", ["B-person", "I-person", "O"])]
        pred = [make_labeled("Kurt Cobain sang", ["B-artist", "I-artist", "O"])]
        report = score(gold, pred)
        assert report.micro.correct == 0
        assert report.confusion == {("person", "artist"): 1}

    def test_partial_span_no_credit(self):
        gold = [make_labeled("New York City", ["B-loc", "I-loc", "I-loc"])]
        pred = [make_labeled("New York City", ["B-loc", "I-loc", "O"])]
        report = score(gold, pred)
        assert report.micro.correct == 0
        assert report.confusion == {}

    def test_per_type_sums_to_micro(self, rng):
        for _ in range(50):
            gold, pred = random_pair(rng)
            report = score(gold, pred)
            assert sum(s.correct for s in report.per_type.values()) == report.micro.correct
            assert sum(s.gold for s in report.per_type.values()) == report.micro.gold
            assert sum(s.predicted for s in report.per_type.values()) == report.micro.predicted

    def test_precision_recall_swap_symmetry(self, rng):
        gold, pred = random_pair(rng)
        forward = score(gold, pred)
        backward = score(pred, gold)
        assert forward.micro.precision == backward.micro.recall
        assert forward.micro.recall == backward.micro.precision

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(1000):
            gold, pred = random_pair(rng, n_sentences=rng.randint(1, 5), max_len=10)
            report = score(gold, pred)
            p, r, f1, n_gold, n_pred, correct = oracle_score(gold, pred)
            assert report.micro.precision == pytest.approx(p)
            assert report.micro.recall == pytest.approx(r)
            assert report.micro.f1 == pytest.approx(f1)
            assert (report.micro.gold, report.micro.predicted, report.micro.correct) == (
                n_gold, n_pred, correct,
            )

    def test_matches_reference_chunk_scorer(self, rng):
        for _ in range(200):
            gold, pred = random_pair(rng, n_sentences=8)
            report = score(gold, pred)
            ref = ref_evaluate([s.tags for s in gold], [s.tags for s in pred])
            assert report.micro.precision == pytest.approx(ref["micro"]["precision"])
            assert report.micro.recall == pytest.approx(ref["micro"]["recall"])
            assert report.micro.f1 == pytest.approx(ref["micro"]["f1"])
            for t, scores in ref["per_type"].items():
                assert report.per_type[t].f1 == pytest.approx(scores["f1"])

    def test_length_mismatch_reported(self):
        gold = [make_labeled("a", ["O"])]
        with pytest.raises(DataError, match="sentences"):
            score(gold, [])

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
        assert matrix.value("a", "a") == 100.0
        assert matrix.value("a", "b") == 100.0
        assert matrix.value("b", "a") == 100.0

    def test_disjoint_vocabularies(self):
        matrix = vocab_overlap(
            {"a": ["guitar", "drum"], "b": ["election", "senate"]}, k=5, stopwords=[]
        )
        assert matrix.value("a", "b") == 0.0
        assert matrix.value("a", "a") == 100.0

    def test_toy_sixty_percent(self):
        # top-5 vocabularies share 3 words -> 60%
        a = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        b = ["alpha", "beta", "gamma", "theta", "iota", "kappa"]
        counts_a = [6, 5, 4, 3, 2, 1]
        counts_b = [6, 5, 4, 3, 2, 1]
        corpus_a = [w for w, c in zip(a, counts_a) for _ in range(c)]
        corpus_b = [w for w, c in zip(b, counts_b) for _ in range(c)]
        matrix = vocab_overlap({"a": corpus_a, "b": corpus_b}, k=5, stopwords=[])
        assert matrix.value("a", "b") == 60.0
        assert matrix.value("b", "a") == 60.0

    def test_stopwords_and_punctuation_excluded(self):
        tokens = ["the", "of", ".", ",", "guitar"]
        matrix = vocab_overlap({"a": tokens, "b": ["guitar"]}, k=5)
        assert matrix.value("a", "b") == 100.0

    def test_lowercasing(self):
        matrix = vocab_overlap({"a": ["Guitar"], "b": ["guitar"]}, k=5, stopwords=[])
        assert matrix.value("a", "b") == 100.0

    def test_small_corpus_uses_all_words(self):
        # corpus with < k distinct words: denominator is its own vocab size
        matrix = vocab_overlap(
            {"a": ["x", "y"], "b": ["x", "z", "w", "v"]}, k=3, stopwords=[]
        )
        assert matrix.value("a", "b") == 50.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            vocab_overlap({"a": ["x"]}, k=0)

    def test_default_stopwords_applied(self):
        assert "the" in DEFAULT_STOPWORDS
        matrix = vocab_overlap({"a": ["the", "guitar"], "b": ["guitar"]}, k=5)
        assert matrix.value("a", "b") == 100.0
