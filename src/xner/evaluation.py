"""Entity-level scoring, misclassification analysis and vocabulary overlap.

A predicted mention counts as correct only if a gold mention with the
identical token span and type exists in the same sentence (standard
CoNLL-style entity-level matching, no partial credit).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from xner.errors import DataError
from xner.nerdata import LabeledSentence, entity_spans

# Small built-in English stopword list for vocabulary construction; a
# caller-supplied set takes precedence.
DEFAULT_STOPWORDS = frozenset("""
a about above after again all also an and any are as at be because been
before being below between both but by can did do does doing down during
each few for from further had has have having he her here hers him his
how i if in into is it its itself just me more most my no nor not of off
on once only or other our out over own s same she so some such t than
that the their them then there these they this those through to too under
until up very was we were what when where which while who whom why will
with you your
""".split())


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int


@dataclass(frozen=True)
class EvalReport:
    micro: TypeScore
    per_type: dict  # type -> TypeScore
    confusion: dict  # (gold type, predicted type) -> count, exact-span only

    def as_dict(self) -> dict:
        def score_dict(s: TypeScore) -> dict:
            return {
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
                "gold": s.gold,
                "predicted": s.predicted,
                "correct": s.correct,
            }

        return {
            "micro": score_dict(self.micro),
            "per_type": {t: score_dict(s) for t, s in sorted(self.per_type.items())},
            "confusion": [
                {"gold": g, "predicted": p, "count": c}
                for (g, p), c in sorted(self.confusion.items())
            ],
        }


@dataclass(frozen=True)
class OverlapMatrix:
    domains: tuple[str, ...]
    values: tuple  # row-major percentages; value[a][b] = 100*|Va & Vb|/|Va|
    k: int

    def value(self, a: str, b: str) -> float:
        return self.values[self.domains.index(a)][self.domains.index(b)]

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "domains": list(self.domains),
            "values": [list(row) for row in self.values],
        }


def _prf(correct: int, predicted: int, gold: int) -> TypeScore:
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return TypeScore(p, r, f1, gold, predicted, correct)


def _check_alignment(
    gold: Sequence[LabeledSentence], pred: Sequence[LabeledSentence]
) -> None:
    if len(gold) != len(pred):
        raise DataError(
            f"gold has {len(gold)} sentences but pred has {len(pred)}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise DataError(f"token mismatch at sentence {i}")


def score(
    gold: Sequence[LabeledSentence], pred: Sequence[LabeledSentence]
) -> EvalReport:
    """Micro and per-type precision/recall/F1 over exact (span, type) matches.

    The confusion table counts exact-span matches whose types differ.
    """
    _check_alignment(gold, pred)
    gold_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    correct_counts: Counter = Counter()
    confusion: Counter = Counter()
    for g_sentence, p_sentence in zip(gold, pred):
        p_mentions = entity_spans(p_sentence.tags)
        for span, g_type in entity_spans(g_sentence.tags).items():
            gold_counts[g_type] += 1
            p_type = p_mentions.get(span)
            if p_type == g_type:
                correct_counts[g_type] += 1
            elif p_type is not None:
                confusion[(g_type, p_type)] += 1
        for p_type in p_mentions.values():
            pred_counts[p_type] += 1
    micro = _prf(
        sum(correct_counts.values()),
        sum(pred_counts.values()),
        sum(gold_counts.values()),
    )
    per_type = {
        t: _prf(correct_counts[t], pred_counts[t], gold_counts[t])
        for t in set(gold_counts) | set(pred_counts)
    }
    return EvalReport(micro, per_type, dict(confusion))


def misclassification_rate(report: EvalReport, from_type: str, to_type: str) -> float:
    """Fraction of gold from_type mentions predicted as to_type at the
    identical span. from_type == to_type measures correct classification."""
    scores = report.per_type.get(from_type)
    if scores is None or not scores.gold:
        return 0.0
    if from_type == to_type:
        return scores.correct / scores.gold
    return report.confusion.get((from_type, to_type), 0) / scores.gold


def _is_punctuation(token: str) -> bool:
    return all(not c.isalnum() for c in token)


def top_vocabulary(
    tokens: Iterable[str], k: int, stopwords: frozenset[str] | set[str]
) -> list[str]:
    """Top-k most frequent lowercased tokens, excluding stopwords and
    pure-punctuation tokens; frequency ties break lexicographically."""
    counts: Counter = Counter()
    for token in tokens:
        low = token.lower()
        if low in stopwords or _is_punctuation(low):
            continue
        counts[low] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [w for w, _ in ranked[:k]]


def vocab_overlap(
    corpora: Mapping[str, Iterable[str]],
    k: int = 5000,
    stopwords: Iterable[str] | None = None,
) -> OverlapMatrix:
    """Pairwise vocabulary overlap between named token streams.

    Each domain's vocabulary is its top-k frequent words; the (a, b) cell
    is 100 * |Va & Vb| / |Va|, so rows are normalized by their own
    vocabulary size (a corpus with fewer than k distinct words uses all
    of them).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    stop = frozenset(
        w.lower() for w in (DEFAULT_STOPWORDS if stopwords is None else stopwords)
    )
    names = tuple(corpora)
    vocabs = {name: set(top_vocabulary(corpora[name], k, stop)) for name in names}
    rows = []
    for a in names:
        row = []
        for b in names:
            if vocabs[a]:
                row.append(100.0 * len(vocabs[a] & vocabs[b]) / len(vocabs[a]))
            else:
                row.append(0.0)
        rows.append(tuple(row))
    return OverlapMatrix(names, tuple(rows), k)
