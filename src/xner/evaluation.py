"""Entity-level scoring, misclassification analysis and vocabulary overlap.

A predicted mention counts as correct only if a gold mention with the
identical token span and type exists in the same sentence (standard
CoNLL-style entity-level matching, no partial credit).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from xner.errors import DataError
from xner.masker import build_vocabulary
from xner.nerdata import entity_spans

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


def _prf(correct: int, predicted: int, gold: int) -> dict:
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return {"precision": p, "recall": r, "f1": f1,
            "gold": gold, "predicted": predicted, "correct": correct}


def score(gold: Iterable, pred: Iterable) -> dict:
    """Micro and per-type precision/recall/F1 over exact (span, type) matches,
    as the report that eval --output writes: {"micro": scores, "per_type":
    {type: scores}, "confusion": [{"gold": g, "predicted": p, "count": c}]},
    types and (g, p) pairs sorted, scores being _prf's dicts. The confusion
    list counts exact-span matches whose types differ.

    gold and pred yield sentences (.tokens, .tags) in the same order; a
    pred .where ("path:line") locates a token mismatch. pred is pulled one
    sentence per gold sentence, so it may be a one-shot iter_conll stream.
    Both are chunked by entity_spans, as conlleval chunks them.
    """
    gold, pred = iter(gold), iter(pred)
    gold_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    correct_counts: Counter = Counter()
    confusion: Counter = Counter()
    n = 0
    for g_sentence in gold:
        p_sentence = next(pred, None)
        if p_sentence is None:
            rest = sum(1 for _ in gold)
            raise DataError(f"gold has {n + 1 + rest} sentences but pred has {n}")
        if g_sentence.tokens != p_sentence.tokens:
            where = getattr(p_sentence, "where", "pred")
            raise DataError(f"{where}: token mismatch at sentence {n}")
        n += 1
        p_mentions = entity_spans(p_sentence.tags)
        for span, g_type in entity_spans(g_sentence.tags).items():
            gold_counts[g_type] += 1
            p_type = p_mentions.get(span)
            if p_type == g_type:
                correct_counts[g_type] += 1
            elif p_type is not None:
                confusion[(g_type, p_type)] += 1
        pred_counts.update(p_mentions.values())
    rest = sum(1 for _ in pred)
    if rest:
        raise DataError(f"gold has {n} sentences but pred has {n + rest}")
    totals = (sum(c.values()) for c in (correct_counts, pred_counts, gold_counts))
    return {
        "micro": _prf(*totals),
        "per_type": {
            t: _prf(correct_counts[t], pred_counts[t], gold_counts[t])
            for t in sorted(gold_counts.keys() | pred_counts.keys())
        },
        "confusion": [
            {"gold": g, "predicted": p, "count": c} for (g, p), c in sorted(confusion.items())
        ],
    }


def misclassification_rate(report: dict, from_type: str, to_type: str) -> float:
    """Fraction of gold from_type mentions predicted as to_type at the
    identical span, read from score's report. from_type == to_type
    measures correct classification."""
    scores = report["per_type"].get(from_type)
    if scores is None or not scores["gold"]:
        return 0.0
    if from_type == to_type:
        return scores["correct"] / scores["gold"]
    count = sum(c["count"] for c in report["confusion"]
                if (c["gold"], c["predicted"]) == (from_type, to_type))
    return count / scores["gold"]


def _is_punctuation(token: str) -> bool:
    return all(not c.isalnum() for c in token)


def top_vocabulary(
    tokens: Iterable[str], k: int, stopwords: frozenset[str] | set[str]
) -> list[str]:
    """Top-k most frequent lowercased tokens, excluding stopwords and
    pure-punctuation tokens; frequency ties break lexicographically."""
    words = (w for w in map(str.lower, tokens) if w not in stopwords and not _is_punctuation(w))
    return build_vocabulary(words, k)


def vocab_overlap(
    corpora: Mapping[str, Iterable[str]],
    k: int = 5000,
    stopwords: Iterable[str] | None = None,
) -> dict:
    """Pairwise vocabulary overlap between named token streams, as the
    overlap summary {"k": k, "domains": names, "values": rows}.

    Each domain's vocabulary is its top-k frequent words; values[a][b] is
    100 * |Va & Vb| / |Va|, so rows are normalized by their own
    vocabulary size (a corpus with fewer than k distinct words uses all
    of them), and a row with no vocabulary is all 0.0.
    """
    stop = frozenset(
        w.lower() for w in (DEFAULT_STOPWORDS if stopwords is None else stopwords)
    )
    names = list(corpora)
    vocabs = [set(top_vocabulary(corpora[name], k, stop)) for name in names]
    values = [[100.0 * len(a & b) / len(a) if a else 0.0 for b in vocabs] for a in vocabs]
    return {"k": k, "domains": names, "values": values}
