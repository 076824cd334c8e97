"""Masked-language-model example generation with token- or span-level masking.

Token-level masking is the classic scheme: 15% of positions are chosen,
then each becomes [MASK] with probability 0.8, a random vocabulary token
with 0.1, or stays unchanged with 0.1. Span-level masking keeps the same
budget but first moves each isolated masked index onto the free cell
beside its nearest masked partner, on its own side, so the masks form
longer contiguous spans; already-contiguous masked runs are never touched.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from json.encoder import encode_basestring
from typing import Iterable, Iterator, Sequence

from xner.corpus import Sentence
from xner.seeding import stable_hash

MASK_SYMBOL = "[MASK]"
# The replacement split: [MASK] 0.8, a random vocabulary token 0.1, unchanged 0.1.
MASK_TOKEN_PROB, RANDOM_TOKEN_PROB = 0.8, 0.1

# strategy is "token" or "span"; the CLI's parser checks every field.
MaskingConfig = namedtuple(
    "MaskingConfig", "mask_rate strategy seed min_sentence_len", defaults=(0.15, "token", 0, 5)
)


class MaskTarget(namedtuple("MaskTarget", "position original kind")):  # kind: mask | random | keep
    __slots__ = ()
    _make = classmethod(tuple.__new__)  # unchecked, for apply_replacements


class MaskedExample(namedtuple("MaskedExample", "doc_id sentence_index output_tokens targets")):
    __slots__ = ()
    _make = classmethod(tuple.__new__)  # unchecked, for apply_replacements

    def to_json(self) -> str:
        """json.dumps(record, ensure_ascii=False) of the record {doc_id, sentence_index,
        tokens, targets: [{pos, orig, kind}]}, built with no encoder or dict."""
        tokens = ", ".join(map(encode_basestring, self.output_tokens))
        targets = ", ".join([
            f'{{"pos": {p}, "orig": {encode_basestring(o)}, "kind": {encode_basestring(k)}}}'
            for p, o, k in self.targets
        ])
        return (f'{{"doc_id": {encode_basestring(self.doc_id)}, "sentence_index": '
                f'{self.sentence_index}, "tokens": [{tokens}], "targets": [{targets}]}}')


def mask_budget(length: int, mask_rate: float) -> int:
    """Number of positions to mask: round-half-up of rate*length, at least 1."""
    return max(1, math.floor(mask_rate * length + 0.5))


def select_mask_indices(
    length: int, cfg: MaskingConfig, rng: random.Random
) -> set[int]:
    """Uniformly random index subset of size mask_budget(length, rate); length >= 2."""
    return set(rng.sample(range(length), mask_budget(length, cfg.mask_rate)))


def spanify(masked: Iterable[int]) -> set[int]:
    """Migrate isolated masked indices next to other masked positions.

    Runs of length >= 2 are never touched. Initially-isolated indices are
    visited left to right; each one still isolated moves onto the cell
    beside its nearest partner, on its own side (distance ties go to the
    right partner). No cell between the two is masked, so that cell is free
    and in range. The mask count is always preserved.
    """
    current = set(masked)
    isolated = [i for i in sorted(current) if i - 1 not in current and i + 1 not in current]
    for i in isolated:
        if i - 1 in current or i + 1 in current:
            continue  # a previous move attached a neighbor
        if len(current) == 1:
            break
        current.discard(i)  # i has no neighbor, so the others keep their runs
        d = 2  # the nearest partner; distance ties go to the right
        while i + d not in current and i - d not in current:
            d += 1
        current.add(i + d - 1 if i + d in current else i - d + 1)
    return current


def apply_replacements(
    tokens: Sequence[str],
    indices: Iterable[int],
    rng: random.Random,
    vocabulary: Sequence[str],
    doc_id: str = "",
    sentence_index: int = 0,
) -> MaskedExample:
    """Materialize a masked example from a chosen index set.

    Each selected position independently becomes the mask symbol (an
    rng.random() roll below MASK_TOKEN_PROB), a uniform vocabulary token
    (below MASK_TOKEN_PROB + RANDOM_TOKEN_PROB) or its original text.
    """
    positions = sorted(set(indices))
    output = list(tokens)
    targets = []
    roll = rng.random
    make_target = MaskTarget._make
    mask_below, random_below = MASK_TOKEN_PROB, MASK_TOKEN_PROB + RANDOM_TOKEN_PROB
    for position in positions:
        p = roll()
        if p < mask_below:
            kind = "mask"
            output[position] = MASK_SYMBOL
        elif p < random_below:
            kind = "random"
            output[position] = vocabulary[rng.randrange(len(vocabulary))]
        else:
            kind = "keep"
        targets.append(make_target((position, tokens[position], kind)))
    return MaskedExample._make((doc_id, sentence_index, tuple(output), tuple(targets)))


def mask_corpus(
    corpus: Iterable[Sentence], cfg: MaskingConfig, vocabulary: Sequence[str]
) -> Iterator[MaskedExample]:
    """Masked examples for every sentence of at least min_sentence_len tokens.

    Each sentence draws from random.Random(stable_hash(cfg.seed, doc_id,
    sentence_index)), so the output never depends on scheduling order. One
    Random is reseeded for each sentence: Random(x) runs seed(x), so the
    stream is the same as a new Random's.
    """
    threshold = max(2, cfg.min_sentence_len)
    rng = random.Random()
    for doc_id, index, tokens in corpus:
        if len(tokens) < threshold:
            continue
        rng.seed(stable_hash(cfg.seed, doc_id, index))
        indices = select_mask_indices(len(tokens), cfg, rng)
        if cfg.strategy == "span":
            indices = spanify(indices)
        yield apply_replacements(tokens, indices, rng, vocabulary, doc_id, index)


def build_vocabulary(token_texts: Iterable[str], size: int = 50_000) -> list[str]:
    """Most frequent token texts, ties broken lexicographically.

    Used as the draw pool for random replacements; computed once per run
    from the corpus being masked. The descending sort is stable, so equal
    counts keep their lexicographic order and no per-token tuple is built.
    """
    counts = Counter(token_texts)
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    del ranked[size:]
    return ranked
