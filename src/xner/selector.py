"""Pre-training corpus selection: entity-level, task-level and sampled.

pipelines.select_documents joins the first two into the integrated
corpus. All selectors are order-preserving streaming filters over sentences.
Mentions come either from gazetteer matching or from an externally
supplied mention file (e.g. produced by a separately trained NER model),
through the same code path.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import AbstractSet, Collection, Iterable, Iterator, Mapping

from xner.corpus import Sentence
from xner.errors import DataError, data_lines
from xner.gazetteer import EntityMention, find_mentions
from xner.seeding import unit_interval

# External mentions: (doc_id, sentence_index) -> {mention: its first "path:line"}.
MentionIndex = Mapping[tuple[str, int], Mapping[EntityMention, str]]


SelectorConfig = namedtuple("SelectorConfig", "min_mentions min_specialized", defaults=(2, 1))


def _sentence_mentions(
    sentence: Sentence, gazetteer: dict | None, mentions: MentionIndex | None
) -> Collection[EntityMention]:
    if mentions is None:
        return find_mentions(sentence.tokens, gazetteer)
    found = mentions.get((sentence.doc_id, sentence.index), {})
    for mention, where in found.items():
        if mention.end > len(sentence.tokens):
            raise DataError(
                f"{where}: bad mention record: span [{mention.start}, {mention.end}) "
                f"is past the end of a {len(sentence.tokens)}-token sentence"
            )
    return found


def select_entity_level(
    corpus: Iterable[Sentence],
    gazetteer: dict | None,
    cfg: SelectorConfig = SelectorConfig(),
    mentions: MentionIndex | None = None,
) -> Iterator[Sentence]:
    """Sentences containing at least cfg.min_mentions entity mentions."""
    for sentence in corpus:
        found = _sentence_mentions(sentence, gazetteer, mentions)
        if len(found) >= cfg.min_mentions:
            yield sentence


def select_task_level(
    corpus: Iterable[Sentence],
    gazetteer: dict | None,
    specialized_types: AbstractSet[str],
    cfg: SelectorConfig = SelectorConfig(),
    mentions: MentionIndex | None = None,
) -> Iterator[Sentence]:
    """Sentences with at least cfg.min_specialized mentions of a specialized type."""
    for sentence in corpus:
        found = _sentence_mentions(sentence, gazetteer, mentions)
        hits = sum(1 for m in found if m.entity_type in specialized_types)
        if hits >= cfg.min_specialized:
            yield sentence


def sample_fraction(
    corpus: Iterable[Sentence], percent: float, seed: int
) -> Iterator[Sentence]:
    """Keep each sentence independently with probability percent/100.

    The decision is a pure function of (seed, doc_id, sentence_index), so
    the sample is identical across runs, workers and shard orders.
    """
    for sentence in corpus:
        if unit_interval(seed, sentence.doc_id, sentence.index) * 100.0 < percent:
            yield sentence


def _field(rec: dict, name: str, kind: type):
    value = rec[name]
    if type(value) is not kind:  # so a bool, though an int, is rejected
        what = "an integer" if kind is int else "a string"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def load_external_mentions(path) -> dict[tuple[str, int], dict[EntityMention, str]]:
    """Load a JSONL mention file into a (doc_id, sentence_index) index.

    Records: {"doc_id": str, "sentence_index": int >= 0, "start": int,
    "end": int, "type": one word}. A repeated record counts once;
    selection rejects a span past its sentence's end.
    """
    index: dict[tuple[str, int], dict[EntityMention, str]] = {}
    for lineno, line in data_lines(path):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            key = (_field(rec, "doc_id", str), _field(rec, "sentence_index", int))
            if key[1] < 0:
                raise ValueError(f"sentence_index must be >= 0, got {key[1]}")
            mention = EntityMention(
                _field(rec, "start", int), _field(rec, "end", int), _field(rec, "type", str)
            )
            if not 0 <= mention.start < mention.end:
                raise ValueError(f"bad span [{mention.start}, {mention.end})")
            if mention.entity_type.split() != [mention.entity_type]:
                raise ValueError(f"type must be one word, got {mention.entity_type!r}")
        except (KeyError, ValueError, RecursionError) as exc:  # too deeply nested JSON
            raise DataError(f"{path}:{lineno}: bad mention record: {exc}") from exc
        index.setdefault(key, {}).setdefault(mention, f"{path}:{lineno}")
    return index
