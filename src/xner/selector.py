"""Pre-training corpus selection: entity-level, task-level and sampled.

pipelines.select_documents joins the first two into the integrated
corpus. All selectors are order-preserving streaming filters over sentences.
Mentions come either from gazetteer matching or from an externally
supplied mention file (e.g. produced by a separately trained NER model),
through the same code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from xner.corpus import Sentence
from xner.errors import DataError, data_lines
from xner.gazetteer import EntityMention, Gazetteer, find_mentions
from xner.seeding import unit_interval

# Mention lookup for external annotations: (doc_id, sentence_index) -> mentions.
MentionIndex = Mapping[tuple[str, int], list[EntityMention]]


@dataclass(frozen=True)
class SelectorConfig:
    min_mentions: int = 2
    min_specialized: int = 1
    task_upsample: int = 2

    def __post_init__(self):
        for name in ("min_mentions", "min_specialized", "task_upsample"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _sentence_mentions(
    sentence: Sentence, gazetteer: Gazetteer | None, mentions: MentionIndex | None
) -> list[EntityMention]:
    if mentions is not None:
        return mentions.get((sentence.doc_id, sentence.index), [])
    return find_mentions(sentence, gazetteer)


def select_entity_level(
    corpus: Iterable[Sentence],
    gazetteer: Gazetteer | None,
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
    gazetteer: Gazetteer | None,
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
    if not 0 <= percent <= 100:
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    for sentence in corpus:
        if unit_interval(seed, sentence.doc_id, sentence.index) * 100.0 < percent:
            yield sentence


def load_external_mentions(path) -> dict[tuple[str, int], list[EntityMention]]:
    """Load a JSONL mention file into a (doc_id, sentence_index) index.

    Records: {"doc_id":…, "sentence_index":…, "start":…, "end":…, "type":…}.
    """
    index: dict[tuple[str, int], list[EntityMention]] = {}
    for lineno, line in data_lines(path):
        try:
            rec = json.loads(line)
            mention = EntityMention(
                str(rec["doc_id"]),
                int(rec["sentence_index"]),
                int(rec["start"]),
                int(rec["end"]),
                str(rec["type"]),
                source="external",
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: bad mention record: {exc}") from exc
        index.setdefault((mention.doc_id, mention.sentence_index), []).append(mention)
    return index
