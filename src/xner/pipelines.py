"""Document-sharded pipeline drivers.

Work is split by document across a process pool and merged back in
document order. Because every per-sentence decision is keyed on a stable
hash rather than shared RNG state, the worker count never changes a
single output byte, only the runtime.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Iterable, Sequence

from xner.corpus import CorpusStats, Document, corpus_stats, segment
from xner.gazetteer import Gazetteer, pre_annotate
from xner.masker import MaskingConfig, mask_corpus
from xner.selector import (
    MentionIndex,
    SelectorConfig,
    sample_fraction,
    select_entity_level,
    select_task_level,
)

LEVELS = ("entity", "task", "integrated")


# The worker of the current pool process, set once by the pool initializer.
_pool_worker = None


def _set_pool_worker(worker) -> None:
    global _pool_worker
    _pool_worker = worker


def _call_pool_worker(doc: Document):
    return _pool_worker(doc)


def map_documents(worker, documents: Iterable[Document], workers: int) -> list:
    """Apply worker to each document, preserving document order.

    The worker (and the gazetteer or vocabulary bound into it) reaches
    each pool process once, through the initializer, not with every chunk.
    """
    docs = list(documents)
    if workers <= 1 or len(docs) <= 1:
        return [worker(d) for d in docs]
    chunksize = max(1, math.ceil(len(docs) / (workers * 4)))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_pool_worker, initargs=(worker,)
    ) as pool:
        return list(pool.map(_call_pool_worker, docs, chunksize=chunksize))


def _mask_doc(
    doc: Document, cfg: MaskingConfig, vocabulary: Sequence[str]
) -> tuple[list[str], int]:
    lines = []
    targets = 0
    for example in mask_corpus(segment(doc), cfg, vocabulary):
        lines.append(json.dumps(example.to_record(), ensure_ascii=False))
        targets += len(example.targets)
    return lines, targets


def mask_documents(
    documents: Iterable[Document],
    cfg: MaskingConfig,
    vocabulary: Sequence[str],
    workers: int = 1,
) -> tuple[list[str], int]:
    """JSONL lines of masked examples in corpus order, and their target count."""
    worker = partial(_mask_doc, cfg=cfg, vocabulary=vocabulary)
    results = map_documents(worker, documents, workers)
    return (
        [line for lines, _ in results for line in lines],
        sum(targets for _, targets in results),
    )


def _select_doc(
    doc: Document,
    gazetteer: Gazetteer | None,
    cfg: SelectorConfig,
    need_task: bool,
    mentions: MentionIndex | None,
    specialized_types,
    percent: float | None,
    seed: int,
) -> tuple[list[str], list[str]]:
    sentences = segment(doc)
    if percent is not None:
        sentences = list(sample_fraction(sentences, percent, seed))
    entity = [s.text() for s in select_entity_level(sentences, gazetteer, cfg, mentions)]
    task = []
    if need_task:
        task = [
            s.text()
            for s in select_task_level(sentences, gazetteer, cfg, mentions, specialized_types)
        ]
    return entity, task


def select_documents(
    documents: Iterable[Document],
    level: str,
    gazetteer: Gazetteer | None,
    cfg: SelectorConfig = SelectorConfig(),
    mentions: MentionIndex | None = None,
    specialized_types=None,
    percent: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> list[list[str]]:
    """Selected sentence lines grouped by document.

    level "entity" or "task" yields one group per contributing document;
    "integrated" yields the entity groups followed by the task groups
    repeated cfg.task_upsample times, so token counts satisfy
    tokens(integrated) = tokens(entity) + task_upsample * tokens(task).
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if level in ("task", "integrated"):
        specialized = frozenset(
            specialized_types
            if specialized_types is not None
            else (gazetteer.specialized_types if gazetteer else ())
        )
        if not specialized:
            raise ValueError(
                "task-level selection requires a non-empty specialized type set"
            )
        specialized_types = specialized
    worker = partial(
        _select_doc,
        gazetteer=gazetteer,
        cfg=cfg,
        need_task=level in ("task", "integrated"),
        mentions=mentions,
        specialized_types=specialized_types,
        percent=percent,
        seed=seed,
    )
    results = map_documents(worker, documents, workers)
    entity_groups = [entity for entity, _ in results]
    task_groups = [task for _, task in results]
    if level == "entity":
        return entity_groups
    if level == "task":
        return task_groups
    return entity_groups + task_groups * cfg.task_upsample


def _annotate_doc(doc: Document, gazetteer: Gazetteer) -> tuple[str, int, int]:
    lines = []
    flagged = 0
    sentences = segment(doc)
    for sentence in sentences:
        tags, flags = pre_annotate(sentence, gazetteer)
        flagged += len(flags)
        lines.extend(map("{} {}\n".format, sentence.tokens, tags))
        lines.append("\n")
    return "".join(lines), len(sentences), flagged


def pre_annotate_documents(
    documents: Iterable[Document], gazetteer: Gazetteer, workers: int = 1
) -> tuple[list[str], int, int]:
    """CoNLL text of each document in corpus order, the sentence count and
    the review-flag count."""
    results = map_documents(partial(_annotate_doc, gazetteer=gazetteer), documents, workers)
    return (
        [text for text, _, _ in results],
        sum(sentences for _, sentences, _ in results),
        sum(flagged for _, _, flagged in results),
    )


def write_groups(groups: Iterable[list[str]], fh) -> int:
    """Write sentence groups as plain text with blank lines between documents.

    Empty groups are skipped. Returns the number of sentences written.
    """
    written = 0
    first = True
    for group in groups:
        if not group:
            continue
        if not first:
            fh.write("\n")
        for line in group:
            fh.write(line)
            fh.write("\n")
            written += 1
        first = False
    return written


def stats_documents(documents: Iterable[Document], workers: int = 1) -> CorpusStats:
    """Corpus stats, shardable by document with associative merge."""
    results = map_documents(_doc_stats, documents, workers)
    total = CorpusStats()
    for stats in results:
        total = total + stats
    return total


def _doc_stats(doc: Document) -> CorpusStats:
    return corpus_stats([doc])
