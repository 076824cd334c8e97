"""Document-sharded pipeline drivers.

Work is split by document across a process pool and merged back in
document order. Because every per-sentence decision is keyed on a stable
hash rather than shared RNG state, the worker count never changes a
single output byte, only the runtime.

Results stream: each pipeline writes a document's output as soon as its
result arrives, and a pool reads the corpus in fixed windows, so no
command holds a whole corpus or a whole output.
"""

from __future__ import annotations

import json
import signal
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import chain, islice
from operator import add
from typing import Iterable, Iterator, Sequence

from xner.corpus import CorpusStats, Document, document_stats, segment
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

# A pool task takes documents until their text reaches CHUNK_CHARS, so a
# round trip carries about as much work for short documents as for long
# ones. The corpus is read ahead in windows of WINDOW_CHUNKS tasks per
# worker, and two windows in flight bound the memory a pooled run holds.
CHUNK_CHARS = 16_384
WINDOW_CHUNKS = 8


# The worker of the current pool process, set once by the pool initializer.
_pool_worker = None


def _set_pool_worker(worker) -> None:
    global _pool_worker
    _pool_worker = worker
    # Ctrl-C is the parent's to handle: it cancels the rest of the corpus.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _call_pool_worker(chunk: list[Document]) -> list:
    return [_pool_worker(doc) for doc in chunk]


def _chunks(documents: Iterable[Document]) -> Iterator[list[Document]]:
    chunk, chars = [], 0
    for doc in documents:
        chunk.append(doc)
        chars += sum(map(len, doc.paragraphs))
        if chars >= CHUNK_CHARS:
            yield chunk
            chunk, chars = [], 0
    if chunk:
        yield chunk


def map_documents(worker, documents: Iterable[Document], workers: int) -> Iterator:
    """Lazily apply worker to each document, yielding results in document order.

    The worker (and the gazetteer or vocabulary bound into it) reaches
    each pool process once, through the initializer, not with every chunk.
    """
    if workers <= 1:
        return map(worker, documents)
    return _map_pooled(worker, documents, workers)


def _map_pooled(worker, documents: Iterable[Document], workers: int) -> Iterator:
    documents = iter(documents)
    head = list(islice(documents, 2))
    if len(head) <= 1:
        yield from map(worker, head)
        return
    chunks = _chunks(chain(head, documents))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_pool_worker, initargs=(worker,)
    ) as pool:
        try:
            # Read the corpus a window at a time and keep at most two
            # windows in flight: submit the next one, then yield this one.
            pending = iter(())
            while window := list(islice(chunks, WINDOW_CHUNKS * workers)):
                submitted = pool.map(_call_pool_worker, window)
                del window  # each chunk's documents are freed when it finishes
                yield from chain.from_iterable(pending)
                pending = submitted
            yield from chain.from_iterable(pending)
        except BaseException:
            # An error, Ctrl-C or an abandoned stream: do not finish the corpus.
            pool.shutdown(cancel_futures=True)
            raise


def _write_texts(results: Iterable[tuple], fh, *totals: int) -> tuple[int, ...]:
    """Write each document's text as its result arrives; add the counts
    that follow it to the given start totals."""
    for text, *counts in results:
        fh.write(text)
        totals = tuple(map(add, totals, counts))
    return totals


def _mask_doc(
    doc: Document, cfg: MaskingConfig, vocabulary: Sequence[str]
) -> tuple[str, int, int]:
    lines = []
    targets = 0
    for example in mask_corpus(segment(doc), cfg, vocabulary):
        lines.append(json.dumps(example.to_record(), ensure_ascii=False) + "\n")
        targets += len(example.targets)
    return "".join(lines), len(lines), targets


def write_masked(
    documents: Iterable[Document],
    cfg: MaskingConfig,
    vocabulary: Sequence[str],
    fh,
    workers: int = 1,
) -> tuple[int, int]:
    """Write masked examples to fh as JSONL in corpus order: (examples, targets)."""
    worker = partial(_mask_doc, cfg=cfg, vocabulary=vocabulary)
    return _write_texts(map_documents(worker, documents, workers), fh, 0, 0)


def _select_doc(
    doc: Document,
    level: str,
    gazetteer: Gazetteer | None,
    cfg: SelectorConfig,
    mentions: MentionIndex | None,
    specialized_types,
    percent: float | None,
    seed: int,
):
    """The document's entity lines, task lines, or both for "integrated"."""
    sentences = segment(doc)
    if percent is not None:
        sentences = list(sample_fraction(sentences, percent, seed))
    if level != "task":
        entity = [s.text() for s in select_entity_level(sentences, gazetteer, cfg, mentions)]
        if level == "entity":
            return entity
    task = [
        s.text()
        for s in select_task_level(sentences, gazetteer, specialized_types, cfg, mentions)
    ]
    return task if level == "task" else (entity, task)


def select_documents(
    documents: Iterable[Document],
    level: str,
    gazetteer: Gazetteer | None,
    cfg: SelectorConfig = SelectorConfig(),
    mentions: MentionIndex | None = None,
    specialized_types: Iterable[str] = (),
    percent: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Iterator[list[str]]:
    """Selected sentence lines grouped by document, as a lazy stream.

    The options, including the specialized types that "task" and
    "integrated" need, are checked here, before any document is read. level
    "entity" or "task" yields one group per document; "integrated" yields
    the entity groups followed by the task groups repeated
    cfg.task_upsample times, so token counts satisfy
    tokens(integrated) = tokens(entity) + task_upsample * tokens(task).
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if gazetteer is None and mentions is None:
        raise ValueError("selection requires a gazetteer or an external mention index")
    specialized_types = frozenset(specialized_types)
    if level != "entity" and not specialized_types:
        raise ValueError("task-level selection requires a non-empty specialized type set")
    if percent is not None and not 0 <= percent <= 100:
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    worker = partial(
        _select_doc,
        level=level,
        gazetteer=gazetteer,
        cfg=cfg,
        mentions=mentions,
        specialized_types=specialized_types,
        percent=percent,
        seed=seed,
    )
    results = map_documents(worker, documents, workers)
    if level == "integrated":
        return _integrated(results, cfg.task_upsample)
    return results


def _integrated(results: Iterator[tuple[list[str], list[str]]], replays: int):
    """Entity groups as they arrive, then the task groups replays times,
    spooled to an anonymous temporary file as one tab-joined line per
    group (tokens never contain whitespace)."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        for entity, task in results:
            yield entity
            if task:
                spool.write("\t".join(task))
                spool.write("\n")
        for _ in range(replays):
            spool.seek(0)
            for line in spool:
                yield line[:-1].split("\t")


def write_groups(groups: Iterable[list[str]], fh) -> tuple[int, int]:
    """Write sentence groups as plain text with blank lines between documents.

    Empty groups are skipped. Returns the number of sentences and tokens
    written.
    """
    sentences = tokens = 0
    for group in groups:
        if not group:
            continue
        if sentences:
            fh.write("\n")
        text = "\n".join(group)
        fh.write(text)
        fh.write("\n")
        sentences += len(group)
        tokens += text.count(" ") + len(group)
    return sentences, tokens


def _annotate_doc(doc: Document, gazetteer: Gazetteer) -> tuple[str, int]:
    lines = []
    sentences = segment(doc)
    for sentence in sentences:
        lines.extend(map("{} {}\n".format, sentence.tokens, pre_annotate(sentence, gazetteer)))
        lines.append("\n")
    return "".join(lines), len(sentences)


def write_pre_annotated(
    documents: Iterable[Document], gazetteer: Gazetteer, fh, workers: int = 1
) -> int:
    """Write the CoNLL pre-annotation of documents to fh in corpus order;
    return the sentence count."""
    worker = partial(_annotate_doc, gazetteer=gazetteer)
    (sentences,) = _write_texts(map_documents(worker, documents, workers), fh, 0)
    return sentences


def stats_documents(documents: Iterable[Document], workers: int = 1) -> CorpusStats:
    """Corpus stats, shardable by document with associative merge."""
    return sum(map_documents(document_stats, documents, workers), CorpusStats())
