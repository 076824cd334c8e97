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

import shutil
import signal
import sys
import tempfile
from functools import partial
from itertools import chain, islice
from operator import add
from typing import Iterable, Iterator, Sequence

from xner.corpus import CorpusStats, Document, document_stats, segment
from xner.errors import WorkerError
from xner.gazetteer import pre_annotate
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


def __getattr__(name):
    # The process-pool modules load only when a run starts a pool.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


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
    from concurrent.futures.process import BrokenProcessPool

    chunks = _chunks(chain(head, documents))
    # The module attribute, so that a pool class set on it is used.
    with sys.modules[__name__].ProcessPoolExecutor(
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
        except BaseException as exc:
            # An error, Ctrl-C or an abandoned stream: do not finish the corpus.
            pool.shutdown(cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise WorkerError(str(exc)) from exc
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
    examples = list(mask_corpus(segment(doc), cfg, vocabulary))
    text = "".join([f"{example.to_json()}\n" for example in examples])
    return text, len(examples), sum(len(example.targets) for example in examples)


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


def _lines(sentences: Iterable) -> str:
    return "".join([" ".join(s.tokens) + "\n" for s in sentences])


def _select_doc(
    doc: Document,
    level: str,
    gazetteer: dict | None,
    cfg: SelectorConfig,
    mentions: MentionIndex | None,
    specialized_types,
    percent: float | None,
    seed: int,
) -> tuple[str, str]:
    """The document's (now, later) texts of selected sentence lines:
    (entity, "") or (task, "") at levels "entity" and "task", and
    (entity, task) at "integrated"."""
    sentences = segment(doc)
    if percent is not None:
        sentences = list(sample_fraction(sentences, percent, seed))
    entity = task = ""
    if level != "task":
        entity = _lines(select_entity_level(sentences, gazetteer, cfg, mentions))
    if level != "entity":
        task = _lines(select_task_level(sentences, gazetteer, specialized_types, cfg, mentions))
    return (task, "") if level == "task" else (entity, task)


def select_documents(
    documents: Iterable[Document],
    level: str,
    gazetteer: dict | None,
    cfg: SelectorConfig = SelectorConfig(),
    mentions: MentionIndex | None = None,
    specialized_types: Iterable[str] = (),
    percent: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Iterator[tuple[str, str]]:
    """Each document's (now, later) texts of _select_doc, as a lazy stream.

    The CLI checks the options: a gazetteer or mentions, a level of LEVELS,
    specialized types for "task" and "integrated", and a percent in
    [0, 100]. write_groups(pairs, fh, upsample) writes the level's corpus,
    so tokens(integrated) = tokens(entity) + upsample * tokens(task).
    """
    worker = partial(
        _select_doc,
        level=level,
        gazetteer=gazetteer,
        cfg=cfg,
        mentions=mentions,
        specialized_types=frozenset(specialized_types),
        percent=percent,
        seed=seed,
    )
    return map_documents(worker, documents, workers)


def replay(spool, fh, times: int, between: str = "") -> None:
    """Copy the whole text spool to fh times over, in bounded blocks,
    writing between between one copy and the next."""
    for copy in range(times):
        if copy:
            fh.write(between)
        spool.seek(0)
        shutil.copyfileobj(spool, fh)


def _append(text: str, out, counts: list[int]) -> None:
    """Write text to out, after a blank line when counts shows a text
    before it; add its sentences and spaces to counts."""
    if counts[0]:
        out.write("\n")
    out.write(text)
    counts[0] += text.count("\n")
    counts[1] += text.count(" ")


def write_groups(pairs: Iterable[tuple[str, str]], fh, replays: int) -> tuple[int, int]:
    """Write each document's now text as it arrives, then its later texts
    replays times over, from a spool that makes its anonymous file at its
    first write. Empty texts are skipped and a blank line goes between
    documents. Returns the number of sentences and tokens written."""
    written, spooled = [0, 0], [0, 0]
    with tempfile.SpooledTemporaryFile(max_size=1, mode="w+", encoding="utf-8") as spool:
        for now, later in pairs:
            if now:
                _append(now, fh, written)
            if later:
                _append(later, spool, spooled)
        if spooled[0]:
            if written[0]:
                fh.write("\n")
            replay(spool, fh, replays, between="\n")
    sentences, spaces = (w + replays * s for w, s in zip(written, spooled))
    return sentences, sentences + spaces


def _annotate_doc(doc: Document, gazetteer: dict) -> tuple[str, int]:
    lines = []
    sentences = segment(doc)
    for _, _, tokens in sentences:
        lines.extend(map("{} {}\n".format, tokens, pre_annotate(tokens, gazetteer)))
        lines.append("\n")
    return "".join(lines), len(sentences)


def write_pre_annotated(
    documents: Iterable[Document], gazetteer: dict, fh, workers: int = 1
) -> int:
    """Write the CoNLL pre-annotation of documents to fh in corpus order;
    return the sentence count."""
    worker = partial(_annotate_doc, gazetteer=gazetteer)
    (sentences,) = _write_texts(map_documents(worker, documents, workers), fh, 0)
    return sentences


def stats_documents(documents: Iterable[Document], workers: int = 1) -> CorpusStats:
    """Corpus stats, shardable by document with associative merge."""
    return sum(map_documents(document_stats, documents, workers), CorpusStats())
