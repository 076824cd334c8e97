"""Canonical text model: tokenization, sentence segmentation, corpus loading and stats.

The tokenizer and segmenter are deliberately simple, rule-based and
deterministic so that every downstream budget (selection thresholds, mask
counts, token statistics) is reproducible. Tokens are compared by exact
code points; no Unicode normalization is applied.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import chain
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from xner.errors import DataError, data_lines, open_text

# Punctuation peeled off token edges; clitics split as their own tokens.
SPLIT_PUNCT = frozenset(".,;:!?'\"()[]{}")
_CLITICS = ("'s", "n't")

# Terminal '.' after one of these never ends a sentence.
ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "st.", "jr.", "sr.", "gen.",
    "rep.", "sen.", "gov.", "capt.", "col.", "lt.", "sgt.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.", "ca.", "approx.",
    "no.", "nos.", "fig.", "figs.", "vol.", "ch.", "pp.", "ed.", "eds.",
    "inc.", "ltd.", "co.", "corp.", "dept.", "univ.", "u.s.", "u.k.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.",
})

# A JSON \u escape or a non-UTF-8 file name can decode to these; no UTF-8 output holds them.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


# A tokenized sentence, addressable as (doc_id, index) within a corpus;
# split_text makes its tokens non-empty and whitespace-free, unchecked.
Sentence = namedtuple("Sentence", "doc_id index tokens")


class Document(NamedTuple):
    """A raw document: its id and ordered paragraphs."""

    id: str
    paragraphs: tuple[str, ...]


class CorpusStats(NamedTuple):
    """Counts that add up across documents; _asdict() is the stats summary."""

    paragraphs: int = 0
    sentences: int = 0
    tokens: int = 0

    def __add__(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(*map(add, self, other))


def split_text(text: str) -> list[str]:
    """Split raw text into token strings. Empty input yields an empty list.

    Whitespace split, then leading/trailing punctuation peeled into
    separate tokens and English clitics ('s, n't) split off. A chunk with
    no punctuation at its edges and no apostrophe is already one token, and
    one followed by a single mark, the commonest chunk that splits, is two.
    """
    out: list[str] = []
    append = out.append
    for chunk in text.split():
        if chunk[0] in SPLIT_PUNCT or "'" in chunk:
            _split_chunk(chunk, out)
        elif chunk[-1] not in SPLIT_PUNCT:
            append(chunk)
        elif chunk[-2] not in SPLIT_PUNCT:
            out += chunk[:-1], chunk[-1]
        else:
            _split_chunk(chunk, out)
    return out


def _split_chunk(chunk: str, out: list[str]) -> None:
    lead_end = 0
    while lead_end < len(chunk) and chunk[lead_end] in SPLIT_PUNCT:
        lead_end += 1
    trail_start = len(chunk)
    while trail_start > lead_end and chunk[trail_start - 1] in SPLIT_PUNCT:
        trail_start -= 1
    out.extend(chunk[:lead_end])
    core = chunk[lead_end:trail_start]
    if core:
        low = core.lower()
        for clitic in _CLITICS:
            if low.endswith(clitic) and len(core) > len(clitic):
                cut = len(core) - len(clitic)
                out.append(core[:cut])
                out.append(core[cut:])
                break
        else:
            out.append(core)
    out.extend(chunk[trail_start:])


def _sentence_tokens(document: Document) -> list[list[str]]:
    """The tokens of each sentence of the document, in order.

    A whitespace chunk of a paragraph ends a sentence when it ends in . ! or ?,
    it is the paragraph's last chunk or the next one starts with an uppercase
    letter, and its trailing run of . ! ? does not start with the '.' of a
    known abbreviation (the chunk up to that '.', lowercased).
    """
    sentences = []
    for paragraph in document.paragraphs:
        chunks = paragraph.split()
        last = len(chunks) - 1
        start = 0
        for i, chunk in enumerate(chunks):
            if chunk[-1] in ".!?" and (i == last or chunks[i + 1][0].isupper()):
                run_start = len(chunk.rstrip(".!?"))
                if chunk[run_start] != "." or chunk[:run_start + 1].lower() not in ABBREVIATIONS:
                    sentences.append(split_text(" ".join(chunks[start:i + 1])))
                    start = i + 1
        if start <= last:
            sentences.append(split_text(" ".join(chunks[start:])))
    return sentences


def segment(document: Document) -> list[Sentence]:
    """Segment a document into tokenized sentences with dense indices."""
    return [
        Sentence(document.id, index, tuple(tokens))
        for index, tokens in enumerate(_sentence_tokens(document))
    ]


def document_stats(document: Document) -> CorpusStats:
    """Paragraph/sentence/token counts of one document, additive across documents."""
    sentences = _sentence_tokens(document)
    return CorpusStats(len(document.paragraphs), len(sentences), sum(map(len, sentences)))


def corpus_tokens(documents: Iterable[Document]) -> Iterator[str]:
    """The tokens of segment's sentences, concatenated. Sentences end only at
    whitespace, so each paragraph is tokenized whole, without splitting it."""
    return chain.from_iterable(
        split_text(paragraph) for document in documents for paragraph in document.paragraphs
    )


def load_corpus(path, format: str = "plain") -> Iterator[Document]:
    """Lazily load documents from a file.

    plain: one paragraph per line, blank line starts a new document.
    jsonl: one JSON record per line with string keys id and text
    (paragraphs separated by newlines inside text); other keys are ignored.
    The CLI's parser limits format to these two.
    """
    return _load_jsonl(path) if format == "jsonl" else _load_plain(path)


def _load_plain(path) -> Iterator[Document]:
    stem = Path(path).stem
    paragraphs: list[str] = []
    count = 0
    with open_text(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                paragraphs.append(line)
            elif paragraphs:
                yield Document(f"{stem}-{count:06d}", tuple(paragraphs))
                count += 1
                paragraphs = []
    if paragraphs:
        yield Document(f"{stem}-{count:06d}", tuple(paragraphs))


def _load_jsonl(path) -> Iterator[Document]:
    for lineno, line in data_lines(path):
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested JSON
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not (
            isinstance(record, dict)
            and isinstance(record.get("id"), str)
            and isinstance(record.get("text"), str)
        ):
            raise DataError(f"{path}:{lineno}: record must have string 'id' and 'text'")
        if LONE_SURROGATE.search(record["id"]) or LONE_SURROGATE.search(record["text"]):
            raise DataError(f"{path}:{lineno}: 'id' or 'text' has a lone surrogate")
        paragraphs = tuple(p for p in record["text"].split("\n") if p.strip())
        yield Document(record["id"], paragraphs)
