"""Canonical text model: tokenization, sentence segmentation, corpus loading and stats.

The tokenizer and segmenter are deliberately simple, rule-based and
deterministic so that every downstream budget (selection thresholds, mask
counts, token statistics) is reproducible. Tokens are compared by exact
code points; no Unicode normalization is applied.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

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

# A maximal run of . ! ? may end a sentence.
_TERMINAL_RUN = re.compile("[.!?]+")


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence, addressable as (doc_id, index) within a corpus."""

    doc_id: str
    index: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("sentence index must be non-negative")
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        check_tokens(self.tokens)

    def __len__(self):
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Document:
    """A raw document: ordered paragraphs plus a domain tag."""

    id: str
    domain: str
    paragraphs: tuple[str, ...]


@dataclass(frozen=True)
class CorpusStats:
    paragraph_count: int = 0
    sentence_count: int = 0
    token_count: int = 0

    def __add__(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            self.paragraph_count + other.paragraph_count,
            self.sentence_count + other.sentence_count,
            self.token_count + other.token_count,
        )

    def as_dict(self) -> dict:
        return {
            "paragraphs": self.paragraph_count,
            "sentences": self.sentence_count,
            "tokens": self.token_count,
        }


def check_tokens(tokens: tuple[str, ...]) -> None:
    """Raise unless every token is a non-empty str without whitespace.

    One C-level join and split per sentence: the split yields exactly one
    piece per token only when no token is empty or contains whitespace.
    A non-str token raises TypeError.
    """
    if len(" ".join(tokens).split()) != len(tokens):
        raise ValueError(f"tokens must be non-empty and whitespace-free: {tokens!r}")


def split_text(text: str) -> list[str]:
    """Split raw text into token strings. Empty input yields an empty list.

    Whitespace split, then leading/trailing punctuation peeled into
    separate tokens and English clitics ('s, n't) split off. A chunk with
    no punctuation at its edges and no apostrophe is already one token.
    """
    out: list[str] = []
    append = out.append
    for chunk in text.split():
        if chunk[0] in SPLIT_PUNCT or chunk[-1] in SPLIT_PUNCT or "'" in chunk:
            _split_chunk(chunk, out)
        else:
            append(chunk)
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


def split_sentences(paragraph: str) -> list[str]:
    """Split a paragraph into sentence strings.

    A run of . ! ? ends a sentence when followed by whitespace plus an
    uppercase letter, or by the end of the paragraph; a '.' directly after
    a known abbreviation never splits.
    """
    sentences: list[str] = []
    start = 0
    for run in _TERMINAL_RUN.finditer(paragraph):
        i, j = run.span()
        if _is_boundary(paragraph, i, j):
            piece = paragraph[start:j].strip()
            if piece:
                sentences.append(piece)
            start = j
    tail = paragraph[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _is_boundary(paragraph: str, term_start: int, term_end: int) -> bool:
    if paragraph[term_start] == ".":
        w = term_start
        while w > 0 and not paragraph[w - 1].isspace():
            w -= 1
        if paragraph[w:term_start + 1].lower() in ABBREVIATIONS:
            return False
    if term_end >= len(paragraph):
        return True
    if not paragraph[term_end].isspace():
        return False
    k = term_end
    while k < len(paragraph) and paragraph[k].isspace():
        k += 1
    return k < len(paragraph) and paragraph[k].isupper()


def _sentence_tokens(document: Document) -> list[list[str]]:
    """The tokens of each non-empty sentence of the document, in order."""
    sentences = []
    for paragraph in document.paragraphs:
        for piece in split_sentences(paragraph):
            tokens = split_text(piece)
            if tokens:
                sentences.append(tokens)
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


def load_corpus(path, format: str = "plain", domain: str = "") -> Iterator[Document]:
    """Lazily load documents from a file.

    plain: one paragraph per line, blank line starts a new document.
    jsonl: one JSON record per line with keys id, domain, text
    (paragraphs separated by newlines inside text).
    """
    path = Path(path)
    if format == "plain":
        return _load_plain(path, domain)
    if format == "jsonl":
        return _load_jsonl(path)
    raise ValueError(f"unknown corpus format: {format!r}")


def _load_plain(path: Path, domain: str) -> Iterator[Document]:
    paragraphs: list[str] = []
    count = 0
    with open_text(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                paragraphs.append(line)
            elif paragraphs:
                yield Document(f"{path.stem}-{count:06d}", domain, tuple(paragraphs))
                count += 1
                paragraphs = []
    if paragraphs:
        yield Document(f"{path.stem}-{count:06d}", domain, tuple(paragraphs))


def _load_jsonl(path: Path) -> Iterator[Document]:
    for lineno, line in data_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise DataError(f"{path}:{lineno}: record must have 'id' and 'text'")
        paragraphs = tuple(p for p in str(record["text"]).split("\n") if p.strip())
        yield Document(str(record["id"]), str(record.get("domain", "")), paragraphs)
