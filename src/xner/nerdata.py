"""Labeled NER dataset handling: CoNLL parsing, BIO validation and stats.

Entity-type strings are taken verbatim from the tags; no normalization is
applied, the on-disk label inventory is authoritative.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain
from sys import intern
from typing import Iterable, Iterator, NamedTuple, Sequence

from xner.errors import DataError, open_text


class LabeledSentence(namedtuple("LabeledSentence", "tokens tags")):
    __slots__ = ()

    def __new__(cls, tokens: tuple[str, ...], tags: tuple[str, ...]):
        if len(tokens) != len(tags):
            raise ValueError(f"{len(tokens)} tokens but {len(tags)} tags")
        bad = validate_bio(tags)
        if bad:
            raise ValueError(f"invalid BIO tags at positions {bad}: {tags}")
        return super().__new__(cls, tokens, tags)


def _well_formed(tag: str) -> bool:
    """Whether tag is "O", "B-<type>" or "I-<type>" with a non-empty type."""
    return tag == "O" or (len(tag) > 2 and tag[0] in "BI" and tag[1] == "-")


def validate_bio(tags: Sequence[str]) -> list[int]:
    """Positions violating the BIO contract; empty list means valid.

    A tag is valid when it is "O", "B-<type>", or an "I-<type>"
    immediately preceded by "B-<type>" or "I-<type>" of the same type.
    """
    violations = []
    current = None  # type of the chunk that an I- tag may continue
    for i, tag in enumerate(tags):
        if tag == "O":
            current = None
        elif not _well_formed(tag) or (tag[0] == "I" and tag[2:] != current):
            violations.append(i)
            current = None
        else:
            current = tag[2:]
    return violations


class ConllSentence(NamedTuple):
    """One sentence read from a CoNLL file."""

    where: str  # "path:line" of the sentence's first token
    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    lines: str  # the sentence's lines as read, each ending in "\n"


def iter_conll(path, strict: bool = True, interned: bool = False) -> Iterator[ConllSentence]:
    """Read a CoNLL file lazily, one sentence at a time.

    The token is a line's first column and the tag its last, so the
    CoNLL-2003 line "EU NNP B-NP B-ORG" reads as ("EU", "B-ORG"). Blank and
    -DOCSTART- lines end a sentence. strict=True requires valid BIO;
    strict=False accepts any sequence of well-formed tags, which
    entity_spans chunks as conlleval does. A line with one field or a bad
    tag raises DataError("path:line: ...").

    With interned=True, tokens and tags are interned as they are read, so
    equal strings are one object across sentences and files. Only
    parse_conll keeps its sentences, and so asks: interning what a stream
    drops grows CPython's process-wide table of interned strings. The
    tuples are built from sized lists, so a kept tuple has no spare slots.

    Each sentence's lines field is its token lines exactly as read, every
    column, separator and trailing space kept and each line ending in
    "\n" (one is added after a last line that has none), so writing it
    back gives the sentence's own bytes; the blank and -DOCSTART- lines
    around it are not part of it.
    """
    well_formed = {"O"}
    tokens: list[str] = []
    tags: list[str] = []
    lines: list[str] = []
    with open_text(path) as fh:
        # The trailing "" ends the last sentence as a blank line would.
        for lineno, line in enumerate(chain(fh, ("",)), 1):
            parts = line.split()
            if len(parts) > 1 and parts[0] != "-DOCSTART-":
                if not tokens:
                    start = lineno
                tokens.append(intern(parts[0]) if interned else parts[0])
                tags.append(intern(parts[-1]) if interned else parts[-1])
                lines.append(line)
            elif parts and parts[0] != "-DOCSTART-":
                raise DataError(f"{path}:{lineno}: expected 'token ... tag', got {parts[0]!r}")
            elif tokens:
                if strict:
                    bad = validate_bio(tags)
                elif well_formed.issuperset(tags):
                    bad = []
                else:
                    bad = [i for i, tag in enumerate(tags) if not _well_formed(tag)]
                    well_formed.update(tags)
                if bad:
                    kind = "invalid BIO" if strict else "malformed"
                    raise DataError(f"{path}:{start + bad[0]}: {kind} tag {tags[bad[0]]!r}")
                text = "".join(lines)
                if text[-1] != "\n":
                    text += "\n"
                yield ConllSentence(f"{path}:{start}", tuple(tokens), tuple(tags), text)
                tokens.clear()
                tags.clear()
                lines.clear()


def parse_conll(path) -> list[LabeledSentence]:
    """Every sentence of iter_conll(path, interned=True) as a LabeledSentence.
    The reader's interned, exact-size tuples are kept as they are, and
    equal tag sequences are shared as one tuple."""
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    sentences = iter_conll(path, interned=True)
    return [LabeledSentence(s.tokens, shared.setdefault(s.tags, s.tags)) for s in sentences]


def entity_spans(tags: Sequence[str]) -> dict[tuple[int, int], str]:
    """Chunks of a sequence of well-formed tags as {(start, end): type},
    with [start, end) token spans in sentence order, read as conlleval
    reads them: B-x starts a chunk, and so does I-x after O or after a tag
    of another type. On valid BIO these are the maximal B-/I- runs."""
    spans = {}
    start = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans[start, i] = current
                start = None
        elif tag[0] == "B" or start is None or tag[2:] != current:
            if start is not None:
                spans[start, i] = current
            start, current = i, tag[2:]
    if start is not None:
        spans[start, len(tags)] = current
    return spans


def dataset_stats(split: Iterable) -> dict:
    """The ner-stats summary: the sentence count, then each type's mention
    count and its percentage of all mentions, rounded to 2 places, in type
    order. One pass over the sentences' .tags, so split may be a one-shot
    iterator such as iter_conll(path)."""
    counts = Counter()
    sentences = 0
    for sentences, s in enumerate(split, 1):
        counts.update(entity_spans(s.tags).values())
    total = sum(counts.values())  # 0 only when there is no type to divide
    return {
        "sentences": sentences,
        "entities": {
            t: {"count": c, "percent": round(100.0 * c / total, 2)}
            for t, c in sorted(counts.items())
        },
    }
