"""Labeled NER dataset handling: CoNLL parsing, BIO validation, stats, sampling.

Entity-type strings are taken verbatim from the tags; no normalization is
applied, the on-disk label inventory is authoritative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from sys import intern
from typing import Iterable, Sequence

from xner.corpus import check_tokens
from xner.errors import DataError, open_text


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        check_tokens(self.tokens)
        bad = validate_bio(self.tags)
        if bad:
            raise ValueError(f"invalid BIO tags at positions {bad}: {self.tags}")

    def __len__(self):
        return len(self.tokens)

    def texts(self) -> list[str]:
        return list(self.tokens)


@dataclass(frozen=True)
class SplitStats:
    sentence_count: int
    per_type: dict  # type -> (mention count, percentage of all mentions)

    def as_dict(self) -> dict:
        return {
            "sentences": self.sentence_count,
            "entities": {
                t: {"count": c, "percent": round(p, 2)}
                for t, (c, p) in sorted(self.per_type.items())
            },
        }


@dataclass(frozen=True)
class JointConfig:
    multiplier: int = 100

    def __post_init__(self):
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")


def validate_bio(tags: Sequence[str]) -> list[int]:
    """Positions violating the BIO contract; empty list means valid.

    A tag is valid when it is "O", "B-<type>", or an "I-<type>"
    immediately preceded by "B-<type>" or "I-<type>" of the same type.
    """
    violations = []
    previous = "O"
    for i, tag in enumerate(tags):
        if tag == "O":
            previous = tag
            continue
        if len(tag) < 3 or tag[0] not in "BI" or tag[1] != "-":
            violations.append(i)
            previous = "O"
            continue
        if tag[0] == "I":
            if previous in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
                previous = tag
            else:
                violations.append(i)
                previous = "O"
        else:
            previous = tag
    return violations


def parse_conll(path) -> list[LabeledSentence]:
    """Parse a CoNLL file: one "token tag" (space or tab) line per token,
    blank line between sentences, -DOCSTART- lines skipped.

    Tokens and tags are interned, so a gold and a predicted file share
    their strings and aligned tokens compare by identity.
    """
    sentences: list[LabeledSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    start_line = 1

    def flush():
        if tokens:
            bad = validate_bio(tags)
            if bad:
                raise DataError(
                    f"{path}:{start_line + bad[0]}: invalid BIO tag "
                    f"{tags[bad[0]]!r} at sentence position {bad[0]}"
                )
            sentences.append(
                LabeledSentence(tuple(map(intern, tokens)), tuple(map(intern, tags)))
            )
        tokens.clear()
        tags.clear()

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                flush()
                start_line = lineno + 1
            elif line.startswith("-DOCSTART-"):
                start_line = lineno + 1
            elif len(parts) == 2:
                if not tokens:
                    start_line = lineno
                tokens.append(parts[0])
                tags.append(parts[1])
            else:
                line = line.rstrip("\n")
                raise DataError(f"{path}:{lineno}: expected 'token tag', got {line!r}")
        flush()
    return sentences


def serialize_conll(sentences: Iterable[LabeledSentence], fh) -> None:
    """Write space-separated CoNLL, one blank line between sentences."""
    for sentence in sentences:
        for token, tag in zip(sentence.tokens, sentence.tags):
            fh.write(f"{token} {tag}\n")
        fh.write("\n")


def entity_spans(tags: Sequence[str]) -> dict[tuple[int, int], str]:
    """Maximal B-/I- runs of a tag sequence as {(start, end): type}, with
    [start, end) token spans in sentence order."""
    spans = {}
    start = None
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if start is not None:
                spans[start, i] = current
            start, current = i, tag[2:]
        elif start is not None and not tag.startswith("I-"):
            spans[start, i] = current
            start = None
    if start is not None:
        spans[start, len(tags)] = current
    return spans


def dataset_stats(split: Sequence[LabeledSentence]) -> SplitStats:
    """Sentence count plus per-type mention counts and percentages."""
    counts: dict[str, int] = {}
    for sentence in split:
        for entity_type in entity_spans(sentence.tags).values():
            counts[entity_type] = counts.get(entity_type, 0) + 1
    total = sum(counts.values())
    per_type = {
        t: (c, 100.0 * c / total if total else 0.0) for t, c in counts.items()
    }
    return SplitStats(len(split), per_type)


def subsample(
    train: Sequence[LabeledSentence], n: int, seed: int
) -> list[LabeledSentence]:
    """Uniform sample of n sentences without replacement, order preserved."""
    if not 0 <= n <= len(train):
        raise ValueError(f"sample size {n} out of range for {len(train)} sentences")
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(train)), n))
    return [train[i] for i in keep]


def build_joint(
    source: Sequence[LabeledSentence],
    target: Sequence[LabeledSentence],
    cfg: JointConfig = JointConfig(),
) -> list[LabeledSentence]:
    """Source data plus the target data repeated cfg.multiplier times.

    Upsampling balances a small target-domain training set against a much
    larger source-domain one for joint training.
    """
    return list(source) + list(target) * cfg.multiplier
