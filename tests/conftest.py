import random
from collections import Counter

import pytest

from xner.corpus import Sentence
from xner.nerdata import LabeledSentence


def make_sentence(text: str, doc_id: str = "d", index: int = 0) -> Sentence:
    return Sentence(doc_id, index, tuple(text.split()))


def make_labeled(text: str, tags) -> LabeledSentence:
    return LabeledSentence(tuple(text.split()), tuple(tags))


def random_bio_tags(rng: random.Random, length: int, types) -> list[str]:
    """A random valid BIO sequence."""
    tags = []
    i = 0
    while i < length:
        if rng.random() < 0.4:
            t = rng.choice(types)
            span = min(rng.randint(1, 3), length - i)
            tags.append(f"B-{t}")
            tags.extend(f"I-{t}" for _ in range(span - 1))
            i += span
        else:
            tags.append("O")
            i += 1
    return tags


def reference_ranking(tokens, size: int) -> list[str]:
    """The most frequent tokens, ties broken lexicographically, ranked by
    an explicit (-count, token) key: the oracle for the in-place ranking."""
    ranked = sorted(Counter(tokens).items(), key=lambda kv: (-kv[1], kv[0]))
    return [token for token, _ in ranked[:size]]


@pytest.fixture
def rng():
    return random.Random(12345)
