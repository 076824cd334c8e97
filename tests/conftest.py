import random
import sys
from collections import Counter

import pytest

from xner.corpus import Sentence
from xner.errors import UsageError
from xner.gazetteer import build_trie
from xner.nerdata import LabeledSentence


def make_sentence(text: str, doc_id: str = "d", index: int = 0) -> Sentence:
    return Sentence(doc_id, index, tuple(text.split()))


def make_trie(entries, parent_of=None) -> dict:
    """The gazetteer trie of {surface tokens: types}, each surface one
    frozenset row, resolved under the child-to-parent dict."""
    rows = [(tuple(surface), frozenset(types)) for surface, types in entries.items()]
    return build_trie(rows, parent_of or {})


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


class FixedRoll:
    """An rng for masker.apply_replacements whose random() always returns
    roll: 0.0 masks, 0.85 draws a random token and 0.95 keeps. randrange
    and getstate are those of random.Random(seed)."""

    def __init__(self, roll, seed=0):
        self.roll = roll
        draws = random.Random(seed)
        self.randrange, self.getstate = draws.randrange, draws.getstate

    def random(self):
        return self.roll


# Each command's required flags, naming files that do not exist: a flag
# value that the parser rejects is the only fault of such a command line.
REQUIRED_ARGS = {
    "stats": ["--input", "missing"],
    "extract": ["--input", "missing", "--level", "entity", "--gazetteer", "missing",
                "--output", "out"],
    "mask": ["--input", "missing", "--output", "out"],
    "eval": ["--gold", "missing", "--pred", "missing"],
    "overlap": ["--inputs", "a=missing"],
    "pre-annotate": ["--input", "missing", "--gazetteer", "missing", "--output", "out"],
    "subsample": ["--input", "missing", "--output", "out"],
    "joint": ["--source", "missing", "--target", "missing", "--output", "out"],
}


def bad_flag(command, flag, value):
    """Parse command's required flags plus flag value, with the CLI's parser."""
    from xner.cli import build_parser

    return build_parser().parse_args([command, *REQUIRED_ARGS[command], flag, value])


def assert_rejected(command, flag, value):
    """bad_flag raises a UsageError that names flag."""
    with pytest.raises(UsageError) as info:
        bad_flag(command, flag, value)
    assert str(info.value).startswith(f"argument {flag}: ")


@pytest.fixture(autouse=True)
def _forget_patched_pool_class():
    """Undoing monkeypatch.setattr(pipelines, "ProcessPoolExecutor", ...)
    leaves the real class set on the module, where it hides the module's
    lazy __getattr__ from every later test; remove it after each test."""
    yield
    pipelines = sys.modules.get("xner.pipelines")
    if pipelines is not None:
        vars(pipelines).pop("ProcessPoolExecutor", None)
