"""Records are named tuples: the validated ones reject bad fields, and
the ones a process pool ships survive pickling."""

import pickle
from types import SimpleNamespace

import pytest

from xner.cli import _cmd_joint
from xner.corpus import Document, Sentence
from xner.masker import MaskedExample, MaskingConfig, MaskTarget
from xner.nerdata import LabeledSentence
from xner.selector import SelectorConfig


def _example(*positions):
    targets = tuple(MaskTarget(p, "w", "keep") for p in positions)
    return MaskedExample("d", 0, ("w",) * 4, targets)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: MaskingConfig(mask_rate=0.0), id="config-rate-0"),
    pytest.param(lambda: MaskingConfig(mask_rate=1.0), id="config-rate-1"),
    pytest.param(
        lambda: MaskingConfig(mask_token_prob=1.5, random_token_prob=-0.25, keep_prob=-0.25),
        id="config-prob-out-of-range",
    ),
    pytest.param(
        lambda: MaskingConfig(mask_token_prob=0.7, random_token_prob=0.1, keep_prob=0.1),
        id="config-probs-sum-below-1",
    ),
    pytest.param(lambda: MaskingConfig(strategy="word"), id="config-strategy"),
    pytest.param(lambda: MaskingConfig(min_sentence_len=0), id="config-min-len"),
    pytest.param(lambda: LabeledSentence(("a", "b"), ("O",)), id="labeled-tag-count"),
    pytest.param(lambda: LabeledSentence(("a",), ("I-x",)), id="labeled-i-after-start"),
    pytest.param(lambda: LabeledSentence(("a",), ("B-",)), id="labeled-empty-type"),
    pytest.param(lambda: LabeledSentence(("a",), ("X",)), id="labeled-malformed-tag"),
    pytest.param(lambda: SelectorConfig(min_mentions=0), id="selector-min-mentions"),
    pytest.param(lambda: SelectorConfig(min_specialized=0), id="selector-min-specialized"),
    pytest.param(lambda: SelectorConfig(task_upsample=0), id="selector-task-upsample"),
    pytest.param(
        lambda: _cmd_joint(SimpleNamespace(
            source="missing.conll", target="missing.conll", multiplier=0, output="-",
        )),
        id="joint-multiplier",
    ),
])
def test_validated_records_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_fields_and_defaults():
    assert MaskingConfig._fields == (
        "mask_rate", "mask_token_prob", "random_token_prob", "keep_prob",
        "strategy", "seed", "min_sentence_len",
    )
    assert MaskingConfig() == (0.15, 0.80, 0.10, 0.10, "token", 0, 5)
    assert MaskingConfig(strategy="span", seed=3).seed == 3
    assert SelectorConfig() == (2, 1, 2)
    assert _example(0, 2).targets[1] == MaskTarget(2, "w", "keep")


def test_len_counts_tokens_and_replace_keeps_the_type():
    sentence = Sentence("d", 0, ("a", "b", "c", "d"))
    assert len(sentence) == 4
    assert sentence._replace(index=3) == Sentence("d", 3, sentence.tokens)
    labeled = LabeledSentence(("a", "b", "c"), ("B-x", "I-x", "O"))
    relabeled = labeled._replace(tags=("O", "O", "O"))
    assert type(relabeled) is LabeledSentence and relabeled.tags == ("O", "O", "O")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("record", [
    Document("d-000001", ("Nirvana played Seattle.", "Radiohead did too.")),
    Sentence("d-000001", 2, ("Nirvana", "played", "Seattle", ".")),
], ids=["document", "sentence"])
def test_pickle_round_trip(record, protocol):
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is type(record)
    assert copy == record
