"""Records are named tuples: LabeledSentence rejects bad fields, the
CLI's parser rejects the flag values of the others, and the ones a
process pool ships survive pickling."""

import pickle

import pytest

from conftest import bad_flag
from xner.corpus import Document, Sentence
from xner.masker import MaskedExample, MaskingConfig, MaskTarget
from xner.nerdata import LabeledSentence
from xner.selector import SelectorConfig


def _example(*positions):
    targets = tuple(MaskTarget(p, "w", "keep") for p in positions)
    return MaskedExample("d", 0, ("w",) * 4, targets)


def _flag(*argv):
    return lambda: bad_flag(*argv)


@pytest.mark.parametrize("build", [
    # MaskingConfig, SelectorConfig and joint's multiplier are checked as
    # flags, so the records themselves check nothing.
    pytest.param(_flag("mask", "--rate", "0"), id="config-rate-0"),
    pytest.param(_flag("mask", "--rate", "1"), id="config-rate-1"),
    pytest.param(_flag("mask", "--strategy", "word"), id="config-strategy"),
    pytest.param(_flag("mask", "--min-len", "0"), id="config-min-len"),
    pytest.param(lambda: LabeledSentence(("a", "b"), ("O",)), id="labeled-tag-count"),
    pytest.param(lambda: LabeledSentence(("a",), ("I-x",)), id="labeled-i-after-start"),
    pytest.param(lambda: LabeledSentence(("a",), ("B-",)), id="labeled-empty-type"),
    pytest.param(lambda: LabeledSentence(("a",), ("X",)), id="labeled-malformed-tag"),
    pytest.param(_flag("extract", "--min-mentions", "0"), id="selector-min-mentions"),
    pytest.param(_flag("extract", "--min-specialized", "0"), id="selector-min-specialized"),
    pytest.param(_flag("extract", "--upsample", "0"), id="selector-task-upsample"),
    pytest.param(_flag("joint", "--multiplier", "0"), id="joint-multiplier"),
])
def test_validated_records_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_fields_and_defaults():
    assert MaskingConfig._fields == ("mask_rate", "strategy", "seed", "min_sentence_len")
    assert MaskingConfig() == (0.15, "token", 0, 5)
    assert MaskingConfig(strategy="span", seed=3).seed == 3
    assert SelectorConfig() == (2, 1, 2)
    assert _example(0, 2).targets[1] == MaskTarget(2, "w", "keep")


def test_replace_keeps_the_type():
    sentence = Sentence("d", 0, ("a", "b", "c", "d"))
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
