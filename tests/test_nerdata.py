import io
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import make_labeled, random_bio_tags
from ref_nerdata import extract_entities
from xner.errors import DataError
from xner.gazetteer import mentions_to_bio
from xner.nerdata import (
    JointConfig,
    LabeledSentence,
    build_joint,
    dataset_stats,
    entity_spans,
    parse_conll,
    serialize_conll,
    subsample,
    validate_bio,
)


class TestValidateBio:
    @pytest.mark.parametrize("tags", [
        ["B-band", "I-band", "O"],
        ["O", "O"],
        ["B-song", "B-song"],
        ["B-a", "I-a", "B-b", "I-b"],
        [],
    ])
    def test_valid(self, tags):
        assert validate_bio(tags) == []

    @pytest.mark.parametrize("tags,positions", [
        (["O", "I-person"], [1]),
        (["B-person", "I-band"], [1]),
        (["I-x"], [0]),
        (["B-x", "O", "I-x"], [2]),
        (["B-", "O"], [0]),
        (["X-person"], [0]),
        (["band"], [0]),
    ])
    def test_violations(self, tags, positions):
        assert validate_bio(tags) == positions


class TestParseConll:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("")
        assert parse_conll(path) == []

    def test_single_token(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("Mars B-astronomicalobject\n\n")
        sentences = parse_conll(path)
        assert len(sentences) == 1
        assert sentences[0].texts() == ["Mars"]
        assert sentences[0].tags == ("B-astronomicalobject",)

    def test_tab_separator_accepted(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("Mars\tB-x\nrocks\tO\n")
        [s] = parse_conll(path)
        assert s.tags == ("B-x", "O")

    def test_docstart_skipped(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("-DOCSTART- O\n\na O\n\n")
        sentences = parse_conll(path)
        assert len(sentences) == 1

    def test_invalid_bio_reports_line(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("a O\nb I-person\n\n")
        with pytest.raises(DataError, match=":2:"):
            parse_conll(path)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("a O\nbroken line here extra\n")
        with pytest.raises(DataError, match=":2:"):
            parse_conll(path)

    def test_round_trip(self, tmp_path, rng):
        sentences = []
        for i in range(25):
            length = rng.randint(1, 12)
            tags = random_bio_tags(rng, length, ["person", "band", "location"])
            sentences.append(
                make_labeled(" ".join(f"w{j}" for j in range(length)), tags)
            )
        buffer = io.StringIO()
        serialize_conll(sentences, buffer)
        path = tmp_path / "rt.conll"
        path.write_text(buffer.getvalue())
        assert parse_conll(path) == sentences


class TestExtractEntities:
    def test_all_outside(self):
        s = make_labeled("a b c", ["O", "O", "O"])
        assert extract_entities(s) == []

    def test_single_mention(self):
        s = make_labeled("Brand Nubian etc", ["B-band", "I-band", "O"])
        [m] = extract_entities(s)
        assert (m.start, m.end, m.entity_type, m.source) == (0, 2, "band", "gold")

    def test_adjacent_b_tags(self):
        s = make_labeled("Help Yesterday", ["B-song", "B-song"])
        mentions = extract_entities(s)
        assert [(m.start, m.end, m.entity_type) for m in mentions] == [
            (0, 1, "song"), (1, 2, "song"),
        ]

    def test_mention_at_sentence_end(self):
        s = make_labeled("in New York", ["O", "B-location", "I-location"])
        [m] = extract_entities(s)
        assert (m.start, m.end) == (1, 3)

    def test_retagging_round_trip(self, rng):
        for _ in range(200):
            length = rng.randint(1, 15)
            tags = random_bio_tags(rng, length, ["a", "b", "c"])
            s = make_labeled(" ".join("w" for _ in range(length)), tags)
            mentions = extract_entities(s)
            assert tuple(mentions_to_bio(mentions, length)) == s.tags


def _oracle_spans(tags):
    mentions = extract_entities(SimpleNamespace(tags=tags))
    return [(m.start, m.end, m.entity_type) for m in mentions]


class TestEntitySpans:
    """entity_spans against the reference extract_entities."""

    def test_matches_reference_on_valid_bio(self, rng):
        for _ in range(2000):
            tags = random_bio_tags(rng, rng.randint(0, 15), ["a", "b", "c"])
            spans = [(s, e, t) for (s, e), t in entity_spans(tags).items()]
            assert spans == _oracle_spans(tags)

    @given(st.lists(st.sampled_from(["O", "B-a", "B-b", "I-a", "I-b", "B-", "X"]), max_size=20))
    def test_matches_reference_on_any_tags(self, tags):
        spans = [(s, e, t) for (s, e), t in entity_spans(tags).items()]
        assert spans == _oracle_spans(tags)

    def test_i_after_o_and_type_change(self):
        assert entity_spans(["O", "I-a", "B-a", "I-b", "O", "B-b"]) == {
            (2, 4): "a", (5, 6): "b",
        }


class TestParseConllInterning:
    def test_gold_and_pred_share_strings(self, tmp_path):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("Kurt B-person\nCobain I-person\nsang O\n")
        pred.write_text("Kurt B-band\nCobain I-band\nsang O\n")
        [g], [p] = parse_conll(gold), parse_conll(pred)
        assert all(a is b for a, b in zip(g.tokens, p.tokens))
        assert g.tags[2] is p.tags[2]


class TestLabeledSentence:
    def test_tag_count_must_match(self):
        with pytest.raises(ValueError):
            make_labeled("a b", ["O"])

    def test_invalid_bio_rejected(self):
        with pytest.raises(ValueError):
            make_labeled("a b", ["O", "I-x"])

    def test_rejects_whitespace_and_empty_tokens(self):
        for tokens in (("a b",), ("",), ("a", ""), ("a", "b\tc")):
            with pytest.raises(ValueError):
                LabeledSentence(tokens, ("O",) * len(tokens))
        with pytest.raises(TypeError):
            LabeledSentence(("a", 1), ("O", "O"))

    def test_immutable(self):
        sentence = make_labeled("x", ["O"])
        with pytest.raises(AttributeError):
            sentence.tokens = ("y",)
        with pytest.raises(TypeError):
            sentence.tokens[0] = "y"


class TestDatasetStats:
    def test_empty_split(self):
        stats = dataset_stats([])
        assert stats.sentence_count == 0
        assert stats.per_type == {}

    def test_hand_arithmetic(self):
        sentences = [
            make_labeled("Nirvana played Help", ["B-band", "O", "B-song"]),
            make_labeled("Yesterday charted", ["B-song", "O"]),
        ]
        stats = dataset_stats(sentences)
        assert stats.sentence_count == 2
        count, pct = stats.per_type["band"]
        assert (count, round(pct, 2)) == (1, 33.33)
        count, pct = stats.per_type["song"]
        assert (count, round(pct, 2)) == (2, 66.67)

    def test_percentages_sum_to_hundred(self, rng):
        sentences = []
        for _ in range(40):
            length = rng.randint(1, 10)
            tags = random_bio_tags(rng, length, ["x", "y", "z"])
            sentences.append(make_labeled(" ".join("w" for _ in range(length)), tags))
        stats = dataset_stats(sentences)
        if stats.per_type:
            assert abs(sum(p for _, p in stats.per_type.values()) - 100) < 0.1

    def test_invariant_under_permutation(self):
        sentences = [
            make_labeled("a", ["B-x"]),
            make_labeled("b c", ["B-y", "I-y"]),
            make_labeled("d", ["O"]),
        ]
        assert dataset_stats(sentences).per_type == dataset_stats(sentences[::-1]).per_type


class TestSubsample:
    def _train(self, n=100):
        return [make_labeled(f"w{i}", ["O"]) for i in range(n)]

    def test_full_sample_is_identity(self):
        train = self._train(20)
        assert subsample(train, 20, seed=0) == train

    def test_empty_sample(self):
        assert subsample(self._train(10), 0, seed=0) == []

    def test_deterministic_per_seed(self):
        train = self._train(100)
        assert subsample(train, 10, seed=5) == subsample(train, 10, seed=5)
        assert subsample(train, 10, seed=5) != subsample(train, 10, seed=6)

    def test_order_preserved(self):
        train = self._train(100)
        sample = subsample(train, 30, seed=1)
        indices = [train.index(s) for s in sample]
        assert indices == sorted(indices)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            subsample(self._train(5), 6, seed=0)


class TestBuildJoint:
    def test_plain_concatenation(self):
        source = [make_labeled("a", ["O"])]
        target = [make_labeled("b", ["O"])]
        assert build_joint(source, target, JointConfig(1)) == source + target

    def test_upsample_arithmetic(self):
        source = [make_labeled(f"s{i}", ["O"]) for i in range(149)]
        target = [make_labeled(f"t{i}", ["O"]) for i in range(3)]
        joint = build_joint(source, target, JointConfig(100))
        assert len(joint) == 149 + 100 * 3

    def test_empty_target(self):
        source = [make_labeled("a", ["O"])]
        assert build_joint(source, [], JointConfig()) == source

    def test_every_sentence_from_source_or_target(self):
        source = [make_labeled("a", ["O"])]
        target = [make_labeled("b", ["O"])]
        joint = build_joint(source, target, JointConfig(3))
        assert all(s in source or s in target for s in joint)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            JointConfig(0)
