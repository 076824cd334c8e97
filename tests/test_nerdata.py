import io
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import ref_nerdata
from conftest import assert_rejected, make_labeled, random_bio_tags
from ref_conlleval import is_chunk_end, is_chunk_start, split_tag
from ref_nerdata import build_joint, extract_entities, serialize_conll
from xner import nerdata
from xner.cli import run
from xner.errors import DataError
from xner.gazetteer import mentions_to_bio
from xner.nerdata import (
    dataset_stats,
    entity_spans,
    iter_conll,
    parse_conll,
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
        assert sentences[0].tokens == ("Mars",)
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

    def test_conll2003_docstart_skipped_and_ends_sentence(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text(
            "-DOCSTART- -X- -X- O\n\nEU NNP B-NP B-ORG\n"
            "-DOCSTART- -X- -X- O\nrejects VBZ B-VP O\n\n"
        )
        assert [s.tokens for s in parse_conll(path)] == [("EU",), ("rejects",)]

    def test_four_columns_read_first_and_last(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text(
            "EU NNP B-NP B-ORG\nrejects VBZ B-VP O\nGerman JJ B-NP B-MISC\n\n"
            "Peter\tNNP\tB-NP\tB-PER\nBlackburn\tNNP\tI-NP\tI-PER\n"
        )
        first, second = parse_conll(path)
        assert first.tokens == ("EU", "rejects", "German")
        assert first.tags == ("B-ORG", "O", "B-MISC")
        assert second.tokens == ("Peter", "Blackburn")
        assert second.tags == ("B-PER", "I-PER")

    def test_one_field_line_reported(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("a O\nlonely\n")
        for strict in (True, False):
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
                list(iter_conll(path, strict))

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


class TestIterConllLenient:
    def test_accepts_well_formed_tags_that_break_bio(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("\n\nEU I-ORG\nrejects O\nit I-ORG\nnow B-MISC\nhere I-ORG\n")
        [s] = iter_conll(path, strict=False)
        assert s.where == f"{path}:3"
        assert s.tokens == ("EU", "rejects", "it", "now", "here")
        assert s.tags == ("I-ORG", "O", "I-ORG", "B-MISC", "I-ORG")

    @pytest.mark.parametrize("tag", ["B-", "I-", "X-ORG", "ORG", "BORG", "o"])
    def test_malformed_tag_reports_line(self, tmp_path, tag):
        path = tmp_path / "f.conll"
        path.write_text(f"a O\n\nb B-x\nc {tag}\n\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: malformed tag"):
            list(iter_conll(path, strict=False))


class TestIterConllLines:
    def test_lines_are_the_token_lines_as_read(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text(
            "-DOCSTART- -X- -X- O\n\n"
            "EU\tNNP\tB-NP\tB-ORG\nrejects  VBZ B-VP O \n"
            " \t\n\n"
            "German JJ B-NP B-MISC\n-DOCSTART-\nlamb O"
        )
        first, second, third = iter_conll(path)
        assert first.lines == "EU\tNNP\tB-NP\tB-ORG\nrejects  VBZ B-VP O \n"
        assert (first.tokens, first.tags) == (("EU", "rejects"), ("B-ORG", "O"))
        assert second.lines == "German JJ B-NP B-MISC\n"
        # The file's last line has no newline; its sentence's lines end in one.
        assert (third.where, third.lines) == (f"{path}:9", "lamb O\n")

    def test_lenient_read_keeps_lines(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("a\tI-x\nb O\n")
        [s] = iter_conll(path, strict=False)
        assert s.lines == "a\tI-x\nb O\n"

    @pytest.mark.parametrize("strict", [True, False])
    def test_byte_order_mark_is_not_text(self, tmp_path, strict):
        path = tmp_path / "f.conll"
        path.write_bytes("\ufeffNirvana B-band\nplayed O\n".encode())
        [s] = iter_conll(path, strict)
        assert (s.where, s.tokens, s.tags) == (f"{path}:1", ("Nirvana", "played"), ("B-band", "O"))
        assert s.lines == "Nirvana B-band\nplayed O\n"


class TestExtractEntities:
    def test_all_outside(self):
        s = make_labeled("a b c", ["O", "O", "O"])
        assert extract_entities(s) == []

    def test_single_mention(self):
        s = make_labeled("Brand Nubian etc", ["B-band", "I-band", "O"])
        [m] = extract_entities(s)
        assert (m.start, m.end, m.entity_type) == (0, 2, "band")

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


def _conlleval_spans(tags):
    """Chunks found by the reference conlleval start and end predicates."""
    spans = []
    start = None
    previous = "O"
    for i, tag in enumerate([*tags, "O"]):
        if start is not None and is_chunk_end(previous, tag):
            spans.append((start, i, chunk_type))
            start = None
        if is_chunk_start(previous, tag):
            start, chunk_type = i, split_tag(tag)[1]
        previous = tag
    return spans


class TestEntitySpans:
    """entity_spans against the reference extract_entities on valid BIO,
    and against the reference conlleval chunking on any well-formed tags."""

    def test_matches_reference_on_valid_bio(self, rng):
        for _ in range(2000):
            tags = random_bio_tags(rng, rng.randint(0, 15), ["a", "b", "c"])
            spans = [(s, e, t) for (s, e), t in entity_spans(tags).items()]
            assert spans == _oracle_spans(tags)

    @given(st.lists(st.sampled_from(["O", "B-a", "B-b", "I-a", "I-b"]), max_size=20))
    def test_matches_reference_on_any_tags(self, tags):
        spans = [(s, e, t) for (s, e), t in entity_spans(tags).items()]
        assert spans == _conlleval_spans(tags)

    def test_i_after_o_and_type_change(self):
        tags = ["O", "I-a", "B-a", "I-b", "O", "B-b"]
        expected = {(1, 2): "a", (2, 3): "a", (3, 4): "b", (5, 6): "b"}
        assert entity_spans(tags) == expected
        assert _conlleval_spans(tags) == [(s, e, t) for (s, e), t in expected.items()]


class TestParseConllInterning:
    def test_gold_and_pred_share_strings(self, tmp_path):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("Kurt B-person\nCobain I-person\nsang O\n")
        pred.write_text("Kurt B-band\nCobain I-band\nsang O\n")
        [g], [p] = parse_conll(gold), parse_conll(pred)
        assert all(a is b for a, b in zip(g.tokens, p.tokens))
        assert g.tags[2] is p.tags[2]

    def test_equal_tag_sequences_share_one_tuple(self, tmp_path):
        gold = tmp_path / "gold.conll"
        gold.write_text(
            "Kurt B-person\nsang O\n\nNirvana B-band\nplayed O\n\nBjork B-person\nsang O\n"
        )
        first, second, third = parse_conll(gold)
        assert first.tags == ("B-person", "O")
        assert first.tags is third.tags
        assert second.tags == ("B-band", "O")

    @pytest.mark.parametrize("strict", [True, False])
    def test_reader_interns_across_sentences_and_files(self, tmp_path, strict):
        one = tmp_path / "one.conll"
        two = tmp_path / "two.conll"
        one.write_text("Kurt B-person\nCobain I-person\nsang O\n\nCobain B-person\nwrote O\n")
        two.write_text("Cobain\tB-person\nsang\tO\n")
        (a, b), (c,) = list(iter_conll(one, strict)), list(iter_conll(two, strict))
        if strict:
            assert a.tokens[1] is b.tokens[0] is c.tokens[0]
            assert a.tokens[2] is c.tokens[1]
            assert a.tags[0] is b.tags[0] is c.tags[0]
            assert a.tags[1] is sys.intern("".join(["I-", "person"]))
        else:
            # The lenient read's sentences are scored and dropped, so it
            # does not intern; its strings are equal, not shared.
            assert a.tokens[1] == b.tokens[0] == c.tokens[0] == "Cobain"
            assert a.tokens[2] == c.tokens[1] == "sang"
            assert a.tags[0] == b.tags[0] == c.tags[0] == "B-person"
            assert a.tags[1] == "I-person"

    def test_parse_conll_keeps_the_readers_tuples(self, tmp_path, monkeypatch):
        read = []

        def recording_iter_conll(*args, **kwargs):
            for s in iter_conll(*args, **kwargs):
                read.append(s)
                yield s

        monkeypatch.setattr(nerdata, "iter_conll", recording_iter_conll)
        gold = tmp_path / "gold.conll"
        gold.write_text(
            "Kurt B-person\nsang O\n\nNirvana B-band\nplayed O\n\nBjork B-person\nsang O\n"
        )
        sentences = parse_conll(gold)
        assert len(read) == len(sentences) == 3
        for r, s in zip(read, sentences):
            assert s.tokens is r.tokens
        assert sentences[0].tags is read[0].tags
        assert sentences[1].tags is read[1].tags
        assert sentences[2].tags is read[0].tags


class TestLabeledSentence:
    def test_tag_count_must_match(self):
        with pytest.raises(ValueError):
            make_labeled("a b", ["O"])

    def test_invalid_bio_rejected(self):
        with pytest.raises(ValueError):
            make_labeled("a b", ["O", "I-x"])

    def test_immutable(self):
        sentence = make_labeled("x", ["O"])
        with pytest.raises(AttributeError):
            sentence.tokens = ("y",)
        with pytest.raises(TypeError):
            sentence.tokens[0] = "y"


class TestDatasetStats:
    def test_empty_split(self):
        assert dataset_stats([]) == {"sentences": 0, "entities": {}}

    def test_hand_arithmetic(self):
        sentences = [
            make_labeled("Nirvana played Help", ["B-band", "O", "B-song"]),
            make_labeled("Yesterday charted", ["B-song", "O"]),
        ]
        assert dataset_stats(sentences) == {
            "sentences": 2,
            "entities": {
                "band": {"count": 1, "percent": 33.33},
                "song": {"count": 2, "percent": 66.67},
            },
        }

    def test_percentages_sum_to_hundred(self, rng):
        sentences = []
        for _ in range(40):
            length = rng.randint(1, 10)
            tags = random_bio_tags(rng, length, ["x", "y", "z"])
            sentences.append(make_labeled(" ".join("w" for _ in range(length)), tags))
        entities = dataset_stats(sentences)["entities"]
        if entities:
            assert abs(sum(e["percent"] for e in entities.values()) - 100) < 0.1

    def test_one_shot_iterator(self):
        sentences = [make_labeled("a b", ["B-x", "O"]), make_labeled("c", ["B-y"])]
        stats = dataset_stats(iter(sentences))
        assert stats == dataset_stats(sentences)
        assert stats["sentences"] == 2

    def test_invariant_under_permutation(self):
        sentences = [
            make_labeled("a", ["B-x"]),
            make_labeled("b c", ["B-y", "I-y"]),
            make_labeled("d", ["O"]),
        ]
        assert dataset_stats(sentences) == dataset_stats(sentences[::-1])


class TestSubsample:
    """xner subsample keeps the --n sentences with the smallest
    (stable_hash(seed, "", i), i), i being a sentence's ordinal."""

    @staticmethod
    def _subsample(tmp_path, count, n, seed):
        """Exit code and the ordinals written, for --n n of count sentences."""
        train, out = tmp_path / "train.conll", tmp_path / "few.conll"
        train.write_text("".join(f"w{i} O\n\n" for i in range(count)))
        code = run([
            "subsample", "--input", str(train), "--n", str(n), "--seed", str(seed),
            "--output", str(out),
        ])
        if code:
            return code, None
        return code, [int(line[1:].split()[0]) for line in out.read_text().split("\n\n")[:-1]]

    def test_full_sample_is_identity(self, tmp_path):
        assert self._subsample(tmp_path, 20, 20, 0) == (0, list(range(20)))

    def test_empty_sample(self, tmp_path, capsys):
        assert self._subsample(tmp_path, 10, 0, 0) == (0, [])
        assert '"from": 10' in capsys.readouterr().out  # every sentence is still read

    def test_deterministic_per_seed(self, tmp_path):
        _, five = self._subsample(tmp_path, 100, 10, 5)
        assert self._subsample(tmp_path, 100, 10, 5) == (0, five)
        assert self._subsample(tmp_path, 100, 10, 6) != (0, five)
        for n in (1, 10, 99):
            assert self._subsample(tmp_path, 100, n, 5) == (
                0, ref_nerdata.subsample(range(100), n, 5)
            )

    def test_order_preserved(self, tmp_path):
        _, ordinals = self._subsample(tmp_path, 100, 30, 1)
        assert len(ordinals) == 30
        assert ordinals == sorted(ordinals)

    def test_oversized_sample_rejected(self, tmp_path):
        assert self._subsample(tmp_path, 5, 6, 0) == (1, None)
        assert not (tmp_path / "few.conll").exists()


class TestBuildJoint:
    def test_plain_concatenation(self):
        source = [make_labeled("a", ["O"])]
        target = [make_labeled("b", ["O"])]
        assert build_joint(source, target, 1) == source + target

    def test_upsample_arithmetic(self):
        source = [make_labeled(f"s{i}", ["O"]) for i in range(149)]
        target = [make_labeled(f"t{i}", ["O"]) for i in range(3)]
        joint = build_joint(source, target, 100)
        assert len(joint) == 149 + 100 * 3

    def test_empty_target(self):
        source = [make_labeled("a", ["O"])]
        assert build_joint(source, []) == source

    def test_every_sentence_from_source_or_target(self):
        source = [make_labeled("a", ["O"])]
        target = [make_labeled("b", ["O"])]
        joint = build_joint(source, target, 3)
        assert all(s in source or s in target for s in joint)

    def test_multiplier_validation(self):
        # The parser checks --multiplier, so joint opens no file.
        assert_rejected("joint", "--multiplier", "0")
