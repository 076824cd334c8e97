import pytest
from hypothesis import given, settings, strategies as st

import ref_selector
from conftest import assert_rejected, make_sentence, make_trie
from xner.cli import run
from xner.corpus import Document
from xner.errors import DataError
from xner.gazetteer import EntityMention
from xner.pipelines import select_documents
from xner.seeding import unit_interval
from xner.selector import (
    SelectorConfig,
    load_external_mentions,
    sample_fraction,
    select_entity_level,
    select_task_level,
)


def gazetteer():
    return make_trie(
        {
            ("Nirvana",): {"band"},
            ("Nevermind",): {"album"},
            ("Seattle",): {"location"},
            ("Kurt", "Cobain"): {"person"},
        },
    )


SPECIALIZED = frozenset({"band", "album"})


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig()
        assert (cfg.min_mentions, cfg.min_specialized, cfg.task_upsample) == (2, 1, 2)

    @pytest.mark.parametrize("kwargs", [
        {"--min-mentions": "0"}, {"--min-specialized": "0"}, {"--upsample": "0"},
    ])
    def test_rejects_below_one(self, kwargs):
        # A plain named tuple: the parser checks the flag of each field.
        ((flag, value),) = kwargs.items()
        assert_rejected("extract", flag, value)


class TestEntityLevel:
    def test_zero_mentions_excluded(self):
        out = list(select_entity_level([make_sentence("nothing here")], gazetteer()))
        assert out == []

    def test_threshold_boundary_included(self):
        s = make_sentence("Nirvana recorded Nevermind")
        assert list(select_entity_level([s], gazetteer())) == [s]

    def test_hand_counted_fixture(self):
        sentences = [
            make_sentence("plain words only", index=0),
            make_sentence("Nirvana played", index=1),
            make_sentence("Nirvana recorded Nevermind", index=2),
            make_sentence("Nirvana recorded Nevermind in Seattle", index=3),
            make_sentence("Seattle is rainy", index=4),
        ]
        out = list(select_entity_level(sentences, gazetteer()))
        assert [s.index for s in out] == [2, 3]

    def test_output_is_ordered_subset(self):
        sentences = [make_sentence("Nirvana recorded Nevermind", index=i) for i in range(5)]
        out = list(select_entity_level(sentences, gazetteer()))
        assert out == sentences

    def test_external_mentions(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}\n'
            '{"doc_id": "d", "sentence_index": 0, "start": 2, "end": 3, "type": "album"}\n'
        )
        mentions = load_external_mentions(path)
        s = make_sentence("anything at all")
        out = list(select_entity_level([s], None, mentions=mentions))
        assert out == [s]

    def test_external_mentions_bad_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d"}\n')
        with pytest.raises(DataError, match=":1:"):
            load_external_mentions(path)

    @pytest.mark.parametrize("value", ["1e999", "-Infinity", "NaN"])
    def test_external_mentions_non_finite_offset(self, tmp_path, value):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}\n'
            f'{{"doc_id": "d", "sentence_index": 0, "start": {value}, "end": 2, "type": "x"}}\n'
        )
        with pytest.raises(DataError, match=":2: bad mention record"):
            load_external_mentions(path)

    @pytest.mark.parametrize("start, end", [(1, 1), (2, 1), (-1, 1)])
    def test_external_mentions_bad_span(self, tmp_path, start, end):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}\n'
            f'{{"doc_id": "d", "sentence_index": 0, "start": {start}, "end": {end}, "type": "x"}}\n'
        )
        with pytest.raises(DataError, match=r":2: bad mention record: bad span"):
            load_external_mentions(path)

    @pytest.mark.parametrize("fields, message", [
        ('"doc_id": "d", "sentence_index": 0.9, "start": 0.7, "end": 1.5, "type": "x"',
         "sentence_index must be an integer, got 0.9"),
        ('"doc_id": "d", "sentence_index": 0, "start": true, "end": 2, "type": "x"',
         "start must be an integer, got True"),
        ('"doc_id": "d", "sentence_index": 0, "start": false, "end": true, "type": "x"',
         "start must be an integer, got False"),
        ('"doc_id": "d", "sentence_index": false, "start": 0, "end": 1, "type": "x"',
         "sentence_index must be an integer, got False"),
        ('"doc_id": "d", "sentence_index": 0, "start": 0, "end": "1", "type": "x"',
         "end must be an integer, got '1'"),
        ('"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "two words"',
         "type must be one word, got 'two words'"),
        ('"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": " x"',
         "type must be one word, got ' x'"),
        ('"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": ""',
         "type must be one word, got ''"),
        ('"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": 5',
         "type must be a string, got 5"),
        ('"doc_id": 5, "sentence_index": 0, "start": 0, "end": 1, "type": "x"',
         "doc_id must be a string, got 5"),
    ], ids=[
        "fractional", "true-start", "bool-offsets", "bool-index", "string-end",
        "two-word-type", "padded-type", "empty-type", "int-type", "int-doc-id",
    ])
    def test_external_mention_fields_are_checked_not_coerced(self, tmp_path, fields, message):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}\n'
            f"{{{fields}}}\n"
        )
        with pytest.raises(DataError) as info:
            load_external_mentions(path)
        assert str(info.value) == f"{path}:2: bad mention record: {message}"

    @pytest.mark.parametrize("record, message", [
        ("[1, 2]", "expected a JSON object"),
        ('"x"', "expected a JSON object"),
        ("null", "expected a JSON object"),
        ("[" * 10**5 + "]" * 10**5, "maximum recursion depth exceeded"),
    ], ids=["array", "string", "null", "deeply-nested"])
    def test_external_mention_record_must_be_an_object(self, tmp_path, record, message):
        path = tmp_path / "m.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(DataError, match=f":1: bad mention record: {message}"):
            load_external_mentions(path)

    def test_repeated_external_mention_counts_once(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 1, "type": "band"}\n'
        path.write_text(record * 2)
        mentions = load_external_mentions(path)
        s = make_sentence("Nirvana played Seattle .")
        assert list(select_entity_level([s], None, mentions=mentions)) == []
        cfg = SelectorConfig(min_mentions=1)
        assert list(select_entity_level([s], None, cfg, mentions=mentions)) == [s]

    def test_external_mention_past_sentence_end_names_its_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "d", "sentence_index": 0, "start": 0, "end": 4, "type": "band"}\n'
            '{"doc_id": "d", "sentence_index": 0, "start": 50, "end": 99, "type": "band"}\n'
        )
        mentions = load_external_mentions(path)
        s = make_sentence("Nirvana played Seattle .")
        with pytest.raises(DataError) as info:
            list(select_entity_level([s], None, mentions=mentions))
        assert str(info.value) == (
            f"{path}:2: bad mention record: span [50, 99) is past the end of a "
            "4-token sentence"
        )
        with pytest.raises(DataError, match=":2: bad mention record: span"):
            list(select_task_level([s], None, {"band"}, mentions=mentions))


class TestTaskLevel:
    def test_non_specialized_mentions_excluded(self):
        s = make_sentence("Kurt Cobain lived in Seattle")
        out = list(select_task_level([s], gazetteer(), SPECIALIZED))
        assert out == []

    def test_one_specialized_mention_included(self):
        s = make_sentence("Nirvana played")
        assert list(select_task_level([s], gazetteer(), SPECIALIZED)) == [s]

    def test_task_level_not_nested_in_entity_level(self):
        # one specialized mention: passes task-level, fails entity-level
        s = make_sentence("Nirvana played")
        assert list(select_task_level([s], gazetteer(), SPECIALIZED)) == [s]
        assert list(select_entity_level([s], gazetteer())) == []

    def test_empty_specialized_types_is_error(self, capsys, tmp_path):
        # Checked once, by the extract command, before any document is read.
        (tmp_path / "g.tsv").write_text("Nirvana\tband\n")
        (tmp_path / "s.txt").write_text("\n")
        for level in ("task", "integrated"):
            assert run([
                "extract", "--level", level, "--input", str(tmp_path / "missing"),
                "--gazetteer", str(tmp_path / "g.tsv"), "--specialized", str(tmp_path / "s.txt"),
                "--output", str(tmp_path / "out"),
            ]) == 1
            assert "non-empty --specialized" in capsys.readouterr().err


class TestBuildIntegrated:
    """The integrated level of select_documents: entity groups, then task
    groups cfg.task_upsample times."""

    @staticmethod
    def _integrated(entity_lengths, task_lengths, cfg=SelectorConfig()):
        # One sentence per document, of the given token lengths: two "E"
        # mentions make it entity-level only, one "T" makes it task-level only.
        g = make_trie({("E",): {"plain"}, ("T",): {"special"}})
        docs = [
            Document(f"e{i}", (" ".join(["E", "E"] + ["w"] * (n - 2)),))
            for i, n in enumerate(entity_lengths)
        ] + [
            Document(f"t{i}", (" ".join(["T"] + ["w"] * (n - 1)),))
            for i, n in enumerate(task_lengths)
        ]
        return [
            line
            for group in select_documents(
                docs, "integrated", g, cfg, specialized_types={"special"}
            )
            for line in group
        ]

    def test_token_identity(self):
        out = self._integrated([10] * 10, [10] * 3)
        assert len(out) == 16
        assert sum(len(line.split()) for line in out) == 160

    def test_empty_task(self):
        out = self._integrated([2] * 4, [])
        assert out == ["E E"] * 4

    def test_upsample_factor(self):
        out = self._integrated([], [1], SelectorConfig(task_upsample=5))
        assert out == ["T"] * 5

    def test_identity_on_random_corpora(self, rng):
        for _ in range(50):
            entity = [rng.randint(2, 20) for _ in range(rng.randint(0, 30))]
            task = [rng.randint(1, 20) for _ in range(rng.randint(0, 10))]
            upsample = rng.randint(1, 4)
            out = self._integrated(entity, task, SelectorConfig(task_upsample=upsample))
            assert sum(len(line.split()) for line in out) == (
                sum(entity) + upsample * sum(task)
            )


class TestSampleFraction:
    def _corpus(self, n=10_000):
        return [make_sentence("a b c", doc_id=f"d{i % 100}", index=i) for i in range(n)]

    def test_hundred_percent_is_identity(self):
        corpus = self._corpus(100)
        assert list(sample_fraction(corpus, 100, seed=1)) == corpus

    def test_zero_percent_is_empty(self):
        assert list(sample_fraction(self._corpus(100), 0, seed=1)) == []

    def test_kept_fraction_within_binomial_bound(self):
        corpus = self._corpus(10_000)
        kept = list(sample_fraction(corpus, 50, seed=42))
        # bound verified against the hash decision itself
        expected = sum(
            1 for s in corpus if unit_interval(42, s.doc_id, s.index) * 100 < 50
        )
        assert len(kept) == expected
        assert 0.47 <= len(kept) / len(corpus) <= 0.53

    def test_deterministic_and_shard_independent(self):
        corpus = self._corpus(1000)
        once = [s.index for s in sample_fraction(corpus, 30, seed=7)]
        again = [s.index for s in sample_fraction(corpus, 30, seed=7)]
        assert once == again
        # same decisions regardless of how the stream is sharded
        halves = list(sample_fraction(corpus[:500], 30, seed=7)) + list(
            sample_fraction(corpus[500:], 30, seed=7)
        )
        assert [s.index for s in halves] == once

    def test_different_seeds_differ(self):
        corpus = self._corpus(1000)
        a = [s.index for s in sample_fraction(corpus, 50, seed=1)]
        b = [s.index for s in sample_fraction(corpus, 50, seed=2)]
        assert a != b

    def test_out_of_range_percent(self):
        # sample_fraction trusts percent: the parser checks --percent.
        for percent in ("101", "-1", "nan"):
            assert_rejected("extract", "--percent", percent)


_WORDS = ["Nirvana", "Kid", "A", "Seattle", "Kurt", "Cobain", "w"]
_TYPES = ["band", "album", "location", "person", "musicalartist"]


@st.composite
def _selection_inputs(draw):
    """Documents of random sentences (a token ending in "." ends one), and
    either a random trie or a random external mention index over them."""
    words = st.sampled_from(_WORDS + ["w."])
    sentence = st.lists(words, min_size=3, max_size=8).map(" ".join)
    documents = [
        Document(f"d{i}", tuple(paragraphs))
        for i, paragraphs in enumerate(draw(st.lists(
            st.lists(sentence, min_size=1, max_size=3), min_size=1, max_size=4
        )))
    ]
    if draw(st.booleans()):
        surfaces = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(tuple)
        entries = draw(st.dictionaries(
            surfaces, st.frozensets(st.sampled_from(_TYPES), min_size=1), max_size=6
        ))
        gazetteer, mentions = make_trie(entries, {"musicalartist": "person"}), None
    else:
        # Some spans run past a short sentence's end.
        mention = st.builds(
            lambda start, length, entity_type: EntityMention(start, start + length, entity_type),
            st.integers(0, 2), st.integers(1, 2), st.sampled_from(_TYPES),
        )
        keys = st.tuples(st.sampled_from([d.id for d in documents]), st.integers(0, 3))
        index = draw(st.dictionaries(keys, st.lists(mention, max_size=4), max_size=8))
        gazetteer = None
        mentions = {
            key: {m: f"m.jsonl:{line}" for line, m in enumerate(found, 1)}
            for key, found in index.items()
        }
    cfg = SelectorConfig(
        draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    )
    specialized = draw(st.frozensets(st.sampled_from(_TYPES)))
    percent = draw(st.one_of(st.none(), st.floats(0, 100)))
    return documents, gazetteer, mentions, cfg, specialized, percent, draw(st.integers(0, 9))


def _groups_or_error(select):
    try:
        return [list(group) for group in select()]
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("level", ["entity", "task", "integrated"])
@settings(max_examples=150, deadline=None)
@given(inputs=_selection_inputs())
def test_select_documents_matches_two_pass_oracle(level, inputs):
    documents, gazetteer, mentions, cfg, specialized, percent, seed = inputs
    kwargs = dict(
        mentions=mentions, specialized_types=specialized, percent=percent, seed=seed
    )
    assert _groups_or_error(
        lambda: select_documents(documents, level, gazetteer, cfg, **kwargs)
    ) == _groups_or_error(
        lambda: ref_selector.select_groups(documents, level, gazetteer, cfg, **kwargs)
    )
