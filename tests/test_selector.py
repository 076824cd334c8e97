import pytest

from conftest import make_sentence
from xner.corpus import Document
from xner.errors import DataError
from xner.gazetteer import Gazetteer
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
    return Gazetteer(
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
        {"min_mentions": 0}, {"min_specialized": 0}, {"task_upsample": 0},
    ])
    def test_rejects_below_one(self, kwargs):
        with pytest.raises(ValueError):
            SelectorConfig(**kwargs)


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
        assert mentions[("d", 0)][0].source == "external"

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

    def test_empty_specialized_types_is_error(self):
        # Checked once, by select_documents, before any document is read.
        g = Gazetteer({("Nirvana",): {"band"}})
        for level in ("task", "integrated"):
            with pytest.raises(ValueError, match="specialized"):
                select_documents(iter(()), level, g)


class TestBuildIntegrated:
    """The integrated level of select_documents: entity groups, then task
    groups cfg.task_upsample times."""

    @staticmethod
    def _integrated(entity_lengths, task_lengths, cfg=SelectorConfig()):
        # One sentence per document, of the given token lengths: two "E"
        # mentions make it entity-level only, one "T" makes it task-level only.
        g = Gazetteer({("E",): {"plain"}, ("T",): {"special"}})
        docs = [
            Document(f"e{i}", "", (" ".join(["E", "E"] + ["w"] * (n - 2)),))
            for i, n in enumerate(entity_lengths)
        ] + [
            Document(f"t{i}", "", (" ".join(["T"] + ["w"] * (n - 1)),))
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
        with pytest.raises(ValueError):
            list(sample_fraction(self._corpus(10), 101, seed=0))
        with pytest.raises(ValueError):
            list(sample_fraction(self._corpus(10), -1, seed=0))
