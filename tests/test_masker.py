import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ref_masker
from conftest import FixedRoll, assert_rejected, make_sentence, reference_ranking
from xner.corpus import Sentence
from xner.seeding import stable_hash
from xner.masker import (
    MASK_SYMBOL,
    MASK_TOKEN_PROB,
    RANDOM_TOKEN_PROB,
    MaskedExample,
    MaskingConfig,
    MaskTarget,
    apply_replacements,
    build_vocabulary,
    mask_budget,
    mask_corpus,
    select_mask_indices,
    spanify,
)


def runs_of(indices):
    """Maximal consecutive runs as inclusive (lo, hi) pairs."""
    runs = []
    for i in sorted(indices):
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def check_spanify_postconditions(before, after, length):
    """Exhaustive checker of the migration contract; independent of the
    implementation's bookkeeping."""
    before, after = set(before), set(after)
    assert len(after) == len(before), "mask count must be conserved"
    assert all(0 <= i < length for i in after)
    runs_before = runs_of(before)
    runs_after = runs_of(after)
    assert len(runs_after) <= len(runs_before), "run count must not grow"
    # untouched-run property: every input run of length >= 2 survives intact
    for lo, hi in runs_before:
        if hi > lo:
            assert all(i in after for i in range(lo, hi + 1))
    # moved isolated indices must now sit adjacent to another masked index
    if len(before) >= 2:
        for i in after - before:
            assert (i - 1 in after) or (i + 1 in after), f"moved index {i} not adjacent"
    # no isolated input index is moved when it is the only mask
    if len(before) == 1:
        assert after == before
    # run count is unchanged when there was nothing to merge
    isolated = [lo for lo, hi in runs_before if lo == hi]
    if not isolated or len(before) <= 1:
        assert after == before


class TestMaskBudget:
    @pytest.mark.parametrize("length,expected", [
        (20, 3),   # round(3.0)
        (12, 2),   # matches the two masks in the worked 12-token example
        (2, 1),    # floored at one target
        (10, 2),   # 1.5 rounds half-up
        (6, 1),    # 0.9 rounds to 1
    ])
    def test_budget_at_default_rate(self, length, expected):
        assert mask_budget(length, 0.15) == expected

    def test_select_counts(self):
        cfg = MaskingConfig()
        rng = random.Random(0)
        assert len(select_mask_indices(20, cfg, rng)) == 3
        assert len(select_mask_indices(12, cfg, rng)) == 2
        assert len(select_mask_indices(2, cfg, rng)) == 1

    def test_indices_within_range_and_uniform_coverage(self):
        cfg = MaskingConfig()
        seen = set()
        for seed in range(200):
            indices = select_mask_indices(10, cfg, random.Random(seed))
            assert all(0 <= i < 10 for i in indices)
            seen |= indices
        assert seen == set(range(10))


class TestMaskingConfig:
    """MaskingConfig is a plain named tuple; the parser checks its flags."""

    def test_probabilities_must_sum_to_one(self):
        # The split is fixed: [MASK], a random token, and the rest kept.
        assert (MASK_TOKEN_PROB, RANDOM_TOKEN_PROB) == (0.8, 0.1)
        assert 1 - MASK_TOKEN_PROB - RANDOM_TOKEN_PROB == pytest.approx(0.1)

    def test_rate_bounds(self):
        for rate in ("0", "1"):
            assert_rejected("mask", "--rate", rate)

    def test_unknown_strategy(self):
        assert_rejected("mask", "--strategy", "word")


# Non-empty, whitespace-free text with the characters a JSON encoder escapes
# or must pass through: quotes, backslashes, control characters, DEL,
# non-ASCII and non-BMP characters, and the mask symbol itself.
TEXT = st.one_of(
    st.just(MASK_SYMBOL),
    st.text(
        st.one_of(st.sampled_from('"\\\x00\x08\x1b\x7f\xe9\u2603\U0001f600'), st.characters()),
        min_size=1,
    ).filter(lambda t: t.split() == [t]),
)
KINDS = ("mask", "random", "keep")
# A FixedRoll's roll (mask, random, keep), or None for a real random.Random.
ROLLS = st.sampled_from([None, 0.0, 0.85, 0.95])


class TestSpanify:
    def test_worked_example(self):
        # "Western music 's effect would [MASK] to grow within the country
        # [MASK] sphere" -> "... the [MASK] [MASK] sphere"
        assert spanify({4, 10}) == {9, 10}

    def test_trivial_cases(self):
        assert spanify(set()) == set()
        assert spanify({5}) == {5}
        assert spanify({3, 4}) == {3, 4}

    def test_one_pass_hand_trace(self):
        assert spanify({1, 6, 11}) == {5, 6, 7}

    def test_boundary_fallback(self):
        # partner run at the left edge: facing side of {0,1} from 3 is 2
        assert spanify({0, 1, 3}) == {0, 1, 2}
        # single isolated index attaches on the side facing it
        assert spanify({0, 2, 3}) == {1, 2, 3}
        # right edge: 7 must join {4,5} from the right-facing side
        assert spanify({4, 5, 7}) == {4, 5, 6}

    def test_exhaustive_small_instances(self):
        # every mask set over sentences of length <= 10
        for length in range(1, 11):
            for r in range(0, length + 1):
                for combo in itertools.combinations(range(length), r):
                    before = set(combo)
                    after = spanify(before)
                    check_spanify_postconditions(before, after, length)

    @given(st.data())
    @settings(max_examples=300)
    def test_random_large_instances(self, data):
        length = data.draw(st.integers(2, 64))
        before = data.draw(st.sets(st.integers(0, length - 1)))
        after = spanify(before)
        check_spanify_postconditions(before, after, length)

    @given(st.data())
    @settings(max_examples=1000)
    def test_matches_reference(self, data):
        # select_mask_indices draws only indices inside the sentence.
        length = data.draw(st.integers(1, 64))
        before = data.draw(st.sets(st.integers(0, length - 1)))
        assert spanify(before) == ref_masker.spanify(before, length)

    def test_matches_reference_on_every_index_set(self):
        # Every index set of every sentence of 1 to 12 tokens: 8,190 sets.
        for length in range(1, 13):
            for bits in range(1 << length):
                before = {i for i in range(length) if bits >> i & 1}
                assert spanify(before) == ref_masker.spanify(before, length)


class TestApplyReplacements:
    def _tokens(self, n):
        return [f"w{i}" for i in range(n)]

    def test_all_mask_probability(self):
        example = apply_replacements(self._tokens(6), {1, 3}, FixedRoll(0.0), ["v"])
        assert example.output_tokens[1] == "[MASK]"
        assert example.output_tokens[3] == "[MASK]"
        assert all(t.kind == "mask" for t in example.targets)

    def test_empty_indices(self):
        example = apply_replacements(self._tokens(4), set(), random.Random(0), ["v"])
        assert example.output_tokens == ("w0", "w1", "w2", "w3")
        assert example.targets == ()

    def test_keep_preserves_original(self):
        example = apply_replacements(self._tokens(4), {0, 2}, FixedRoll(0.95), ["v"])
        assert example.output_tokens == ("w0", "w1", "w2", "w3")
        assert all(t.kind == "keep" for t in example.targets)

    def test_random_draws_from_vocabulary(self):
        example = apply_replacements(self._tokens(4), {1}, FixedRoll(0.85), ["only"])
        assert example.output_tokens[1] == "only"
        assert example.targets[0].kind == "random"

    def test_empty_vocabulary_rejected(self):
        # The first random replacement fails; the CLI's vocabulary is never empty.
        with pytest.raises(ValueError):
            apply_replacements(self._tokens(4), {1}, FixedRoll(0.85), [])

    def test_targets_record_original_text(self):
        example = apply_replacements(self._tokens(5), {2}, FixedRoll(0.0), ["v"])
        assert example.targets == (MaskTarget(2, "w2", "mask"),)

    @given(st.data())
    @settings(max_examples=500)
    def test_matches_reference(self, data):
        tokens = data.draw(st.lists(TEXT, min_size=1, max_size=20))
        # select_mask_indices and spanify give only positions inside the sentence.
        indices = data.draw(st.sets(st.integers(0, len(tokens) - 1)))
        roll = data.draw(ROLLS)
        vocabulary = data.draw(st.lists(TEXT, max_size=3))
        seed = data.draw(st.integers(0, 2**32))
        rng, ref_rng = (
            random.Random(seed) if roll is None else FixedRoll(roll, seed) for _ in range(2)
        )
        try:
            expected = ref_masker.apply_replacements(
                tokens, indices, ref_rng, vocabulary, "doc", 7
            )
        except ValueError:
            with pytest.raises(ValueError):
                apply_replacements(tokens, indices, rng, vocabulary, "doc", 7)
        else:
            example = apply_replacements(tokens, indices, rng, vocabulary, "doc", 7)
            assert example == expected
            assert type(example) is MaskedExample
            assert rng.getstate() == ref_rng.getstate()

    def test_proportions_match_configuration(self):
        rng = random.Random(99)
        tokens = self._tokens(10)
        counts = {"mask": 0, "random": 0, "keep": 0}
        total = 0
        for _ in range(20_000):
            example = apply_replacements(tokens, {0, 4, 9}, rng, ["a", "b"])
            for target in example.targets:
                counts[target.kind] += 1
                total += 1
        assert total >= 50_000
        assert abs(counts["mask"] / total - 0.80) < 0.01
        assert abs(counts["random"] / total - 0.10) < 0.01
        assert abs(counts["keep"] / total - 0.10) < 0.01


class TestMaskCorpus:
    def _corpus(self, n=20, length=12, doc_id="d"):
        text = " ".join(f"w{i}" for i in range(length))
        return [make_sentence(text, doc_id=doc_id, index=i) for i in range(n)]

    def test_empty_corpus(self):
        assert list(mask_corpus([], MaskingConfig(), ["v"])) == []

    def test_short_sentences_skipped(self):
        corpus = [make_sentence("a b c"), make_sentence("a b c d e", index=1)]
        out = list(mask_corpus(corpus, MaskingConfig(min_sentence_len=5), ["v"]))
        assert len(out) == 1
        assert out[0].sentence_index == 1

    def test_budget_invariant(self):
        cfg = MaskingConfig()
        for example in mask_corpus(self._corpus(50, 17), cfg, ["v"]):
            assert len(example.targets) == mask_budget(17, cfg.mask_rate)

    def test_span_strategy_produces_contiguous_or_fewer_runs(self):
        token_cfg = MaskingConfig(seed=3, strategy="token")
        span_cfg = MaskingConfig(seed=3, strategy="span")
        corpus = self._corpus(200, 20)
        for t_example, s_example in zip(
            mask_corpus(corpus, token_cfg, ["v"]),
            mask_corpus(corpus, span_cfg, ["v"]),
        ):
            t_positions = {t.position for t in t_example.targets}
            s_positions = {t.position for t in s_example.targets}
            assert len(s_positions) == len(t_positions)
            assert len(runs_of(s_positions)) <= len(runs_of(t_positions))

    def test_deterministic_given_seed(self):
        cfg = MaskingConfig(seed=42, strategy="span")
        corpus = self._corpus(30)
        a = [e.to_json() for e in mask_corpus(corpus, cfg, ["x", "y"])]
        b = [e.to_json() for e in mask_corpus(corpus, cfg, ["x", "y"])]
        assert a == b

    def test_independent_of_stream_sharding(self):
        cfg = MaskingConfig(seed=7)
        corpus = self._corpus(40)
        whole = [e.to_json() for e in mask_corpus(corpus, cfg, ["v"])]
        parts = [e.to_json() for e in mask_corpus(corpus[:13], cfg, ["v"])]
        parts += [e.to_json() for e in mask_corpus(corpus[13:], cfg, ["v"])]
        assert whole == parts

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        # One reseeded Random gives the stream of a new Random per sentence.
        lengths = data.draw(st.lists(st.integers(1, 20), max_size=8))
        corpus = [
            Sentence(data.draw(st.sampled_from(["d", "é\"d", "d\U0001f600"])), index,
                     tuple(data.draw(st.lists(TEXT, min_size=n, max_size=n))))
            for index, n in enumerate(lengths)
        ]
        cfg = MaskingConfig(
            data.draw(st.floats(0.01, 0.99)),
            strategy=data.draw(st.sampled_from(["token", "span"])),
            seed=data.draw(st.integers(0, 2**64)),
            min_sentence_len=data.draw(st.integers(1, 8)),
        )
        vocabulary = data.draw(st.lists(TEXT, min_size=1, max_size=3))
        lines = [e.to_json() for e in mask_corpus(corpus, cfg, vocabulary)]
        expected = ref_masker.mask_corpus(corpus, cfg, vocabulary)
        assert lines == [ref_masker.to_json(e) for e in expected]

    def test_worked_example_span_migration(self):
        # force the masked positions {4, 10} through a seed search,
        # then check the span strategy lands the masks on {9, 10}
        sentence = make_sentence(
            "Western music's effect would continue to grow within the country 's sphere"
        )
        assert len(sentence.tokens) == 12
        cfg = None
        for seed in range(10_000):
            candidate = MaskingConfig(seed=seed, strategy="span")
            rng = random.Random(stable_hash(seed, sentence.doc_id, sentence.index))
            if select_mask_indices(12, candidate, rng) == {4, 10}:
                cfg = candidate
                break
        assert cfg is not None, "no seed produced the worked example's mask set"
        (example,) = mask_corpus([sentence], cfg, ["v"])
        positions = {t.position for t in example.targets}
        assert positions == {9, 10}
        # rendered with every roll a mask, to pin the surface form
        example = apply_replacements(sentence.tokens, positions, FixedRoll(0.0), ["v"])
        assert example.output_tokens == (
            "Western", "music's", "effect", "would", "continue", "to",
            "grow", "within", "the", "[MASK]", "[MASK]", "sphere",
        )


class TestMaskedExample:
    def test_record_round_trip_fields(self):
        example = MaskedExample(
            "d", 3, ("[MASK]", "b"),
            (MaskTarget(0, "a", "mask"),),
        )
        record = {
            "doc_id": "d",
            "sentence_index": 3,
            "tokens": ["[MASK]", "b"],
            "targets": [{"pos": 0, "orig": "a", "kind": "mask"}],
        }
        assert json.loads(example.to_json()) == record
        assert example.to_json() == (
            '{"doc_id": "d", "sentence_index": 3, "tokens": ["[MASK]", "b"], '
            '"targets": [{"pos": 0, "orig": "a", "kind": "mask"}]}'
        )

    @given(st.data())
    @settings(max_examples=500)
    def test_json_line_matches_json_dumps(self, data):
        tokens = data.draw(st.lists(TEXT, min_size=1, max_size=12))
        positions = data.draw(st.sets(st.integers(0, len(tokens) - 1)))
        targets = tuple(
            MaskTarget(p, data.draw(TEXT), data.draw(st.sampled_from(KINDS)))
            for p in sorted(positions)
        )
        example = MaskedExample(
            data.draw(TEXT), data.draw(st.integers(0, 10**12)), tuple(tokens), targets
        )
        assert example.to_json() == ref_masker.to_json(example)


class TestBuildVocabulary:
    def test_frequency_order_with_lexicographic_ties(self):
        vocab = build_vocabulary(["b", "a", "b", "c", "a", "b"], size=10)
        assert vocab == ["b", "a", "c"]

    def test_size_cap(self):
        vocab = build_vocabulary([f"w{i}" for i in range(100)], size=5)
        assert len(vocab) == 5

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "c", "ab", "B", "[MASK]"]), max_size=40),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_reference_ranking(self, tokens, size):
        # A six-token alphabet makes equal counts common; sizes run from
        # below to above the number of distinct tokens.
        assert build_vocabulary(tokens, size) == reference_ranking(tokens, size)

    def test_ranking_allocates_no_per_entry_objects(self):
        # 40K distinct tokens with counts 1 to 3, built before tracing
        # starts. Ranking may add the ranked list and the sort's key and
        # merge buffers to the Counter's own peak, but no per-token tuple:
        # ranking by a (-count, token) key costs over 100 bytes a token.
        distinct = 40_000
        tokens = [f"t{i:05d}" for i in range(distinct) for _ in range(1 + i % 3)]

        def traced_peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        counter_peak = traced_peak(lambda: Counter(tokens))
        vocabulary_peak = traced_peak(lambda: build_vocabulary(tokens))
        assert (vocabulary_peak - counter_peak) / distinct <= 48
