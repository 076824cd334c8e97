import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import make_sentence
from xner.errors import DataError
from xner.gazetteer import (
    EntityMention,
    Gazetteer,
    TypeHierarchy,
    find_mentions,
    load_gazetteer,
    pre_annotate,
    resolve_type,
)
from xner.nerdata import validate_bio


def oracle_leftmost_longest(texts, entries):
    """Brute-force leftmost-longest disjoint matcher: enumerate all
    (start, end) windows via direct dictionary lookups, then replay the
    greedy-left-longest policy. Shares no code with the trie scan."""
    matches = {}
    for start, end in itertools.combinations(range(len(texts) + 1), 2):
        surface = tuple(texts[start:end])
        if surface in entries:
            matches[(start, end)] = entries[surface]
    chosen = []
    i = 0
    while i < len(texts):
        at_i = [(e, t) for (s, e), t in matches.items() if s == i]
        if at_i:
            end, types = max(at_i)
            chosen.append((i, end, types))
            i = end
        else:
            i += 1
    return chosen


def is_entry(g, surface):
    match = g.longest_match(surface, 0)
    return match is not None and match[0] == len(surface)


class TestLoadGazetteer:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("")
        assert len(load_gazetteer(path)) == 0

    def test_single_entry(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("Mars\tastronomicalobject\n")
        g = load_gazetteer(path)
        assert len(g) == 1
        assert is_entry(g, ("Mars",))
        assert not is_entry(g, ("Mars", "Mars"))
        [m] = find_mentions(make_sentence("Mars rose"), g)
        assert m.entity_type == "astronomicalobject"

    def test_duplicate_surface_merges_types(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "Hugo Chávez\tpolitician\nHugo Chávez\tperson\nHugo Chávez\tpolitician\n"
        )
        g = load_gazetteer(path)
        assert len(g) == 1
        assert is_entry(g, ("Hugo", "Chávez"))
        # Without a hierarchy the lexicographically smallest type wins, and
        # only the merged set {politician, person} can resolve to person.
        [m] = find_mentions(make_sentence("Hugo Chávez spoke"), g)
        assert m.entity_type == "person"

    def test_surface_tokenized_with_corpus_rules(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("People's Party\tpoliticalparty\n")
        g = load_gazetteer(path)
        assert is_entry(g, ("People", "'s", "Party"))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("ok\ttype\nbad row no tab\n")
        with pytest.raises(DataError, match=":2:"):
            load_gazetteer(path)

    def test_empty_surface(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(" \ttype\n")
        with pytest.raises(DataError, match="empty surface"):
            load_gazetteer(path)

    def test_hierarchy_resolves_merged_rows(self, tmp_path):
        g_path = tmp_path / "g.tsv"
        g_path.write_text("Hugo Chávez\tperson\nAna\tperson\nHugo Chávez\tpolitician\n")
        h_path = tmp_path / "h.tsv"
        h_path.write_text("politician\tperson\n")
        g = load_gazetteer(g_path, hierarchy=TypeHierarchy.load(h_path))
        mentions = find_mentions(make_sentence("Ana met Hugo Chávez"), g)
        assert [m.entity_type for m in mentions] == ["person", "politician"]

    @pytest.mark.parametrize("surface, types, message", [
        ((), {"t"}, "empty gazetteer surface"),
        (("a", ""), {"t"}, "empty gazetteer surface"),
        (("a",), set(), "without types"),
    ])
    def test_invalid_entries_rejected(self, surface, types, message):
        for entries in ({surface: types}, [(("b",), {"t"}), (surface, types)]):
            with pytest.raises(ValueError, match=message):
                Gazetteer(entries)

    def test_mentions_carry_the_resolved_merged_type(self, tmp_path, rng):
        """Random rows with repeated surfaces, under random hierarchies: a
        mapping, an iterable of rows and the loader all give each mention
        resolve_type of its surface's merged type set."""
        tokens = ["Ab", "Cd", "Ef"]
        types = ["a", "b", "c", "d", "e"]
        path = tmp_path / "g.tsv"
        for _ in range(300):
            order = rng.sample(types, len(types))
            h = TypeHierarchy({
                t: rng.choice(order[:i])
                for i, t in enumerate(order) if i and rng.random() < 0.6
            })
            rows = [
                (tuple(rng.choices(tokens, k=rng.randint(1, 3))), rng.choice(types))
                for _ in range(rng.randint(1, 12))
            ]
            merged = {}
            for surface, t in rows:
                merged.setdefault(surface, set()).add(t)
            path.write_text("".join(f"{' '.join(s)}\t{t}\n" for s, t in rows))
            texts = rng.choices(tokens, k=rng.randint(1, 8))
            expected = [
                (start, end, resolve_type(merged_types, h))
                for start, end, merged_types in oracle_leftmost_longest(texts, merged)
            ]
            for g in (
                Gazetteer(merged, hierarchy=h),
                Gazetteer(((s, {t}) for s, t in rows), hierarchy=h),
                load_gazetteer(path, hierarchy=h),
            ):
                assert len(g) == len(merged)
                assert all(is_entry(g, surface) for surface in merged)
                mentions = find_mentions(make_sentence(" ".join(texts)), g)
                assert [(m.start, m.end, m.entity_type) for m in mentions] == expected


class TestResolveType:
    def test_singleton(self):
        assert resolve_type({"person"}, TypeHierarchy()) == "person"

    def test_politician_beats_person(self):
        h = TypeHierarchy({"politician": "person"})
        assert resolve_type({"person", "politician"}, h) == "politician"

    def test_band_beats_organization(self):
        h = TypeHierarchy({"band": "organization"})
        assert resolve_type({"organization", "band"}, h) == "band"

    def test_grandparent_chain(self):
        h = TypeHierarchy({"enzyme": "protein", "protein": "chemical compound"})
        assert resolve_type({"chemical compound", "protein", "enzyme"}, h) == "enzyme"

    def test_incomparable_tie_is_lexicographic(self):
        assert resolve_type({"song", "album"}, TypeHierarchy()) == "album"

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            resolve_type(set(), TypeHierarchy())

    @given(st.sets(st.sampled_from(
        ["person", "politician", "organization", "band", "location"]), min_size=1))
    def test_permutation_invariant_and_idempotent(self, candidates):
        h = TypeHierarchy({"politician": "person", "band": "organization"})
        resolved = resolve_type(candidates, h)
        assert resolved in candidates
        for perm in itertools.permutations(candidates):
            assert resolve_type(set(perm), h) == resolved
        assert resolve_type({resolved}, h) == resolved

    def test_matches_pairwise_oracle(self, rng):
        names = ["a", "b", "c", "d", "e", "f"]
        for _ in range(2000):
            order = rng.sample(names, len(names))
            h = TypeHierarchy({
                t: rng.choice(order[:i])
                for i, t in enumerate(order) if i and rng.random() < 0.6
            })
            cands = set(rng.sample(names, rng.randint(1, len(names))))
            minimal = {
                c for c in cands if not any(c in h.ancestors(o) for o in cands if o != c)
            }
            assert resolve_type(cands, h) == min(minimal)

    def test_hierarchy_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TypeHierarchy({"a": "b", "b": "a"})

    def test_hierarchy_load(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("politician\tperson\nband\torganization\n")
        h = TypeHierarchy.load(path)
        assert h.ancestors("politician") == ["person"]


class TestFindMentions:
    def test_empty_gazetteer(self):
        s = make_sentence("no entities here")
        assert find_mentions(s, Gazetteer()) == []

    def test_larger_span_suppresses_inner_entity(self):
        g = Gazetteer({
            ("United", "Socialist", "Party", "of", "Venezuela"): {"political party"},
            ("Venezuela",): {"country"},
        })
        s = make_sentence("the United Socialist Party of Venezuela drew votes")
        mentions = find_mentions(s, g)
        assert mentions == [
            EntityMention("d", 0, 1, 6, "political party", "gazetteer")
        ]

    def test_longest_at_position(self):
        g = Gazetteer({
            ("New", "York"): {"location"},
            ("New", "York", "City"): {"location"},
        })
        s = make_sentence("New York City")
        mentions = find_mentions(s, g)
        assert [(m.start, m.end) for m in mentions] == [(0, 3)]

    def test_case_sensitive(self):
        g = Gazetteer({("Apple",): {"organization"}})
        assert find_mentions(make_sentence("an apple fell"), g) == []

    def test_types_resolved_at_load(self):
        h = TypeHierarchy({"politician": "person"})
        g = Gazetteer({("Hugo", "Chávez"): {"person", "politician"}}, hierarchy=h)
        [m] = find_mentions(make_sentence("Hugo Chávez spoke"), g)
        assert m.entity_type == "politician"

    def test_sorted_and_disjoint(self, rng):
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            entries = {
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3))): {"t"}
                for _ in range(rng.randint(0, 6))
            }
            g = Gazetteer(entries)
            texts = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            s = make_sentence(" ".join(texts))
            mentions = find_mentions(s, g)
            spans = [(m.start, m.end) for m in mentions]
            assert spans == sorted(spans)
            for (_, e1), (s2, _) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_matches_brute_force_oracle(self, rng):
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            entries = {
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4))): frozenset({"t"})
                for _ in range(rng.randint(0, 10))
            }
            g = Gazetteer(entries)
            texts = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            s = make_sentence(" ".join(texts))
            got = [(m.start, m.end) for m in find_mentions(s, g)]
            expected = [(a, b) for a, b, _ in
                        oracle_leftmost_longest(texts, entries)]
            assert got == expected

    def test_removing_entry_never_lengthens_spans(self, rng):
        entries = {
            ("a", "b", "c"): {"t"},
            ("a", "b"): {"t"},
            ("b", "c"): {"t"},
            ("c",): {"t"},
        }
        s = make_sentence("a b c a b c")
        full = find_mentions(s, Gazetteer(entries))
        max_len = max(m.end - m.start for m in full)
        for surface in entries:
            reduced = {k: v for k, v in entries.items() if k != surface}
            mentions = find_mentions(s, Gazetteer(reduced))
            if mentions:
                assert max(m.end - m.start for m in mentions) <= max_len


class TestPreAnnotate:
    def test_no_matches(self):
        assert pre_annotate(make_sentence("just plain words"), Gazetteer()) == ["O", "O", "O"]

    def test_bio_construction(self):
        g = Gazetteer({("Brand", "Nubian"): {"band"}})
        s = make_sentence("guest appearance by rappers of Brand Nubian today")
        tags = pre_annotate(s, g)
        assert tags[5] == "B-band"
        assert tags[6] == "I-band"
        assert all(t == "O" for i, t in enumerate(tags) if i not in (5, 6))

    def test_tags_always_valid_bio(self, rng):
        vocab = ["a", "b", "c"]
        for _ in range(100):
            entries = {
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3))): {"x", "y"}
                for _ in range(rng.randint(0, 5))
            }
            s = make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 9))))
            tags = pre_annotate(s, Gazetteer(entries))
            assert validate_bio(tags) == []
