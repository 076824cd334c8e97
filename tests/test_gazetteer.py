import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import ref_gazetteer
from conftest import make_trie
from xner.errors import DataError
from xner.gazetteer import (
    EntityMention,
    build_trie,
    find_mentions,
    load_gazetteer,
    load_hierarchy,
    longest_match,
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
    match = longest_match(g, surface, 0)
    return match is not None and match[0] == len(surface)


def trie_entries(g):
    """{surface: type} of every entry in the compact trie, where a leaf is
    the type itself and an extended entry keeps its type under ""."""
    found = {}
    stack = [((), g)]
    while stack:
        surface, node = stack.pop()
        for token, child in node.items():
            if token == "":
                found[surface] = child
            elif child.__class__ is str:
                found[surface + (token,)] = child
            else:
                stack.append((surface + (token,), child))
    return found


class TestLoadGazetteer:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("")
        assert trie_entries(load_gazetteer(path, {})) == ref_gazetteer.Gazetteer().entries() == {}

    def test_single_entry(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("Mars\tastronomicalobject\n")
        g = load_gazetteer(path, {})
        ref = ref_gazetteer.Gazetteer([(("Mars",), {"astronomicalobject"})])
        assert trie_entries(g) == ref.entries() == {("Mars",): "astronomicalobject"}
        assert is_entry(g, ("Mars",))
        assert not is_entry(g, ("Mars", "Mars"))
        [m] = find_mentions("Mars rose".split(), g)
        assert m.entity_type == "astronomicalobject"

    def test_byte_order_mark_is_not_text(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes("\ufeffKurt Cobain\tmusicalartist\nNirvana\tband\n".encode())
        g = load_gazetteer(path, {})
        assert trie_entries(g) == {("Kurt", "Cobain"): "musicalartist", ("Nirvana",): "band"}
        assert [m.entity_type for m in find_mentions("Kurt Cobain sang".split(), g)] == [
            "musicalartist"
        ]

    def test_duplicate_surface_merges_types(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "Hugo Chávez\tpolitician\nHugo Chávez\tperson\nHugo Chávez\tpolitician\n"
        )
        g = load_gazetteer(path, {})
        ref = ref_gazetteer.Gazetteer([(("Hugo", "Chávez"), {"politician", "person"})])
        assert trie_entries(g) == ref.entries() == {("Hugo", "Chávez"): "person"}
        assert is_entry(g, ("Hugo", "Chávez"))
        # Without a hierarchy the lexicographically smallest type wins, and
        # only the merged set {politician, person} can resolve to person.
        [m] = find_mentions("Hugo Chávez spoke".split(), g)
        assert m.entity_type == "person"

    def test_surface_tokenized_with_corpus_rules(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("People's Party\tpoliticalparty\n")
        g = load_gazetteer(path, {})
        assert is_entry(g, ("People", "'s", "Party"))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("ok\ttype\nbad row no tab\n")
        with pytest.raises(DataError, match=":2:"):
            load_gazetteer(path, {})

    def test_empty_surface(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(" \ttype\n")
        with pytest.raises(DataError, match="empty surface"):
            load_gazetteer(path, {})

    def test_hierarchy_resolves_merged_rows(self, tmp_path):
        g_path = tmp_path / "g.tsv"
        g_path.write_text("Hugo Chávez\tperson\nAna\tperson\nHugo Chávez\tpolitician\n")
        h_path = tmp_path / "h.tsv"
        h_path.write_text("politician\tperson\n")
        g = load_gazetteer(g_path, load_hierarchy(h_path))
        mentions = find_mentions("Ana met Hugo Chávez".split(), g)
        assert [m.entity_type for m in mentions] == ["person", "politician"]

    def test_mentions_carry_the_resolved_merged_type(self, tmp_path, rng):
        """Random rows with repeated surfaces, under random hierarchies: the
        merged entries, the rows themselves and the loader all give each
        mention resolve_type of its surface's merged type set."""
        tokens = ["Ab", "Cd", "Ef"]
        types = ["a", "b", "c", "d", "e"]
        path = tmp_path / "g.tsv"
        for _ in range(300):
            order = rng.sample(types, len(types))
            h = {
                t: rng.choice(order[:i])
                for i, t in enumerate(order) if i and rng.random() < 0.6
            }
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
                (start, end, ref_gazetteer.resolve_type(merged_types, h))
                for start, end, merged_types in oracle_leftmost_longest(texts, merged)
            ]
            for g in (
                make_trie(merged, h),
                build_trie(((s, frozenset({t})) for s, t in rows), h),
                load_gazetteer(path, h),
            ):
                assert trie_entries(g) == ref_gazetteer.Gazetteer(merged, h).entries()
                assert all(is_entry(g, surface) for surface in merged)
                mentions = find_mentions(texts, g)
                assert [(m.start, m.end, m.entity_type) for m in mentions] == expected


class TestResolveType:
    def test_singleton(self):
        assert resolve_type({"person"}, {}) == "person"

    def test_politician_beats_person(self):
        h = {"politician": "person"}
        assert resolve_type({"person", "politician"}, h) == "politician"

    def test_band_beats_organization(self):
        h = {"band": "organization"}
        assert resolve_type({"organization", "band"}, h) == "band"

    def test_grandparent_chain(self):
        h = {"enzyme": "protein", "protein": "chemical compound"}
        assert resolve_type({"chemical compound", "protein", "enzyme"}, h) == "enzyme"

    def test_incomparable_tie_is_lexicographic(self):
        assert resolve_type({"song", "album"}, {}) == "album"

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            resolve_type(set(), {})

    @given(st.sets(st.sampled_from(
        ["person", "politician", "organization", "band", "location"]), min_size=1))
    def test_permutation_invariant_and_idempotent(self, candidates):
        h = {"politician": "person", "band": "organization"}
        resolved = resolve_type(candidates, h)
        assert resolved in candidates
        for perm in itertools.permutations(candidates):
            assert resolve_type(set(perm), h) == resolved
        assert resolve_type({resolved}, h) == resolved

    def test_matches_pairwise_oracle(self, rng):
        names = ["a", "b", "c", "d", "e", "f"]
        for _ in range(2000):
            order = rng.sample(names, len(names))
            h = {
                t: rng.choice(order[:i])
                for i, t in enumerate(order) if i and rng.random() < 0.6
            }
            cands = set(rng.sample(names, rng.randint(1, len(names))))
            minimal = {
                c for c in cands if not any(c in ref_gazetteer.ancestors(o, h) for o in cands if o != c)
            }
            assert resolve_type(cands, h) == min(minimal)

    def test_hierarchy_cycle_rejected(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("a\tb\nb\ta\n")
        with pytest.raises(DataError, match=":1: type hierarchy cycle through 'a'"):
            load_hierarchy(path)

    def test_hierarchy_load(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("politician\tperson\nband\torganization\n")
        assert load_hierarchy(path) == {"politician": "person", "band": "organization"}


class TestFindMentions:
    def test_empty_gazetteer(self):
        s = "no entities here".split()
        assert find_mentions(s, {}) == []

    def test_larger_span_suppresses_inner_entity(self):
        g = make_trie({
            ("United", "Socialist", "Party", "of", "Venezuela"): {"political party"},
            ("Venezuela",): {"country"},
        })
        s = "the United Socialist Party of Venezuela drew votes".split()
        mentions = find_mentions(s, g)
        assert mentions == [(1, 6, "political party")]
        assert EntityMention._fields == ("start", "end", "entity_type")

    def test_longest_at_position(self):
        g = make_trie({
            ("New", "York"): {"location"},
            ("New", "York", "City"): {"location"},
        })
        s = "New York City".split()
        mentions = find_mentions(s, g)
        assert [(m.start, m.end) for m in mentions] == [(0, 3)]

    def test_case_sensitive(self):
        g = make_trie({("Apple",): {"organization"}})
        assert find_mentions("an apple fell".split(), g) == []

    def test_types_resolved_at_load(self):
        h = {"politician": "person"}
        g = make_trie({("Hugo", "Chávez"): {"person", "politician"}}, h)
        [m] = find_mentions("Hugo Chávez spoke".split(), g)
        assert m.entity_type == "politician"

    def test_sorted_and_disjoint(self, rng):
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            entries = {
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3))): {"t"}
                for _ in range(rng.randint(0, 6))
            }
            g = make_trie(entries)
            texts = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            mentions = find_mentions(texts, g)
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
            g = make_trie(entries)
            texts = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            got = [(m.start, m.end) for m in find_mentions(texts, g)]
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
        s = "a b c a b c".split()
        full = find_mentions(s, make_trie(entries))
        max_len = max(m.end - m.start for m in full)
        for surface in entries:
            reduced = {k: v for k, v in entries.items() if k != surface}
            mentions = find_mentions(s, make_trie(reduced))
            if mentions:
                assert max(m.end - m.start for m in mentions) <= max_len


class TestPreAnnotate:
    def test_no_matches(self):
        assert pre_annotate("just plain words".split(), {}) == ["O", "O", "O"]

    def test_bio_construction(self):
        g = make_trie({("Brand", "Nubian"): {"band"}})
        s = "guest appearance by rappers of Brand Nubian today".split()
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
            s = [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
            tags = pre_annotate(s, make_trie(entries))
            assert validate_bio(tags) == []


TOKENS = ["Ab", "Cd", "Ef", "Gh"]
TYPES = ["a", "b", "c", "d"]


@st.composite
def gazetteer_rows(draw):
    """Rows over a few tokens, so surfaces share prefixes and repeat with
    other types; some entries are prefixes of others, in either order."""
    surface = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4).map(tuple)
    surfaces = draw(st.lists(surface, max_size=12))
    prefixes = [s[:draw(st.integers(1, len(s) - 1))] for s in surfaces if len(s) > 1]
    surfaces = draw(st.permutations(surfaces + prefixes[:draw(st.integers(0, len(prefixes)))]))
    types = st.sets(st.sampled_from(TYPES), min_size=1, max_size=3)
    return [(s, draw(types)) for s in surfaces]


@st.composite
def hierarchies(draw):
    order = draw(st.permutations(TYPES))
    return {
        t: draw(st.sampled_from(order[:i])) for i, t in enumerate(order) if i and draw(st.booleans())
    }


@settings(max_examples=500, deadline=None)
@given(
    rows=gazetteer_rows(),
    hierarchy=st.none() | hierarchies(),
    sentences=st.lists(st.lists(st.sampled_from(TOKENS + ["Zz"]), min_size=1, max_size=10)),
)
def test_matches_the_reference_trie(rows, hierarchy, sentences):
    g = build_trie([(s, frozenset(types)) for s, types in rows], hierarchy or {})
    ref = ref_gazetteer.Gazetteer(rows, hierarchy)
    assert trie_entries(g) == ref.entries()
    for texts in sentences:
        for start in range(len(texts)):
            assert longest_match(g, texts, start) == ref.longest_match(texts, start)
        mentions = find_mentions(texts, g)
        assert mentions == ref_gazetteer.find_mentions(texts, ref)


_T = frozenset({"t"})


def _rows_with_fresh_tokens(entries=20_000, vocabulary=8_000):
    """Rows built one at a time, each surface from new string objects, as
    load_gazetteer reads them from a file."""
    rng = random.Random(0)
    for _ in range(entries):
        yield [f"w{rng.randrange(vocabulary)}" for _ in range(rng.randint(1, 4))], _T


def _retained_bytes(build):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return tracemalloc.get_traced_memory()[0] - before, built
    finally:
        tracemalloc.stop()


def test_memory_is_at_most_three_quarters_of_the_reference_trie():
    new, g = _retained_bytes(lambda: build_trie(_rows_with_fresh_tokens(), {}))
    ref, ref_g = _retained_bytes(lambda: ref_gazetteer.Gazetteer(_rows_with_fresh_tokens()))
    assert trie_entries(g) == ref_g.entries()
    assert new <= 0.75 * ref, (new, ref)
