"""Entity dictionary, longest-match mention detection and NER pre-annotation.

The dictionary is plain data. A type hierarchy is a child-to-parent dict
(politician -> person). A gazetteer is a token-level prefix trie of dicts,
with each surface's types resolved to one under the hierarchy as it is
built. Matching is case-sensitive on exact token tuples, so a full scan
costs O(sentence length x longest entry) and stays practical on corpora
of 10^8 tokens.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Sequence

from xner.corpus import split_text
from xner.errors import DataError, data_lines

# Trie terminal marker; safe because token texts are never empty.
_END = ""


class EntityMention(NamedTuple):
    """A typed token span [start, end) within one sentence."""

    start: int
    end: int
    entity_type: str


def load_hierarchy(path) -> dict[str, str]:
    """Load a TSV of "child<TAB>parent" rows as a child-to-parent dict; a
    cycle is reported at the line of one of its rows."""
    parent_of, line_of = {}, {}
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}:{lineno}: expected 'child<TAB>parent'")
        parent_of[parts[0].strip()] = parts[1].strip()
        line_of[parts[0].strip()] = lineno
    if (node := _cycle_node(parent_of)) is not None:
        raise DataError(f"{path}:{line_of[node]}: type hierarchy cycle through {node!r}")
    return parent_of


def _cycle_node(parent_of: Mapping[str, str]) -> str | None:
    """A type on a cycle of the child-to-parent map, or None for a forest."""
    for child in parent_of:
        seen = {child}
        node = child
        while node in parent_of:
            node = parent_of[node]
            if node in seen:
                return node
            seen.add(node)
    return None


def resolve_type(candidates: AbstractSet[str], parent_of: Mapping[str, str]) -> str:
    """Most-specific candidate type under the child-to-parent forest.

    Ancestors of other candidates are discarded (politician beats person).
    If several incomparable candidates remain the lexicographically
    smallest wins.
    """
    ancestors = set()
    for node in candidates:
        while node in parent_of:
            node = parent_of[node]
            ancestors.add(node)
    return min(candidates - ancestors)


def build_trie(
    rows: Iterable[tuple[Sequence[str], frozenset[str]]], parent_of: Mapping[str, str]
) -> dict:
    """The token trie of (tokens, types) rows; tokens are non-empty strings.

    Rows with the same tokens merge their types, resolved here under the
    child-to-parent forest. A node maps a token to the next node, or to
    the type of an entry no other entry extends; an entry that others
    extend keeps it under _END.
    """
    trie: dict = {}
    intern = {}.setdefault  # one string object per distinct token
    # A set of several types stays in the trie, one object per set, until
    # every row is in, as resolve_type(A | B) needs A; pending finds it.
    type_sets: dict[frozenset[str], frozenset[str]] = {}
    pending = []
    for surface, types in rows:
        node = trie
        for token in surface[:-1]:
            child = node.get(token)
            if child is None:
                child = node[intern(token, token)] = {}
            elif child.__class__ is not dict:  # a leaf entry gets extended
                child = node[token] = {_END: child}
            node = child
        token = surface[-1]
        child = node.get(token)
        if child.__class__ is dict:
            node, token, child = child, _END, child.get(_END)
        if child is None:
            token = intern(token, token)
        else:
            types |= {child} if child.__class__ is str else child
        if len(types) > 1:
            node[token] = type_sets.setdefault(types, types)
            pending.append((node, token))
        else:  # a one-type set resolves to its type
            [node[token]] = types
    resolved = {t: resolve_type(t, parent_of) for t in type_sets}
    for node, key in pending:
        if node[key].__class__ is dict:  # a leaf extended since
            node, key = node[key], _END
        if (types := node[key]).__class__ is not str:  # not resolved yet
            node[key] = resolved[types]
    return trie


def load_gazetteer(path, parent_of: Mapping[str, str]) -> dict:
    """Load a "surface<TAB>type" TSV into a trie, tokenizing surfaces with
    the corpus rules.

    Rows stream into the trie. Duplicate (surface, type) rows are merged;
    one surface may carry several types, resolved to one under the
    child-to-parent forest.
    """
    return build_trie(_gazetteer_rows(path), parent_of)


def _gazetteer_rows(path) -> Iterator[tuple[list[str], frozenset[str]]]:
    types: dict[str, frozenset[str]] = {}  # one set object per type
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[1].split()) != 1:
            raise DataError(f"{path}:{lineno}: expected 'surface<TAB>type', one-word type")
        surface = split_text(parts[0])
        if not surface:
            raise DataError(f"{path}:{lineno}: empty surface form")
        name = parts[1].strip()
        yield surface, types.get(name) or types.setdefault(name, frozenset((name,)))


def longest_match(trie: dict, texts: Sequence[str], start: int):
    """Longest entry starting at position start, as (end, type), or None."""
    node = trie
    best = None
    i, n = start, len(texts)
    while i < n:
        node = node.get(texts[i])
        if node is None:
            break
        i += 1
        if node.__class__ is str:  # a leaf: no entry extends it
            return i, node
        entity_type = node.get(_END)
        if entity_type is not None:
            best = (i, entity_type)
    return best


def find_mentions(tokens: Sequence[str], trie: dict) -> list[EntityMention]:
    """Leftmost-longest non-overlapping gazetteer matches.

    Scans left to right, takes the longest entry at each position and
    advances past it, so an inner entity never survives inside a larger
    span ("United Socialist Party of Venezuela" suppresses "Venezuela").
    """
    mentions, end = [], 0
    for i, token in enumerate(tokens):
        if i >= end and token in trie and (match := longest_match(trie, tokens, i)):
            mentions.append(EntityMention(i, *match))
            end = match[0]
    return mentions


def mentions_to_bio(mentions: Iterable[EntityMention], length: int) -> list[str]:
    """BIO tags for non-overlapping mentions over a sentence of given length."""
    tags = ["O"] * length
    for m in mentions:
        tags[m.start] = f"B-{m.entity_type}"
        for i in range(m.start + 1, m.end):
            tags[i] = f"I-{m.entity_type}"
    return tags


def pre_annotate(tokens: Sequence[str], trie: dict) -> list[str]:
    """Machine pre-annotation: BIO tags of the tokens' gazetteer mentions."""
    return mentions_to_bio(find_mentions(tokens, trie), len(tokens))
