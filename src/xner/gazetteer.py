"""Entity dictionary, longest-match mention detection and NER pre-annotation.

Matching is case-sensitive on exact token sequences. The dictionary is a
token-level prefix trie, so a full scan costs O(sentence length x longest
entry) and stays practical on corpora of 10^8 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from xner.corpus import Sentence, split_text
from xner.errors import DataError, data_lines

_SOURCES = frozenset({"gazetteer", "gold", "external"})

# Trie terminal marker; safe because token texts are never empty.
_END = ""


@dataclass(frozen=True)
class EntityMention:
    """A typed token span [start, end) within one sentence."""

    doc_id: str
    sentence_index: int
    start: int
    end: int
    entity_type: str
    source: str = "gazetteer"

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span [{self.start}, {self.end})")
        if self.source not in _SOURCES:
            raise ValueError(f"unknown mention source: {self.source!r}")


class TypeHierarchy:
    """Child-type to parent-type forest (e.g. politician -> person)."""

    def __init__(self, parent_of: Mapping[str, str] | None = None):
        self.parent_of = dict(parent_of or {})
        if (node := _cycle_node(self.parent_of)) is not None:
            raise ValueError(f"type hierarchy cycle through {node!r}")

    def ancestors(self, entity_type: str) -> list[str]:
        out = []
        node = entity_type
        while node in self.parent_of:
            node = self.parent_of[node]
            out.append(node)
        return out

    @classmethod
    def load(cls, path) -> "TypeHierarchy":
        """Load a TSV of "child<TAB>parent" rows; a cycle is reported at
        the line of one of its rows."""
        parent_of, line_of = {}, {}
        for lineno, line in data_lines(path):
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(f"{path}:{lineno}: expected 'child<TAB>parent'")
            parent_of[parts[0].strip()] = parts[1].strip()
            line_of[parts[0].strip()] = lineno
        try:
            return cls(parent_of)
        except ValueError as exc:
            raise DataError(f"{path}:{line_of[_cycle_node(parent_of)]}: {exc}") from None


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


class Gazetteer:
    """Surface-form dictionary of token sequences, stored as a token trie.

    entries is a mapping from surface to types, or an iterable of
    (surface, types) rows; rows with the same surface merge their types.
    Each trie terminal holds the entry's type resolved once, here, under
    the hierarchy (politician beats person), so matching never resolves.
    """

    def __init__(
        self,
        entries: Mapping[Sequence[str], Iterable[str]]
        | Iterable[tuple[Sequence[str], Iterable[str]]] = (),
        hierarchy: TypeHierarchy | None = None,
    ):
        rows = entries.items() if isinstance(entries, Mapping) else entries
        self._trie: dict = {}
        terminals = []
        type_sets: dict[frozenset[str], frozenset[str]] = {}
        for surface, types in rows:
            surface, types = tuple(surface), frozenset(types)
            if not surface or not all(surface):
                raise ValueError(f"empty gazetteer surface form: {surface!r}")
            if not types:
                raise ValueError(f"gazetteer entry without types: {surface!r}")
            node = self._trie
            for token in surface:
                node = node.setdefault(token, {})
            merged = node.get(_END)
            if merged is None:
                terminals.append(node)
            else:
                types |= merged
            node[_END] = type_sets.setdefault(types, types)  # one object per set
        hierarchy = hierarchy or TypeHierarchy()
        resolved = {
            types: resolve_type(types, hierarchy) for types in {n[_END] for n in terminals}
        }
        for node in terminals:
            node[_END] = resolved[node[_END]]
        self._size = len(terminals)

    def __len__(self):
        return self._size

    def longest_match(self, texts: Sequence[str], start: int):
        """Longest entry starting at position start, as (end, type), or None."""
        node = self._trie
        best = None
        i = start
        n = len(texts)
        while i < n:
            node = node.get(texts[i])
            if node is None:
                break
            i += 1
            entity_type = node.get(_END)
            if entity_type is not None:
                best = (i, entity_type)
        return best


def load_gazetteer(path, hierarchy=None) -> Gazetteer:
    """Load a "surface<TAB>type" TSV, tokenizing surfaces with the corpus rules.

    Rows stream into the trie. Duplicate (surface, type) rows are merged;
    one surface may carry several types, resolved to one under the
    optional hierarchy.
    """
    return Gazetteer(_gazetteer_rows(path), hierarchy)


def _gazetteer_rows(path) -> Iterator[tuple[list[str], tuple[str]]]:
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[1].split()) != 1:
            raise DataError(f"{path}:{lineno}: expected 'surface<TAB>type', one-word type")
        surface = split_text(parts[0])
        if not surface:
            raise DataError(f"{path}:{lineno}: empty surface form")
        yield surface, (parts[1].strip(),)


def resolve_type(candidates: Iterable[str], hierarchy: TypeHierarchy) -> str:
    """Most-specific candidate type under the hierarchy.

    Ancestors of other candidates are discarded (politician beats person).
    If several incomparable candidates remain the lexicographically
    smallest wins.
    """
    cands = set(candidates)
    if not cands:
        raise ValueError("candidate type set must be non-empty")
    return min(cands.difference(*map(hierarchy.ancestors, cands)))


def find_mentions(sentence: Sentence, gazetteer: Gazetteer) -> list[EntityMention]:
    """Leftmost-longest non-overlapping gazetteer matches.

    Scans left to right, takes the longest entry at each position and
    advances past it, so an inner entity never survives inside a larger
    span ("United Socialist Party of Venezuela" suppresses "Venezuela").
    """
    texts = sentence.tokens
    mentions = []
    i = 0
    n = len(texts)
    while i < n:
        match = gazetteer.longest_match(texts, i)
        if match is None:
            i += 1
            continue
        end, entity_type = match
        mentions.append(
            EntityMention(
                sentence.doc_id, sentence.index, i, end, entity_type, source="gazetteer"
            )
        )
        i = end
    return mentions


def mentions_to_bio(mentions: Iterable[EntityMention], length: int) -> list[str]:
    """BIO tags for non-overlapping mentions over a sentence of given length."""
    tags = ["O"] * length
    for m in mentions:
        if m.end > length:
            raise ValueError(f"mention end {m.end} exceeds sentence length {length}")
        tags[m.start] = f"B-{m.entity_type}"
        for i in range(m.start + 1, m.end):
            tags[i] = f"I-{m.entity_type}"
    return tags


def pre_annotate(sentence: Sentence, gazetteer: Gazetteer) -> list[str]:
    """Machine pre-annotation: BIO tags of the sentence's gazetteer mentions."""
    return mentions_to_bio(find_mentions(sentence, gazetteer), len(sentence))
