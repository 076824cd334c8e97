"""Reference gazetteer: the plain token trie with a terminal dict per entry.

Used only as an oracle for the package's compact trie. Every entry, leaf
or not, ends in its own node holding {_END: type}, no token is shared
between nodes, and the scan tries every position. The type rules
(ancestors, resolve_type) are this module's own, over a child-to-parent
dict; only the mention record is shared with the package.
"""

from collections.abc import Mapping

from xner.gazetteer import EntityMention

_END = ""


def ancestors(entity_type, parent_of):
    out = []
    node = entity_type
    while node in parent_of:
        node = parent_of[node]
        out.append(node)
    return out


def resolve_type(candidates, parent_of):
    """Most-specific candidate: ancestors of other candidates are
    discarded, and the smallest of the rest wins."""
    cands = set(candidates)
    if not cands:
        raise ValueError("candidate type set must be non-empty")
    return min(cands.difference(*(ancestors(c, parent_of) for c in cands)))


class Gazetteer:
    def __init__(self, entries=(), parent_of=None):
        rows = entries.items() if isinstance(entries, Mapping) else entries
        self._trie = {}
        terminals = []
        type_sets = {}
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
            node[_END] = type_sets.setdefault(types, types)
        resolved = {
            types: resolve_type(types, parent_of or {})
            for types in {n[_END] for n in terminals}
        }
        for node in terminals:
            node[_END] = resolved[node[_END]]

    def entries(self):
        """{surface: type} of every entry in the trie."""
        found = {}
        stack = [((), self._trie)]
        while stack:
            surface, node = stack.pop()
            for token, child in node.items():
                if token == _END:
                    found[surface] = child
                else:
                    stack.append((surface + (token,), child))
        return found

    def longest_match(self, texts, start):
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


def find_mentions(texts, gazetteer):
    """Leftmost-longest non-overlapping matches over a token sequence."""
    mentions = []
    i = 0
    n = len(texts)
    while i < n:
        match = gazetteer.longest_match(texts, i)
        if match is None:
            i += 1
            continue
        end, entity_type = match
        mentions.append(EntityMention(i, end, entity_type))
        i = end
    return mentions
