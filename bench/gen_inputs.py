"""Seeded synthetic inputs for the xner benchmark, standard library only.

This module never imports xner. The token lists it builds are the ground
truth the benchmark checks the program against, so a change to xner's
tokenizer or matcher cannot change the inputs, only the checks' verdict.

What the inputs contain, and why:

- a Zipfian filler vocabulary, so token frequencies look like text;
- a 20K-entry gazetteer of capitalised names, grouped in shared-prefix
  families ("Varo", "Varo Lunde", "Varo Lunde Kess") so the trie walks
  past shorter entries;
- surfaces listed under both a type and its parent, so resolve_type has
  a real choice to make;
- a two-level type hierarchy and 8 domain-specialized types;
- tokenizer edge cases in the text: 's and n't clitics, attached commas
  and quotes, and "Dr." before capitalised names;
- planted entities that are missing from the gazetteer, or that extend a
  gazetteer entry by one unknown token, or whose gold type differs from
  the gazetteer's, so precision, recall and the confusion table of the
  evaluation are all non-trivial.

Filler words, gazetteer name tokens and unknown-name tokens are disjoint
sets, and two entities are never adjacent, so the gazetteer mentions of
every sentence are known by construction (see Sentence.pred).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# parent -> leaf types; every leaf has exactly one parent.
HIERARCHY = {
    "person": ("politician", "scientist", "musicalartist", "writer"),
    "organisation": ("politicalparty", "university", "band", "company"),
    "location": ("country", "city", "river"),
    "misc": ("award", "election", "album", "song", "theory"),
}
SPECIALIZED = (
    "politician", "politicalparty", "election", "scientist",
    "musicalartist", "band", "album", "award",
)
LEAVES = tuple(leaf for leaves in HIERARCHY.values() for leaf in leaves)
PARENT = {leaf: parent for parent, leaves in HIERARCHY.items() for leaf in leaves}

GAZETTEER_SIZE = 20_000
UNKNOWN_SIZE = 2_000
FILLER_SIZE = 20_000
PARAGRAPHS_PER_DOC = 25
SENTENCES_PER_PARAGRAPH = 2

# xner's segmenter never splits after these; a sentence-final filler word
# must not be one of them, or two generated sentences would merge.
_ABBREVIATION_STEMS = frozenset("""
mr mrs ms dr prof st jr sr gen rep sen gov capt col lt sgt vs etc cf al ca
approx no nos fig figs vol ch pp ed eds inc ltd co corp dept univ jan feb
mar apr jun jul aug sep sept oct nov dec
""".split())
_FUNCTION_WORDS = (
    "the", "of", "and", "in", "to", "a", "was", "for", "on", "with", "as",
    "by", "at", "from", "his", "her", "their", "that", "which", "after",
)
_CLITIC_STEMS = ("did", "does", "is", "was", "could", "would", "has")

_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "br", "cr", "dr", "fl", "gr", "pl", "st", "tr", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "m", "t", "nd", "rk", "st")
_NAME_ONSETS = ("K", "Z", "V", "J", "Q", "X", "Y", "Kr", "Zh", "Vl", "Ny")
_NAME_CODAS = ("", "k", "x", "z", "v", "rn", "sk", "ld")


@dataclass(frozen=True)
class Entry:
    tokens: tuple[str, ...]
    types: tuple[str, ...]  # as listed in the gazetteer TSV, one row each
    resolved: str  # the most specific listed type


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    gold: tuple[str, ...]  # BIO tags of every planted entity
    pred: tuple[str, ...]  # BIO tags of the gazetteer's leftmost-longest matches
    mentions: int  # gazetteer mentions in the sentence
    specialized: int  # of those, mentions whose resolved type is specialized
    text: str


@dataclass
class Corpus:
    docs: list  # list of documents, each a list of paragraphs of Sentences
    tokens: int
    sentences: int

    def plain_text(self) -> str:
        """One paragraph per line, a blank line between documents."""
        return "\n".join(
            "\n".join(" ".join(s.text for s in paragraph) for paragraph in doc) + "\n"
            for doc in self.docs
        )

    def iter_sentences(self):
        for doc in self.docs:
            for paragraph in doc:
                yield from paragraph


@dataclass
class Dictionary:
    entries: list  # Entry objects, in TSV order
    # Planted names missing from the gazetteer: (tokens, the gazetteer entry
    # that is a prefix of them, or None when no entry matches inside them).
    unknown: list
    fillers: list  # filler words, most frequent first
    filler_weights: list  # cumulative Zipf weights over fillers

    def gazetteer_tsv(self) -> str:
        return "".join(
            f"{' '.join(e.tokens)}\t{t}\n" for e in self.entries for t in e.types
        )

    @staticmethod
    def hierarchy_tsv() -> str:
        return "".join(f"{leaf}\t{PARENT[leaf]}\n" for leaf in LEAVES)

    @staticmethod
    def specialized_txt() -> str:
        return "".join(f"{t}\n" for t in SPECIALIZED)


def _words(rng, onsets, vowels, codas, syllables, count, exclude, capitalise):
    out = []
    seen = set(exclude)
    while len(out) < count:
        n = rng.choice(syllables)
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n))
        word += rng.choice(codas)
        if capitalise:
            word = word[0].upper() + word[1:].lower()
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def make_dictionary(seed: int) -> Dictionary:
    rng = random.Random(f"xner-bench-dictionary-{seed}")
    fillers = list(_FUNCTION_WORDS) + _words(
        rng, _ONSETS, _VOWELS, _CODAS, (1, 1, 2, 2, 2, 3),
        FILLER_SIZE - len(_FUNCTION_WORDS), _FUNCTION_WORDS + _CLITIC_STEMS, False,
    )
    capitalised = {w.capitalize() for w in fillers} | {"Dr"}
    name_tokens = _words(
        rng, _NAME_ONSETS, _VOWELS, _NAME_CODAS, (1, 2, 2, 3), 9_000, capitalised, True
    )
    # Unknown names use their own tokens, so no gazetteer entry matches inside them.
    unknown_tokens = _words(
        rng, ("Ph", "Gw", "Mb", "Tl"), _VOWELS, _NAME_CODAS, (1, 2), 1_500,
        capitalised | set(name_tokens), True,
    )
    entries: list[Entry] = []
    surfaces = set()
    while len(entries) < GAZETTEER_SIZE:
        # One shared-prefix family: a head followed by up to 3 extensions.
        family = [rng.choice(name_tokens)]
        for _ in range(rng.choice((1, 2, 2, 3))):
            if (tokens := tuple(family)) not in surfaces and rng.random() < 0.7:
                surfaces.add(tokens)
                entries.append(_entry(rng, tokens))
            family.append(rng.choice(name_tokens))
        if (tokens := tuple(family)) not in surfaces:
            surfaces.add(tokens)
            entries.append(_entry(rng, tokens))
    entries = entries[:GAZETTEER_SIZE]
    unknown = []
    for i in range(UNKNOWN_SIZE):
        if i % 2:
            unknown.append((tuple(rng.sample(unknown_tokens, rng.choice((1, 2, 2, 3)))), None))
        else:
            # A known entry plus an unknown token: the matcher finds the
            # prefix only, so the predicted span disagrees with the gold one.
            head = rng.choice(entries)
            unknown.append((head.tokens + (rng.choice(unknown_tokens),), head))
    weights = list(itertools.accumulate(1.0 / (r + 1) ** 1.07 for r in range(len(fillers))))
    return Dictionary(entries, unknown, fillers, weights)


def _entry(rng, tokens) -> Entry:
    leaf = rng.choice(LEAVES)
    roll = rng.random()
    if roll < 0.30:
        return Entry(tokens, (leaf, PARENT[leaf]), leaf)  # type and its parent
    if roll < 0.35:
        return Entry(tokens, (PARENT[leaf],), PARENT[leaf])
    return Entry(tokens, (leaf,), leaf)


def _bio(entity_type: str, length: int) -> list[str]:
    return [f"B-{entity_type}"] + [f"I-{entity_type}"] * (length - 1)


class _SentenceMaker:
    def __init__(self, rng: random.Random, dictionary: Dictionary):
        self.rng = rng
        self.d = dictionary
        n = len(dictionary.entries)
        # A flat Zipf: with a steep one, the types of a few top entries would
        # swing the task-level selection from seed to seed.
        self.entry_weights = list(itertools.accumulate(1.0 / (r + 1) ** 0.7 for r in range(n)))
        self.specialized = frozenset(SPECIALIZED)

    def fillers(self, k: int) -> list[str]:
        return self.rng.choices(self.d.fillers, cum_weights=self.d.filler_weights, k=k)

    def entity(self):
        """(tokens, gold type, predicted span length, predicted type)."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.06:
            tokens, head = rng.choice(self.d.unknown)
            gold = rng.choice(LEAVES)
            if head is None:
                return tokens, gold, 0, None
            return tokens, gold, len(head.tokens), head.resolved
        entry = rng.choices(self.d.entries, cum_weights=self.entry_weights)[0]
        gold = entry.resolved
        if roll < 0.14:
            gold = rng.choice([t for t in LEAVES if t != gold])
        return entry.tokens, gold, len(entry.tokens), entry.resolved

    def sentence(self) -> Sentence:
        rng = self.rng
        n_words = rng.randint(6, 17)
        n_entities = rng.choices((0, 1, 2, 3), weights=(35, 30, 20, 15))[0]
        words = self.fillers(n_words)
        # Entities go into distinct gaps between filler words, never adjacent,
        # never last (the last unit is always a plain filler word).
        slots = sorted(rng.sample(range(n_words - 1), min(n_entities, n_words - 1)))
        pieces: list[str] = []
        tokens: list[str] = []
        gold: list[str] = []
        pred: list[str] = []
        mentions = specialized = 0
        slot_iter = iter(slots)
        next_slot = next(slot_iter, None)
        for i, word in enumerate(words):
            first = not pieces
            if i == n_words - 1:
                while word in _ABBREVIATION_STEMS:
                    word = self.fillers(1)[0]
                terminal = rng.choices((".", "?", "!"), weights=(90, 5, 5))[0]
                self._filler(pieces, tokens, gold, pred, word, first, plain=True)
                pieces[-1] += terminal
                tokens.append(terminal)
                gold.append("O")
                pred.append("O")
                break
            self._filler(pieces, tokens, gold, pred, word, first, plain=False)
            if i == next_slot:
                m, s = self._entity(pieces, tokens, gold, pred)
                mentions += m
                specialized += s
                next_slot = next(slot_iter, None)
        return Sentence(
            tuple(tokens), tuple(gold), tuple(pred), mentions, specialized, " ".join(pieces)
        )

    def _filler(self, pieces, tokens, gold, pred, word, first, plain):
        rng = self.rng
        roll = 1.0 if plain else rng.random()
        if first:
            word = word.capitalize()
            piece, toks = word, [word]
        elif roll < 0.02:
            stem = rng.choice(_CLITIC_STEMS)
            piece, toks = f"{stem}n't", [stem, "n't"]
        elif roll < 0.07:
            piece, toks = f"{word},", [word, ","]
        elif roll < 0.08:
            piece, toks = f'"{word}"', ['"', word, '"']
        else:
            piece, toks = word, [word]
        pieces.append(piece)
        tokens.extend(toks)
        gold.extend(["O"] * len(toks))
        pred.extend(["O"] * len(toks))

    def _entity(self, pieces, tokens, gold, pred):
        rng = self.rng
        ent, gold_type, pred_len, pred_type = self.entity()
        lead: list[str] = []
        trail: list[str] = []
        text = " ".join(ent)
        roll = rng.random()
        if roll < 0.04:
            text += "'s"
            trail = ["'s"]
        elif roll < 0.09:
            text += ","
            trail = [","]
        elif roll < 0.10:
            text = f'"{text}"'
            lead, trail = ['"'], ['"']
        if PARENT.get(gold_type) == "person" and rng.random() < 0.25:
            text = "Dr. " + text
            lead = ["Dr", "."] + lead
        pieces.append(text)
        tokens.extend(lead + list(ent) + trail)
        gold.extend(["O"] * len(lead) + _bio(gold_type, len(ent)) + ["O"] * len(trail))
        if pred_len:
            tags = _bio(pred_type, pred_len) + ["O"] * (len(ent) - pred_len)
        else:
            tags = ["O"] * len(ent)
        pred.extend(["O"] * len(lead) + tags + ["O"] * len(trail))
        if not pred_len:
            return 0, 0
        return 1, int(pred_type in self.specialized)


def make_corpus(seed: int, dictionary: Dictionary, target_tokens: int) -> Corpus:
    """Documents of 25 two-sentence paragraphs until target_tokens is reached.

    The same seed and size give the same corpus, whichever workload asks.
    """
    rng = random.Random(f"xner-bench-corpus-{target_tokens}-{seed}")
    maker = _SentenceMaker(rng, dictionary)
    docs = []
    tokens = sentences = 0
    while tokens < target_tokens:
        doc = []
        for _ in range(PARAGRAPHS_PER_DOC):
            paragraph = [maker.sentence() for _ in range(SENTENCES_PER_PARAGRAPH)]
            tokens += sum(len(s.tokens) for s in paragraph)
            sentences += len(paragraph)
            doc.append(paragraph)
        docs.append(doc)
    return Corpus(docs, tokens, sentences)


def conll(sentences, tags: str) -> str:
    """CoNLL text of the given sentences with their "gold" or "pred" tags."""
    return "".join(
        "".join(f"{t} {g}\n" for t, g in zip(s.tokens, getattr(s, tags))) + "\n"
        for s in sentences
    )
