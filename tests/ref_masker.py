"""Reference masker stages: the plain versions of spanify, apply_replacements,
mask_corpus and the JSON encoding of a masked example.

Used only as an oracle for the package's fast paths. spanify copies the
set and ranks partners with a key function for every isolated index,
apply_replacements range-checks each position and compares each roll
with its own literal 0.8/0.9 thresholds, mask_corpus builds a new
random.Random(stable_hash(seed, doc_id, sentence_index)) for every
sentence, and an example is encoded by json.dumps of its record dict.
Only the records and the mask symbol are shared with the package.
"""

import json
import math
import random

from ref_seeding import stable_hash
from xner.masker import MASK_SYMBOL, MaskedExample, MaskTarget


def spanify(masked, length):
    current = set(masked)
    for i in current:
        if not 0 <= i < length:
            raise ValueError(f"mask index {i} out of range for length {length}")
    isolated = [
        i for i in sorted(current) if i - 1 not in current and i + 1 not in current
    ]
    for i in isolated:
        if i - 1 in current or i + 1 in current:
            continue
        others = current - {i}
        if not others:
            break
        partner = min(others, key=lambda k: (abs(k - i), k < i))
        lo, hi = partner, partner
        while lo - 1 in others:
            lo -= 1
        while hi + 1 in others:
            hi += 1
        facing = lo - 1 if i < lo else hi + 1
        opposite = hi + 1 if i < lo else lo - 1
        current.discard(i)
        for target in (facing, opposite):
            if 0 <= target < length and target not in current:
                current.add(target)
                break
        else:
            current.add(i)
    return current


def apply_replacements(tokens, indices, rng, vocabulary, doc_id="", sentence_index=0):
    output = list(tokens)
    targets = []
    for position in sorted(set(indices)):
        if not 0 <= position < len(tokens):
            raise ValueError(f"target position {position} out of range")
        original = tokens[position]
        roll = rng.random()
        if roll < 0.8:
            kind = "mask"
            output[position] = MASK_SYMBOL
        elif roll < 0.9:
            kind = "random"
            output[position] = vocabulary[rng.randrange(len(vocabulary))]
        else:
            kind = "keep"
        targets.append(MaskTarget(position, original, kind))
    return MaskedExample(doc_id, sentence_index, tuple(output), tuple(targets))


def mask_corpus(corpus, cfg, vocabulary):
    for sentence in corpus:
        n = len(sentence.tokens)
        if n < max(2, cfg.min_sentence_len):
            continue
        rng = random.Random(stable_hash(cfg.seed, sentence.doc_id, sentence.index))
        indices = set(rng.sample(range(n), max(1, math.floor(cfg.mask_rate * n + 0.5))))
        if cfg.strategy == "span":
            indices = spanify(indices, n)
        yield apply_replacements(
            sentence.tokens, indices, rng, vocabulary, sentence.doc_id, sentence.index
        )


def to_record(example):
    return {
        "doc_id": example.doc_id,
        "sentence_index": example.sentence_index,
        "tokens": list(example.output_tokens),
        "targets": [
            {"pos": t.position, "orig": t.original, "kind": t.kind}
            for t in example.targets
        ],
    }


def to_json(example):
    return json.dumps(to_record(example), ensure_ascii=False)
