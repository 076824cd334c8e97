"""Reference list-model dataset functions, used only as test oracles.

extract_entities gives one EntityMention per B-/I- run: the oracle for
nerdata.entity_spans on valid BIO, which the scorer and the dataset
statistics read instead; on ill-formed tags the oracle is ref_conlleval.
It reads only sentence.tags.

serialize_conll and build_joint are the writer and the joint builder that
`subsample` and `joint` used before they wrote back the lines they read;
on two-column, single-space input the commands must still give their
bytes. subsample is the keyed sample that `subsample` takes with a
bounded heap, done by sorting every ordinal.
"""

from ref_seeding import stable_hash
from xner.gazetteer import EntityMention


def extract_entities(sentence):
    """Maximal B-/I- runs as gold mentions with [start, end) token spans."""
    mentions = []
    start = None
    current = None
    for i, tag in enumerate(sentence.tags):
        if tag.startswith("B-"):
            if start is not None:
                mentions.append(EntityMention(start, i, current))
            start, current = i, tag[2:]
        elif tag.startswith("I-"):
            continue
        else:
            if start is not None:
                mentions.append(EntityMention(start, i, current))
            start = current = None
    if start is not None:
        mentions.append(EntityMention(start, len(sentence.tags), current))
    return mentions


def serialize_conll(sentences, fh):
    """Write space-separated CoNLL, one blank line between sentences."""
    for sentence in sentences:
        for token, tag in zip(sentence.tokens, sentence.tags):
            fh.write(f"{token} {tag}\n")
        fh.write("\n")


def subsample(train, n, seed):
    """The n items with the smallest (stable_hash(seed, "", i), i), i being
    an item's index, in their order in train."""
    ranked = sorted(range(len(train)), key=lambda i: (stable_hash(seed, "", i), i))
    return [train[i] for i in sorted(ranked[:n])]


def build_joint(source, target, multiplier=100):
    """Source data plus the target data repeated multiplier times."""
    return list(source) + list(target) * multiplier
