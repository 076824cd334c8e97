"""Reference mention extraction: one EntityMention per B-/I- run.

Used only as an oracle for nerdata.entity_spans on valid BIO, which the
scorer and the dataset statistics read instead; on ill-formed tags the
oracle is ref_conlleval. It reads only sentence.tags.
"""

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
