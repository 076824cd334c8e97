"""Reference mention extraction: one frozen EntityMention per B-/I- run.

Used only as an oracle for nerdata.entity_spans on valid BIO, which the
scorer and the dataset statistics read instead; on ill-formed tags the
oracle is ref_conlleval. It reads only sentence.tags.
"""

from xner.gazetteer import EntityMention


def extract_entities(sentence, doc_id: str = "", sentence_index: int = 0):
    """Maximal B-/I- runs as gold mentions with [start, end) token spans."""
    mentions = []
    start = None
    current = None
    for i, tag in enumerate(sentence.tags):
        if tag.startswith("B-"):
            if start is not None:
                mentions.append(
                    EntityMention(doc_id, sentence_index, start, i, current, "gold")
                )
            start, current = i, tag[2:]
        elif tag.startswith("I-"):
            continue
        else:
            if start is not None:
                mentions.append(
                    EntityMention(doc_id, sentence_index, start, i, current, "gold")
                )
            start = current = None
    if start is not None:
        mentions.append(
            EntityMention(
                doc_id, sentence_index, start, len(sentence.tags), current, "gold"
            )
        )
    return mentions
