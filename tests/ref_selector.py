"""Reference selection: the entity- and task-level selectors as two
separate passes over each document's sentences.

Used only as an oracle for pipelines.select_documents. Each selector
finds a sentence's mentions on its own, from the gazetteer trie or from
an external mention index, and keeps the sentence when its count reaches
the threshold. The trie, the mention index, segmentation and the hash
are the package's; the selection rules are this module's own.
"""

from xner.corpus import segment
from xner.errors import DataError
from xner.gazetteer import find_mentions
from xner.seeding import unit_interval


def sentence_mentions(sentence, gazetteer, mentions):
    if mentions is None:
        return find_mentions(sentence.tokens, gazetteer)
    found = mentions.get((sentence.doc_id, sentence.index), {})
    for mention, where in found.items():
        if mention.end > len(sentence.tokens):
            raise DataError(
                f"{where}: bad mention record: span [{mention.start}, {mention.end}) "
                f"is past the end of a {len(sentence.tokens)}-token sentence"
            )
    return found


def select_entity_level(corpus, gazetteer, cfg, mentions=None):
    """Sentences containing at least cfg.min_mentions entity mentions."""
    for sentence in corpus:
        found = sentence_mentions(sentence, gazetteer, mentions)
        if len(found) >= cfg.min_mentions:
            yield sentence


def select_task_level(corpus, gazetteer, specialized_types, cfg, mentions=None):
    """Sentences with at least cfg.min_specialized mentions of a specialized type."""
    for sentence in corpus:
        found = sentence_mentions(sentence, gazetteer, mentions)
        hits = sum(1 for m in found if m.entity_type in specialized_types)
        if hits >= cfg.min_specialized:
            yield sentence


def select_groups(
    documents, level, gazetteer, cfg, upsample, mentions=None, specialized_types=(),
    percent=None, seed=0,
):
    """select_documents' groups as a list: one group of sentence lines per
    document for "entity" and "task"; for "integrated", every entity group,
    then the non-empty task groups upsample times."""
    specialized_types = frozenset(specialized_types)
    entity_groups, task_groups = [], []
    for document in documents:
        sentences = segment(document)
        if percent is not None:
            sentences = [
                s for s in sentences if unit_interval(seed, s.doc_id, s.index) * 100.0 < percent
            ]
        if level != "task":
            entity_groups.append([
                " ".join(s.tokens)
                for s in select_entity_level(sentences, gazetteer, cfg, mentions)
            ])
        if level != "entity":
            task_groups.append([
                " ".join(s.tokens)
                for s in select_task_level(sentences, gazetteer, specialized_types, cfg, mentions)
            ])
    if level == "entity":
        return entity_groups
    if level == "task":
        return task_groups
    return entity_groups + [group for group in task_groups if group] * upsample
