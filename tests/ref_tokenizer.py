"""Reference tokenizer and segmenter: the plain loop versions.

Used only as an oracle for the package's fast paths. Every whitespace
chunk goes through the same edge-peeling and clitic loop, with no
shortcut for chunks that need no splitting, and sentence ends are found
by a character loop rather than a regular expression. Only the rule data
(the punctuation and abbreviation sets and the clitics) is shared with
the package.
"""

from xner.corpus import ABBREVIATIONS, SPLIT_PUNCT, _CLITICS

_TERMINALS = frozenset(".!?")


def split_text(text):
    out = []
    for chunk in text.split():
        _split_chunk(chunk, out)
    return out


def _split_chunk(chunk, out):
    lead_end = 0
    while lead_end < len(chunk) and chunk[lead_end] in SPLIT_PUNCT:
        lead_end += 1
    trail_start = len(chunk)
    while trail_start > lead_end and chunk[trail_start - 1] in SPLIT_PUNCT:
        trail_start -= 1
    out.extend(chunk[:lead_end])
    core = chunk[lead_end:trail_start]
    if core:
        low = core.lower()
        for clitic in _CLITICS:
            if low.endswith(clitic) and len(core) > len(clitic):
                cut = len(core) - len(clitic)
                out.append(core[:cut])
                out.append(core[cut:])
                break
        else:
            out.append(core)
    out.extend(chunk[trail_start:])


def split_sentences(paragraph):
    sentences = []
    start = 0
    i = 0
    n = len(paragraph)
    while i < n:
        if paragraph[i] in _TERMINALS:
            j = i + 1
            while j < n and paragraph[j] in _TERMINALS:
                j += 1
            if _is_boundary(paragraph, i, j):
                piece = paragraph[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = j
            i = j
        else:
            i += 1
    tail = paragraph[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _is_boundary(paragraph, term_start, term_end):
    if paragraph[term_start] == ".":
        w = term_start
        while w > 0 and not paragraph[w - 1].isspace():
            w -= 1
        if paragraph[w:term_start + 1].lower() in ABBREVIATIONS:
            return False
    if term_end >= len(paragraph):
        return True
    if not paragraph[term_end].isspace():
        return False
    k = term_end
    while k < len(paragraph) and paragraph[k].isspace():
        k += 1
    return k < len(paragraph) and paragraph[k].isupper()


def segment(paragraphs):
    """(sentence index, token tuple) pairs with dense indices."""
    sentences = []
    for paragraph in paragraphs:
        for piece in split_sentences(paragraph):
            tokens = split_text(piece)
            if tokens:
                sentences.append((len(sentences), tuple(tokens)))
    return sentences
