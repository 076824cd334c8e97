import json

import pytest
from hypothesis import example, given, settings, strategies as st

import ref_tokenizer
from xner.corpus import (
    SPLIT_PUNCT,
    CorpusStats,
    Document,
    Sentence,
    corpus_tokens,
    document_stats,
    load_corpus,
    segment,
    split_text,
)
from xner.errors import DataError
from xner.pipelines import stats_documents

# Text fragments that exercise every tokenizer and segmenter rule, drawn
# evenly from three pools: words (plain, upper-case and non-ASCII letters,
# İ lowercasing to two code points, clitics in both cases, abbreviations),
# punctuation (every peeled mark, terminal runs) and whitespace (including
# the control and non-ASCII kinds str.split() honours).
_WORDS = list("abzAQZ09") + [
    "İ", "É", "é", "ß", "Ω", "ǅ", "'s", "n't", "'S", "N'T", "Dr.", "e.g.", "U.S.", "etc.",
    "approx.",
]
_PUNCT = sorted(SPLIT_PUNCT) + ["...", "?!", "!.", ".?"]
_SPACES = [" ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u2028", "\x1c", "\x85"]
_fragment = st.one_of(*(st.sampled_from(pool) for pool in (_WORDS, _PUNCT, _SPACES)))
_text = st.lists(_fragment, max_size=40).map("".join)


class TestTokenize:
    def test_empty_input(self):
        assert split_text("") == []

    def test_trailing_punctuation_split(self):
        assert split_text("Mars has four.") == ["Mars", "has", "four", "."]

    def test_apostrophe_clitic(self):
        assert split_text("Chávez's party") == ["Chávez", "'s", "party"]

    def test_nt_clitic(self):
        assert split_text("don't stop") == ["do", "n't", "stop"]

    @pytest.mark.parametrize("text,expected", [
        ("(hello)", ["(", "hello", ")"]),
        ('"quoted"', ['"', "quoted", '"']),
        ("a, b; c", ["a", ",", "b", ";", "c"]),
        ("...", [".", ".", "."]),
        ("U.S.A.", ["U.S.A", "."]),
    ])
    def test_punctuation_peeling(self, text, expected):
        assert split_text(text) == expected

    def test_character_conservation(self):
        # splitting never invents or drops non-whitespace characters
        for text in ["Hello, world!", "Chávez's (new) party.", "a  b\tc"]:
            joined = "".join(split_text(text))
            assert sorted(joined) == sorted(text.replace(" ", "").replace("\t", ""))

    @settings(max_examples=1000)
    @given(_text)
    def test_matches_reference_tokenizer(self, text):
        assert split_text(text) == ref_tokenizer.split_text(text)


class TestSentence:
    def test_immutable(self):
        sentence = Sentence("d", 0, ("x",))
        with pytest.raises(AttributeError):
            sentence.tokens = ("y",)
        with pytest.raises(TypeError):
            sentence.tokens[0] = "y"


class TestSegment:
    def test_no_paragraphs(self):
        assert segment(Document("d", ())) == []

    def test_terminal_punctuation_rule(self):
        sentences = segment(Document("d", ("A b. C d.",)))
        assert [s.tokens for s in sentences] == [("A", "b", "."), ("C", "d", ".")]

    def test_end_of_paragraph_closes_sentence(self):
        sentences = segment(Document("d", ("A b c",)))
        assert [s.tokens for s in sentences] == [("A", "b", "c")]

    def test_abbreviation_not_split(self):
        sentences = segment(Document("d", ("Dr. Smith arrived. He left.",)))
        assert [s.tokens for s in sentences] == [
            ("Dr", ".", "Smith", "arrived", "."),
            ("He", "left", "."),
        ]

    def test_lowercase_continuation_not_split(self):
        sentences = segment(Document("d", ("version 2.0 shipped. next week",)))
        assert [s.tokens for s in sentences] == [
            ("version", "2.0", "shipped", ".", "next", "week"),
        ]

    def test_split_and_isspace_agree_on_every_code_point(self):
        # The sentence rule reads whitespace chunks from str.split() where the
        # reference segmenter walks characters with str.isspace(); they agree
        # only while both use the same whitespace set.
        for code in range(0x110000):
            c = chr(code)
            assert (("a" + c + "a").split() == ["a", "a"]) == c.isspace(), hex(code)

    def test_indices_dense_and_doc_id_set(self):
        sentences = segment(Document("doc9", ("One. Two.", "Three.")))
        assert [s.index for s in sentences] == [0, 1, 2]
        assert all(s.doc_id == "doc9" for s in sentences)

    def test_token_total_matches_paragraph_tokenization(self):
        doc = Document("d", ("A b. C d!", "Hello there."))
        total = sum(len(s.tokens) for s in segment(doc))
        by_paragraph = sum(len(split_text(p)) for p in doc.paragraphs)
        assert total == by_paragraph

    @settings(max_examples=500)
    @given(st.lists(_text, max_size=4))
    def test_unchecked_sentences_pass_the_checked_constructor(self, paragraphs):
        # Nothing checks a Sentence's tokens: segment must make every one a
        # non-empty str without whitespace, as the trie and the writers need.
        for s in segment(Document("d", tuple(paragraphs))):
            assert type(s) is Sentence and type(s.tokens) is tuple and s.tokens
            for token in s.tokens:
                assert type(token) is str and token and token.split() == [token]

    @settings(max_examples=500)
    @given(st.lists(_text, max_size=4))
    @example(["Ask Dr.! Then etc.. Go? No."])
    @example(["He met the Dr.", "Ask approx."])  # an abbreviation as the last chunk
    @example(["Then ... Go? ?! Now"])  # chunks of terminal marks only
    @example(["It rained! \t", "Stop.\u3000"])  # whitespace after the last run
    @example(["Ask. \u01c5ebra. Go"])  # titlecase after a run is not isupper
    def test_matches_reference_segmenter(self, paragraphs):
        doc = Document("d", tuple(paragraphs))
        sentences = segment(doc)
        assert [(s.index, s.tokens) for s in sentences] == ref_tokenizer.segment(
            paragraphs
        )
        assert document_stats(doc) == CorpusStats(
            len(paragraphs), len(sentences), sum(len(s.tokens) for s in sentences)
        )
        # The invariant that lets mask build its vocabulary without
        # splitting sentences.
        assert list(corpus_tokens([doc])) == [t for s in sentences for t in s.tokens]


class TestCorpusStats:
    def test_empty_stream(self):
        assert stats_documents([]) == CorpusStats(0, 0, 0)

    def test_hand_count(self):
        # "A b." -> 3 tokens, "C d e f" -> 4 tokens
        doc = Document("d", ("A b. C d e f",))
        assert stats_documents([doc]) == CorpusStats(1, 2, 7)

    def test_additive(self):
        a = [Document("a", ("X y. Z w.",))]
        b = [Document("b", ("Hello there friend.", "Bye now."))]
        assert stats_documents(a + b) == stats_documents(a) + stats_documents(b)


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        assert list(load_corpus(path, "plain")) == []

    def test_blank_line_rule(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p1\np2\n\np3")
        docs = list(load_corpus(path, "plain"))
        assert [len(d.paragraphs) for d in docs] == [2, 1]
        assert docs[0].paragraphs == ("p1", "p2")

    def test_jsonl_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "domain": "music", "text": "One.\\nTwo."}\n'
            '{"id": "b", "domain": "music", "text": "Three."}\n'
        )
        docs = list(load_corpus(path, "jsonl"))
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].paragraphs == ("One.", "Two.")

    def test_jsonl_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            list(load_corpus(path, "jsonl"))

    @pytest.mark.parametrize("value", [None, 5, [1], {"a": 1}])
    @pytest.mark.parametrize("key", ["id", "text"])
    def test_jsonl_non_string_id_or_text_reports_line(self, tmp_path, key, value):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "x"}\n' + json.dumps({"id": "b", "text": "y", key: value})
        )
        with pytest.raises(DataError, match=":2: record must have string 'id' and 'text'"):
            list(load_corpus(path, "jsonl"))

    def test_byte_order_mark_is_not_text(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("\ufeffNirvana played.\n\nRadiohead did too.\n".encode())
        docs = list(load_corpus(path, "plain"))
        assert [d.paragraphs for d in docs] == [("Nirvana played.",), ("Radiohead did too.",)]
        assert segment(docs[0])[0].tokens == ("Nirvana", "played", ".")

    def test_jsonl_byte_order_mark_is_not_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes('\ufeff{"id": "a", "text": "Nirvana played."}\n'.encode())
        assert list(load_corpus(path, "jsonl")) == [("a", ("Nirvana played.",))]
