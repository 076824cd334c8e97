"""Fuzz every subcommand in-process with small random files and option values.

Whatever the inputs, `cli.run` returns 0, 1 (usage error) or 2 (data
error) and never lets an exception or a traceback out. `--workers` is
always 1 or invalid, so no process pool starts.
"""

import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xner.cli import run

# Argument values that name a file carry this prefix until the test
# replaces it with its temporary directory.
AT = "@"

_MOSTLY_VALID = st.sampled_from([True] * 4 + [False])
RARELY = _MOSTLY_VALID.map(lambda ok: not ok)


def _mostly(valid, invalid):
    """A valid value four times in five, an invalid one otherwise."""
    return _MOSTLY_VALID.flatmap(lambda ok: st.sampled_from(valid if ok else invalid))


WORDS = st.sampled_from([
    "Nirvana", "Kurt", "Cobain", "Kid", "A", "played", "in", "Seattle", ".",
    "Dr.", "It's", "(band)", "é", "B-x", "O", "-DOCSTART-", "\t", "",
])
LINE = st.lists(WORDS, max_size=6).map(" ".join)
TYPES = _mostly(["band", "album", "person", "x"], ["musical artist", "", "O"])
INTS = _mostly(["1", "2", "3"], ["0", "-1", "x", "1.5"])
RATES = _mostly(["0.15", "0.5"], ["0", "1", "-1", "nan", "inf", "x"])
PERCENTS = _mostly(["0", "12.5", "100"], ["-1", "101", "nan", "inf", "x"])
SEEDS = _mostly(["0", "7", "-1", "12345678901234567890"], ["x"])
WORKERS = _mostly(["1"], ["0", "-1", "x"])
TAGS = ["O", "B-x", "B-y", "I-x", "I-y", "B-", "X", "I-"]


def _lines(line_strategy):
    return st.lists(st.one_of(line_strategy, st.just("")), max_size=8).map(
        lambda lines: "".join(f"{line}\n" for line in lines)
    )


TOKEN = WORDS.filter(lambda w: w and not w.isspace())
JSONL_RECORD = st.one_of(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["corpus-000000", "j", 1]), "text": _lines(LINE)},
        optional={"domain": st.sampled_from(["music", 5])},
    ).map(json.dumps),
    st.sampled_from(['{"id": "j"}', "[1, 2]", '{"id": "j", "text": ', "null", "x"]),
    # Valid JSON whose text holds a lone surrogate, which UTF-8 cannot encode.
    st.just('{"id": "a", "text": "Nirvana \\ud800 played in big Seattle today."}'),
)
# Sentences tagged O or B- only are valid BIO; the rest may not be, and
# may have one to four columns.
VALID_CONLL = st.lists(
    st.lists(st.tuples(TOKEN, st.sampled_from(TAGS[:3])).map(" ".join), min_size=1, max_size=5)
    .map(lambda rows: "".join(f"{row}\n" for row in rows) + "\n"),
    max_size=4,
).map("".join)
# CoNLL-2003's four tab-separated columns, valid BIO, after a -DOCSTART- line.
VALID_CONLL_FOUR_TABBED = st.lists(
    st.lists(
        st.tuples(
            TOKEN, st.sampled_from(["NNP", "VBZ"]), st.sampled_from(["B-NP", "I-VP"]),
            st.sampled_from(TAGS[:3]),
        ).map("\t".join),
        min_size=1, max_size=5,
    ).map(lambda rows: "".join(f"{row}\n" for row in rows) + "\n"),
    max_size=4,
).map(lambda sentences: "-DOCSTART-\t-X-\t-X-\tO\n\n" + "".join(sentences))
ANY_CONLL = _lines(st.one_of(
    st.tuples(
        TOKEN,
        st.lists(st.sampled_from(["NNP", "B-NP", "-X-"]), max_size=2),
        st.sampled_from(TAGS),
    ).map(lambda t: " ".join([t[0], *t[1], t[2]])),
    st.sampled_from(["-DOCSTART- -X- O O", "Nirvana", "a b c d e"]),
))
CONLL = st.one_of(VALID_CONLL, VALID_CONLL_FOUR_TABBED, ANY_CONLL)
GAZETTEER = _lines(st.one_of(
    st.tuples(LINE, TYPES).map("\t".join),
    st.sampled_from(["no tab", "a\tb\tc"]),
))
HIERARCHY = _lines(st.one_of(
    st.tuples(TYPES, TYPES).map("\t".join),
    st.just("no tab"),
))


def _mention(doc_ids, indices, starts, ends, types):
    return st.fixed_dictionaries({
        "doc_id": st.sampled_from(doc_ids),
        "sentence_index": st.sampled_from(indices),
        "start": st.sampled_from(starts),
        "end": st.sampled_from(ends),
        "type": types,
    }).map(json.dumps)


# Mention lines are mostly well-formed, so that selection runs on them; a
# span may reach past the end of any sentence (LINE has at most 6 tokens).
# The whole file may be repeated, so that every record appears more than once.
ODD_VALUES = [True, False, -1, 0, 2, 99, float("inf"), float("nan"), 1.5, "1", None, []]
MENTIONS = st.tuples(
    _lines(_MOSTLY_VALID.flatmap(lambda ok: (
        _mention(["corpus-000000", "corpus-000001"], [0, 1], [0, 1], [2, 3, 7, 50, 99], TYPES)
        if ok else st.one_of(
            _mention(["corpus-000000", "j", 5], ODD_VALUES, ODD_VALUES, ODD_VALUES, TYPES),
            st.sampled_from(['{"doc_id": "corpus-000000"}', "[]", "{"]),
        )
    ))),
    st.integers(1, 3),
).map(lambda file_and_copies: file_and_copies[0] * file_and_copies[1])

FILES = {
    "corpus.txt": _lines(LINE),
    "corpus.jsonl": _lines(JSONL_RECORD),
    "gold.conll": CONLL,
    "pred.conll": CONLL,
    "g.tsv": GAZETTEER,
    "h.tsv": HIERARCHY,
    "mentions.jsonl": MENTIONS,
    "words.txt": _lines(WORDS),
}


def _file(draw, files, name):
    """The argument naming file name, drawing its bytes on first use; now
    and then a missing file instead."""
    if draw(RARELY):
        return AT + "missing"
    if name not in files:
        data = draw(FILES[name]).encode("utf-8")
        if draw(RARELY):
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + b"\xc3(\xff" + data[cut:]
        files[name] = data
    return AT + name


def _optional(draw, argv, flag, values):
    if draw(st.booleans()):
        argv += [flag, draw(values)]


CORPUS_ARGS = _mostly(
    [["corpus.txt"], ["corpus.txt", "--format", "plain"], ["corpus.jsonl", "--format", "jsonl"]],
    [["corpus.jsonl"], ["corpus.txt", "--format", "jsonl"], ["corpus.txt", "--format", "conll"]],
)


@st.composite
def command_line(draw, command):
    """argv for command, and the bytes of each file it names."""
    files = {}
    argv = [command]

    def file(name):
        return _file(draw, files, name)

    def optional_file(flag, name):
        if draw(st.booleans()):
            argv.extend([flag, file(name)])

    if command in ("stats", "extract", "mask", "pre-annotate"):
        path, *fmt = draw(CORPUS_ARGS)
        argv += ["--input", file(path), *fmt, "--workers", draw(WORKERS)]
    if command == "extract":
        level = draw(_mostly(["entity", "integrated", "task"], ["all"]))
        argv += ["--level", level, "--output", AT + "out"]
        source = draw(st.sampled_from(["g.tsv", "mentions.jsonl", "both", "neither"]))
        if source in ("g.tsv", "both"):
            argv += ["--gazetteer", file("g.tsv")]
        if source in ("mentions.jsonl", "both"):
            argv += ["--mentions", file("mentions.jsonl")]
        if level != "entity" and not draw(RARELY):
            argv += ["--specialized", file("words.txt")]
        optional_file("--hierarchy", "h.tsv")
        for flag, values in [
            ("--min-mentions", INTS),
            ("--min-specialized", INTS),
            ("--upsample", INTS),
            ("--percent", PERCENTS),
            ("--seed", SEEDS),
        ]:
            _optional(draw, argv, flag, values)
    elif command == "mask":
        argv += ["--output", AT + "out"]
        for flag, values in [
            ("--strategy", _mostly(["token", "span"], ["word"])),
            ("--rate", RATES),
            ("--seed", SEEDS),
            ("--min-len", INTS),
            ("--vocab-size", INTS),
        ]:
            _optional(draw, argv, flag, values)
    elif command == "pre-annotate":
        argv += ["--gazetteer", file("g.tsv"), "--output", AT + "out"]
        optional_file("--hierarchy", "h.tsv")
    elif command == "ner-stats":
        argv += ["--input", file("gold.conll")]
    elif command == "eval":
        argv += ["--gold", file("gold.conll")]
        argv += ["--pred", file(draw(st.sampled_from(["gold.conll", "pred.conll"])))]
        _optional(draw, argv, "--misclassify", st.sampled_from(["x,y", "x,x", "x", ","]))
        _optional(draw, argv, "--output", st.just(AT + "report.json"))
    elif command == "overlap":
        repeats = draw(RARELY)
        names = draw(st.lists(
            st.sampled_from(["a", "b", ""]), min_size=1, max_size=3, unique=not repeats
        ))
        paths = [file(draw(st.sampled_from(["corpus.txt", "corpus.jsonl"]))) for _ in names]
        argv += ["--inputs", *(f"{n}={p}" for n, p in zip(names, paths))]
        if draw(RARELY):
            argv.append(file("corpus.txt"))  # an entry without NAME=
        _optional(draw, argv, "--format", _mostly(["plain", "jsonl"], ["conll"]))
        _optional(draw, argv, "--top-k", INTS)
        optional_file("--stopwords", "words.txt")
    elif command == "subsample":
        argv += ["--input", file("gold.conll"), "--n", draw(INTS), "--output", AT + "out"]
        _optional(draw, argv, "--seed", SEEDS)
    elif command == "joint":
        argv += ["--source", file("gold.conll"), "--target", file("pred.conll")]
        argv += ["--output", AT + "out"]
        _optional(draw, argv, "--multiplier", INTS)
    return argv, files


COMMANDS = [
    "stats", "extract", "mask", "ner-stats", "eval",
    "overlap", "pre-annotate", "subsample", "joint",
]


FUZZ_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_exits_cleanly(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        argv = [arg.replace(AT, tmp + os.sep) for arg in argv]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


@pytest.mark.parametrize("command", COMMANDS)
@FUZZ_SETTINGS
@given(data=st.data())
def test_cli_exits_cleanly_on_any_input(command, data):
    _assert_exits_cleanly(*data.draw(command_line(command)))


@FUZZ_SETTINGS
@given(
    corpus=_lines(LINE),
    mentions=MENTIONS,
    level=st.sampled_from(["entity", "task", "integrated"]),
    min_mentions=st.sampled_from(["1", "2"]),
)
def test_extract_with_mentions_exits_cleanly(corpus, mentions, level, min_mentions):
    """Every other input valid, so that the mention records reach selection."""
    argv = [
        "extract", "--level", level, "--input", AT + "corpus.txt", "--workers", "1",
        "--mentions", AT + "mentions.jsonl", "--specialized", AT + "words.txt",
        "--min-mentions", min_mentions, "--output", AT + "out",
    ]
    files = {"corpus.txt": corpus, "mentions.jsonl": mentions, "words.txt": "band\nx\n"}
    _assert_exits_cleanly(argv, {name: text.encode("utf-8") for name, text in files.items()})
