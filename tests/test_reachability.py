"""Every statement in src/xner runs in some CLI call.

The CLI is the product, so a line that no subcommand runs is code that
only tests reach, or code that cannot run at all. This test traces line
events (sys.settrace, which every supported Python has) over in-process
CLI calls: one per subcommand, plus one per option, input check and
failure path with lines of its own. It requires every statement inside a
def in src/xner to have run; docstrings and global declarations have no
code. ALLOWED names the statements that cannot run in this process, each
with its reason. An entry covers the statements nested in it, and must
still be needed.
"""

import ast
import errno
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import xner
from xner import cli, pipelines

SRC = Path(xner.__file__).resolve().parent

# (file, function, the statement's first line): why it cannot run here.
_POOL = "it runs only inside a pool process"
ALLOWED = {
    ("pipelines.py", "_set_pool_worker", "_pool_worker = worker"): _POOL,
    ("pipelines.py", "_set_pool_worker", "signal.signal(signal.SIGINT, signal.SIG_IGN)"): _POOL,
    ("pipelines.py", "_call_pool_worker", "return [_pool_worker(doc) for doc in chunk]"): _POOL,
    ("pipelines.py", "__getattr__",
     'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")'):
        "the module attribute protocol requires it; no CLI path asks for a missing name",
    ("cli.py", "_output", "if _is_stdout_file(path):"):
        "only a child process whose stdout is redirected to the output file takes it",
    ("cli.py", "_cpus", "return os.cpu_count() or 1"):
        "the fallback for platforms without os.sched_getaffinity",
    ("nerdata.py", "__new__", 'raise ValueError(f"{len(tokens)} tokens but {len(tags)} tags")'):
        "iter_conll(strict=True) makes what it checks; it goes when parse_conll does",
    ("nerdata.py", "__new__", 'raise ValueError(f"invalid BIO tags at positions {bad}: {tags}")'):
        "iter_conll(strict=True) makes what it checks; it goes when parse_conll does",
}

CORPUS = (
    # Two-type surfaces, an abbreviation, a number, clitics, brackets and a
    # last sentence with no terminal mark.
    "Kurt Cobain sang with Nirvana in Seattle. Dr. Smith met Nirvana in Seattle.\n"
    "Nirvana sold 3.5 million copies of Nevermind. It's a band (from Aberdeen).\n"
    "\n"
    "Radiohead released Kid A in October. Kid A Mnesia came later, it's said\n"
    "\n"
    "Obama's speech in Berlin. Obama and Kurt Cobain never met in Seattle. it rained.\n"
)
MASK_CORPUS = (
    # At --rate 0.4, --seed 12 and --min-len 3: an isolated index that an
    # earlier move has joined, one whose partner is 5 away, every kind of
    # target, a one-mask sentence and a sentence too short to mask.
    "a b c d e f g h i j k l m n o p q r s t.\n"
    "Yes sir.\n"
    "Hi.\n"
)
FILES = {
    "corpus.txt": CORPUS,
    "one.txt": "Nirvana played Seattle.\n",
    "long.txt": "Nirvana " * (pipelines.CHUNK_CHARS // 8 + 1) + "\n\nRadiohead played Oxford.\n",
    "mask.txt": MASK_CORPUS,
    "corpus.jsonl": '{"id": "j1", "text": "Nirvana played Seattle.\\nRadiohead did too."}\n',
    # Kid, Kid A and Kid A Mnesia extend one another; Obama's two types are
    # merged while it is a leaf, and a later row extends it.
    "g.tsv": "Kurt Cobain\tperson\nKurt Cobain\tmusicalartist\nNirvana\tband\n"
             "Seattle\tlocation\nRadiohead\tband\nKid A Mnesia\talbum\nKid A\talbum\n"
             "Kid\tmiscellaneous\nObama\tperson\nObama\tpolitician\nObama's speech\tevent\n",
    "h.tsv": "musicalartist\tperson\npolitician\tperson\n",
    "s.txt": "band\nalbum\n",
    "s_row.txt": "band album\n",
    "m.jsonl": '{"doc_id": "corpus-000000", "sentence_index": 0, "start": 4, "end": 5, '
               '"type": "band"}\n',
    "stop.txt": "the\nin\n",
    "gold.conll": "-DOCSTART- -X- O\n\nKurt B-musicalartist\nCobain I-musicalartist\nsang O\n\n"
                  "Nirvana B-band\nplayed O\nSeattle B-location\n\n"
                  "Kid B-album\nA I-album\nsold O\n",
    # Chunked as conlleval chunks: I-band after O, and I-album after I-band.
    "pred.conll": "Kurt B-person\nCobain I-person\nsang I-band\n\n"
                  "Nirvana B-band\nplayed O\nSeattle O\n\n"
                  "Kid I-band\nA I-album\nsold O",
    "pred_short.conll": "Kurt O\nCobain O\nsang O\n",
    "pred_long.conll": "Kurt O\nCobain O\nsang O\n\nNirvana O\nplayed O\nSeattle O\n\n"
                       "Kid O\nA O\nsold O\n\nextra O\n",
    "pred_other.conll": "Curt O\nCobain O\nsang O\n",
    "one_field.conll": "Kurt B-person\nCobain\n",
    "bad_bio.conll": "Kurt I-person\n",
    "bad_utf8.txt": b"Nirvana played.\n\xff\n",
    "bad_json.jsonl": '{"id": "j1", "text": \n',
    "no_id.jsonl": '{"text": "Nirvana played Seattle."}\n',
    "surrogate.jsonl": '{"id": "\\udc80", "text": "Nirvana played Seattle."}\n',
    "h_row.tsv": "musicalartist\tperson\tthing\n",
    "h_cycle.tsv": "musicalartist\tperson\nperson\tmusicalartist\n",
    "g_row.tsv": "Nirvana\tband name\n",
    "g_empty.tsv": "  \tband\n",
    "m_array.jsonl": "[1, 2]\n",
    "m_bool.jsonl": '{"doc_id": "corpus-000000", "sentence_index": true, "start": 0, "end": 1, '
                    '"type": "band"}\n',
    "m_negative.jsonl": '{"doc_id": "corpus-000000", "sentence_index": -1, "start": 0, '
                        '"end": 1, "type": "band"}\n',
    "m_span.jsonl": '{"doc_id": "corpus-000000", "sentence_index": 0, "start": 3, "end": 3, '
                    '"type": "band"}\n',
    "m_type.jsonl": '{"doc_id": "corpus-000000", "sentence_index": 0, "start": 0, "end": 1, '
                    '"type": "two words"}\n',
    "m_past.jsonl": '{"doc_id": "corpus-000000", "sentence_index": 0, "start": 4, "end": 99, '
                    '"type": "band"}\n',
}

_EXTRACT = ["extract", "--input", "corpus.txt", "--workers", "1", "--output", "out"]
_PRE_ANNOTATE = ["pre-annotate", "--input", "corpus.txt", "--workers", "1", "--output", "out"]
_EVAL = ["eval", "--gold", "gold.conll", "--pred"]
_MENTIONS = [*_EXTRACT, "--level", "entity", "--min-mentions", "1", "--mentions"]

# (exit code, argv) of each in-process call, run in a directory that holds FILES.
CALLS = [
    (0, ["stats", "--input", "corpus.jsonl", "--format", "jsonl"]),  # workers: the CPUs
    (0, ["stats", "--input", "long.txt", "--workers", "2"]),  # pooled; the first chunk is full
    (0, ["stats", "--input", "one.txt", "--workers", "2"]),  # one document: never a pool
    (0, [*_EXTRACT, "--level", "integrated", "--gazetteer", "g.tsv", "--hierarchy", "h.tsv",
         "--specialized", "s.txt", "--percent", "90"]),
    # No task sentence, so an empty spool; then no entity sentence, so the
    # first write is a replay.
    (0, [*_EXTRACT, "--level", "integrated", "--gazetteer", "g.tsv", "--specialized", "stop.txt"]),
    (0, [*_EXTRACT, "--level", "integrated", "--gazetteer", "g.tsv", "--specialized", "s.txt",
         "--min-mentions", "99"]),
    (0, [*_MENTIONS, "m.jsonl"]),
    (0, ["mask", "--input", "mask.txt", "--workers", "1", "--strategy", "span",
         "--rate", "0.4", "--seed", "12", "--min-len", "3", "--output", "out"]),
    (0, [*_PRE_ANNOTATE, "--gazetteer", "g.tsv", "--output", os.devnull]),  # not a regular file
    (0, [*_EVAL, "pred.conll", "--misclassify", "musicalartist,person", "--output", "out"]),
    (0, [*_EVAL, "pred.conll", "--misclassify", "band,band"]),
    (0, [*_EVAL, "pred.conll", "--misclassify", "song,band"]),
    (0, ["overlap", "--inputs", "a=corpus.txt", "--stopwords", "stop.txt"]),
    (0, ["subsample", "--input", "gold.conll", "--n", "1", "--output", "out"]),
    (0, ["subsample", "--input", "gold.conll", "--n", "0", "--output", "out"]),
    (0, ["joint", "--source", "gold.conll", "--target", "gold.conll", "--output", "out"]),  # spooled
    # Usage errors: a flag the parser rejects, or a combination it cannot see.
    (1, ["mask", "--input", "mask.txt", "--rate", "2", "--output", "out"]),
    (1, [*_EVAL, "pred.conll", "--misclassify", "band"]),
    (1, [*_EXTRACT, "--level", "task", "--gazetteer", "g.tsv"]),
    (1, ["overlap", "--inputs", "a=corpus.txt", "a=one.txt"]),
    (1, ["subsample", "--input", "gold.conll", "--n", "9", "--output", "out"]),
    # Data errors, each the first fault its input has.
    (2, ["stats", "--input", "bad_utf8.txt", "--workers", "1"]),
    (2, ["stats", "--input", "bad_json.jsonl", "--format", "jsonl", "--workers", "1"]),
    (2, ["stats", "--input", "no_id.jsonl", "--format", "jsonl", "--workers", "1"]),
    (2, ["stats", "--input", "surrogate.jsonl", "--format", "jsonl", "--workers", "1"]),
    (2, ["mask", "--input", "missing\udcff.txt", "--workers", "1", "--output", "out"]),
    (2, ["mask", "--input", ".", "--workers", "1", "--output", "out"]),  # a directory
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g.tsv", "--output", "missing/out"]),
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g.tsv", "--output", "missing/"]),
    (2, [*_EXTRACT, "--level", "task", "--gazetteer", "g.tsv", "--specialized", "s_row.txt"]),
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g.tsv", "--hierarchy", "h_row.tsv"]),
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g.tsv", "--hierarchy", "h_cycle.tsv"]),
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g_row.tsv"]),
    (2, [*_PRE_ANNOTATE, "--gazetteer", "g_empty.tsv"]),
    (2, [*_MENTIONS, "m_array.jsonl"]),
    (2, [*_MENTIONS, "m_bool.jsonl"]),
    (2, [*_MENTIONS, "m_negative.jsonl"]),
    (2, [*_MENTIONS, "m_span.jsonl"]),
    (2, [*_MENTIONS, "m_type.jsonl"]),
    (2, [*_MENTIONS, "m_past.jsonl"]),
    (2, ["ner-stats", "--input", "one_field.conll"]),
    (2, ["ner-stats", "--input", "bad_bio.conll"]),
    (2, [*_EVAL, "pred_short.conll"]),
    (2, [*_EVAL, "pred_long.conll"]),
    (2, [*_EVAL, "pred_other.conll"]),
]


class _FaultyPool(ProcessPoolExecutor):
    """A pool whose map raises the given fault before any process starts,
    as a dead worker (BrokenProcessPool) or Ctrl-C would."""

    def __init__(self, fault, **kwargs):
        super().__init__(**kwargs)
        self.fault = fault

    def map(self, *args, **kwargs):
        raise self.fault


def _replace_denied(src, dst):
    """os.replace as it fails when dst is another user's file in a sticky
    directory, where the temporary file beside it could still be made."""
    raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), src, dst)


def _statements():
    """{(path, first line): (file, function, first source line, last line)}
    of every statement inside a def in src/xner, the function being the
    innermost def around it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        defs = [node for node in ast.walk(ast.parse("\n".join(lines)))
                if isinstance(node, ast.FunctionDef)]
        no_code = {id(d.body[0]) for d in defs if ast.get_docstring(d, clean=False) is not None}
        for function in defs:  # outer defs come first, so inner ones overwrite
            for node in ast.walk(function):
                if isinstance(node, ast.Global):
                    no_code.add(id(node))
                if isinstance(node, ast.stmt) and node is not function and id(node) not in no_code:
                    found[str(path), node.lineno] = (
                        path.name, function.name, lines[node.lineno - 1].strip(), node.end_lineno
                    )
    return found


def _run_traced(tmp_path, monkeypatch, capsys):
    """The exit codes of CALLS, the pool faults and main(), and the set of
    (path, line) of every line event in src/xner while they ran. A failed
    rename, which no CLI input causes, is checked here as it runs."""
    ran, paths = set(), {}

    def line(frame, event, arg):
        if event == "line":
            ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return line

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.realpath(name)
            paths[name] = path if os.path.dirname(path) == str(SRC) else None
        return line if paths[name] else None

    monkeypatch.chdir(tmp_path)
    for name, content in FILES.items():
        (tmp_path / name).write_bytes(
            content if isinstance(content, bytes) else content.encode("utf-8")
        )
    codes = []
    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        codes += [cli.run(argv) for _, argv in CALLS]
        codes.append(cli.run(["stats", "--input", "one.txt"]))  # --workers left out
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _replace_denied)
            code = cli.run(["subsample", "--input", "gold.conll", "--n", "1", "--output", "out"])
        assert (code, capsys.readouterr().err) == (
            2, "xner: data error: [Errno 1] Operation not permitted: 'out'\n"
        )
        assert not [name for name in os.listdir() if name.endswith(".tmp")]
        for fault in (BrokenProcessPool("a child process terminated abruptly"),
                      KeyboardInterrupt()):
            monkeypatch.setattr(pipelines, "ProcessPoolExecutor",
                                partial(_FaultyPool, fault), raising=False)
            codes.append(cli.run(["stats", "--input", "corpus.txt", "--workers", "2"]))
        # ner-stats, through the console script's entry point.
        monkeypatch.setattr(sys, "argv", ["xner", "ner-stats", "--input", "gold.conll"])
        try:
            cli.main()
        except SystemExit as exc:
            codes.append(exc.code)
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    return codes, ran


def test_every_function_is_entered_by_a_cli_call(tmp_path, monkeypatch, capsys):
    # Every statement of every function runs, not only its first line.
    codes, ran = _run_traced(tmp_path, monkeypatch, capsys)
    assert codes == [code for code, _ in CALLS] + [0, 2, 130, 0]

    statements = _statements()
    did_run = {
        key: any((key[0], n) in ran for n in range(key[1], last + 1))
        for key, (_, _, _, last) in statements.items()
    }
    exempt = set()
    for entry in ALLOWED:
        named = [key for key, value in statements.items() if value[:3] == entry]
        assert len(named) == 1, f"{entry} names {len(named)} statements"
        [(path, first)] = named
        covered = {key for key in statements
                   if key[0] == path and first <= key[1] <= statements[path, first][3]}
        assert not all(did_run[key] for key in covered), f"{entry} runs; drop it from ALLOWED"
        exempt |= covered
    missing = [
        f"{name}:{first} {function}: {source}"
        for (path, first), (name, function, source, _) in sorted(statements.items())
        if not did_run[path, first] and (path, first) not in exempt
    ]
    assert not missing, "never run:\n" + "\n".join(missing)
