"""Every function in src/xner is run by some CLI call.

The CLI is the product, so a function that no subcommand enters is code
that only tests reach. This test profiles one in-process call per
subcommand, plus the option paths that have their own code (JSONL input,
external mentions, --percent, a type hierarchy, eval's extra outputs, a
pooled run, a usage error and the console-script entry point), and
requires every def in src/xner to have been entered. Only the two pool
functions are exempt: they run inside the worker processes.
"""

import ast
import json
import os
import sys
from pathlib import Path

import xner
from xner import cli

SRC = Path(xner.__file__).resolve().parent
POOL_ONLY = {("pipelines.py", "_set_pool_worker"), ("pipelines.py", "_call_pool_worker")}


def _defs():
    """{(file path, first line): (file name, function name)} of every def,
    the first line being its first decorator's, as code objects count it."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs[str(path), first] = (path.name, node.name)
    return defs


def _inputs(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "Kurt Cobain sang with Nirvana in Seattle. Dr. Smith met Nirvana in Seattle.\n"
        "\n"
        "Radiohead released Kid A in October. It's a band (from Oxford).\n",
        encoding="utf-8",
    )
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text(
        json.dumps({"id": "j1", "text": "Nirvana played Seattle.\nRadiohead did too."}) + "\n",
        encoding="utf-8",
    )
    gazetteer = tmp_path / "g.tsv"
    gazetteer.write_text(  # Kurt Cobain has two types, resolved under the hierarchy
        "Kurt Cobain\tperson\nKurt Cobain\tmusicalartist\nNirvana\tband\n"
        "Seattle\tlocation\nRadiohead\tband\nKid A\talbum\n",
        encoding="utf-8",
    )
    hierarchy = tmp_path / "h.tsv"
    hierarchy.write_text("musicalartist\tperson\n", encoding="utf-8")
    specialized = tmp_path / "s.txt"
    specialized.write_text("band\nalbum\n", encoding="utf-8")
    mentions = tmp_path / "m.jsonl"
    mentions.write_text(
        json.dumps({"doc_id": "corpus-000000", "sentence_index": 0,
                    "start": 4, "end": 5, "type": "band"}) + "\n",
        encoding="utf-8",
    )
    gold = tmp_path / "gold.conll"
    gold.write_text(
        "Kurt B-musicalartist\nCobain I-musicalartist\nsang O\n\n"
        "Nirvana B-band\nplayed O\nSeattle B-location\n",
        encoding="utf-8",
    )
    pred = tmp_path / "pred.conll"
    pred.write_text(
        "Kurt B-person\nCobain I-person\nsang O\n\n"
        "Nirvana B-band\nplayed O\nSeattle O\n",
        encoding="utf-8",
    )
    return corpus, jsonl, gazetteer, hierarchy, specialized, mentions, gold, pred


def test_every_function_is_entered_by_a_cli_call(tmp_path, capsys, monkeypatch):
    corpus, jsonl, gazetteer, hierarchy, specialized, mentions, gold, pred = _inputs(tmp_path)
    out = str(tmp_path / "out")
    calls = [
        (0, ["stats", "--input", str(jsonl), "--format", "jsonl", "--workers", "1"]),
        (0, ["stats", "--input", str(corpus), "--workers", "2"]),  # two documents, pooled
        (0, ["extract", "--input", str(corpus), "--workers", "1", "--level", "integrated",
             "--gazetteer", str(gazetteer), "--hierarchy", str(hierarchy),
             "--specialized", str(specialized), "--percent", "100", "--output", out]),
        (0, ["extract", "--input", str(corpus), "--workers", "1", "--level", "entity",
             "--mentions", str(mentions), "--min-mentions", "1", "--output", out]),
        (0, ["mask", "--input", str(corpus), "--workers", "1", "--strategy", "span",
             "--output", out]),
        (0, ["pre-annotate", "--input", str(corpus), "--workers", "1",
             "--gazetteer", str(gazetteer), "--hierarchy", str(hierarchy), "--output", out]),
        (0, ["ner-stats", "--input", str(gold)]),
        (0, ["eval", "--gold", str(gold), "--pred", str(pred),
             "--misclassify", "musicalartist,person", "--output", out]),
        (0, ["overlap", "--inputs", f"a={corpus}", f"b={corpus}", "--top-k", "5"]),
        (0, ["subsample", "--input", str(gold), "--n", "1", "--output", out]),
        (0, ["joint", "--source", str(gold), "--target", str(gold), "--output", out]),
        (1, ["stats"]),  # a usage error: --input is required
    ]
    monkeypatch.setattr(sys, "argv", ["xner", "ner-stats", "--input", str(gold)])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sys.setprofile(profile)
    try:
        for _, argv in calls:
            codes.append(cli.run(argv))
        try:
            cli.main()
        except SystemExit as exc:
            codes.append(exc.code)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for code, _ in calls] + [0]

    entered = {(os.path.realpath(name), line) for name, line in entered}
    missing = sorted(
        f"{name}:{line} {func}"
        for (path, line), (name, func) in _defs().items()
        if (path, line) not in entered and (name, func) not in POOL_ONLY
    )
    assert missing == []
