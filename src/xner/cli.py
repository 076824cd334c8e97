"""Single executable exposing every pipeline with reproducible configuration.

Prints a machine-readable JSON summary on stdout and human logs on
stderr. Exit codes: 0 success, 1 usage error, 2 data error or crashed
worker, 130 interrupted. Every run with identical flags and inputs
produces byte-identical outputs; seeds are flags, never wall-clock, and
--workers only changes the runtime. An output file is replaced only when
its command succeeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from xner.corpus import load_corpus, split_text
from xner.errors import DataError, UsageError, open_text
from xner.evaluation import misclassification_rate, score, vocab_overlap
from xner.gazetteer import TypeHierarchy, load_gazetteer
from xner.masker import MaskingConfig, build_vocabulary
from xner.nerdata import (
    JointConfig,
    build_joint,
    dataset_stats,
    parse_conll,
    serialize_conll,
    subsample,
)
from xner.pipelines import (
    select_documents,
    stats_documents,
    write_groups,
    write_masked,
    write_pre_annotated,
)
from xner.selector import SelectorConfig, load_external_mentions


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_workers() -> int:
    env = os.environ.get("XNER_WORKERS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def _add_corpus_args(p):
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: XNER_WORKERS or CPU count)")


def build_parser() -> _Parser:
    parser = _Parser(prog="xner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="paragraph/sentence/token counts")
    _add_corpus_args(p)

    p = sub.add_parser("extract", help="build a pre-training corpus")
    _add_corpus_args(p)
    p.add_argument("--level", choices=("entity", "task", "integrated"), required=True)
    p.add_argument("--gazetteer", help="surface<TAB>type TSV")
    p.add_argument("--hierarchy", help="child<TAB>parent TSV")
    p.add_argument("--specialized", help="one specialized type per line")
    p.add_argument("--mentions", help="external mention JSONL instead of gazetteer matching")
    p.add_argument("--min-mentions", type=int, default=2)
    p.add_argument("--min-specialized", type=int, default=1)
    p.add_argument("--upsample", type=int, default=2)
    p.add_argument("--percent", type=float, default=None,
                   help="keep this percentage of sentences before selection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("mask", help="generate masked LM examples")
    _add_corpus_args(p)
    p.add_argument("--strategy", choices=("token", "span"), default="token")
    p.add_argument("--rate", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-len", type=int, default=5)
    p.add_argument("--vocab-size", type=int, default=50_000)
    p.add_argument("--output", required=True)

    p = sub.add_parser("ner-stats", help="labeled split statistics")
    p.add_argument("--input", required=True, help="CoNLL file")

    p = sub.add_parser("eval", help="entity-level F1 evaluation")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--misclassify", metavar="FROM,TO",
                   help="also report the FROM->TO exact-span misclassification rate")
    p.add_argument("--output", help="write the full JSON report here")

    p = sub.add_parser("overlap", help="vocabulary overlap between corpora")
    p.add_argument("--inputs", nargs="+", required=True, metavar="NAME=PATH")
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p.add_argument("--top-k", type=int, default=5000)
    p.add_argument("--stopwords", help="one stopword per line (default: built-in list)")

    p = sub.add_parser("pre-annotate", help="gazetteer BIO pre-annotation")
    _add_corpus_args(p)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--hierarchy")
    p.add_argument("--output", required=True, help="CoNLL output")

    p = sub.add_parser("subsample", help="few-shot training subsample")
    p.add_argument("--input", required=True, help="CoNLL file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("joint", help="source + upsampled target joint set")
    p.add_argument("--source", required=True, help="CoNLL file")
    p.add_argument("--target", required=True, help="CoNLL file")
    p.add_argument("--multiplier", type=int, default=100)
    p.add_argument("--output", required=True)

    return parser


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False))


@contextmanager
def _output(path):
    """A UTF-8 text file that replaces path when the block succeeds.

    It is written as a temporary file in path's directory; on any error
    that file is removed and path is left untouched. A symlink, device
    or pipe (such as /dev/stdout) is written through, in place.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp",
        dir=os.path.dirname(os.path.abspath(path)),
    )
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # what open(path, "w") would create
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _workers(args) -> int:
    n = args.workers if args.workers is not None else _default_workers()
    if n < 1:
        raise UsageError("--workers must be >= 1")
    return n


def _load_hierarchy(path) -> TypeHierarchy | None:
    return TypeHierarchy.load(path) if path else None


def _cmd_stats(args) -> None:
    stats = stats_documents(load_corpus(args.input, args.format), _workers(args))
    _emit(stats.as_dict())


def _cmd_extract(args) -> None:
    hierarchy = _load_hierarchy(args.hierarchy)
    gazetteer = None
    if args.gazetteer:
        gazetteer = load_gazetteer(args.gazetteer, args.specialized, hierarchy)
    mentions = load_external_mentions(args.mentions) if args.mentions else None
    if gazetteer is None and mentions is None:
        raise UsageError("extract requires --gazetteer or --mentions")
    try:
        cfg = SelectorConfig(args.min_mentions, args.min_specialized, args.upsample)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.percent is not None and not 0 <= args.percent <= 100:
        raise UsageError("--percent must be in [0, 100]")
    specialized = None
    if args.specialized and gazetteer is None:
        with open_text(args.specialized) as fh:
            specialized = [line.strip() for line in fh if line.strip()]
    try:
        groups = select_documents(
            load_corpus(args.input, args.format),
            args.level,
            gazetteer,
            cfg,
            mentions=mentions,
            specialized_types=specialized,
            percent=args.percent,
            seed=args.seed,
            workers=_workers(args),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    with _output(args.output) as fh:
        sentences, tokens = write_groups(groups, fh)
    _log(f"wrote {sentences} sentences to {args.output}")
    _emit({"level": args.level, "sentences": sentences, "tokens": tokens})


def _cmd_mask(args) -> None:
    try:
        cfg = MaskingConfig(
            mask_rate=args.rate,
            strategy=args.strategy,
            seed=args.seed,
            min_sentence_len=args.min_len,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    workers = _workers(args)
    _log("building replacement vocabulary")
    vocabulary = build_vocabulary(
        (
            token
            for doc in load_corpus(args.input, args.format)
            for paragraph in doc.paragraphs
            for token in split_text(paragraph)
        ),
        args.vocab_size,
    )
    with _output(args.output) as fh:
        examples, targets = write_masked(
            load_corpus(args.input, args.format), cfg, vocabulary, fh, workers
        )
    _log(f"wrote {examples} examples to {args.output}")
    _emit({"strategy": args.strategy, "sentences": examples, "targets": targets})


def _cmd_ner_stats(args) -> None:
    stats = dataset_stats(parse_conll(args.input))
    _emit(stats.as_dict())


def _cmd_eval(args) -> None:
    report = score(parse_conll(args.gold), parse_conll(args.pred))
    summary = {
        "precision": report.micro.precision,
        "recall": report.micro.recall,
        "f1": report.micro.f1,
    }
    if args.misclassify:
        try:
            from_type, to_type = args.misclassify.split(",", 1)
        except ValueError as exc:
            raise UsageError("--misclassify expects FROM,TO") from exc
        rate = misclassification_rate(report, from_type, to_type)
        key = (
            "correctly_classified_rate"
            if from_type == to_type
            else "misclassification_rate"
        )
        summary[key] = rate
        summary["from"] = from_type
        summary["to"] = to_type
    if args.output:
        with _output(args.output) as fh:
            json.dump(report.as_dict(), fh, ensure_ascii=False, indent=2)
        _log(f"wrote full report to {args.output}")
    _emit(summary)


def _cmd_overlap(args) -> None:
    corpora = {}
    for spec in args.inputs:
        if "=" not in spec:
            raise UsageError(f"--inputs entries must be NAME=PATH, got {spec!r}")
        name, path = spec.split("=", 1)
        corpora[name] = [
            token
            for doc in load_corpus(path, args.format)
            for paragraph in doc.paragraphs
            for token in split_text(paragraph)
        ]
    stopwords = None
    if args.stopwords:
        with open_text(args.stopwords) as fh:
            stopwords = [line.strip() for line in fh if line.strip()]
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    matrix = vocab_overlap(corpora, args.top_k, stopwords)
    _emit(matrix.as_dict())


def _cmd_pre_annotate(args) -> None:
    gazetteer = load_gazetteer(args.gazetteer, hierarchy=_load_hierarchy(args.hierarchy))
    workers = _workers(args)
    with _output(args.output) as fh:
        sentences, flagged = write_pre_annotated(
            load_corpus(args.input, args.format), gazetteer, fh, workers
        )
    _log(f"pre-annotated {sentences} sentences to {args.output}")
    _emit({"sentences": sentences, "review_flags": flagged})


def _cmd_subsample(args) -> None:
    train = parse_conll(args.input)
    if not 0 <= args.n <= len(train):
        raise UsageError(f"--n must be in [0, {len(train)}]")
    sample = subsample(train, args.n, args.seed)
    with _output(args.output) as fh:
        serialize_conll(sample, fh)
    _emit({"sampled": len(sample), "from": len(train), "seed": args.seed})


def _cmd_joint(args) -> None:
    try:
        cfg = JointConfig(args.multiplier)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    source = parse_conll(args.source)
    target = parse_conll(args.target)
    joint = build_joint(source, target, cfg)
    with _output(args.output) as fh:
        serialize_conll(joint, fh)
    _emit({
        "source": len(source),
        "target": len(target),
        "multiplier": cfg.multiplier,
        "total": len(joint),
    })


_COMMANDS = {
    "stats": _cmd_stats,
    "extract": _cmd_extract,
    "mask": _cmd_mask,
    "ner-stats": _cmd_ner_stats,
    "eval": _cmd_eval,
    "overlap": _cmd_overlap,
    "pre-annotate": _cmd_pre_annotate,
    "subsample": _cmd_subsample,
    "joint": _cmd_joint,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"xner: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"xner: data error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"xner: worker process died: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("xner: interrupted", file=sys.stderr)
        return 130
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
