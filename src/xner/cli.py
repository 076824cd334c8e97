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
import stat
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from xner.corpus import corpus_tokens, load_corpus
from xner.errors import DataError, UsageError, data_lines
from xner.evaluation import misclassification_rate, score, vocab_overlap
from xner.gazetteer import TypeHierarchy, load_gazetteer
from xner.masker import MaskingConfig, build_vocabulary
from xner.nerdata import (
    JointConfig,
    build_joint,
    dataset_stats,
    iter_conll,
    parse_conll,
    serialize_conll,
    subsample,
)
from xner.pipelines import (
    LEVELS,
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
    p.add_argument("--level", choices=LEVELS, required=True)
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
    or pipe (such as /dev/stdout) is written through, in place; the
    regular file that stdout is redirected to is written through stdout's
    own file description, so the data and then the summary land in order.
    """
    if _is_stdout_file(path):
        sys.stdout.flush()
        with open(os.dup(1), "w", encoding="utf-8") as fh:
            yield fh
        return
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


def _is_stdout_file(path) -> bool:
    try:
        out, target = os.fstat(1), os.stat(path)
    except OSError:
        return False
    return stat.S_ISREG(out.st_mode) and os.path.samestat(out, target)


def _workers(args) -> int:
    n = args.workers
    if n is None:
        env = os.environ.get("XNER_WORKERS")
        if env and not env.strip().isdecimal():
            raise UsageError(f"XNER_WORKERS must be a positive integer, got {env!r}")
        n = int(env) if env else os.cpu_count() or 1
    if n < 1:
        raise UsageError("--workers and XNER_WORKERS must be >= 1")
    return n


def _word_list(path) -> list[str]:
    return [line.strip() for _, line in data_lines(path)]


def _load_hierarchy(path) -> TypeHierarchy | None:
    return TypeHierarchy.load(path) if path else None


def _cmd_stats(args) -> None:
    stats = stats_documents(load_corpus(args.input, args.format), _workers(args))
    _emit(stats.as_dict())


def _cmd_extract(args) -> None:
    hierarchy = _load_hierarchy(args.hierarchy)
    gazetteer = load_gazetteer(args.gazetteer, hierarchy) if args.gazetteer else None
    mentions = load_external_mentions(args.mentions) if args.mentions else None
    specialized = _word_list(args.specialized) if args.specialized else ()
    try:
        groups = select_documents(
            load_corpus(args.input, args.format),
            args.level,
            gazetteer,
            SelectorConfig(args.min_mentions, args.min_specialized, args.upsample),
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
    if args.vocab_size < 1:
        raise UsageError("--vocab-size must be >= 1")
    workers = _workers(args)
    _log("building replacement vocabulary")
    tokens = corpus_tokens(load_corpus(args.input, args.format))
    vocabulary = build_vocabulary(tokens, args.vocab_size)
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
    report = score(parse_conll(args.gold), iter_conll(args.pred, strict=False))
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
        if name in corpora:
            raise UsageError(f"--inputs repeats the name {name!r}")
        corpora[name] = corpus_tokens(load_corpus(path, args.format))
    stopwords = _word_list(args.stopwords) if args.stopwords else None
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    matrix = vocab_overlap(corpora, args.top_k, stopwords)
    _emit(matrix.as_dict())


def _cmd_pre_annotate(args) -> None:
    gazetteer = load_gazetteer(args.gazetteer, hierarchy=_load_hierarchy(args.hierarchy))
    workers = _workers(args)
    with _output(args.output) as fh:
        sentences = write_pre_annotated(
            load_corpus(args.input, args.format), gazetteer, fh, workers
        )
    _log(f"pre-annotated {sentences} sentences to {args.output}")
    # "review_flags" is always 0; it stays because bench/run.py checks this exact summary.
    _emit({"sentences": sentences, "review_flags": 0})


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
