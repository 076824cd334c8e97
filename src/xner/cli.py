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
import heapq
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from itertools import count
from pathlib import Path

from xner.corpus import LONE_SURROGATE, corpus_tokens, load_corpus
from xner.errors import DataError, UsageError, WorkerError, data_lines
from xner.evaluation import misclassification_rate, score, vocab_overlap
from xner.gazetteer import load_gazetteer, load_hierarchy
from xner.masker import MaskingConfig, build_vocabulary
from xner.nerdata import dataset_stats, iter_conll, parse_conll
from xner.pipelines import (
    LEVELS,
    select_documents,
    stats_documents,
    write_groups,
    write_masked,
    write_pre_annotated,
)
from xner.seeding import stable_hash
from xner.selector import SelectorConfig, load_external_mentions


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(kind, lo, hi, expected):
    """An argparse type: kind(text) when lo <= value <= hi, which NaN and the
    infinities never are; else a usage error that names the flag."""
    def parse(text):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # so a non-number reads "invalid int value: 'x'"
    return parse


_POSITIVE = _number(int, 1, math.inf, ">= 1")


def _pair(separator, form):
    """An argparse type: the two non-empty parts of text around its first
    separator; else a usage error that names the flag and the form."""
    def parse(text):
        first, _, second = text.partition(separator)
        if not (first and second):
            raise argparse.ArgumentTypeError(f"must be {form}, got {text!r}")
        return first, second
    return parse


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_corpus_args(p):
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p.add_argument("--workers", type=_POSITIVE, default=_cpus(),
                   help="worker processes (default: the CPUs xner may use)")


def build_parser() -> _Parser:
    parser = _Parser(prog="xner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="paragraph/sentence/token counts")
    _add_corpus_args(p)

    p = sub.add_parser("extract", help="build a pre-training corpus")
    _add_corpus_args(p)
    p.add_argument("--level", choices=LEVELS, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gazetteer", help="surface<TAB>type TSV")
    source.add_argument("--mentions", help="external mention JSONL instead of gazetteer matching")
    p.add_argument("--hierarchy", help="child<TAB>parent TSV")
    p.add_argument("--specialized", help="one specialized type per line")
    p.add_argument("--min-mentions", type=_POSITIVE, default=2)
    p.add_argument("--min-specialized", type=_POSITIVE, default=1)
    p.add_argument("--upsample", type=_POSITIVE, default=2)
    p.add_argument("--percent", type=_number(float, 0, 100, "in [0, 100]"), default=None,
                   help="keep this percentage of sentences before selection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("mask", help="generate masked LM examples")
    _add_corpus_args(p)
    p.add_argument("--strategy", choices=("token", "span"), default="token")
    p.add_argument("--rate", default=0.15, type=_number(
        float, math.nextafter(0, 1), math.nextafter(1, 0), "in (0, 1)"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-len", type=_POSITIVE, default=5)
    p.add_argument("--vocab-size", type=_POSITIVE, default=50_000)
    p.add_argument("--output", required=True)

    p = sub.add_parser("ner-stats", help="labeled split statistics")
    p.add_argument("--input", required=True, help="CoNLL file")

    p = sub.add_parser("eval", help="entity-level F1 evaluation")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--misclassify", metavar="FROM,TO",
                   type=_pair(",", "FROM,TO with both types given"),
                   help="also report the FROM->TO exact-span misclassification rate")
    p.add_argument("--output", help="write the full JSON report here")

    p = sub.add_parser("overlap", help="vocabulary overlap between corpora")
    p.add_argument("--inputs", nargs="+", required=True, metavar="NAME=PATH",
                   type=_pair("=", "NAME=PATH with both given"))
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p.add_argument("--top-k", type=_POSITIVE, default=5000)
    p.add_argument("--stopwords", help="one stopword per line (default: built-in list)")

    p = sub.add_parser("pre-annotate", help="gazetteer BIO pre-annotation")
    _add_corpus_args(p)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--hierarchy")
    p.add_argument("--output", required=True, help="CoNLL output")

    p = sub.add_parser("subsample", help="few-shot training subsample")
    p.add_argument("--input", required=True, help="CoNLL file")
    p.add_argument("--n", type=_number(int, 0, math.inf, ">= 0"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("joint", help="source + upsampled target joint set")
    p.add_argument("--source", required=True, help="CoNLL file")
    p.add_argument("--target", required=True, help="CoNLL file")
    p.add_argument("--multiplier", type=_POSITIVE, default=100)
    p.add_argument("--output", required=True)

    return parser


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False))


@contextmanager
def _output(path):
    """A UTF-8 text file that replaces path when the block succeeds.

    It is written as the temporary file .NAME.<hex>.tmp beside path as
    given, made before the command reads any input; on any error that
    file is removed and path is left untouched. A symlink, device
    or pipe (such as /dev/stdout) is written through, in place; the
    regular file that stdout is redirected to is written through stdout's
    own file description, so the data and then the summary land in order.
    """
    if _is_stdout_file(path):
        sys.stdout.flush()
        with open(os.dup(1), "w", encoding="utf-8") as fh:
            yield fh
        return
    # "" fails in open() at once; as a directory and a name it would fail
    # only at the rename.
    if not path or os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    # From the path as given, "missing/" and "afile/" fail here, not at the rename.
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")  # the mode open(path, "w") would give
    except OSError as exc:  # it names the temporary file; report the output path
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as for the create, report the output path
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _is_stdout_file(path) -> bool:
    try:
        out, target = os.fstat(1), os.stat(path)
    except OSError:
        return False
    return stat.S_ISREG(out.st_mode) and os.path.samestat(out, target)


def _word_list(path) -> list[str]:
    """One word per non-blank line; no type or token holds whitespace, so a
    line with inner whitespace could never match and is a data error."""
    words = []
    for lineno, line in data_lines(path):
        word = line.strip()
        if len(word.split()) > 1:
            raise DataError(f"{path}:{lineno}: expected one word, got {word!r}")
        words.append(word)
    return words


def _cmd_stats(args) -> None:
    stats = stats_documents(load_corpus(args.input, args.format), args.workers)
    _emit(stats._asdict())


def _cmd_extract(args) -> None:
    with _output(args.output) as fh:
        specialized = _word_list(args.specialized) if args.specialized is not None else ()
        if args.level != "entity" and not specialized:
            raise UsageError(f"--level {args.level} needs a non-empty --specialized list")
        parent_of = load_hierarchy(args.hierarchy) if args.hierarchy is not None else {}
        # The parser gives exactly one of --gazetteer and --mentions.
        gazetteer = load_gazetteer(args.gazetteer, parent_of) if args.mentions is None else None
        mentions = load_external_mentions(args.mentions) if args.mentions is not None else None
        groups = select_documents(
            load_corpus(args.input, args.format),
            args.level,
            gazetteer,
            SelectorConfig(args.min_mentions, args.min_specialized, args.upsample),
            mentions=mentions,
            specialized_types=specialized,
            percent=args.percent,
            seed=args.seed,
            workers=args.workers,
        )
        sentences, tokens = write_groups(groups, fh)
    _log(f"wrote {sentences} sentences to {args.output}")
    _emit({"level": args.level, "sentences": sentences, "tokens": tokens})


def _cmd_mask(args) -> None:
    cfg = MaskingConfig(args.rate, args.strategy, args.seed, args.min_len)
    # Each line holds its document's id, which starts with a plain file's stem.
    if args.format == "plain" and LONE_SURROGATE.search(Path(args.input).stem):
        name = os.fsencode(args.input).decode(errors="backslashreplace")
        raise DataError(f"{name}: the file name is not valid UTF-8")
    with _output(args.output) as fh:
        # The vocabulary pass and the masking pass each read the input, and
        # a pipe reads empty the second time. One tokenizer pass per run
        # (see ROADMAP) would make this check unnecessary.
        if not stat.S_ISREG(os.stat(args.input).st_mode):
            raise DataError(f"{args.input}: mask reads its input twice; give a regular file")
        _log("building replacement vocabulary")
        tokens = corpus_tokens(load_corpus(args.input, args.format))
        vocabulary = build_vocabulary(tokens, args.vocab_size)
        examples, targets = write_masked(
            load_corpus(args.input, args.format), cfg, vocabulary, fh, args.workers
        )
    _log(f"wrote {examples} examples to {args.output}")
    _emit({"strategy": args.strategy, "sentences": examples, "targets": targets})


def _cmd_ner_stats(args) -> None:
    _emit(dataset_stats(iter_conll(args.input)))


def _cmd_eval(args) -> None:
    with _output(args.output) if args.output is not None else nullcontext() as fh:
        report = score(parse_conll(args.gold), iter_conll(args.pred, strict=False))
        if fh is not None:
            json.dump(report, fh, ensure_ascii=False, indent=2)
    if fh is not None:
        _log(f"wrote full report to {args.output}")
    summary = {key: report["micro"][key] for key in ("precision", "recall", "f1")}
    if args.misclassify:
        from_type, to_type = args.misclassify
        rate = misclassification_rate(report, from_type, to_type)
        key = "correctly_classified_rate" if from_type == to_type else "misclassification_rate"
        summary |= {key: rate, "from": from_type, "to": to_type}
    _emit(summary)


def _cmd_overlap(args) -> None:
    corpora = {}
    for name, path in args.inputs:
        if name in corpora:
            raise UsageError(f"--inputs repeats the name {name!r}")
        corpora[name] = corpus_tokens(load_corpus(path, args.format))
    stopwords = _word_list(args.stopwords) if args.stopwords is not None else None
    _emit(vocab_overlap(corpora, args.top_k, stopwords))


def _cmd_pre_annotate(args) -> None:
    with _output(args.output) as fh:
        parent_of = load_hierarchy(args.hierarchy) if args.hierarchy is not None else {}
        gazetteer = load_gazetteer(args.gazetteer, parent_of)
        sentences = write_pre_annotated(
            load_corpus(args.input, args.format), gazetteer, fh, args.workers
        )
    _log(f"pre-annotated {sentences} sentences to {args.output}")
    # "review_flags" is always 0; it stays because bench/run.py checks this exact summary.
    _emit({"sentences": sentences, "review_flags": 0})


def _cmd_subsample(args) -> None:
    """Hold only the --n sentences with the smallest (stable_hash(seed, "", i), i),
    i being a sentence's ordinal, and write them in file order, each as the
    lines it was read from, then one blank line."""
    ordinals = count()
    keyed = (  # iter_conll ends the zip, so next(ordinals) is then the count
        (stable_hash(args.seed, "", i), i, s.lines)
        for s, i in zip(iter_conll(args.input), ordinals)
    )
    with _output(args.output) as fh:
        kept = heapq.nsmallest(args.n, keyed)
        for _ in keyed:  # --n 0 takes nothing, but every sentence is still read
            pass
        total = next(ordinals)
        if args.n > total:
            raise UsageError(f"--n must be in [0, {total}]")
        for _, _, lines in sorted(kept, key=lambda k: k[1]):
            fh.write(lines + "\n")
    _emit({"sampled": args.n, "from": total, "seed": args.seed})


def _cmd_joint(args) -> None:
    """The source's sentences as they stream in, then the target's
    --multiplier times, each as its lines then one blank line. The target
    is read, and so checked, before any output is written."""
    source = 0
    with _output(args.output) as fh:
        target = [s.lines + "\n" for s in iter_conll(args.target)]
        for source, s in enumerate(iter_conll(args.source), 1):
            fh.write(s.lines + "\n")
        for _ in range(args.multiplier):
            fh.writelines(target)
    _emit({
        "source": source,
        "target": len(target),
        "multiplier": args.multiplier,
        "total": source + len(target) * args.multiplier,
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
    except WorkerError as exc:
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
