"""xner benchmark: seeded inputs, three CLI workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ./src.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 runs the workload's xner CLI calls as subprocesses, one at a
time (a closed loop with one caller, the way this batch tool is used),
repeating them until --seconds have passed, and reports:

  tokens_per_s  generated input tokens / wall time of the workload's calls
                (median over repetitions)
  peak_rss_mb   largest resident set among the calls and their pool
                workers, from os.wait4 (median over repetitions)
  setup_s       wall time of the same calls on a one-sentence-per-document
                corpus with the same dictionary files (median of 7)

--trace 1 runs the same calls in this process at --workers 1 with the
layer tracer of layer_trace.py installed and reports its per-layer
metrics. Spans and counters go to .bench_work/trace/.

Every call is checked: exit code, the stdout JSON summary, and the
SHA-256 of each output file, against values derived from the generator's
own token lists and, for the seeds in expected.json, against recorded
values. attempted/failed count CLI calls; their ratio is the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen_inputs  # noqa: E402

SETUP_REPEATS = 7
EXPECTED_PATH = BENCH_DIR / "expected.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    """Files of one workload plus what the generator knows about them."""

    corpus: gen_inputs.Corpus
    corpus_path: Path
    gazetteer: Path
    hierarchy: Path
    specialized: Path
    gold: Path


def write_inputs(directory: Path, dictionary, corpus, with_gold: bool) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        corpus, directory / "corpus.txt", directory / "gazetteer.tsv",
        directory / "hierarchy.tsv", directory / "specialized.txt", directory / "gold.conll",
    )
    inputs.corpus_path.write_text(corpus.plain_text(), encoding="utf-8")
    inputs.gazetteer.write_text(dictionary.gazetteer_tsv(), encoding="utf-8")
    inputs.hierarchy.write_text(dictionary.hierarchy_tsv(), encoding="utf-8")
    inputs.specialized.write_text(dictionary.specialized_txt(), encoding="utf-8")
    if with_gold:
        inputs.gold.write_text(gen_inputs.conll(corpus.iter_sentences(), "gold"), encoding="utf-8")
    return inputs


def tiny_corpus(corpus, documents: int):
    """The first sentence of each of the first `documents` documents."""
    docs = [[[doc[0][0]]] for doc in corpus.docs[:documents]]
    sentences = [doc[0][0] for doc in docs]
    return gen_inputs.Corpus(docs, sum(len(s.tokens) for s in sentences), len(sentences))


# ---------------------------------------------------------------- expectations


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _integrated(corpus) -> tuple[dict, str]:
    """Summary and output text of extract --level integrated (upsample 2)."""
    entity, task = [], []
    for doc in corpus.docs:
        sentences = [s for paragraph in doc for s in paragraph]
        entity.append([s for s in sentences if s.mentions >= 2])
        task.append([s for s in sentences if s.specialized >= 1])
    groups = [g for g in entity + task * 2 if g]
    text = "\n".join("".join(" ".join(s.tokens) + "\n" for s in g) for g in groups)
    summary = {
        "level": "integrated",
        "sentences": sum(len(g) for g in groups),
        "tokens": sum(len(s.tokens) for g in groups for s in g),
    }
    return summary, text


def mask_budget(length: int) -> int:
    return max(1, math.floor(0.15 * length + 0.5))


def _chunks(tags) -> set:
    spans, start = set(), None
    for i, tag in enumerate(list(tags) + ["O"]):
        if start is not None and not tag.startswith("I-"):
            spans.add((start, i, tags[start][2:]))
            start = None
        if tag.startswith("B-"):
            start = i
    return spans


def _eval_summary(corpus) -> dict:
    gold = pred = correct = 0
    for s in corpus.iter_sentences():
        g, p = _chunks(s.gold), _chunks(s.pred)
        gold, pred, correct = gold + len(g), pred + len(p), correct + len(g & p)
    precision = correct / pred if pred else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


@dataclass
class Call:
    """One CLI call and what its outputs must be."""

    argv: list
    summary: dict
    output: Path | None = None
    output_sha: str | None = None  # None: not derivable from the generator
    check_output: object = None  # callable(path) -> error string or None


def _check_mask_output(corpus, stem: str):
    """Validate every masked example against the generator's sentences."""

    def check(path: Path):
        expected = [
            (f"{stem}-{d:06d}", i, s.tokens)
            for d, doc in enumerate(corpus.docs)
            for i, s in enumerate(s for paragraph in doc for s in paragraph)
            if len(s.tokens) >= 5
        ]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} masked examples, expected {len(expected)}"
        for lineno, (line, (doc_id, index, tokens)) in enumerate(zip(lines, expected), 1):
            rec = json.loads(line)
            out, targets = rec["tokens"], rec["targets"]
            positions = [t["pos"] for t in targets]
            if (rec["doc_id"], rec["sentence_index"]) != (doc_id, index) or len(out) != len(tokens):
                return f"line {lineno}: wrong sentence"
            if positions != sorted(set(positions)) or len(positions) != mask_budget(len(tokens)):
                return f"line {lineno}: bad target positions {positions}"
            chosen = set(positions)
            if any(out[i] != tokens[i] for i in range(len(tokens)) if i not in chosen):
                return f"line {lineno}: unmasked token changed"
            for t in targets:
                pos, kind = t["pos"], t["kind"]
                ok = t["orig"] == tokens[pos] and (
                    (kind == "mask" and out[pos] == "[MASK]")
                    or (kind == "keep" and out[pos] == tokens[pos])
                    or kind == "random"
                )
                if not ok:
                    return f"line {lineno}: bad target {t}"
        return None

    return check


def workload_calls(workload: str, inputs: Inputs, out_dir: Path, workers: int) -> list[Call]:
    corpus = inputs.corpus
    if workload == "extract_integrated":
        summary, text = _integrated(corpus)
        out = out_dir / "integrated.txt"
        argv = [
            "extract", "--level", "integrated", "--input", str(inputs.corpus_path),
            "--gazetteer", str(inputs.gazetteer), "--hierarchy", str(inputs.hierarchy),
            "--specialized", str(inputs.specialized), "--workers", str(workers),
            "--output", str(out),
        ]
        return [Call(argv, summary, out, _sha(text))]
    if workload == "mask_span":
        sentences = [s for s in corpus.iter_sentences() if len(s.tokens) >= 5]
        summary = {
            "strategy": "span",
            "sentences": len(sentences),
            "targets": sum(mask_budget(len(s.tokens)) for s in sentences),
        }
        out = out_dir / "masked.jsonl"
        argv = [
            "mask", "--strategy", "span", "--input", str(inputs.corpus_path),
            "--workers", str(workers), "--output", str(out),
        ]
        return [Call(argv, summary, out, None, _check_mask_output(corpus, inputs.corpus_path.stem))]
    if workload == "annotate_eval":
        pred = out_dir / "pre_annotated.conll"
        annotate = [
            "pre-annotate", "--input", str(inputs.corpus_path),
            "--gazetteer", str(inputs.gazetteer), "--hierarchy", str(inputs.hierarchy),
            "--workers", str(workers), "--output", str(pred),
        ]
        evaluate = ["eval", "--gold", str(inputs.gold), "--pred", str(pred)]
        return [
            Call(
                annotate,
                {"sentences": corpus.sentences, "review_flags": 0},
                pred,
                _sha(gen_inputs.conll(corpus.iter_sentences(), "pred")),
            ),
            Call(evaluate, _eval_summary(corpus)),
        ]
    raise ValueError(workload)


# Why each workload is in the benchmark: see BENCHMARK.json and README.md.
WORKLOADS = {
    # name: (corpus tokens, worker count, documents in the set-up corpus)
    "extract_integrated": (1_500_000, nproc, 2),
    "mask_span": (1_500_000, lambda: 1, 1),
    "annotate_eval": (500_000, nproc, 1),
}


# ---------------------------------------------------------------- checking


@dataclass
class Checker:
    recorded: list | None  # [{"summary", "sha256"}] per call, for recorded seeds
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    first_sha: dict = field(default_factory=dict)
    record: list = field(default_factory=list)

    def check(self, index: int, call: Call, code: int, stdout: str, stderr: str = "") -> None:
        """Count one call, and count it failed unless all its outputs are correct."""
        self.attempted += 1
        error = self._error(index, call, code, stdout, stderr)
        if error:
            self.fail(f"{call.argv[0]}: {error}")

    def fail(self, error: str) -> None:
        self.failed += 1
        self.errors.append(error)

    def _error(self, index, call, code, stdout, stderr):
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-500:]}"
        lines = stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            summary = None
        if summary != call.summary:
            return f"summary {summary} != expected {call.summary}"
        sha = None
        if call.output is not None:
            sha = hashlib.sha256(call.output.read_bytes()).hexdigest()
            if call.output_sha is not None and sha != call.output_sha:
                return f"{call.output.name} differs from the generator's expected output"
            if index not in self.first_sha:
                if call.check_output is not None:
                    problem = call.check_output(call.output)
                    if problem:
                        return f"{call.output.name}: {problem}"
                self.first_sha[index] = sha
            elif sha != self.first_sha[index]:
                return f"{call.output.name} differs between repetitions"
        if self.recorded is not None:
            want = self.recorded[index]
            if want["summary"] != summary or want["sha256"] != sha:
                return "summary or output hash differs from expected.json"
        if len(self.record) <= index:
            self.record.append({"summary": summary, "sha256": sha})
        return None


def recorded_for(workload: str, seed: int):
    if not EXPECTED_PATH.exists():
        return None
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return expected.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------- subprocess runs


def _env() -> dict:
    env = dict(os.environ)
    env.pop("XNER_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The small process of launcher.py, through which every CLI call is spawned."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, env: dict, log_dir: Path) -> tuple[int, str, str, float, float]:
        """Run `python -m xner.cli argv`: (exit code, stdout, stderr, wall s, peak RSS MB).

        The peak is the larger of the call's own and that of every process
        it waited for, which covers pool workers.
        """
        out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
        request = {
            "argv": [sys.executable, "-m", "xner.cli", *argv],
            "env": env,
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (
            reply["code"],
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            reply["wall_s"],
            reply["peak_rss_mb"],
        )

    def close(self) -> None:
        """Stop the launcher, and with it any call still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def measure_e2e(
    launcher: Launcher, workload: str, inputs: Inputs, tiny: Inputs, work: Path,
    seed: int, seconds: float,
):
    _, workers_of, _ = WORKLOADS[workload]
    workers = workers_of()
    env = _env()
    calls = workload_calls(workload, inputs, work / "out", workers)
    tiny_calls = workload_calls(workload, tiny, work / "tiny_out", workers)
    (work / "out").mkdir()
    (work / "tiny_out").mkdir()
    checker = Checker(recorded_for(workload, seed))
    tiny_checker = Checker(None)

    def run_all(call_list, check):
        wall = rss = 0.0
        for index, call in enumerate(call_list):
            code, out, err, seconds_, peak = launcher.run(call.argv, env, work)
            check.check(index, call, code, out, err)
            wall += seconds_
            rss = max(rss, peak)
        return wall, rss

    run_all(tiny_calls, tiny_checker)  # warm-up: bytecode and page caches
    setup = [run_all(tiny_calls, tiny_checker)[0] for _ in range(SETUP_REPEATS)]
    throughput, peaks = [], []
    start = time.perf_counter()
    while not throughput or time.perf_counter() - start < seconds:
        wall, rss = run_all(calls, checker)
        throughput.append(inputs.corpus.tokens / wall)
        peaks.append(rss)
    metrics = {
        "tokens_per_s": {"value": statistics.median(throughput), "unit": "tokens/s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    print(
        f"{workload}: {len(throughput)} repetitions, tokens/s {[round(t) for t in throughput]}, "
        f"peak RSS MB {[round(p, 1) for p in peaks]}, set-up s {[round(s, 3) for s in setup]}",
        file=sys.stderr,
    )
    return metrics, [checker, tiny_checker]


# ---------------------------------------------------------------- traced run


def measure_traced(workload: str, inputs: Inputs, work: Path, seed: int):
    import layer_trace

    sys.path.insert(0, str(ROOT / "src"))
    _, workers_of, _ = WORKLOADS[workload]
    checker = Checker(recorded_for(workload, seed))

    def run_calls(name, workers, run=None):
        out = work / name
        out.mkdir()
        wall = 0.0
        for index, call in enumerate(workload_calls(workload, inputs, out, workers)):
            code, stdout, seconds_ = layer_trace.run_cli(call.argv, run)
            checker.check(index, call, code, stdout)
            wall += seconds_
        return wall

    import xner.cli

    # The pool pass goes first: it also warms the process up, so the untraced
    # pass that the overhead is taken against is not the only cold one.
    pool = layer_trace.PoolMeter()
    pool.install()
    try:
        run_calls("pooled", workers_of())
    finally:
        pool.restore()
    untraced = run_calls("untraced", 1)
    tracer = layer_trace.Tracer()
    layer_trace.install(tracer)
    try:
        traced = run_calls("traced", 1, tracer.wrap("cli.run", xner.cli.run))
    finally:
        tracer.restore()
    trace_dir = ROOT / ".bench_work" / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{workload}.spans.tsv")  # the last traced run only
    metrics = layer_trace.layer_metrics(tracer, pool, inputs.corpus.tokens, traced - untraced)
    if workload == "extract_integrated" and checker.record:
        written = checker.record[0]["summary"]["sentences"]
        entity = metrics["selector.entity_selected"]["value"]
        task = metrics["selector.task_selected"]["value"]
        if written != entity + 2 * task:
            checker.fail(f"extract wrote {written} sentences, selected {entity} + 2 x {task}")
    print(
        f"{workload}: traced {traced:.2f} s, untraced {untraced:.2f} s, "
        f"{len(tracer.span_start)} spans written to {trace_dir}",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    return metrics, [checker]


# ---------------------------------------------------------------- main


def prepare(workload: str, seed: int, work: Path) -> tuple[Inputs, Inputs]:
    tokens, _, tiny_docs = WORKLOADS[workload]
    dictionary = gen_inputs.make_dictionary(seed)
    corpus = gen_inputs.make_corpus(seed, dictionary, tokens)
    gold = workload == "annotate_eval"
    inputs = write_inputs(work / "inputs", dictionary, corpus, gold)
    tiny = write_inputs(work / "tiny_inputs", dictionary, tiny_corpus(corpus, tiny_docs), gold)
    return inputs, tiny


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the launcher and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "xner" / "cli.py").is_file():
        print(f"bench: no xner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = None if args.trace else Launcher()  # started while this process is small
    try:
        started = time.perf_counter()
        inputs, tiny = prepare(args.workload, args.seed, work)
        print(
            f"{args.workload}: {inputs.corpus.tokens} tokens, {inputs.corpus.sentences} "
            f"sentences generated in {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
        if args.trace:
            metrics, checkers = measure_traced(args.workload, inputs, work, args.seed)
        else:
            metrics, checkers = measure_e2e(
                launcher, args.workload, inputs, tiny, work, args.seed, args.seconds
            )
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    for checker in checkers:
        for error in checker.errors:
            print(f"FAILED {error}", file=sys.stderr)
    print(f"{args.workload}: error_rate {failed}/{attempted} = {failed / attempted:.4f}",
          file=sys.stderr)
    # This seed's summaries and output hashes, in the form expected.json records them.
    print(json.dumps({args.workload: {str(args.seed): checkers[0].record}}), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
