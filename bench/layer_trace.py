"""Per-layer tracing of one in-process xner CLI run.

A layer is a module of src/xner. The tracer rebinds public functions of
those modules to timing wrappers in every xner module that refers to them,
so a call made through any import path is seen. Each wrapped call records
a span (name, start, end, parent) in flat arrays that stay in memory until
the run ends. Generators are timed per next(). validate_bio is only
counted: spans for it would cost more than the work it does. The
Gazetteer.longest_match counts are derived from each find_mentions result,
so no wrapper adds to find_mentions' self time.

A traced function, module or json import that the program no longer has is
skipped with a note on stderr, and its metrics read 0, so the traced run
keeps working while the program's layers change.

A name ending in ".s" is self time: the span's duration minus the time its
child spans cover. All spans come from the benchmark process; pool
workers are not traced.
"""

from __future__ import annotations

import io
import json
import sys
import time
import types
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import _process_chunk
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from multiprocessing.reduction import ForkingPickler

# (module, attribute, span name, kind). kind is "call", "iter" (span per
# next()) or "count" (no span, calls counted only).
TRACED = (
    ("corpus", "load_corpus", "corpus.load_corpus", "iter"),
    ("corpus", "split_sentences", "corpus.split_sentences", "call"),
    ("corpus", "split_text", "corpus.split_text", "call"),
    ("corpus", "tokenize", "corpus.tokenize", "call"),
    ("corpus", "segment", "corpus.segment", "call"),
    ("gazetteer", "load_gazetteer", "gazetteer.load_gazetteer", "call"),
    ("gazetteer", "find_mentions", "gazetteer.find_mentions", "call"),
    ("gazetteer", "resolve_type", "gazetteer.resolve_type", "call"),
    ("gazetteer", "pre_annotate", "gazetteer.pre_annotate", "call"),
    ("selector", "select_entity_level", "selector.select_entity_level", "iter"),
    ("selector", "select_task_level", "selector.select_task_level", "iter"),
    ("pipelines", "map_documents", "pipelines.map_documents", "call"),
    ("pipelines", "write_groups", "pipelines.write_groups", "call"),
    ("masker", "build_vocabulary", "masker.build_vocabulary", "call"),
    ("masker", "mask_corpus", "masker.mask_corpus", "iter"),
    ("masker", "select_mask_indices", "masker.select_mask_indices", "call"),
    ("masker", "spanify", "masker.spanify", "call"),
    ("masker", "apply_replacements", "masker.apply_replacements", "call"),
    ("seeding", "stable_hash", "seeding.stable_hash", "call"),
    ("nerdata", "parse_conll", "nerdata.parse_conll", "call"),
    ("nerdata", "extract_entities", "nerdata.extract_entities", "call"),
    ("nerdata", "validate_bio", "nerdata.validate_bio", "count"),
    ("evaluation", "score", "evaluation.score", "call"),
)
# The json module as seen by one xner module: (module, json function, span name).
TRACED_JSON = (
    ("pipelines", "dumps", "pipelines.json_encode"),
    ("cli", "loads", "cli.json_decode"),
)

# Per-layer metrics, in the order printed: (name, unit).
SELF_TIME_METRICS = (
    "corpus.load_corpus", "corpus.split_sentences", "corpus.split_text",
    "corpus.tokenize", "corpus.segment",
    "gazetteer.load_gazetteer", "gazetteer.find_mentions",
    "gazetteer.resolve_type", "gazetteer.pre_annotate",
    "selector.select_entity_level", "selector.select_task_level",
    "pipelines.map_documents", "pipelines.write_groups", "pipelines.json_encode",
    "masker.build_vocabulary", "masker.mask_corpus", "masker.select_mask_indices",
    "masker.spanify", "masker.apply_replacements",
    "seeding.stable_hash",
    "nerdata.parse_conll", "nerdata.extract_entities",
    "evaluation.score",
    "cli.run", "cli.json_decode",
)
METRICS = tuple((f"{name}.s", "s") for name in SELF_TIME_METRICS) + (
    ("corpus.split_text.passes", "ratio"),
    ("gazetteer.find_mentions.calls_per_sentence", "ratio"),
    ("gazetteer.resolve_type.calls", "count"),
    ("gazetteer.longest_match.calls", "count"),
    ("gazetteer.longest_match.hit_ratio", "ratio"),
    ("selector.sentences_in", "count"),
    ("selector.entity_selected", "count"),
    ("selector.task_selected", "count"),
    ("pipelines.map_documents.pool_s", "s"),
    ("pipelines.dispatch_bytes", "bytes"),
    ("pipelines.result_bytes", "bytes"),
    ("masker.targets", "count"),
    ("seeding.stable_hash.calls", "count"),
    ("nerdata.extract_entities.calls", "count"),
    ("nerdata.validate_bio.calls_per_sentence", "ratio"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans in flat arrays, self time and counters aggregated as spans close."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: list[float] = []
        self.calls: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(frame[1] == nid for frame in self._stack)

    def _open(self, nid: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0]
        stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        index, nid, children = frame
        self.span_end[index] = end
        duration = end - self.span_start[index]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        self.self_time[nid] += duration - children
        self.calls[nid] += 1

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:  # counted inside the span it belongs to
                    on_result(args, result)
                return result
            finally:
                self._close(frame)

        return traced

    def wrap_iter(self, name: str, fn, on_call=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            return self._iterate(nid, name, iter(fn(*args, **kwargs)))

        return traced

    def _iterate(self, nid: int, name: str, inner):
        yields = f"{name}.yields"
        while True:
            frame = self._open(nid)
            try:
                item = next(inner)
                self.count(yields)
            except StopIteration:
                return
            finally:
                self._close(frame)
            yield item

    def wrap_count(self, name: str, fn):
        nid = self.name_id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def rebind(self, original, replacement, holders) -> None:
        """Point every attribute of holders that is original at replacement."""
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, replacement)

    def restore(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def write(self, path) -> None:
        """Spans to path as TSV (name, start, end, parent span index);
        calls, self time and counters per name to path + ".json"."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            names = self.names
            for nid, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                fh.write(f"{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
        summary = {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_time)),
            "counters": self.counters,
        }
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


def _xner_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "xner" or n.startswith("xner.")]


def _lookup(module_name: str, attr: str, metric: str):
    """xner.<module_name>.<attr>, or None with a note on stderr when it is gone."""
    value = getattr(sys.modules.get(f"xner.{module_name}"), attr, None)
    if value is None:
        print(f"layer_trace: xner.{module_name}.{attr} not found; {metric} reads 0",
              file=sys.stderr)
    return value


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function and the json functions of TRACED_JSON."""
    import xner.cli  # noqa: F401  (loads every xner module)

    modules = _xner_modules()

    def split_text_tokens(args, result):
        # Surfaces tokenized while the gazetteer loads are not corpus text.
        if not tracer.inside("gazetteer.load_gazetteer"):
            tracer.count("corpus.split_text.tokens", len(result))

    def longest_match_attempts(args, result):
        # The leftmost-longest scan tries a match at every token that no
        # earlier match covers: once per token outside the matches, once per match.
        covered = sum(m.end - m.start for m in result)
        tracer.count("gazetteer.longest_match.calls", len(args[0]) - covered + len(result))
        tracer.count("gazetteer.longest_match.hits", len(result))

    on_result = {
        "corpus.split_text": split_text_tokens,
        "gazetteer.find_mentions": longest_match_attempts,
        "corpus.segment": lambda args, result: tracer.count("corpus.sentences", len(result)),
        "masker.apply_replacements": lambda args, result: tracer.count(
            "masker.targets", len(result.targets)
        ),
        "nerdata.parse_conll": lambda args, result: tracer.count(
            "nerdata.sentences", len(result)
        ),
    }
    on_call = {
        "selector.select_entity_level": lambda args: tracer.count(
            "selector.sentences_in", len(args[0])
        ),
    }
    for module_name, attr, name, kind in TRACED:
        original = _lookup(module_name, attr, name)
        if original is None:
            continue
        if kind == "iter":
            wrapper = tracer.wrap_iter(name, original, on_call.get(name))
        elif kind == "count":
            wrapper = tracer.wrap_count(name, original)
        else:
            wrapper = tracer.wrap(name, original, on_result.get(name))
        tracer.rebind(original, wrapper, modules)
    for module_name, function, name in TRACED_JSON:
        json_module = _lookup(module_name, "json", name)
        if json_module is None:
            continue
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json_module))
        setattr(proxy, function, tracer.wrap(name, getattr(json_module, function)))
        tracer.rebind(json_module, proxy, [sys.modules[f"xner.{module_name}"]])


class PoolMeter:
    """Parent-side wall time of map_documents and the bytes its pool ships.

    The byte counts pickle the same callable, argument chunks and result
    chunks that ProcessPoolExecutor.map sends, after the timed call ends.
    When xner.pipelines no longer has map_documents or ProcessPoolExecutor,
    the metrics that need it read 0.
    """

    def __init__(self):
        self.pool_s = 0.0
        self.dispatch_bytes = 0
        self.result_bytes = 0
        self._shipped: list[tuple] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        import xner.cli  # noqa: F401  (loads every xner module)

        meter = self
        original_map_documents = _lookup(
            "pipelines", "map_documents", "pipelines.map_documents.pool_s"
        )
        pool = _lookup(
            "pipelines", "ProcessPoolExecutor", "pipelines.dispatch_bytes and result_bytes"
        )

        class MeteredPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, timeout=None, chunksize=1):
                items = list(zip(*iterables))
                results = list(super().map(fn, *zip(*items), timeout=timeout, chunksize=chunksize))
                meter._shipped.append((fn, items, results, chunksize))
                return iter(results)

        def map_documents(worker, documents, workers):
            start = time.perf_counter()
            try:
                return original_map_documents(worker, documents, workers)
            finally:
                meter.pool_s += time.perf_counter() - start

        pipelines = sys.modules.get("xner.pipelines")
        for key, original, value in (
            ("ProcessPoolExecutor", pool, MeteredPool),
            ("map_documents", original_map_documents, map_documents),
        ):
            if original is not None:
                self._restore.append((pipelines, key, original))
                setattr(pipelines, key, value)

    def restore(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()
        for fn, items, results, chunksize in self._shipped:
            call = partial(_process_chunk, fn)
            for i in range(0, len(items), chunksize):
                chunk = tuple(items[i:i + chunksize])
                self.dispatch_bytes += len(ForkingPickler.dumps((call, chunk)))
                self.result_bytes += len(ForkingPickler.dumps(results[i:i + chunksize]))
        self._shipped.clear()


@contextmanager
def _quiet():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        yield out


def run_cli(argv, run=None) -> tuple[int, str, float]:
    """Run xner.cli.run(argv) in this process: (exit code, stdout, wall s)."""
    import xner.cli

    run = run or xner.cli.run
    with _quiet() as out:
        start = time.perf_counter()
        code = run(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def layer_metrics(tracer: Tracer, pool: PoolMeter, corpus_tokens: int, overhead_s: float) -> dict:
    """Every per-layer metric of METRICS, from one traced run and one pool pass."""
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    sentences = c.get("corpus.sentences", 0)
    values = {f"{name}.s": tracer.self_seconds(name) for name in SELF_TIME_METRICS}
    values.update({
        "corpus.split_text.passes": ratio(c.get("corpus.split_text.tokens", 0), corpus_tokens),
        "gazetteer.find_mentions.calls_per_sentence": ratio(
            tracer.calls_of("gazetteer.find_mentions"), sentences
        ),
        "gazetteer.resolve_type.calls": tracer.calls_of("gazetteer.resolve_type"),
        "gazetteer.longest_match.calls": c.get("gazetteer.longest_match.calls", 0),
        "gazetteer.longest_match.hit_ratio": ratio(
            c.get("gazetteer.longest_match.hits", 0), c.get("gazetteer.longest_match.calls", 0)
        ),
        "selector.sentences_in": c.get("selector.sentences_in", 0),
        "selector.entity_selected": c.get("selector.select_entity_level.yields", 0),
        "selector.task_selected": c.get("selector.select_task_level.yields", 0),
        "pipelines.map_documents.pool_s": pool.pool_s,
        "pipelines.dispatch_bytes": pool.dispatch_bytes,
        "pipelines.result_bytes": pool.result_bytes,
        "masker.targets": c.get("masker.targets", 0),
        "seeding.stable_hash.calls": tracer.calls_of("seeding.stable_hash"),
        "nerdata.extract_entities.calls": tracer.calls_of("nerdata.extract_entities"),
        "nerdata.validate_bio.calls_per_sentence": ratio(
            tracer.calls_of("nerdata.validate_bio"), c.get("nerdata.sentences", 0)
        ),
        "trace.overhead_s": overhead_s,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
