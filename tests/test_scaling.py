"""Peak memory of a streaming pipeline does not grow with the corpus.

Runs xner in a subprocess on two seeded corpora over a fixed vocabulary,
about 200K and 800K tokens, and compares the peak resident set size that
os.wait4 reports for each run, pool workers included: `mask` at one
worker, and `mask` and integrated `extract` with a pool of two.

Runs `joint` and integrated `extract` in this process at one worker, on
inputs of N and 4N sentences whose vocabulary grows with their length,
and compares the tracemalloc peak of each run.
"""

import io
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from xner.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"
WORDS = [f"w{i}" for i in range(500)]
TYPES = ["band", "album", "person", "location"]


def _write_corpus(path: Path, tokens: int, seed: int) -> None:
    """Documents of 10 paragraphs of two 16-token sentences."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(tokens // 320):
            for _ in range(10):
                fh.write(" ".join(
                    "Word " + " ".join(rng.choices(WORDS, k=14)) + "." for _ in range(2)
                ))
                fh.write("\n")
            fh.write("\n")


def _gazetteer_args(directory: Path) -> list[str]:
    """A fixed 200-entry gazetteer over the corpus words, two types specialized."""
    gazetteer = directory / "g.tsv"
    gazetteer.write_text("".join(
        f"{' '.join(WORDS[2 * i:2 * i + 1 + i % 2])}\t{TYPES[i % 4]}\n" for i in range(200)
    ))
    specialized = directory / "s.txt"
    specialized.write_text("band\nalbum\n")
    return ["--gazetteer", str(gazetteer), "--specialized", str(specialized)]


# The peak RSS that os.wait4 reports for a child includes the peak of the
# process it was spawned from, so the CLI is spawned from this small
# launcher rather than from the test process.
_LAUNCHER = """
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(args: list[str]) -> int:
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "xner.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        check=True,
    )
    code, peak_kb = map(int, launched.stdout.split())
    assert code == 0
    return peak_kb


def _peaks(tmp_path: Path, command: list[str], workers: int) -> dict[int, int]:
    peaks = {}
    for tokens in (200_000, 800_000):
        corpus = tmp_path / f"corpus-{tokens}.txt"
        _write_corpus(corpus, tokens, seed=tokens)
        peaks[tokens] = _peak_rss_kb([
            *command, "--input", str(corpus), "--workers", str(workers),
            "--output", str(tmp_path / f"out-{tokens}"),
        ])
    return peaks


def test_mask_peak_rss_does_not_grow_with_corpus(tmp_path):
    peaks = _peaks(tmp_path, ["mask", "--strategy", "span"], workers=1)
    assert peaks[800_000] <= 1.2 * peaks[200_000], peaks


@pytest.mark.parametrize("command", ["mask", "extract"])
def test_pooled_peak_rss_does_not_grow_with_corpus(tmp_path, command):
    args = {
        "mask": ["mask", "--strategy", "span"],
        "extract": ["extract", "--level", "integrated", *_gazetteer_args(tmp_path)],
    }[command]
    peaks = _peaks(tmp_path, args, workers=2)
    assert peaks[800_000] <= 1.2 * peaks[200_000], peaks


def _growing_sentences(count: int, seed: int):
    """count token lists of 8 to 16 words. Half of the words come from a
    fixed 500, the rest from the first 500 + 2i words at the i-th list, so
    the vocabulary grows with the input, as in real text."""
    rng = random.Random(seed)
    for i in range(count):
        bounds = rng.choices((500, 500 + 2 * i), k=rng.randint(8, 16))
        yield [f"w{rng.randrange(bound)}" for bound in bounds]


def _write_growing_conll(path: Path, sentences: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tokens in _growing_sentences(sentences, seed=sentences):
            fh.writelines(f"{t} {'B-band' if t.endswith('7') else 'O'}\n" for t in tokens)
            fh.write("\n")


def _write_growing_corpus(path: Path, sentences: int) -> None:
    """Documents of 10 one-sentence paragraphs."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, tokens in enumerate(_growing_sentences(sentences, seed=sentences), 1):
            fh.write(f"Word {' '.join(tokens)}.\n")
            if i % 10 == 0:
                fh.write("\n")


def _traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak, in bytes, of one in-process run of argv."""
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (command, sentences N, input writer, argv given the input path)
_FLAT = {
    "joint": (2_000, _write_growing_conll, lambda path: [
        "joint", "--source", str(path), "--target", str(path), "--multiplier", "3",
    ]),
    # At N its task text already fills several of the spool copy's blocks.
    "extract": (5_000, _write_growing_corpus, lambda path: [
        "extract", "--level", "integrated", "--input", str(path), "--workers", "1",
        *_gazetteer_args(path.parent),
    ]),
}


@pytest.mark.parametrize("command", _FLAT)
def test_traced_peak_does_not_grow_with_input(tmp_path, command):
    # joint spools its target and extract its task text, so neither holds
    # what it replays. A first run on a tiny input loads what runs load
    # once, so that the N run's peak is the run's own.
    sentences, write, argv = _FLAT[command]
    peaks = {}
    for n in (10, sentences, 4 * sentences):
        path = tmp_path / f"in-{n}.txt"
        write(path, n)
        peaks[n] = _traced_peak([*argv(path), "--output", str(tmp_path / "out")])
    assert peaks[4 * sentences] <= 1.1 * peaks[sentences], peaks
