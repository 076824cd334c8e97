"""Peak memory of a streaming pipeline does not grow with the corpus.

Runs xner in a subprocess on two seeded corpora over a fixed vocabulary,
about 200K and 800K tokens, and compares the peak resident set size that
os.wait4 reports for each run, pool workers included: `mask` at one
worker, and `mask` and integrated `extract` with a pool of two.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
