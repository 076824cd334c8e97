"""Peak memory of a streaming pipeline does not grow with the corpus.

Runs `xner mask --workers 1` in a subprocess on two seeded corpora over a
fixed vocabulary, about 200K and 800K tokens, and compares the peak
resident set size that os.wait4 reports for each run.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORDS = [f"w{i}" for i in range(500)]


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


def _peak_rss_kb(corpus: Path, output: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "xner.cli", "mask", "--strategy", "span",
         "--input", str(corpus), "--workers", "1", "--output", str(output)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss


def test_mask_peak_rss_does_not_grow_with_corpus(tmp_path):
    peaks = {}
    for tokens in (200_000, 800_000):
        corpus = tmp_path / f"corpus-{tokens}.txt"
        _write_corpus(corpus, tokens, seed=tokens)
        peaks[tokens] = _peak_rss_kb(corpus, tmp_path / f"masked-{tokens}.jsonl")
    assert peaks[800_000] <= 1.2 * peaks[200_000], peaks
