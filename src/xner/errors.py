"""Shared exception types, and the UTF-8 readers that report bad bytes as data errors."""

from contextlib import contextmanager
from typing import Iterator


class DataError(ValueError):
    """Malformed input data (bad record, bad tag sequence, misaligned files).

    Messages always identify the offending location (line number, record
    offset or sentence index) so failures in large files are actionable.
    """


class UsageError(ValueError):
    """Invalid configuration or command-line usage."""


class WorkerError(RuntimeError):
    """A pool worker process died; the pool has been shut down."""


@contextmanager
def open_text(path):
    """Open path for reading as UTF-8 text; invalid UTF-8 raises
    DataError("path:line: invalid UTF-8") and costs the read loop nothing.
    A byte-order mark at the start of the file is skipped, not read as text."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        # The text reader decodes ahead in blocks, so find the line in bytes.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise DataError(f"{path}:{lineno}: invalid UTF-8") from None


def data_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for every non-blank line of
    a UTF-8 file, so each record reader can report errors as path:line."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                yield lineno, line.rstrip("\n")
