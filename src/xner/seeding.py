"""Deterministic per-record hashing.

All sampling decisions in the pipelines are keyed on a stable hash of
(seed, doc_id, sentence_index) rather than shared RNG state, so output is
identical regardless of worker count or shard order.
"""

# _blake2 is what hashlib.blake2b is; importing hashlib would also load OpenSSL.
from _blake2 import blake2b

_SEP = b"\x1f"


def stable_hash(*parts) -> int:
    """64-bit hash of the given parts, stable across processes and runs."""
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(_SEP)
    return int.from_bytes(h.digest(), "big")


def unit_interval(*parts) -> float:
    """Map the parts to a deterministic float in [0, 1)."""
    return stable_hash(*parts) / 2**64
