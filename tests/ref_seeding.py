"""Reference seeding hash, written from the contract alone: 64-bit BLAKE2b
over each part as UTF-8 str followed by 0x1f, read big-endian.

Used only as an oracle for seeding.stable_hash, which avoids hashlib.
"""

import hashlib


def stable_hash(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8") + b"\x1f")
    return int.from_bytes(h.digest(), "big")
