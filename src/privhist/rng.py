"""Counter-based random stream splitting.

All randomness in the package flows from a single 64-bit seed.  Independent
per-operation / per-node streams are derived by hashing a label path into a
Philox spawn key, so streams are reproducible and independent of evaluation
order or thread count.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np


def _key_part(part) -> int:
    if isinstance(part, str):
        return crc32(part.encode("utf-8"))
    value = int(part)
    if value < 0:
        raise ValueError("substream path integers must be nonnegative")
    return value


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for (seed, path); identical arguments give identical streams.

    Path elements may be nonnegative ints (e.g. tree child indices) or short
    string labels naming the operation.
    """
    key = tuple(_key_part(p) for p in path)
    ss = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path) -> int:
    """A 62-bit seed for the child operation at ``path``: the first integer
    of ``substream(seed, *path)``."""
    return int(substream(seed, *path).integers(0, 2**62))


def seed_commitment(seed: int) -> str:
    """Published commitment to a seed (the seed itself is never released)."""
    import hashlib

    return hashlib.sha256(f"privhist-seed:{int(seed)}".encode()).hexdigest()[:32]
