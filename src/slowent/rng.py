"""Counter-based deterministic random streams.

Every random quantity in the library is derived from a 64-bit master seed,
a purpose tag, and integer indices via a keyed hash. Streams are stateless,
so adding new consumers never perturbs existing ones, and results are
bit-identical across runs and platforms.
"""

from __future__ import annotations

import hashlib
import struct


def stream_u64(seed: int, tag: str, *indices: int) -> int:
    """Return a uniform 64-bit integer keyed by (seed, tag, indices)."""
    data = tag.encode("utf-8") + struct.pack(f"<{len(indices)}q", *indices)
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key).digest(), "little")


def uniform_int(seed: int, tag: str, *indices: int, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi], exact for arbitrary-width ranges.

    Draws as many 64-bit words as the span needs and rejects values past
    the largest unbiased multiple, so there is no modulo bias.
    """
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    words = max(1, -(-span.bit_length() // 64))
    width = 64 * words
    limit = (1 << width) - ((1 << width) % span)
    counter = 0
    while True:
        u = 0
        for w in range(words):
            u = (u << 64) | stream_u64(seed, tag, *indices, counter, w)
        if u < limit:
            return lo + (u % span)
        counter += 1


def uniform_float(seed: int, tag: str, *indices: int) -> float:
    """Uniform float in [0, 1) with 53 random bits."""
    return (stream_u64(seed, tag, *indices) >> 11) / float(1 << 53)


def fair_bit(seed: int, tag: str, *indices: int) -> int:
    return stream_u64(seed, tag, *indices) & 1


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """Derive a sub-seed for an independent stream family."""
    return stream_u64(seed, tag, *indices)
