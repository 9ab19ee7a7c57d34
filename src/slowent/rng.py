"""Counter-based deterministic random streams.

Every random quantity in the library is derived from a 64-bit master seed,
a purpose tag, and integer indices via a keyed hash. Streams are stateless,
so adding new consumers never perturbs existing ones, and results are
bit-identical across runs and platforms.

Values are defined word by word: a 64-bit word is the keyed BLAKE2b digest
of the tag followed by its indices packed as little-endian int64, and a
wide draw appends (counter, word) to the indices of each of its words. The
module computes them from one keyed state per draw, copied and extended
for each word; BLAKE2b hashes a buffer the same whether it arrives in one
update or in several, so the values are the word-by-word ones.
"""

from __future__ import annotations

import struct
# hashlib.blake2b is this same type; importing hashlib would also load
# OpenSSL (about 3.4 MiB resident), which no hash here uses
from _blake2 import blake2b
from collections.abc import Iterable, Sequence


class _Packers(dict):
    """struct.Struct("<{n}q") by index count n, each built once per process."""

    def __missing__(self, n: int) -> struct.Struct:
        packer = self[n] = struct.Struct(f"<{n}q")
        return packer


_PACKERS = _Packers()
_COUNTER_WORD = _PACKERS[2]


def _keyed(seed: int, tag: str, indices: Sequence[int]) -> blake2b:
    """The keyed hash state over (tag, indices), not yet finalized."""
    data = tag.encode("utf-8") + _PACKERS[len(indices)].pack(*indices)
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return blake2b(data, digest_size=8, key=key)


def stream_u64(seed: int, tag: str, *indices: int) -> int:
    """Return a uniform 64-bit integer keyed by (seed, tag, indices)."""
    return int.from_bytes(_keyed(seed, tag, indices).digest(), "little")


def uniform_int(seed: int, tag: str, *indices: int, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi], exact for arbitrary-width ranges.

    Attempt `counter` joins the words stream_u64(seed, tag, *indices,
    counter, w), word 0 most significant, and is rejected past the largest
    unbiased multiple of the span, so there is no modulo bias.
    """
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    words = -(-span.bit_length() // 64)  # span >= 1, so at least one word
    top = 1 << 64 * words
    limit = top - top % span
    copy = _keyed(seed, tag, indices).copy
    pack = _COUNTER_WORD.pack
    counter = 0
    while True:
        # little-endian digests, least significant word first
        digests = []
        for w in range(words - 1, -1, -1):
            h = copy()
            h.update(pack(counter, w))
            digests.append(h.digest())
        u = int.from_bytes(b"".join(digests), "little")
        if u < limit:
            return lo + (u % span)
        counter += 1


def uniform_float(seed: int, tag: str, *indices: int) -> float:
    """Uniform float in [0, 1) with 53 random bits."""
    return (stream_u64(seed, tag, *indices) >> 11) / float(1 << 53)


def fair_bits(seed: int, tag: str, sites: Iterable[Sequence[int]]) -> list[int]:
    """The low bit of stream_u64(seed, tag, *site) for each site, keying (seed, tag) once."""
    copy = _keyed(seed, tag, ()).copy
    packers = _PACKERS
    bits = []
    for site in sites:
        h = copy()
        h.update(packers[len(site)].pack(*site))
        bits.append(h.digest()[0] & 1)
    return bits


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """Derive a sub-seed for an independent stream family."""
    return stream_u64(seed, tag, *indices)
