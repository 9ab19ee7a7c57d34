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

Fair bits are read 64 sites per hash: the bit at (x, y) is the low bit of
byte (y + 32) mod 64 of the 64-byte keyed BLAKE2b digest of the tag followed
by x and (y + 32) div 64, packed as little-endian int64. Over a product
X x Y each row finalizes one digest per column block of 64 it meets, and
every column range inside [-32, 31] is one block.
"""

from __future__ import annotations

import struct
# hashlib.blake2b is this same type; importing hashlib would also load
# OpenSSL (about 3.4 MiB resident), which no hash here uses
from _blake2 import blake2b
from collections.abc import Sequence
from operator import itemgetter


class _Packers(dict):
    """struct.Struct("<{n}q") by index count n, each built once per process."""

    def __missing__(self, n: int) -> struct.Struct:
        packer = self[n] = struct.Struct(f"<{n}q")
        return packer


_PACKERS = _Packers()
_COUNTER_WORD = _PACKERS[2]


#: Sites per fair-bit digest: the longest BLAKE2b digest is 64 bytes.
_BLOCK = 64
_LOW_BIT = bytes(i & 1 for i in range(256))


def _key(seed: int) -> bytes:
    """The hash key of a seed: its low 64 bits, little-endian."""
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def _keyed(seed: int, tag: str, indices: Sequence[int]) -> blake2b:
    """The keyed hash state over (tag, indices), not yet finalized."""
    data = tag.encode("utf-8") + _PACKERS[len(indices)].pack(*indices)
    return blake2b(data, digest_size=8, key=_key(seed))


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


def fair_bits(seed: int, tag: str, xs: Sequence[int], ys: Sequence[int]) -> bytes:
    """The fair bit of each (x, y) in xs x ys, x-major, one byte (0 or 1) a site.

    The bit at (x, y) is the low bit of byte (y + 32) mod 64 of the 64-byte
    keyed digest of (tag, x, (y + 32) div 64). Each row finalizes one
    digest per column block that ys meets and picks its sites' bytes in the
    order of ys, repeats kept; no site costs a hash.
    """
    if not ys:
        return b""
    blocks = sorted({(y + 32) // _BLOCK for y in ys})
    start = {block: _BLOCK * i for i, block in enumerate(blocks)}
    # offsets into the row's block digests, joined in block order
    offsets = [start[(y + 32) // _BLOCK] + (y + 32) % _BLOCK for y in ys]
    # a single index makes itemgetter return a scalar, not a 1-tuple
    pick = itemgetter(*offsets) if len(offsets) > 1 else lambda row: (row[offsets[0]],)
    pack = _PACKERS[2].pack
    copy = blake2b(tag.encode("utf-8"), digest_size=_BLOCK, key=_key(seed)).copy
    picked = []
    for x in xs:
        digests = []
        for block in blocks:
            h = copy()
            h.update(pack(x, block))
            digests.append(h.digest())
        picked += pick(b"".join(digests))
    return bytes(picked).translate(_LOW_BIT)


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """Derive a sub-seed for an independent stream family."""
    return stream_u64(seed, tag, *indices)
