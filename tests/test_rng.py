"""Pinned stream values: every report.json byte depends on these draws."""

import struct

import pytest

from slowent import rng


def test_stream_u64_pinned():
    assert rng.stream_u64(0, "t") == 3782487871551767884
    assert rng.stream_u64(2024, "overlay-word", 7) == 2696587121879090026
    # a seed >= 2^64 keys the hash by its low 64 bits; negative indices pack signed
    assert rng.stream_u64(2**64 + 5, "x", -1, 3) == 8812117788871022760
    assert rng.stream_u64(-3, "neg", -(2**63), 2**63 - 1, 0) == 17541695736954670727


def test_stream_u64_rejects_index_out_of_range():
    with pytest.raises(struct.error):
        rng.stream_u64(1, "t", 2**63)


def test_uniform_int_pinned():
    assert rng.uniform_int(2024, "a", 1, 2, lo=0, hi=9) == 6
    assert rng.uniform_int(7, "b", -4, lo=-100, hi=100) == 55
    # span above 2^64: two words per draw
    assert rng.uniform_int(11, "big", 3, lo=0, hi=2**70) == 567031098997034070765
    assert rng.uniform_int(2**64 + 1, "c", lo=5, hi=5) == 5


def test_fair_bit_pinned():
    bits = rng.fair_bits(9, "overlay-bit", (-2, -1, 0, 1), (-1, 0, 3))
    assert bits == bytes([1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1])


def test_derive_seed_pinned():
    assert rng.derive_seed(2024, "ov-point", 5) == 13973746446667759495
    assert rng.derive_seed(2**70, "s", -9) == 16340323472423962291
