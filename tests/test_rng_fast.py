"""The copied-state rng paths against their word-by-word definitions."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import rng
from slowent.symbolic import A_SYMBOL, overlay_name
from oracles import brute_uniform_int, fair_bit

INT64 = st.integers(-(2**63), 2**63 - 1)
SEEDS = st.integers(-(2**80), 2**80)  # seeds >= 2^64 key the hash by their low 64 bits
# 1, 2, 3 and 41 words per attempt
SPANS = [1, 2, 1000, 2**64 - 1, 2**64, 2**100, 2**128, 3**1640, 2**2600]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=SEEDS,
    tag=st.text(max_size=6),
    indices=st.lists(INT64, max_size=4),
    span=st.sampled_from(SPANS),
    lo=st.integers(-(2**70), 2**70),
)
def test_uniform_int_matches_word_by_word(seed, tag, indices, span, lo):
    hi = lo + span - 1
    assert rng.uniform_int(seed, tag, *indices, lo=lo, hi=hi) == brute_uniform_int(seed, tag, *indices, lo=lo, hi=hi)


@pytest.mark.parametrize("span", [2**63 + 1, 2**127 + 1])
def test_uniform_int_rejections_match_word_by_word(span):
    # the largest unbiased multiple is span itself, so an attempt is
    # rejected about when its most significant word has its top bit set
    rejected = 0
    for i in range(-32, 32):
        seed = 2**64 + 7 * i
        rejected += rng.stream_u64(seed, "rej", i, 0, 0) >> 63
        assert rng.uniform_int(seed, "rej", i, lo=-5, hi=span - 6) == brute_uniform_int(seed, "rej", i, lo=-5, hi=span - 6)
    assert rejected >= 16


# repeated values and the int64 extremes drawn often; empty axes included
AXIS = st.lists(st.one_of(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]), INT64), max_size=6)
# unsorted columns on both sides of the block edges at -32 and 32, repeats included
COLUMNS = st.one_of(AXIS, st.lists(st.sampled_from([-33, -32, -1, 0, 31, 32, 95, 96]), max_size=8))


# no column, one column (a one-index itemgetter returns a scalar), and
# unsorted columns over three blocks with a repeat, on int64-extreme rows
@example(seed=2**64 + 3, tag="o", xs=[2**63 - 1, 0, -(2**63)], ys=[])
@example(seed=2**64 + 3, tag="o", xs=[2**63 - 1, 0, -(2**63)], ys=[32])
@example(seed=2**64 + 3, tag="o", xs=[2**63 - 1, 0, -(2**63)], ys=[96, -33, 31, -32, 32, 96, 0])
@settings(derandomize=True, deadline=None)
@given(seed=SEEDS, tag=st.text(max_size=6), xs=AXIS, ys=COLUMNS)
def test_fair_bits_match_fair_bit_site_by_site(seed, tag, xs, ys):
    bits = rng.fair_bits(seed, tag, xs, ys)
    assert type(bits) is bytes
    assert list(bits) == [fair_bit(seed, tag, x, y) for x in xs for y in ys]


@pytest.mark.parametrize("ys, blocks", [(range(-31, 32), 1), (range(-32, 33), 2), (range(-40, 41), 3)])
def test_fair_bits_finalize_one_digest_per_row_and_block(letter_digests, ys, blocks):
    # [-32, 31] is one block of 64 columns; past it each row reads one more digest a block
    bits = rng.fair_bits(7, "overlay-bit", range(-2, 3), ys)
    assert len(bits) == 5 * len(ys)
    assert letter_digests["digests"] == 5 * blocks


def test_overlay_name_bits_are_fair_bits_of_the_sites(sched_default):
    p = cs.sample_point(sched_default, 3, seed=77)
    _, name = overlay_name(p, 27)
    bits = {u: sym - A_SYMBOL for u, sym in name.cells.items()}
    assert bits == {v: fair_bit(p.overlay_seed, "overlay-bit", *v) for v in cs.name01(p, 27).cells}
