"""The copied-state rng paths against their word-by-word definitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import rng
from slowent.symbolic import overlay_name
from oracles import brute_uniform_int

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


@settings(derandomize=True, deadline=None)
@given(seed=SEEDS, tag=st.text(max_size=6), sites=st.lists(st.lists(INT64, max_size=3).map(tuple), max_size=20))
def test_fair_bits_match_fair_bit_site_by_site(seed, tag, sites):
    bits = rng.fair_bits(seed, tag, sites)
    assert bits == [rng.stream_u64(seed, tag, *site) & 1 for site in sites]


def test_overlay_name_bits_are_fair_bits_of_the_sites(sched_default):
    p = cs.sample_point(sched_default, 3, seed=77)
    name = overlay_name(p, 27)
    assert name.bits == {v: rng.stream_u64(p.overlay_seed, "overlay-bit", *v) & 1 for v in name.base.cells}
