import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowent import cutstack as cs
from slowent import expcli
from slowent import rng
from slowent.lattice import SYMBOL_NAMES, Box, Pattern, UsageError, pattern_distance, sup_norm
from slowent.symbolic import (
    A_SYMBOL,
    B_SYMBOL,
    ERASURE,
    apply_code,
    binary_entropy,
    gv_rate_deficit,
    hamming_ball_volume,
    hamming_cover_lower,
    overlay_name,
    separated_words_first_fit,
)

from oracles import brute_separated_words, in_box, overlay_pattern, pattern_from_text, site_set_metric, symbol_at


def translate_pattern(p, offset, radius):
    """Restriction of the offset-shifted pattern to Q_radius."""
    box = Box(radius)
    cells = {(x - offset[0], y - offset[1]): s for (x, y), s in p.cells.items()}
    return Pattern(box, p.default_symbol, {v: s for v, s in cells.items() if in_box(v, box)})


def shifted_name(xs, ys, symbols, offset, radius):
    """A factored name shifted by -offset and restricted to Q_radius: the axes
    move and keep their values inside the box, the kept sites' symbols stay x-major."""
    keep_x = [i for i, x in enumerate(xs) if abs(x - offset[0]) <= radius]
    keep_y = [k for k, y in enumerate(ys) if abs(y - offset[1]) <= radius]
    kept = bytes(symbols[i * len(ys) + k] for i in keep_x for k in keep_y)
    return [xs[i] - offset[0] for i in keep_x], [ys[k] - offset[1] for k in keep_y], kept


def overlay(point, n):
    """The point's overlay name of radius n as its {0, a, b} pattern."""
    return overlay_pattern(*overlay_name(point, n), n)


def overlay_from_word(xs, ys, word, n):
    """Overlay name on Q_n over {0, a, b} with letters read off an integer word over the cells of xs x ys, x-major."""
    return overlay_pattern(xs, ys, bytes(A_SYMBOL + ((word >> i) & 1) for i in range(len(xs) * len(ys))), n)


def bits(name):
    """The fair bit of each letter cell of an overlay name: 0 for a, 1 for b."""
    return {u: sym - A_SYMBOL for u, sym in name.cells.items()}


def test_identity_code_restricts():
    # the identity table gives back every string over its symbols, the empty one included
    identity = {sym: sym for sym in SYMBOL_NAMES}
    symbols = bytes([0, 1, A_SYMBOL, B_SYMBOL, 1, 0])
    assert apply_code(identity, symbols) == symbols
    assert apply_code(identity, b"") == b""


def test_apply_code_refuses_unmapped_symbols():
    # alone, among mapped symbols, and the default 0 of a table that lacks it
    with pytest.raises(UsageError, match="symbol 4"):
        apply_code(ERASURE, bytes([4]))
    with pytest.raises(UsageError, match="symbol 4"):
        apply_code(ERASURE, bytes([A_SYMBOL, 1, 4, 0]))
    with pytest.raises(UsageError, match="symbol 0"):
        apply_code({1: 1, A_SYMBOL: 1, B_SYMBOL: 1}, bytes([A_SYMBOL, 0]))
    # every symbol of the table maps, the default included
    assert apply_code(ERASURE, bytes([0, 1, A_SYMBOL, B_SYMBOL])) == bytes([0, 1, 1, 1])


@settings(derandomize=True, deadline=None)
@given(
    table=st.dictionaries(st.integers(0, 255), st.integers(0, 255), max_size=12),
    data=st.data(),
)
def test_apply_code_matches_a_lookup_per_symbol(table, data):
    # a string over the table's symbols maps byte by byte; a symbol it lacks,
    # or an image no byte can carry, is a usage error and never a bare ValueError
    symbols = bytes(data.draw(st.lists(st.sampled_from(sorted(table)), max_size=40))) if table else b""
    assert apply_code(table, symbols) == bytes(table[sym] for sym in symbols)
    stray = data.draw(st.integers(0, 255).filter(lambda sym: sym not in table))
    mixed = bytearray(symbols)
    mixed.insert(data.draw(st.integers(0, len(symbols))), stray)
    with pytest.raises(UsageError, match=f"symbol {stray} is not mapped"):
        apply_code(table, bytes(mixed))
    wide = dict(table)
    wide[data.draw(st.integers(0, 255))] = data.draw(st.integers(256, 2**70))
    for refused in (wide, {**table, stray: -1}):
        try:
            apply_code(refused, symbols)
        except UsageError as exc:
            assert "outside 0..255" in str(exc)
        else:
            raise AssertionError(f"{refused} was not refused")


def test_erasure_code_on_overlay(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=5)
    xs, ys, letters = overlay_name(p, 5)
    assert apply_code(ERASURE, bytes(1)) == bytes(1)
    assert overlay_pattern(xs, ys, apply_code(ERASURE, letters), 5) == cs.name01(p, 5)


def test_apply_code_shift_equivariance():
    # a radius-0 code commutes with shifting a factored name and restricting it to a smaller box
    for i in range(100):
        xs = sorted({rng.uniform_int(31, "x", i, k, lo=-4, hi=4) for k in range(rng.uniform_int(31, "nx", i, lo=0, hi=4))})
        ys = sorted({rng.uniform_int(31, "y", i, k, lo=-4, hi=4) for k in range(rng.uniform_int(31, "ny", i, lo=0, hi=4))})
        letters = bytes(A_SYMBOL if rng.stream_u64(31, "s", i, k) & 1 else B_SYMBOL for k in range(len(xs) * len(ys)))
        u = (rng.uniform_int(31, "ux", i, lo=-2, hi=2), rng.uniform_int(31, "uy", i, lo=-2, hi=2))
        sx, sy, sl = shifted_name(xs, ys, letters, u, 2)
        assert overlay_pattern(sx, sy, sl, 2) == translate_pattern(overlay_pattern(xs, ys, letters, 4), u, 2)
        lhs = translate_pattern(overlay_pattern(xs, ys, apply_code(ERASURE, letters), 4), u, 2)
        rhs = overlay_pattern(sx, sy, apply_code(ERASURE, sl), 2)
        assert lhs == rhs


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_box_pattern_and_code_match_definitions(data):
    # Box membership, as the cell check applies it: the sup-norm definition, on sites of the wrong length too
    r = data.draw(st.integers(0, 3))
    u = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3)))
    assert in_box(u, Box(r)) == (len(u) == 2 and sup_norm(u) <= r)
    try:
        Pattern(Box(r), 0, {u: 1})
        accepted = True
    except UsageError:
        accepted = False
    assert accepted == (len(u) == 2 and sup_norm(u) <= r)

    # Pattern equality: a sorted-items comparison, whatever the insertion order
    sites = list(Box(r).sites())
    symbols = st.sampled_from((1, A_SYMBOL, B_SYMBOL))
    p = Pattern(Box(r), 0, data.draw(st.dictionaries(st.sampled_from(sites), symbols, max_size=9)))
    q_cells = dict(data.draw(st.permutations(list(p.cells.items()))))
    q_cells.update(data.draw(st.dictionaries(st.sampled_from(sites), symbols, max_size=2)))
    q = Pattern(Box(r + data.draw(st.integers(0, 1))), data.draw(st.sampled_from((0, 4))), q_cells)

    def canonical(x):
        return x.box.radius, x.default_symbol, sorted(x.cells.items())

    assert (p == q) == (canonical(p) == canonical(q))

    # erasure: a, b -> 1 and 0 -> 0, site by site over the whole box
    symbols = bytes(symbol_at(p, v) for v in p.box.sites())
    erased = apply_code(ERASURE, symbols)
    assert len(erased) == len(symbols) == len(list(p.box.sites()))
    assert list(erased) == [0 if sym == 0 else 1 for sym in symbols]


def test_overlay_name_consistency(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=9)
    xs, ys, letters = overlay_name(p, 3)
    small = overlay_pattern(xs, ys, letters, 3)
    assert overlay_pattern(xs, ys, apply_code(ERASURE, letters), 3) == cs.name01(p, 3)
    # radius 45 reads columns from three blocks of 64, radius 27 from one
    for n in (27, 45):
        big = overlay(p, n)
        for v, bit in bits(small).items():
            assert bits(big)[v] == bit
    assert bits(overlay(p, 3)) == bits(small)


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_overlay_base_is_name01_in_cell_order(spec):
    # one window serves both names: the axes give name01's pattern and the
    # letters sit on its cells in the same order
    sched = expcli.schedule_from_spec(spec)
    for i in range(3):
        p = cs.sample_point(sched, 3, seed=rng.derive_seed(70, "base", i))
        for n in (0, 1, 27):
            xs, ys, letters = overlay_name(p, n)
            assert (xs, ys) == cs.window_axes(p, n) and len(letters) == len(xs) * len(ys)
            base, name = Pattern.product(Box(n), xs, ys), cs.name01(p, n)
            assert base == name and list(base.cells) == list(name.cells)
            assert list(overlay_pattern(xs, ys, letters, n).cells) == list(name.cells)


def test_overlay_independent_across_points(sched_default):
    a = cs.sample_point(sched_default, 3, seed=100)
    b = cs.sample_point(sched_default, 3, seed=101)
    assert a.overlay_seed != b.overlay_seed


def test_overlay_fairness(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)], seed=13)
    name = overlay(p, 27)
    draws = 0
    ones = 0
    # extend the sample with bits from more points to reach a solid count
    for i in range(300):
        q = cs.sample_point(sched_default, 3, seed=rng.derive_seed(50, "fair", i))
        for b in bits(overlay(q, 9)).values():
            draws += 1
            ones += b
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) <= 5 * sigma


def test_overlay_validation(sched_default):
    # an overlay name carries a letter exactly on the base 1-cells, and only a or b
    for i in range(20):
        p = cs.sample_point(sched_default, 3, seed=rng.derive_seed(40, "ov", i))
        name = overlay(p, 9)
        assert name.default_symbol == 0
        assert name.cells.keys() == cs.name01(p, 9).cells.keys()
        assert set(name.cells.values()) <= {A_SYMBOL, B_SYMBOL}


@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_unchecked_outputs_pass_the_cell_check(sched_default, data):
    # Pattern.product builds its result without Pattern's cell check; the
    # checked constructor accepts it and builds an equal pattern, on a
    # name's axes and on any axes inside the box
    axis = st.lists(st.integers(-2, 2), unique=True, max_size=5)
    p = cs.sample_point(sched_default, 3, seed=data.draw(st.integers(0, 2**64 - 1)))
    n = data.draw(st.integers(0, 12))
    xs, ys, _ = overlay_name(p, n)
    for q in (Pattern.product(Box(n), xs, ys), cs.name01(p, n), Pattern.product(Box(2), data.draw(axis), data.draw(axis))):
        assert Pattern(q.box, q.default_symbol, dict(q.cells)) == q


def test_overlay_distance_examples():
    # the name metric of the partition {0 | a, b} is the pattern metric on flattened overlay names
    xs, ys = (-2, 0, 2), (0, 1)
    same = overlay_from_word(xs, ys, 0b101010, 2)
    assert pattern_distance(same, same) == 0
    other = overlay_from_word(xs, ys, 0b101011, 2)
    assert pattern_distance(same, other) == Fraction(1, 6)
    # shared base of c cells, bits differing on j cells -> j/c
    third = overlay_from_word(xs, ys, 0b010101, 2)
    assert pattern_distance(same, third) == 1


def test_overlay_distance_disjoint_bases(sched_default):
    p = cs.point_from_address(sched_default, [(0, 0)])
    xs, ys, _ = overlay_name(p, 3)
    shifted = [x + 1 for x in xs if abs(x + 1) <= 3]
    d = pattern_distance(overlay_from_word(xs, ys, 0, 3), overlay_from_word(shifted, ys, 0, 3))
    assert d == 1


def test_overlay_distance_dominates_base_metric(sched_default):
    from slowent.partitions import recurrence_metric
    from slowent.recurrence import recurrence_set

    for i in range(50):
        x = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "a", i))
        y = cs.sample_point(sched_default, 3, seed=rng.derive_seed(60, "b", i))
        ox, oy = overlay(x, 6), overlay(y, 6)
        base = site_set_metric(set(ox.cells), set(oy.cells))
        assert base == recurrence_metric(recurrence_set(x, 6), recurrence_set(y, 6))
        assert pattern_distance(ox, oy) >= base


def test_hamming_cover_lower_values():
    assert hamming_cover_lower(20, Fraction(1, 10)) == (1 << 20) // 21
    assert hamming_cover_lower(20, Fraction(1, 10)) == 49932
    # d = 1: every pair of distinct colorings qualifies
    assert hamming_cover_lower(12, Fraction(1, 100)) == 1 << 12
    assert hamming_ball_volume(20, 1) == 21


def test_hamming_cover_lower_monotone():
    values = [hamming_cover_lower(16, eps) for eps in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4))]
    assert values == sorted(values, reverse=True)
    for v in values:
        assert 1 <= v <= 1 << 16


def test_hamming_cover_lower_validation():
    with pytest.raises(UsageError):
        hamming_cover_lower(0, Fraction(1, 8))
    with pytest.raises(UsageError):
        hamming_cover_lower(8, Fraction(1, 2))


def test_separated_words_first_fit_realizes_bound():
    for s, eps in ((10, Fraction(1, 5)), (12, Fraction(1, 4))):
        d = math.ceil(eps * s)
        family = separated_words_first_fit(s, d)
        assert family >= hamming_cover_lower(s, eps)


def test_separated_words_subset_mode():
    words = [0b0000, 0b0001, 0b0011, 0b1111]
    assert separated_words_first_fit(4, 2, words) == 3


@settings(derandomize=True, deadline=None)
@given(length=st.integers(1, 10), min_distance=st.integers(1, 4), data=st.data())
def test_separated_words_matches_brute(length, min_distance, data):
    word = st.integers(0, (1 << length) - 1)
    words = data.draw(st.lists(word, max_size=60))
    words += data.draw(st.lists(st.sampled_from(words), max_size=10)) if words else []
    assert separated_words_first_fit(length, min_distance, words) == brute_separated_words(min_distance, words)


@pytest.mark.parametrize("length", [*range(1, 13), 16])
def test_separated_words_cube_matches_brute(length):
    # the cube mode doubles a lexicode; the list-mode scan over the whole
    # cube in numeric order is its oracle, and the pairwise brute force
    # checks both where it is affordable; d runs past length + 1 at the
    # short lengths, where the ball covers the cube and the family is 1
    cube = range(1 << length)
    for d in range(1, max(5, length + 2) if length <= 12 else 6):
        family = separated_words_first_fit(length, d)
        assert family == separated_words_first_fit(length, d, cube), d
        if length <= 8:
            assert family == brute_separated_words(d, cube), d


def test_separated_words_rejects_bad_input():
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 2, [0, -1])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 2, [3, 16])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 0, [1, 1])
    with pytest.raises(UsageError):
        separated_words_first_fit(4, 0)


def test_gv_rate_deficit_tends_to_entropy():
    eps = Fraction(1, 8)
    d_small = gv_rate_deficit(64, eps)
    h = binary_entropy(float(eps))
    assert 0 < d_small < 2 * h


def test_overlay_serializes_with_letter_symbols(sched_default):
    from slowent.lattice import pattern_to_text

    p = cs.point_from_address(sched_default, [(0, 0)], seed=3)
    flat = overlay(p, 3)
    text = pattern_to_text(flat)
    assert " a" in text or " b" in text
    assert pattern_from_text(text) == flat
