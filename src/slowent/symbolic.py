"""Full-shift machinery: radius-0 codes as symbol tables, the fair two-letter
overlay on core sites, the erasure factor map, and Hamming-ball covering
lower bounds.

Symbol ids follow `lattice.SYMBOL_NAMES`: 0 and 1 for the base colors, 2
and 3 for the overlay letters a and b.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import cutstack, rng
from .cutstack import PointHandle
from .lattice import Box, Pattern, UsageError

A_SYMBOL = 2
B_SYMBOL = 3


#: Fair bit to overlay letter, as a bytes.translate table: 0 -> a, 1 -> b.
LETTERS = bytes([A_SYMBOL, B_SYMBOL, *range(2, 256)])

#: The erasure factor map a, b -> 1 and 0 -> 0: a radius-0 code is its symbol table.
ERASURE = {0: 0, 1: 1, A_SYMBOL: 1, B_SYMBOL: 1}


def apply_code(table: dict[int, int], pattern: Pattern) -> Pattern:
    """Map the symbol at every site, the default included, through a radius-0
    code's symbol table, on the same box.

    Default sites map to the image of the default, so the sparse result
    costs O(support), not O(box). The result keeps only the input's sites
    and only symbols other than its default, so it needs no cell check.
    """
    try:
        default_out = table[pattern.default_symbol]
        cells = {u: out for u, sym in pattern.cells.items() if (out := table[sym]) != default_out}
    except KeyError as exc:
        raise UsageError(f"symbol {exc.args[0]} is not mapped by the code") from None
    return Pattern.unchecked(pattern.box, default_out, cells)


def overlay_name(point: PointHandle, n: int) -> tuple[Pattern, Pattern]:
    """The point's base name of radius n and the overlay name sampled on it.

    The base is `cutstack.name01(point, n)`, the product X x Y of the
    window's axes; the overlay is the pattern over {0, a, b} that puts a
    fair letter on every 1-cell of the base, its cells in the base's order.
    The window is resolved once, for both.

    A letter is keyed by the overlay seed and the site's offset from the
    point, which is the same site in every nested window, so one point's
    names are restriction-consistent across radii while distinct points
    carry independent letter streams.
    """
    xs, ys = cutstack.capped_window_axes(point, n)
    base = Pattern.product(Box(n), xs, ys)
    bits = rng.fair_bits(point.overlay_seed, "overlay-bit", xs, ys)
    return base, Pattern.unchecked(base.box, 0, dict(zip(base.cells, bits.translate(LETTERS))))


# ---------------------------------------------------------------------------
# Hamming-ball covering lower bound


def hamming_ball_volume(length: int, radius: int) -> int:
    """Number of binary words within Hamming distance `radius` of a fixed word."""
    return sum(math.comb(length, j) for j in range(radius + 1))


def hamming_cover_lower(core_size: int, eps: Fraction) -> int:
    """Certified lower bound on the largest family of core colorings with
    pairwise normalized Hamming distance >= eps.

    Sphere-covering argument: a maximal eps-separated family covers the cube
    with balls of radius d - 1 where d = ceil(eps * core_size), giving at
    least 2^s / V(s, d-1) words. This also lower-bounds covering numbers of
    the overlay metric at any smaller threshold.
    """
    eps = Fraction(eps)
    if core_size < 1:
        raise UsageError("core size must be >= 1")
    if not (0 < eps < Fraction(1, 2)):
        raise UsageError(f"eps must be in (0, 1/2), got {eps}")
    d = math.ceil(eps * core_size)
    return (1 << core_size) // hamming_ball_volume(core_size, d - 1)


def binary_entropy(x: float) -> float:
    if not 0 < x < 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def gv_rate_deficit(core_size: int, eps: Fraction) -> float:
    """The delta in the family-size form 2^((1 - delta) s); tends to H2(eps)."""
    bound = hamming_cover_lower(core_size, eps)
    return 1.0 - math.log2(bound) / core_size


def separated_words_first_fit(length: int, min_distance: int, words: list[int] | None = None) -> int:
    """First-fit maximal family of binary words at pairwise Hamming distance >= min_distance.

    Scans `words` in order (the whole cube in numeric order when None),
    blocking the radius (min_distance - 1) ball around each kept word; over
    the cube this realizes the sphere-covering bound constructively. The
    blocked table takes 2^length bytes in either mode.
    """
    if min_distance < 1:
        raise UsageError(f"min_distance must be >= 1, got {min_distance}")
    size = 1 << length
    if words is None:
        words = range(size)
    elif any(not 0 <= w < size for w in words):
        raise UsageError(f"words must lie in [0, 2^{length})")
    blocked = bytearray(size)
    ball = _ball_masks(length, min_distance - 1)
    kept = 0
    for w in words:
        if blocked[w]:
            continue
        kept += 1
        for mask in ball:
            blocked[w ^ mask] = 1
    return kept


def _ball_masks(length: int, radius: int) -> list[int]:
    masks = [0]
    frontier = [0]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for b in range(m.bit_length(), length):
                nxt.append(m | (1 << b))
        frontier = nxt
        masks.extend(frontier)
    return masks
