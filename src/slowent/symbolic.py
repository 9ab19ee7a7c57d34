"""Full-shift machinery: sliding block codes, the fair two-letter overlay on
core sites, the erasure factor map, and Hamming-ball covering lower bounds.

Symbol ids follow `lattice.SYMBOL_NAMES`: 0 and 1 for the base colors, 2
and 3 for the overlay letters a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import cutstack, rng
from .cutstack import PointHandle
from .lattice import Pattern, Site, UsageError

A_SYMBOL = 2
B_SYMBOL = 3


@dataclass
class SlidingBlockCode:
    """Shift-equivariant code of window radius 0: a symbol-to-symbol table."""

    table: dict[int, int]
    input_default: int


def apply_code(code: SlidingBlockCode, input_pattern: Pattern) -> Pattern:
    """Map the symbol at every site through the code's table, on the same box.

    Default sites map to the image of the input default, so the sparse
    result costs O(support), not O(box). The result keeps only the input's
    sites and only symbols other than its default, so it needs no cell check.
    """
    if input_pattern.default_symbol != code.input_default:
        raise UsageError("input default symbol does not match the code")
    default_out = code.table[code.input_default]
    cells: dict[Site, int] = {}
    for u, sym in input_pattern.cells.items():
        try:
            sym_out = code.table[sym]
        except KeyError:
            raise UsageError(f"symbol {sym} is not mapped by the code") from None
        if sym_out != default_out:
            cells[u] = sym_out
    return Pattern.unchecked(input_pattern.box, default_out, cells)


def erasure_code() -> SlidingBlockCode:
    """Symbol-wise factor map a, b -> 1 and 0 -> 0."""
    return SlidingBlockCode({0: 0, 1: 1, A_SYMBOL: 1, B_SYMBOL: 1}, input_default=0)


# ---------------------------------------------------------------------------
# Overlay names


@dataclass
class OverlayName:
    """A 0/1 base pattern with a fair letter attached to every 1-cell."""

    base: Pattern
    bits: dict[Site, int]

    def __post_init__(self) -> None:
        if self.bits.keys() != self.base.cells.keys():
            raise UsageError("overlay bits must be defined exactly on the base 1-cells")
        if not set(self.bits.values()) <= {0, 1}:
            raise UsageError("overlay bits must be 0 (a) or 1 (b)")

    def flatten(self) -> Pattern:
        """Pattern over {0, a, b} with default 0, on the base's checked sites."""
        cells = {u: (A_SYMBOL if b == 0 else B_SYMBOL) for u, b in self.bits.items()}
        return Pattern.unchecked(self.base.box, 0, cells)


def overlay_name(point: PointHandle, n: int) -> OverlayName:
    """Sample the overlay name of radius n, conditioned on the point's base name.

    Bits are derived from (overlay seed, absolute window site), so one
    point's names are restriction-consistent across radii while distinct
    points carry independent letter streams.
    """
    base = cutstack.name01(point, n)
    # key bits by the absolute window offset relative to the point, which is
    # the same site in every nested window
    return OverlayName(base, dict(zip(base.cells, rng.fair_bits(point.overlay_seed, "overlay-bit", base.cells))))


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
