"""Full-shift machinery: radius-0 codes as symbol tables, the fair two-letter
overlay on core sites, the erasure factor map, and Hamming-ball covering
lower bounds with the first-fit families that realize them: over the whole
cube by lexicode doubling on a 2^length-bit set, over a word list by a
scan of a 2^length-byte table.

Symbol ids follow `lattice.SYMBOL_NAMES`: 0 and 1 for the base colors, 2
and 3 for the overlay letters a and b.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import cutstack, rng
from .cutstack import PointHandle
from .lattice import UsageError

A_SYMBOL = 2
B_SYMBOL = 3


#: Fair bit to overlay letter, as a bytes.translate table: 0 -> a, 1 -> b.
LETTERS = bytes([A_SYMBOL, B_SYMBOL, *range(2, 256)])

#: The erasure factor map a, b -> 1 and 0 -> 0: a radius-0 code is its symbol table.
ERASURE = {0: 0, 1: 1, A_SYMBOL: 1, B_SYMBOL: 1}


def apply_code(table: dict[int, int], symbols: bytes) -> bytes:
    """Map each symbol of a byte string through a radius-0 code's symbol table.

    One bytes.translate maps the string and deletes every symbol the table
    lacks, so a shorter result means an unmapped symbol. An image outside
    0..255 is refused, since no byte can carry it.
    """
    images = bytearray(256)
    for sym, out in table.items():
        if not 0 <= out <= 255:
            raise UsageError(f"the code maps symbol {sym} to {out}, outside 0..255")
        images[sym] = out
    out = symbols.translate(images, bytes(range(256)).translate(None, bytes(table)))
    if len(out) != len(symbols):
        raise UsageError(f"symbol {next(sym for sym in symbols if sym not in table)} is not mapped by the code")
    return out


def overlay_name(point: PointHandle, n: int) -> tuple[list[int], list[int], bytes]:
    """The point's overlay name of radius n as (xs, ys, letters).

    The base name is the product X x Y of the window's axes xs, ys, one
    window resolution through `cutstack.capped_window_axes`; `letters`
    holds the fair letter, a or b, of each of its 1-cells, x-major, in
    `Pattern.product`'s cell order. Every other site of Q_n is 0.

    A letter is keyed by the overlay seed and the site's offset from the
    point, which is the same site in every nested window, so one point's
    names are restriction-consistent across radii while distinct points
    carry independent letter streams.
    """
    xs, ys = cutstack.capped_window_axes(point, n)
    return xs, ys, rng.fair_bits(point.overlay_seed, "overlay-bit", xs, ys).translate(LETTERS)


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

    Scans `words` in order, blocking the radius (min_distance - 1) ball
    around each kept word in a table of 2^length bytes. With `words` None
    the family is the first fit over the whole cube in numeric order, which
    realizes the sphere-covering bound constructively. That family is a
    lexicode, and lexicodes are linear (Conway & Sloane 1986, Brualdi &
    Pless 1993), so `_lexicode_size` builds it by doubling in a table of
    2^length bits, with no scan.
    """
    if min_distance < 1:
        raise UsageError(f"min_distance must be >= 1, got {min_distance}")
    ball = _ball_masks(length, min_distance - 1)
    if words is None:
        return _lexicode_size(length, ball)
    size = 1 << length
    if any(not 0 <= w < size for w in words):
        raise UsageError(f"words must lie in [0, 2^{length})")
    blocked = bytearray(size)
    kept = 0
    for w in words:
        if blocked[w]:
            continue
        kept += 1
        for mask in ball:
            blocked[w ^ mask] = 1
    return kept


def _lexicode_size(length: int, ball: list[int]) -> int:
    """Size of the numeric-order first fit over the cube, where `ball` holds
    the masks of a Hamming ball about 0.

    The fit's family is linear, so once the fit has passed [0, 2^k) it is a
    code C, and `near`, the words within the ball of C, is one 2^length-bit
    int. In [2^k, 2^(k+1)) the fit keeps v, the lowest word not in `near`,
    and then every v ^ c for c in C: C doubles, and `near` gains its
    translate by v. That translate swaps blocks of 2^b bits for each set
    bit b of v, one shift-and-mask pair each.
    """
    size = 1 << length
    keeps = []  # keeps[b]: the words whose bit b is clear
    for b in range(length):
        half = 1 << b
        keep, width = (1 << half) - 1, 2 * half
        while width < size:
            keep |= keep << width
            width <<= 1
        keeps.append(keep)
    near = 0
    for mask in ball:
        near |= 1 << mask
    dim = 0
    for k in range(length):
        lo = 1 << k
        free = ~near >> lo & ((1 << lo) - 1)
        if not free:
            continue
        v = lo | ((free & -free).bit_length() - 1)
        moved = near
        for b in range(k + 1):
            if v >> b & 1:
                moved = (moved & keeps[b]) << (1 << b) | moved >> (1 << b) & keeps[b]
        near |= moved
        dim += 1
    return 1 << dim


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
