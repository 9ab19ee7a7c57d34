"""The `queries` workload: a seeded stream of construction window queries.

A closed loop with one client: each query draws its point with
`sample_point` and waits for the answer before the next query starts.
The mix is balanced rather than drawn independently, so that two seeds
differ in positions and scales but not in how much of each kind of work
they hold: every (query kind, variant) cell gets the same number of
queries, scales are stratified log-uniform over [0, cap] within each cell,
and round trips cycle through stages 2..6 of every variant. The order is a
seeded shuffle.

Every answer is checked against an independent path after the timed pass.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from slowent import cutstack, expcli

KINDS = (
    "core_count",
    "core_centroid",
    "count_provenance_leq",
    "window_axes",
    "name01",
    "locate_site",
    "color01_at",
    "roundtrip",
)
BLOCKS = 40  # queries per (kind, variant) cell: 8 kinds x 4 variants x 40 = 1280 a pass
POINT_STAGE = 3
ROUNDTRIP_STAGES = (2, 3, 4, 5, 6)
# window materialisation costs O(n) for axes and O(n^2) for names
SCALE_CAP = {"window_axes": 10_000, "name01": 300}
DEFAULT_CAP = 100_000


@dataclass(frozen=True)
class Query:
    kind: str
    variant: int
    point_seed: int
    n: int
    arg: Any = None  # provenance stage, site offset, or (stage, levels)


def build_schedules() -> list[cutstack.Schedule]:
    return [expcli.schedule_from_spec(spec) for spec in expcli.DEFAULT_VARIANTS]


def generate(seed: int, scheds: list[cutstack.Schedule]) -> list[Query]:
    rnd = random.Random(seed)
    out = []
    for kind in KINDS:
        cap = SCALE_CAP.get(kind, DEFAULT_CAP)
        for variant, sched in enumerate(scheds):
            for b in range(BLOCKS):
                n = round((cap + 1) ** ((b + rnd.random()) / BLOCKS)) - 1
                arg = None
                if kind == "count_provenance_leq":
                    arg = 1 + b % 2
                elif kind in ("locate_site", "color01_at"):
                    arg = (rnd.randint(-n, n), rnd.randint(-n, n))
                elif kind == "roundtrip":
                    stage = ROUNDTRIP_STAGES[b % len(ROUNDTRIP_STAGES)]
                    levels = []
                    for j in range(1, stage):
                        k = sched.s(j) // sched.m(j)
                        levels.append((rnd.randint(-k, k) * sched.m(j), rnd.randint(-k, k) * sched.m(j)))
                    arg = (stage, tuple(levels))
                out.append(Query(kind, variant, rnd.getrandbits(63), n, arg))
    rnd.shuffle(out)
    return out


def run(q: Query, scheds: list[cutstack.Schedule]) -> Any:
    """One query as a caller issues it; the value returned is its answer."""
    sched = scheds[q.variant]
    if q.kind == "roundtrip":
        stage, levels = q.arg
        got = cutstack.decompose(cutstack.compose(levels, sched), stage, sched)
        return None if got is None else got.levels
    p = cutstack.sample_point(sched, POINT_STAGE, q.point_seed)
    if q.kind == "core_count":
        return cutstack.core_count(p, q.n)
    if q.kind == "core_centroid":
        return cutstack.core_centroid(p, q.n)
    if q.kind == "count_provenance_leq":
        return cutstack.count_provenance_leq(p, q.n, q.arg)
    if q.kind == "window_axes":
        return cutstack.window_axes(p, q.n)
    if q.kind == "name01":
        return cutstack.name01(p, q.n)
    if q.kind == "locate_site":
        return cutstack.locate_site(p, q.arg)
    return cutstack.color01_at(p, q.arg)


def digest(q: Query, answer: Any) -> Any:
    """A compact, comparable form of an answer (taken outside the timing)."""
    if q.kind == "window_axes":
        xs, ys = answer
        return (len(xs), len(ys), sum(xs), sum(ys))
    if q.kind == "name01":
        return (answer.box.radius, len(answer.cells), sum(x + 3 * y for x, y in answer.cells))
    return answer


def check(q: Query, answer: Any, scheds: list[cutstack.Schedule]) -> bool:
    """Cross-check one answer (as returned by `digest`) by an independent path."""
    sched = scheds[q.variant]
    if q.kind == "roundtrip":
        return answer == q.arg[1]
    p = cutstack.sample_point(sched, POINT_STAGE, q.point_seed)
    if q.kind in ("locate_site", "color01_at"):
        v = q.arg
        prov = answer[0] if q.kind == "locate_site" else cutstack.locate_site(p, v)[0]
        color = answer if q.kind == "color01_at" else cutstack.color01_at(p, v)
        if (prov == 1) != (color == 1):
            return False
        reach = max(abs(v[0]), abs(v[1]))
        if reach <= SCALE_CAP["window_axes"]:
            xs, ys = cutstack.window_axes(p, reach)
            return (color == 1) == (v[0] in xs and v[1] in ys)
        return True
    count = cutstack.core_count(p, q.n)
    if q.kind == "core_count":
        if answer != cutstack.count_provenance_leq(p, q.n, 1):
            return False
        if q.n <= SCALE_CAP["window_axes"]:
            xs, ys = cutstack.window_axes(p, q.n)
            if answer != len(xs) * len(ys):
                return False
        if q.n <= SCALE_CAP["name01"]:
            return answer == len(cutstack.name01(p, q.n).cells)
        return True
    if q.kind == "core_centroid":
        total, mean_x, mean_y = answer
        return total == count and isinstance(mean_x, Fraction) and isinstance(mean_y, Fraction)
    if q.kind == "count_provenance_leq":
        if q.arg == 1:
            return answer == count
        return count <= answer <= (2 * q.n + 1) ** 2
    if q.kind == "window_axes":
        return answer[0] * answer[1] == count
    return answer[1] == count  # name01


def failure_breakdown(queries: list[Query], failed: list[bool], errors: list[str | None]) -> dict:
    """Failures by kind, by (variant, round-trip stage), and by exception type."""
    by_kind = Counter(q.kind for q, bad in zip(queries, failed) if bad)
    by_stage: Counter = Counter()
    tried: Counter = Counter()
    for q, bad in zip(queries, failed):
        if q.kind == "roundtrip":
            spec = expcli.DEFAULT_VARIANTS[q.variant]
            key = f"theta={spec['theta']},c={spec['c']}/stage{q.arg[0]}"
            tried[key] += 1
            by_stage[key] += bad
    return {
        "by_kind": dict(sorted(by_kind.items())),
        "roundtrip_by_variant_stage": {k: f"{by_stage[k]}/{tried[k]}" for k in sorted(tried)},
        "errors": dict(sorted(Counter(e for e in errors if e).items())),
    }
