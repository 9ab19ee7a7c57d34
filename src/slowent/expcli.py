"""Experiment orchestration: declarative configs, deterministic pipelines,
claim-verification suites, and report emission.

Every random draw descends from the config's master seed through tagged
counter streams, so a (config, version) pair maps to byte-identical report
JSON. Wall-clock timings are deliberately kept out of the canonical report
and written to a sidecar instead.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from . import covernum, cutstack, recurrence, rng, symbolic, toys
from .covernum import GrowthFit, alpha_pointwise, sample_from_points
from .cutstack import Schedule
from .lattice import Box, Pattern, UsageError, box_site_count
from .partitions import recurrence_metric


class Command(NamedTuple):
    """An experiment command. A field outside `reads` is refused in its
    config, except seed and sample_size, and the report config still records
    the default of each field it does not read."""

    runner: str  # looked up in this module when it runs, so a function rebound after import (a tracing wrapper) runs
    sample_size: int  # the default, for the CLI and for a config file without one
    reads: frozenset[str]  # the CONFIG_FIELDS the run reads
    help: str


# a sample of construction points: its seed, its size and the schedule it is drawn from
_SAMPLED = frozenset({"seed", "sample_size", "schedule"})

# command name, which is also the config kind -> command
COMMANDS = {
    "cover": Command("run_cover_scan", 12, _SAMPLED | {"scales", "epsilons"}, "cover-number scan over construction samples"),
    "recur": Command("run_recurrence", 50, frozenset({"schedule", "scales"}), "recurrence census, alpha fit, binomial bound"),
    "overlay": Command("run_overlay", 10_000, _SAMPLED, "overlay separation bounds and erasure identity"),
    "ratio-et": Command("run_ratio_et", 100, _SAMPLED, "ratio ergodic theorem visit-count check"),
    "bowen": Command("run_bowen", 500, frozenset({"seed", "sample_size"}), "Bowen metric checks on toy torus actions"),
    "verify": Command("verify_all", 50, frozenset({"seed"}), "full claim-verification matrix"),
    "metric-props": Command("run_metric_props", 100_000, frozenset(), "pattern metric axiom suite"),
}


#: The master seed of a config or command that names none.
DEFAULT_SEED = 2024

#: The schedule a config runs when it names none, and the CLI's schedule flag defaults.
DEFAULT_SCHEDULE_SPEC = {"stages": 4, "theta": "1/3", "c": "2", "r1": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's parameters; config_from_json fills and checks them."""

    kind: str
    seed: int
    schedule_spec: dict
    sample_size: int
    scales: tuple[int, ...] | None
    eps_list: tuple[str, ...]

    def schedule(self) -> Schedule:
        return schedule_from_spec(self.schedule_spec)

    def epsilons(self) -> list[Fraction]:
        return [cutstack.parse_fraction(e) for e in self.eps_list]


def filled_schedule_spec(spec: dict) -> dict:
    """The spec with each field its form reads and leaves out taken from
    DEFAULT_SCHEDULE_SPEC: "theta" and "c" for explicit "radii", all four
    for a generated schedule. A {"file": path} is read into the "radii",
    "theta" and "c" of its schedule, so a config records what runs."""
    if "file" in spec:
        if len(spec) > 1 or not isinstance(spec["file"], str):
            raise UsageError(f"schedule field 'file' takes a path and no other field, got {spec!r}")
        sched = cutstack.schedule_from_text(Path(spec["file"]).read_text())
        return {"radii": list(sched.radii), "theta": str(sched.theta), "c": str(sched.c)}
    if "radii" in spec:
        return {"theta": DEFAULT_SCHEDULE_SPEC["theta"], "c": DEFAULT_SCHEDULE_SPEC["c"], **spec}
    return {**DEFAULT_SCHEDULE_SPEC, **spec}


def schedule_from_spec(spec: dict) -> Schedule:
    """The schedule of a spec filled by filled_schedule_spec: explicit
    "radii", or one generated from "stages" and "r1", both with "theta" and
    "c". A field the spec's form does not read is refused."""
    unknown = sorted(set(spec) - {"file", "radii", *DEFAULT_SCHEDULE_SPEC})
    if unknown:
        raise UsageError(f"unknown schedule field {', '.join(map(repr, unknown))}")
    full = filled_schedule_spec(spec)
    if "radii" in full and ("stages" in full or "r1" in full):
        raise UsageError(f"schedule field 'radii' takes no 'stages' or 'r1', got {spec!r}")
    counts = full["radii"] if "radii" in full else [full["stages"], full["r1"]]
    if not isinstance(counts, list) or not all(_json_int(n) for n in counts):
        raise UsageError(f"schedule fields 'stages' and 'r1' take integers and 'radii' a list of them, got {spec!r}")
    theta, c = cutstack.parse_fraction(str(full["theta"])), cutstack.parse_fraction(str(full["c"]))
    if "radii" in full:
        return Schedule(tuple(full["radii"]), theta, c)
    return cutstack.build_schedule(full["stages"], theta, c, full["r1"])


def _json_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer; true and false decode to bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


#: Every field a config file may have.
CONFIG_FIELDS = frozenset({"kind", "seed", "sample_size", "scales", "epsilons", "schedule"})


def config_from_json(doc: dict) -> ExperimentConfig:
    """The one place a config is filled: each field left out takes its
    default here, and each field is checked before any experiment runs."""
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    kind = doc.get("kind")
    if kind not in COMMANDS:
        raise UsageError(f"config field 'kind' must be one of {tuple(COMMANDS)}, got {kind!r}")
    unknown = sorted(set(doc) - CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config field {', '.join(map(repr, unknown))}; known: {', '.join(sorted(CONFIG_FIELDS))}")
    # every kind accepts seed and sample_size while the benchmark's kinds workload passes both flags to each
    unread = sorted(set(doc) - {"kind", "seed", "sample_size"} - COMMANDS[kind].reads)
    if unread:
        raise UsageError(f"{kind} does not read config field {', '.join(map(repr, unread))}")
    seed = doc.get("seed", DEFAULT_SEED)
    if not _json_int(seed):
        raise UsageError("config field 'seed' must be an integer")
    sample_size = doc.get("sample_size", COMMANDS[kind].sample_size)
    if not _json_int(sample_size) or sample_size < 1:
        raise UsageError("config field 'sample_size' must be a positive integer")
    scales = doc.get("scales")
    if scales is not None:
        if not isinstance(scales, list) or not scales or not all(_json_int(n) for n in scales):
            raise UsageError(f"config field 'scales' must be a non-empty list of integers, got {scales!r}")
        if any(a >= b for a, b in zip(scales, scales[1:])):
            raise UsageError(f"config field 'scales' must be strictly increasing, got {scales!r}")
        scales = tuple(scales)
    epsilons = doc.get("epsilons", ["1/4", "1/8"])
    if not isinstance(epsilons, list) or not epsilons:
        raise UsageError(f"config field 'epsilons' must be a non-empty list of fractions, got {epsilons!r}")
    eps_list = tuple(str(e) for e in epsilons)
    values = [cutstack.parse_fraction(e) for e in eps_list]
    if min(values) < 0 or len(set(values)) < len(values):
        raise UsageError(f"config field 'epsilons' must be distinct non-negative fractions, got {list(eps_list)!r}")
    schedule = doc.get("schedule", DEFAULT_SCHEDULE_SPEC)
    if not isinstance(schedule, dict):
        raise UsageError("config field 'schedule' must be a JSON object")
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        schedule_spec=filled_schedule_spec(schedule),
        sample_size=sample_size,
        scales=scales,
        eps_list=eps_list,
    )


# ---------------------------------------------------------------------------
# Reports


class Claim(Enum):
    """Every claim a report can hold: its verdict name, the invariant it is
    asserted under, and the text it is only reported under (for a claim that
    tight spacing degenerates, or a diagnostic that is never asserted)."""

    def __init__(self, key: str, invariant: str | None, note: str | None) -> None:
        self.key, self.invariant, self.note = key, invariant, note

    SCHEDULE_VALIDATES = ("schedule-validates", "schedule validates", None)
    GAMMA1_COUNT = ("gamma1-count", "|Gamma_1| formula equals exhaustive count", None)
    GAMMA_STAR_PRODUCT = ("gamma-star-product", "|Gamma*_i| equals the product of level sizes", None)
    DECOMPOSE_ROUNDTRIP = ("decompose-roundtrip", "decompose inverts compose exactly", None)
    MASS_INCREASING = (
        "mass-increasing",
        "stage masses strictly increase (infinite total mass surrogate)",
        "stage masses (minimal spacing tiles exactly from stage 2, so the surrogate saturates)",
    )
    STAGE2_CENSUS = (
        "stage2-census",
        "recurrence patterns injective over stage-2 positions; centroid decoder exact",
        "recurrence pattern census (tight spacing degenerates to a full grid)",
    )
    ALPHA_VS_THETA = ("alpha-vs-theta", "measured alpha limsup within 0.1 of 1 - theta", None)
    GAMMA_EXPONENT_VS_THETA = ("gamma-exponent-vs-theta", "per-level log-size slope within 0.1 of 2 (1 - theta)", None)
    GAMMA_STAR_RAW_RATIOS = (
        "gamma-star-raw-ratios",
        None,
        "raw log|Gamma*_i| / log r(i+1) (tends to 2 under greedy growth)",
    )
    RHO_ALPHA_BOUND = ("rho-alpha-bound", "cover count obeys the binomial bound at the claim scale", None)
    PROD_R_DIAGNOSTIC = ("prod-r-diagnostic", None, "log prod r(j) / log r(i); fast growth would make this 1 + o(1)")
    METRIC_AXIOMS = ("metric-axioms", "pattern metric axioms hold exactly", None)
    COVER_SANDWICH = ("cover-sandwich", "separation <= exact <= greedy on random instances", None)
    GV_EXHAUSTIVE = (
        "gv-exhaustive",
        "first-fit separated family over the full coloring cube reaches the sphere-covering bound",
        None,
    )
    GV_SAMPLED = ("gv-sampled", "first-fit separated family over sampled overlay names reaches 2^8", None)
    ERASURE_IDENTITY = ("erasure-identity", "erasing overlay letters recovers the base name exactly", None)
    RATIO_ERGODIC = (
        "ratio-ergodic",
        "median core / stage-2-provenance visit ratio within 15% of the ledger mass ratio",
        None,
    )
    BOWEN_ISOMETRY = ("bowen-isometry", "translations: sep(d_n, eps) equals sep(d, eps) at every tested n", None)
    LIPSCHITZ_ORBIT_BOUND = ("lipschitz-orbit-bound", "d_n(x, y) <= C d(x, y) for C the largest ||M^k|| over the orbit", None)
    BOWEN_LIPSCHITZ_GROWTH = ("bowen-lipschitz-growth", "sep(d_n, eps) <= C^n / eps^C for the Lipschitz pair", None)


@dataclass
class Verdict:
    name: str
    invariant: str
    status: str  # pass | fail | reported
    details: dict


@dataclass
class Report:
    config: dict
    verdicts: list[Verdict] = field(init=False, default_factory=list)
    tables: dict[str, list[dict]] = field(init=False, default_factory=dict)
    exponents: dict[str, float | None] = field(init=False, default_factory=dict)
    runtime_seconds: float | None = field(init=False, default=None)

    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    def claim(self, claim: Claim, ok: bool | None, asserted: bool = True, label: str = "", suffix: str = "", **details: Any) -> None:
        """Append the verdict of `claim`, named label/key plus suffix: pass or
        fail under its invariant when asserted, else reported under its note."""
        name = f"{label}/{claim.key}{suffix}" if label else claim.key + suffix
        if asserted:
            self.verdicts.append(Verdict(name, claim.invariant, "pass" if ok else "fail", details))
        else:
            self.verdicts.append(Verdict(name, claim.note, "reported", details))


def _canonical(obj: Any) -> Any:
    """The JSON value of a report value; a type no report carries raises TypeError."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (str, int, float)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _canonical(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"a report cannot carry a {type(obj).__name__}")


def report_to_json(report: Report) -> bytes:
    """Canonical bytes; excludes wall-clock fields so reruns compare equal.
    Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    doc = {
        "config": _canonical(report.config),
        "verdicts": [_canonical(v) for v in report.verdicts],
        "tables": _canonical(report.tables),
        "exponents": _canonical(report.exponents),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode() + b"\n"


def fresh(path: Path) -> Path:
    """The path, any file there removed: ext4 flushes a truncated and
    rewritten file on close (tens of ms for a report), but not a new one."""
    path.unlink(missing_ok=True)
    return path


def write_report(report: Report, out_dir: Path) -> Path:
    """report.json, timing.json when the run was timed, and one CSV per report table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    fresh(path).write_bytes(report_to_json(report))
    if report.runtime_seconds is not None:
        fresh(out_dir / "timing.json").write_text(json.dumps({"runtime_seconds": report.runtime_seconds}) + "\n")
    for name, rows in report.tables.items():
        write_csv(rows, out_dir / f"{name}.csv")
    return path


def write_csv(rows: list[dict], path: Path) -> None:
    # tables may mix row shapes (bowen): every key gets a column, in first-seen order
    cols = list(dict.fromkeys(c for row in rows for c in row))
    lines = [",".join(str(_canonical(row[c])) if c in row else "" for c in cols) for row in rows]
    fresh(path).write_text("\n".join([",".join(cols), *lines, ""]) if rows else "")


# ---------------------------------------------------------------------------
# Pattern metric axioms by site-type census

# The joint symbols (a(u), b(u), c(u)) of three patterns at a site in at least
# one support, one per class under swapping symbols 1 and 2 at that site: the
# first non-default symbol is 1. pattern_distance sees a triple only through
# how many sites have each type.
SITE_TYPES = tuple(t for t in itertools.product((0, 1, 2), repeat=3) if next((x for x in t if x), 2) == 1)

# The 7 site types of three one-symbol patterns: SITE_TYPES without symbol 2.
ONE_SYMBOL_TYPES = tuple(t for t in SITE_TYPES if 2 not in t)

# The joint symbols (p(u), q(u)) of two patterns at a site in at least one
# support, with no 1 <-> 2 swap. A pair type key packs how many sites carry
# each, 4 bits per type in this order; two pairs with the same key differ by a
# site permutation, so they have the same distances and the same equality.
PAIR_TYPES = tuple(t for t in itertools.product((0, 1, 2), repeat=2) if t != (0, 0))


def _pair_type_bit(x: int, y: int) -> int:
    """What one site with symbols (x, y) adds to a pair type key."""
    return 1 << 4 * PAIR_TYPES.index((x, y)) if x or y else 0


def site_type_counts(site_types: Sequence[tuple[int, int, int]], max_cells: int):
    """Every count vector over site_types that gives each pattern at most
    max_cells cells, with the pair type keys of its pairs (a, b), (a, c) and (b, c).

    Yields (counts, key_ab, key_ac, key_bc) lazily, the counts in
    lexicographic order: each step adds one site to the last type that still
    fits, clearing the types after it, and moves the loads and keys with it.
    """
    # per type: the cells one site adds to each pattern, and to each pair key
    adds = [
        (int(x != 0), int(y != 0), int(z != 0), _pair_type_bit(x, y), _pair_type_bit(x, z), _pair_type_bit(y, z))
        for x, y, z in site_types
    ]
    counts = [0] * len(site_types)
    la = lb = lc = kab = kac = kbc = 0  # cells of each pattern and pair keys so far
    while True:
        yield tuple(counts), kab, kac, kbc
        k = len(counts) - 1
        while True:
            wa, wb, wc, iab, iac, ibc = adds[k]
            if la + wa <= max_cells and lb + wb <= max_cells and lc + wc <= max_cells:
                counts[k] += 1
                la, lb, lc = la + wa, lb + wb, lc + wc
                kab, kac, kbc = kab + iab, kac + iac, kbc + ibc
                break
            c, counts[k] = counts[k], 0
            la, lb, lc = la - c * wa, lb - c * wb, lc - c * wc
            kab, kac, kbc = kab - c * iab, kac - c * iac, kbc - c * ibc
            if k == 0:
                return
            k -= 1


# the census box Q_2 and its sites in box order; a census pair uses at most 8
CENSUS_BOX = Box(2)
CENSUS_SITES = tuple(CENSUS_BOX.sites())


def census_pair(key: int) -> tuple[Pattern, Pattern]:
    """The two patterns of a pair type key on CENSUS_BOX, through the checked
    constructor: its sites laid out in box order, one run per pair type."""
    p: dict = {}
    q: dict = {}
    sites = iter(CENSUS_SITES)
    for j, (x, y) in enumerate(PAIR_TYPES):
        for u in itertools.islice(sites, key >> 4 * j & 15):
            if x:
                p[u] = x
            if y:
                q[u] = y
    return Pattern(CENSUS_BOX, 0, p), Pattern(CENSUS_BOX, 0, q)


def arrangements(counts: Sequence[int], sites: int) -> int:
    """The ways to give each of `sites` sites one type of a count vector, or
    none: 9!/(c_1! ... c_7! (9 - sum c)!) for a vector on the 9 sites of Q_1,
    which is how many ordered triples of patterns on Q_1 it stands for."""
    return math.factorial(sites) // math.prod(map(math.factorial, (*counts, sites - sum(counts))))


def metric_axiom_suite() -> dict:
    """Exhaustive checks of the pattern metric axioms, one site-type census per box.

    Symmetry, identity and the triangle inequality over every triple of
    patterns on Q_2 with symbols {1, 2} and at most 4 cells each: one
    triple per count vector over SITE_TYPES, since the metric does not
    change under site permutations or per-site symbol swaps. Then the
    triangle inequality over every ordered triple of one-symbol patterns on
    Q_1 with at most 3 cells: one count vector over ONE_SYMBOL_TYPES per
    class, weighted by its `arrangements` on the 9 sites of Q_1.

    The pairs (a, b), (a, c) and (b, c) of the 10,842 Q_2 triples fall into
    1,102 pair types. Each type is laid out and measured once, in both
    orders, the first time its key appears; a triple then reads its three
    pairs by key. Every one-symbol key is among them, so the Q_1 triples
    measure nothing new. Only the measured types are held, never a census.
    """
    from .lattice import pattern_distance

    measured: dict[int, tuple[int, int, bool, bool]] = {}

    def pair(key: int) -> tuple[int, int, bool, bool]:
        """A pair type's distance as numerator and denominator, whether it is
        symmetric, and whether it is 0 exactly when the patterns are equal."""
        if key not in measured:
            p, q = census_pair(key)
            d = pattern_distance(p, q)
            measured[key] = (d.numerator, d.denominator, d == pattern_distance(q, p), (d == 0) == (p == q))
        return measured[key]

    def triangle_fails(kab: int, kac: int, kbc: int) -> bool:
        """d_ac > d_ab + d_bc, in exact integers."""
        (n_ab, u_ab, *_), (n_ac, u_ac, *_), (n_bc, u_bc, *_) = pair(kab), pair(kac), pair(kbc)
        return n_ac * u_ab * u_bc > (n_ab * u_bc + n_bc * u_ab) * u_ac

    sym_viol = ident_viol = tri_viol = triples = 0
    for _, kab, kac, kbc in site_type_counts(SITE_TYPES, 4):
        _, _, symmetric, identity = pair(kab)
        triples += 1
        sym_viol += not symmetric
        ident_viol += not identity
        tri_viol += triangle_fails(kab, kac, kbc)
    q1_sites = box_site_count(1)
    ex_viol = sum(
        arrangements(counts, q1_sites)
        for counts, kab, kac, kbc in site_type_counts(ONE_SYMBOL_TYPES, 3)
        if triangle_fails(kab, kac, kbc)
    )
    return {
        "census_triples": triples,
        "exhaustive": True,
        "symmetry_violations": sym_viol,
        "identity_violations": ident_viol,
        "triangle_violations": tri_viol,
        "exhaustive_patterns": sum(math.comb(q1_sites, k) for k in range(4)),
        "exhaustive_triangle_violations": ex_viol,
    }


def metric_axioms_hold(stats: dict) -> bool:
    """The pass condition of a `metric_axiom_suite` result."""
    return all(
        stats[key] == 0
        for key in ("symmetry_violations", "identity_violations", "triangle_violations", "exhaustive_triangle_violations")
    )


def metric_axioms_claim(report: Report, label: str) -> None:
    """The metric-axioms verdict of one exhaustive `metric_axiom_suite` run."""
    stats = metric_axiom_suite()
    report.claim(Claim.METRIC_AXIOMS, metric_axioms_hold(stats), label=label, **stats)


def fit_rows(fit: GrowthFit) -> list[dict]:
    """Plot-ready rows for a growth fit: n, value, transformed coordinates."""
    rows = []
    for n, value in fit.samples:
        if fit.scale == "slow":
            tx, ty = math.log(n), math.log(math.log(value))
        elif fit.scale == "exp":
            tx, ty = float(n), math.log2(value)
        else:
            tx, ty = math.log(box_site_count(n)), math.log(value)
        rows.append({"n": n, "value": value, "transformed_x": tx, "transformed_y": ty})
    return rows


def run_metric_props(config: ExperimentConfig) -> Report:
    report = Report(config=_canonical(config))
    metric_axioms_claim(report, "")
    return report


# ---------------------------------------------------------------------------
# Construction-derived experiments


def default_scales(sched: Schedule) -> list[int]:
    """{2 r(1), 2 r(2)} plus geometric intermediates, within window feasibility."""
    top = 2 * sched.r(2)
    out = {2 * sched.r(1), top}
    n = 4
    while n < top:
        out.add(n)
        n *= 4
    return sorted(out)


def gapped_spacing(sched: Schedule) -> bool:
    """Whether stage copies leave gaps (c >= 5), so the claims that need them are
    asserted: recurrence-pattern injectivity, centroid decoding, growing mass.
    Tighter spacing tiles exactly, and those checks are only reported.
    """
    return sched.c >= 5


def sample_points(sched: Schedule, stage: int, count: int, seed: int) -> list[cutstack.PointHandle]:
    return [cutstack.sample_point(sched, stage, rng.derive_seed(seed, "point", i)) for i in range(count)]


def recurrence_sample(points: Sequence[cutstack.PointHandle], n: int) -> covernum.MetricSample:
    """The points under the recurrence metric d_{A,n}, each of mass 1/len."""
    patterns = [recurrence.recurrence_set(p, n) for p in points]
    return sample_from_points(
        list(range(len(points))),
        [Fraction(1, len(points))] * len(points),
        lambda i, j: recurrence_metric(patterns[i], patterns[j]),
    )


def run_cover_scan(config: ExperimentConfig) -> Report:
    if config.sample_size > covernum.EXACT_COVER_LIMIT:
        limit = covernum.EXACT_COVER_LIMIT
        raise UsageError(f"cover runs its exact cover search on at most {limit} points, got a sample size of {config.sample_size}")
    report = Report(config=_canonical(config))
    sched = config.schedule()
    points = sample_points(sched, 3, config.sample_size, config.seed)
    scales = list(config.scales) if config.scales else default_scales(sched)
    rows = []
    for n in scales:
        smp = recurrence_sample(points, n)
        for eps in config.epsilons():
            lower, exact, upper = covernum.cover_bracket(smp, eps, eps)
            rows.append({"n": n, "epsilon_diam": eps, "epsilon_mass": eps, "lower": lower, "upper": upper, "exact": exact})
            lower, exact, upper = covernum.cover_bracket(smp, eps, Fraction(0))
            ok = lower <= exact <= upper
            report.claim(Claim.COVER_SANDWICH, ok, suffix=f"-n{n}-eps{eps}", n=n, eps=eps, lower=lower, exact=exact, upper=upper)
    report.tables["cover"] = rows
    return report


def stage2_recurrence_census(sched: Schedule, n: int) -> dict:
    """Distinct recurrence patterns and decoder hits over every stage-2 position.

    The positions form Gamma_1 = A x A, and the window at (a, b) is X(a) x X(b)
    with X(a) non-empty (it holds the point itself), so distinct patterns and
    decoder hits over A x A are the squares of the per-axis counts over A.
    Each X(a) is keyed by its maximal runs and decoded from its integer
    count and sum; no value list is built. The y window of (a, 0) is
    [-n, n] on a symmetric set, so its mean is 0.
    """
    axis = sched.sumset(2).values(-sched.s(1), sched.s(1), 0)
    patterns = set()
    decode_hits = 0
    for a in axis:
        window, (x, _) = cutstack.window_sumset(cutstack.point_from_address(sched, [(a, 0)]), n)
        patterns.add(window.maximal_runs(x - n, x + n, x))
        count, total = window.count_sum(x - n, x + n)
        if recurrence.centroid_decode_axes((total - x * count, count), (0, 1))[0] == a:
            decode_hits += 1
    return {
        "positions": len(axis) ** 2,
        "distinct_patterns": len(patterns) ** 2,
        "decode_hits": decode_hits**2,
        "window": n,
    }


def stage2_census_claim(report: Report, sched: Schedule, label: str) -> dict:
    """The stage2-census verdict at the claim scale 2 r(2), asserted under
    gapped spacing; returns the census."""
    census = stage2_recurrence_census(sched, 2 * sched.r(2))
    report.claim(
        Claim.STAGE2_CENSUS,
        census["distinct_patterns"] == census["positions"] == census["decode_hits"],
        asserted=gapped_spacing(sched),
        label=label,
        **census,
        gamma_star_1=cutstack.gamma_star_size(2, sched),
        exhaustive=True,
    )
    return census


def rho_alpha_claim(report: Report, census: dict, alpha: float, label: str) -> None:
    """The rho-alpha-bound verdict: the census count at its window against the binomial bound."""
    count = census["distinct_patterns"]
    ok = recurrence.rho_alpha_bound_holds(census["window"], count, alpha, Fraction(1, 20))
    report.claim(Claim.RHO_ALPHA_BOUND, ok, label=label, count=count)


def run_recurrence(config: ExperimentConfig) -> Report:
    report = Report(config=_canonical(config))
    sched = config.schedule()
    census = stage2_census_claim(report, sched, "")
    center = cutstack.point_from_address(sched, [(0, 0)])
    scales = list(config.scales) if config.scales else [2 * sched.r(1), 2 * sched.r(2)]
    counts = [(n, cutstack.core_count(center, n)) for n in scales]
    rows = [
        {"n": n, "point_id": "center", "R_size": c, "alpha_pointwise": (alpha_pointwise(c, n) if n >= 1 else 0.0)}
        for n, c in counts
    ]
    report.tables["recurrence"] = rows
    fit = covernum.alpha_fit([(n, c) for n, c in counts if n >= 1])
    report.exponents["alpha_limsup"] = fit.limsup_exponent
    report.exponents["alpha_slope"] = fit.exponent
    report.tables["alpha_fit"] = fit_rows(fit)
    rho_alpha_claim(report, census, fit.limsup_exponent, "")
    return report


def run_overlay(config: ExperimentConfig) -> Report:
    family_target = 256
    if config.sample_size < family_target:
        # a first-fit family never holds more words than it was given
        raise UsageError(f"overlay needs a sample size of at least {family_target} names to reach 2^8, got {config.sample_size}")
    report = Report(config=_canonical(config))
    sched = config.schedule()
    core_size = 16
    eps = Fraction(1, 8)
    gv = symbolic.hamming_cover_lower(core_size, eps)
    min_dist = math.ceil(eps * core_size)
    family = symbolic.cube_first_fit(core_size, min_dist)
    report.claim(Claim.GV_EXHAUSTIVE, family >= gv, core_size=core_size, eps=eps, gv_bound=gv, family=family)
    words = [rng.uniform_int(config.seed, "overlay-word", i, lo=0, hi=(1 << core_size) - 1) for i in range(config.sample_size)]
    sampled = symbolic.separated_words_first_fit(core_size, min_dist, words)
    report.claim(Claim.GV_SAMPLED, sampled >= family_target, sampled_names=len(words), family=sampled)
    # erasure factor identity on random points and radii: the overlay's
    # default 0 and its letters on X x Y must erase to the base name's 0 and 1s
    bad = 0
    cases = min(config.sample_size, 1000)
    erasure = symbolic.code_tables(symbolic.ERASURE)
    for i in range(cases):
        p = cutstack.sample_point(sched, 3, rng.derive_seed(config.seed, "ov-point", i))
        n = rng.uniform_int(config.seed, "ov-radius", i, lo=0, hi=27)
        _, _, letters = symbolic.overlay_name(p, n)
        if symbolic.apply_code(erasure, b"\0" + letters) != b"\0" + b"\1" * len(letters):
            bad += 1
    report.claim(Claim.ERASURE_IDENTITY, bad == 0, cases=cases, failures=bad)
    report.exponents["gv_rate_deficit"] = symbolic.gv_rate_deficit(core_size, eps)
    report.exponents["binary_entropy_eps"] = symbolic.binary_entropy(float(eps))
    return report


def run_ratio_et(config: ExperimentConfig) -> Report:
    report = Report(config=_canonical(config))
    n = 5000
    sched = config.schedule()
    points = sample_points(sched, 3, config.sample_size, config.seed)  # refuses fewer than 3 stages
    ledger = cutstack.mass_ledger(sched, 2)
    target = ledger.mu_core(2) / ledger.new_mass(2)
    rows = []
    for i, p in enumerate(points):
        visits_core = cutstack.count_provenance_leq(p, n, 1)
        visits_stage2 = cutstack.count_provenance_leq(p, n, 2) - visits_core
        ratio = visits_core / visits_stage2 if visits_stage2 else float("inf")
        rows.append({"point_id": i, "n": n, "core_visits": visits_core, "stage2_visits": visits_stage2, "ratio": ratio})
    med = statistics.median(row["ratio"] for row in rows)
    ok = abs(med - float(target)) <= 0.15 * float(target)
    report.claim(Claim.RATIO_ERGODIC, ok, n=n, median_ratio=med, ledger_ratio=float(target), points=len(points))
    report.tables["ratio_et"] = rows
    return report


def run_bowen(config: ExperimentConfig, n_list: Sequence[int] = (0, 1, 2, 4, 8, 16)) -> Report:
    report = Report(config=_canonical(config))
    eps_list = (0.1, 0.05)
    count = config.sample_size
    pts = toys.sample_torus_points(count, config.seed)
    # T^0 is the identity for both actions, so one u = 0 pass serves every n
    close = {eps: toys.close_masks(pts, eps) for eps in eps_list}
    base_sep = {eps: covernum.bowen_first_fit_separated(close[eps], lambda i, j: False) for eps in eps_list}
    rows = [
        {"action": "translation", "n": n, "eps": eps, "sep": sep, "sep_base": base_sep[eps]}
        for n, eps, sep in toys.bowen_separations(toys.TranslationAction(), pts, close, n_list)
    ]
    report.claim(
        Claim.BOWEN_ISOMETRY, all(row["sep"] == row["sep_base"] for row in rows), n_list=list(n_list), eps_list=list(eps_list)
    )
    endo = toys.ToralEndoAction()
    # n <= 6 here and in the cells below: a larger n belongs with the Bowen-ball bracket of sep(d_n, eps)
    lip_n = min(6, max(n_list))
    lip = endo.orbit_lipschitz(lip_n)
    # each positive M^k attains its sup norm at (1, 1), so on pairs x, x + step (1, 1)
    # the bound holds with equality, and a constant one orbit step short fails; they share one difference and one orbit
    step, m = 1 << 37, min(count, 200)  # 2^-27 in units of 2^-64
    d = endo.pair_bowen([(0, 0), (step, step)], lip_n)(0, 1)
    report.claim(Claim.LIPSCHITZ_ORBIT_BOUND, d <= lip * step, checked=m, n=lip_n, lip=lip)
    c1 = endo.generator_lipschitz
    sep_rows = [
        {"action": "toral-endo", "n": n, "eps": eps, "sep": sep, "log2_bound": covernum.bowen_bound_log2(n, eps, c1, 4.0)}
        for n, eps, sep in toys.bowen_separations(endo, pts, close, [m for m in n_list if m <= 6])
    ]
    growth_ok = all(math.log2(max(row["sep"], 1)) <= row["log2_bound"] for row in sep_rows)
    report.claim(Claim.BOWEN_LIPSCHITZ_GROWTH, growth_ok, cells=len(sep_rows))
    report.tables["bowen"] = rows + sep_rows
    return report


# ---------------------------------------------------------------------------
# Exponent-vs-theta suite (pure big-integer arithmetic plus measured windows)


def gamma_level_slope(sched: Schedule) -> float:
    """Differenced fit: the least-squares slope of per-level log |Gamma_i| against log r(i+1).

    log |Gamma*_i| accumulates the per-level logs, so the increments are
    the right regression targets for the level exponent 2 (1 - theta); the
    raw ratios log |Gamma*_i| / log r(i+1) are reported separately because
    greedy minimal schedules do not satisfy the fast-growth condition that
    would make them converge to the same value.
    """
    levels = range(1, sched.stages)
    xs = [math.log(sched.r(i + 1)) for i in levels]
    ys = [math.log(cutstack.gamma_size(sched, i)) for i in levels]
    return covernum._least_squares(xs, ys)[0]


def measured_alpha(sched: Schedule) -> GrowthFit:
    """Recurrence counts of the centered point at the claim scales 2r(1), 2r(2)."""
    center = cutstack.point_from_address(sched, [(0, 0)])
    counts = [(n, cutstack.core_count(center, n)) for n in (2 * sched.r(1), 2 * sched.r(2))]
    return covernum.alpha_fit(counts)


# ---------------------------------------------------------------------------
# verify


def roundtrip_failures(sched: Schedule, stage: int) -> tuple[int, int]:
    """(addresses sent, round trips failed) of decompose at the margins of one stage.

    With k = s(j)/m(j), level j's five quotients are -k, -k+1, 0, k-1 and
    k. The margin addresses put every level at the same one of its five,
    then each level at each of its five with every finer level at +k (or
    every one at -k) and every coarser level at 0: 8 L - 1 distinct
    addresses over L >= 2 levels. Each goes on x and its negation on y, and
    the site must come back as exactly those offsets.

    Level lemma: the margins decide every address. decompose peels each
    coordinate on its own, one AxisSumset.peel step a level, top-down. At
    level l write the remainder a = q m + r, with |q| <= k and r the sum of
    the finer offsets, so |r| <= R, their reach. The step divmod(a + h, m),
    h = m // 2, returns (q, r + h) exactly when -h <= r < m - h, whatever q
    and the coarser levels are, and AxisSumset's constructor refuses m <= 2 R,
    so that holds for every |r| <= R. The step then keeps q when |q| <= k
    and |r| is within the level's slack. Each test is an interval in q or
    in r, so it holds on every address once it holds at r = +-R (every
    finer level at +-k) with the level at +-k: margin addresses.
    """
    levels = sched.levels_1d(stage - 1)  # (m(j), s(j)), finest first
    ks = [s // m for m, s in levels]
    fives = [(-k, 1 - k, 0, k - 1, k) for k in ks]
    rows = list(zip(*fives))
    for level, quotients in enumerate(fives):
        for sign in (1, -1):
            rows += [(*(sign * k for k in ks[:level]), q, *[0] * (len(ks) - level - 1)) for q in quotients]
    addresses = dict.fromkeys(tuple(q * m for q, (m, _) in zip(row, levels)) for row in rows)
    failures = 0
    for xs in addresses:
        got = cutstack.decompose((sum(xs), -sum(xs)), stage, sched)
        failures += got is None or got.levels != tuple((g, -g) for g in xs)
    return len(addresses), failures


def variant_suite(report: Report, sched: Schedule, label: str) -> None:
    """Claim checks for one schedule variant; assertion strength follows spacing."""
    theta = sched.theta
    # combinatorics
    formula = cutstack.gamma_size(sched, 1)
    # Gamma_1 = A x A, so traversing the axis A counts every site
    exhaustive = len(sched.sumset(2).values(-sched.s(1), sched.s(1), 0)) ** 2
    report.claim(Claim.GAMMA1_COUNT, formula == exhaustive, label=label, formula=formula, exhaustive=exhaustive)
    # Gamma*_{k-1} is the axis sumset taken twice, and every axis value lies
    # within the reach r(k) - r(1); the sumset counts them from its own levels
    k = min(3, sched.stages)
    gstar = cutstack.gamma_star_size(k, sched)
    reach = sched.r(k) - sched.r(1)
    report.claim(Claim.GAMMA_STAR_PRODUCT, gstar == sched.sumset(k).count_sum(-reach, reach)[0] ** 2, label=label, value=gstar)
    # decompose round trip at the margins of every built stage
    counts = [roundtrip_failures(sched, stage) for stage in range(2, sched.stages + 1)]
    sent, failures = sum(n for n, _ in counts), sum(bad for _, bad in counts)
    coverage = "every address, by the level lemma"
    report.claim(Claim.DECOMPOSE_ROUNDTRIP, failures == 0, label=label, coverage=coverage, addresses=sent, failures=failures)
    # mass ledger
    ledger = cutstack.mass_ledger(sched, min(4, sched.stages))
    increasing = all(ledger.stage_masses[i] < ledger.stage_masses[i + 1] for i in range(len(ledger.stage_masses) - 1))
    gapped = gapped_spacing(sched)
    report.claim(
        Claim.MASS_INCREASING,
        increasing,
        asserted=gapped,
        label=label,
        masses=[str(m) for m in ledger.stage_masses],
        # as a note, the outcome goes into the details
        **({} if gapped else {"increasing": increasing}),
    )
    census = stage2_census_claim(report, sched, label)
    # exponents
    afit = measured_alpha(sched)
    gamma_slope = gamma_level_slope(sched)
    alpha_target = 1 - float(theta)
    gamma_target = 2 * (1 - float(theta))
    report.claim(
        Claim.ALPHA_VS_THETA,
        abs(afit.limsup_exponent - alpha_target) <= 0.1,
        label=label,
        measured=afit.limsup_exponent,
        target=alpha_target,
    )
    report.claim(
        Claim.GAMMA_EXPONENT_VS_THETA,
        abs(gamma_slope - gamma_target) <= 0.1,
        label=label,
        measured=gamma_slope,
        target=gamma_target,
    )
    raw = [
        math.log(cutstack.gamma_star_size(i + 1, sched)) / math.log(sched.r(i + 1))
        for i in range(1, min(6, sched.stages - 1) + 1)
    ]
    report.claim(Claim.GAMMA_STAR_RAW_RATIOS, None, asserted=False, label=label, ratios=raw)
    report.exponents[f"{label}/alpha"] = afit.limsup_exponent
    report.exponents[f"{label}/gamma_level_slope"] = gamma_slope
    rho_alpha_claim(report, census, afit.limsup_exponent, label)
    prod_r = [sched.prod_r_exponent(i) for i in range(2, min(6, sched.stages) + 1)]
    report.claim(Claim.PROD_R_DIAGNOSTIC, None, asserted=False, label=label, values=prod_r)


DEFAULT_VARIANTS = (
    {"stages": 6, "theta": "1/3", "c": "2", "r1": 1},
    {"stages": 6, "theta": "1/4", "c": "2", "r1": 1},
    {"stages": 6, "theta": "1/3", "c": "5", "r1": 1},
    {"stages": 6, "theta": "1/4", "c": "5", "r1": 1},
)


def verify_all(config: ExperimentConfig) -> Report:
    """Claim-check matrix across DEFAULT_VARIANTS plus the global suites."""
    report = Report(config=_canonical(config))
    for spec in DEFAULT_VARIANTS:
        try:
            sched = schedule_from_spec(spec)
        except UsageError as exc:
            report.claim(Claim.SCHEDULE_VALIDATES, False, label=f"variant-{spec}", error=str(exc))
            continue
        label = f"theta={spec['theta']},c={spec['c']}"
        variant_suite(report, sched, label)
    metric_axioms_claim(report, "global")
    sandwich = cover_sandwich_suite(config.seed, instances=60, max_points=10)
    report.claim(Claim.COVER_SANDWICH, sandwich["violations"] == 0, label="global", **sandwich)
    for sub in (
        run_overlay(config_from_json({"kind": "overlay", "seed": config.seed, "sample_size": 2000})),
        run_ratio_et(config_from_json({"kind": "ratio-et", "seed": config.seed, "sample_size": 40})),
        run_bowen(config_from_json({"kind": "bowen", "seed": config.seed, "sample_size": 200}), n_list=(0, 1, 2, 4, 8)),
    ):
        report.verdicts.extend(Verdict(f"global/{v.name}", v.invariant, v.status, v.details) for v in sub.verdicts)
    return report


def cover_sandwich_suite(seed: int, instances: int, max_points: int) -> dict:
    """Random rational metric samples; checks sep <= exact <= greedy.

    Points have integer coordinates in units of 1/1000 and integer masses
    (cover numbers do not change when every mass is scaled), so each pair
    builds one Fraction, its distance.
    """
    violations = 0
    ratios = []
    for i in range(instances):
        count = rng.uniform_int(seed, "cs-count", i, lo=2, hi=max_points)
        coords = [
            (rng.uniform_int(seed, "cs-x", i, j, lo=0, hi=1000), rng.uniform_int(seed, "cs-y", i, j, lo=0, hi=1000))
            for j in range(count)
        ]
        masses = [1 + rng.uniform_int(seed, "cs-m", i, j, lo=0, hi=3) for j in range(count)]

        def metric(a, b):
            return Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]), 2000)

        smp = sample_from_points(coords, masses, metric)
        eps = Fraction(1 + rng.uniform_int(seed, "cs-eps", i, lo=0, hi=300), 1000)
        lower, exact, upper = covernum.cover_bracket(smp, eps, Fraction(0))
        if not (lower <= exact <= upper):
            violations += 1
        if exact:
            ratios.append(upper / exact)
    return {
        "instances": instances,
        "violations": violations,
        "mean_greedy_exact_ratio": float(sum(ratios) / len(ratios)) if ratios else 1.0,
    }


def run_experiment(config: ExperimentConfig) -> Report:
    started = time.monotonic()
    report = globals()[COMMANDS[config.kind].runner](config)
    report.runtime_seconds = time.monotonic() - started
    return report
