"""The per-layer metrics of the traced run, in one table.

Library functions report `<module>.<fn>.calls` and `.self_s`; the
orchestration phases of `expcli` report `.calls` and `.total_s`;
`cli.main` reports all three. BENCHMARK.json lists the same names
(bench/tests/test_spans.py keeps the two in step).
"""

from __future__ import annotations

# (module, qualname): traced at every binding site, reported as calls + self_s
LIBRARY = [
    ("slowent.cutstack", "window_axes"),
    ("slowent.cutstack", "core_centroid"),
    ("slowent.cutstack", "point_from_address"),
    ("slowent.cutstack", "Schedule.m"),
    ("slowent.cutstack", "PointHandle.determining_stage"),
    ("slowent.cutstack", "core_count"),
    ("slowent.cutstack", "count_provenance_leq"),
    ("slowent.cutstack", "sample_point"),
    ("slowent.cutstack", "compose"),
    ("slowent.cutstack", "decompose"),
    ("slowent.cutstack", "locate_site"),
    ("slowent.cutstack", "color01_at"),
    ("slowent.cutstack", "name01"),
    ("slowent.recurrence", "recurrence_key"),
    ("slowent.recurrence", "centroid_decode_axes"),
    ("slowent.recurrence", "recurrence_set"),
    ("slowent.rng", "uniform_int"),
    ("slowent.rng", "stream_u64"),
    ("slowent.lattice", "pattern_distance"),
    ("slowent.lattice", "Pattern.__post_init__"),
    ("slowent.partitions", "recurrence_metric"),
    ("slowent.covernum", "bowen_first_fit_separated"),
    ("slowent.covernum", "exact_cover_number"),
    ("slowent.covernum", "greedy_cover_upper"),
    ("slowent.covernum", "max_separated_lower"),
    ("slowent.covernum", "sample_from_points"),
    ("slowent.toys", "torus_dist_rows"),
    ("slowent.toys", "sample_torus_points"),
    ("slowent.symbolic", "separated_words_first_fit"),
    ("slowent.symbolic", "overlay_name"),
    ("slowent.symbolic", "apply_code"),
]

# factories whose returned pair-distance closures are traced as one span name
CLOSURES = [
    ("slowent.toys", "TranslationAction.pair_bowen", "toys.dn"),
    ("slowent.toys", "ToralEndoAction.pair_bowen", "toys.dn"),
]

# (module, qualname): phases, reported as calls + total_s
PHASES = [
    ("slowent.expcli", name)
    for name in (
        "verify_all",
        "variant_suite",
        "stage2_recurrence_census",
        "metric_axiom_suite",
        "cover_sandwich_suite",
        "run_overlay",
        "run_ratio_et",
        "run_bowen",
        "write_report",
    )
]

MAIN = ("slowent.cli", "main")

# result counters and ratios beside the spans
EXTRA = [
    ("cutstack.window_axes.values", "count"),
    ("cutstack.decompose.none", "count"),
    ("cutstack.decompose.errors", "count"),
    ("rng.draws_per_int", "ratio"),
    ("trace_overhead", "ratio"),
]


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


def traced_functions() -> list[tuple[str, str, str]]:
    """(module, qualname, span name) of every function wrapped in the traced run."""
    return [(module, qualname, span_name(module, qualname)) for module, qualname in LIBRARY + PHASES + [MAIN]]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for module, qualname in LIBRARY:
        base = span_name(module, qualname)
        out[base + ".calls"] = "count"
        out[base + ".self_s"] = "s"
    for _, _, span in CLOSURES:
        out[span + ".calls"] = "count"
        out[span + ".self_s"] = "s"
    for module, qualname in PHASES:
        base = span_name(module, qualname)
        out[base + ".calls"] = "count"
        out[base + ".total_s"] = "s"
    base = span_name(*MAIN)
    out[base + ".calls"] = "count"
    out[base + ".total_s"] = "s"
    out[base + ".self_s"] = "s"
    out.update(EXTRA)
    return out
