"""One workload process of the benchmark: set up, run timed passes, report.

bench/run.py starts this with the checkout's `src` first on PYTHONPATH and
BLAS threads pinned to one. The process prints `ready` as soon as set-up
is done (the launcher times set-up up to that line), runs passes until
`--seconds` have elapsed (at least the workload's minimum), optionally one
more pass under the span recorder, and prints one JSON line of results.
Every pass runs under the host-speed probe (hostspeed.py), which turns its
wall time into reference seconds. Correctness checks run between passes,
outside the timed sections.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
import slowent
from slowent import cli

import hostspeed
import layers
import queries
import spans

# Sample sizes of the `kinds` commands. A pass at the CLI defaults takes
# about 45 s on a 2-CPU Xeon, so metric-props, overlay, ratio-et and bowen
# run at 8-20% of their defaults (about 5 s a pass), each keeping roughly
# its share of a default pass, so that a run holds three or more passes.
# cover and recur take under 0.1 s at their defaults and keep them.
KINDS_COMMANDS = (
    ("metric-props", 8_000),
    ("cover", 12),
    ("recur", 50),
    ("overlay", 1_000),
    ("ratio-et", 10),
    ("bowen", 100),
)


class Batch:
    """`verify` or `kinds`: CLI commands through `cli.main`; ops are verdicts.

    Every pass writes its reports to its own directory; each pass's
    `report.json` bytes must equal the first pass's.
    """

    def __init__(self, name: str, seed: int, out: Path):
        if name == "verify":
            self.commands = [("verify", ["verify", "--seed", str(seed)])]
            self.min_passes = 1
        else:
            self.commands = [
                (kind, [kind, "--seed", str(seed), "--sample-size", str(size)]) for kind, size in KINDS_COMMANDS
            ]
            self.min_passes = 2
        self.out = out
        self.reports: dict[str, bytes] | None = None
        self.attempted = self.failed = 0
        self.breakdown: dict[str, Any] = {}

    def timed_pass(self, index: int, probe: hostspeed.Sampler) -> tuple[float, list[int]]:
        codes = []
        sink = io.StringIO()
        start = time.perf_counter()
        for name, argv in self.commands:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main([*argv, "--out", str(self.out / f"pass{index}" / name)]))
        return time.perf_counter() - start, codes

    def check(self, index: int, codes: list[int]) -> list[str]:
        problems = []
        reports = {}
        attempted = failed = 0
        for (name, _), code in zip(self.commands, codes):
            raw = (self.out / f"pass{index}" / name / "report.json").read_bytes()
            reports[name] = raw
            statuses = [v["status"] for v in json.loads(raw)["verdicts"]]
            fails = statuses.count("fail")
            attempted += len(statuses)
            failed += fails
            self.breakdown[name] = {"verdicts": len(statuses), "failed": fails, "exit_code": code}
            if code != (1 if fails else 0):
                problems.append(f"{name}: exit code {code} with {fails} failed verdicts")
        if self.reports is None:
            self.reports, self.attempted, self.failed = reports, attempted, failed
        else:
            problems += [f"{name}: report.json differs from pass 0" for name in reports if reports[name] != self.reports[name]]
        return problems

    def latencies(self, times: list[float], scales: list[float]) -> tuple[float, float]:
        """A pass is one request here, and a run has too few for a tail: p99 = p50."""
        return statistics.median(times), statistics.median(times)


class Queries:
    """`queries`: a balanced, shuffled stream of window queries; ops are queries."""

    min_passes = 2

    def __init__(self, seed: int):
        self.scheds = queries.build_schedules()
        self.stream = queries.generate(seed, self.scheds)
        self.answers: list[Any] | None = None
        self.attempted = len(self.stream)
        self.failed = 0
        self.breakdown: dict[str, Any] = {}
        self.per_pass_latency: list[list[float]] = []

    def timed_pass(self, index: int, probe: hostspeed.Sampler) -> tuple[float, tuple[list[Any], list[str | None]]]:
        """Per-query latencies leave out the probes that ran inside a query."""
        clock = time.perf_counter
        run, digest, scheds = queries.run, queries.digest, self.scheds
        answers: list[Any] = []
        errors: list[str | None] = []
        lat: list[float] = []
        start = clock()
        for q in self.stream:
            spent = probe.spent
            t0 = clock()
            try:
                answer = run(q, scheds)
            except Exception as exc:  # a failed query is counted, not fatal
                lat.append(clock() - t0 - (probe.spent - spent))
                answers.append(None)
                errors.append(type(exc).__name__)
                continue
            lat.append(clock() - t0 - (probe.spent - spent))
            answers.append(digest(q, answer))
            errors.append(None)
        wall = clock() - start
        self.per_pass_latency.append(lat)
        return wall, (answers, errors)

    def check(self, index: int, result: tuple[list[Any], list[str | None]]) -> list[str]:
        answers, errors = result
        if self.answers is not None:
            return [] if answers == self.answers else ["query answers differ from pass 0"]
        self.answers = answers
        bad = [err is not None for err in errors]
        for i, (q, answer) in enumerate(zip(self.stream, answers)):
            if bad[i]:
                continue
            try:
                bad[i] = not queries.check(q, answer, self.scheds)
            except Exception as exc:  # the independent path failing is a failed op too
                bad[i] = True
                errors[i] = f"check:{type(exc).__name__}"
        self.failed = sum(bad)
        self.breakdown = queries.failure_breakdown(self.stream, bad, errors)
        return []

    def latencies(self, times: list[float], scales: list[float]) -> tuple[float, float]:
        """p50 and p99 of the query latencies of all passes, each in reference seconds."""
        pooled = [x * k for lat, k in zip(self.per_pass_latency, scales) for x in lat]
        cuts = statistics.quantiles(pooled, n=100, method="inclusive")
        return cuts[49], cuts[98]


def observers(recorder: spans.Recorder) -> dict[str, Any]:
    """Result counters kept beside the spans of two functions."""

    def axes_values(out: tuple[list[int], list[int]]) -> None:
        recorder.count("cutstack.window_axes.values", len(out[0]) + len(out[1]))

    def decompose_none(out: Any) -> None:
        if out is None:
            recorder.count("cutstack.decompose.none")

    return {"cutstack.window_axes": axes_values, "cutstack.decompose": decompose_none}


def per_layer(recorder: spans.Recorder, overhead: float) -> dict[str, float]:
    summary = recorder.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    extra = dict(layers.EXTRA)
    out: dict[str, float] = {}
    for name in layers.metric_units():
        if name not in extra:
            base, _, field = name.rpartition(".")
            out[name] = summary.get(base, empty)[field]
    uniform = out["rng.uniform_int.calls"]
    out["cutstack.window_axes.values"] = recorder.counters.get("cutstack.window_axes.values", 0)
    out["cutstack.decompose.none"] = recorder.counters.get("cutstack.decompose.none", 0)
    out["cutstack.decompose.errors"] = recorder.errors.get("cutstack.decompose", 0)
    out["rng.draws_per_int"] = recorder.child_calls("rng.stream_u64", "rng.uniform_int") / uniform if uniform else 0.0
    out["trace_overhead"] = overhead
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("verify", "kinds", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(slowent.__file__).resolve().is_relative_to((Path.cwd() / "src").resolve()):
        sys.exit(f"slowent was imported from {slowent.__file__}, not from this checkout's src/")

    work = Queries(args.seed) if args.workload == "queries" else Batch(args.workload, args.seed, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    walls: list[float] = []  # host seconds, probes included
    times: list[float] = []  # reference seconds
    scales: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    while len(walls) < work.min_passes or time.perf_counter() - started < args.seconds:
        with hostspeed.Sampler() as probe:
            wall, result = work.timed_pass(len(walls), probe)
        walls.append(wall)
        times.append(probe.reference(wall))
        scales.append(probe.scale)
        problems += work.check(len(walls) - 1, result)
    p50, p99 = work.latencies(times, scales)
    doc: dict[str, Any] = {
        "walls": walls,
        "times": times,
        "scales": scales,
        "latencies": {"p50": p50, "p99": p99},
        "attempted": work.attempted,
        "failed": work.failed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "breakdown": work.breakdown,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if args.trace:
        recorder = spans.Recorder()
        # probes only around the traced pass, so that none runs inside a span
        with hostspeed.Sampler(periodic=False) as probe, spans.patched(
            recorder, layers.traced_functions(), layers.CLOSURES, observers(recorder)
        ):
            wall, result = work.timed_pass(len(walls), probe)
        problems += work.check(len(walls), result)
        doc["per_layer"] = per_layer(recorder, probe.reference(wall) / statistics.median(times))
        recorder.save(args.out / "spans.npz")
    doc["problems"] = problems
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
