"""Command-line interface.

Exit codes: 0 when every asserted invariant passed, 1 when a verdict
failed, 2 on usage errors. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import covernum, cutstack, expcli
from .lattice import UsageError, pattern_to_text
from .partitions import recurrence_metric
from .recurrence import recurrence_set


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: usage error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


_UNUSED = "unused by this command (kept in the report config)"

_COMMON_FLAGS = ("--config", "--seed", "--out")  # --config first: a command that reads no config field takes the rest


def _add_common(parser: argparse.ArgumentParser, flags: tuple[str, ...], seed_help: str | None) -> None:
    """Add the common flags a command reads; a flag left out exits 2 when given."""
    if "--config" in flags:
        parser.add_argument("--config", type=Path, help="JSON experiment config")
    if "--seed" in flags:
        parser.add_argument("--seed", type=int, default=expcli.DEFAULT_SEED, help=seed_help)
    if "--out" in flags:
        parser.add_argument("--out", type=Path, default=Path("out"))


def _schedule_args(parser: argparse.ArgumentParser) -> None:
    # unset flags stay None, so a command sees which were given; expcli fills in the rest
    for flag, kind in (("--stages", int), ("--theta", str), ("--c", str), ("--r1", int), ("--schedule-file", Path)):
        parser.add_argument(flag, type=kind)


def _schedule_spec(args: argparse.Namespace) -> dict:
    given = {key: getattr(args, key) for key in expcli.DEFAULT_SCHEDULE_SPEC if getattr(args, key) is not None}
    # filled_schedule_spec refuses a file given with any other field
    return {"file": str(args.schedule_file), **given} if args.schedule_file else given


def _load_config(args: argparse.Namespace) -> expcli.ExperimentConfig:
    """The config file, or a config of the command's schedule flags, with the given --seed and --sample-size."""
    if getattr(args, "config", None):  # a command that reads no config field has no --config
        if any(getattr(args, key, None) is not None for key in (*expcli.DEFAULT_SCHEDULE_SPEC, "schedule_file")):
            raise UsageError("schedule flags cannot be combined with --config: give the schedule in the config")
        try:
            doc = json.loads(args.config.read_text())
        except ValueError as exc:  # not UTF-8, not JSON, or an integer of more digits than int() converts
            raise UsageError(f"config {args.config}: {exc}") from None
    else:
        doc = {"schedule": _schedule_spec(args)} if "schedule" in expcli.COMMANDS[args.kind].reads else {}
    if isinstance(doc, dict):  # config_from_json refuses any other JSON value
        given = {"seed": args.seed, "sample_size": args.sample_size}
        doc = {"kind": args.kind, **doc, **{key: value for key, value in given.items() if value is not None}}
    config = expcli.config_from_json(doc)
    if config.kind != args.kind:
        raise UsageError(f"config kind {config.kind!r} does not match subcommand {args.kind!r}")
    return config


def _experiment(args: argparse.Namespace) -> int:
    report = expcli.run_experiment(_load_config(args))
    path = expcli.write_report(report, args.out)
    for v in report.verdicts:
        print(f"[{v.status.upper():8s}] {v.name}: {v.invariant}")
    print(f"report: {path}")
    return 1 if report.failed() else 0


def _schedule_build(args: argparse.Namespace) -> int:
    text = cutstack.schedule_to_text(expcli.schedule_from_spec(_schedule_spec(args)))
    if args.out_file:
        args.out_file.write_text(text)
        print(args.out_file)
    else:
        sys.stdout.write(text)
    return 0


def _schedule_check(args: argparse.Namespace) -> int:
    sched = cutstack.schedule_from_text(args.file.read_text())
    print(f"ok: {sched.stages} stages, theta={sched.theta}, c={sched.c}, r={sched.radii}")
    return 0


def _sample(args: argparse.Namespace) -> int:
    sched = expcli.schedule_from_spec(_schedule_spec(args))
    for i, p in enumerate(expcli.sample_points(sched, args.stage, args.count, args.seed)):
        print(f"point {i}: levels={p.levels}")
    return 0


def _names(args: argparse.Namespace) -> int:
    if not -(2**63) <= args.point_seed < 2**63:  # rng packs stream indices as int64
        raise UsageError(f"--point-seed must be in the int64 range [-2**63, 2**63 - 1], got {args.point_seed}")
    sched = expcli.schedule_from_spec(_schedule_spec(args))
    p = cutstack.sample_point(sched, 3, expcli.rng.derive_seed(args.seed, "point", args.point_seed))
    sys.stdout.write(pattern_to_text(cutstack.name01(p, args.n)))
    return 0


def _distmat(args: argparse.Namespace) -> int:
    sched = expcli.schedule_from_spec(_schedule_spec(args))
    sets = [recurrence_set(p, args.n) for p in expcli.sample_points(sched, 3, args.sample_size, args.seed)]
    args.out.mkdir(parents=True, exist_ok=True)
    # one row at a time: memory grows with the sample, not with its pairs
    with expcli.fresh(args.out / "distmat.csv").open("w") as out:
        out.write("i,j,distance\n" if len(sets) > 1 else "")
        for i, j in itertools.combinations(range(len(sets)), 2):
            out.write(f"{i},{j},{expcli._canonical(recurrence_metric(sets[i], sets[j]))}\n")
    print(args.out / "distmat.csv")
    return 0


def _fit(args: argparse.Namespace) -> int:
    samples = []
    for line in args.input.read_text().splitlines()[1:]:
        if not line.strip():
            continue
        try:
            n, value = line.split(",")[:2]
            samples.append((int(n), float(value)))
        except ValueError:
            raise UsageError(f"bad fit row {line!r}: expected n,value") from None
    fit = covernum.growth_fit(samples, args.scale)
    args.out.mkdir(parents=True, exist_ok=True)
    expcli.write_csv(expcli.fit_rows(fit), args.out / "fit.csv")
    print(json.dumps(expcli._canonical(fit), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; each sets `run`, the function that runs it."""
    parser = _Parser(prog="slowent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="build or check construction schedules")
    sched_sub = p_sched.add_subparsers(dest="action", required=True)
    p_build = sched_sub.add_parser("build")
    _schedule_args(p_build)
    p_build.add_argument("--out-file", type=Path)
    p_build.set_defaults(run=_schedule_build)
    p_check = sched_sub.add_parser("check")
    p_check.add_argument("file", type=Path)
    p_check.set_defaults(run=_schedule_check)

    p_sample = sub.add_parser("sample", help="sample construction points")
    _add_common(p_sample, ("--seed",), None)
    _schedule_args(p_sample)
    p_sample.add_argument("--stage", type=int, default=3)
    p_sample.add_argument("--count", type=_positive_int, default=5)
    p_sample.set_defaults(run=_sample)

    p_names = sub.add_parser("names", help="emit a sampled point's name pattern")
    _add_common(p_names, ("--seed",), None)
    _schedule_args(p_names)
    p_names.add_argument("--n", type=int, default=27)
    p_names.add_argument("--point-seed", type=int, default=0)
    p_names.set_defaults(run=_names)

    p_dist = sub.add_parser("distmat", help="pairwise recurrence-metric distances for a sample")
    _add_common(p_dist, ("--seed", "--out"), None)
    _schedule_args(p_dist)
    p_dist.add_argument("--n", type=int, default=27)
    p_dist.add_argument("--sample-size", type=_positive_int, default=12)
    p_dist.set_defaults(run=_distmat)

    p_fit = sub.add_parser("fit", help="growth-exponent fit from a CSV of n,value rows")
    _add_common(p_fit, ("--out",), None)
    p_fit.add_argument("input", type=Path)
    p_fit.add_argument("--scale", choices=("slow", "exp"), default="slow")
    p_fit.set_defaults(run=_fit)

    for name, command in expcli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_common(p, _COMMON_FLAGS if command.reads else _COMMON_FLAGS[1:], None if "seed" in command.reads else _UNUSED)
        if "schedule" in command.reads:
            _schedule_args(p)
        # unset, the seed comes from the config (expcli.DEFAULT_SEED by default)
        p.set_defaults(run=_experiment, kind=name, seed=None)
        p.add_argument("--sample-size", type=_positive_int, help=None if "sample_size" in command.reads else _UNUSED)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, cutstack.StageCapError, OSError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
