"""slowent benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload verify|kinds|queries --seed N --seconds S --trace 0|1

The launcher times set-up in several fresh worker processes (interpreter
start to `ready`), then one worker runs the timed passes. Worker processes
run one at a time with BLAS threads pinned to one. Timings are reported
in reference seconds, corrected for the host's speed (see hostspeed.py).
The last line of standard output is the result object; the lines before
it print every metric by name with its unit, and the run environment. The
full record, with the failure breakdown, goes to
.bench_out/<workload>/result.json.

Exit status: 0 when every correctness check passed; 1 when a check outside
the counted op failures failed (the result is still printed); 2 when the
program under test is missing or a worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import layers

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 15  # set-up is timed this many times; the median is reported
DEADLINE_S = 170  # the whole command stays under 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "ratio",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


def spawn(cmd: list[str], env: dict[str, str], timeout: float) -> tuple[float, list[str]]:
    """Run one worker to completion; return its set-up time and output lines."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        lines = [first, *proc.stdout]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker exited with code {code}")
    return ready, [ln.strip() for ln in lines[1:] if ln.strip()]


def timed_setup(cmd: list[str], env: dict[str, str], timeout: float) -> tuple[float, list[str]]:
    """spawn(), with the set-up time in reference seconds (probes run around the spawn)."""
    with hostspeed.Sampler(periodic=False) as probe:
        ready, lines = spawn(cmd, env, timeout)
    return probe.reference(ready), lines


def environment() -> dict[str, str]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": str(os.cpu_count()), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(doc: dict, setups: list[float]) -> dict[str, float]:
    run_s = statistics.median(doc["times"])
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mib": doc["peak_rss_mib"],
        "ok_share": 1 - doc["failed"] / doc["attempted"],
        "ops_per_s": doc["attempted"] / run_s,
        "op_p50_ms": 1000 * doc["latencies"]["p50"],
        "op_p99_ms": 1000 * doc["latencies"]["p99"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "kinds", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    src = ROOT / "src"
    if not (src / "slowent" / "__init__.py").is_file():
        print(f"bench: no slowent package under {src}; run from the repository root", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]  # fmt: skip

    try:
        setups = [timed_setup([*cmd, "--setup-only"], env, DEADLINE_S)[0] for _ in range(SETUP_RUNS - 1)]
        ready, lines = timed_setup(cmd, env, DEADLINE_S - (time.perf_counter() - began))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setups.append(ready)
    doc = json.loads(lines[-1])
    correct = not doc["problems"]
    if args.trace:
        units = layers.metric_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in doc["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end(doc, setups).items()}

    env_info = {**doc["env"], **environment()}
    print("env " + " ".join(f"{k}={v!r}" for k, v in env_info.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(doc['walls'])} "
          f"attempted={doc['attempted']} failed={doc['failed']} fail_share={doc['failed'] / doc['attempted']:.4f}")  # fmt: skip
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in doc["problems"]:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env_info,
              "setups_s": setups, "worker": doc, "result": result}  # fmt: skip
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
