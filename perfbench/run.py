"""Run one benchmark workload from cold state and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 32 --trace 0

Every pass runs the workload's whole population in a fresh interpreter
(`cold_pass.py`), one pass at a time. With `--trace 0` the run repeats the
pass until it has made at least five and measured for at least `--seconds`,
times each query by the median of its latencies scaled to a reference host
speed, and prints the end-to-end metrics. With `--trace 1` it makes three
passes, untraced, with layer probes, and under the profiler, and prints the
per-layer metrics. The last line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every query passed the correctness gate, 1 when some failed, and 2 or
3 when the run could not be made (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Names of workloads.WORKLOADS, repeated so that this driver never imports
# the program itself.
WORKLOADS = ("corpus", "scan", "grid", "analyze")
MIN_PASSES = 5
# Every run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 170
TAIL_BEYOND = 10


class PassFailed(Exception):
    """A pass could not be run to completion."""


def run_pass(workload: str, seed: int, mode: str, verify: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "cold_pass.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--verify", str(int(verify)),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassFailed(f"no time left for the {mode} pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise PassFailed(f"{mode} pass did not end in time") from e
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mismatches(first: dict, again: dict) -> int:
    """Queries whose result differs between two passes."""
    pairs = zip(first["digests"], again["digests"])
    return sum(a is not None and b is not None and a != b for a, b in pairs)


def tail_quantile(queries: int) -> float:
    """The highest quantile with at least TAIL_BEYOND queries beyond it."""
    if queries <= TAIL_BEYOND:
        return 1.0
    return (queries - TAIL_BEYOND) / queries


def quantile_value(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(args, deadline: float) -> tuple[dict, dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        got = run_pass(args.workload, args.seed, "plain", not passes, deadline)
        passes.append(got)
        print(f"pass {len(passes)}: {got['pass_s']:.3f} s, "
              f"{len(got['latencies_s'])} queries, {got['failed']} failed", flush=True)
        now = time.monotonic()
        if len(passes) >= MIN_PASSES:
            if now - start >= args.seconds or now + 2 * (now - began) > deadline:
                break

    first = passes[0]
    failed = sum(p["failed"] for p in passes) + sum(mismatches(first, p) for p in passes[1:])
    # A shared host's speed drifts by up to a factor of two within minutes, so
    # every time is scaled to the reference speed (see cold_pass.py), and each
    # query takes the median of its scaled latencies over the passes.
    per_query = [statistics.median(ts) for ts in zip(*(p["scaled_latencies_s"] for p in passes))]
    q = tail_quantile(len(per_query))
    metrics = {
        "setup_s": metric(statistics.median(p["scaled_setup_s"] for p in passes), "s"),
        "pass_s": metric(sum(per_query), "s"),
        "query_p50_ms": metric(statistics.median(per_query) * 1000, "ms"),
        "query_tail_ms": metric(quantile_value(per_query, q) * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "certified_facts": metric(first["facts"], "count"),
        "exact_share": metric(first["exact"] / first["enclosures"] if first["enclosures"] else 0.0,
                              "ratio"),
    }
    info = {
        "passes": len(passes),
        "query_tail_percentile": round(q * 100, 2),
        "queries_per_pass": len(per_query),
        "enclosures_per_pass": first["enclosures"],
        "result_digest": hashlib.sha256("".join(sorted(d or "failed" for d in first["digests"]))
                                        .encode()).hexdigest(),
        "unscaled_setup_s": statistics.median(p["setup_s"] for p in passes),
        "unscaled_pass_s": statistics.median(p["pass_s"] for p in passes),
        "host.fraction_ref_ms": statistics.median(p["fraction_ref_ms"] for p in passes),
        "problems": [msg for p in passes for msg in p["problems"]][:10],
    }
    return finish(passes, failed, metrics), info


def traced(args, deadline: float) -> tuple[dict, dict]:
    plain, spans, profile = (
        run_pass(args.workload, args.seed, mode, mode == "plain", deadline)
        for mode in ("plain", "spans", "profile")
    )
    passes = [plain, spans, profile]
    failed = sum(p["failed"] for p in passes)
    failed += mismatches(plain, spans) + mismatches(plain, profile)
    metrics = {k: metric(*v) for k, v in sorted({**spans["layers"], **profile["layers"]}.items())}
    metrics["host.fraction_ref_ms"] = metric(
        statistics.median(p["fraction_ref_ms"] for p in passes), "ms")
    metrics["trace.overhead_share"] = metric(spans["pass_s"] / plain["pass_s"] - 1, "ratio")
    internals = {k: metric(*v) for k, v in spans["internals"].items()}
    for group, ms in plain["groups_ms"].items():
        internals[f"corpus.entry.{group}.ms"] = metric(ms, "ms")
    info = {
        "pass_s": {"plain": plain["pass_s"], "spans": spans["pass_s"], "profile": profile["pass_s"]},
        "internals": internals,
        "absent": spans["absent"],
        "problems": [msg for p in passes for msg in p["problems"]][:10],
    }
    return finish(passes, failed, metrics), info


def finish(passes: list[dict], failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": sum(len(p["latencies_s"]) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "backlim" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, info = (traced if args.trace else timed)(args, deadline)
    except PassFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 3
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
