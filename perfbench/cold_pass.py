"""One cold pass over a workload, in this fresh interpreter.

Prints one JSON object: set-up time, the pass's wall time and per-query
latencies (also scaled to a reference host speed, in an untraced pass), peak
resident memory, the correctness gate's verdicts, a semantic digest per query
and, when traced, the layer metrics. `run.py` starts this script once per
pass; run it by hand as

    python3 perfbench/cold_pass.py --workload grid --seed 1
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# The host diagnostic times DIAGNOSTIC_STEPS of the reference loop once
# before the pass. An untraced pass also times REF_STEPS of it before every
# query and after the last, and scales each query's latency and the set-up
# time to a host on which REF_STEPS take REF_NOMINAL_S: about the fastest
# they run on the 2-core Intel Xeon VM (Python 3.11.7) the benchmark was
# defined on.
DIAGNOSTIC_STEPS = 5_000
REF_STEPS = 400
REF_NOMINAL_S = 0.0017


def fraction_loop_s(steps: int) -> float:
    """Wall time of a fixed pure-Fraction loop, which uses nothing of the
    program: it follows how fast the host runs at that moment."""
    start = time.perf_counter()
    step = Fraction(1, 3)
    below = 0
    for i in range(steps):
        x = Fraction(i % 97, 89)
        below += x * step + Fraction(1, 7) < x
    return time.perf_counter() - start


def import_program() -> None:
    if not (SRC / "backlim" / "__init__.py").is_file():
        raise SystemExit(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import backlim

    if Path(backlim.__file__).resolve().parent != SRC / "backlim":
        raise SystemExit(f"imported backlim from {backlim.__file__}, not from {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1,
                        help="0: only record results, for a repeat of a verified pass")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N queries of the pass (tests)")
    args = parser.parse_args()

    import_program()
    import probes
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    queries = workload.inputs(args.seed, args.limit)
    setup_s = time.perf_counter() - STARTED
    reference_ms = fraction_loop_s(DIAGNOSTIC_STEPS) * 1000
    # Profiled and probed passes must not count or time the loop.
    bracket = args.mode == "plain"

    tracer = probes.Tracer() if args.mode == "spans" else None
    profile = cProfile.Profile() if args.mode == "profile" else None
    if tracer is not None:
        tracer.install()
    workload.begin()
    outputs: list = []
    errors: dict[int, str] = {}
    latencies: list[float] = []
    refs: list[float] = []
    if profile is not None:
        profile.enable()
    for i, query in enumerate(queries):
        if bracket:
            refs.append(fraction_loop_s(REF_STEPS))
        start = time.perf_counter()
        try:
            outputs.append(workload.run(query))
        except Exception:  # any exception fails the query; the pass goes on
            outputs.append(None)
            errors[i] = traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - start)
    if bracket:
        refs.append(fraction_loop_s(REF_STEPS))
    pass_s = sum(latencies)
    if profile is not None:
        profile.disable()
    workload.end()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers: dict = {}
    internals: dict = {}
    absent: list[str] = []
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        internals = tracer.internals()
        absent = tracer.absent
    if profile is not None:
        layers = probes.fraction_counts(profile)

    gate_start = time.perf_counter()
    digests: list[str | None] = []
    problems: list[str] = []
    facts = exact = enclosures = 0
    for i, (query, output) in enumerate(zip(queries, outputs)):
        if i in errors:
            problems.append(errors[i])
            digests.append(None)
            continue
        try:
            got = workload.check(query, output, bool(args.verify))
        except Exception:  # a check that raises fails its query
            problems.append(traceback.format_exc(limit=-3))
            digests.append(None)
            continue
        facts += got.facts
        exact += got.exact
        enclosures += got.enclosures
        digests.append(workloads.digest(got.record))
        if got.problems:
            problems += got.problems
            digests[-1] = None

    groups: dict[str, float] = {}
    for query, latency in zip(queries, latencies):
        group = workload.group(query)
        if group is not None:
            groups[group] = groups.get(group, 0.0) + latency * 1000

    print(json.dumps({
        "workload": args.workload,
        "setup_s": setup_s,
        "fraction_ref_ms": reference_ms,
        "pass_s": pass_s,
        "latencies_s": latencies,
        # each query scaled by the mean of the loops just before and after it
        "scaled_latencies_s": [
            t * 2 * REF_NOMINAL_S / (before + after)
            for t, before, after in zip(latencies, refs, refs[1:])
        ],
        "scaled_setup_s": setup_s * REF_NOMINAL_S / refs[0] if refs else None,
        "peak_rss_mb": peak_rss_mb,
        "gate_s": time.perf_counter() - gate_start,
        "digests": digests,
        "failed": sum(d is None for d in digests),
        "problems": problems[:20],
        "facts": facts,
        "exact": exact,
        "enclosures": enclosures,
        "groups_ms": groups,
        "layers": {k: list(v) for k, v in layers.items()},
        "internals": {k: list(v) for k, v in internals.items()},
        "absent": absent,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
