"""Command-line front end: analysis, certification, corpus verification,
family scanning and plot-data emission, all reporting deterministic JSON.

Exit codes: 0 success, 1 certification/verification failure, 2 input error,
3 precondition failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from fractions import Fraction
from heapq import merge
from pathlib import Path

from .backlimits import (
    BackwardTree,
    Budget,
    DEFAULT_AVOID_LAYERS,
    DEFAULT_DEPTH,
    DEFAULT_MAX_PERIOD,
    DEFAULT_WIDTH_CAP,
    PreconditionError,
    RegionBudgetExceeded,
    RejectedSeed,
    SalphaEnclosure,
    TreeBudgetExceeded,
    _set_obj,
    avoided_region,
    beta_upper,
    cert_to_obj,
    certified_period_set,
    certify_orbit,
    salpha_enclosure,
    verify_certificate,
)
from .corpus import CorpusEntry, all_entries, entry_by_name, verify_entry
from .exactnum import (
    Interval,
    RationalParseError,
    parse_interval_set,
    parse_rational,
)
from .markov import (
    CycleOfIntervals,
    check_cycle_of_intervals,
    is_mixing,
    is_transitive,
    markov_partition,
)
from .orbits import MAX_STEPS, PeriodicOrbit, image_after, periodic_orbits
from .plmap import (InvalidMap, PieceBudgetExceeded, PLMap, make_plmap, map_digest,
                    map_to_obj, parse_map)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
MAX_SAMPLES = 10**6


class _InputError(Exception):
    pass


def _load_map(path: str) -> PLMap:
    try:
        return parse_map(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read map file: {e}") from e
    except InvalidMap as e:
        raise _InputError(str(e)) from e


def _point(f: PLMap, text: str) -> Fraction:
    try:
        y = parse_rational(text)
    except RationalParseError as e:
        raise _InputError(str(e)) from e
    if not f.domain.contains(y):
        raise _InputError(f"point {y} outside domain {f.domain}")
    return y


def _enclosure_obj(enc: SalphaEnclosure) -> dict:
    return {
        "point": str(enc.point),
        "lower_points": [str(p) for p in enc.lower_points],
        "lower_intervals": _set_obj(enc.lower_intervals),
        "upper": _set_obj(enc.upper),
        "exact": enc.exact,
        "degraded": enc.degraded,
        "orbit_certificates": [cert_to_obj(c) for c in enc.orbit_certs],
        "cycle_certificates": [cert_to_obj(c) for c in enc.cycle_certs],
        "avoidance_certificates": [cert_to_obj(c) for c in enc.avoidance_certs],
    }


def _report(command: str, f: PLMap | None, inputs: dict, result: dict, **extra) -> dict:
    out = {"command": command, "inputs": inputs, "result": result, **extra}
    if f is not None:
        out["map_digest"] = map_digest(f)
    return out


def _emit(report: dict, json_path: str | None) -> None:
    """Write the report to `json_path` first, so that a path that cannot be
    written leaves stdout empty, then print it."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        try:
            Path(json_path).write_text(text + "\n", encoding="utf-8")
        except OSError as e:
            raise _InputError(f"cannot write report: {e}") from e
    print(text)


def _budget_from(args) -> Budget:
    return Budget(depth=args.depth, width_cap=args.width, max_period=args.max_period)


def _entry(name: str) -> CorpusEntry:
    entry = entry_by_name(name)
    if entry is None:
        raise _InputError(f"unknown corpus entry {name!r}")
    return entry


# ---------------------------------------------------------------------------
# commands: each returns (report, exit code); `main` times and emits the
# report, or leaves it to the command when it is None


def _cmd_analyze(args) -> tuple[dict, int]:
    f = _load_map(args.map)
    y = _point(f, args.point)
    budget = _budget_from(args)
    enc = salpha_enclosure(f, y, budget)
    beta = beta_upper(f, y, budget)
    result = {
        "enclosure": _enclosure_obj(enc),
        "beta_upper": _set_obj(beta),
        "beta_empty": beta.is_empty,
    }
    report = _report("analyze", f, {"point": str(y)}, result,
                     budgets=dataclasses.asdict(budget), exact=enc.exact)
    return report, EXIT_OK


def _cmd_certify(args) -> tuple[dict, int]:
    f = _load_map(args.map)
    y = _point(f, args.point)
    t = _point(f, args.target)
    if args.period is not None:
        got = image_after(f, t, args.period)
        if got is None:
            raise PreconditionError(f"target {t} does not repeat within {MAX_STEPS} steps")
        if got != t:
            raise PreconditionError(f"target {t} is not {args.period}-periodic")
    bound = args.period or 64
    orbit = PeriodicOrbit.from_point(f, t, bound)
    if orbit is None:
        raise PreconditionError(f"target {t} is not periodic within {bound} steps")
    tree = BackwardTree(f, y, args.width)
    cert = certify_orbit(tree, orbit, args.depth)
    stats = {"tree_nodes": tree.size, "depth_explored": len(tree.levels) - 1}
    inputs = {"point": str(y), "target": str(t), "period": orbit.least_period}
    if cert is None:
        return _report("certify", f, inputs, {"found": False, "stats": stats}), EXIT_FAIL
    check = verify_certificate(f, y, cert)
    result = {
        "found": True,
        "certificate": cert_to_obj(cert),
        "verified": bool(check),
        "stats": stats,
    }
    return _report("certify", f, inputs, result), EXIT_OK if check else EXIT_FAIL


def _cmd_exclude(args) -> tuple[dict, int]:
    f = _load_map(args.map)
    y = _point(f, args.point)
    try:
        seed = parse_interval_set(args.seed)
    except ValueError as e:  # malformed rationals, or bounds out of order
        raise _InputError(str(e)) from e
    got = avoided_region(f, y, seed, args.depth)
    inputs = {"point": str(y), "seed": args.seed}
    if isinstance(got, RejectedSeed):
        result = {"accepted": False, "reason": got.reason}
        return _report("exclude", f, inputs, result), EXIT_PRECONDITION
    check = verify_certificate(f, y, got)
    result = {
        "accepted": True,
        "certificate": cert_to_obj(got),
        "verified": bool(check),
        "limit_set_upper_bound": _set_obj(got.final.complement(f.domain)),
    }
    return _report("exclude", f, inputs, result), EXIT_OK if check else EXIT_FAIL


def _cmd_periodic(args) -> tuple[dict, int]:
    f = _load_map(args.map)
    structure = periodic_orbits(f, args.max_period)
    result = {
        "isolated_orbits": [
            {"period": o.least_period, "points": [str(p) for p in o.points]}
            for o in structure.isolated_orbits
        ],
        "fixed_intervals": [
            {"period": n, "set": _set_obj(s)} for n, s in structure.fixed_intervals
        ],
    }
    return _report("periodic", f, {"max_period": args.max_period}, result), EXIT_OK


def _cmd_markov(args) -> tuple[dict, int]:
    if args.cap > MAX_STEPS:  # a dot orbit that never repeats costs quadratic time in cap
        raise _InputError(f"--cap must be at most {MAX_STEPS}, got {args.cap}")
    f = _load_map(args.map)
    ms = markov_partition(f, args.cap)
    if ms is None:
        result = {"markov": False}
    else:
        base = Interval(ms.cuts[0], ms.cuts[-1])
        got = check_cycle_of_intervals(f, base, 1)
        cycles = []
        if isinstance(got, CycleOfIntervals):
            cycles.append(
                {
                    "base": [str(base.lo), str(base.hi)],
                    "period": 1,
                    "transitive": is_transitive(ms, got).value,
                    "mixing": is_mixing(ms, got).value,
                }
            )
        result = {
            "markov": True,
            "cuts": [str(c) for c in ms.cuts],
            "matrix": [list(row) for row in ms.matrix],
            "cell_slopes": [str(s) for s in ms.cell_slopes],
            "expanding": ms.expanding,
            "whole_domain_cycle": cycles,
        }
    return _report("markov", f, {"cap": args.cap}, result), EXIT_OK


def _cmd_corpus_verify(args) -> tuple[dict, int]:
    entries = all_entries() if args.name == "all" else (_entry(args.name),)
    result: dict = {"entries": {}}
    ok = True
    for entry in entries:
        results = verify_entry(entry)
        result["entries"][entry.name] = [
            {"label": r.label, "ok": r.ok, "detail": r.detail} for r in results
        ]
        ok = ok and all(r.ok for r in results)
    result["all_ok"] = ok
    return _report("corpus", None, {"name": args.name}, result), EXIT_OK if ok else EXIT_FAIL


def _cmd_corpus_export(args) -> tuple[None, int]:
    entry = _entry(args.name)
    outdir = Path(args.dir)
    expectations = [
        {"kind": e.kind, "label": e.label, "provenance": e.provenance}
        for e in entry.expectations
    ]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, obj in ((f"{entry.name}.json", map_to_obj(entry.map)),
                          (f"{entry.name}.expectations.json", expectations)):
            (outdir / name).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    except OSError as e:
        raise _InputError(f"cannot export to {outdir}: {e}") from e
    print(f"wrote {entry.name}.json and {entry.name}.expectations.json to {outdir}")
    return None, EXIT_OK


def enumerate_scan_maps(dots: int, upper: int, limit: int) -> list[PLMap]:
    """Integer connect-the-dots maps on [0, upper]: x-tuples span the domain,
    values are pairwise distinct and include both 0 and upper (so the map is
    onto). Order: value-tuple-major, x-tuple-minor, lexicographic."""
    inner = list(itertools.combinations(range(1, upper), dots - 2))
    xss = [(0, *mid, upper) for mid in inner]
    out: list[PLMap] = []
    domain = Interval(Fraction(0), Fraction(upper))
    for ys in itertools.permutations(range(upper + 1), dots):
        if 0 not in ys or upper not in ys:
            continue
        for xs in xss:
            if len(out) >= limit:
                return out
            out.append(make_plmap(domain, list(zip(xs, ys))))
    return out


def _cmd_scan(args) -> tuple[dict, int]:
    if args.dots > 6 or args.dots < 2:
        raise _InputError("dots must be between 2 and 6")
    try:
        lo_s, _, hi_s = args.domain.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as e:
        raise _InputError(f"malformed domain {args.domain!r}") from e
    if lo != 0 or hi < 1 or hi > 10:
        raise _InputError("domain must be 0..D with 1 <= D <= 10")
    maps = enumerate_scan_maps(args.dots, hi, args.limit)
    reports = []
    skipped = []  # points with no answer, kept out of `result`
    for f in maps:
        points = {}
        verdict = None
        for k in range(hi + 1):
            y = Fraction(k)
            try:
                periods = certified_period_set(f, y, args.max_period, depth=args.depth)
            except PieceBudgetExceeded as e:
                # f^n depends on the map alone: every later point would raise too
                digest = map_digest(f)
                skipped += [
                    {"digest": digest, "point": str(Fraction(j)), "reason": str(e)}
                    for j in range(k, hi + 1)
                ]
                break
            except (PreconditionError, TreeBudgetExceeded) as e:
                skipped.append({"digest": map_digest(f), "point": str(y), "reason": str(e)})
                continue
            if 3 not in periods:
                continue
            gaps = [
                n
                for n in range(1, args.max_period + 1)
                if n not in periods and 2 * n not in periods
            ]
            points[str(y)] = {
                "certified_periods": sorted(periods),
                "gaps": gaps,
            }
            if gaps:
                verdict = "candidate"
            elif verdict is None:
                verdict = "consistent"
        if points:
            reports.append(
                {
                    "digest": map_digest(f),
                    "dots": [[str(x), str(v)] for x, v in f.dots],
                    "points": points,
                    "verdict": verdict,
                }
            )
    result = {
        "maps_scanned": len(maps),
        "period3_maps": len(reports),
        "candidates": sum(1 for r in reports if r["verdict"] == "candidate"),
        "reports": reports,
        "note": "a certification gap is not a counterexample; absence of a "
        "certificate does not witness absence of an orbit",
    }
    inputs = {
        "dots": args.dots,
        "domain": args.domain,
        "max_period": args.max_period,
        "limit": args.limit,
    }
    return _report("scan", None, inputs, result, skipped=skipped), EXIT_OK


def _cmd_plot(args) -> tuple[None, int]:
    f = _load_map(args.map)
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise _InputError(f"--samples must be from 2 to {MAX_SAMPLES}, got {args.samples}")
    lo, span, n = f.domain.lo, f.domain.length, args.samples + 1
    samples = (lo + Fraction(k, n) * span for k in range(1, n))
    xs = [x for x, _ in itertools.groupby(merge([x for x, _ in f.dots], samples))]
    lines = [f"{x}\t{f.eval_at(x)}" for x in xs]
    if args.tree:
        point_s, _, depth_s = args.tree.partition(",")
        root = _point(f, point_s)
        try:
            depth = int(depth_s)
        except ValueError as e:
            raise _InputError(f"malformed tree argument {args.tree!r}") from e
        if depth < 0:
            raise _InputError(f"tree depth must be at least 0, got {depth}")
        tree = BackwardTree(f, root, DEFAULT_WIDTH_CAP)
        lines.append("")
        for d, value in tree.point_values(depth):
            lines.append(f"{d}\t{value}")
    text = "\n".join(lines) + "\n"
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _InputError(f"cannot write {args.out}: {e}") from e
    print(f"wrote {args.out}")
    return None, EXIT_OK


# ---------------------------------------------------------------------------


def _int_at_least(text: str, least: int) -> int:
    n = int(text)
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backlim",
        description="exact analysis of piecewise-linear interval maps and "
        "certified bounds on backward limit sets",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_budget(p, depth=DEFAULT_DEPTH):
        p.add_argument("--depth", type=nonnegative_int, default=depth)
        p.add_argument("--width", type=positive_int, default=DEFAULT_WIDTH_CAP)
        p.add_argument("--json", default=None)

    p = sub.add_parser("analyze", help="certified enclosure of a limit set")
    p.add_argument("map")
    p.add_argument("--point", required=True)
    p.add_argument("--max-period", dest="max_period", type=positive_int,
                   default=DEFAULT_MAX_PERIOD)
    add_budget(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", help="membership certificate for a periodic target")
    p.add_argument("map")
    p.add_argument("--point", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--period", type=positive_int, default=None)
    add_budget(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("exclude", help="invariant-region exclusion certificate")
    p.add_argument("map")
    p.add_argument("--point", required=True)
    p.add_argument("--seed", required=True, help='intervals "[a,b];[c,d]"')
    p.add_argument("--depth", type=nonnegative_int, default=DEFAULT_AVOID_LAYERS)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_exclude)

    p = sub.add_parser("periodic", help="periodic orbits and continua")
    p.add_argument("map")
    p.add_argument("--max-period", dest="max_period", type=positive_int,
                   default=DEFAULT_MAX_PERIOD)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("markov", help="Markov partition and transition matrix")
    p.add_argument("map")
    p.add_argument("--cap", type=positive_int, default=64)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("corpus", help="verify or export the bundled examples")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("verify", help="run the expectations of an entry, or all")
    p.add_argument("name")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_corpus_verify)
    p = actions.add_parser("export", help="write an entry's map and expectations")
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    p.set_defaults(func=_cmd_corpus_export)

    p = sub.add_parser("scan", help="scan integer maps for period-forcing evidence")
    p.add_argument("--dots", type=int, required=True)
    p.add_argument("--domain", required=True, help="0..D")
    p.add_argument("--max-period", dest="max_period", type=positive_int, default=6)
    p.add_argument("--limit", type=nonnegative_int, required=True)
    p.add_argument("--depth", type=nonnegative_int, default=6)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("plot", help="emit TSV samples of the graph")
    p.add_argument("map")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tree", default=None, help="point,depth")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if getattr(args, "max_period", 0) > MAX_STEPS:  # orbit walks cost linear time in it
            raise _InputError(f"--max-period must be at most {MAX_STEPS}, got {args.max_period}")
        report, code = args.func(args)
        if report is not None:
            report["wall_time_ms"] = int((time.monotonic() - started) * 1000)
            _emit(report, args.json)
        return code
    except (_InputError, PieceBudgetExceeded, TreeBudgetExceeded, RegionBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
