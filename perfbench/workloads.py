"""Workload inputs, query runners and the correctness gate.

A workload is a fixed population of queries. One cold pass runs the whole
population in a fresh interpreter, in an order shuffled by the seed, so the
seed changes which queries run before which (and so what the program's caches
hold) without changing how much work a pass holds; totals over a pass do not
depend on the seed. Populations are kept small enough that a run repeats the
pass many times; `run.py` times each query by the median over the repeats.

Everything here calls the program through its public names, looked up on the
module at call time, so the probes in `probes.py` see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import backlim
from backlim import corpus

from probes import replace_everywhere

# Budgets are the ones the program's own users run with: the CLI scan
# defaults (also used for `analyze` on the scan maps), and the criterion-3
# grid budget of the overlap corpus entry.
SCAN_BUDGET = backlim.Budget(depth=6, width_cap=2_000, max_period=6)
GRID_BUDGET = backlim.Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)
# `scan` and `analyze` take the maps of the 216-map integer family whose
# index is a multiple of MAP_STRIDE (72 maps). The scan maps whose
# index is a multiple of SCAN_CHECK_STRIDE are cross-checked against
# `salpha_enclosure`. All subsets are fixed, so totals do not depend on the
# seed.
MAP_STRIDE = 3
SCAN_CHECK_STRIDE = 9
GRID_MAX_DENOMINATOR = 17


@dataclass
class QueryResult:
    """Outcome of one query: its semantic record (digested, never contains
    witness values), the facts it certified, and its enclosures."""

    record: Any
    facts: int = 0
    exact: int = 0
    enclosures: int = 0
    problems: list[str] = field(default_factory=list)


def integer_maps(dots: int, upper: int) -> list[tuple[tuple[int, int], ...]]:
    """Onto connect-the-dots maps on [0, upper] with integer dots, in the
    order of the CLI's `scan` enumeration (value-tuple-major)."""
    inner = itertools.combinations(range(1, upper), dots - 2)
    xss = [(0, *mid, upper) for mid in inner]
    out = []
    for ys in itertools.permutations(range(upper + 1), dots):
        if 0 in ys and upper in ys:
            out.extend(tuple(zip(xs, ys)) for xs in xss)
    return out


def grid_points(max_den: int) -> list[Fraction]:
    """Reduced fractions in (0, 1) with denominator at most max_den."""
    out = []
    for d in range(2, max_den + 1):
        out.extend(Fraction(k, d) for k in range(1, d) if Fraction(k, d).denominator == d)
    return out


def shuffled(population: list, seed: int) -> list:
    """The population in the order the seed gives."""
    out = list(population)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# semantic records


def _iset(s) -> list[list[str]]:
    return [[str(p.lo), str(p.hi)] for p in s.parts]


def enclosure_record(enc) -> dict:
    return {
        "y": str(enc.point),
        "lower_points": [str(p) for p in enc.lower_points],
        "lower_intervals": _iset(enc.lower_intervals),
        "upper": _iset(enc.upper),
        "exact": enc.exact,
    }


def cert_record(cert) -> list:
    """What a certificate claims, without its witnesses (connector, hop,
    piece word, basin)."""
    if isinstance(cert, backlim.ExactTailCert):
        return ["tail", [str(p) for p in cert.orbit.points]]
    if isinstance(cert, backlim.ContractionCert):
        return ["contraction", str(cert.target), cert.period]
    if isinstance(cert, backlim.CycleMembershipCert):
        return ["cycle", _iset(cert.cycle.components)]
    if isinstance(cert, backlim.AvoidanceCert):
        return ["avoidance", _iset(cert.final)]
    return [type(cert).__name__]


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# correctness gate (runs after the timed pass)


def enclosure_certs(enc):
    return list(enc.orbit_certs) + list(enc.cycle_certs) + list(enc.avoidance_certs)


def check_certs(f, y, certs) -> list[str]:
    problems = []
    for cert in certs:
        got = backlim.verify_certificate(f, y, cert)
        if not got:
            problems.append(f"{type(cert).__name__} at {y} rejected: {got.reason}")
    return problems


def check_enclosure(f, enc, beta=None) -> list[str]:
    """Every certificate re-verifies, and the lower closure lies inside the
    upper bound (and inside beta_upper, when given)."""
    problems = check_certs(f, enc.point, enclosure_certs(enc))
    closure = enc.lower_closure
    if not enc.upper.contains_set(closure):
        problems.append(f"lower closure escapes the upper bound at {enc.point}")
    if beta is not None and not beta.contains_set(closure):
        problems.append(f"lower closure escapes beta_upper at {enc.point}")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str

    def population(self) -> list:
        raise NotImplementedError

    def inputs(self, seed: int, limit: int | None = None) -> list:
        """Inputs of one pass, built from the seed."""
        return shuffled(self.population(), seed)[:limit]

    def group(self, query) -> str | None:
        """Name under which the query's latency is also summed, if any."""
        return None

    def begin(self) -> None:
        """Called once before the timed queries of a pass."""

    def end(self) -> None:
        """Called once after the timed queries of a pass."""

    def run(self, query) -> Any:
        """The timed work of one query; returns its raw output."""
        raise NotImplementedError

    def check(self, query, output, verify: bool = True) -> QueryResult:
        """Semantic record of one query (untimed) and, with `verify`, its
        correctness gate: certificates re-verified, bounds nested, cross-checks.
        A repeat of a pass already verified only needs the record."""
        raise NotImplementedError


class CorpusWorkload(Workload):
    """verify_entry over the bundled maps, one expectation per query. The
    reference maps are fixed, so the seed is unused. A pass takes about 11 s,
    too long to repeat often enough in a run to be steady on a shared host,
    so it is run by hand and is not declared in BENCHMARK.json."""

    name = "corpus"

    def population(self) -> list:
        return [(entry, exp) for entry in corpus.all_entries() for exp in entry.expectations]

    def inputs(self, seed, limit=None):
        return self.population()[:limit]

    def group(self, query) -> str:
        return query[0].name

    def begin(self) -> None:
        # The corpus reports verdicts, not enclosures; record the enclosures
        # it builds so that they are gated and counted like everywhere else.
        self.seen: list = []
        orig = backlim.backlimits.salpha_enclosure

        def recording(*args, **kwargs):
            enc = orig(*args, **kwargs)
            self.seen.append(enc)
            return enc

        self._undo = replace_everywhere(orig, recording)

    def end(self) -> None:
        self._undo()

    def run(self, query):
        entry, exp = query
        start = len(self.seen)
        result = corpus.run_expectation(entry, exp)
        return result, self.seen[start:]

    def check(self, query, output, verify=True) -> QueryResult:
        entry, _ = query
        result, enclosures = output
        certs = [c for _, c in result.certs]
        out = QueryResult(
            record={
                "entry": entry.name,
                "label": result.label,
                "ok": result.ok,
                "detail": result.detail,
                "certs": [cert_record(c) for c in certs],
                "enclosures": [enclosure_record(e) for e in enclosures],
            },
            facts=len(certs),
            exact=sum(e.exact for e in enclosures),
            enclosures=len(enclosures),
        )
        if not result.ok:
            out.problems.append(f"{entry.name}: {result.label}: {result.detail}")
        if verify:
            for y, cert in result.certs:
                out.problems += check_certs(entry.map, y, [cert])
            for enc in enclosures:
                out.problems += check_enclosure(entry.map, enc)
        return out


class IntegerMapsWorkload(Workload):
    """Queries are every third of the 4-dot onto integer maps on [0,4] (the
    CLI's `scan --dots 4 --domain 0..4` family of 216 maps), one map per
    query."""

    upper = 4

    def population(self) -> list:
        return list(enumerate(integer_maps(4, self.upper)))[::MAP_STRIDE]

    def inputs(self, seed, limit=None):
        domain = backlim.Interval(Fraction(0), Fraction(self.upper))
        return [(i, backlim.make_plmap(domain, dots)) for i, dots in super().inputs(seed, limit)]


class ScanWorkload(IntegerMapsWorkload):
    """certified_period_set at every integer point of each map."""

    name = "scan"

    def run(self, query):
        _, f = query
        b = SCAN_BUDGET
        return [
            sorted(backlim.certified_period_set(f, Fraction(k), b.max_period, b.depth, b.width_cap))
            for k in range(self.upper + 1)
        ]

    def check(self, query, output, verify=True) -> QueryResult:
        index, f = query
        out = QueryResult(
            record={"dots": [[str(x), str(v)] for x, v in f.dots], "periods": output},
            facts=sum(len(p) for p in output),
        )
        if not verify or index % SCAN_CHECK_STRIDE:
            return out
        for k, periods in enumerate(output):
            enc = backlim.salpha_enclosure(f, Fraction(k), SCAN_BUDGET)
            out.enclosures += 1
            out.exact += enc.exact
            out.problems += check_enclosure(f, enc)
            again = sorted(enc.certified_periods(f))
            if again != periods:
                out.problems.append(f"map {index} at {k}: scan {periods} != enclosure {again}")
        return out


class AnalyzeWorkload(IntegerMapsWorkload):
    """The `analyze` path (salpha_enclosure + beta_upper) at every
    half-integer point of each map."""

    name = "analyze"

    def run(self, query):
        _, f = query
        return [
            (backlim.salpha_enclosure(f, y, SCAN_BUDGET), backlim.beta_upper(f, y, SCAN_BUDGET))
            for y in (Fraction(2 * k + 1, 2) for k in range(self.upper))
        ]

    def check(self, query, output, verify=True) -> QueryResult:
        _, f = query
        return check_enclosures(f, output, {"dots": [[str(x), str(v)] for x, v in f.dots]}, verify)


class GridWorkload(Workload):
    """The `analyze` path on the single `overlap` corpus map at every reduced
    rational in (0,1) with denominator <= 17 (95 points), at the
    criterion-3 grid budget; one point per query."""

    name = "grid"

    def population(self) -> list:
        return grid_points(GRID_MAX_DENOMINATOR)

    def inputs(self, seed, limit=None):
        f = corpus.build_overlap().map
        return [(f, y) for y in super().inputs(seed, limit)]

    def run(self, query):
        f, y = query
        return [(backlim.salpha_enclosure(f, y, GRID_BUDGET), backlim.beta_upper(f, y, GRID_BUDGET))]

    def check(self, query, output, verify=True) -> QueryResult:
        return check_enclosures(query[0], output, {}, verify)


def check_enclosures(f, output, record: dict, verify: bool) -> QueryResult:
    out = QueryResult(record=dict(record, enclosures=[]))
    for enc, beta in output:
        out.record["enclosures"].append(dict(enclosure_record(enc), beta=_iset(beta)))
        out.facts += len(enclosure_certs(enc))
        out.exact += enc.exact
        out.enclosures += 1
        if verify:
            out.problems += check_enclosure(f, enc, beta)
    return out


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (CorpusWorkload, ScanWorkload, GridWorkload, AnalyzeWorkload)
}
