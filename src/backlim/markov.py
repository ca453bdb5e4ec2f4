"""Markov partitions, transition graphs, cycles of intervals, exceptional points.

Transitivity and mixing are decided only for expanding Markov cycles (all cell
slopes strictly greater than 1 in magnitude), where they reduce to strong
connectivity / primitivity of the transition matrix. For non-expanding cells
the graph does not determine transitivity and the verdict is NotApplicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .exactnum import Interval, IntervalSet
from .orbits import least_period_of
from .plmap import PLMap, image, point_preimages


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class MarkovSystem:
    map: PLMap
    cuts: tuple[Fraction, ...]
    matrix: tuple[tuple[int, ...], ...]
    cell_slopes: tuple[Fraction, ...]

    @property
    def cells(self) -> tuple[Interval, ...]:
        return tuple(
            Interval(a, b) for a, b in zip(self.cuts, self.cuts[1:])
        )

    @property
    def expanding(self) -> bool:
        return all(abs(s) > 1 for s in self.cell_slopes)

    def cell_indices_of(self, s: IntervalSet) -> list[int] | None:
        """Indices whose union is exactly s, or None if not cell-aligned."""
        cells = self.cells
        picked = [i for i, c in enumerate(cells) if s.contains_set(IntervalSet((c,)))]
        if IntervalSet.of(cells[i] for i in picked) != s:
            return None
        return picked


def markov_partition(f: PLMap, cap: int = 64) -> MarkovSystem | None:
    """Markov system on the forward orbits of the dot x-coordinates, or None
    when some dot orbit fails to close up within cap iterations."""
    cuts: set[Fraction] = set()
    for x, _ in f.dots:
        orbit = []
        seen: set[Fraction] = set()
        v = x
        for _ in range(cap + 1):
            if v in seen:
                break
            seen.add(v)
            orbit.append(v)
            v = f.eval_at(v)
        else:
            return None
        cuts.update(orbit)
    ordered = tuple(sorted(cuts))
    cells = [Interval(a, b) for a, b in zip(ordered, ordered[1:])]
    slopes = []
    rows = []
    for cell in cells:
        piece = f.piece_at(cell.lo)
        if not piece.span.contains_interval(cell):
            # cells refine pieces because every dot x-coordinate is a cut
            raise AssertionError("partition cell straddles a piece")
        slopes.append(piece.slope)
        a = piece.value_at(cell.lo)
        b = piece.value_at(cell.hi)
        img = Interval(min(a, b), max(a, b))
        rows.append(tuple(1 if img.contains_interval(c) else 0 for c in cells))
    return MarkovSystem(f, ordered, tuple(rows), tuple(slopes))


@dataclass(frozen=True)
class CycleOfIntervals:
    base: Interval
    period: int
    components: IntervalSet


@dataclass(frozen=True)
class CycleFailure:
    reason: str


def check_cycle_of_intervals(
    f: PLMap, base: Interval, period: int
) -> CycleOfIntervals | CycleFailure:
    """Verify that base, f(base), ..., f^{k-1}(base) are pairwise disjoint and
    that f^k maps base exactly onto itself."""
    if base.is_point:
        return CycleFailure("base interval is degenerate")
    if not f.domain.contains_interval(base):
        return CycleFailure("base interval escapes the domain")
    if period < 1:
        return CycleFailure("period must be at least 1")
    comps = [base]
    cur = IntervalSet((base,))
    for i in range(period):
        cur = image(f, cur)
        if len(cur.parts) != 1:
            raise AssertionError("image of an interval must be an interval")
        if i < period - 1:
            comps.append(cur.parts[0])
    ret = cur.parts[0]
    if ret != base:
        return CycleFailure(f"f^{period}(K)={ret} differs from K={base}")
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if comps[i].intersection(comps[j]) is not None:
                return CycleFailure(f"components {i} and {j} are not disjoint")
    return CycleOfIntervals(base, period, IntervalSet.of(comps))


@dataclass(frozen=True)
class OrbitClosure:
    set: IntervalSet
    stabilized: bool


def orbit_closure(f: PLMap, start: Interval, cap: int = 128) -> OrbitClosure:
    """Least fixed point of S -> S ∪ f(S) from start, to stabilization or cap."""
    if start.is_point:
        raise ValueError("need a non-degenerate interval")
    s = IntervalSet((start,))
    for _ in range(cap):
        t = s.union(image(f, s))
        if t == s:
            return OrbitClosure(s, True)
        s = t
    return OrbitClosure(s, False)


def _subgraph(ms: MarkovSystem, cycle: CycleOfIntervals) -> tuple[list[int], Verdict | None]:
    idx = ms.cell_indices_of(cycle.components)
    if idx is None:
        raise ValueError("cycle components are not unions of partition cells")
    if any(abs(ms.cell_slopes[i]) <= 1 for i in idx):
        return idx, Verdict.NOT_APPLICABLE
    return idx, None


def is_transitive(ms: MarkovSystem, cycle: CycleOfIntervals) -> Verdict:
    idx, bail = _subgraph(ms, cycle)
    if bail is not None:
        return bail
    pos = {c: k for k, c in enumerate(idx)}
    n = len(idx)
    adj = [[ms.matrix[i][j] for j in idx] for i in idx]

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                edge = adj[u][v] if forward else adj[v][u]
                if edge and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    ok = len(reach(0, True)) == n and len(reach(0, False)) == n
    return Verdict.YES if ok else Verdict.NO


def is_mixing(ms: MarkovSystem, cycle: CycleOfIntervals) -> Verdict:
    idx, bail = _subgraph(ms, cycle)
    if bail is not None:
        return bail
    n = len(idx)
    adj = [[ms.matrix[i][j] for j in idx] for i in idx]
    power = adj
    # Wielandt bound on the primitivity exponent
    for _ in range((n - 1) * (n - 1) + 1):
        if all(all(row) for row in power):
            return Verdict.YES
        power = [
            [1 if any(power[i][k] and adj[k][j] for k in range(n)) else 0 for j in range(n)]
            for i in range(n)
        ]
    return Verdict.NO


@dataclass(frozen=True)
class ExceptionalReport:
    cycle: CycleOfIntervals
    exceptional: tuple[Fraction, ...]
    accessible_endpoints: tuple[Fraction, ...]
    undecided: tuple[Fraction, ...]
    # accessibility witnesses: (candidate, z, k) with z strictly inside a cell
    # and f^k(z) = candidate
    witnesses: tuple[tuple[Fraction, Fraction, int], ...] = field(default=())


# backward levels searched per candidate before it is left undecided
_EXCEPTIONAL_DEPTH = 256


def exceptional_set(f: PLMap, ms: MarkovSystem, cycle: CycleOfIntervals) -> ExceptionalReport:
    """Decide membership in the exceptional set E for every component endpoint
    and every periodic cut point of the cycle.

    A candidate is exceptional iff its whole backward preimage set within the
    cycle stays inside the finite forward-invariant cut-point set; the first
    preimage falling strictly inside a cell witnesses accessibility instead.
    """
    m = cycle.components
    cutset = set(ms.cuts)
    endpoints = []
    for part in m.parts:
        endpoints.append(part.lo)
        if part.hi != part.lo:
            endpoints.append(part.hi)
    candidates = list(dict.fromkeys(endpoints))
    for c in ms.cuts:
        if m.contains(c) and c not in candidates:
            if least_period_of(f, c, len(ms.cuts) + 1) is not None:
                candidates.append(c)

    exceptional = []
    accessible = []
    undecided = []
    witnesses = []
    for cand in candidates:
        visited = {cand}
        frontier = [cand]
        verdict = None
        witness = None
        depth = 0
        while frontier and depth < _EXCEPTIONAL_DEPTH and verdict is None:
            depth += 1
            nxt = []
            for u in frontier:
                for _, hit in point_preimages(f, u):
                    if isinstance(hit, Interval):
                        picked = None
                        for part in m.intersect(IntervalSet((hit,))).parts:
                            for cell in ms.cells:
                                ov = part.intersection(cell)
                                if ov is not None and not ov.is_point:
                                    picked = ov.midpoint
                                    break
                            if picked is not None:
                                break
                        if picked is not None:
                            verdict = "accessible"
                            witness = (picked, depth)
                            break
                        continue
                    if not m.contains(hit):
                        continue
                    if hit not in cutset:
                        verdict = "accessible"
                        witness = (hit, depth)
                        break
                    if hit not in visited:
                        visited.add(hit)
                        nxt.append(hit)
                if verdict:
                    break
            frontier = nxt
        if verdict == "accessible":
            if cand in endpoints:
                accessible.append(cand)
                z, k = witness
                witnesses.append((cand, z, k))
        elif not frontier:
            exceptional.append(cand)
        else:
            undecided.append(cand)
    return ExceptionalReport(
        cycle,
        tuple(exceptional),
        tuple(accessible),
        tuple(undecided),
        tuple(witnesses),
    )
