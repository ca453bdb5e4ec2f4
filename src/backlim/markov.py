"""Markov partitions, transition graphs, cycles of intervals, exceptional points.

Transitivity and mixing are decided only for expanding Markov cycles (all cell
slopes strictly greater than 1 in magnitude), where they reduce to strong
connectivity / primitivity of the transition matrix. For non-expanding cells,
or a cycle whose components are not unions of cells, the graph does not
determine transitivity and the verdict is NotApplicable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactnum import Interval, IntervalSet
from .orbits import orbit_until_repeat
from .plmap import Pair, PLMap, _per_map, image, point_preimages


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class MarkovSystem:
    cuts: tuple[Fraction, ...]
    matrix: tuple[tuple[int, ...], ...]
    cell_slopes: tuple[Fraction, ...]
    periodic_cuts: frozenset[Fraction]

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


@_per_map
def markov_partition(f: PLMap, cap: int = 64) -> MarkovSystem | None:
    """Markov system on the forward orbits of the dot x-coordinates, or None
    when some dot orbit fails to close up within cap iterations."""
    cuts: set[Pair] = set()
    periodic: set[Pair] = set()
    for x in f._xs:
        orbit, start = orbit_until_repeat(f, x, cap)
        if start is None:
            return None
        cuts.update(orbit)
        periodic.update(orbit[start:])
    exact = {v: Fraction(*v) for v in cuts}  # the partition closes: make its cuts
    ordered = tuple(sorted(exact.values()))
    # every dot x starts its own orbit, so it is a cut and f is affine on each cell
    ys = [f(x) for x in ordered]
    cells = [Interval(a, b) for a, b in zip(ordered, ordered[1:])]
    slopes = [(b - a) / cell.length for a, b, cell in zip(ys, ys[1:], cells)]
    imgs = [Interval(min(a, b), max(a, b)) for a, b in zip(ys, ys[1:])]
    rows = tuple(tuple(1 if img.contains_interval(c) else 0 for c in cells) for img in imgs)
    return MarkovSystem(ordered, rows, tuple(slopes), frozenset(map(exact.get, periodic)))


def _reach(succ: dict) -> dict:
    """For a graph given as node -> successors, the nodes each node reaches
    in one step or more."""
    reach = {}
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(succ[u])
        reach[start] = seen
    return reach


@_per_map
def _cycle_cells_reaching(f: PLMap) -> tuple[IntervalSet, ...] | None:
    """For each cell of f's Markov partition, the union of the cells that lie
    on a cycle of the transition graph and reach that cell; None when f has
    no finite partition. Edge c -> c' means c' ⊆ f(c); a constant cell has an
    edge to each cell holding its value, a cut point."""
    ms = markov_partition(f)
    if ms is None:
        return None
    cells = ms.cells
    succ = {}
    for i, (cell, row, slope) in enumerate(zip(cells, ms.matrix, ms.cell_slopes)):
        if slope == 0:
            v = f.eval_at(cell.lo)
            row = [c.contains(v) for c in cells]
        succ[i] = [j for j, edge in enumerate(row) if edge]
    reach = _reach(succ)
    on_cycle = [i for i in reach if i in reach[i]]
    return tuple(
        IntervalSet.of(cells[i] for i in on_cycle if k in reach[i])
        for k in range(len(cells))
    )


def graph_bound(f: PLMap, y: Fraction) -> IntervalSet:
    """G(y): the union of the cells of f's Markov partition that lie on a
    cycle of the transition graph and reach a cell containing y. It is a
    closed superset of the special backward limit set of y, so of its
    closure too; the whole domain when f has no finite partition.

    Let y = x_0, x_1, ... be a backward branch, f(x_{n+1}) = x_n. If x_{n+1}
    lies in cell c, then x_n lies in f(c): a union of cells, or for a
    constant cell its value, a cut point. So some cell c' with an edge
    c -> c' holds x_n, and for every N there is a cell path c_N -> ... -> c_0
    with x_n in c_n. There are finitely many cells, so König's lemma gives an
    infinite path. From some index on it visits only cells it visits
    infinitely often; those lie on a graph cycle and reach c_0, which holds
    y. Every accumulation point of the branch lies in their closed union.
    """
    table = _cycle_cells_reaching(f)
    if table is None:
        return IntervalSet((f.domain,))
    cuts = markov_partition(f).cuts
    # cell k = [cuts[k], cuts[k+1]] holds y for k in first..last
    first = max(bisect_left(cuts, y) - 1, 0)
    last = min(bisect_right(cuts, y), len(table)) - 1
    return IntervalSet.of(p for k in range(first, last + 1) for p in table[k].parts)


@dataclass(frozen=True)
class CycleOfIntervals:
    base: Interval
    period: int
    components: IntervalSet


@dataclass(frozen=True)
class CycleFailure:
    reason: str


def check_cycle_of_intervals(
    f: PLMap, base: Interval, max_period: int
) -> CycleOfIntervals | CycleFailure:
    """The cycle of intervals through base, found at base's first return.

    Walks base, f(base), f^2(base), ... to the first image equal to base, or
    to an image meeting an earlier one, for at most max_period steps. No
    period below the first return closes up, and once two images meet, every
    later return has two components that meet: so the first return is the
    only period at which base can be a cycle.
    """
    if base.is_point:
        return CycleFailure("base interval is degenerate")
    if not f.domain.contains_interval(base):
        return CycleFailure("base interval escapes the domain")
    if max_period < 1:
        return CycleFailure("period must be at least 1")
    comps = [base]
    for k in range(1, max_period + 1):
        (img,) = image(f, IntervalSet((comps[-1],))).parts  # f is continuous
        if img == base:
            return CycleOfIntervals(base, k, IntervalSet.of(comps))
        for i, comp in enumerate(comps):
            if img.intersection(comp) is not None:
                return CycleFailure(
                    f"f^{k}(K)={img} differs from K={base} and meets component {i}"
                )
        comps.append(img)
    return CycleFailure(f"f^{max_period}(K)={comps[-1]} differs from K={base}")


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


def _subgraph(
    ms: MarkovSystem, cycle: CycleOfIntervals
) -> tuple[list[int] | None, Verdict | None]:
    idx = ms.cell_indices_of(cycle.components)
    if idx is None or any(abs(ms.cell_slopes[i]) <= 1 for i in idx):
        return idx, Verdict.NOT_APPLICABLE
    return idx, None


def is_transitive(ms: MarkovSystem, cycle: CycleOfIntervals) -> Verdict:
    idx, bail = _subgraph(ms, cycle)
    if bail is not None:
        return bail
    reach = _reach({i: [j for j in idx if ms.matrix[i][j]] for i in idx})
    ok = all(reach[i] | {i} >= set(idx) for i in idx)
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


def exceptional_set(f: PLMap, ms: MarkovSystem, cycle: CycleOfIntervals) -> ExceptionalReport:
    """Decide membership in the exceptional set E for every component endpoint
    and every periodic cut point of the cycle.

    A candidate is exceptional iff its whole backward preimage set within the
    cycle's components m stays inside the finite forward-invariant cut-point
    set. So it is accessible iff it, or a cut it reaches through preimages in
    m that are cuts, is marked: a point preimage of it lies in m off the
    cuts, or a flat span of its preimages meets m in more than a point.

    The periodic cuts are `ms.periodic_cuts`, the repeating tails of the dot
    orbits: every cut lies on a dot's orbit, and is periodic iff on its tail.
    """
    m = cycle.components
    cutset = set(ms.cuts)
    endpoints = list(dict.fromkeys(x for part in m.parts for x in (part.lo, part.hi)))
    in_m = [c for c in ms.cuts if m.contains(c)]
    candidates = endpoints + [c for c in in_m if c in ms.periodic_cuts and c not in endpoints]
    succ: dict[Fraction, list[Fraction]] = {}
    marked = set()
    for u in dict.fromkeys(in_m + endpoints):
        succ[u] = []
        for _, hit in point_preimages(f, u):
            if isinstance(hit, Interval):
                if any(max(p.lo, hit.lo) < min(p.hi, hit.hi) for p in m.parts):
                    marked.add(u)
            elif m.contains(hit):
                if hit in cutset:
                    succ[u].append(hit)
                else:
                    marked.add(u)
    reach = _reach(succ)
    exceptional = [c for c in candidates if c not in marked and not reach[c] & marked]
    accessible = [c for c in endpoints if c not in exceptional]
    return ExceptionalReport(cycle, tuple(exceptional), tuple(accessible))
