"""Differential tests: the shortcuts in `compose`, `find_exact_tail` and
`find_contraction`, and the flat-list `BackwardTree`, against the plain
algorithms and the node-based tree they replaced, kept here as references."""

from dataclasses import dataclass
from fractions import Fraction as Q
from unittest import mock

from hypothesis import given, settings, strategies as st

from backlim import backlimits
from backlim.backlimits import (
    BackwardTree,
    ContractionCert,
    ExactTailCert,
    _contraction_words,
    certify_orbit,
    find_exact_tail,
    orbit_targets,
)
from backlim.exactnum import Interval, interval
from backlim.plmap import (
    PLMap,
    _drop_collinear,
    compose,
    iterate,
    make_plmap,
    parse_map,
    point_preimages,
)


def reference_compose(f: PLMap, g: PLMap) -> PLMap:
    """h = f o g with every breakpoint evaluated through g, then f."""
    xs = {x for x, _ in g.dots}
    for piece in g.pieces:
        if piece.slope == 0:
            continue
        vr = piece.value_range
        for cx, _ in f.dots:
            if vr.contains(cx):
                x = piece.solve(cx)
                if piece.span.contains(x):
                    xs.add(x)
    dots = [(x, f.eval_at(g.eval_at(x))) for x in sorted(xs)]
    return PLMap(g.domain, tuple(_drop_collinear(dots)))


@dataclass(frozen=True)
class TreeNode:
    depth: int
    value: Q | None              # None for interval-valued nodes
    span: Interval | None        # set for interval-valued nodes
    parent: int                  # index into the previous level (-1 at root)
    piece: int                   # producing piece index (-1 at root)
    sampled: bool                # descends from a sampled representative


class ReferenceTree:
    """Breadth-first preimage tree with one node per preimage: an interval
    preimage through a constant piece is a node of its own, followed by its
    three sampled representatives, and takes a slot under the width cap."""

    def __init__(self, f: PLMap, root: Q, width_cap: int):
        self.f = f
        self.width_cap = width_cap
        self.levels: list[list[TreeNode]] = [[TreeNode(0, root, None, -1, -1, False)]]
        self.truncated: list[bool] = [False]
        self.has_sampled = False

    def _expand(self) -> None:
        d = len(self.levels)
        nxt: list[TreeNode] = []
        truncated = False
        for idx, node in enumerate(self.levels[-1]):
            if node.value is None:
                continue
            for piece_idx, hit in point_preimages(self.f, node.value):
                if isinstance(hit, Interval):
                    self.has_sampled = True
                    nxt.append(TreeNode(d, None, hit, idx, piece_idx, True))
                    reps = dict.fromkeys((hit.lo, hit.midpoint, hit.hi))
                    for rep in reps:
                        nxt.append(TreeNode(d, rep, None, idx, piece_idx, True))
                else:
                    nxt.append(TreeNode(d, hit, None, idx, piece_idx, node.sampled))
            if len(nxt) > self.width_cap:
                truncated = True
                nxt = nxt[: self.width_cap]
                break
        self.levels.append(nxt)
        self.truncated.append(truncated)

    def ensure_depth(self, depth: int) -> None:
        while len(self.levels) - 1 < depth:
            self._expand()

    def values(self, d: int) -> list[Q]:
        return [n.value for n in self.levels[d] if n.value is not None]


def reference_exact_tail(level_sets, orbit):
    """Least node of a tree on the orbit, searched level by level."""
    for d, values in enumerate(level_sets):
        hits = values & orbit.point_set
        if hits:
            return ExactTailCert(orbit, min(hits), d)
    return None


def reference_find_contraction(tree, t, p, depth):
    """First word admitting a connector, searched level by level per word."""
    for word in _contraction_words(tree.f, t, p):
        for d in range(depth + 1):
            z = tree.first_in_interval(d, word.basin, exclude=t)
            if z is not None:
                return ContractionCert(t, p, word.pieces, word.basin, z, d)
    return None


@st.composite
def integer_maps(draw, upper):
    """Integer connect-the-dots maps on [0, upper], often with a constant piece."""
    inner = draw(st.lists(st.integers(1, upper - 1), max_size=3, unique=True))
    xs = [0, *sorted(inner), upper]
    ys = draw(st.lists(st.integers(0, upper), min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(ys) - 2))
        ys[i + 1] = ys[i]
    return make_plmap(interval(0, upper), list(zip(xs, ys)))


uppers = st.integers(2, 5)


@given(uppers.flatmap(lambda u: st.tuples(integer_maps(u), integer_maps(u))))
def test_compose_matches_reference(pair):
    f, g = pair
    assert compose(f, g).dots == reference_compose(f, g).dots
    assert compose(g, f).dots == reference_compose(g, f).dots


@given(uppers.flatmap(integer_maps), st.integers(0, 4))
def test_iterate_matches_reference(f, n):
    h = iterate(f, 0)
    for _ in range(n):
        h = reference_compose(f, h)
    assert iterate(f, n).dots == h.dots


maps_and_points = uppers.flatmap(
    lambda u: st.tuples(integer_maps(u), st.fractions(0, u, max_denominator=6))
)


@settings(deadline=None, derandomize=True)
@given(maps_and_points)
def test_exact_tail_matches_tree_search(case):
    f, y = case
    targets = orbit_targets(f, 4)
    # the drawn point, then every orbit point: the latter are the hits
    points = [y, *(p for orbit in targets for p in orbit.points)]
    for point in points:
        tree = ReferenceTree(f, point, width_cap=300)
        tree.ensure_depth(5)
        level_sets = [set(tree.values(d)) for d in range(6)]
        for orbit in targets:
            want = reference_exact_tail(level_sets, orbit)
            assert find_exact_tail(point, orbit) == want


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(0, 6), st.integers(1, 200))
def test_contraction_matches_level_by_level_search(case, depth, width_cap):
    f, y = case
    targets = orbit_targets(f, 4)
    tree = BackwardTree(f, y, width_cap)
    got = [certify_orbit(tree, orbit, depth) for orbit in targets]
    ref = BackwardTree(f, y, width_cap)
    with mock.patch.object(backlimits, "find_contraction", reference_find_contraction):
        want = [certify_orbit(ref, orbit, depth) for orbit in targets]
    assert got == want
    assert len(tree.levels) == len(ref.levels)
    assert tree.degraded == ref.degraded


@settings(deadline=None)
@given(maps_and_points, st.integers(1, 60))
def test_tree_matches_reference(case, width_cap):
    f, y = case
    tree, ref = BackwardTree(f, y, width_cap), ReferenceTree(f, y, width_cap)
    tree.ensure_depth(5)
    ref.ensure_depth(5)
    assert tree.has_sampled == ref.has_sampled
    if not ref.has_sampled:
        assert tree.truncated == ref.truncated
    for d in range(6):
        # the width cap counts values here but nodes in the reference, so the
        # levels agree until either tree is first cut
        if tree.truncated[d] or ref.truncated[d]:
            break
        assert tree.levels[d] == ref.values(d)


@given(uppers.flatmap(integer_maps))
def test_equal_maps_hash_equal(f):
    text = '{"domain":["0","%s"],"dots":[%s]}' % (
        f.domain.hi,
        ",".join(f'["{x}","{y}"]' for x, y in f.dots),
    )
    twin = parse_map(text)
    assert twin is not f and twin == f
    assert hash(twin) == hash(f)
    table = {f: "first"}
    table[twin] = "second"
    assert table == {f: "second"}


def test_unequal_maps_are_distinct_keys():
    f = make_plmap(interval(0, 2), [(0, 1), (1, 2), (2, 0)])
    g = make_plmap(interval(0, 2), [(0, 1), (1, 2), (2, Q(1, 2))])
    assert len({f: 1, g: 2}) == 2
