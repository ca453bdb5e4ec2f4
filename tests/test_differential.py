"""Differential tests: the shortcuts in `compose` and `find_exact_tail` against
the plain algorithms they replaced, kept here as references."""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from backlim.backlimits import BackwardTree, ExactTailCert, find_exact_tail, orbit_targets
from backlim.exactnum import interval
from backlim.plmap import PLMap, _drop_collinear, compose, iterate, make_plmap, parse_map


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


def reference_exact_tail(f, y, orbit, depth, width_cap):
    """Least node of y's backward tree on the orbit, searched level by level."""
    tree = BackwardTree(f, y, width_cap)
    for d in range(depth + 1):
        tree.ensure_depth(d)
        hits = {n.value for n in tree.levels[d] if n.value is not None} & orbit.point_set
        if hits:
            return ExactTailCert(orbit, min(hits), d)
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


@settings(deadline=None)
@given(
    uppers.flatmap(
        lambda u: st.tuples(integer_maps(u), st.fractions(0, u, max_denominator=6))
    )
)
def test_exact_tail_matches_tree_search(case):
    f, y = case
    targets = orbit_targets(f, 4)
    # the drawn point, then every orbit point: the latter are the hits
    points = [y, *(p for orbit in targets for p in orbit.points)]
    for point in points:
        for orbit in targets:
            want = reference_exact_tail(f, point, orbit, depth=5, width_cap=300)
            assert find_exact_tail(f, point, orbit) == want


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
