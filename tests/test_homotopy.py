"""Validity, crossing words, class keys, sleeves, lifts, strict forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import tri_containing
from tautpath.domain import triangulate
from tautpath.geom import Pt, Segment, LineSpec, segments_intersect
from tautpath.homotopy import (
    PathPoly,
    validate_path,
    crossing_word,
    reduce_word,
    walk_triangles,
    word_of,
    canonical_class_key,
    homotopic,
    build_sleeve,
    line_lifts,
    EndpointMismatch,
    InvalidPath,
)


GOLDEN_OVER = [(-3, 0), (-1, 1), (1, 1), (3, 0)]


def brute_crossings(path, tri):
    """Count proper segment/interior-edge intersections directly."""
    total = 0
    vs = path.vertices
    for i in range(len(vs) - 1):
        seg = Segment(vs[i], vs[i + 1])
        for a, b in tri.interior_edges:
            kind, _ = segments_intersect(seg, Segment(tri.verts[a], tri.verts[b]))
            assert kind in ("disjoint", "proper"), kind
            if kind == "proper":
                total += 1
    return total


# --- validation against the closed domain ---


def test_strict_path_accepted(d1, over_path):
    rep = validate_path(over_path, d1)
    assert rep.ok and not rep.touches


def test_constant_path_accepted(d1):
    p = PathPoly([(-3, 0), (-3, 0)])
    assert validate_path(p, d1).ok


def test_path_through_hole_rejected(d1):
    p = PathPoly([(-3, 0), (3, 0)])
    rep = validate_path(p, d1)
    # touching the boundary does not forgive crossing into the hole
    assert not rep.ok
    assert rep.violations == ["edge 0 crosses the boundary"]


def test_boundary_touch_needs_closure(d1):
    # the tight answer runs along the hole's top edge
    rep = validate_path(PathPoly(GOLDEN_OVER), d1)
    assert rep.ok and rep.touches


def test_vertex_outside_rejected_both_regimes(d1):
    p = PathPoly([(-3, 0), (0, 0), (3, 0)])  # (0,0) inside the hole
    rep = validate_path(p, d1)
    assert not rep.ok
    assert rep.violations == ["vertex 1 outside the closed domain"]


def test_endpoint_on_boundary_allowed_strict(d1):
    p = PathPoly([(-1, 1), (-3, 3)])
    rep = validate_path(p, d1)
    assert rep.ok and not rep.touches


# --- crossing words ---


def test_word_length_matches_brute_count(d1_tri, over_path):
    w = crossing_word(over_path, d1_tri)
    assert len(w.letters) == brute_crossings(over_path, d1_tri)
    assert len(w.letters) > 0


def test_word_endpoints_locate_path(d1_tri, over_path):
    w = crossing_word(over_path, d1_tri)
    seq = walk_triangles(d1_tri, w.start_tri, w.letters)
    assert seq[-1] == w.end_tri
    # start triangle really contains the first vertex
    assert w.start_tri in tri_containing(d1_tri, over_path.start)
    assert w.end_tri in tri_containing(d1_tri, over_path.end)


def test_reversed_path_inverts_word(d1_tri, over_path):
    w = crossing_word(over_path, d1_tri)
    rev = PathPoly(list(reversed(over_path.vertices)))
    wr = crossing_word(rev, d1_tri)
    assert wr.letters == tuple((e, -s) for e, s in reversed(w.letters))
    assert (wr.start_tri, wr.end_tri) == (w.end_tri, w.start_tri)


# --- free reduction ---


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=24
    )
)
@settings(max_examples=200, deadline=None)
def test_reduce_word_properties(letters):
    red = reduce_word(letters)
    assert reduce_word(red) == tuple(red)
    assert (len(letters) - len(red)) % 2 == 0
    for (e1, s1), (e2, s2) in zip(red, red[1:]):
        assert not (e1 == e2 and s1 == -s2)


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=12))
@settings(max_examples=100, deadline=None)
def test_word_times_inverse_reduces_to_nothing(letters):
    inv = [(e, -s) for e, s in reversed(letters)]
    assert reduce_word(list(letters) + inv) == ()


# --- homotopy classification ---


def test_over_homotopic_to_its_tightening(d1_tri, over_path):
    assert homotopic(over_path, PathPoly(GOLDEN_OVER), d1_tri)


def test_over_not_homotopic_to_under(d1_tri, over_path, under_path):
    assert not homotopic(over_path, under_path, d1_tri)


def test_path_homotopic_to_itself(d1_tri, loop_path):
    assert homotopic(loop_path, loop_path, d1_tri)


def test_endpoint_mismatch_raises(d1_tri, over_path):
    other = PathPoly([(-3, 0), (0, 3), (3, 1)])
    with pytest.raises(EndpointMismatch):
        homotopic(over_path, other, d1_tri)


def test_detour_and_return_is_trivial(d1, d1_tri):
    # out-and-back spur stays in the segment's class; vertices chosen off
    # every line spanned by two domain corners
    direct = PathPoly([(-3, 0), (-3, Fraction(1, 2))])
    spur = PathPoly(
        [(-3, 0), (Fraction(-13, 4), Fraction(5, 2)), (-3, Fraction(1, 2))]
    )
    assert homotopic(direct, spur, d1_tri)


# --- sleeves and lifts ---


def test_sleeve_copy_count(d1_tri, over_path):
    w = crossing_word(over_path, d1_tri)
    red = reduce_word(w.letters)
    sl = build_sleeve(w, d1_tri)
    assert len(sl.tri_seq) == len(red) + 1


def test_sleeve_portals_shared_by_neighbours(d1_tri, loop_path):
    w = crossing_word(loop_path, d1_tri)
    sl = build_sleeve(w, d1_tri)
    for j, (a, b) in enumerate(sl.portals):
        for tid in (sl.tri_seq[j], sl.tri_seq[j + 1]):
            tri_verts = d1_tri.tris[tid]
            assert a in tri_verts and b in tri_verts


def test_doubled_loop_revisits_triangles(d1_tri, loop_path):
    doubled = PathPoly(loop_path.vertices + loop_path.vertices[1:])
    w = crossing_word(doubled, d1_tri)
    sl = build_sleeve(w, d1_tri)
    # same triangle id appears in distinct sleeve copies
    assert len(set(sl.tri_seq)) < len(sl.tri_seq)


def test_vertical_line_lifts_once_over_the_top(d1_tri, over_path):
    w = crossing_word(over_path, d1_tri)
    sl = build_sleeve(w, d1_tri)
    line = LineSpec.through(Pt(0, -9), Pt(0, 9))
    pieces = line_lifts(line, sl)
    assert len(pieces) == 1


def test_vertical_line_lifts_twice_around_the_loop(d1_tri, loop_path):
    w = crossing_word(loop_path, d1_tri)
    sl = build_sleeve(w, d1_tri)
    line = LineSpec.through(Pt(0, -9), Pt(0, 9))
    pieces = line_lifts(line, sl)
    assert len(pieces) == 2


# --- paths that touch the boundary ---


def _key(path, tri):
    return canonical_class_key(word_of(path, tri), tri, path.start, path.end)


def test_closure_path_passes_corners_inside(d1_tri, over_path, under_path):
    # the tight answer runs along the hole's top edge, so it passes the
    # corners (-1, 1) and (1, 1) through their fans on the upper side
    touch = PathPoly(GOLDEN_OVER)
    assert homotopic(touch, over_path, d1_tri)
    assert not homotopic(touch, under_path, d1_tri)
    assert _key(touch, d1_tri) == _key(over_path, d1_tri)


def _form(path, d):
    return word_of(path, triangulate(d)).path


def test_strict_form_inserts_corners_inside_edges(d1, d1_tri):
    from tautpath.tighten import tighten

    along = PathPoly([(-3, 1), (3, 1)])
    form = _form(along, d1)
    assert form == PathPoly([(-3, 1), (-1, 1), (1, 1), (3, 1)])
    assert homotopic(form, PathPoly([(-3, 1), (0, 3), (3, 1)]), d1_tri)
    assert not homotopic(form, PathPoly([(-3, 1), (0, -3), (3, 1)]), d1_tri)
    assert tighten(along, d1).path.vertices == along.vertices


def test_word_of_handles_closure_members(d1_tri, over_path):
    touch = PathPoly(GOLDEN_OVER)
    w = word_of(touch, d1_tri)
    assert w.letters == crossing_word(_form(touch, d1_tri.domain), d1_tri).letters
    assert canonical_class_key(w, d1_tri, touch.start, touch.end) == _key(over_path, d1_tri)


def test_general_position_triangulation_usable(d1, over_path, under_path):
    # one memoized triangulation serves the strict forms of several paths
    tri = triangulate(d1)
    assert triangulate(d1) is tri
    forms = [_form(p, d1) for p in (over_path, under_path)]
    assert forms == [over_path, under_path]
    for p, form in zip((over_path, under_path), forms):
        assert word_of(p, tri).letters == crossing_word(form, tri).letters


def test_general_position_triangulation_pushes_off_closure_paths(d1):
    # a closure path is read as it is, with no point moved off the boundary
    touch = PathPoly([(-3, 1), (1, 1), (3, 0)])
    tri = triangulate(d1)
    form = _form(touch, d1)
    assert form == PathPoly([(-3, 1), (-1, 1), (1, 1), (3, 0)])
    assert word_of(touch, tri).letters == crossing_word(form, tri).letters


def test_strict_form(d1, over_path):
    # a path in the open domain is its own strict form
    assert _form(over_path, d1) == over_path
    # one that touches the boundary only at its vertices has no corner to insert
    touch = PathPoly(GOLDEN_OVER)
    assert _form(touch, d1) == PathPoly(GOLDEN_OVER)
    with pytest.raises(InvalidPath, match="^path: "):
        _form(PathPoly([(-3, 0), (3, 0)]), d1)


def test_strict_form_validates_once(d1, monkeypatch):
    # word_of reads a valid path in one walk: no vertex location and no
    # test against the ring edges
    import tautpath.homotopy as homotopy

    tri = triangulate(d1)
    calls = []

    def counting(path, t):
        calls.append(path)
        return crossing_word(path, t)

    def forbidden(*args):
        raise AssertionError("scan on a valid path")

    monkeypatch.setattr(homotopy, "crossing_word", counting)
    monkeypatch.setattr(homotopy, "locate", forbidden)
    monkeypatch.setattr(homotopy, "segments_intersect", forbidden)
    assert word_of(PathPoly(GOLDEN_OVER), tri).path == PathPoly(GOLDEN_OVER)
    assert len(calls) == 1


def test_walk_rejects_paths_that_leave(d1_tri):
    # through the hole; ending outside the domain; through two hole corners
    for pts in ([(-3, 0), (3, 0)], [(-3, 0), (7, 0)], [(-3, -3), (3, 3)]):
        with pytest.raises(InvalidPath):
            crossing_word(PathPoly(pts), d1_tri)
    # ending on the hole's side, or on a corner, stays in the closed domain
    assert crossing_word(PathPoly([(-3, 0), (-1, 0)]), d1_tri).path == PathPoly([(-3, 0), (-1, 0)])
    assert crossing_word(PathPoly([(-3, -3), (-1, -1)]), d1_tri).path == PathPoly([(-3, -3), (-1, -1)])


# --- the walk against the exhaustive scan ---


def _walk_corpus(d):
    """Every ordered pair of domain corners that is a path in the closed
    domain, then 2-4-vertex walks of such steps between corners and
    boundary-edge midpoints."""
    pts = d.verts + [Pt((a.x + b.x) / 2, (a.y + b.y) / 2) for _, r in d.rings() for a, b in zip(r, r[1:] + r[:1])]
    steps = {
        i: [j for j in range(len(pts)) if j != i and validate_path(PathPoly([pts[i], pts[j]]), d).ok]
        for i in range(len(pts))
    }
    paths = [PathPoly([pts[i], pts[j]]) for i in range(len(d.verts)) for j in steps[i] if j < len(d.verts)]
    rng = random.Random(len(pts))
    for _ in range(100):
        walk = [rng.randrange(len(pts))]
        for _ in range(rng.randint(1, 3)):
            walk.append(rng.choice(steps[walk[-1]]))
        paths.append(PathPoly([pts[i] for i in walk]))
    return paths


def test_walk_matches_the_scan(d1, d1_straight):
    from oracles import scan_crossing_word
    from test_tighten import COLLINEAR_RECTS, CORNER_START, SHARED_BRIDGE, SHARED_BRIDGE4

    compared = 0
    for d in (d1, d1_straight, CORNER_START, SHARED_BRIDGE, SHARED_BRIDGE4, COLLINEAR_RECTS):
        tri = triangulate(d)
        for p in _walk_corpus(d):
            assert validate_path(p, d).ok, p.vertices
            got, want = crossing_word(p, tri), scan_crossing_word(p, tri)
            assert got.path == want.path, p.vertices
            assert got.letters == want.letters, p.vertices
            assert got.records == want.records, p.vertices
            assert (got.start_tri, got.end_tri) == (want.start_tri, want.end_tri), p.vertices
            compared += 1
    assert compared > 1000, compared


def _mixed_corpus(d, rng):
    """Every ordered pair of corners, 250 random 2-5-vertex paths through
    corners, boundary-edge midpoints, integer points and quarter-grid
    points of the bounding box grown by 1, and constant paths."""
    cs = d.verts
    mids = [Pt((a.x + b.x) / 2, (a.y + b.y) / 2) for _, r in d.rings() for a, b in zip(r, r[1:] + r[:1])]
    x0, y0, x1, y1 = (int(c) for c in d.bbox())

    def pick():
        k = rng.randrange(4)
        if k == 0:
            return rng.choice(cs)
        if k == 1:
            return rng.choice(mids)
        if k == 2:
            return Pt(rng.randint(x0 - 1, x1 + 1), rng.randint(y0 - 1, y1 + 1))
        return Pt(Fraction(rng.randint(4 * x0 - 4, 4 * x1 + 4), 4), Fraction(rng.randint(4 * y0 - 4, 4 * y1 + 4), 4))

    paths = [PathPoly([a, b]) for a in cs for b in cs if a != b]
    paths += [PathPoly([pick() for _ in range(rng.randint(2, 5))]) for _ in range(250)]
    paths += [PathPoly([p, p]) for p in cs[:3] + mids[:3] + [Pt(x0 - 1, y0)]]
    return paths + [PathPoly([cs[0]] * 3), PathPoly([cs[0]])]


def test_validate_path_matches_the_scan(d1, d1_straight):
    from conftest import instance_batch
    from oracles import scan_validate_path
    from test_tighten import COLLINEAR_RECTS, CORNER_START, SHARED_BRIDGE, SHARED_BRIDGE4

    domains = [d1, d1_straight, CORNER_START, SHARED_BRIDGE, SHARED_BRIDGE4, COLLINEAR_RECTS]
    domains += [inst["domain"] for inst in instance_batch(10, seed0=300)]
    rng = random.Random(11)
    seen = {"ok": 0, "crosses the boundary": 0, "leaves the closed domain": 0}
    for d in domains:
        for p in _mixed_corpus(d, rng):
            got, want = validate_path(p, d), scan_validate_path(p, d)
            assert (got.ok, got.violations) == (want.ok, want.violations), p.vertices
            if want.ok:
                assert got.touches == want.touches, p.vertices
            seen["ok"] += want.ok
            for v in want.violations:
                for kind in seen:
                    seen[kind] += v.endswith(kind)
    assert min(seen.values()) > 100, seen
