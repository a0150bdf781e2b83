"""Crossing words, class keys, sleeves, lifts, pushoff."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautpath.geom import Pt, Segment, LineSpec, rat, segments_intersect
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
    pushoff,
    general_position_triangulation,
    EndpointMismatch,
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


# --- validation regimes ---


def test_strict_path_accepted(d1, over_path):
    assert validate_path(over_path, d1).ok


def test_constant_path_accepted(d1):
    p = PathPoly([(-3, 0), (-3, 0)])
    assert validate_path(p, d1).ok


def test_path_through_hole_rejected(d1):
    p = PathPoly([(-3, 0), (3, 0)])
    rep = validate_path(p, d1)
    assert not rep.ok
    assert rep.violations
    # closure does not forgive crossing into the hole
    assert not validate_path(PathPoly(p.vertices, closure=True), d1).ok


def test_boundary_touch_needs_closure(d1):
    # the tight answer runs along the hole's top edge
    p = PathPoly(GOLDEN_OVER)
    assert not validate_path(p, d1).ok
    assert validate_path(PathPoly(p.vertices, closure=True), d1).ok


def test_vertex_outside_rejected_both_regimes(d1):
    p = PathPoly([(-3, 0), (0, 0), (3, 0)])  # (0,0) inside the hole
    assert not validate_path(p, d1).ok
    assert not validate_path(PathPoly(p.vertices, closure=True), d1).ok


def test_endpoint_on_boundary_allowed_strict(d1):
    p = PathPoly([(-1, 1), (-3, 3)])
    assert validate_path(p, d1).ok


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
    assert w.start_tri in d1_tri.tri_containing(over_path.start)
    assert w.end_tri in d1_tri.tri_containing(over_path.end)


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


# --- pushoff ---


def test_pushoff_gives_strict_same_class(d1, d1_tri, over_path):
    touch = PathPoly(GOLDEN_OVER, closure=True)
    pushed = pushoff(touch, d1, tri=d1_tri)
    assert not pushed.closure
    assert validate_path(pushed, d1).ok
    # nudged off the hole's top edge into the over class
    assert homotopic(pushed, over_path, d1_tri)


def test_pushoff_of_strict_path_is_identity(d1, d1_tri, over_path):
    pushed = pushoff(over_path, d1, tri=d1_tri)
    assert pushed.vertices == over_path.vertices


def test_word_of_handles_closure_members(d1_tri):
    touch = PathPoly(GOLDEN_OVER, closure=True)
    w = word_of(touch, d1_tri)
    pushed = pushoff(touch, d1_tri.domain, tri=d1_tri)
    assert canonical_class_key(w, d1_tri, touch.start, touch.end) == \
        canonical_class_key(
            crossing_word(pushed, d1_tri), d1_tri, touch.start, touch.end
        )


def test_general_position_triangulation_usable(d1, over_path, under_path):
    tri, forms, words = general_position_triangulation(d1, [over_path, under_path])
    assert forms == [over_path, under_path]
    assert words[0].letters == crossing_word(over_path, tri).letters
    assert words[1].letters == crossing_word(under_path, tri).letters


def test_general_position_triangulation_pushes_off_closure_paths(d1):
    touch = PathPoly(GOLDEN_OVER, closure=True)
    tri, (form,), (word,) = general_position_triangulation(d1, [touch])
    assert form == pushoff(touch, d1, tri=tri)
    assert word.letters == crossing_word(form, tri).letters
