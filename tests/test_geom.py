import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautpath.geom import (
    GeomError,
    LineSpec,
    Pt,
    Segment,
    clip_line_to_triangle,
    cross,
    dedupe_collinear,
    dist2,
    dot,
    lerp,
    line_hits_segment,
    line_param,
    line_point,
    line_side,
    on_segment,
    orient,
    point_in_triangle,
    point_seg_dist2,
    polyline_length,
    rat,
    seg_param,
    segments_intersect,
)

coords = st.integers(-50, 50).map(lambda n: rat(n) / 4)
pts = st.builds(Pt, coords, coords)


def test_rat_exact_parsing():
    assert rat("0.1") == Fraction(1, 10)
    assert rat(3) == 3
    assert rat("-2.5") * 2 == -5
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


@given(pts, pts, pts)
def test_orient_antisymmetry(a, b, c):
    assert orient(a, b, c) == -orient(b, a, c)
    assert orient(a, b, c) == orient(b, c, a)


@given(pts, pts)
def test_dist2_symmetry(a, b):
    assert dist2(a, b) == dist2(b, a)
    assert (dist2(a, b) == 0) == (a == b)


@given(pts, pts, st.integers(0, 8))
def test_lerp_lands_on_segment(a, b, num):
    t = rat(num) / 8
    p = lerp(a, b, t)
    assert on_segment(p, a, b)
    if a != b:
        assert seg_param(a, b, p) == t


@given(pts, pts, pts, pts)
@settings(max_examples=300)
def test_segments_intersect_symmetric_kind(a, b, c, d):
    k1, _ = segments_intersect(Segment(a, b), Segment(c, d))
    k2, _ = segments_intersect(Segment(c, d), Segment(a, b))
    assert k1 == k2


@given(pts, pts, pts, pts)
@settings(max_examples=300)
def test_segments_intersect_point_on_both(a, b, c, d):
    kind, data = segments_intersect(Segment(a, b), Segment(c, d))
    if kind in ("proper", "touch"):
        assert on_segment(data, a, b)
        assert on_segment(data, c, d)
    elif kind == "disjoint":
        assert data is None


def test_segments_nested_overlap():
    k, seg = segments_intersect(
        Segment(Pt(0, 0), Pt(4, 0)), Segment(Pt(1, 0), Pt(2, 0))
    )
    assert k == "overlap"
    assert {seg.a, seg.b} == {Pt(1, 0), Pt(2, 0)}


def test_degenerate_segment_cases():
    k, p = segments_intersect(Segment(Pt(1, 1), Pt(1, 1)), Segment(Pt(0, 0), Pt(2, 2)))
    assert k == "touch" and p == Pt(1, 1)
    k, _ = segments_intersect(Segment(Pt(1, 2), Pt(1, 2)), Segment(Pt(0, 0), Pt(2, 2)))
    assert k == "disjoint"


@given(pts, pts)
def test_line_through_key_direction_free(a, b):
    if a == b:
        return
    l1 = LineSpec.through(a, b)
    l2 = LineSpec.through(b, a)
    assert l1.key == l2.key
    assert line_side(l1, a) == 0 and line_side(l1, b) == 0


@given(pts, pts, pts)
@settings(max_examples=300)
def test_line_side_split(a, b, c):
    if a == b:
        return
    ln = LineSpec.through(a, b)
    s = line_side(ln, c)
    assert s in (-1, 0, 1)
    assert s == orient(a, b, c)


@given(pts, pts, st.integers(-20, 20))
def test_line_param_point_roundtrip(a, b, num):
    if a == b:
        return
    ln = LineSpec.through(a, b)
    t = rat(num) / 5
    p = line_point(ln, t)
    assert line_side(ln, p) == 0
    assert line_param(ln, p) == t


@given(pts, pts, pts, pts)
@settings(max_examples=300)
def test_line_hits_segment_consistent(a, b, c, d):
    if a == b:
        return
    ln = LineSpec.through(a, b)
    hit = line_hits_segment(ln, c, d)
    if hit is None:
        if c != d:
            assert line_side(ln, c) == line_side(ln, d) != 0
    elif hit[0] == "pt":
        assert line_side(ln, hit[1]) == 0
        assert on_segment(hit[1], c, d)
    else:
        assert hit[0] == "seg"
        assert line_side(ln, hit[1]) == 0 and line_side(ln, hit[2]) == 0


def _exact_orient(a, b, c):
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (v > 0) - (v < 0)


@given(pts, pts, st.integers(-40, 40), st.integers(-3, 3), st.integers(20, 120))
@settings(max_examples=300)
def test_orient_exact_near_a_line(a, b, num, sign, digits):
    # c sits on the line through a and b, or off it by far less than a
    # float can resolve, so only the exact fallback can decide
    if a == b:
        return
    c = lerp(a, b, Fraction(num, 7))
    c = Pt(c.x + Fraction(sign, 10**digits), c.y)
    for tri in ((a, b, c), (b, c, a), (c, a, b)):
        assert orient(*tri) == _exact_orient(*tri)


def test_orient_beyond_float_range():
    big = 10**400
    a, b = Pt(-big, 0), Pt(big, 1)
    assert orient(a, b, Pt(0, 0)) == _exact_orient(a, b, Pt(0, 0)) == -1
    assert orient(a, b, Pt(0, 1)) == 1
    assert orient(Pt(0, 0), Pt(big, big), Pt(big + 1, big + 1)) == 0
    tiny = Fraction(1, 10**400)
    assert orient(Pt(0, 0), Pt(tiny, 0), Pt(0, tiny)) == 1


@given(pts, pts, pts, pts, pts)
@settings(max_examples=300)
def test_line_params_match_rational_formulas(a, d, t1, t2, t3):
    # line_param and clip_line_to_triangle work in integers; the plain
    # rational formulas are the reference
    if d == Pt(0, 0):
        return
    ln = LineSpec(a, d)

    def ref_param(p):
        return dot(p - a, d) / dot(d, d)

    tri = (t1, t2, t3)
    ts = [ref_param(p) for p in tri if line_side(ln, p) == 0]
    for u, v in zip(tri, tri[1:] + tri[:1]):
        cu, cv = cross(d, u - a), cross(d, v - a)
        if cu * cv < 0:
            ts.append(ref_param(lerp(u, v, cu / (cu - cv))))
    assert clip_line_to_triangle(ln, tri) == ((min(ts), max(ts)) if ts else None)
    assert line_param(ln, t1) == ref_param(t1)


@given(pts, pts, pts, pts, pts)
@settings(max_examples=200)
def test_clip_line_to_triangle_inside(a, b, t1, t2, t3):
    if a == b or orient(t1, t2, t3) == 0:
        return
    ln = LineSpec.through(a, b)
    got = clip_line_to_triangle(ln, (t1, t2, t3))
    if got is None:
        return
    t0, t1_ = got
    assert t0 <= t1_
    mid = line_point(ln, (t0 + t1_) / 2)
    assert point_in_triangle(mid, t1, t2, t3, closed=True)


@given(pts, pts, pts)
def test_point_seg_dist2_zero_iff_on(p, a, b):
    d = point_seg_dist2(p, a, b)
    assert d >= 0
    assert (d == 0) == on_segment(p, a, b)


def test_polyline_length_matches_manual():
    pts_ = [Pt(0, 0), Pt(3, 4), Pt(3, 8)]
    assert polyline_length(pts_) == pytest.approx(9.0, abs=1e-12)


def test_dedupe_collinear_removes_straight_interior():
    pts_ = [Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(2, 2), Pt(2, 2), Pt(3, 3)]
    out = dedupe_collinear(pts_)
    assert out == [Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(3, 3)]
    for i in range(1, len(out) - 1):
        a, b, c = out[i - 1], out[i], out[i + 1]
        assert not (orient(a, b, c) == 0 and dot(b - a, c - b) >= 0)


def test_dedupe_keeps_backtrack_vertex():
    pts_ = [Pt(0, 0), Pt(2, 0), Pt(1, 0)]
    assert dedupe_collinear(pts_) == pts_


def test_zero_direction_rejected():
    with pytest.raises(GeomError):
        LineSpec(Pt(0, 0), Pt(0, 0))
    with pytest.raises(GeomError):
        LineSpec.through(Pt(1, 1), Pt(1, 1))


@given(pts, pts, pts)
def test_cross_dot_identities(a, b, c):
    u = b - a
    v = c - a
    assert cross(u, v) == -cross(v, u)
    assert dot(u, v) == dot(v, u)
