import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_batch
from oracles import tri_containing
from tautpath import (
    InvalidPath,
    PolygonalDomain,
    locate,
    signed_area2,
    triangulate,
    validate,
)
from tautpath.geom import Pt, orient, point_in_triangle, rat


def test_signed_area2_orientation():
    ccw = [Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)]
    assert signed_area2(ccw) == 8
    assert signed_area2(list(reversed(ccw))) == -8


def test_validate_accepts_d1(d1):
    assert validate(d1).ok


def test_locate_d1_examples(d1):
    assert locate(d1, Pt(-3, 0)).kind == "interior"
    loc = locate(d1, Pt(1, 0))
    assert loc.kind == "boundary"
    assert loc.ring == 1
    assert locate(d1, Pt(0, 0)).kind == "exterior"
    assert locate(d1, Pt(9, 9)).kind == "exterior"
    corner = locate(d1, Pt(-1, 1))
    assert corner.kind == "boundary" and corner.feature == "vertex"


def test_validate_rejects_wrong_orientation():
    cw_outer = [(0, 0), (0, 4), (4, 4), (4, 0)]
    rep = validate(PolygonalDomain(cw_outer, []))
    assert not rep.ok


def test_validate_rejects_ccw_hole():
    outer = [(0, 0), (8, 0), (8, 8), (0, 8)]
    ccw_hole = [(2, 2), (4, 2), (4, 4), (2, 4)]
    rep = validate(PolygonalDomain(outer, [ccw_hole]))
    assert not rep.ok


def test_validate_rejects_hole_touching_boundary():
    outer = [(0, 0), (8, 0), (8, 8), (0, 8)]
    hole = [(0, 2), (2, 4), (2, 2)]  # shares a vertex region with the left wall
    rep = validate(PolygonalDomain(outer, [hole]))
    assert not rep.ok
    assert rep.violations


def test_validate_rejects_self_intersection():
    bow = [(0, 0), (4, 4), (4, 0), (0, 4)]
    rep = validate(PolygonalDomain(bow, []))
    assert not rep.ok


def test_validate_rejects_hole_outside():
    outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
    hole = [(6, 6), (6, 7), (7, 7), (7, 6)]
    d = PolygonalDomain(outer, [list(reversed(hole))])
    assert not validate(d).ok


def test_d1_triangulation_euler_count(d1):
    tri = triangulate(d1)
    n = len(d1.verts)
    h = len(d1.holes)
    assert len(tri.tris) == n + 2 * h - 2 == 8
    assert len(tri.boundary_edges) == n
    assert all(orient(*tri.tri_pts(t)) > 0 for t in range(len(tri.tris)))


def test_triangulation_area_matches_domain(d1):
    tri = triangulate(d1)
    tri_area = sum(orient(*tri.tri_pts(t)) and signed_area2(list(tri.tri_pts(t))) for t in range(len(tri.tris)))
    dom_area = signed_area2(d1.outer) + sum(signed_area2(h) for h in d1.holes)
    assert tri_area == dom_area


def test_interior_edges_have_two_triangles(d1):
    tri = triangulate(d1)
    for e in tri.interior_edges:
        key = tuple(sorted(e))
        assert len(tri.edge_tris[key]) == 2
    for e in tri.boundary_edges:
        key = tuple(sorted(e))
        assert len(tri.edge_tris[key]) == 1


def test_locate_agrees_with_triangulation_on_batch():
    rng = random.Random(7)
    for inst in instance_batch(12, seed0=40):
        d = inst["domain"]
        tri = triangulate(d)
        tri_area = sum(signed_area2(list(tri.tri_pts(t))) for t in range(len(tri.tris)))
        dom_area = signed_area2(d.outer) + sum(signed_area2(h) for h in d.holes)
        assert tri_area == dom_area
        assert len(tri.tris) == len(d.verts) + 2 * len(d.holes) - 2
        x0, y0, x1, y1 = d.bbox()
        for _ in range(25):
            p = Pt(
                rat(rng.randint(int(x0 * 8), int(x1 * 8))) / 8,
                rat(rng.randint(int(y0 * 8), int(y1 * 8))) / 8,
            )
            loc = locate(d, p)
            owners = tri_containing(tri, p)
            if loc.kind == "exterior":
                assert owners == []
            else:
                assert owners
                for ti in owners:
                    assert point_in_triangle(p, *tri.tri_pts(ti))


def test_triangulate_rejects_invalid():
    bow = [(0, 0), (4, 4), (4, 0), (0, 4)]
    with pytest.raises(InvalidPath, match="^domain: "):
        triangulate(PolygonalDomain(bow, []))


def test_feature_size_positive(d1):
    assert d1.feature_size2() > 0


@given(st.integers(3, 9), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_convex_polygons_triangulate(n, seed):
    rng = random.Random(seed)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    poly = []
    for a in angles:
        p = Pt(rat(round(math.cos(a) * 1000)) / 100, rat(round(math.sin(a) * 1000)) / 100)
        if p not in poly:
            poly.append(p)
    if len(poly) < 3 or signed_area2(poly) <= 0:
        return
    d = PolygonalDomain(poly, [])
    if not validate(d).ok:
        return
    tri = triangulate(d)
    assert len(tri.tris) == len(poly) - 2


def test_fans_match_the_scan(d1):
    """Every vertex's stored fan equals the scan of its star, and the side
    read from triangle order equals orient's on every (edge, owner) pair."""
    from oracles import orient_side, scan_fan
    from tautpath.cli import generate_instance
    from test_tighten import COLLINEAR_RECTS, CORNER_START, SHARED_BRIDGE

    domains = [d1, CORNER_START, SHARED_BRIDGE, COLLINEAR_RECTS]
    domains += [generate_instance(s, holes=s % 5, vertices=8 + s % 12)["domain"] for s in range(300)]
    fans = pairs = 0
    for d in domains:
        tri = triangulate(d)
        for vi in range(len(tri.verts)):
            chain, keys = scan_fan(tri, vi)
            steps = [(tri.edge_id[k], orient_side(tri, k, t)) for k, t in zip(keys, chain)]
            assert tri.fans[vi] == (chain, steps), (d, vi)
            fans += 1
        for key, owners in tri.edge_tris.items():
            for ti in owners:
                assert tri.side(key, ti) == orient_side(tri, key, ti), (d, key, ti)
                pairs += 1
    assert fans == 60 + 6236, fans
    assert pairs == 3 * sum(len(triangulate(d).tris) for d in domains), pairs


def test_broken_star_is_rejected_when_built():
    from tautpath.domain import Triangulation, TriangulationError

    d = PolygonalDomain([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert Triangulation(d, [(0, 1, 2), (0, 2, 3)]).fans[0] == ([0, 1], [(0, -1)])
    # the right areas and count, but the star of vertex 0 stops at the
    # diagonal (0, 2), and vertex 3 lies in no triangle
    with pytest.raises(TriangulationError, match="star of vertex 0 is not a single chain"):
        Triangulation(d, [(0, 1, 2), (0, 1, 2)])
