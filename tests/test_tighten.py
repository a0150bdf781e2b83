"""Pull-tight engine, funnel cross-check, certificates."""

import math
import random
import sys
from fractions import Fraction

import pytest

from tautpath.domain import PolygonalDomain, triangulate
from tautpath.geom import Pt, LineSpec, polyline_length, dedupe_collinear, on_segment
from tautpath.homotopy import (
    PathPoly,
    validate_path,
    word_of,
    build_sleeve,
    line_lifts,
    homotopic,
)
from tautpath.tighten import (
    tighten,
    funnel_shortest,
    certify_efficient,
    chord_meeting_components,
    replace_move,
    InvalidPath,
    _as_sleeve_path,
    _component_ends,
    _family_lines,
    _meets_in_one_piece,
    _taut_vertex_violations,
)
from conftest import replay_persistence_violations
from oracles import locally_shortest_check, probe_taut_vertex_violations

SQRT5 = math.sqrt(5.0)

GOLDEN_OVER = [(-3, 0), (-1, 1), (1, 1), (3, 0)]
GOLDEN_UNDER = [(-3, 0), (-1, -1), (1, -1), (3, 0)]
GOLDEN_LOOP = [(-3, 0), (-1, 1), (1, 1), (1, -1), (-1, -1), (-3, 0)]
GOLDEN_LOOP2 = [
    (-3, 0), (-1, 1), (1, 1), (1, -1), (-1, -1),
    (-1, 1), (1, 1), (1, -1), (-1, -1), (-3, 0),
]

LEN_OVER = 2.0 + 2.0 * SQRT5
LEN_LOOP = 6.0 + 2.0 * SQRT5
LEN_LOOP2 = 14.0 + 2.0 * SQRT5


def as_pts(coords):
    return [Pt(*c) for c in coords]


def relclose(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- golden answers, always through both routes ---


def check_both_routes(d, input_path, golden, glen):
    rep = tighten(input_path, d)
    assert rep.path.vertices == as_pts(golden)
    assert relclose(polyline_length(rep.path.vertices), glen)
    # independent funnel pass over the same sleeve
    w = word_of(input_path, rep.tri)
    sl = build_sleeve(w, rep.tri)
    fpts = dedupe_collinear(funnel_shortest(sl, input_path.start, input_path.end))
    assert fpts == as_pts(golden)
    assert relclose(polyline_length(fpts), glen)
    return rep


def test_over_golden(d1, over_path):
    from tautpath.homotopy import crossing_word, reduce_word
    from test_homotopy import brute_crossings

    rep = check_both_routes(d1, over_path, GOLDEN_OVER, LEN_OVER)
    w = crossing_word(over_path, rep.tri)
    assert rep.word_length == len(reduce_word(w.letters))
    assert len(w.letters) == brute_crossings(over_path, rep.tri)


def test_under_golden(d1, under_path):
    check_both_routes(d1, under_path, GOLDEN_UNDER, LEN_OVER)


def test_loop_golden(d1, loop_path):
    check_both_routes(d1, loop_path, GOLDEN_LOOP, LEN_LOOP)


def test_doubled_loop_golden(d1, loop_path):
    doubled = PathPoly(loop_path.vertices + loop_path.vertices[1:])
    check_both_routes(d1, doubled, GOLDEN_LOOP2, LEN_LOOP2)


def test_output_homotopic_to_input(d1, over_path):
    rep = tighten(over_path, d1)
    assert homotopic(over_path, rep.path, rep.tri)


# --- single chord move, by hand ---


def test_hole_tangent_chord_flattens_middle(d1, over_path):
    sleeve, spath = _as_sleeve_path(over_path, d1)
    line = LineSpec.through(Pt(-1, 1), Pt(1, 1))
    chords = line_lifts(line, sleeve)
    assert len(chords) == 1
    comps = chord_meeting_components(spath, chords[0])
    assert len(comps) == 2  # path crosses the tangent going up and down
    m1, m2 = _component_ends(comps)
    moved = replace_move(spath, chords[0], m1, m2)
    assert moved is not None
    assert moved.verts == as_pts([(-3, 0), (-2, 1), (2, 1), (3, 0)])
    before = polyline_length(spath.verts)
    after = polyline_length(moved.verts)
    assert after < before
    assert relclose(after, 4.0 + 2.0 * math.sqrt(2.0))
    # single move is not yet tight
    assert after > LEN_OVER


def test_move_on_connected_chord_is_identity(d1):
    golden = PathPoly(GOLDEN_OVER)
    sleeve, spath = _as_sleeve_path(golden, d1)
    line = LineSpec.through(Pt(-1, 1), Pt(1, 1))
    for chord in line_lifts(line, sleeve):
        comps = chord_meeting_components(spath, chord)
        assert len(comps) <= 1
        if comps:
            m1, m2 = _component_ends(comps)
            assert replace_move(spath, chord, m1, m2) is None


# --- certificates ---


def test_certificate_clean_after_tighten(d1, over_path):
    rep = tighten(over_path, d1)
    cert = certify_efficient(rep.path, d1)
    assert cert.ok
    assert cert.violations == []
    assert cert.taut_vertices_ok
    assert cert.lines_sampled == len(_family_lines(triangulate(d1), [rep.path.start, rep.path.end]))


def test_certificate_flags_slack_path(d1, over_path):
    cert = certify_efficient(over_path, d1)
    assert not cert.ok
    assert len(cert.violations) >= 1


def test_certificate_flags_wrong_bend(d1):
    # bends at an interior point that is not a domain corner
    bent = PathPoly([(-3, 0), (0, 2), (3, 0)])
    cert = certify_efficient(bent, d1)
    assert not cert.taut_vertices_ok


# in canonical form each of these turns straight back at one vertex
REVERSAL_PATHS = [
    [(-3, -3), (-1, -1), (-3, -3)],
    [(-3, -3), (-2, -2), (-4, -4)],
    [(-3, 0), (-1, 1), (1, 1), (2, Fraction(1, 2)), (Fraction(5, 2), Fraction(1, 4)), (2, Fraction(1, 2)), (3, 0)],
    [(-3, 1), (1, 1), (0, 1)],
    [(-4, -4), (4, -4), (2, -4)],
    [(3, 3), (5, 5), (4, 4)],
]


@pytest.mark.parametrize(
    "pts, blocked",
    [
        ([(3, -4), (5, -5), (4, -3)], False),  # bend at an outer convex corner
        ([(-1, 1), (1, 1), (1, -1)], True),  # hugs both edges of a hole corner
        ([(3, -5), (5, -5), (5, -3)], False),  # hugs both edges of an outer corner
    ]
    + [(pts, False) for pts in REVERSAL_PATHS],
)
def test_certificate_corner_bends(d1, pts, blocked):
    cert = certify_efficient(PathPoly(pts), d1)
    assert cert.taut_vertices_ok is blocked
    canon = dedupe_collinear(as_pts(pts))
    assert _taut_vertex_violations(canon, d1) == probe_taut_vertex_violations(canon, d1)


def test_certificate_agrees_with_the_funnel_oracle(d1):
    """The certificate passes exactly the paths that are the funnel route
    of their own class: generated inputs, their tight outputs, wiggled
    copies of those, and paths that turn straight back.  The bend check
    alone gives the same verdict, since a path whose every bend is
    blocked is locally shortest, hence shortest in its class."""
    from conftest import instance_batch, perturb_homotopic

    rng = random.Random(23)
    cases = [(d1, PathPoly(pts)) for pts in REVERSAL_PATHS]
    for inst in instance_batch(12, seed0=60):
        d, p = inst["domain"], inst["path"]
        out = tighten(p, d).path
        cases += [(d, q) for q in [p, out, perturb_homotopic(out, d, rng), perturb_homotopic(out, d, rng)]]
    verdicts = []
    for d, q in cases:
        tri = triangulate(d)
        route = funnel_shortest(build_sleeve(word_of(q, tri), tri), q.start, q.end)
        cert = certify_efficient(q, d)
        verdicts.append(cert.ok)
        assert cert.ok == cert.taut_vertices_ok == (dedupe_collinear(q.vertices) == dedupe_collinear(route)), q.vertices
    assert any(verdicts) and not all(verdicts)


def _corner_paths(d):
    """For every domain vertex v with ring neighbours a, b: a-v-b and b-v-a
    along both edges, and a-v-x and x-v-b for x the centroid of each
    triangle at v."""
    tri = triangulate(d)
    out = []
    for _, ring in d.rings():
        for i, v in enumerate(ring):
            a, b = ring[i - 1], ring[(i + 1) % len(ring)]
            out += [[a, v, b], [b, v, a]]
            for ti in range(len(tri.tris)):
                corners = tri.tri_pts(ti)
                if v in corners:
                    x = Pt(sum(c.x for c in corners) / 3, sum(c.y for c in corners) / 3)
                    out += [[a, v, x], [x, v, b]]
    return out


def test_corner_rule_matches_probe():
    from conftest import instance_batch, perturb_homotopic
    rng = random.Random(11)
    clean = flagged = 0
    for inst in instance_batch(6, seed0=300, max_holes=3, spread=24):
        d = inst["domain"]
        out = tighten(inst["path"], d).path
        paths = [out.vertices] + [perturb_homotopic(out, d, rng).vertices for _ in range(2)]
        for pts in paths + _corner_paths(d):
            got = _taut_vertex_violations(pts, d)
            assert got == probe_taut_vertex_violations(pts, d), pts
            clean += not got
            flagged += bool(got)
    assert clean and flagged, (clean, flagged)


def test_locally_shortest_check_examples(d1, over_path):
    golden = PathPoly(GOLDEN_OVER)
    assert locally_shortest_check(golden, d1, grid=10)
    assert not locally_shortest_check(over_path, d1, grid=10)


# --- degenerate and simple inputs ---


def test_convex_domain_gives_segment():
    from tautpath.domain import PolygonalDomain

    d = PolygonalDomain([(0, 0), (10, 0), (10, 8), (0, 8)], [])
    wiggly = PathPoly([(1, 1), (5, 7), (9, 1)])
    rep = tighten(wiggly, d)
    assert rep.path.vertices == as_pts([(1, 1), (9, 1)])
    cert = certify_efficient(rep.path, d)
    assert cert.ok


def test_constant_path(d1):
    rep = tighten(PathPoly([(-3, 0), (-3, 0)]), d1)
    assert rep.path.is_constant()
    assert polyline_length(rep.path.vertices) == 0


def test_spur_input_collapses_to_segment(d1):
    # out-and-back wiggle near the west wall, class of the segment
    spur = PathPoly(
        [(-3, 0), (Fraction(-13, 4), Fraction(5, 2)), (-3, Fraction(1, 2))]
    )
    rep = tighten(spur, d1)
    assert rep.path.vertices == as_pts([(-3, 0), (-3, Fraction(1, 2))])
    assert any(mv.kind == "spur" for mv in rep.moves)


def test_length_trace_monotone(d1, loop_path):
    # the lengths are read from the move log, which is the run's record
    rep = tighten(loop_path, d1)
    trace = [polyline_length(loop_path.vertices)] + [polyline_length(m.verts_after) for m in rep.moves]
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12
    assert relclose(trace[-1], LEN_LOOP)


def test_tighten_past_the_float_range():
    # the engine is exact: coordinates no float can hold are pulled tight
    # like any others
    big = PolygonalDomain([Pt("0", "0"), Pt("1e400", "0"), Pt("1e400", "1e400"), Pt("0", "1e400")], [])
    rep = tighten(PathPoly([Pt("1e399", "1e399"), Pt("5e399", "2e399"), Pt("3e399", "3e399")]), big)
    assert rep.path.vertices == [Pt(10**399, 10**399), Pt(3 * 10**399, 3 * 10**399)]
    assert certify_efficient(rep.path, big).ok


def test_tighten_idempotent(d1):
    # an input along the boundary is read as it is and is already tight
    golden = PathPoly(GOLDEN_OVER)
    rep = tighten(golden, d1)
    assert rep.path.vertices == as_pts(GOLDEN_OVER)


def test_straight_segment_needs_no_moves(d1):
    seg = PathPoly([(-3, 0), (-3, Fraction(1, 2))])
    rep = tighten(seg, d1)
    assert rep.path.vertices == seg.vertices
    assert rep.moves == []


# --- degenerate positions ---

# the end lies on an interior edge of the d1 triangulation
ON_EDGE_PATH = [(-4, -3), (0, -3), (3, 2)]
# two vertices on interior edges
DEGENERATE_PATH = [(-3, -2), (-2, 3), (3, 3), (3, -2)]
# the index triples of a second triangulation of d1, with other diagonals
D1_OTHER_TRIS = [(2, 3, 5), (2, 5, 6), (2, 6, 7), (4, 5, 3), (4, 3, 0), (4, 0, 1), (1, 2, 7), (1, 7, 4)]


def _grid_paths(d, count):
    """Paths of 2-5 integer vertices in [-5, 5]^2 that stay in the closed
    domain; in d1 many have vertices on diagonals, on boundary edges or at
    corners."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(2, 5))]
        if validate_path(PathPoly(pts), d).ok:
            out.append(PathPoly(pts))
    return out


def test_tighten_path_with_an_end_on_an_interior_edge(d1, d1_tri):
    p = PathPoly(ON_EDGE_PATH)
    u, v = d1_tri.edge_pts((2, 7))
    assert (2, 7) in d1_tri.interior_edges and on_segment(p.end, u, v)
    rep = tighten(p, d1)
    assert rep.path.vertices == as_pts([(-4, -3), (1, -1), (3, 2)])
    assert certify_efficient(rep.path, d1).ok
    assert funnel_shortest(rep.sleeve, p.start, p.end) == rep.path.vertices


def test_tighten_path_in_no_general_position(d1):
    rep = tighten(PathPoly(DEGENERATE_PATH), d1)
    assert rep.path.vertices == as_pts([(-3, -2), (-1, 1), (1, 1), (3, -2)])
    assert certify_efficient(rep.path, d1).ok


def test_path_from_a_corner_starts_in_its_fan(d1):
    # the first edge leaves the corner (-5, -5) between two diagonals there
    p = PathPoly([(-5, -5), (0, -4), (3, -4)])
    rep = tighten(p, d1)
    assert rep.path.vertices == as_pts([(-5, -5), (3, -4)])
    assert certify_efficient(rep.path, d1).ok


def test_path_along_a_boundary_edge_is_pushed_off(d1):
    p = PathPoly([(0, -5), (-3, -5)])
    assert homotopic(p, PathPoly([(0, -5), (-1, -4), (-3, -5)]), triangulate(d1))
    rep = tighten(p, d1)
    assert rep.path.vertices == p.vertices
    assert certify_efficient(rep.path, d1).ok


def test_path_through_a_straight_corner(d1_straight):
    from oracles import scan_fan
    from tautpath.homotopy import crossing_word

    p = PathPoly([(-3, -2), (0, -5), (3, -2)])
    # the path passes the corner through its whole fan, recorded at the corner
    tri = triangulate(d1_straight)
    _, keys = scan_fan(tri, tri.vertex_at(Pt(0, -5)))
    recs = crossing_word(word_of(p, tri).path, tri).records
    assert len(keys) == 3
    assert [(r.edge_index, r.t, r.eid) for r in recs if r.t == 1] == [(0, 1, tri.edge_id[k]) for k in keys]
    rep = tighten(p, d1_straight)
    assert rep.path.vertices == as_pts([(-3, -2), (3, -2)])
    assert certify_efficient(rep.path, d1_straight).ok


def test_path_along_a_diagonal_between_corners(d1, d1_tri):
    # (-5, 5) -> (-1, 1) is a diagonal; the path arrives at and leaves it
    # on the side away from the one the shift delta picks for its midpoint
    p = PathPoly([(-4, 0), (-5, 5), (-1, 1), (-2, 0)])
    eid = d1_tri.edge_id[(3, 5)]
    assert d1_tri.edge_pts((3, 5)) == (Pt(-5, 5), Pt(-1, 1))
    assert eid not in {e for e, _ in word_of(p, d1_tri).letters}
    rep = tighten(p, d1)
    assert rep.path.vertices == as_pts([(-4, 0), (-2, 0)])
    assert certify_efficient(rep.path, d1).ok


def test_funnel_with_an_endpoint_on_a_portal(d1):
    # (-3, 3) lies on the first portal of this sleeve
    p = PathPoly([(-3, 3), (-4, -4)])
    rep = tighten(p, d1)
    assert on_segment(p.start, *rep.sleeve.portal_pts[0])
    assert rep.path.vertices == p.vertices
    assert funnel_shortest(rep.sleeve, p.start, p.end) == p.vertices


def test_degenerate_grid_corpus(d1, monkeypatch):
    """Tight outputs are certified, homotopic to their input, equal to the
    funnel route and the visibility-graph optimum, and do not depend on the
    triangulation."""
    from oracles import vg_shortest_in_class
    from tautpath.domain import Triangulation

    paths = _grid_paths(d1, 200)
    reps = [tighten(p, d1) for p in paths]
    for p, rep in zip(paths, reps):
        assert certify_efficient(rep.path, d1).ok, p.vertices
    other = Triangulation(d1, D1_OTHER_TRIS)
    # `from tautpath import tighten` gives the function, not the module
    monkeypatch.setattr(sys.modules["tautpath.tighten"], "triangulate", lambda d: other)
    for p, rep in zip(paths, reps):
        assert homotopic(p, rep.path, rep.tri), p.vertices
        assert funnel_shortest(rep.sleeve, p.start, p.end) == rep.path.vertices
        _, olen = vg_shortest_in_class(d1, p, rep.tri)
        assert relclose(polyline_length(rep.path.vertices), olen), p.vertices
        again = tighten(p, d1)
        assert again.tri is other
        assert again.path.vertices == rep.path.vertices, p.vertices


# --- multi-hole grid domains ---


def _square(x0, y0, x1, y1):
    """The clockwise ring of an axis-parallel rectangle."""
    return [(x0, y0), (x0, y1), (x1, y1), (x1, y0)]


# four holes, three of them diamonds; paths from the corner (1, 1) start
# with a walk around its fan
CORNER_START = PolygonalDomain(
    _square(-8, -8, 8, 8)[::-1],
    [
        [(-4, 0), (-3, 1), (-2, 0), (-3, -1)],
        [(2, 0), (3, 1), (4, 0), (3, -1)],
        [(0, 2), (1, 3), (2, 2), (1, 1)],
        _square(-2, -4, 2, -2),
    ],
)
# the bridges of the second and third hole both end at the corner (-2, -1)
SHARED_BRIDGE_HOLES = [_square(-4, -1, -2, 1), _square(2, -1, 4, 1), _square(-1, -4, 1, -2)]
SHARED_BRIDGE = PolygonalDomain(_square(-6, -6, 6, 6)[::-1], SHARED_BRIDGE_HOLES)
SHARED_BRIDGE4 = PolygonalDomain(
    _square(-6, -6, 6, 6)[::-1], SHARED_BRIDGE_HOLES + [_square(-1, 2, 1, 4)]
)
# three rectangles whose top and bottom edges lie on two shared lines
COLLINEAR_RECTS = PolygonalDomain(
    _square(-7, -5, 7, 5)[::-1], [_square(x, -2, x + 2, 2) for x in (-5, -1, 3)]
)


def test_pivot_edge_meets_a_line_over_its_whole_window():
    # the sleeve path keeps the input's fan walk around (1, 1) as a
    # zero-length edge over copies 0..2; the line y = 1 meets the path
    # there and nowhere else
    rep = tighten(PathPoly([(1, 1), (-1, 3), (0, 0), (3, 3)]), CORNER_START)
    assert rep.spath.verts == as_pts([(1, 1), (1, 1), (2, 2), (3, 3)])
    assert rep.spath.pos == [0, 2, 4, 4]
    line = LineSpec.through(Pt(0, 1), Pt(1, 1))
    assert line.key == (0, 1, 1)
    assert [len(chord_meeting_components(rep.spath, ch)) for ch in line_lifts(line, rep.sleeve)] == [1]
    assert certify_efficient(rep.path, CORNER_START).ok


@pytest.mark.parametrize("d", [SHARED_BRIDGE, SHARED_BRIDGE4], ids=["3holes", "4holes"])
def test_bridges_that_share_a_corner_triangulate(d):
    tri = triangulate(d)
    assert len(tri.tris) == len(d.verts) + 2 * len(d.holes) - 2
    p = PathPoly([(-5, -5), (-5, 5), (5, 5), (5, -5)])
    rep = tighten(p, d)
    assert rep.path.vertices == funnel_shortest(build_sleeve(word_of(p, tri), tri), p.start, p.end)
    assert certify_efficient(rep.path, d).ok


MULTI_HOLE_DOMAINS = (CORNER_START, SHARED_BRIDGE, SHARED_BRIDGE4, COLLINEAR_RECTS)


def _multi_hole_draws(k, count=25):
    """(path, valid) for integer-grid paths in MULTI_HOLE_DOMAINS[k], many
    of them starting or ending at a hole corner, until `count` are valid."""
    d = MULTI_HOLE_DOMAINS[k]
    corners = [v for ring in d.holes for v in ring]
    rng = random.Random(k)
    out = []
    while sum(ok for _, ok in out) < count:
        p = PathPoly([(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(rng.randint(2, 4))])
        r = rng.random()
        if r < 0.5:
            ends = [rng.choice(corners), p.end] if r < 0.3 else [p.start, rng.choice(corners)]
            p = PathPoly([ends[0]] + p.vertices[1:-1] + [ends[1]])
        out.append((p, validate_path(p, d).ok))
    return out


def test_multi_hole_grid_corpus():
    """Integer-grid paths, many of them starting or ending at hole corners,
    in domains with shared lines through many corners.  Valid ones give
    the funnel route of their class, certified; invalid ones are rejected."""
    from oracles import vg_shortest_in_class

    invalid = 0
    for k, d in enumerate(MULTI_HOLE_DOMAINS):
        tri = triangulate(d)
        for p, ok in _multi_hole_draws(k):
            if not ok:
                invalid += 1
                with pytest.raises(InvalidPath):
                    tighten(p, d)
                continue
            out = tighten(p, d).path
            assert out.vertices == funnel_shortest(build_sleeve(word_of(p, tri), tri), p.start, p.end), p.vertices
            assert homotopic(p, out, tri), p.vertices
            assert certify_efficient(out, d).ok, p.vertices
            if len(p.vertices) <= 3:
                _, olen = vg_shortest_in_class(d, p, tri)
                assert relclose(polyline_length(out.vertices), olen), p.vertices
    assert invalid >= 100, invalid


# --- one triangulation per domain ---


def test_triangulation_is_memoized_on_the_domain(d1, over_path, monkeypatch):
    from tautpath import domain
    from tautpath.domain import PolygonalDomain

    assert triangulate(d1) is triangulate(d1)
    assert tighten(over_path, d1).tri is triangulate(d1)
    built = []
    ear_clip = domain._triangulate
    monkeypatch.setattr(domain, "_triangulate", lambda d: built.append(d) or ear_clip(d))
    fresh = PolygonalDomain(d1.outer, d1.holes)
    tighten(over_path, fresh)
    tighten(PathPoly(GOLDEN_UNDER), fresh)
    assert built == [fresh]


# --- replay ---


def test_replay_keeps_connected_chords_connected(d1, loop_path, over_path):
    for p in (loop_path, over_path):
        rep = tighten(p, d1)
        assert replay_persistence_violations(rep) == []


# --- line family ---


def test_chord_moves_follow_vertex_pair_lines(d1, over_path, loop_path):
    from conftest import instance_batch
    from tautpath.geom import line_side

    cases = [(d1, over_path), (d1, loop_path), (d1, PathPoly(ON_EDGE_PATH))]
    cases += [(inst["domain"], inst["path"]) for inst in instance_batch(8, seed0=40)]
    for d, p in cases:
        rep = tighten(p, d)
        # a round's lines come from the path vertices at its start, which
        # earlier moves of the round may have removed
        pts = set(d.verts) | set(rep.replay_base[0])
        for mv in rep.moves:
            if mv.kind != "chord":
                continue
            assert sum(line_side(mv.line, v) == 0 for v in pts) >= 2
            pts.update(mv.verts_after)
        # the moves are a function of the input alone
        other = tighten(p, d)
        assert [(m.kind, m.line and m.line.key, m.verts_after, m.pos_after) for m in rep.moves] == [
            (m.kind, m.line and m.line.key, m.verts_after, m.pos_after) for m in other.moves
        ]


@pytest.mark.parametrize(
    "coords, one_piece",
    [
        ([(0, 1), (1, 2), (2, 1)], True),  # misses the line
        ([(0, 1), (1, -1)], True),  # a single crossing
        ([(0, 1), (1, 0), (2, 1)], True),  # a touch at a vertex
        ([(0, 1), (1, 0), (2, -1)], True),  # a crossing through a vertex
        ([(0, 1), (2, 0), (5, 0), (3, 0), (4, -1)], True),  # a run along the line, out and partly back
        ([(0, -1), (1, 0), (1, 0), (2, -1)], True),  # a repeated (pivot) vertex on the line
        ([(0, 0), (1, 1), (2, 1)], True),  # starts on the line
        ([(0, 1), (1, 1), (2, 0)], True),  # ends on the line
        ([(0, 1), (1, -1), (2, 1)], False),  # two crossings
        ([(0, 1), (1, 0), (2, 1), (3, 0), (4, 1)], False),  # two touches
        ([(0, 0), (1, 1), (2, -1)], False),  # starts on the line, then crosses it
        ([(0, 1), (1, -1), (2, 0)], False),  # crosses, then ends on the line
        ([(0, 0), (1, 0), (2, 1), (3, 0)], False),  # a run, then a touch
    ],
)
def test_one_piece_event_count(coords, one_piece):
    # the line y = 0, whose left side is y > 0
    line = LineSpec.through(Pt(0, 0), Pt(1, 0))
    assert _meets_in_one_piece(line, as_pts(coords)) is one_piece


def _run_record(p, d):
    """The move log, the output, and the certificates of the input and of
    the output: everything a run and its checks report."""
    rep = tighten(p, d)
    log = [(m.kind, m.line and m.line.key, m.verts_after, m.pos_after) for m in rep.moves]
    return log, rep.path.vertices, [vars(certify_efficient(q, d)) for q in (p, rep.path)]


def test_one_piece_filter_changes_nothing(d1, monkeypatch):
    """Skipping the lines that meet the path in one piece of the plane
    changes no move, output or certificate: with the filter switched off
    every line is lifted and every chord is tested."""
    from conftest import instance_batch

    cases = [(inst["domain"], inst["path"]) for inst in instance_batch(40, seed0=0, max_holes=5, spread=53)]
    cases += [(d1, p) for p in _grid_paths(d1, 200)]
    for k, d in enumerate(MULTI_HOLE_DOMAINS):
        cases += [(d, p) for p, ok in _multi_hole_draws(k) if ok]
    shipped = [_run_record(p, d) for d, p in cases]
    monkeypatch.setattr(sys.modules["tautpath.tighten"], "_meets_in_one_piece", lambda line, verts: False)
    split = 0
    for (d, p), rec in zip(cases, shipped):
        assert _run_record(p, d) == rec, p.vertices
        split += bool(rec[2][0]["violations"])
    assert split >= 100, split


# --- error paths ---


def test_path_through_hole_rejected(d1):
    with pytest.raises(InvalidPath):
        tighten(PathPoly([(-3, 0), (3, 0)]), d1)


def test_invalid_domain_rejected():
    from tautpath.domain import PolygonalDomain

    bowtie = PolygonalDomain([(0, 0), (4, 4), (4, 0), (0, 4)], [])
    p = PathPoly([(1, 1), (2, 1)])
    for check in (tighten, certify_efficient, lambda p, d: triangulate(d)):
        with pytest.raises(InvalidPath, match="^domain: "):
            check(p, bowtie)


# --- dual route over generated instances ---


def test_batch_routes_agree():
    from conftest import instance_batch

    worst = 0.0
    for inst in instance_batch(8, seed0=40):
        d, p = inst["domain"], inst["path"]
        rep = tighten(p, d)
        w = word_of(p, rep.tri)
        sl = build_sleeve(w, rep.tri)
        fpts = dedupe_collinear(funnel_shortest(sl, p.start, p.end))
        assert fpts == rep.path.vertices
        lt = polyline_length(rep.path.vertices)
        lf = polyline_length(fpts)
        if lt:
            worst = max(worst, abs(lt - lf) / lt)
    assert worst <= 1e-9
