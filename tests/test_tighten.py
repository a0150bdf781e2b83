"""Pull-tight engine, funnel cross-check, certificates."""

import math

import pytest

from tautpath.geom import Pt, LineSpec, rat, polyline_length, dedupe_collinear
from tautpath.homotopy import (
    PathPoly,
    word_of,
    build_sleeve,
    line_lifts,
    homotopic,
)
from tautpath.tighten import (
    tighten,
    funnel_shortest,
    certify_efficient,
    locally_shortest_check,
    chord_meeting_components,
    replace_move,
    TightenOptions,
    InvalidPath,
    _as_sleeve_path,
    _component_ends,
)
from conftest import replay_persistence_violations

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
    golden = PathPoly(GOLDEN_OVER, closure=True)
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
    rep = tighten(over_path, d1, TightenOptions(certify_lines=1000, seed=42))
    cert = rep.certificate
    assert cert is not None
    assert cert.ok
    assert cert.violations == []
    assert cert.taut_vertices_ok
    assert cert.lines_sampled >= 1000


def test_certificate_flags_slack_path(d1, over_path):
    cert = certify_efficient(over_path, d1, lines=200, seed=7)
    assert not cert.ok
    assert len(cert.violations) >= 1


def test_certificate_flags_wrong_bend(d1):
    # bends at an interior point that is not a domain corner
    bent = PathPoly([(-3, 0), (0, 2), (3, 0)])
    cert = certify_efficient(bent, d1, lines=50, seed=3)
    assert not cert.taut_vertices_ok


def test_locally_shortest_check_examples(d1, over_path):
    golden = PathPoly(GOLDEN_OVER, closure=True)
    assert locally_shortest_check(golden, d1, grid=10)
    assert not locally_shortest_check(over_path, d1, grid=10)


# --- degenerate and simple inputs ---


def test_convex_domain_gives_segment():
    from tautpath.domain import PolygonalDomain

    d = PolygonalDomain([(0, 0), (10, 0), (10, 8), (0, 8)], [])
    wiggly = PathPoly([(1, 1), (5, 7), (9, 1)])
    rep = tighten(wiggly, d)
    assert rep.path.vertices == as_pts([(1, 1), (9, 1)])
    cert = certify_efficient(rep.path, d, lines=100, seed=1)
    assert cert.ok


def test_constant_path(d1):
    rep = tighten(PathPoly([(-3, 0), (-3, 0)]), d1)
    assert rep.path.is_constant()
    assert polyline_length(rep.path.vertices) == 0


def test_spur_input_collapses_to_segment(d1):
    # out-and-back wiggle near the west wall, class of the segment
    from fractions import Fraction

    spur = PathPoly(
        [(-3, 0), (Fraction(-13, 4), Fraction(5, 2)), (-3, Fraction(1, 2))]
    )
    rep = tighten(spur, d1)
    assert rep.path.vertices == as_pts([(-3, 0), (-3, Fraction(1, 2))])
    assert any(mv.kind == "spur" for mv in rep.moves)


def test_length_trace_monotone(d1, loop_path):
    rep = tighten(loop_path, d1)
    trace = rep.length_trace
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12
    assert relclose(trace[-1], LEN_LOOP)


def test_tighten_idempotent(d1):
    # closure input gets nudged off the boundary, then pulled back tight
    golden = PathPoly(GOLDEN_OVER, closure=True)
    rep = tighten(golden, d1)
    assert rep.path.vertices == as_pts(GOLDEN_OVER)


def test_straight_segment_needs_no_moves(d1):
    from fractions import Fraction

    seg = PathPoly([(-3, 0), (-3, Fraction(1, 2))])
    rep = tighten(seg, d1)
    assert rep.path.vertices == seg.vertices
    assert rep.moves == []


# --- triangulation seed fallback ---

# the middle vertex lies on an interior edge under seeds 0 and 1
SEED2_PATH = [(-4, -3), (0, -3), (3, 2)]
# general position under none of the three seeds
NO_SEED_PATH = [(-3, -2), (-2, 3), (3, 3), (3, -2)]


def test_tighten_falls_back_to_a_later_seed(d1):
    from tautpath.domain import triangulate
    from tautpath.homotopy import NotGeneralPosition, crossing_word

    p = PathPoly(SEED2_PATH)
    for seed in (0, 1):
        with pytest.raises(NotGeneralPosition):
            crossing_word(p, triangulate(d1, seed=seed))
    rep = tighten(p, d1, TightenOptions(certify_lines=200))
    assert rep.path.vertices == as_pts([(-4, -3), (1, -1), (3, 2)])
    assert rep.certificate.ok
    assert funnel_shortest(rep.sleeve, p.start, p.end) == rep.path.vertices
    # without a triangulation the certificate picks its own seed
    assert certify_efficient(rep.path, d1, lines=200).ok


@pytest.mark.xfail(strict=True, reason="no triangulation seed puts this path in general position")
def test_tighten_path_in_no_general_position(d1):
    tighten(PathPoly(NO_SEED_PATH), d1)


# --- replay ---


def test_replay_keeps_connected_chords_connected(d1, loop_path, over_path):
    for p in (loop_path, over_path):
        rep = tighten(p, d1)
        assert replay_persistence_violations(rep) == []


# --- line family ---


def test_chord_moves_follow_vertex_pair_lines(d1, over_path, loop_path):
    from conftest import instance_batch
    from tautpath.geom import line_side

    cases = [(d1, over_path), (d1, loop_path), (d1, PathPoly(SEED2_PATH))]
    cases += [(inst["domain"], inst["path"]) for inst in instance_batch(8, seed0=40)]
    for d, p in cases:
        rep = tighten(p, d, TightenOptions(seed=0))
        # a round's lines come from the path vertices at its start, which
        # earlier moves of the round may have removed
        pts = set(d.verts) | set(rep.replay_base[0])
        for mv in rep.moves:
            if mv.kind != "chord":
                continue
            assert sum(line_side(mv.line, v) == 0 for v in pts) >= 2
            pts.update(mv.verts_after)
        other = tighten(p, d, TightenOptions(seed=42))
        assert [(m.kind, m.line and m.line.key, m.verts_after, m.pos_after) for m in rep.moves] == [
            (m.kind, m.line and m.line.key, m.verts_after, m.pos_after) for m in other.moves
        ]


# --- error paths ---


def test_path_through_hole_rejected(d1):
    with pytest.raises(InvalidPath):
        tighten(PathPoly([(-3, 0), (3, 0)]), d1)


def test_invalid_domain_rejected():
    from tautpath.domain import PolygonalDomain
    from tautpath.homotopy import general_position_triangulation

    bowtie = PolygonalDomain([(0, 0), (4, 4), (4, 0), (0, 4)], [])
    p = PathPoly([(1, 1), (2, 1)])
    for check in (tighten, certify_efficient, lambda p, d: general_position_triangulation(d, [p])):
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
