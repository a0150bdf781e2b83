import math
import os
import random
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from tautpath import PathPoly, PolygonalDomain, triangulate
from tautpath.geom import Pt, Segment, dist2, lerp, point_seg_dist2, polyline_length, rat, segments_intersect
from tautpath.homotopy import validate_path


@pytest.fixture(scope="session")
def d1():
    outer = [(-5, -5), (5, -5), (5, 5), (-5, 5)]
    hole = [(-1, -1), (-1, 1), (1, 1), (1, -1)]
    return PolygonalDomain(outer, [hole])


@pytest.fixture(scope="session")
def d1_straight(d1):
    """d1 with a straight corner of the outer ring at (0, -5)."""
    return PolygonalDomain([(-5, -5), (0, -5), (5, -5), (5, 5), (-5, 5)], d1.holes)


@pytest.fixture(scope="session")
def d1_tri(d1):
    return triangulate(d1)


@pytest.fixture
def over_path():
    return PathPoly([Pt(-3, 0), Pt(0, 3), Pt(3, 0)])


@pytest.fixture
def under_path():
    return PathPoly([Pt(-3, 0), Pt(0, -3), Pt(3, 0)])


@pytest.fixture
def loop_path():
    return PathPoly([Pt(-3, 0), Pt(0, 3), Pt(3, 0), Pt(0, -3), Pt(-3, 0)])


def snap_rat(v: float, denom: int = 1 << 14):
    return rat(round(v * denom)) / denom


def _fdist2(p: Pt, a: Pt, b: Pt) -> float:
    """Squared distance from p to the segment [a, b], in floats."""
    dx, dy = b.fx - a.fx, b.fy - a.fy
    wx, wy = p.fx - a.fx, p.fy - a.fy
    s = wx * dx + wy * dy
    if s <= 0:
        return wx * wx + wy * wy
    ln = dx * dx + dy * dy
    if s >= ln:
        ex, ey = p.fx - b.fx, p.fy - b.fy
        return ex * ex + ey * ey
    c = wx * dy - wy * dx
    return c * c / ln


def _clearance2(path: PathPoly, d: PolygonalDomain):
    """Smallest positive squared distance between path edges and boundary
    edges that do not touch each other, exact.

    Floats screen the point-segment candidates.  With M the largest
    coordinate magnitude and u = 2**-53, a float value is within 144uM**2
    of the exact one: rounding the points moves a distance by at most
    2*sqrt(2)uM, so its square by at most 16uM**2, and each of _fdist2's
    formulas (a sum of squares, or a squared cross product over |b - a|**2)
    is off by at most 16u|p - a|**2 <= 128uM**2.  So with E = 256uM**2
    (plus an absolute term against underflow) the exact minimum is among
    the candidates within 2E of the float minimum."""
    cands = []
    for i in range(len(path.vertices) - 1):
        a, b = path.vertices[i], path.vertices[i + 1]
        for rid, ring in d.rings():
            n = len(ring)
            for j in range(n):
                c, e = ring[j], ring[(j + 1) % n]
                if segments_intersect(Segment(a, b), Segment(c, e))[0] != "disjoint":
                    continue
                cands += [(a, c, e), (b, c, e), (c, a, b), (e, a, b)]
    if not cands:
        return None
    m = max(max(abs(p.fx), abs(p.fy)) for p in path.vertices + d.verts)
    keep = 2 * (256 * 2.0**-53 * m * m + 1e-290)
    fd = [_fdist2(*c) for c in cands]
    lo = min(fd)
    return min(point_seg_dist2(*c) for c, f in zip(cands, fd) if f <= lo + keep)


def perturb_homotopic(path: PathPoly, d: PolygonalDomain, rng: random.Random, wiggles: int = 3) -> PathPoly:
    """Insert small off-segment detour vertices.  Each wiggle stays inside
    a quarter of the path's clearance tube, so the deformation class is
    untouched while the euclidean length strictly grows."""
    verts = list(path.vertices)
    for _ in range(wiggles):
        cur = PathPoly(verts)
        cl2 = _clearance2(cur, d)
        r = math.sqrt(float(cl2)) / 4 if cl2 is not None else 0.25
        r = min(r, 1.0)
        done = False
        for _ in range(60):
            i = rng.randrange(len(verts) - 1)
            a, b = verts[i], verts[i + 1]
            if a == b:
                continue
            t = rat(rng.randint(3, 7)) / 10
            m = lerp(a, b, t)
            ang = rng.uniform(0.0, 2 * math.pi)
            mag = r * rng.uniform(0.35, 0.95)
            off = Pt(snap_rat(math.cos(ang) * mag), snap_rat(math.sin(ang) * mag))
            if off.x == 0 and off.y == 0:
                continue
            cand = verts[: i + 1] + [m + off] + verts[i + 1 :]
            if validate_path(PathPoly(cand), d).ok:
                verts = cand
                done = True
                break
        if not done:
            break
    return PathPoly(verts)


def subdivide(path, max_chord: float):
    """Insert collinear vertices so no edge chord exceeds max_chord."""
    verts = getattr(path, "vertices", path)
    out = [verts[0]]
    for i in range(len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        d = math.sqrt(float(dist2(a, b)))
        n = max(1, math.ceil(d / max_chord))
        for k in range(1, n + 1):
            out.append(lerp(a, b, rat(k) / n))
    return PathPoly(list(out))


def arclen_sup_dist(pts_a, pts_b, samples: int = 256) -> float:
    """Sup distance between two polylines after arc-length
    reparameterization to [0, 1]."""

    def at(pts, frac):
        pp = [(float(p.x), float(p.y)) for p in pts]
        lens = [math.dist(pp[i], pp[i + 1]) for i in range(len(pp) - 1)]
        total = sum(lens)
        if total == 0:
            return pp[0]
        target = frac * total
        acc = 0.0
        for i, ln in enumerate(lens):
            if acc + ln >= target or i == len(lens) - 1:
                f = 0.0 if ln == 0 else (target - acc) / ln
                f = min(max(f, 0.0), 1.0)
                return (
                    pp[i][0] + (pp[i + 1][0] - pp[i][0]) * f,
                    pp[i][1] + (pp[i + 1][1] - pp[i][1]) * f,
                )
            acc += ln
        return pp[-1]

    worst = 0.0
    for s in range(samples + 1):
        f = s / samples
        pa, pb = at(pts_a, f), at(pts_b, f)
        worst = max(worst, math.dist(pa, pb))
    return worst


def instance_batch(count: int, seed0: int = 0, max_holes: int = 3, spread: int = 24):
    from tautpath.cli import generate_instance

    out = []
    for s in range(seed0, seed0 + count):
        holes = s % (max_holes + 1)
        verts = 8 + (s * 7) % spread
        out.append(generate_instance(s, holes=holes, vertices=verts))
    return out


# ------------------------------------------------- acceptance reporting

# criterion number -> {"name", "status", "detail"}; test_acceptance.py
# registers all nine at import, and each selected one starts as FAIL, so a
# crashed run still prints a line for every criterion
CRITERIA: dict = {}


def crit_register(num: int, name: str):
    CRITERIA[num] = {"name": name, "status": "not selected", "detail": None}


def pytest_collection_finish(session):
    for item in session.items:
        m = re.match(r"test_criterion_(\d+)_", item.name)
        if m and int(m.group(1)) in CRITERIA:
            CRITERIA[int(m.group(1))].update(status="FAIL", detail="not run")


def crit_attempt(num: int):
    CRITERIA[num]["detail"] = "started but did not finish"


def crit_pass(num: int, detail: str):
    CRITERIA[num]["status"] = "PASS"
    CRITERIA[num]["detail"] = detail


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        c = CRITERIA[num]
        detail = f" - {c['detail']}" if c["detail"] else ""
        terminalreporter.write_line(f"criterion {num} ({c['name']}): {c['status']}{detail}")


def replay_persistence_violations(rep, moved_lines_only: bool = False):
    """Replay a tighten move log and flag any chord whose meeting set
    was connected at some state but split again later.  Checks every
    vertex-pair family line plus each line a move was applied along;
    `moved_lines_only` restricts to the latter."""
    from tautpath.homotopy import SleevePath, line_lifts
    from tautpath.tighten import chord_meeting_components, _family_lines

    sleeve = rep.sleeve
    states = [SleevePath(sleeve, *rep.replay_base)]
    for mv in rep.moves:
        if mv.kind == "chord":
            states.append(SleevePath(sleeve, mv.verts_after, mv.pos_after))
    p, q = states[0].verts[0], states[0].verts[-1]
    lines = [] if moved_lines_only else _family_lines(sleeve.tri, [p, q])
    lines += [mv.line for mv in rep.moves if mv.kind == "chord"]
    seen = set()
    chords = []
    for line in lines:
        if line is None or line.key in seen:
            continue
        seen.add(line.key)
        chords.extend(line_lifts(line, sleeve))
    bad = []
    for ch in chords:
        connected_at = None
        for k, sp in enumerate(states):
            n = len(chord_meeting_components(sp, ch))
            if n <= 1:
                if connected_at is None:
                    connected_at = k
            elif connected_at is not None:
                bad.append(
                    f"line {ch.line.key} copies {ch.start_pos}..{ch.end_pos}:"
                    f" connected at state {connected_at}, {n} pieces at {k}"
                )
                break
    return bad
