"""Pull-tight engine.

A path is straightened by repeatedly picking a line, lifting it into the
sleeve of the path's homotopy class, and replacing the stretch between
the first and last meeting with one lifted chord by the straight run
along that chord.  A path is done when every lifted chord meets it in a
connected (possibly empty) parameter set; the same test over random
lines doubles as an efficiency certificate.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .domain import PolygonalDomain, Triangulation, triangulate
from .geom import (
    LineSpec,
    Pt,
    dedupe_collinear,
    lerp,
    line_hits_segment,
    line_param,
    line_side,
    on_segment,
    orient,
    rat,
    seg_param,
)
from .homotopy import (
    CrossingWord,
    InvalidPath,
    PathPoly,
    Sleeve,
    SleevePath,
    build_sleeve,
    crossing_word,
    line_lifts,
    word_of,
)


class ChordMismatch(Exception):
    """Replacement parameters do not describe meetings with the chord."""


class NonTerminating(Exception):
    """Internal defect: the pull-tight loop exceeded its budget."""


@dataclass
class Move:
    kind: str  # "spur" or "chord"
    line: Optional[LineSpec]
    verts_after: list
    pos_after: Optional[list]


@dataclass
class CertificateSummary:
    lines_sampled: int
    violations: list
    taut_vertices_ok: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.taut_vertices_ok


@dataclass
class TightenReport:
    """A run's result.  `moves` is its only record: each move keeps the
    path after it, from which readers compute lengths and the like."""

    path: PathPoly
    tri: Triangulation
    sleeve: Sleeve
    spath: SleevePath
    moves: list
    replay_base: tuple
    word_length: int
    wall_time: float


# ---------------------------------------------------------------- meetings


def _copy_window(spath: SleevePath, i: int, j: int):
    """Parameter window of path edge i in sleeve copy j (portal j-1 to j)."""
    win = spath.edge_portal_windows(i)
    lo = win[j - 1][0] if j - 1 >= spath.pos[i] else rat(0)
    hi = win[j][1] if j <= spath.pos[i + 1] - 1 else rat(1)
    return lo, hi


def chord_meeting_components(spath: SleevePath, chord) -> list:
    """Connected components of the path-parameter set meeting one lifted
    chord, as lists of (edge, s_lo, s_hi, copy) records.  Params are
    merged on the global scale g = edge + s; closed intervals that touch
    are one component."""
    line = chord.line
    verts, pos = spath.verts, spath.pos
    recs = []
    for i in range(len(verts) - 1):
        jlo = max(pos[i], chord.start_pos)
        jhi = min(pos[i + 1], chord.end_pos)
        if jlo > jhi:
            continue
        a, b = verts[i], verts[i + 1]
        hit = line_hits_segment(line, a, b)
        if hit is None:
            continue
        if hit[0] == "pt":
            s_pt = seg_param(a, b, hit[1]) if a != b else None
            t_pt = line_param(line, hit[1])
        else:
            t_a = line_param(line, a)
            t_b = line_param(line, b)
        for j in range(jlo, jhi + 1):
            vlo, vhi = _copy_window(spath, i, j)
            if vlo > vhi:
                continue
            lo_t, hi_t = chord.span_at(j)
            if hit[0] == "pt":
                # a pivot edge (a == b) sits at the point over its whole window
                if (s_pt is None or vlo <= s_pt <= vhi) and lo_t <= t_pt <= hi_t:
                    recs.append((i, vlo, vhi, j) if s_pt is None else (i, s_pt, s_pt, j))
                continue
            # whole edge collinear with the line; map t back to s
            tl, th = (t_a, t_b) if t_a <= t_b else (t_b, t_a)
            cl, ch = max(tl, lo_t), min(th, hi_t)
            if cl > ch:
                continue
            if t_b > t_a:
                s0 = (cl - t_a) / (t_b - t_a)
                s1 = (ch - t_a) / (t_b - t_a)
            else:
                s0 = (ch - t_a) / (t_b - t_a)
                s1 = (cl - t_a) / (t_b - t_a)
            s0, s1 = max(s0, vlo), min(s1, vhi)
            if s0 > s1:
                continue
            recs.append((i, s0, s1, j))
    if not recs:
        return []
    recs.sort(key=lambda r: (r[0] + r[1], r[0] + r[2], r[3]))
    comps = [[recs[0]]]
    hi = recs[0][0] + recs[0][2]
    for r in recs[1:]:
        if r[0] + r[1] <= hi:
            comps[-1].append(r)
            hi = max(hi, r[0] + r[2])
        else:
            comps.append([r])
            hi = r[0] + r[2]
    return comps


def _component_ends(comps):
    first, last = comps[0], comps[-1]
    g1 = min(r[0] + r[1] for r in first)
    r1 = min((r for r in first if r[0] + r[1] == g1), key=lambda r: r[3])
    g2 = max(r[0] + r[2] for r in last)
    r2 = max((r for r in last if r[0] + r[2] == g2), key=lambda r: r[3])
    return (r1[0], r1[1], r1[3]), (r2[0], r2[2], r2[3])


def replace_move(spath: SleevePath, chord, m1, m2) -> Optional[SleevePath]:
    """Replace the path between meetings m1 = (edge, s, copy) and m2 by
    the straight run along the chord.  Returns the new path, or None when
    the stretch already is that straight run."""
    i1, s1, j1 = m1[0], rat(m1[1]), m1[2]
    i2, s2, j2 = m2[0], rat(m2[1]), m2[2]
    verts, pos = spath.verts, spath.pos
    line = chord.line
    for i, s, j in ((i1, s1, j1), (i2, s2, j2)):
        if not (0 <= i < len(verts) - 1 and 0 <= s <= 1):
            raise ChordMismatch("meeting parameter outside the path")
        if not (chord.start_pos <= j <= chord.end_pos):
            raise ChordMismatch("meeting copy outside the chord")
        if not (pos[i] <= j <= pos[i + 1]):
            raise ChordMismatch("meeting copy incompatible with the path")
        lo, hi = _copy_window(spath, i, j)
        if not (lo <= s <= hi):
            raise ChordMismatch("meeting parameter outside the copy's window")
    if (i1 + s1, j1) > (i2 + s2, j2):
        raise ChordMismatch("meetings out of order")
    if j1 > j2:
        raise ChordMismatch("chord copies reversed along the path")
    x1 = verts[i1] if verts[i1] == verts[i1 + 1] else lerp(verts[i1], verts[i1 + 1], s1)
    x2 = verts[i2] if verts[i2] == verts[i2 + 1] else lerp(verts[i2], verts[i2 + 1], s2)
    for x, j in ((x1, j1), (x2, j2)):
        if line_side(line, x) != 0:
            raise ChordMismatch("meeting point off the chord's line")
        t = line_param(line, x)
        lo, hi = chord.span_at(j)
        if not (lo <= t <= hi):
            raise ChordMismatch("meeting point outside the chord span")
    mid = verts[i1 + 1 : i2 + 1]
    if all(line_side(line, v) == 0 for v in mid):
        ts = [line_param(line, v) for v in [x1] + mid + [x2]]
        if all(ts[k] <= ts[k + 1] for k in range(len(ts) - 1)) or all(
            ts[k] >= ts[k + 1] for k in range(len(ts) - 1)
        ):
            return None
    new_verts = verts[: i1 + 1] + [x1, x2] + verts[i2 + 1 :]
    new_pos = pos[: i1 + 1] + [j1, j2] + pos[i2 + 1 :]
    cv, cp = [new_verts[0]], [new_pos[0]]
    for v, pz in zip(new_verts[1:], new_pos[1:]):
        if v == cv[-1] and pz == cp[-1]:
            continue
        cv.append(v)
        cp.append(pz)
    if len(cv) == 1:
        cv.append(cv[0])
        cp.append(cp[0])
    return SleevePath(spath.sleeve, cv, cp)


# ---------------------------------------------------------------- sweep


def _line_misses_path(line: LineSpec, verts) -> bool:
    """Every path vertex lies strictly on one side of the line."""
    first = line_side(line, verts[0])
    return first != 0 and all(line_side(line, v) == first for v in verts[1:])


def _family_lines(tri: Triangulation, extra):
    pts = list(dict.fromkeys(list(tri.verts) + list(extra)))
    lines = {}
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            ln = LineSpec.through(pts[i], pts[k])
            lines.setdefault(ln.key, ln)
    return [lines[k] for k in sorted(lines)]


def _random_lines(d: PolygonalDomain, n: int, seed) -> list:
    rng = random.Random(seed)
    x0, y0, x1, y1 = (float(v) for v in d.bbox())
    out = []
    for _ in range(n):
        theta = rng.random() * math.pi
        ax = x0 + rng.random() * (x1 - x0)
        ay = y0 + rng.random() * (y1 - y0)
        out.append(LineSpec.from_angle(theta, Pt(rat(ax), rat(ay))))
    return out


def _sweep(spath, lines, moves, budget):
    """Visit every lifted chord of every line once, replacing the stretch
    between its first and last meeting while it meets the path in more
    than one component.  A connected meeting set stays connected under
    later moves (two straight chords in a developed sleeve cross at most
    once), so no chord needs a second visit."""
    sleeve = spath.sleeve
    for line in lines:
        if _line_misses_path(line, spath.verts):
            continue
        for chord in line_lifts(line, sleeve):
            while len(comps := chord_meeting_components(spath, chord)) > 1:
                m1, m2 = _component_ends(comps)
                new = replace_move(spath, chord, m1, m2)
                if new is None:
                    break
                spath = new
                moves.append(Move("chord", line, list(spath.verts), list(spath.pos)))
                if len(moves) > budget:
                    raise NonTerminating("move budget exceeded")
    return spath


# ------------------------------------------------------- spur preprocessing


def _first_cancelling(letters):
    for i in range(len(letters) - 1):
        if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]:
            return i
    return None


def _snip_spur(word: CrossingWord, i: int) -> PathPoly:
    """Cut the word's path around cancelling crossings i, i+1 and bridge
    the out-and-back stretch with a straight segment inside the triangle
    both sides sit in."""
    recs = word.records
    ra, rb = recs[i], recs[i + 1]
    pts = word.path.vertices
    if i > 0 and recs[i - 1].edge_index == ra.edge_index:
        ea, ta = ra.edge_index, (recs[i - 1].t + ra.t) / 2
    else:
        ea, ta = ra.edge_index, ra.t / 2
    if i + 2 < len(recs) and recs[i + 2].edge_index == rb.edge_index:
        eb, tb = rb.edge_index, (rb.t + recs[i + 2].t) / 2
    else:
        eb, tb = rb.edge_index, rb.t + (1 - rb.t) / 2
    A = lerp(pts[ea], pts[ea + 1], ta)
    B = lerp(pts[eb], pts[eb + 1], tb)
    new = pts[: ea + 1] + ([A] if A == B else [A, B]) + pts[eb + 1 :]
    out = [new[0]]
    for p in new[1:]:
        if p != out[-1]:
            out.append(p)
    if len(out) == 1:
        out.append(out[0])
    return PathPoly(out)


def _remove_spurs(word: CrossingWord, tri: Triangulation, moves=None) -> CrossingWord:
    """Shorten the word's path until its raw crossing word is freely
    reduced."""
    limit = len(word.letters) // 2 + 2
    guard = 0
    while (i := _first_cancelling(word.letters)) is not None:
        guard += 1
        if guard > limit:
            raise NonTerminating("spur removal failed to reduce the word")
        path = _snip_spur(word, i)
        if moves is not None:
            moves.append(Move("spur", None, list(path.vertices), None))
        word = crossing_word(path, tri)
    return word


def _as_sleeve_path(path: PathPoly, d: PolygonalDomain, moves=None):
    """(sleeve, sleeve path) of a valid path: its strict form with the
    spurs removed, positioned by its own crossing records."""
    tri = triangulate(d)
    word = _remove_spurs(word_of(path, tri), tri, moves)
    sleeve = build_sleeve(word, tri)
    edges = [r.edge_index for r in word.records]
    pos = [bisect_left(edges, i) for i in range(len(word.path.vertices))]
    return sleeve, SleevePath(sleeve, list(word.path.vertices), pos)


# ---------------------------------------------------------------- tighten


def tighten(path, domain: PolygonalDomain) -> TightenReport:
    """The taut path homotopic to `path`; certify it with `certify_efficient`."""
    t0 = time.perf_counter()
    p = path if isinstance(path, PathPoly) else PathPoly(path)
    moves: list = []
    # InvalidPath comes from triangulate for an invalid domain, and from
    # word_of for a path that leaves it
    sleeve, spath = _as_sleeve_path(p, domain, moves)
    tri = sleeve.tri
    replay_base = (list(spath.verts), list(spath.pos))

    # every round needs new path vertices, which only moves make, so the
    # move budget also bounds the rounds
    budget = 200 + 10 * (len(sleeve.portals) + len(spath.verts))
    swept: set = set()
    extra = [p.start, p.end]
    # a two-vertex path is a straight segment; no line can meet it in more
    # than one component
    while len(spath.verts) > 2:
        lines = [ln for ln in _family_lines(tri, extra) if ln.key not in swept]
        if not lines:
            break
        swept.update(ln.key for ln in lines)
        spath = _sweep(spath, lines, moves, budget)
        extra = spath.verts

    out_pts = dedupe_collinear(spath.verts)
    if len(out_pts) == 1:
        out_pts = [out_pts[0], out_pts[0]]
    return TightenReport(
        path=PathPoly(out_pts),
        tri=tri,
        sleeve=sleeve,
        spath=spath,
        moves=moves,
        replay_base=replay_base,
        word_length=len(sleeve.portals),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------- funnel


def funnel_shortest(sleeve: Sleeve, p: Pt, q: Pt) -> list:
    """Shortest path from p to q through the sleeve's portals, by the
    classic funnel scan with exact orientation tests.  Independent of the
    pull-tight machinery; used as a cross-check."""
    # a portal through an endpoint constrains nothing, and would put the
    # apex on a funnel side
    portals = sleeve.portal_pts
    i, j = 0, len(portals)
    while i < j and on_segment(p, *portals[i]):
        i += 1
    while j > i and on_segment(q, *portals[j - 1]):
        j -= 1
    ls = [p] + [l for l, r in portals[i:j]] + [q]
    rs = [p] + [r for l, r in portals[i:j]] + [q]
    n = len(ls)
    out = [p]
    apex, ai = p, 0
    lp, li = p, 0
    rp, ri = p, 0
    i = 1
    while i < n:
        nl, nr = ls[i], rs[i]
        if orient(apex, rp, nr) >= 0:
            # new right point narrows the funnel or crosses the left bound
            if apex == rp or orient(apex, lp, nr) < 0:
                rp, ri = nr, i
            else:
                if lp != out[-1]:
                    out.append(lp)
                apex, ai = lp, li
                lp, rp = apex, apex
                li = ri = ai
                i = ai + 1
                continue
        if orient(apex, lp, nl) <= 0:
            if apex == lp or orient(apex, rp, nl) > 0:
                lp, li = nl, i
            else:
                if rp != out[-1]:
                    out.append(rp)
                apex, ai = rp, ri
                lp, rp = apex, apex
                li = ri = ai
                i = ai + 1
                continue
        i += 1
    if out[-1] != q:
        out.append(q)
    out = dedupe_collinear(out)
    if len(out) == 1:
        out = [out[0], out[0]]
    return out


# ------------------------------------------------------------ certificates


def _taut_vertex_violations(pts, d: PolygonalDomain):
    """A bend u -> v -> w is blocked when v is a reflex domain corner whose
    ring neighbours a, b both lie in the closed cone of the turn: then the
    outside of the domain at v fills a wedge inside the turn, and no short
    cut across it stays in the domain."""
    out = []
    corners = {
        v: (ring[i - 1], ring[(i + 1) % len(ring)]) for _, ring in d.rings() for i, v in enumerate(ring)
    }
    for k in range(1, len(pts) - 1):
        u, v, w = pts[k - 1], pts[k], pts[k + 1]
        if orient(u, v, w) == 0:
            continue
        if v not in corners:
            out.append(f"vertex {k} bends away from every domain corner")
            continue
        a, b = corners[v]
        turn = orient(v, u, w)
        in_turn = all(orient(v, u, x) * turn >= 0 and orient(v, x, w) * turn >= 0 for x in (a, b))
        if not (in_turn and orient(a, v, b) < 0):
            out.append(f"vertex {k} admits a local shortcut")
    return out


def certify_efficient(
    path,
    d: PolygonalDomain,
    lines: int = 1000,
    seed=0,
    stop_after: Optional[int] = None,
) -> CertificateSummary:
    """Check the connected-meeting property over the vertex-pair line
    family plus `lines` random lines, and that every bend is a blocked
    domain corner.  The lines are lifted into the sleeve of `path`'s own
    crossing word.  `stop_after` ends the line scan once that many
    violations are recorded; leave it None for a full scan."""
    p = path if isinstance(path, PathPoly) else PathPoly(path)
    sleeve, spath = _as_sleeve_path(p, d)
    fam = _family_lines(sleeve.tri, [p.start, p.end])
    rnd = _random_lines(d, lines, seed)
    seen = set()
    violations = []
    sampled = 0
    for line in fam + rnd:
        if stop_after is not None and len(violations) >= stop_after:
            break
        if line.key in seen:
            continue
        seen.add(line.key)
        sampled += 1
        if _line_misses_path(line, spath.verts):
            continue
        for ci, chord in enumerate(line_lifts(line, sleeve)):
            comps = chord_meeting_components(spath, chord)
            if len(comps) > 1:
                violations.append(
                    f"line {line.key} chord {ci} (copies {chord.start_pos}..{chord.end_pos})"
                    f" meets the path in {len(comps)} pieces"
                )
    canon = dedupe_collinear(p.vertices)
    taut_msgs = _taut_vertex_violations(canon, d)
    return CertificateSummary(
        lines_sampled=sampled,
        violations=violations + taut_msgs,
        taut_vertices_ok=not taut_msgs,
    )
