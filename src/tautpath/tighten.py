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
from dataclasses import dataclass
from typing import Optional

from .domain import PolygonalDomain, Triangulation
from .geom import (
    LineSpec,
    Pt,
    Segment,
    dedupe_collinear,
    dist2,
    lerp,
    line_hits_segment,
    line_param,
    line_side,
    on_segment,
    orient,
    point_in_triangle,
    polyline_length,
    rat,
    seg_param,
    segments_intersect,
)
from .homotopy import (
    CrossingWord,
    InvalidPath,
    PathPoly,
    Sleeve,
    SleevePath,
    WordError,
    build_sleeve,
    crossing_word,
    general_position_triangulation,
    line_lifts,
    validate_path,
)
from .homotopy import _is_strict, _strict_form, _with_contacts


class ChordMismatch(Exception):
    """Replacement parameters do not describe meetings with the chord."""


class NonTerminating(Exception):
    """Internal defect: the pull-tight loop exceeded its budget."""


@dataclass
class TightenOptions:
    certify_lines: int = 0
    seed: int = 0  # seeds the certificate's random lines


@dataclass
class Move:
    kind: str  # "spur" or "chord"
    line: Optional[LineSpec]
    chord_index: int
    m1: Optional[tuple]
    m2: Optional[tuple]
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
    path: PathPoly
    tri: Triangulation
    sleeve: Sleeve
    spath: SleevePath
    moves: list
    length_trace: list
    certificate: Optional[CertificateSummary]
    replay_base: tuple
    word_length: int
    wall_time: float


# ---------------------------------------------------------------- meetings


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
        win = spath.edge_portal_windows(i)
        if hit[0] == "pt":
            s_pt = seg_param(a, b, hit[1]) if a != b else rat(0)
            t_pt = line_param(line, hit[1])
        else:
            t_a = line_param(line, a)
            t_b = line_param(line, b)
        for j in range(jlo, jhi + 1):
            vlo = win[j - 1][0] if j - 1 >= pos[i] else rat(0)
            vhi = win[j][1] if j <= pos[i + 1] - 1 else rat(1)
            if vlo > vhi:
                continue
            lo_t, hi_t = chord.span_at(j)
            if hit[0] == "pt":
                if vlo <= s_pt <= vhi and lo_t <= t_pt <= hi_t:
                    recs.append((i, s_pt, s_pt, j))
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


def _copy_valid(spath, i, s, j):
    win = spath.edge_portal_windows(i)
    vlo = win[j - 1][0] if j - 1 >= spath.pos[i] else rat(0)
    vhi = win[j][1] if j <= spath.pos[i + 1] - 1 else rat(1)
    return vlo <= s <= vhi


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
        if not _copy_valid(spath, i, s, j):
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
    pts = []
    seen = set()
    for p in list(tri.verts) + list(extra):
        if p not in seen:
            seen.add(p)
            pts.append(p)
    lines = {}
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            ln = LineSpec.through(pts[i], pts[k])
            lines.setdefault(ln.key, ln)
    return [lines[k] for k in sorted(lines)]


def _random_lines(d: PolygonalDomain, n: int, seed) -> list:
    rng = random.Random(seed)
    x0, y0, x1, y1 = d.bbox()
    x0, y0, x1, y1 = float(x0), float(y0), float(x1), float(y1)
    out = []
    for _ in range(n):
        theta = rng.random() * math.pi
        ax = x0 + rng.random() * (x1 - x0)
        ay = y0 + rng.random() * (y1 - y0)
        out.append(LineSpec.from_angle(theta, Pt(rat(ax), rat(ay))))
    return out


def _sweep(spath, lines, moves, trace, budget):
    """Visit every lifted chord of every line once, replacing the stretch
    between its first and last meeting while it meets the path in more
    than one component.  A connected meeting set stays connected under
    later moves (two straight chords in a developed sleeve cross at most
    once), so no chord needs a second visit."""
    sleeve = spath.sleeve
    for line in lines:
        if _line_misses_path(line, spath.verts):
            continue
        for ci, chord in enumerate(line_lifts(line, sleeve)):
            while len(comps := chord_meeting_components(spath, chord)) > 1:
                m1, m2 = _component_ends(comps)
                new = replace_move(spath, chord, m1, m2)
                if new is None:
                    break
                spath = new
                trace.append(polyline_length(spath.verts))
                moves.append(Move("chord", line, ci, m1, m2, list(spath.verts), list(spath.pos)))
                if len(moves) > budget:
                    raise NonTerminating("move budget exceeded")
    return spath


# ------------------------------------------------------- spur preprocessing


def _first_cancelling(letters):
    for i in range(len(letters) - 1):
        if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]:
            return i
    return None


def _snip_spur(path: PathPoly, word: CrossingWord, i: int) -> PathPoly:
    """Cut the out-and-back stretch around cancelling crossings i, i+1 and
    bridge it with a straight segment inside the triangle both sides sit
    in."""
    recs = word.records
    ra, rb = recs[i], recs[i + 1]
    pts = path.vertices
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
    return PathPoly(out, closure=False)


def _remove_spurs(path: PathPoly, word: CrossingWord, tri: Triangulation, moves=None, trace=None):
    """Shorten the path, whose raw crossing word is `word`, until that word
    is freely reduced."""
    limit = len(word.letters) // 2 + 2
    guard = 0
    while (i := _first_cancelling(word.letters)) is not None:
        guard += 1
        if guard > limit:
            raise NonTerminating("spur removal failed to reduce the word")
        path = _snip_spur(path, word, i)
        if moves is not None:
            moves.append(Move("spur", None, -1, None, None, list(path.vertices), None))
        if trace is not None:
            trace.append(polyline_length(path.vertices))
        word = crossing_word(path, tri)
    return path, word


def _positions_from_records(word: CrossingWord, nverts: int):
    recs = word.records or []
    pos = []
    k = 0
    for i in range(nverts):
        while k < len(recs) and recs[k].edge_index < i:
            k += 1
        pos.append(k)
    return pos


# ---------------------------------------------------------------- tighten


def tighten(path, domain: PolygonalDomain, options: Optional[TightenOptions] = None) -> TightenReport:
    t0 = time.perf_counter()
    opt = options or TightenOptions()
    p = path if isinstance(path, PathPoly) else PathPoly(path)
    # the chooser raises InvalidPath for an invalid domain or a path that
    # leaves it
    tri, (strict_p,), (word,) = general_position_triangulation(domain, [p])

    moves: list = []
    trace = [polyline_length(strict_p.vertices)]
    strict_p, word = _remove_spurs(strict_p, word, tri, moves, trace)
    sleeve = build_sleeve(word, tri)
    pos = _positions_from_records(word, len(strict_p.vertices))
    spath = SleevePath(sleeve, list(strict_p.vertices), pos)
    replay_base = (list(spath.verts), list(spath.pos))

    # every round needs new path vertices, which only moves make, so the
    # move budget also bounds the rounds
    budget = 200 + 10 * (len(word.letters) + len(spath.verts))
    swept: set = set()
    extra = [p.start, p.end]
    # a two-vertex path is a straight segment; no line can meet it in more
    # than one component
    while len(spath.verts) > 2:
        lines = [ln for ln in _family_lines(tri, extra) if ln.key not in swept]
        if not lines:
            break
        swept.update(ln.key for ln in lines)
        spath = _sweep(spath, lines, moves, trace, budget)
        extra = spath.verts

    out_pts = dedupe_collinear(spath.verts)
    if len(out_pts) == 1:
        out_pts = [out_pts[0], out_pts[0]]
    out = PathPoly(out_pts, closure=True)
    cert = None
    if opt.certify_lines:
        cert = certify_efficient(
            out, domain, tri=tri, lines=opt.certify_lines, seed=opt.seed, _pre=(sleeve, spath)
        )
    return TightenReport(
        path=out,
        tri=tri,
        sleeve=sleeve,
        spath=spath,
        moves=moves,
        length_trace=trace,
        certificate=cert,
        replay_base=replay_base,
        word_length=len(word.letters),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------- funnel


def funnel_shortest(sleeve: Sleeve, p: Pt, q: Pt) -> list:
    """Shortest path from p to q through the sleeve's portals, by the
    classic funnel scan with exact orientation tests.  Independent of the
    pull-tight machinery; used as a cross-check."""
    ls = [p] + [l for l, r in sleeve.portal_pts] + [q]
    rs = [p] + [r for l, r in sleeve.portal_pts] + [q]
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


def _position_closure_path(pts, sleeve: Sleeve):
    """Greedy-minimal sleeve positions for a path that may run along the
    boundary.  Returns None when the walk cannot be matched."""
    K = len(sleeve.portals)
    pos = [0]
    j = 0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        while j <= K and not point_in_triangle(b, *sleeve.tri_pts(j)):
            if j == K:
                return None
            l, r = sleeve.portal_pts[j]
            if segments_intersect(Segment(a, b), Segment(l, r))[0] == "disjoint":
                return None
            j += 1
        pos.append(j)
    # the walk must end in the last copy; lift through portals that
    # contain the endpoint if need be
    while pos[-1] < K:
        l, r = sleeve.portal_pts[pos[-1]]
        if not on_segment(pts[-1], l, r):
            return None
        pos[-1] += 1
    return pos


def _as_sleeve_path(path: PathPoly, d: PolygonalDomain, tri: Optional[Triangulation] = None):
    """(sleeve, sleeve path) for an arbitrary valid path, rebuilding the
    class data from scratch."""
    if tri is None:
        tri, (strict_p,), (word,) = general_position_triangulation(d, [path])
    else:
        strict_p, word = _strict_form(path, d, tri, _is_strict(path, d))
    # prefer the path as given, with its boundary contacts as vertices; the
    # strict form differs from the given path exactly when it was pushed off
    real = list(path.vertices) if strict_p.vertices == path.vertices else _with_contacts(path, d)
    strict_p, word = _remove_spurs(strict_p, word, tri)
    sleeve = build_sleeve(word, tri)
    if len(real) >= 2:
        rpos = _position_closure_path(real, sleeve)
        if rpos is not None:
            sp = SleevePath(sleeve, real, rpos)
            try:
                for i in range(len(sp.verts) - 1):
                    sp.edge_portal_windows(i)
                return sleeve, sp
            except WordError:
                pass
    pos = _positions_from_records(word, len(strict_p.vertices))
    return sleeve, SleevePath(sleeve, list(strict_p.vertices), pos)


def _taut_vertex_violations(pts, d: PolygonalDomain):
    out = []
    dverts = set(d.verts)
    fs = float(d.feature_size2())
    for k in range(1, len(pts) - 1):
        u, v, w = pts[k - 1], pts[k], pts[k + 1]
        if orient(u, v, w) == 0:
            continue
        if v not in dverts:
            out.append(f"vertex {k} bends away from every domain corner")
            continue
        tu = rat(1) / 4
        g = 0
        while float(dist2(lerp(v, u, tu), v)) > fs / 64 and g < 80:
            tu /= 2
            g += 1
        tw = rat(1) / 4
        g = 0
        while float(dist2(lerp(v, w, tw), v)) > fs / 64 and g < 80:
            tw /= 2
            g += 1
        short = PathPoly([lerp(v, u, tu), lerp(v, w, tw)], closure=True)
        if validate_path(short, d).ok:
            out.append(f"vertex {k} admits a local shortcut")
    return out


def certify_efficient(
    path,
    d: PolygonalDomain,
    tri: Optional[Triangulation] = None,
    lines: int = 1000,
    seed=0,
    stop_after: Optional[int] = None,
    _pre=None,
) -> CertificateSummary:
    """Check the connected-meeting property over the vertex-pair line
    family plus `lines` random lines, and that every bend is a blocked
    domain corner.  `stop_after` ends the line scan once that many
    violations are recorded; leave it None for a full scan."""
    p = path if isinstance(path, PathPoly) else PathPoly(path, closure=True)
    if _pre is not None:
        sleeve, spath = _pre
    else:
        sleeve, spath = _as_sleeve_path(p, d, tri)
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


def locally_shortest_check(
    path,
    d: PolygonalDomain,
    grid: int = 8,
    tol: float = 1e-9,
    tri: Optional[Triangulation] = None,
) -> bool:
    """True when every grid subpath is as short as the funnel optimum
    between its endpoints in the sub-sleeve."""
    p = path if isinstance(path, PathPoly) else PathPoly(path, closure=True)
    sleeve, spath = _as_sleeve_path(p, d, tri)
    E = len(spath.verts) - 1
    if E == 0:
        return True
    cuts = []
    for k in range(grid + 1):
        g = rat(E) * k / grid
        i = min(int(g), E - 1)
        s = g - i
        x = lerp(spath.verts[i], spath.verts[i + 1], s) if spath.verts[i] != spath.verts[i + 1] else spath.verts[i]
        win = spath.edge_portal_windows(i)
        j = spath.pos[i + 1]
        for kk in range(spath.pos[i], spath.pos[i + 1]):
            if win[kk][1] >= s:
                j = kk
                break
        cuts.append((i, s, x, j))
    for a in range(len(cuts)):
        for b in range(a + 1, len(cuts)):
            ia, sa, xa, ja = cuts[a]
            ib, sb, xb, jb = cuts[b]
            if (ia, sa) >= (ib, sb):
                continue
            sub = [xa] + spath.verts[ia + 1 : ib + 1] + [xb]
            direct = polyline_length(sub)
            slice_sleeve = Sleeve(
                sleeve.tri,
                sleeve.tri_seq[ja : jb + 1],
                sleeve.portals[ja:jb],
            )
            best = polyline_length(funnel_shortest(slice_sleeve, xa, xb))
            if direct - best > tol:
                return False
    return True
