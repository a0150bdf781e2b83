"""Homotopy bookkeeping over a fixed triangulation.

A path in general position is encoded by its crossing word: the ordered
sequence of (interior edge, direction) transversal crossings.  Reduced
words classify homotopy classes rel endpoints (after a normalization at
endpoints that sit on triangulation vertices), the sleeve of a reduced
word is the chain of triangle copies the class runs through, and lifted
chords are the pieces of a line's preimage inside that sleeve.  Paths
that touch the boundary are compared via a small inward pushoff.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .domain import PolygonalDomain, Triangulation, ValidationReport, locate, triangulate, TriangulationError, validate
from .geom import (
    LineSpec,
    Pt,
    Segment,
    clip_line_to_triangle,
    cross,
    dist2,
    lerp,
    line_side,
    on_segment,
    orient,
    point_in_triangle,
    point_seg_dist2,
    rat,
    seg_param,
    segments_intersect,
)


class NotGeneralPosition(Exception):
    """Path has a vertex on an interior edge or slides along one."""


class EndpointMismatch(Exception):
    pass


class InvalidPath(Exception):
    """Input path or domain fails validation."""


class WordError(Exception):
    """Crossing word inconsistent with the triangulation it claims."""


class PathPoly:
    """Polyline path.  `closure=False` is the strict regime (interior in
    the open domain); `closure=True` marks a class-closure member whose
    interior may touch the boundary."""

    __slots__ = ("vertices", "closure")

    def __init__(self, vertices, closure: bool = False):
        self.vertices = [p if isinstance(p, Pt) else Pt(*p) for p in vertices]
        self.closure = closure

    @property
    def start(self) -> Pt:
        return self.vertices[0]

    @property
    def end(self) -> Pt:
        return self.vertices[-1]

    def is_constant(self) -> bool:
        return all(p == self.vertices[0] for p in self.vertices)

    def __eq__(self, o):
        return (
            isinstance(o, PathPoly)
            and self.vertices == o.vertices
            and self.closure == o.closure
        )

    def __repr__(self):
        return f"PathPoly({len(self.vertices)} verts, closure={self.closure})"


def validate_path(path: PathPoly, d: PolygonalDomain) -> ValidationReport:
    v = []
    pts = path.vertices
    if len(pts) < 2:
        return ValidationReport(False, ["path needs at least 2 vertices"])
    if path.is_constant():
        if len(pts) != 2:
            v.append("constant path must have exactly 2 vertices")
        if locate(d, pts[0]).kind == "exterior":
            v.append("endpoint outside the closed domain")
        return ValidationReport(not v, v)
    for i in range(len(pts) - 1):
        if pts[i] == pts[i + 1]:
            v.append(f"repeated consecutive vertex at index {i}")
            return ValidationReport(False, v)
    for i, p in enumerate(pts):
        kind = locate(d, p).kind
        if i == 0 or i == len(pts) - 1:
            if kind == "exterior":
                v.append("endpoint outside the closed domain")
        elif path.closure:
            if kind == "exterior":
                v.append(f"vertex {i} outside the closed domain")
        elif kind != "interior":
            v.append(f"vertex {i} not in the open domain")
    if v:
        return ValidationReport(False, v)
    last = len(pts) - 2
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        events = []
        bad = None
        for rid, ring in d.rings():
            n = len(ring)
            for j in range(n):
                c, e = ring[j], ring[(j + 1) % n]
                kind, data = segments_intersect(Segment(a, b), Segment(c, e))
                if kind == "disjoint":
                    continue
                if kind == "proper":
                    bad = f"edge {i} crosses the boundary"
                    break
                if kind == "touch":
                    if not path.closure:
                        endpoint_touch = (i == 0 and data == a and data == pts[0]) or (
                            i == last and data == b and data == pts[-1]
                        )
                        if not endpoint_touch:
                            bad = f"edge {i} touches the boundary"
                            break
                    events.append(seg_param(a, b, data))
                elif kind == "overlap":
                    if not path.closure:
                        bad = f"edge {i} runs along the boundary"
                        break
                    events.append(seg_param(a, b, data.a))
                    events.append(seg_param(a, b, data.b))
            if bad:
                break
        if bad:
            v.append(bad)
            continue
        cuts = sorted(set([rat(0), rat(1)] + events))
        for k in range(len(cuts) - 1):
            if cuts[k] == cuts[k + 1]:
                continue
            mid = lerp(a, b, (cuts[k] + cuts[k + 1]) / 2)
            kind = locate(d, mid).kind
            if path.closure:
                if kind == "exterior":
                    v.append(f"edge {i} leaves the closed domain")
                    break
            elif kind != "interior":
                v.append(f"edge {i} leaves the open domain")
                break
    return ValidationReport(not v, v)


@dataclass(frozen=True)
class Crossing:
    edge_index: int  # path edge
    t: object  # exact param within that edge
    eid: int  # interior edge id
    sign: int  # side of the directed interior edge the path came from
    point: Pt


class CrossingWord:
    """Sequence of (interior edge id, direction) crossings in path order,
    plus the triangle the path starts in."""

    __slots__ = ("letters", "start_tri", "end_tri", "records")

    def __init__(self, letters, start_tri, end_tri, records=None):
        self.letters = tuple(letters)
        self.start_tri = start_tri
        self.end_tri = end_tri
        self.records = records

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"CrossingWord(start={self.start_tri}, letters={list(self.letters)})"


def _tri_side(tri: Triangulation, key, ti) -> int:
    u, v = tri.edge_pts(key)
    w = next(x for x in tri.tris[ti] if x not in key)
    return orient(u, v, tri.verts[w])


def _stub_tri(tri: Triangulation, p: Pt):
    """Triangle a path hanging at p starts in; smallest fan member when p
    is a triangulation vertex."""
    t = tri.open_tri_containing(p)
    if t is not None:
        return t
    for vi, q in enumerate(tri.verts):
        if p == q:
            return min(ti for ti, tpl in enumerate(tri.tris) if vi in tpl)
    for key, owners in tri.edge_tris.items():
        a, b = tri.edge_pts(key)
        if on_segment(p, a, b):
            if len(owners) == 1:
                return owners[0]
            raise NotGeneralPosition("path endpoint on an interior edge")
    raise NotGeneralPosition("point not inside the triangulated closure")


def crossing_word(path: PathPoly, tri: Triangulation) -> CrossingWord:
    """Raw crossing word of a strict-regime path in general position."""
    pts = path.vertices
    records = []
    interior = tri.interior_edges
    epts = [tri.edge_pts(k) for k in interior]
    last_edge = len(pts) - 2
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        local = []
        for eid, (u, v) in enumerate(epts):
            kind, data = segments_intersect(Segment(a, b), Segment(u, v))
            if kind == "disjoint":
                continue
            if kind == "proper":
                side = orient(u, v, a)
                local.append(Crossing(i, seg_param(a, b, data), eid, side, data))
            elif kind == "touch":
                at_start = i == 0 and data == pts[0] and (data == u or data == v)
                at_end = i == last_edge and data == pts[-1] and (data == u or data == v)
                if not (at_start or at_end):
                    raise NotGeneralPosition(
                        "path vertex on an interior edge or crossing through a vertex"
                    )
            else:
                raise NotGeneralPosition("path slides along an interior edge")
        local.sort(key=lambda c: c.t)
        for k in range(len(local) - 1):
            if local[k].t == local[k + 1].t:
                raise NotGeneralPosition("simultaneous interior-edge crossings")
        records.extend(local)
    if path.is_constant() or not records:
        start = _stub_tri(tri, pts[0])
        return CrossingWord([], start, start, records=[])
    first = records[0]
    a, b = pts[first.edge_index], pts[first.edge_index + 1]
    stub_mid = lerp(a, b, first.t / 2) if first.edge_index == 0 else lerp(pts[0], pts[1], rat(1) / 2)
    start = tri.open_tri_containing(stub_mid)
    if start is None:
        raise NotGeneralPosition("cannot place the initial stub in an open triangle")
    letters = [(c.eid, c.sign) for c in records]
    end = walk_triangles(tri, start, letters)[-1]
    return CrossingWord(letters, start, end, records=records)


def reduce_word(letters):
    """Free reduction: cancel adjacent crossings of one edge in opposite
    directions.

    >>> reduce_word([(3, 1), (3, -1), (2, 1)])
    ((2, 1),)
    >>> reduce_word([(0, 1), (1, 1), (1, -1), (0, -1)])
    ()
    """
    out = []
    for eid, sign in letters:
        if out and out[-1][0] == eid and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((eid, sign))
    return tuple(out)


def walk_triangles(tri: Triangulation, start_tri: int, letters):
    """Triangle ids visited by a word; validates each step."""
    seq = [start_tri]
    cur = start_tri
    for eid, sign in letters:
        key = tri.interior_edges[eid]
        owners = tri.edge_tris[key]
        if cur not in owners:
            raise WordError(f"crossing of edge {key} from a non-incident triangle")
        if _tri_side(tri, key, cur) != sign:
            raise WordError(f"crossing of edge {key} from the wrong side")
        cur = owners[0] if owners[1] == cur else owners[1]
        seq.append(cur)
    return seq


def _fan(tri: Triangulation, vi: int):
    """Star of a (boundary) triangulation vertex as an ordered chain of
    triangles and the interior edges joining them."""
    tris_at = [t for t, tpl in enumerate(tri.tris) if vi in tpl]
    if len(tris_at) == 1:
        return tris_at, []
    adj = {t: [] for t in tris_at}
    for key in tri.interior_edges:
        if vi not in key:
            continue
        o = tri.edge_tris[key]
        adj[o[0]].append((key, o[1]))
        adj[o[1]].append((key, o[0]))
    ends = sorted(t for t in tris_at if len(adj[t]) == 1)
    if not ends:
        raise WordError("vertex star is not a chain")
    chain = [ends[0]]
    keys = []
    prev = None
    while True:
        nxt = None
        for key, other in adj[chain[-1]]:
            if other != prev:
                nxt = (key, other)
                break
        if nxt is None:
            break
        prev = chain[-1]
        keys.append(nxt[0])
        chain.append(nxt[1])
    if len(chain) != len(tris_at):
        raise WordError("vertex star is not a single chain")
    return chain, keys


def _fan_walk_letters(tri, chain, keys, i, j):
    """Letters of the fan walk from chain[i] to chain[j]."""
    out = []
    if i <= j:
        for t in range(i, j):
            out.append((tri.edge_id[keys[t]], _tri_side(tri, keys[t], chain[t])))
    else:
        for t in range(i, j, -1):
            out.append((tri.edge_id[keys[t - 1]], _tri_side(tri, keys[t - 1], chain[t])))
    return out


def canonical_class_key(word: CrossingWord, tri: Triangulation, p: Pt, q: Pt):
    """Reduced word normalized at endpoints that are triangulation
    vertices, so the key depends only on the homotopy class."""
    letters = list(word.letters)
    start = word.start_tri
    vi = next((k for k, v in enumerate(tri.verts) if v == p), None)
    if vi is not None:
        chain, keys = _fan(tri, vi)
        s = chain.index(start)
        letters = _fan_walk_letters(tri, chain, keys, 0, s) + letters
        start = chain[0]
    end = walk_triangles(tri, start, letters)[-1]
    qi = next((k for k, v in enumerate(tri.verts) if v == q), None)
    if qi is not None:
        chain, keys = _fan(tri, qi)
        e = chain.index(end)
        letters = letters + _fan_walk_letters(tri, chain, keys, e, 0)
    return (start, reduce_word(letters))


def _is_strict(path: PathPoly, d: PolygonalDomain) -> bool:
    """True when the path lies in the open domain, False when it touches
    the boundary.  Raises InvalidPath when it leaves the closed domain."""
    if validate_path(PathPoly(path.vertices, closure=False), d).ok:
        return True
    rep = validate_path(PathPoly(path.vertices, closure=True), d)
    if not rep.ok:
        raise InvalidPath("path: " + "; ".join(rep.violations))
    return False


def _strict_form(path: PathPoly, d: PolygonalDomain, tri: Triangulation, strict: bool):
    """(strict form, raw crossing word): the path itself when `strict`
    (see `_is_strict`), else its pushoff."""
    if strict:
        form = PathPoly(path.vertices, closure=False)
        return form, crossing_word(form, tri)
    return _pushoff_word(path, d, tri)


def word_of(path: PathPoly, tri: Triangulation) -> CrossingWord:
    """Crossing word of a path; closure members are pushed inward first."""
    return _strict_form(path, tri.domain, tri, _is_strict(path, tri.domain))[1]


def homotopic(p1: PathPoly, p2: PathPoly, tri: Triangulation) -> bool:
    if p1.start != p2.start or p1.end != p2.end:
        raise EndpointMismatch("paths join different endpoint pairs")
    w1 = word_of(p1, tri)
    w2 = word_of(p2, tri)
    k1 = canonical_class_key(w1, tri, p1.start, p1.end)
    k2 = canonical_class_key(w2, tri, p2.start, p2.end)
    return k1 == k2


def general_position_triangulation(d: PolygonalDomain, paths):
    """(tri, strict forms, raw words) for the first of three bridging/ear
    seeds under which every path's strict form (see `word_of`) has a
    crossing word.  This is the one place that retries triangulation
    seeds.  An invalid domain, or a path that leaves the closed domain,
    raises InvalidPath before any seed is tried."""
    rep = validate(d)
    if not rep.ok:
        raise InvalidPath("domain: " + "; ".join(rep.violations))
    regimes = [_is_strict(p, d) for p in paths]
    err = None
    for seed in range(3):
        try:
            tri = triangulate(d, seed=seed)
            forms = [_strict_form(p, d, tri, s) for p, s in zip(paths, regimes)]
        except (TriangulationError, NotGeneralPosition) as e:
            err = e
            continue
        return tri, [f for f, _ in forms], [w for _, w in forms]
    raise NotGeneralPosition(f"no general-position triangulation in 3 tries: {err}")


class Sleeve:
    """Chain of triangle copies a homotopy class runs through.  Portal k
    joins copies k and k+1; portal endpoints are ordered (left, right) as
    seen walking the sleeve forward."""

    __slots__ = ("tri", "tri_seq", "portals", "portal_pts", "copy_index")

    def __init__(self, tri: Triangulation, tri_seq, portals):
        self.tri = tri
        self.tri_seq = list(tri_seq)
        self.portals = list(portals)
        seen = {}
        self.copy_index = []
        for t in self.tri_seq:
            seen[t] = seen.get(t, -1) + 1
            self.copy_index.append(seen[t])
        self.portal_pts = []
        for k, key in enumerate(self.portals):
            nxt = self.tri_seq[k + 1]
            u, v = tri.edge_pts(key)
            w = next(x for x in tri.tris[nxt] if x not in key)
            if orient(u, v, tri.verts[w]) > 0:
                self.portal_pts.append((u, v))
            else:
                self.portal_pts.append((v, u))

    def __len__(self):
        return len(self.tri_seq)

    def tri_pts(self, pos):
        return self.tri.tri_pts(self.tri_seq[pos])

    def __repr__(self):
        return f"Sleeve({len(self.tri_seq)} copies)"


def build_sleeve(word: CrossingWord, tri: Triangulation) -> Sleeve:
    letters = reduce_word(word.letters)
    seq = walk_triangles(tri, word.start_tri, letters)
    portals = [tri.interior_edges[eid] for eid, _ in letters]
    return Sleeve(tri, seq, portals)


class LiftedChord:
    """One maximal connected piece of a line's preimage inside a sleeve.

    `span_at(pos)` is the closed line-parameter interval the piece occupies
    in sleeve copy `pos`; consecutive spans share the parameter of the
    portal they cross.  A span is clipped when it is first asked for.
    """

    __slots__ = ("line", "sleeve", "start_pos", "end_pos", "_spans")

    def __init__(self, line: LineSpec, sleeve: Sleeve, start_pos: int, end_pos: int):
        self.line = line
        self.sleeve = sleeve
        self.start_pos = start_pos
        self.end_pos = end_pos
        self._spans = {}

    def span_at(self, pos):
        got = self._spans.get(pos)
        if got is None:
            got = self._spans[pos] = clip_line_to_triangle(self.line, self.sleeve.tri_pts(pos))
        return got

    def __repr__(self):
        return f"LiftedChord(pos {self.start_pos}..{self.end_pos})"


def _line_meets(line: LineSpec, a: Pt, b: Pt) -> bool:
    """The line meets the closed segment [a, b]."""
    return line_side(line, a) * line_side(line, b) <= 0


def line_lifts(line: LineSpec, sleeve: Sleeve):
    """All maximal connected pieces of the line's preimage in the sleeve."""
    n = len(sleeve.tri_seq)
    hits = []
    for j in range(n):
        s0, s1, s2 = (line_side(line, v) for v in sleeve.tri_pts(j))
        hits.append(not (s0 == s1 == s2 != 0))
    out = []
    j = 0
    while j < n:
        if not hits[j]:
            j += 1
            continue
        start = j
        while j + 1 < n and hits[j + 1] and _line_meets(line, *sleeve.portal_pts[j]):
            j += 1
        out.append(LiftedChord(line, sleeve, start, j))
        j += 1
    return out


class SleevePath:
    """Path in sleeve coordinates: vertex i sits in sleeve copy pos[i];
    the edge to vertex i+1 crosses portals pos[i] .. pos[i+1]-1 in order."""

    __slots__ = ("sleeve", "verts", "pos", "_win")

    def __init__(self, sleeve: Sleeve, verts, pos):
        self.sleeve = sleeve
        self.verts = list(verts)
        self.pos = list(pos)
        self._win: dict = {}

    def edge_portal_windows(self, i):
        """For edge i, the closed parameter window [inf, sup] of its
        contact with each crossed portal, keyed by portal index.
        Memoized; verts and pos must not change after construction."""
        got = self._win.get(i)
        if got is not None:
            return got
        a, b = self.verts[i], self.verts[i + 1]
        out = {}
        if a == b:
            # zero-length edge pivoting at a point: every crossed portal
            # must contain the point, for the whole (degenerate) range
            for k in range(self.pos[i], self.pos[i + 1]):
                l, r = self.sleeve.portal_pts[k]
                if not on_segment(a, l, r):
                    raise WordError("pivot point off a portal it must cross")
                out[k] = (rat(0), rat(1))
            self._win[i] = out
            return out
        for k in range(self.pos[i], self.pos[i + 1]):
            l, r = self.sleeve.portal_pts[k]
            kind, data = segments_intersect(Segment(a, b), Segment(l, r))
            if kind == "disjoint":
                raise WordError("sleeve path edge misses a portal it must cross")
            if kind == "overlap":
                t0 = seg_param(a, b, data.a)
                t1 = seg_param(a, b, data.b)
                out[k] = (min(t0, t1), max(t0, t1))
            else:
                t = seg_param(a, b, data)
                out[k] = (t, t)
        self._win[i] = out
        return out

    def __repr__(self):
        return f"SleevePath({len(self.verts)} verts over {len(self.sleeve)} copies)"


def _left_normal(a: Pt, b: Pt) -> Pt:
    d = b - a
    m = max(abs(d.x), abs(d.y))
    return Pt(-d.y / m, d.x / m)


def _inf_normalize(v: Pt) -> Pt:
    m = max(abs(v.x), abs(v.y))
    if m == 0:
        return v
    return Pt(v.x / m, v.y / m)


def boundary_contact_params(path: PathPoly, d: PolygonalDomain):
    """Per path edge, the sorted exact params where it meets the boundary."""
    out = []
    for i in range(len(path.vertices) - 1):
        a, b = path.vertices[i], path.vertices[i + 1]
        ts = set()
        for rid, ring in d.rings():
            n = len(ring)
            for j in range(n):
                c, e = ring[j], ring[(j + 1) % n]
                kind, data = segments_intersect(Segment(a, b), Segment(c, e))
                if kind == "touch":
                    ts.add(seg_param(a, b, data))
                elif kind == "overlap":
                    ts.add(seg_param(a, b, data.a))
                    ts.add(seg_param(a, b, data.b))
        out.append(sorted(t for t in ts if 0 < t < 1))
    return out


def _inward_candidates(d: PolygonalDomain, loc):
    ring = d.ring(loc.ring)
    n = len(ring)
    if loc.feature == "edge":
        return [_left_normal(ring[loc.index], ring[(loc.index + 1) % n])]
    i = loc.index
    n1 = _left_normal(ring[(i - 1) % n], ring[i])
    n2 = _left_normal(ring[i], ring[(i + 1) % n])
    cands = []
    # asymmetric mixes cover corners where the straight bisector or either
    # plain normal is blocked
    for a, b in ((1, 1), (2, 1), (1, 2), (1, 0), (0, 1), (3, 1), (1, 3)):
        s = n1.scaled(rat(a)) + n2.scaled(rat(b))
        if s.x == 0 and s.y == 0:
            continue
        s = _inf_normalize(s)
        if s not in cands:
            cands.append(s)
    return cands


def _inward_directions(d: PolygonalDomain, p: Pt, loc, probe):
    # reflex corners can defeat the bisector; probe a tiny step and fall
    # back to the edge normals
    cands = _inward_candidates(d, loc)
    out = []
    for c in cands + [c.scaled(rat(-1)) for c in cands]:
        if c not in out and locate(d, p + c.scaled(probe)).kind == "interior":
            out.append(c)
    if not out:
        raise NotGeneralPosition("no inward direction found at a boundary contact")
    return out


def _lines_through(d: PolygonalDomain, p: Pt, tri: Optional[Triangulation]):
    """Directions of all boundary and interior-edge lines containing p."""
    out = []
    for _, ring in d.rings():
        n = len(ring)
        for j in range(n):
            a, b = ring[j], ring[(j + 1) % n]
            if orient(a, b, p) == 0:
                out.append(b - a)
    if tri is not None:
        for ia, ib in tri.interior_edges:
            a, b = tri.verts[ia], tri.verts[ib]
            if orient(a, b, p) == 0:
                out.append(b - a)
    return out


def _clearance2(path: PathPoly, d: PolygonalDomain):
    """Smallest positive squared distance between path edges and boundary
    edges that do not touch each other."""
    best = None
    for i in range(len(path.vertices) - 1):
        a, b = path.vertices[i], path.vertices[i + 1]
        for rid, ring in d.rings():
            n = len(ring)
            for j in range(n):
                c, e = ring[j], ring[(j + 1) % n]
                if segments_intersect(Segment(a, b), Segment(c, e))[0] != "disjoint":
                    continue
                m = min(
                    point_seg_dist2(a, c, e),
                    point_seg_dist2(b, c, e),
                    point_seg_dist2(c, a, b),
                    point_seg_dist2(e, a, b),
                )
                if best is None or m < best:
                    best = m
    return best


def pushoff(path: PathPoly, d: PolygonalDomain, tri: Optional[Triangulation] = None) -> PathPoly:
    """Strict-regime representative of a closure path: every boundary
    contact becomes a vertex nudged into the open domain.

    The nudge is smaller than half the domain feature size and half the
    path's clearance off the boundary, which keeps the result in the same
    class closure.  When `tri` is given the result is retried until it is
    in general position for it.
    """
    return _pushoff_word(path, d, tri)[0]


def _with_contacts(path: PathPoly, d: PolygonalDomain) -> list:
    """The path's vertices with every boundary contact inserted; pushoff
    moves these points index by index."""
    pts = [path.vertices[0]]
    contacts = boundary_contact_params(path, d)
    for i in range(len(path.vertices) - 1):
        a, b = path.vertices[i], path.vertices[i + 1]
        for t in contacts[i]:
            p = lerp(a, b, t)
            if p != pts[-1]:
                pts.append(p)
        if b != pts[-1]:
            pts.append(b)
    return pts


def _pushoff_word(path: PathPoly, d: PolygonalDomain, tri: Optional[Triangulation] = None):
    """(pushed strict path, its raw crossing word under `tri`, or None
    without one)."""
    pts = _with_contacts(path, d)
    fs = float(d.feature_size2())
    cl = _clearance2(path, d)
    eps_f = math.sqrt(fs) / 4
    if cl is not None:
        eps_f = min(eps_f, math.sqrt(float(cl)) / 4)
    eps = rat(1)
    while eps > rat(eps_f):
        eps = eps / 2
    probe = eps / 2**18
    pools = []
    for i, p in enumerate(pts):
        if i == 0 or i == len(pts) - 1:
            pools.append(None)
            continue
        loc = locate(d, p)
        if loc.kind != "boundary":
            pools.append(None)
            continue
        dirs = _inward_directions(d, p, loc, probe)
        # a direction parallel to any edge line through the vertex keeps
        # the pushed vertex on that line at every scale; drop those
        blocked = _lines_through(d, p, tri)
        keep = [c for c in dirs if all(cross(c, bd) != 0 for bd in blocked)]
        pools.append(keep or dirs)
    # a pushed vertex can land exactly on a triangulation edge's line, so
    # later attempts vary the direction choice, not just the step size
    for attempt in range(14):
        scale = eps / 2 ** (attempt + 1)
        rnd = random.Random(attempt)
        moved = []
        for p, pool in zip(pts, pools):
            if pool is None:
                moved.append(p)
            else:
                dr = pool[0] if attempt == 0 else pool[rnd.randrange(len(pool))]
                moved.append(p + dr.scaled(scale))
        cand = PathPoly(moved, closure=False)
        if not validate_path(cand, d).ok:
            continue
        word = None
        if tri is not None:
            try:
                word = crossing_word(cand, tri)
            except NotGeneralPosition:
                continue
        return cand, word
    raise NotGeneralPosition("pushoff failed to find a strict representative")
