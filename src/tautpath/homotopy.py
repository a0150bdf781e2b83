"""Homotopy bookkeeping over a fixed triangulation.

A path is valid when it lies in the closed domain.  A valid path is
encoded by its crossing word: the ordered sequence of (interior edge,
direction) transversal crossings, read in one walk along the path through
the triangulation, with degenerate positions decided by an infinitesimal
shift.  The walk is also the one check of validity: it stops where the
path leaves the triangles.  Where the path passes a domain corner it is
read as passing just inside the domain, through the fan of triangles at
that corner, and the corner becomes a vertex of the path's strict form.
validate_path reports the walk's verdict, and scans the rings only to
word a rejection.
Reduced words classify homotopy classes rel endpoints (after a
normalization at endpoints that sit on triangulation vertices), the
sleeve of a reduced word is the chain of triangle copies the class runs
through, and lifted chords are the pieces of a line's preimage inside
that sleeve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import InvalidPath, PolygonalDomain, Triangulation, ValidationReport, _on_ring, locate, triangulate
from .geom import (
    LineSpec,
    Pt,
    Segment,
    clip_line_to_triangle,
    cross,
    lerp,
    line_side,
    on_segment,
    orient,
    rat,
    seg_param,
    segments_intersect,
)


class EndpointMismatch(Exception):
    pass


class WordError(Exception):
    """Crossing word inconsistent with the triangulation it claims."""


class PathPoly:
    """Polyline path, valid when it lies in the closed domain (see
    word_of)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        self.vertices = [p if isinstance(p, Pt) else Pt(*p) for p in vertices]

    @property
    def start(self) -> Pt:
        return self.vertices[0]

    @property
    def end(self) -> Pt:
        return self.vertices[-1]

    def is_constant(self) -> bool:
        return all(p == self.vertices[0] for p in self.vertices)

    def __eq__(self, o):
        return isinstance(o, PathPoly) and self.vertices == o.vertices

    def __repr__(self):
        return f"PathPoly({len(self.vertices)} verts)"


@dataclass(frozen=True)
class Crossing:
    edge_index: int  # path edge
    t: object  # exact param within that edge
    eid: int  # interior edge id
    sign: int  # side of the directed interior edge the path came from


class CrossingWord:
    """Sequence of (interior edge id, direction) crossings in path order,
    the triangles the path starts and ends in, and the strict form `path`
    whose edges the records index."""

    __slots__ = ("path", "letters", "start_tri", "end_tri", "records")

    def __init__(self, path, letters, start_tri, end_tri, records):
        self.path = path
        self.letters = tuple(letters)
        self.start_tri = start_tri
        self.end_tri = end_tri
        self.records = records

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"CrossingWord(start={self.start_tri}, letters={list(self.letters)})"


# Ties are broken by simulation of simplicity (Edelsbrunner & Muecke
# 1990): a path point that is not a triangulation vertex is read as if
# shifted by the infinitesimal vector delta = (eps, eps**2).


def _tie(w: Pt) -> int:
    """Sign of cross(w, delta): the side of a line with direction w that a
    point on it takes once shifted by delta."""
    if w.y != 0:
        return -1 if w.y > 0 else 1
    return 1 if w.x > 0 else -1


def _side(u: Pt, v: Pt, x: Pt) -> int:
    """Side of the directed line u -> v that x + delta lies on; never 0."""
    return orient(u, v, x) or _tie(v - u)


def _stub_tri(tri: Triangulation, m: Pt):
    """Triangle whose open region holds m + delta.  A point on a boundary
    edge whose shift leaves the domain takes that edge's only triangle;
    None when m is outside."""
    verts, tris = tri.verts, tri.tris
    for ti, (i, j, k) in enumerate(tris):
        a, b, c = verts[i], verts[j], verts[k]
        if _side(a, b, m) > 0 and _side(b, c, m) > 0 and _side(c, a, m) > 0:
            return ti
    for ti, (i, j, k) in enumerate(tris):
        for u, v in ((i, j), (j, k), (k, i)):
            if (min(u, v), max(u, v)) in tri.boundary_edges and on_segment(m, verts[u], verts[v]):
                return ti
    return None


def _fan_tri(tri: Triangulation, vi: int, x: Pt):
    """Fan triangle that a path arriving at or leaving the corner c =
    verts[vi] sits in next to c, given its neighbouring vertex x: the one
    whose wedge holds x + delta, else the fan-end triangle along whose
    boundary edge the path runs."""
    verts, c = tri.verts, tri.verts[vi]
    for closed in (False, True):
        for ti in tri.fans[vi][0]:
            tpl = tri.tris[ti]
            r = tpl.index(vi)
            w1, w2 = verts[tpl[r - 2]], verts[tpl[r - 1]]
            if closed and orient(c, w1, x) >= 0 and orient(w2, c, x) >= 0:
                return ti
            if not closed and _side(c, w1, x) > 0 and _side(w2, c, x) > 0:
                return ti


def _pass_corner(tri: Triangulation, vi: int, arrive: int, x: Pt, records, i: int) -> int:
    """Records the fan walk at corner verts[vi] from triangle `arrive` to
    the one the path leaves in towards x; returns that triangle."""
    leave = _fan_tri(tri, vi, x)
    if leave is None:
        raise InvalidPath(f"path leaves the domain at the corner {tri.verts[vi]}")
    letters = _fan_walk_letters(tri, vi, arrive, leave)
    last = records[-1] if records else None
    if letters and last and last.edge_index == i - 1 and last.t == 1 and letters[0] == (last.eid, -last.sign):
        # the edge runs along the diagonal it crosses at both ends: read it
        # on the side it arrives from
        records.pop()
        letters = letters[1:]
    records.extend(Crossing(i, rat(1), eid, sign) for eid, sign in letters)
    return leave


def crossing_word(path: PathPoly, tri: Triangulation) -> CrossingWord:
    """Crossing word of a path, read in one straight walk through the
    triangulation (Devillers, Pion & Teillaud 2002).

    Each edge, shifted by delta, goes from triangle to triangle, and every
    diagonal it leaves a triangle through is one letter; an edge that ends
    on a boundary edge stops in that edge's triangle.  A domain corner on
    an edge becomes a vertex of the word's strict form `path`, whose edges
    the records index.  The path passes a corner inside the domain: it
    crosses the fan diagonals between the triangles it arrives and leaves
    in, recorded at the end (t = 1) of the arriving edge.

    Raises InvalidPath where the path leaves the closed domain: its start
    lies in no triangle, no fan triangle at a corner holds its next
    direction, or an edge ends strictly beyond the boundary edge it leaves
    a triangle through.  The path's vertices must be at least 2, with no
    two consecutive ones equal unless all are (see word_of)."""
    pts = path.vertices
    vi = tri.vertex_at(pts[0])
    if vi is None:
        start = _stub_tri(tri, pts[0])
    else:
        start = min(tri.fans[vi][0]) if path.is_constant() else _fan_tri(tri, vi, pts[1])
    if start is None:
        raise InvalidPath("path leaves the domain at its start")
    if path.is_constant():
        return CrossingWord(path, [], start, start, [])
    verts, tris = tri.verts, tri.tris
    cur, out, records = start, [pts[0]], []
    for n in range(len(pts) - 1):
        a, b = pts[n], pts[n + 1]
        at = {}  # vertex -> orient(a, b, vertex)
        t0, first = 0, len(records)  # the strict edge from out[-1] starts at t0
        while True:
            at.update((w, orient(a, b, verts[w])) for w in tris[cur] if w not in at)
            ahead = [(seg_param(a, b, verts[w]), w) for w in tris[cur] if at[w] == 0]
            ahead = [tw for tw in ahead if t0 < tw[0] <= 1]
            if ahead:
                # the nearest corner ahead ends the strict edge, whose
                # crossings were read as parameters up to b
                tc, c = min(ahead)
                if tc < 1:
                    s = (tc - t0) / (1 - t0)
                    records[first:] = [Crossing(r.edge_index, r.t / s, r.eid, r.sign) for r in records[first:]]
                out.append(verts[c])
                if tc < 1 or n + 2 < len(pts):
                    cur = _pass_corner(tri, c, cur, b if tc < 1 else pts[n + 2], records, len(out) - 2)
                if tc == 1:
                    break
                t0, first = tc, len(records)
                continue
            # the exit is the side (u, v), counterclockwise, with u right and
            # v left of a -> b; a vertex on that line is behind or past b
            i, j, k = tris[cur]
            ex = [(u, v) for u, v in ((i, j), (j, k), (k, i)) if at[u] < 0 < at[v]]
            key = tuple(sorted(ex[0])) if ex else None
            if key in tri.boundary_edges and orient(*tri.edge_pts(ex[0]), b) < 0:
                raise InvalidPath(f"path edge {n} leaves the domain through a boundary edge")
            if key is None or key in tri.boundary_edges or _side(*tri.edge_pts(ex[0]), b) > 0:
                out.append(b)
                break
            u, v = tri.edge_pts(key)
            uv = v - u
            t = cross(u - out[-1], uv) / cross(b - out[-1], uv)
            records.append(Crossing(len(out) - 1, t, tri.edge_id[key], 1 if key == ex[0] else -1))
            owners = tri.edge_tris[key]
            cur = owners[0] if owners[1] == cur else owners[1]
    return CrossingWord(PathPoly(out), [(r.eid, r.sign) for r in records], start, cur, records)


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
        if tri.side(key, cur) != sign:
            raise WordError(f"crossing of edge {key} from the wrong side")
        cur = owners[0] if owners[1] == cur else owners[1]
        seq.append(cur)
    return seq


def _fan_walk_letters(tri: Triangulation, vi: int, t0: int, t1: int):
    """Letters of the walk around the corner verts[vi] from its fan
    triangle t0 to t1."""
    chain, steps = tri.fans[vi]
    i, j = chain.index(t0), chain.index(t1)
    return steps[i:j] if i <= j else [(eid, -sign) for eid, sign in reversed(steps[j:i])]


def canonical_class_key(word: CrossingWord, tri: Triangulation, p: Pt, q: Pt):
    """Reduced word normalized at endpoints that are triangulation
    vertices, so the key depends only on the homotopy class."""
    letters = list(word.letters)
    start = word.start_tri
    vi = tri.vertex_at(p)
    if vi is not None:
        first = tri.fans[vi][0][0]
        letters = _fan_walk_letters(tri, vi, first, start) + letters
        start = first
    end = walk_triangles(tri, start, letters)[-1]
    qi = tri.vertex_at(q)
    if qi is not None:
        letters = letters + _fan_walk_letters(tri, qi, end, tri.fans[qi][0][0])
    return (start, reduce_word(letters))


def _read(path: PathPoly, tri: Triangulation):
    """(crossing word, []) for a valid path, else (None, violations).  The
    shape checks and the walk decide; the vertex and ring scans only name
    what a rejected path does wrong."""
    pts = path.vertices
    if len(pts) < 2:
        return None, ["path needs at least 2 vertices"]
    const = path.is_constant()
    v = ["constant path must have exactly 2 vertices"] if const and len(pts) != 2 else []
    for i in range(0 if const else len(pts) - 1):
        if pts[i] == pts[i + 1]:
            return None, [f"repeated consecutive vertex at index {i}"]
    if not v:
        try:
            return crossing_word(path, tri), []
        except InvalidPath:
            pass
    d, last = tri.domain, len(pts) - 1
    for i, p in enumerate(pts[:1] if const else pts):
        if locate(d, p).kind == "exterior":
            where = "endpoint" if i in (0, last) else f"vertex {i}"
            v.append(where + " outside the closed domain")
    if v:
        return None, v
    for i in range(last):
        try:
            crossing_word(PathPoly(pts[i : i + 2]), tri)
        except InvalidPath:
            seg = Segment(pts[i], pts[i + 1])
            rings = (Segment(a, b) for _, r in d.rings() for a, b in zip(r, r[1:] + r[:1]))
            crosses = any(segments_intersect(seg, e)[0] == "proper" for e in rings)
            v.append(f"edge {i} " + ("crosses the boundary" if crosses else "leaves the closed domain"))
    return None, v


def word_of(path: PathPoly, tri: Triangulation) -> CrossingWord:
    """Crossing word of a path, after the shape checks (at least 2
    vertices, none repeated in a row unless the path is constant).  Raises
    InvalidPath, with validate_path's violations, when the path leaves the
    closed domain."""
    word, v = _read(path, tri)
    if v:
        raise InvalidPath("path: " + "; ".join(v))
    return word


def validate_path(path: PathPoly, d: PolygonalDomain) -> ValidationReport:
    """word_of's verdict on the path in the (valid) domain d, as a report.
    A valid path `touches` the boundary when its strict form has an inner
    vertex on the boundary or an edge that runs along it."""
    word, v = _read(path, triangulate(d))
    if v:
        return ValidationReport(False, v)
    if path.is_constant():
        return ValidationReport(True)
    pts = word.path.vertices
    mids = [lerp(a, b, rat(1) / 2) for a, b in zip(pts, pts[1:])]
    touches = any(_on_ring(p, ring) for p in pts[1:-1] + mids for _, ring in d.rings())
    return ValidationReport(True, [], touches)


def homotopic(p1: PathPoly, p2: PathPoly, tri: Triangulation) -> bool:
    if p1.start != p2.start or p1.end != p2.end:
        raise EndpointMismatch("paths join different endpoint pairs")
    w1 = word_of(p1, tri)
    w2 = word_of(p2, tri)
    k1 = canonical_class_key(w1, tri, p1.start, p1.end)
    k2 = canonical_class_key(w2, tri, p2.start, p2.end)
    return k1 == k2


class Sleeve:
    """Chain of triangle copies a homotopy class runs through.  Portal k
    joins copies k and k+1; portal endpoints are ordered (left, right) as
    seen walking the sleeve forward."""

    __slots__ = ("tri", "tri_seq", "portals", "portal_pts")

    def __init__(self, tri: Triangulation, tri_seq, portals):
        self.tri = tri
        self.tri_seq = list(tri_seq)
        self.portals = list(portals)
        self.portal_pts = []
        for key, nxt in zip(self.portals, self.tri_seq[1:]):
            u, v = tri.edge_pts(key)
            self.portal_pts.append((u, v) if tri.side(key, nxt) > 0 else (v, u))

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
