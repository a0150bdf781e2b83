"""Polygonal multiply-connected domains and their triangulations.

A domain is one outer ring (counterclockwise) minus a set of open holes
(each ring clockwise).  Triangulation bridges every hole into the outer
ring (duplicating the two bridge endpoints, never inventing new points)
and then ear-clips the merged, weakly simple ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .geom import (
    Pt,
    Segment,
    dist2,
    lerp,
    on_segment,
    orient,
    point_in_triangle,
    point_seg_dist2,
    rat,
    segments_intersect,
)


class TriangulationError(Exception):
    """Internal defect: the triangulation of a valid domain failed."""


class InvalidPath(Exception):
    """Input path or domain fails validation."""


def signed_area2(ring):
    """Twice the signed area, exact. Positive = counterclockwise."""
    s = rat(0)
    for i in range(len(ring)):
        a = ring[i]
        b = ring[(i + 1) % len(ring)]
        s += a.x * b.y - a.y * b.x
    return s


def _ring_edges(ring):
    n = len(ring)
    for i in range(n):
        yield i, ring[i], ring[(i + 1) % n]


class PolygonalDomain:
    """Outer ring minus holes; rings are vertex lists without a repeated
    closing vertex.  Do not change a domain after its first use: its
    validation, triangulation and feature size are memoized on it."""

    def __init__(self, outer, holes=()):
        self.outer = [p if isinstance(p, Pt) else Pt(*p) for p in outer]
        self.holes = [[p if isinstance(p, Pt) else Pt(*p) for p in h] for h in holes]
        self._feature2 = None
        self._report = None
        self._tri = None

    def rings(self):
        yield 0, self.outer
        for k, h in enumerate(self.holes):
            yield k + 1, h

    def ring(self, rid):
        return self.outer if rid == 0 else self.holes[rid - 1]

    @property
    def verts(self):
        out = list(self.outer)
        for h in self.holes:
            out.extend(h)
        return out

    def bbox(self):
        xs = [p.x for p in self.outer]
        ys = [p.y for p in self.outer]
        return (min(xs), min(ys), max(xs), max(ys))

    def feature_size2(self):
        """Smallest squared vertex-vertex or vertex-to-foreign-edge distance."""
        if self._feature2 is not None:
            return self._feature2
        pts = []
        for rid, ring in self.rings():
            for i, p in enumerate(ring):
                pts.append((rid, i, p))
        best = None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = dist2(pts[i][2], pts[j][2])
                if d > 0 and (best is None or d < best):
                    best = d
        for rid, ring in self.rings():
            n = len(ring)
            for i, a, b in _ring_edges(ring):
                for qrid, qi, p in pts:
                    if qrid == rid and (qi == i or qi == (i + 1) % n):
                        continue
                    d = point_seg_dist2(p, a, b)
                    if d > 0 and (best is None or d < best):
                        best = d
        self._feature2 = best if best is not None else rat(1)
        return self._feature2

    def __repr__(self):
        return f"PolygonalDomain(outer={len(self.outer)} verts, holes={len(self.holes)})"


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    touches: bool = False  # a valid path meets the boundary away from its ends; read only when ok


def _ring_simple(ring, label, out):
    n = len(ring)
    if n < 3:
        out.append(f"{label} has fewer than 3 vertices")
        return False
    for i in range(n):
        if ring[i] == ring[(i + 1) % n]:
            out.append(f"{label} has repeated consecutive vertices")
            return False
    seen = set()
    for p in ring:
        key = (p.x, p.y)
        if key in seen:
            out.append(f"{label} not simple")
            return False
        seen.add(key)
    edges = [(i, a, b) for i, a, b in _ring_edges(ring)]
    for i in range(n):
        for j in range(i + 1, n):
            _, a, b = edges[i]
            _, c, d = edges[j]
            kind, data = segments_intersect(Segment(a, b), Segment(c, d))
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                if kind == "touch":
                    continue
                out.append(f"{label} not simple")
                return False
            if kind != "disjoint":
                out.append(f"{label} not simple")
                return False
    return True


def _inside_ring(p: Pt, ring) -> bool:
    """Crossing-number parity; caller guarantees p is off the ring itself."""
    inside = False
    for _, a, b in _ring_edges(ring):
        # the edge crosses p's line right of p when p is left of it upward
        if (a.y > p.y) != (b.y > p.y) and orient(a, b, p) == (1 if b.y > a.y else -1):
            inside = not inside
    return inside


def _on_ring(p: Pt, ring) -> bool:
    return any(on_segment(p, a, b) for _, a, b in _ring_edges(ring))


def validate(d: PolygonalDomain) -> ValidationReport:
    """Checks the rings and their nesting; memoized on the domain."""
    if d._report is None:
        d._report = _validate(d)
    return d._report


def _validate(d: PolygonalDomain) -> ValidationReport:
    v = []
    ok_outer = _ring_simple(d.outer, "outer", v)
    if ok_outer and signed_area2(d.outer) <= 0:
        v.append("outer not counterclockwise")
    for k, h in enumerate(d.holes):
        label = f"hole {k}"
        ok = _ring_simple(h, label, v)
        if not ok:
            continue
        if signed_area2(h) >= 0:
            v.append(f"{label} not clockwise")
        if ok_outer:
            strict = all(
                not _on_ring(p, d.outer) and _inside_ring(p, d.outer) for p in h
            )
            if strict:
                for _, a, b in _ring_edges(h):
                    for _, c, e in _ring_edges(d.outer):
                        if segments_intersect(Segment(a, b), Segment(c, e))[0] != "disjoint":
                            strict = False
                            break
                    if not strict:
                        break
            if not strict:
                v.append(f"{label} not strictly interior")
    for i in range(len(d.holes)):
        for j in range(i + 1, len(d.holes)):
            hi, hj = d.holes[i], d.holes[j]
            clash = False
            for _, a, b in _ring_edges(hi):
                for _, c, e in _ring_edges(hj):
                    if segments_intersect(Segment(a, b), Segment(c, e))[0] != "disjoint":
                        clash = True
                        break
                if clash:
                    break
            if not clash:
                if (not _on_ring(hi[0], hj) and _inside_ring(hi[0], hj)) or (
                    not _on_ring(hj[0], hi) and _inside_ring(hj[0], hi)
                ):
                    clash = True
            if clash:
                v.append(f"holes {i} and {j} overlap")
    return ValidationReport(ok=not v, violations=v)


@dataclass
class Location:
    kind: str  # "interior" | "boundary" | "exterior"
    feature: Optional[str] = None  # "vertex" | "edge" when on the boundary
    ring: Optional[int] = None
    index: Optional[int] = None


def locate(d: PolygonalDomain, p: Pt) -> Location:
    for rid, ring in d.rings():
        for i, q in enumerate(ring):
            if p == q:
                return Location("boundary", "vertex", rid, i)
    for rid, ring in d.rings():
        for i, a, b in _ring_edges(ring):
            if on_segment(p, a, b):
                return Location("boundary", "edge", rid, i)
    if not _inside_ring(p, d.outer):
        return Location("exterior")
    for rid, ring in d.rings():
        if rid and _inside_ring(p, ring):
            return Location("exterior")
    return Location("interior")


class Triangulation:
    """Triangle mesh over the closure of the domain.

    vertices are exactly the domain vertices (outer ring first, then the
    holes in order); triangles are CCW index triples.  `fans[v]` is vertex
    v's star as a chain of triangles, from the end triangle with the smaller
    index, and the letters (edge id, side) of the steps along it: step m
    crosses from chain[m] to chain[m + 1].  Construction checks the
    structural invariants, every star a single chain among them, and raises
    TriangulationError on any breach.
    """

    def __init__(self, d: PolygonalDomain, tris):
        self.domain = d
        self.verts = d.verts
        self._vert_index = {p: i for i, p in enumerate(self.verts)}
        self._vert_floats = {(p.fx, p.fy) for p in self.verts}
        self.tris = [tuple(t) for t in tris]
        self._check_and_index()

    def _check_and_index(self):
        d = self.domain
        boundary, after = set(), {}  # ring edges; each vertex's successor on its ring
        offset = 0
        for _, ring in d.rings():
            n = len(ring)
            for i in range(n):
                a, b = offset + i, offset + (i + 1) % n
                boundary.add((min(a, b), max(a, b)))
                after[a] = b
            offset += n
        edge_tris = {}
        turn = {}  # (vertex, neighbour) -> (triangle, next neighbour counterclockwise)
        area2 = rat(0)
        for ti, (i, j, k) in enumerate(self.tris):
            a, b, c = self.verts[i], self.verts[j], self.verts[k]
            if orient(a, b, c) <= 0:
                raise TriangulationError("triangle not strictly counterclockwise")
            area2 += (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                edge_tris.setdefault((min(u, v), max(u, v)), []).append(ti)
                turn[u, v] = (ti, w)
        expect2 = signed_area2(d.outer) + sum(signed_area2(h) for h in d.holes)
        if area2 != expect2:
            raise TriangulationError("triangle areas do not sum to the domain area")
        n = len(self.verts)
        h = len(d.holes)
        if len(self.tris) != n + 2 * h - 2:
            raise TriangulationError("unexpected triangle count")
        self.edge_tris = edge_tris
        self.boundary_edges = boundary
        self.interior_edges = sorted(key for key in edge_tris if key not in boundary)
        self.edge_id = {key: eid for eid, key in enumerate(self.interior_edges)}
        # each star runs counterclockwise from the vertex's ring successor to
        # its ring predecessor; together the stars hold every triangle three
        # times, so every edge has the owners its kind asks for
        before = {b: a for a, b in after.items()}
        self.fans = []
        for v in range(n):
            chain, spokes, w = [], [], after[v]
            while (v, w) in turn and len(chain) < len(self.tris):
                ti, w = turn[v, w]
                chain.append(ti)
                key = (min(v, w), max(v, w))
                if key in boundary:
                    break
                spokes.append(key)
            if w != before[v]:
                raise TriangulationError(f"the star of vertex {v} is not a single chain")
            if chain[-1] < chain[0]:
                chain.reverse()
                spokes.reverse()
            self.fans.append((chain, [(self.edge_id[k], self.side(k, t)) for k, t in zip(spokes, chain)]))
        if sum(len(chain) for chain, _ in self.fans) != 3 * len(self.tris):
            raise TriangulationError("the vertex stars do not hold every triangle")
        seen = {0}
        stack = [0]
        neighbors = {ti: [] for ti in range(len(self.tris))}
        for key in self.interior_edges:
            t1, t2 = edge_tris[key]
            neighbors[t1].append(t2)
            neighbors[t2].append(t1)
        while stack:
            cur = stack.pop()
            for other in neighbors[cur]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) != len(self.tris):
            raise TriangulationError("dual graph not connected")

    def side(self, key, ti) -> int:
        """Side of the edge key = (u, v) that its triangle ti lies on: +1
        when u, v run counterclockwise in ti (orient(u, v, w) > 0), else -1."""
        t = self.tris[ti]
        return 1 if t[t.index(key[0]) - 2] == key[1] else -1

    def vertex_at(self, p: Pt):
        """Index of the vertex at p, or None.  Equal points have equal
        floats, so the float screen spares most lookups a Fraction hash."""
        if (p.fx, p.fy) not in self._vert_floats:
            return None
        return self._vert_index.get(p)

    def tri_pts(self, ti):
        i, j, k = self.tris[ti]
        return (self.verts[i], self.verts[j], self.verts[k])

    def edge_pts(self, key):
        return (self.verts[key[0]], self.verts[key[1]])


def _bridge_visible(d, seg_a, seg_b, ring_pts, pending_holes):
    """seg between a hole vertex and a merged-ring vertex: may only touch
    the boundary at its own endpoints."""
    bridge = Segment(seg_a, seg_b)
    rings = [ring_pts] + pending_holes
    for ring in rings:
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            kind, data = segments_intersect(bridge, Segment(a, b))
            if kind == "disjoint":
                continue
            if kind == "touch" and (data == seg_a or data == seg_b):
                continue
            return False
    mid = lerp(seg_a, seg_b, rat(1) / 2)
    return locate(d, mid).kind == "interior"


def _merge_holes(d: PolygonalDomain):
    """Splice every hole into the outer ring via a mutually visible bridge;
    each bridge duplicates one ring node and one hole node."""
    n0 = len(d.outer)
    ring = list(range(n0))  # node = original vertex index
    pos = d.verts
    offsets = [n0]
    for h in d.holes:
        offsets.append(offsets[-1] + len(h))
    pending = [list(h) for h in d.holes]
    for hk, hole in enumerate(d.holes):
        off = offsets[hk]
        pending.pop(0)
        cands = []
        for hi in range(len(hole)):
            for rj in range(len(ring)):
                cands.append((dist2(hole[hi], pos[ring[rj]]), hi, rj))
        cands.sort(key=lambda c: (c[0], c[1], c[2]))
        ring_pts = [pos[i] for i in ring]
        chosen = None
        for _, hi, rj in cands:
            v = ring_pts[rj]
            if v == hole[hi]:
                continue
            # a point the ring passes more than once takes the bridge only
            # at the pass whose wedge, counterclockwise from the next ring
            # point to the previous one, strictly holds the bridge
            if ring_pts.count(v) > 1:
                prev, nxt = ring_pts[rj - 1], ring_pts[(rj + 1) % len(ring)]
                left, right = orient(v, nxt, hole[hi]) > 0, orient(v, hole[hi], prev) > 0
                if not ((left and right) if orient(v, nxt, prev) > 0 else (left or right)):
                    continue
            if _bridge_visible(d, hole[hi], v, ring_pts, pending):
                chosen = (hi, rj)
                break
        if chosen is None:
            raise TriangulationError(f"no visible bridge for hole {hk}")
        hi, rj = chosen
        m = len(hole)
        cycle = [off + (hi + t) % m for t in range(m)] + [off + hi]
        ring = ring[: rj + 1] + cycle + ring[rj:]
    return ring


def triangulate(d: PolygonalDomain) -> Triangulation:
    """Deterministic: the shortest visible bridges, then ears clipped in
    ring order.  Memoized on the domain; an invalid domain raises
    InvalidPath."""
    if d._tri is None:
        report = validate(d)
        if not report.ok:
            raise InvalidPath("domain: " + "; ".join(report.violations))
        d._tri = _triangulate(d)
    return d._tri


def _triangulate(d: PolygonalDomain) -> Triangulation:
    ring = _merge_holes(d)
    pos = d.verts
    nodes = list(ring)
    tris = []
    guard = 0
    idx = 0
    while len(nodes) > 3:
        n = len(nodes)
        if guard > n:
            raise TriangulationError("ear clipping found no ear")
        i = idx % n
        p, c, nx = nodes[(i - 1) % n], nodes[i], nodes[(i + 1) % n]
        if _is_ear(pos, nodes, (i - 1) % n, i, (i + 1) % n):
            tris.append((p, c, nx))
            nodes.pop(i)
            guard = 0
        else:
            idx = i + 1
            guard += 1
    a, b, c = nodes
    if orient(pos[a], pos[b], pos[c]) <= 0:
        raise TriangulationError("degenerate final triangle")
    tris.append((a, b, c))
    return Triangulation(d, tris)


def _is_ear(pos, nodes, ip, ic, inx) -> bool:
    a, b, c = pos[nodes[ip]], pos[nodes[ic]], pos[nodes[inx]]
    if orient(a, b, c) <= 0:
        return False
    for t, node in enumerate(nodes):
        if t in (ip, ic, inx):
            continue
        q = pos[node]
        if q == a or q == b or q == c:
            continue
        if point_in_triangle(q, a, b, c):
            return False
    return True
