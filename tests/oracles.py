"""Independent brute-force reference implementations used by the tests.

`vg_shortest_in_class` searches the visibility graph over the domain
vertices for the shortest walk in a prescribed deformation class.  It
shares only the low-level word machinery with the library, not the
pull-tight engine, so agreement between the two is evidence rather than
tautology.

`probe_taut_vertex_violations` decides the certificate's corner rule by
probing the domain a tiny step away instead of reading the corner's two
edges.

`locally_shortest_check` compares every subpath between grid points with
the funnel optimum between its ends, an O(grid^2) probe of shortness.

`scan_validate_path` decides whether a path lies in the closed domain by
testing every path edge against every ring edge and locating the pieces
between the contacts, the verdict the library's walk must reproduce.  The
other oracles call it, not the walk, to stay independent of the code they
check.

`scan_crossing_word` reads a path's crossing word by testing every
domain corner and every diagonal against every path edge, the reading
the library's triangulation walk must reproduce.

`scan_fan` finds a vertex's star by scanning every triangle and every
diagonal, the fan the triangulation builds once from its turn table.

`slot_loop_len_value` runs path_len's weight-slot DP one slot at a
time, gathering every earlier row's entries for each slot, the loop the
library's stacked-row DP must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tautpath import PathPoly, triangulate
from tautpath.domain import ValidationReport, locate
from tautpath.geom import (
    Pt,
    Segment,
    cross,
    dist2,
    dot,
    lerp,
    on_segment,
    orient,
    point_in_triangle,
    polyline_length,
    rat,
    seg_length,
    seg_param,
    segments_intersect,
)
from tautpath.homotopy import (
    Crossing,
    CrossingWord,
    InvalidPath,
    Sleeve,
    WordError,
    _side,
    _tie,
    canonical_class_key,
    walk_triangles,
    word_of,
)
from tautpath.pathlen import LenValue, _as_float_pts, _greedy_value, _refine, gauge
from tautpath.tighten import _as_sleeve_path, funnel_shortest


def scan_validate_path(path: PathPoly, d) -> ValidationReport:
    """Reference for validate_path that does not use the triangulation: it
    tests every path edge against every ring edge and locates every vertex
    and every piece between boundary contacts.  Checks that the path lies
    in the closed domain.  The report's
    `touches` says whether it meets the boundary anywhere but at its two
    ends: at an inner vertex, where an edge touches it, or along it."""
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
    touches = False
    for i, p in enumerate(pts):
        kind = locate(d, p).kind
        end = i == 0 or i == len(pts) - 1
        if kind == "exterior":
            v.append("endpoint outside the closed domain" if end else f"vertex {i} outside the closed domain")
        elif kind == "boundary" and not end:
            touches = True
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
                    if not ((i == 0 and data == a) or (i == last and data == b)):
                        touches = True
                    events.append(seg_param(a, b, data))
                elif kind == "overlap":
                    touches = True
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
            if locate(d, mid).kind == "exterior":
                v.append(f"edge {i} leaves the closed domain")
                break
    return ValidationReport(not v, v, touches)


def _class_key(path: PathPoly, tri):
    w = word_of(path, tri)
    return canonical_class_key(w, tri, path.start, path.end)


def vg_shortest_in_class(d, path: PathPoly, tri=None):
    """Shortest polyline through domain vertices homotopic to `path`,
    found by branch-and-bound over the visibility graph.  Returns
    (vertices, length).  Only single-visit walks are searched, which
    covers every class whose taut form does not rewrap a corner."""
    if tri is None:
        tri = triangulate(d)
    target = _class_key(path, tri)
    p, q = path.start, path.end

    nodes = [p, q]
    for _, ring in d.rings():
        for v in ring:
            if v not in nodes:
                nodes.append(v)
    n = len(nodes)

    vis = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if nodes[i] == nodes[j]:
                continue
            seg = PathPoly([nodes[i], nodes[j]])
            ok = scan_validate_path(seg, d).ok
            vis[i][j] = vis[j][i] = ok

    fdist = [[math.sqrt(float(dist2(a, b))) for b in nodes] for a in nodes]

    # the input path itself lies in the class, so its length bounds the
    # optimum from above
    best_len = polyline_length(path.vertices) + 1e-9
    best_walk = None
    order = sorted(range(n), key=lambda j: fdist[j][1])

    def dfs(i, walk, used, acc):
        nonlocal best_len, best_walk
        if acc + fdist[i][1] >= best_len:
            return
        if i == 1 and len(walk) >= 2:
            cand = PathPoly([nodes[t] for t in walk])
            if _class_key(cand, tri) == target:
                best_len = acc
                best_walk = list(walk)
            return
        for j in order:
            if j == 0 or (j != 1 and j in used) or not vis[i][j]:
                continue
            dfs(j, walk + [j], used | {j}, acc + fdist[i][j])

    if p == q:
        # constant walk is a valid candidate for loop classes
        cand = PathPoly([p, p])
        if _class_key(cand, tri) == target:
            best_len = 0.0
            best_walk = [0, 1]
        for j in range(2, n):
            if vis[0][j]:
                dfs(j, [0, j], {j}, fdist[0][j])
    else:
        dfs(0, [0], set(), 0.0)
    if best_walk is None:
        raise AssertionError("oracle found no walk in the class")
    return [nodes[t] for t in best_walk], best_len


def probe_taut_vertex_violations(pts, d):
    """Reference for the certificate's corner rule: a bend at a domain
    vertex admits a local shortcut when a segment across it, shrunk below
    1/64 of the domain's feature size, stays in the closed domain."""
    out = []
    dverts = set(d.verts)
    fs = float(d.feature_size2())
    for k in range(1, len(pts) - 1):
        u, v, w = pts[k - 1], pts[k], pts[k + 1]
        # a straight pass through v is no bend; a reversal is one, and the
        # segment across it runs along the path itself
        if orient(u, v, w) == 0 and dot(v - u, w - v) >= 0:
            continue
        if v not in dverts:
            out.append(f"vertex {k} bends away from every domain corner")
            continue
        ends = []
        for x in (u, w):
            t = rat(1) / 4
            while float(dist2(lerp(v, x, t), v)) > fs / 64:
                t /= 2
            ends.append(lerp(v, x, t))
        if scan_validate_path(PathPoly(ends), d).ok:
            out.append(f"vertex {k} admits a local shortcut")
    return out


def locally_shortest_check(path, d, grid: int = 8, tol: float = 1e-9) -> bool:
    """True when every grid subpath is as short as the funnel optimum
    between its endpoints in the sub-sleeve."""
    p = path if isinstance(path, PathPoly) else PathPoly(path)
    sleeve, spath = _as_sleeve_path(p, d)
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


def brute_len_value(pts, k: int, grid_pts=None):
    """Exhaustive family search for the bounded length restricted to the
    given vertex list.  Exponential; keep the inputs tiny."""
    if grid_pts is None:
        grid_pts = [(float(p.x), float(p.y)) if isinstance(p, Pt) else (float(p[0]), float(p[1])) for p in pts]
    m = len(grid_pts)

    def g(d):
        return d / (1.0 + d)

    def dist(i, j):
        (ax, ay), (bx, by) = grid_pts[i], grid_pts[j]
        return math.hypot(bx - ax, by - ay)

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    best = 0.0
    for size in range(1, k + 1):
        for combo in itertools.combinations(pairs, size):
            spans = sorted(combo)
            ok = True
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                if b1 > a2:
                    ok = False
                    break
            if not ok:
                continue
            ds = sorted((g(dist(i, j)) for i, j in combo), reverse=True)
            val = sum(dv * 2.0 ** -(r + 1) for r, dv in enumerate(ds))
            if val > best:
                best = val
    return best


def slot_loop_len_value(pts, k_max: int = 8, refine: int = 3) -> LenValue:
    """Reference for path_len: the same DP over grid points and subsets of
    weight slots, with one fancy-index gather of every earlier row per
    slot and the full (N, 2^k) table kept."""
    pts = _refine(_as_float_pts(pts), refine)
    P = np.asarray(pts, dtype=np.float64)
    N = len(P)
    diff = P[:, None, :] - P[None, :, :]
    dm = np.hypot(diff[..., 0], diff[..., 1])
    G = dm / (1.0 + dm)
    k = min(k_max, 8)
    full = 1 << k
    w = np.array([2.0 ** -(s + 1) for s in range(k)])
    masks = np.arange(full)
    has_bit = [(masks >> s) & 1 == 1 for s in range(k)]
    D = np.zeros((N, full))
    for j in range(1, N):
        best = D[j - 1].copy()
        col = G[:j, j]
        for s in range(k):
            m = masks[has_bit[s]]
            vals = D[:j][:, m ^ (1 << s)] + w[s] * col[:, None]
            best[m] = np.maximum(best[m], vals.max(axis=0))
        D[j] = best
    value = float(D[N - 1, full - 1])
    if k_max > k:
        value = max(value, _greedy_value(G, min(k_max, 32)))
    seg = P[1:] - P[:-1]
    h = float(np.hypot(seg[:, 0], seg[:, 1]).max()) if N > 1 else 0.0
    diam = float(dm.max())
    slack = 2.0 ** -k + 2.0 * h
    cap = gauge(diam) - value
    err = max(0.0, min(slack, cap))
    return LenValue(value=value, error_bound=err)


def tri_containing(tri, p: Pt):
    """Triangles whose closed region contains p, by a scan of them all."""
    return [ti for ti in range(len(tri.tris)) if point_in_triangle(p, *tri.tri_pts(ti))]


def _scan_stub_tri(tri, m: Pt, cands=None):
    """Triangle among `cands` (default all) whose open region holds
    m + delta.  A stub on a boundary edge whose shift leaves the domain
    takes that edge's only triangle; None when m is outside."""
    verts, tris = tri.verts, tri.tris
    cands = range(len(tris)) if cands is None else cands
    for ti in cands:
        i, j, k = tris[ti]
        a, b, c = verts[i], verts[j], verts[k]
        if _side(a, b, m) > 0 and _side(b, c, m) > 0 and _side(c, a, m) > 0:
            return ti
    for ti in cands:
        i, j, k = tris[ti]
        for u, v in ((i, j), (j, k), (k, i)):
            if (min(u, v), max(u, v)) in tri.boundary_edges and on_segment(m, verts[u], verts[v]):
                return ti
    return None


def _scan_start_tri(tri, path: PathPoly, records):
    """Triangle the path starts in: the one holding its stub (the path
    before the first crossing).  A constant path at a vertex takes the
    smallest member of the vertex's fan."""
    pts = path.vertices
    if path.is_constant():
        if tri.vertex_at(pts[0]) is not None:
            return tri_containing(tri, pts[0])[0]
        stub = pts[0]
    elif records and records[0].edge_index == 0:
        stub = lerp(pts[0], pts[1], records[0].t / 2)
    else:
        stub = lerp(pts[0], pts[1], rat(1) / 2)
    start = _scan_stub_tri(tri, stub)
    if start is None:
        raise InvalidPath("path starts outside the triangulated domain")
    return start


def scan_fan(tri, vi: int):
    """Star of a (boundary) triangulation vertex as an ordered chain of
    triangles and the interior edges joining them, by a scan of every
    triangle and every interior edge."""
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


def orient_side(tri, key, ti) -> int:
    """Side of the edge key = (u, v) that triangle ti lies on, as the sign
    of orient(u, v, w) for ti's third vertex w."""
    u, v = tri.edge_pts(key)
    w = next(x for x in tri.tris[ti] if x not in key)
    return orient(u, v, tri.verts[w])


def scan_fan_walk_letters(tri, chain, keys, i, j):
    """Letters of the fan walk from chain[i] to chain[j]."""
    out = []
    if i <= j:
        for t in range(i, j):
            out.append((tri.edge_id[keys[t]], orient_side(tri, keys[t], chain[t])))
    else:
        for t in range(i, j, -1):
            out.append((tri.edge_id[keys[t - 1]], orient_side(tri, keys[t - 1], chain[t])))
    return out


def _scan_corner_letters(tri, vi: int, a: Pt, c: Pt, b: Pt, before, after):
    """Fan walk of a path that arrives at corner c = verts[vi] from a,
    with crossings `before` on that edge, and leaves towards b, with
    crossings `after`.  Each end takes the fan triangle holding the point
    halfway between c and the edge's nearest crossing or far end."""
    chain, keys = scan_fan(tri, vi)
    t_in = (before[-1].t + 1) / 2 if before else rat(1) / 2
    t_out = after[0].t / 2 if after else rat(1) / 2
    i = chain.index(_scan_stub_tri(tri, lerp(a, c, t_in), chain))
    j = chain.index(_scan_stub_tri(tri, lerp(c, b, t_out), chain))
    return scan_fan_walk_letters(tri, chain, keys, i, j)


def scan_crossing_word(path: PathPoly, tri) -> CrossingWord:
    """Crossing word of a path in the closed domain by exhaustive scans.
    Every domain corner inside an edge is inserted as a vertex (the
    strict form).  A strict edge crosses a diagonal when, with ties broken
    by the shift delta, its ends lie on opposite sides of the diagonal and
    the diagonal's ends on opposite sides of the edge; an edge skips the
    diagonals at its ends' corners.  The path passes an inner vertex on a
    corner inside the domain: it crosses the fan diagonals between the
    triangles it arrives and leaves in, found from stub points halfway to
    the nearest crossing, and recorded at the end (t = 1) of the arriving
    edge."""
    if not path.is_constant():
        pts = path.vertices[:1]
        for a, b in zip(path.vertices, path.vertices[1:]):
            inner = [c for c in tri.domain.verts if c != a and c != b and on_segment(c, a, b)]
            pts += sorted(inner, key=lambda c: seg_param(a, b, c)) + [b]
        path = PathPoly(pts)
    pts = path.vertices
    corner = [tri.vertex_at(p) for p in pts]
    keys = tri.interior_edges
    epts = [tri.edge_pts(k) for k in keys]
    per_edge = []
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        ca, cb = corner[i], corner[i + 1]
        lox, hix = min(a.fx, b.fx), max(a.fx, b.fx)
        loy, hiy = min(a.fy, b.fy), max(a.fy, b.fy)
        ab_tie = None
        local = []
        for eid, (u, v) in enumerate(epts):
            # rounding to floats keeps order, so disjoint float boxes are disjoint
            if max(u.fx, v.fx) < lox or hix < min(u.fx, v.fx) or max(u.fy, v.fy) < loy or hiy < min(u.fy, v.fy):
                continue
            sa = _side(u, v, a)
            if sa == _side(u, v, b):
                continue
            if ab_tie is None:
                ab_tie = -_tie(b - a)
            if (orient(a, b, u) or ab_tie) == (orient(a, b, v) or ab_tie):
                continue
            if ca in keys[eid] or cb in keys[eid]:
                continue
            uv = v - u
            t = cross(u - a, uv) / cross(b - a, uv)
            local.append(Crossing(i, t, eid, sa))
        local.sort(key=lambda c: c.t)
        per_edge.append(local)
    records = []
    for i, local in enumerate(per_edge):
        records.extend(local)
        if i + 1 < len(per_edge) and corner[i + 1] is not None:
            letters = _scan_corner_letters(tri, corner[i + 1], pts[i], pts[i + 1], pts[i + 2], local, per_edge[i + 1])
            last = records[-1] if records else None
            if letters and not local and last and last.edge_index == i - 1 and last.t == 1 and letters[0] == (last.eid, -last.sign):
                # the edge runs along the diagonal it crosses at both ends:
                # read it on the side it arrives from
                records.pop()
                letters = letters[1:]
            records.extend(Crossing(i, rat(1), eid, sign) for eid, sign in letters)
    start = _scan_start_tri(tri, path, records)
    letters = [(c.eid, c.sign) for c in records]
    end = walk_triangles(tri, start, letters)[-1] if letters else start
    return CrossingWord(path, letters, start, end, records)
