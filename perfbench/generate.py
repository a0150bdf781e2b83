"""Seeded input generators for the benchmark workloads.

The benchmark owns these generators so that its workloads stay the same
when the package's own instance generator changes.  The domain, path and
wiggle logic follows ``tautpath.cli.generate_instance`` and the test
suite's ``perturb_homotopic``; the differences are listed in README.md.

Every coordinate is a multiple of 1/GRID and is kept here as an integer
in units of 1/GRID, so all validity decisions are exact integer
arithmetic and generation costs little next to the timed queries.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

GRID = 1 << 14  # wiggle offsets use the 1/16384 grid of perturb_homotopic
OUTER_STEP = GRID // 4  # domain vertices snap to 1/4
PATH_STEP = GRID // 8  # path vertices snap to 1/8


def rng_for(*key) -> random.Random:
    """Deterministic stream for a key such as (workload, seed, index)."""
    return random.Random(":".join(str(k) for k in key))


def snap(v: float, step: int) -> int:
    return round(v * GRID / step) * step


def to_str(v: int) -> str:
    """Exact coordinate string that tautpath.rat and the CLI both parse."""
    return str(Fraction(v, GRID))


# ------------------------------------------------------- exact predicates


def orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(p, a, b) -> bool:
    return (
        orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_meet(a, b, c, d) -> bool:
    """Closed segments [a, b] and [c, d] share at least one point."""
    d1, d2 = orient(c, d, a), orient(c, d, b)
    d3, d4 = orient(a, b, c), orient(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and on_segment(a, c, d))
        or (d2 == 0 and on_segment(b, c, d))
        or (d3 == 0 and on_segment(c, a, b))
        or (d4 == 0 and on_segment(d, a, b))
    )


def edges(ring):
    n = len(ring)
    return [(ring[i], ring[(i + 1) % n]) for i in range(n)]


def area2(ring) -> int:
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in edges(ring))


def inside_ring(p, ring) -> bool:
    """Crossing-number parity for a point known to be off the ring."""
    inside = False
    for a, b in edges(ring):
        if (a[1] > p[1]) != (b[1] > p[1]):
            # x of the crossing lies right of p, compared without division
            s = (a[0] - p[0]) * (b[1] - a[1]) + (p[1] - a[1]) * (b[0] - a[0])
            if (s > 0) == (b[1] > a[1]):
                inside = not inside
    return inside


def on_ring(p, ring) -> bool:
    return any(on_segment(p, a, b) for a, b in edges(ring))


def ring_simple(ring) -> bool:
    n = len(ring)
    if n < 3 or len(set(ring)) != n:
        return False
    es = edges(ring)
    for i in range(n):
        a, b = es[i]
        c = es[(i + 1) % n][1]
        # adjacent edges may only share their common vertex
        if orient(a, b, c) == 0 and (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0:
            return False
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if segments_meet(a, b, *es[j]):
                return False
    return True


def hole_fits(hole, outer, holes) -> bool:
    """The checks tautpath.validate makes on one more hole."""
    if not ring_simple(hole) or area2(hole) >= 0:
        return False
    if any(on_ring(p, outer) or not inside_ring(p, outer) for p in hole):
        return False
    hes = edges(hole)
    if any(segments_meet(a, b, c, d) for a, b in hes for c, d in edges(outer)):
        return False
    for h in holes:
        if any(segments_meet(a, b, c, d) for a, b in hes for c, d in edges(h)):
            return False
        if inside_ring(hole[0], h) or inside_ring(h[0], hole):
            return False
    return True


def interior(p, outer, holes) -> bool:
    rings = [outer] + holes
    if any(on_ring(p, r) for r in rings):
        return False
    return inside_ring(p, outer) and not any(inside_ring(p, h) for h in holes)


def path_valid(pts, outer, holes) -> bool:
    """Strict validity for a path whose vertices are all interior: no
    repeated vertex and no edge meeting the boundary."""
    if len(pts) < 2 or any(pts[i] == pts[i + 1] for i in range(len(pts) - 1)):
        return False
    if not all(interior(p, outer, holes) for p in pts):
        return False
    bes = [e for r in [outer] + holes for e in edges(r)]
    return not any(
        segments_meet(pts[i], pts[i + 1], c, d) for i in range(len(pts) - 1) for c, d in bes
    )


def general_position(pts, dverts) -> bool:
    """No path vertex on a line through two domain vertices, and no path
    edge through a domain vertex.  Every triangulation edge joins two
    domain vertices, so such a path has a crossing word under any
    triangulation of the domain."""
    for p in pts:
        seen = set()
        for v in dverts:
            dx, dy = v[0] - p[0], v[1] - p[1]
            g = math.gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in seen:
                return False
            seen.add((dx, dy))
    for a, b in zip(pts, pts[1:]):
        if any(on_segment(v, a, b) for v in dverts):
            return False
    return True


# ------------------------------------------------------------- instances


def gen_outer(rng, nverts):
    pts = []
    for k in range(nverts):
        theta = 2 * math.pi * (k + 0.5 * (rng.random() - 0.5)) / nverts
        radius = rng.uniform(5.0, 9.5)
        p = (snap(radius * math.cos(theta), OUTER_STEP), snap(radius * math.sin(theta), OUTER_STEP))
        if not pts or p != pts[-1]:
            pts.append(p)
    return pts


def gen_hole(rng):
    cx = rng.uniform(-4.0, 4.0)
    cy = rng.uniform(-4.0, 4.0)
    s = rng.uniform(0.4, 1.3)
    shape = rng.randrange(3)
    if shape == 0:
        ccw = [(cx - s, cy - s), (cx + s, cy - s), (cx + s, cy + s), (cx - s, cy + s)]
    elif shape == 1:
        ccw = [(cx, cy - s), (cx + s, cy), (cx, cy + s), (cx - s, cy)]
    else:
        ccw = [(cx - s, cy - s), (cx + s, cy - 0.2 * s), (cx, cy + s)]
    out = []
    for x, y in reversed(ccw):  # holes are clockwise
        p = (snap(x, OUTER_STEP), snap(y, OUTER_STEP))
        if not out or p != out[-1]:
            out.append(p)
    return out if len(out) >= 3 else None


def gen_path(rng, outer, holes, nverts):
    xs = [p[0] for p in outer]
    ys = [p[1] for p in outer]
    x0, x1, y0, y1 = min(xs) / GRID, max(xs) / GRID, min(ys) / GRID, max(ys) / GRID
    dverts = outer + [p for h in holes for p in h]

    def interior_point():
        for _ in range(300):
            p = (snap(rng.uniform(x0, x1), PATH_STEP), snap(rng.uniform(y0, y1), PATH_STEP))
            if interior(p, outer, holes):
                return p
        return None

    for _ in range(60):
        pts = [interior_point() for _ in range(nverts)]
        if None in pts or len(set(pts)) < nverts:
            continue
        if not path_valid(pts, outer, holes):
            continue
        if not general_position(pts, dverts):
            continue
        return pts
    return None


def gen_instance(rng, holes, vertices, path_verts):
    """Domain and path as integer rings, in the shape of
    generate_instance(seed, holes, vertices), with the path in general
    position."""
    for _ in range(300):
        outer = gen_outer(rng, vertices)
        if not ring_simple(outer) or area2(outer) <= 0:
            continue
        hs = []
        for _ in range(holes):
            got = None
            for _ in range(400):
                cand = gen_hole(rng)
                if cand is not None and hole_fits(cand, outer, hs):
                    got = cand
                    break
            if got is None:
                break
            hs.append(got)
        if len(hs) < holes:
            continue
        path = gen_path(rng, outer, hs, path_verts)
        if path is None:
            continue
        return {"outer": outer, "holes": hs, "path": path}
    raise RuntimeError("instance generation failed")


JITTER_STEP = GRID // 32


def jitter(inst, rng):
    """A fresh placement of a template's path: every path vertex moves by
    a random offset of at most 1/16 per axis, on the 1/32 grid, while the
    domain stays as it is.  Offsets are redrawn until the path is valid
    and in general position again; the template's own path is the last
    resort."""
    dverts = inst["outer"] + [p for h in inst["holes"] for p in h]
    for _ in range(50):
        path = [(x + rng.randint(-2, 2) * JITTER_STEP, y + rng.randint(-2, 2) * JITTER_STEP) for x, y in inst["path"]]
        if path_valid(path, inst["outer"], inst["holes"]) and general_position(path, dverts):
            return {**inst, "path": path}
    return inst


def placed(workload, seed, i, holes, vertices, path_verts):
    """Query i's instance: template i of the workload, which does not
    depend on the seed, placed afresh by the seed's jitter."""
    template = gen_instance(rng_for(workload, "template", i), holes, vertices, path_verts)
    return jitter(template, rng_for(workload, seed, i))


# --------------------------------------------------------------- wiggles


def _clearance(pts, outer, holes) -> float:
    """Smallest distance between path edges and boundary edges."""

    def pseg(p, a, b):
        ax, ay, bx, by, px, py = a[0], a[1], b[0], b[1], p[0], p[1]
        dx, dy = bx - ax, by - ay
        den = dx * dx + dy * dy
        t = 0.0 if den == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
        return math.hypot(px - ax - t * dx, py - ay - t * dy)

    best = math.inf
    for a, b in zip(pts, pts[1:]):
        for r in [outer] + holes:
            for c, d in edges(r):
                best = min(best, pseg(a, c, d), pseg(b, c, d), pseg(c, a, b), pseg(d, a, b))
    return best / GRID


def wiggle(pts, outer, holes, rng, wiggles=3):
    """Insert off-segment detour vertices inside a quarter of the path's
    clearance, as perturb_homotopic does; the class is unchanged and
    the length strictly grows.  Each wiggle vertex obeys the
    general-position rule."""
    dverts = outer + [p for h in holes for p in h]
    verts = list(pts)
    for _ in range(wiggles):
        r = min(_clearance(verts, outer, holes) / 4, 1.0)
        for _ in range(60):
            i = rng.randrange(len(verts) - 1)
            a, b = verts[i], verts[i + 1]
            t = rng.randint(5, 11)  # near a + (b - a) * t / 16, rounded to the grid
            m = (a[0] + (b[0] - a[0]) * t // 16, a[1] + (b[1] - a[1]) * t // 16)
            ang = rng.uniform(0.0, 2 * math.pi)
            mag = r * rng.uniform(0.35, 0.95)
            off = (snap(math.cos(ang) * mag, 1), snap(math.sin(ang) * mag, 1))
            if off == (0, 0):
                continue
            w = (m[0] + off[0], m[1] + off[1])
            cand = verts[: i + 1] + [w] + verts[i + 1 :]
            if path_valid(cand, outer, holes) and general_position(cand, dverts):
                verts = cand
                break
    return verts


# ------------------------------------------------------------ polylines


def gen_polyline(rng, n):
    return [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(n)]


def gen_detour(rng):
    """Length of a segment and the apex of a tall detour over it."""
    L = rng.uniform(1.0, 2.0)
    return L, L * rng.uniform(0.3, 0.7), rng.uniform(4.0, 6.0)


def detour_pair(L, mx, my):
    """The segment (0, 0)-(L, 0) and the detour through (mx, my), both cut
    into chords of at most 0.05, as in the length-functional acceptance
    criterion."""

    def chop(pts):
        out = [pts[0]]
        for p, q in zip(pts, pts[1:]):
            n = max(1, math.ceil(math.dist(p, q) / 0.05))
            out += [(p[0] + (q[0] - p[0]) * k / n, p[1] + (q[1] - p[1]) * k / n) for k in range(1, n + 1)]
        return out

    return chop([(0.0, 0.0), (L, 0.0)]), chop([(0.0, 0.0), (mx, my), (L, 0.0)])
