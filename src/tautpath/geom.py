"""Exact planar primitives.

Every incidence or side-of decision is made in rational arithmetic, so
nothing downstream depends on floating point rounding.  Floats only show
up in fast rejection filters and in reported lengths.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # gmpy2 is optional; Fraction gives the same exact results
    _mpq = Fraction

RAT_ZERO = _mpq(0)
RAT_ONE = _mpq(1)


def rat(v):
    """Coerce ints, Fractions, floats and decimal strings to the exact scalar."""
    t = type(v)
    if t is _mpq:
        return v
    if t is int:
        return _mpq(v)
    # Fraction(str) accepts decimal strings ("-3.25"), Fraction(float) is exact
    if t is str or t is float:
        return _mpq(Fraction(v))
    return _mpq(v)


class GeomError(Exception):
    pass


class Pt:
    """Exact point (doubles as a vector)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = rat(x)
        self.y = rat(y)

    def __add__(self, o):
        return Pt(self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return Pt(self.x - o.x, self.y - o.y)

    def scaled(self, k):
        k = rat(k)
        return Pt(self.x * k, self.y * k)

    def __eq__(self, o):
        return isinstance(o, Pt) and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"Pt({float(self.x):g}, {float(self.y):g})"

    def as_floats(self):
        return (float(self.x), float(self.y))


def cross(u: Pt, v: Pt):
    return u.x * v.y - u.y * v.x


def dot(u: Pt, v: Pt):
    return u.x * v.x + u.y * v.y


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the signed area of triangle a, b, c (+1 = c left of a->b)."""
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def dist2(a: Pt, b: Pt):
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def seg_length(a: Pt, b: Pt) -> float:
    return math.sqrt(float(dist2(a, b)))


def lerp(a: Pt, b: Pt, t) -> Pt:
    t = rat(t)
    return Pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    # both axes must be checked: orient is vacuous when a == b
    lox, hix = (a.x, b.x) if a.x < b.x else (b.x, a.x)
    loy, hiy = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    return lox <= p.x <= hix and loy <= p.y <= hiy


class Segment:
    """Closed segment; degenerate (a == b) only where a caller states so."""

    __slots__ = ("a", "b")

    def __init__(self, a: Pt, b: Pt):
        self.a = a
        self.b = b

    def __eq__(self, o):
        return isinstance(o, Segment) and self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Segment({self.a!r}, {self.b!r})"


def _seg_interval(a: Pt, b: Pt, axis_x: bool):
    if axis_x:
        return (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    return (a.y, b.y) if a.y <= b.y else (b.y, a.y)


def segments_intersect(s: Segment, t: Segment):
    """Classify the intersection of two closed segments.

    Returns one of:
      ("disjoint", None)
      ("proper", Pt)      transversal crossing of both interiors
      ("touch", Pt)       single shared point, not a proper crossing
      ("overlap", Segment) collinear overlap of positive length
    """
    a, b, c, d = s.a, s.b, t.a, t.b
    if a == b or c == d:
        # degenerate segments behave as points
        if a == b and c == d:
            return ("touch", a) if a == c else ("disjoint", None)
        if a == b:
            return ("touch", a) if on_segment(a, c, d) else ("disjoint", None)
        return ("touch", c) if on_segment(c, a, b) else ("disjoint", None)
    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        r = b - a
        sden = cross(r, d - c)
        snum = cross(c - a, d - c)
        return ("proper", lerp(a, b, snum / sden))

    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: compare 1-d intervals along the dominant axis
        axis_x = a.x != b.x or c.x != d.x
        lo1, hi1 = _seg_interval(a, b, axis_x)
        lo2, hi2 = _seg_interval(c, d, axis_x)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return ("disjoint", None)
        pick = lambda w: a if (a.x if axis_x else a.y) == w else (
            b if (b.x if axis_x else b.y) == w else (c if (c.x if axis_x else c.y) == w else d)
        )
        if lo == hi:
            return ("touch", pick(lo))
        return ("overlap", Segment(pick(lo), pick(hi)))

    for p, dp in ((a, d1), (b, d2)):
        if dp == 0 and on_segment(p, c, d):
            return ("touch", p)
    for p, dp in ((c, d3), (d, d4)):
        if dp == 0 and on_segment(p, a, b):
            return ("touch", p)
    return ("disjoint", None)


class LineSpec:
    """Unbounded line given by an anchor point and a direction vector.

    The stored key is the primitive integer triple (A, B, C) of
    A*x + B*y = C with a fixed sign convention, so equal lines compare
    and hash equal regardless of how they were specified.
    """

    __slots__ = ("anchor", "direction", "key")

    def __init__(self, anchor: Pt, direction: Pt):
        if direction.x == 0 and direction.y == 0:
            raise GeomError("zero direction")
        self.anchor = anchor
        self.direction = direction
        a = direction.y
        b = -direction.x
        c = a * anchor.x + b * anchor.y
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        cn, cd = c.numerator, c.denominator
        m = int(ad)
        m = m * int(bd) // math.gcd(m, int(bd))
        m = m * int(cd) // math.gcd(m, int(cd))
        ai = int(an) * (m // int(ad))
        bi = int(bn) * (m // int(bd))
        ci = int(cn) * (m // int(cd))
        g = math.gcd(math.gcd(abs(ai), abs(bi)), abs(ci))
        if g:
            ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        self.key = (ai, bi, ci)

    @classmethod
    def through(cls, p: Pt, q: Pt) -> "LineSpec":
        if p == q:
            raise GeomError("coincident points define no line")
        return cls(p, q - p)

    @classmethod
    def from_angle(cls, theta: float, anchor: Pt) -> "LineSpec":
        return cls(anchor, Pt(rat(math.cos(theta)), rat(math.sin(theta))))

    def __eq__(self, o):
        return isinstance(o, LineSpec) and self.key == o.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"LineSpec{self.key}"


def line_side(line: LineSpec, p: Pt) -> int:
    """+1 left of the direction, -1 right, 0 on the line."""
    return orient(line.anchor, line.anchor + line.direction, p)


def line_param(line: LineSpec, p: Pt):
    """Parameter t with anchor + t*direction = projection of p (exact for p on the line)."""
    d = line.direction
    return dot(p - line.anchor, d) / dot(d, d)


def line_point(line: LineSpec, t) -> Pt:
    d = line.direction
    t = rat(t)
    return Pt(line.anchor.x + t * d.x, line.anchor.y + t * d.y)


def line_hits_segment(line: LineSpec, a: Pt, b: Pt):
    """Intersection of an unbounded line with the closed segment [a, b].

    Returns None, ("pt", Pt) or ("seg", Pt, Pt).
    """
    if a == b:
        return ("pt", a) if line_side(line, a) == 0 else None
    sa = line_side(line, a)
    sb = line_side(line, b)
    if sa == 0 and sb == 0:
        return ("seg", a, b)
    if sa == 0:
        return ("pt", a)
    if sb == 0:
        return ("pt", b)
    if (sa > 0) == (sb > 0):
        return None
    u = line.direction
    ca = cross(u, a - line.anchor)
    cb = cross(u, b - line.anchor)
    return ("pt", lerp(a, b, ca / (ca - cb)))


def clip_line_to_triangle(line: LineSpec, tri_pts):
    """Clip the line against a closed triangle.

    Returns (t0, t1) line parameters with t0 <= t1 (t0 == t1 for a corner
    touch), or None when the line misses the triangle.
    """
    ts = []
    for i in range(3):
        hit = line_hits_segment(line, tri_pts[i], tri_pts[(i + 1) % 3])
        if hit is None:
            continue
        if hit[0] == "pt":
            ts.append(line_param(line, hit[1]))
        else:
            ts.append(line_param(line, hit[1]))
            ts.append(line_param(line, hit[2]))
    if not ts:
        return None
    return (min(ts), max(ts))


def point_in_triangle(p: Pt, a: Pt, b: Pt, c: Pt, closed: bool = True) -> bool:
    """Triangle membership for either winding; `closed` includes the
    boundary."""
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    if orient(a, b, c) < 0:
        o1, o2, o3 = -o1, -o2, -o3
    if closed:
        return o1 >= 0 and o2 >= 0 and o3 >= 0
    return o1 > 0 and o2 > 0 and o3 > 0


def point_seg_dist2(p: Pt, a: Pt, b: Pt):
    """Exact squared distance from p to the closed segment [a, b]."""
    ab = b - a
    den = dot(ab, ab)
    if den == 0:
        return dist2(p, a)
    t = dot(p - a, ab) / den
    if t <= 0:
        return dist2(p, a)
    if t >= 1:
        return dist2(p, b)
    return dist2(p, lerp(a, b, t))


def seg_param(a: Pt, b: Pt, p: Pt):
    """Exact parameter t of a point p known to lie on the line through a, b."""
    if a.x != b.x:
        return (p.x - a.x) / (b.x - a.x)
    return (p.y - a.y) / (b.y - a.y)


def polyline_length(pts) -> float:
    return math.fsum(seg_length(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


def dedupe_collinear(pts):
    """Drop repeated points and interior vertices that lie straight between
    their neighbors.  Canonical form used when comparing taut polylines."""
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    i = 1
    while i + 1 < len(out):
        a, b, c = out[i - 1], out[i], out[i + 1]
        if orient(a, b, c) == 0 and dot(b - a, c - b) >= 0:
            out.pop(i)
        else:
            i += 1
    return out
