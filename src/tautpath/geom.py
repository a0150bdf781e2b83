"""Exact planar primitives.

Every incidence or side-of decision is made in rational arithmetic, so
nothing downstream depends on floating point rounding.  Floats only show
up in fast rejection filters and in reported lengths.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rat(v):
    """Coerce ints, Fractions, floats and decimal strings to the exact scalar.
    Fraction(str) accepts decimal strings ("-3.25"), Fraction(float) is exact."""
    return v if type(v) is Fraction else Fraction(v)


class GeomError(Exception):
    pass


class Pt:
    """Exact point (doubles as a vector).  `fx`, `fy` are the nearest
    floats of the coordinates, read only by the float filters in `orient`
    and `segments_intersect`."""

    __slots__ = ("x", "y", "fx", "fy")

    def __init__(self, x, y):
        self.x = rat(x)
        self.y = rat(y)
        try:
            self.fx, self.fy = float(self.x), float(self.y)
        except OverflowError:  # NaN sends every float filter to the exact test
            self.fx = self.fy = math.nan

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


def _homog(p: Pt):
    """Integers (X, Y, W), W > 0, with p = (X/W, Y/W)."""
    x, y = p.x, p.y
    dx, dy = int(x.denominator), int(y.denominator)
    if dx == dy:
        return int(x.numerator), int(y.numerator), dx
    w = dx * dy // math.gcd(dx, dy)
    return int(x.numerator) * (w // dx), int(y.numerator) * (w // dy), w


# Float filter for `orient`: with u = 2**-53 and M the largest coordinate
# magnitude, the float determinant is off by at most about 48uM**2, so
# 64uM**2 decides safely; the absolute term covers subnormals, and
# magnitudes from 1e100 up, whose products could overflow, go exact.
_ORIENT_REL, _ORIENT_ABS = 64 * 2.0**-53, 1e-290


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the signed area of triangle a, b, c (+1 = c left of a->b)."""
    ax, ay = a.fx, a.fy
    m = max(abs(ax), abs(ay), abs(b.fx), abs(b.fy), abs(c.fx), abs(c.fy))
    if m < 1e100:
        det = (b.fx - ax) * (c.fy - ay) - (b.fy - ay) * (c.fx - ax)
        bound = _ORIENT_REL * m * m + _ORIENT_ABS
        if det > bound:
            return 1
        if det < -bound:
            return -1
    # exact: the homogeneous determinant, whose W's are all positive
    xa, ya, wa = _homog(a)
    xb, yb, wb = _homog(b)
    xc, yc, wc = _homog(c)
    v = xa * (yb * wc - wb * yc) - ya * (xb * wc - wb * xc) + wa * (xb * yc - yb * xc)
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
    """Euclidean length, finite whenever the length fits a float."""
    try:
        return math.sqrt(float(dist2(a, b)))
    except OverflowError:  # the squared length does not fit a float
        return math.hypot(float(a.x - b.x), float(a.y - b.y))


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
    # rounding to floats keeps order, so disjoint float boxes are disjoint
    if max(a.fx, b.fx) < min(c.fx, d.fx) or max(c.fx, d.fx) < min(a.fx, b.fx):
        return ("disjoint", None)
    if max(a.fy, b.fy) < min(c.fy, d.fy) or max(c.fy, d.fy) < min(a.fy, b.fy):
        return ("disjoint", None)
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

    __slots__ = ("anchor", "direction", "tip", "key", "_frame")

    def __init__(self, anchor: Pt, direction: Pt):
        if direction.x == 0 and direction.y == 0:
            raise GeomError("zero direction")
        self.anchor = anchor
        self.direction = direction
        self.tip = anchor + direction
        self._frame = None
        # (A, B, C) is proportional to (u.y, -u.x, u.y*o.x - u.x*o.y)
        x, y, w = _homog(anchor)
        dx, dy, _ = _homog(direction)
        ai, bi, ci = dy * w, -dx * w, dy * x - dx * y
        g = math.gcd(ai, bi, ci)
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        self.key = (ai, bi, ci)

    @classmethod
    def through(cls, p: Pt, q: Pt) -> "LineSpec":
        if p == q:
            raise GeomError("coincident points define no line")
        return cls(p, q - p)

    def __eq__(self, o):
        return isinstance(o, LineSpec) and self.key == o.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"LineSpec{self.key}"


def line_side(line: LineSpec, p: Pt) -> int:
    """+1 left of the direction, -1 right, 0 on the line."""
    return orient(line.anchor, line.tip, p)


def _line_frame(line: LineSpec):
    """Integers (A, B, C, g0n, g0d, sn, sd) for exact line parameters.  The
    key A*x + B*y = C gives direction (-B, A) / lam, so a point p projects
    to parameter lam * (g(p) - g(anchor)) / (A**2 + B**2) with
    g(p) = A*p.y - B*p.x, g(anchor) = g0n / g0d, lam / (A**2 + B**2) = sn / sd."""
    if line._frame is None:
        A, B, C = line.key
        u, o = line.direction, line.anchor
        lam = rat(-B) / u.x if u.x != 0 else rat(A) / u.y
        g0, sc = A * o.y - B * o.x, lam / (A * A + B * B)
        line._frame = (A, B, C, g0.numerator, g0.denominator, sc.numerator, sc.denominator)
    return line._frame


def _param_of_g(fr, gn, gd):
    """Line parameter of a point whose g (see `_line_frame`) is gn / gd."""
    _, _, _, g0n, g0d, sn, sd = fr
    return Fraction((gn * g0d - g0n * gd) * sn, gd * g0d * sd)


def line_param(line: LineSpec, p: Pt):
    """Parameter t with anchor + t*direction = projection of p (exact for p on the line)."""
    x, y, w = _homog(p)
    fr = _line_frame(line)
    return _param_of_g(fr, fr[0] * y - fr[1] * x, w)


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
    A, B, C = line.key
    xa, ya, wa = _homog(a)
    xb, yb, wb = _homog(b)
    # the residual of A*x + B*y = C is affine along the segment
    fa, fb = A * xa + B * ya - C * wa, A * xb + B * yb - C * wb
    den = fa * wb - fb * wa
    return ("pt", Pt(Fraction(fa * xb - fb * xa, den), Fraction(fa * yb - fb * ya, den)))


def clip_line_to_triangle(line: LineSpec, tri_pts):
    """Clip the line against a closed triangle.

    Returns (t0, t1) line parameters with t0 <= t1 (t0 == t1 for a corner
    touch), or None when the line misses the triangle.
    """
    sides = [line_side(line, p) for p in tri_pts]
    if sides[0] == sides[1] == sides[2] != 0:
        return None
    fr = _line_frame(line)
    A, B, C = line.key
    hs = [_homog(p) for p in tri_pts]
    fs = [A * x + B * y - C * w for x, y, w in hs]  # residuals times w
    gs = [A * y - B * x for x, y, w in hs]
    ts = [_param_of_g(fr, gs[i], hs[i][2]) for i in range(3) if sides[i] == 0]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        if sides[i] * sides[j] < 0:
            # g is affine along the edge; take it where the residual is 0
            gn, gd = fs[i] * gs[j] - fs[j] * gs[i], fs[i] * hs[j][2] - fs[j] * hs[i][2]
            ts.append(_param_of_g(fr, gn, gd))
    return (min(ts), max(ts))


def point_in_triangle(p: Pt, a: Pt, b: Pt, c: Pt) -> bool:
    """Membership in the closed triangle, for either winding."""
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    if orient(a, b, c) < 0:
        o1, o2, o3 = -o1, -o2, -o3
    return o1 >= 0 and o2 >= 0 and o3 >= 0


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
    """Euclidean length, inf when it does not fit a float."""
    try:
        return math.fsum(seg_length(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
    except OverflowError:
        return math.inf


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
