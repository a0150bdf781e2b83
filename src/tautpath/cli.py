"""Command line front end.

Instance files are JSON with exact coordinates: every number is written
as a decimal string when the value has a finite decimal form and as
"p/q" otherwise, so read/write round-trips are byte identical for
canonical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import asdict

from .domain import PolygonalDomain, TriangulationError, triangulate, validate
from .geom import GeomError, Pt, polyline_length, rat
from .homotopy import (
    EndpointMismatch,
    PathPoly,
    WordError,
    homotopic,
    validate_path,
)
from .pathlen import path_len
from .tighten import (
    ChordMismatch,
    InvalidPath,
    NonTerminating,
    certify_efficient,
    tighten,
)


class ParseError(Exception):
    pass


# ------------------------------------------------------------ coordinates


def coord_str(q) -> str:
    """Canonical exact string for a rational: decimal when finite,
    \"p/q\" otherwise."""
    q = rat(q)
    num, den = int(q.numerator), int(q.denominator)
    neg = num < 0
    num = abs(num)
    d = den
    two = five = 0
    while d % 2 == 0:
        d //= 2
        two += 1
    while d % 5 == 0:
        d //= 5
        five += 1
    if d != 1:
        return f"{'-' if neg else ''}{num}/{den}"
    m = max(two, five)
    scaled = num * 10**m // den
    s = str(scaled).rjust(m + 1, "0")
    if m:
        s = (s[:-m] + "." + s[-m:]).rstrip("0").rstrip(".")
    return ("-" if neg else "") + s


# Reports (lengths, path_len, the SVG, random lines) are floats; below this
# bound every coordinate difference and segment length fits a float.
COORD_LIMIT = 2**1022


def parse_coord(v):
    try:
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise TypeError("not a number")
        q = rat(v.strip() if isinstance(v, str) else v)
        if abs(q) > COORD_LIMIT:
            raise ValueError("magnitude above 2**1022")
        return q
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as e:
        raise ParseError(f"bad coordinate {v!r}: {e}") from None


def _parse_points(obj, what, least):
    if not isinstance(obj, list) or len(obj) < least:
        raise ParseError(f"{what} must be a list of at least {least} points")
    out = []
    for p in obj:
        if not isinstance(p, list) or len(p) != 2:
            raise ParseError(f"{what} contains a malformed point: {p!r}")
        out.append(Pt(parse_coord(p[0]), parse_coord(p[1])))
    return out


def read_instance(fp: str) -> dict:
    try:
        with open(fp) as f:
            raw = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {fp}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{fp} is not valid JSON: {e}") from None
    if not isinstance(raw, dict) or "domain" not in raw:
        raise ParseError(f"{fp}: missing \"domain\"")
    dom = raw["domain"]
    if not isinstance(dom, dict) or "outer" not in dom:
        raise ParseError(f"{fp}: domain needs an \"outer\" ring")
    outer = _parse_points(dom["outer"], "outer ring", 3)
    holes = dom.get("holes", [])
    if not isinstance(holes, list):
        raise ParseError(f"{fp}: \"holes\" must be a list of rings")
    holes = [_parse_points(h, f"hole {i}", 3) for i, h in enumerate(holes)]
    path = None
    if raw.get("path") is not None:
        path = PathPoly(_parse_points(raw["path"], f"{fp}: path", 2))
    return {
        "name": raw.get("name", os.path.basename(fp)),
        "seed": raw.get("seed", 0),
        "domain": PolygonalDomain(outer, holes),
        "path": path,
    }


def instance_json(inst: dict) -> str:
    d = inst["domain"]
    obj = {
        "name": inst["name"],
        "seed": inst["seed"],
        "domain": {
            "outer": [[coord_str(p.x), coord_str(p.y)] for p in d.outer],
            "holes": [
                [[coord_str(p.x), coord_str(p.y)] for p in h] for h in d.holes
            ],
        },
        "path": None
        if inst.get("path") is None
        else [[coord_str(p.x), coord_str(p.y)] for p in inst["path"].vertices],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _atomic_write(fp: str, text: str):
    dirn = os.path.dirname(os.path.abspath(fp))
    fd, tmp = tempfile.mkstemp(dir=dirn, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, fp)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- svg


def render_svg(d: PolygonalDomain, input_pts, output_pts) -> str:
    x0, y0, x1, y1 = (float(v) for v in d.bbox())
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = span * 0.06
    fmt = lambda v: f"{v:.6f}"

    def ring_d(ring):
        ps = [(float(p.x), float(p.y)) for p in ring]
        return (
            "M "
            + " L ".join(f"{fmt(x)},{fmt(-y)}" for x, y in ps)
            + " Z"
        )

    def poly_pts(pts):
        return " ".join(f"{fmt(float(p.x))},{fmt(-float(p.y))}" for p in pts)

    # y is flipped so the picture is in the usual orientation
    vb = f"{fmt(x0 - pad)} {fmt(-y1 - pad)} {fmt(x1 - x0 + 2 * pad)} {fmt(y1 - y0 + 2 * pad)}"
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{vb}">',
        "<style>",
        ".domain { fill: #eceff1; stroke: #263238; stroke-width: 0.5%; }",
        ".input { fill: none; stroke: #78909c; stroke-width: 0.6%; stroke-dasharray: 2% 1%; }",
        ".output { fill: none; stroke: #c62828; stroke-width: 0.8%; stroke-linejoin: round; }",
        ".endpoint { fill: #263238; }",
        "</style>",
        '<path class="domain" fill-rule="evenodd" d="'
        + " ".join(ring_d(r) for _, r in d.rings())
        + '"/>',
    ]
    if input_pts:
        body.append(f'<polyline class="input" points="{poly_pts(input_pts)}"/>')
    if output_pts:
        body.append(f'<polyline class="output" points="{poly_pts(output_pts)}"/>')
        r = span * 0.01
        for p in (output_pts[0], output_pts[-1]):
            body.append(
                f'<circle class="endpoint" cx="{fmt(float(p.x))}" cy="{fmt(-float(p.y))}" r="{fmt(r)}"/>'
            )
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ------------------------------------------------------------- generator


def _snap(v: float, grid: int):
    return rat(round(v * grid)) / grid


def _gen_outer(rng: random.Random, nverts: int):
    pts = []
    for k in range(nverts):
        theta = 2 * math.pi * (k + 0.5 * (rng.random() - 0.5)) / nverts
        radius = rng.uniform(5.0, 9.5)
        pts.append(
            Pt(_snap(radius * math.cos(theta), 4), _snap(radius * math.sin(theta), 4))
        )
    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    return out


def _gen_hole(rng: random.Random):
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
    pts = [Pt(_snap(x, 4), _snap(y, 4)) for x, y in ccw]
    pts.reverse()  # holes are clockwise
    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    return out if len(out) >= 3 else None


def _gen_path(rng: random.Random, d: PolygonalDomain):
    from .domain import locate

    x0, y0, x1, y1 = (float(v) for v in d.bbox())

    def interior_point():
        for _ in range(300):
            p = Pt(_snap(rng.uniform(x0, x1), 8), _snap(rng.uniform(y0, y1), 8))
            if locate(d, p).kind == "interior":
                return p
        return None

    for _ in range(60):
        k = 2 + rng.randrange(3)
        pts = []
        bad = False
        for _ in range(k):
            p = interior_point()
            if p is None:
                bad = True
                break
            pts.append(p)
        if bad or len(set(pts)) < len(pts):
            continue
        cand = PathPoly(pts)
        rep = validate_path(cand, d)
        if rep.ok and not rep.touches:
            return cand
    return None


def _with_hole(rng: random.Random, d: PolygonalDomain):
    """d plus one random hole that keeps it valid, or None after 400 tries.
    The domain returned has been validated, and keeps that memo."""
    for _ in range(400):
        cand = _gen_hole(rng)
        if cand is None:
            continue
        trial = PolygonalDomain(d.outer, d.holes + [cand])
        if validate(trial).ok:
            return trial
    return None


def generate_instance(seed: int, holes: int = 1, vertices: int = 10) -> dict:
    rng = random.Random(1000003 * seed + 17)
    for _ in range(300):
        outer = _gen_outer(rng, vertices)
        d = PolygonalDomain(outer)
        if len(outer) < 3 or not validate(d).ok:
            continue
        for _ in range(holes):
            d = _with_hole(rng, d)
            if d is None:
                break
        if d is None:
            continue
        triangulate(d)  # kept on the domain; a failure is a defect, not a redraw
        path = _gen_path(rng, d)
        if path is None:
            continue
        return {"name": f"gen-{seed}", "seed": seed, "domain": d, "path": path}
    raise GeomError(f"instance generation failed for seed {seed}")


# ---------------------------------------------------------------- commands


def _load_with_path(fp: str) -> dict:
    inst = read_instance(fp)
    if inst["path"] is None:
        raise ParseError(f"{fp}: instance has no path")
    return inst


def _cmd_validate(args) -> int:
    inst = read_instance(args.instance)
    rep = validate(inst["domain"])
    ok = rep.ok
    for v in rep.violations:
        print(f"domain: {v}")
    if ok and inst["path"] is not None:
        path_rep = validate_path(inst["path"], inst["domain"])
        ok = path_rep.ok
        for v in path_rep.violations:
            print(f"path: {v}")
        if path_rep.ok and path_rep.touches:
            print("path: valid only up to boundary contact")
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_tighten(args) -> int:
    inst = _load_with_path(args.instance)
    rep = tighten(inst["path"], inst["domain"])
    cert = None
    if args.certify_lines:
        cert = certify_efficient(rep.path, inst["domain"], lines=args.certify_lines, seed=args.seed)
    spur = sum(1 for m in rep.moves if m.kind == "spur")
    in_len = polyline_length(inst["path"].vertices)
    out_len = polyline_length(rep.moves[-1].verts_after) if rep.moves else in_len
    print(f"input length  : {in_len:.12f}")
    print(f"output length : {out_len:.12f}")
    print(f"moves         : {len(rep.moves)} ({spur} spur, {len(rep.moves) - spur} chord)")
    print(f"word length   : {rep.word_length}")
    if cert is None:
        print("certificate   : skipped")
    elif cert.ok:
        print(f"certificate   : ok ({cert.lines_sampled} lines)")
    else:
        print(f"certificate   : FAILED ({len(cert.violations)} violations)")
        for v in cert.violations[:5]:
            print(f"  {v}")
    if args.svg:
        _atomic_write(
            args.svg, render_svg(inst["domain"], inst["path"].vertices, rep.path.vertices)
        )
    if args.json:
        lv = path_len(rep.path)
        record = {
            "name": inst["name"],
            "input_length": in_len,
            "output_length": out_len,
            "len_value": lv.value,
            "len_error_bound": lv.error_bound,
            "moves": len(rep.moves),
            "word_length": rep.word_length,
            "vertices": [
                [coord_str(p.x), coord_str(p.y)] for p in rep.path.vertices
            ],
            "certificate": None if cert is None else asdict(cert),
            "wall_time": rep.wall_time,
        }
        _atomic_write(args.json, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 2 if cert is not None and not cert.ok else 0


def _cmd_homotopic(args) -> int:
    a = _load_with_path(args.instance_a)
    b = _load_with_path(args.instance_b)
    da, db = a["domain"], b["domain"]
    if da.outer != db.outer or da.holes != db.holes:
        print("instances describe different domains")
        return 1
    print("homotopic" if homotopic(a["path"], b["path"], triangulate(da)) else "not homotopic")
    return 0


def _cmd_len(args) -> int:
    inst = _load_with_path(args.instance)
    lv = path_len(inst["path"], k_max=args.kmax, refine=args.refine)
    print(f"value       : {lv.value:.12f}")
    print(f"error bound : {lv.error_bound:.12f}")
    return 0


def _cmd_gen(args) -> int:
    inst = generate_instance(args.seed, holes=args.holes, vertices=args.vertices)
    text = instance_json(inst)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# the least value each integer option accepts
_MINIMA = {"certify_lines": 0, "kmax": 1, "refine": 0, "holes": 0, "vertices": 3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tautpath",
        description="Shortest-in-class paths in polygonal domains with holes.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="check an instance file")
    v.add_argument("instance")

    t = sub.add_parser("tighten", help="pull a path tight within its class")
    t.add_argument("instance")
    t.add_argument("--certify-lines", type=int, default=0, metavar="N")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--svg", metavar="FILE")
    t.add_argument("--json", metavar="FILE")

    h = sub.add_parser("homotopic", help="compare two paths in one domain")
    h.add_argument("instance_a")
    h.add_argument("instance_b")

    ln = sub.add_parser("len", help="bounded length of the instance path")
    ln.add_argument("instance")
    ln.add_argument("--kmax", type=int, default=8)
    ln.add_argument("--refine", type=int, default=3)

    g = sub.add_parser("gen", help="generate a deterministic instance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--holes", type=int, default=1)
    g.add_argument("--vertices", type=int, default=10)
    g.add_argument("--out", metavar="FILE")

    args = ap.parse_args(argv)
    for name, least in _MINIMA.items():
        if getattr(args, name, least) < least:
            print(f"error: --{name.replace('_', '-')} must be at least {least}", file=sys.stderr)
            return 1
    handlers = {
        "validate": _cmd_validate,
        "tighten": _cmd_tighten,
        "homotopic": _cmd_homotopic,
        "len": _cmd_len,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.cmd](args)
    except (ParseError, InvalidPath, EndpointMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NonTerminating, ChordMismatch, WordError, TriangulationError, GeomError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
