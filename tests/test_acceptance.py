"""Acceptance suite.  One test per numbered criterion; each prints a
single PASS or FAIL line in the terminal summary block."""

import math
import random
import time

import pytest

from conftest import (
    arclen_sup_dist,
    crit_attempt,
    crit_pass,
    crit_register,
    instance_batch,
    perturb_homotopic,
    replay_persistence_violations,
    snap_rat,
    subdivide,
)
from oracles import locally_shortest_check, vg_shortest_in_class
from tautpath import PathPoly, PolygonalDomain
from tautpath.domain import locate, triangulate, validate
from tautpath.geom import Pt, dedupe_collinear, orient, polyline_length
from tautpath.homotopy import (
    build_sleeve,
    homotopic,
    validate_path,
    word_of,
)
from tautpath.pathlen import len_compare, path_len
from tautpath.tighten import (
    certify_efficient,
    funnel_shortest,
    tighten,
)

_NAMES = {
    1: "convex domains give the segment",
    2: "pull-tight agrees with the funnel oracle",
    3: "start-independent output",
    4: "line certificates",
    5: "meeting persistence replay",
    6: "local shortness probe",
    7: "length functional axioms",
    8: "tight output beats homotopic samples",
    9: "square-with-hole goldens",
}
for _n, _nm in _NAMES.items():
    crit_register(_n, _nm)


# ------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def batch200():
    """200 generated instances, tightened and cross-checked against the
    funnel route.  The wall clock covers both computations on prepared
    domains."""
    insts = instance_batch(200, seed0=0, max_holes=5, spread=53)
    for inst in insts:
        triangulate(inst["domain"])
    reports = []
    mismatches = []
    worst_rel = 0.0
    t0 = time.perf_counter()
    for inst in insts:
        d, p = inst["domain"], inst["path"]
        rep = tighten(p, d)
        alt = dedupe_collinear(
            funnel_shortest(build_sleeve(word_of(p, rep.tri), rep.tri), p.start, p.end)
        )
        if list(rep.path.vertices) != list(alt):
            mismatches.append(inst["name"])
        la, lb = polyline_length(rep.path.vertices), polyline_length(alt)
        worst_rel = max(worst_rel, abs(la - lb) / max(la, 1e-30))
        reports.append((inst, rep))
    elapsed = time.perf_counter() - t0
    return reports, mismatches, worst_rel, elapsed


@pytest.fixture(scope="module")
def insts20():
    return instance_batch(20, seed0=300, max_holes=3, spread=24)


@pytest.fixture(scope="module")
def tight20(insts20):
    return [tighten(inst["path"], inst["domain"]) for inst in insts20]


@pytest.fixture(scope="module")
def perturbed100(insts20, tight20):
    """Five strictly longer homotopic copies of each tightened output."""
    out = []
    for i, (inst, rep) in enumerate(zip(insts20, tight20)):
        d = inst["domain"]
        base = rep.path
        base_len = polyline_length(base.vertices)
        made = 0
        for t in range(60):
            if made == 5:
                break
            pert = perturb_homotopic(base, d, random.Random(5200 + 97 * i + t))
            if len(pert.vertices) <= len(base.vertices):
                continue
            assert polyline_length(pert.vertices) > base_len + 1e-12
            # the tighten triangulation pushes boundary-touching paths
            # inward before classifying, so corner-wrapping bases work
            assert homotopic(base, pert, rep.tri)
            out.append((inst, rep, pert))
            made += 1
        assert made == 5, inst["name"]
    return out


# ------------------------------------------------------- criterion 1


def _convex_domain(rng):
    # vertices on a circle stay convex; snapping can flatten a corner,
    # so redraw until every turn is strictly left
    while True:
        n = rng.randint(5, 9)
        angs = sorted(rng.uniform(0.0, 2 * math.pi) for _ in range(n))
        if min(b - a for a, b in zip(angs, angs[1:])) < 0.15:
            continue
        radius = rng.uniform(3.0, 8.0)
        pts = [
            Pt(snap_rat(radius * math.cos(a)), snap_rat(radius * math.sin(a)))
            for a in angs
        ]
        if len({(p.x, p.y) for p in pts}) < n:
            continue
        if any(orient(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) <= 0 for i in range(n)):
            continue
        d = PolygonalDomain(pts)
        if validate(d).ok:
            return d


def _interior_point(d, rng):
    x0, y0, x1, y1 = (float(v) for v in d.bbox())
    while True:
        p = Pt(snap_rat(rng.uniform(x0, x1)), snap_rat(rng.uniform(y0, y1)))
        if locate(d, p).kind == "interior":
            return p


def _convex_instance(seed):
    rng = random.Random(9000 + seed)
    d = _convex_domain(rng)
    for _ in range(50):
        p, q = _interior_point(d, rng), _interior_point(d, rng)
        if p == q:
            continue
        mids = [_interior_point(d, rng) for _ in range(rng.randint(1, 3))]
        path = PathPoly([p] + mids + [q])
        rep = validate_path(path, d)
        if rep.ok and not rep.touches:
            return d, path
    raise AssertionError(f"convex instance {seed} not realizable")


def test_criterion_1_convex_segment():
    crit_attempt(1)
    insts = [_convex_instance(s) for s in range(100)]
    t0 = time.perf_counter()
    reports = [tighten(path, d) for d, path in insts]
    elapsed = time.perf_counter() - t0
    for (d, path), rep in zip(insts, reports):
        assert list(rep.path.vertices) == [path.start, path.end]
    assert elapsed < 1.0
    crit_pass(1, f"100/100 hole-free instances collapse to the segment, {elapsed:.2f}s")


# ------------------------------------------------------- criterion 2


def test_criterion_2_funnel_agreement(batch200):
    crit_attempt(2)
    reports, mismatches, worst_rel, elapsed = batch200
    assert len(reports) == 200
    assert mismatches == []
    assert worst_rel <= 1e-9
    assert elapsed < 30.0
    crit_pass(
        2,
        f"200/200 vertex sequences identical, worst rel length diff {worst_rel:.1e}, {elapsed:.1f}s",
    )


# ------------------------------------------------------- criterion 3


def test_criterion_3_start_independence(insts20, tight20):
    crit_attempt(3)
    worst_sup = 0.0
    # the untouched input is start #1, the other 49 are wiggled copies
    for i, (inst, rep) in enumerate(zip(insts20, tight20)):
        d, p = inst["domain"], inst["path"]
        ref = list(rep.path.vertices)
        rng = random.Random(4100 + i)
        for _ in range(49):
            start = perturb_homotopic(p, d, rng)
            out = tighten(start, d).path
            assert list(out.vertices) == ref, inst["name"]
            worst_sup = max(worst_sup, arclen_sup_dist(ref, out.vertices))
    assert worst_sup < 1e-9
    crit_pass(
        3,
        f"20 instances x 50 starts give one vertex sequence each, sup dist {worst_sup:.1e}",
    )


# ------------------------------------------------------- criterion 4


def test_criterion_4_line_certificates(insts20, tight20, perturbed100):
    crit_attempt(4)
    sampled_min = None
    for i, (inst, rep) in enumerate(zip(insts20, tight20)):
        cert = certify_efficient(rep.path, inst["domain"], lines=1000, seed=700 + i)
        assert cert.lines_sampled >= 1000, inst["name"]
        assert cert.violations == [], inst["name"]
        assert cert.taut_vertices_ok, inst["name"]
        sampled_min = cert.lines_sampled if sampled_min is None else min(sampled_min, cert.lines_sampled)
    for k, (inst, rep, pert) in enumerate(perturbed100):
        cert = certify_efficient(
            pert, inst["domain"], lines=1000, seed=900 + k, stop_after=1
        )
        assert any(v.startswith("line ") for v in cert.violations), inst["name"]
    crit_pass(
        4,
        f"0 violations on 20 tightened outputs (>= {sampled_min} lines each),"
        f" split meeting found on all 100 perturbed copies",
    )


# ------------------------------------------------------- criterion 5


def test_criterion_5_persistence_replay(batch200, insts20, tight20, d1):
    crit_attempt(5)
    checked = 0
    # full vertex-pair families where the sleeve is small, the lines that
    # actually moved everywhere else
    for inst, rep in zip(insts20, tight20):
        assert replay_persistence_violations(rep) == [], inst["name"]
        checked += 1
    for inst, rep in batch200[0]:
        assert replay_persistence_violations(rep, moved_lines_only=True) == [], inst["name"]
        checked += 1
    for coords in (
        [(-3, 0), (0, 3), (3, 0)],
        [(-3, 0), (0, -3), (3, 0)],
        [(-3, 0), (0, 3), (3, 0), (0, -3), (-3, 0)],
    ):
        rep = tighten(PathPoly([Pt(x, y) for x, y in coords]), d1)
        assert replay_persistence_violations(rep) == []
        checked += 1
    crit_pass(5, f"{checked} move logs replayed, zero persistence violations")


# ------------------------------------------------------- criterion 6


def test_criterion_6_local_shortness(insts20, tight20, perturbed100):
    crit_attempt(6)
    for inst, rep in zip(insts20, tight20):
        assert locally_shortest_check(rep.path, inst["domain"], grid=12, tol=1e-9), inst["name"]
    for inst, rep, pert in perturbed100:
        assert not locally_shortest_check(pert, inst["domain"], grid=12, tol=1e-9), inst["name"]
    crit_pass(6, "grid-12 probe true on 20 tightened outputs, false on all 100 perturbed")


# ------------------------------------------------------- criterion 7


def test_criterion_7_len_axioms():
    crit_attempt(7)
    t0 = time.perf_counter()
    rng = random.Random(8800)
    K, R = 8, 1
    for _ in range(500):
        n = rng.randint(2, 30)
        pts = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(n)]
        full = path_len(pts, k_max=K, refine=R)
        assert 0.0 <= full.value and 0.0 <= full.error_bound
        assert full.upper < 1.0
        assert full.value > 0.0
        c, s = math.cos(0.7321), math.sin(0.7321)
        iso = [(c * x - s * y + 3.25, s * x + c * y - 1.5) for x, y in pts]
        assert abs(path_len(iso, k_max=K, refine=R).value - full.value) <= 1e-12
        if n >= 3:
            i0 = rng.randrange(n - 1)
            i1 = rng.randint(i0 + 1, n - 1)
            # the subrange grid is a subset of the full grid, so the
            # family inequality holds without error slack
            sub = path_len(pts[i0 : i1 + 1], k_max=K, refine=R)
            assert sub.value <= full.value + 1e-12
            j = rng.randint(1, n - 2)
            left = path_len(pts[: j + 1], k_max=K, refine=R)
            right = path_len(pts[j:], k_max=K, refine=R)
            assert full.value <= left.upper + right.upper + 1e-12
        moved = []
        dsup = 0.0
        for x, y in pts:
            ang, mag = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 0.03)
            moved.append((x + mag * math.cos(ang), y + mag * math.sin(ang)))
            dsup = max(dsup, mag)
        mv = path_len(moved, k_max=K, refine=R)
        assert abs(mv.value - full.value) <= 2 * dsup + 1e-12
    for x, y, m in ((0.0, 0.0, 2), (1.5, -2.25, 5)):
        cv = path_len([(x, y)] * m, k_max=K, refine=R)
        assert cv.value == 0.0 and cv.error_bound == 0.0
    # a straight run beats a tall detour strictly, past both error bounds
    worst = math.inf
    for i in range(100):
        prng = random.Random(8200 + i)
        L = prng.uniform(1.0, 2.0)
        a, b = Pt(0, 0), Pt(snap_rat(L), 0)
        m = Pt(snap_rat(L * prng.uniform(0.3, 0.7)), snap_rat(prng.uniform(4.0, 6.0)))
        seg = subdivide(PathPoly([a, b]), 0.05)
        det = subdivide(PathPoly([a, m, b]), 0.05)
        lo = path_len(seg, k_max=6, refine=0)
        hi = path_len(det, k_max=6, refine=0)
        assert lo.upper < hi.value
        assert len_compare(seg, det, k_max=6, refine=0) == "less"
        worst = min(worst, hi.value - lo.upper)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    crit_pass(
        7,
        f"500 polylines satisfy the bound, zero, isometry, subrange, split and"
        f" stability axioms; 100 detour pairs strict (worst margin {worst:+.3f}); {elapsed:.1f}s",
    )


# ------------------------------------------------------- criterion 8


def _roomy_instance(seed):
    """Big jittered square with one small hole near the center and a short
    straight input far above it, so tall excursions stay in one class."""
    rng = random.Random(7000 + seed)
    corners = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        corners.append(
            Pt(
                snap_rat(sx * (12.0 + rng.uniform(0.0, 1.5))),
                snap_rat(sy * (12.0 + rng.uniform(0.0, 1.5))),
            )
        )
    cx, cy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    hw = rng.uniform(0.4, 0.9)
    hole = [
        Pt(snap_rat(cx - hw), snap_rat(cy - hw)),
        Pt(snap_rat(cx - hw), snap_rat(cy + hw)),
        Pt(snap_rat(cx + hw), snap_rat(cy + hw)),
        Pt(snap_rat(cx + hw), snap_rat(cy - hw)),
    ]
    d = PolygonalDomain(corners, [hole])
    assert validate(d).ok
    py = snap_rat(rng.uniform(5.5, 6.5))
    px = snap_rat(rng.uniform(-2.5, -0.5))
    p, q = Pt(px, py), Pt(px + snap_rat(rng.uniform(0.8, 1.6)), py)
    path = PathPoly([p, q])
    rep = validate_path(path, d)
    assert rep.ok and not rep.touches
    return d, path


def _excursion(d, p, q, rng):
    """Two-leg detour through a high point; kept in the segment's class by
    an empty straight-line homotopy triangle p, m, q."""
    for _ in range(40):
        mx = (p.x + q.x) / 2 + snap_rat(rng.uniform(-0.6, 0.6))
        m = Pt(mx, p.y + snap_rat(rng.uniform(3.0, 4.5)))
        cand = PathPoly([p, m, q])
        rep = validate_path(cand, d)
        if not rep.ok or rep.touches:
            continue
        clear = True
        for _, ring in d.rings():
            for v in ring:
                s1, s2, s3 = orient(p, m, v), orient(m, q, v), orient(q, p, v)
                if (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0):
                    clear = False
        if clear:
            return cand
    raise AssertionError("no excursion found")


def test_criterion_8_tight_beats_samples():
    crit_attempt(8)
    worst = math.inf
    nsamp = 0
    for s in range(50):
        d, path = _roomy_instance(s)
        rep = tighten(path, d)
        # finer sampling narrows the certified interval around the same
        # functional value; it does not change the curve
        lt = path_len(subdivide(rep.path, 0.04), k_max=6, refine=0)
        rng = random.Random(7500 + s)
        for _ in range(20):
            samp = _excursion(d, path.start, path.end, rng)
            assert homotopic(rep.path, samp, triangulate(d))
            ls = path_len(subdivide(samp, 0.04), k_max=6, refine=0)
            assert lt.upper < ls.value
            worst = min(worst, ls.value - lt.upper)
            nsamp += 1
    crit_pass(8, f"{nsamp} homotopic samples certifiably longer, worst margin {worst:+.3f}")


# ------------------------------------------------------- criterion 9


GOLD_TOP_LEN = 2 + 2 * math.sqrt(5.0)
GOLD_LOOP_LEN = 6 + 2 * math.sqrt(5.0)


def test_criterion_9_square_goldens(d1):
    crit_attempt(9)
    top = PathPoly([Pt(-3, 0), Pt(0, 3), Pt(3, 0)])
    ov, olen = vg_shortest_in_class(d1, top)
    assert abs(olen - GOLD_TOP_LEN) <= 1e-9
    rep = tighten(top, d1)
    assert list(rep.path.vertices) == ov
    assert abs(polyline_length(rep.path.vertices) - olen) <= 1e-9

    # counterclockwise by the shoelace sign: under the hole first
    loop = PathPoly([Pt(-3, 0), Pt(0, -3), Pt(3, 0), Pt(0, 3), Pt(-3, 0)])
    lv, llen = vg_shortest_in_class(d1, loop)
    assert abs(llen - GOLD_LOOP_LEN) <= 1e-9
    rep2 = tighten(loop, d1)
    assert list(rep2.path.vertices) == lv
    assert abs(polyline_length(rep2.path.vertices) - llen) <= 1e-9
    crit_pass(9, "oracle and pull-tight agree on both golden routes within 1e-9")
