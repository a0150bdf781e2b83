"""Bounded length functional: axioms, brute-force cross-checks, orderings."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tautpath.pathlen import path_len, len_compare, gauge
from oracles import brute_len_value, slot_loop_len_value

OVER = [(-3, 0), (0, 3), (3, 0)]
GOLD = [(-3, 0), (-1, 1), (1, 1), (3, 0)]


def chop(pts, target):
    """Insert collinear points until no chord exceeds target."""
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        n = max(1, math.ceil(math.dist(a, b) / target))
        for i in range(1, n + 1):
            out.append((a[0] + (b[0] - a[0]) * i / n, a[1] + (b[1] - a[1]) * i / n))
    return out


# --- basic values ---


def test_constant_path_is_zero():
    for pts in ([(2, 3)], [(2, 3)] * 4):
        lv = path_len(pts, 8, 3)
        assert lv.value == 0.0
        assert lv.error_bound == 0.0


def test_unit_segment_reference_value():
    lv = path_len([(0, 0), (1, 0)], 20, 6)
    assert lv.value >= 0.25  # the single-interval family alone gives g(1)/2
    assert lv.upper < 1.0
    # optimal two-interval split, frozen from the exhaustive search
    assert abs(lv.value - 37.0 / 140.0) < 1e-9


def test_matches_brute_force_on_small_grids():
    cases = [
        [(0, 0), (1, 0), (1, 1)],
        [(0, 0), (2, 0), (1, 1), (3, 1)],
        [(0, 0), (0.25, 0), (0.5, 0), (0.75, 0), (1, 0)],
        [(-1, 0), (0, 2), (1, 0)],
        [(0, 0), (3, 1), (1, 2), (4, 4), (0, 5), (2, -1)],
        [(0, 0), (0.5, 2), (1, 0), (1.5, 2), (2, 0), (2.5, 2)],
    ]
    for pts in cases:
        for k in range(1, 7):
            got = path_len(pts, k, refine=0).value
            want = brute_len_value(pts, k)
            assert abs(got - want) < 1e-12, (pts, k)


def test_every_slot_filled_matches_brute_force():
    # seven points that turn back at every vertex hold six intervals whose
    # union beats any merge, so the best family at k = 6 fills the last
    # weight slot too
    for pts in (
        [(0, 0), (1, 0)] * 3 + [(0, 0)],
        [(0, 0), (1, 0), (0.1, 0.2), (1.3, 0.1), (0, 0.3), (0.9, 0.4), (0.2, 0.1)],
    ):
        assert brute_len_value(pts, 6) > brute_len_value(pts, 5)
        for k in (5, 6):
            got = path_len(pts, k, refine=0).value
            want = brute_len_value(pts, k)
            assert abs(got - want) < 1e-12, (pts, k)


@given(
    st.lists(
        st.tuples(
            st.integers(-12, 12).map(lambda v: v / 4.0),
            st.integers(-12, 12).map(lambda v: v / 4.0),
        ),
        min_size=2,
        max_size=6,
    ),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_exact_search_matches_brute(pts, k):
    got = path_len(pts, k, refine=0).value
    want = brute_len_value(pts, k)
    assert abs(got - want) < 1e-12


def _ranked_zigzags(k):
    """Zigzags along the x-axis whose legs, after a short first one, take
    the ranks of an ordering of the k weight slots: the leg of rank r has
    length 1 - r/512.  The legs differ so little that no merge of legs
    pays, so the best family puts leg r in slot r, and the DP's chain to
    it passes through the ordering's prefix masks.  One ordering is made
    for each (mask, slot) pair that no earlier one passes, so every entry
    of the slot tables lies on some best chain."""
    met = set()
    for m in range(1 << k):
        for s in range(k):
            if not m >> s & 1 or (m, s) in met:
                continue
            order = [r for r in range(k) if m >> r & 1 and r != s] + [s]
            order += [r for r in range(k) if not m >> r & 1]
            x, pts, acc = -1 / 16, [(0.0, 0.0), (-1 / 16, 0.0)], 0
            for leg, r in enumerate(order):
                x += (-1) ** leg * (1.0 - r / 512)
                pts.append((x, 0.0))
                acc |= 1 << r
                met.add((acc, r))
            yield pts


def _slot_loop_cases():
    """(pts, k_max, refine) inputs for the reference comparison: random
    polylines whose grids hold 1 to about 200 points at every k_max and
    refine, then repeated points, collinear chops, detour pairs and the
    ranked zigzags."""
    rng = random.Random(2500)
    cases = []
    for k_max in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
        for refine in range(4):
            for grid in (1, 2, 5, 24, 200):
                n = 1 + (grid - 1) // (1 << refine)
                pts = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(n)]
                cases.append((pts, k_max, refine))
    for refine in (0, 2):
        for k_max in (3, 8):
            cases.append(([(2, 3)] * 4, k_max, refine))
            cases.append(([(0, 0), (0, 0), (1, 2), (1, 2), (1, 2), (3, 1)], k_max, refine))
    for k_max in (8, 12):
        cases.append((chop(OVER, 0.05), k_max, 0))
        cases.append((chop(GOLD, 0.1), k_max, 1))
    for _ in range(6):
        L = rng.uniform(1.0, 2.0)
        top = (L * rng.uniform(0.3, 0.7), rng.uniform(4.0, 6.0))
        cases.append((chop([(0, 0), (L, 0)], 0.05), 6, 0))
        cases.append((chop([(0, 0), top, (L, 0)], 0.05), 6, 0))
    for k in range(1, 9):
        cases.extend((pts, k, 0) for pts in _ranked_zigzags(k))
    return cases


def test_matches_slot_loop_reference_exactly():
    # the DP takes the same float sums and exact maxima as the per-slot
    # loop, so value and error bound agree to the last bit
    for pts, k_max, refine in _slot_loop_cases():
        got = path_len(pts, k_max, refine)
        want = slot_loop_len_value(pts, k_max, refine)
        assert got.value == want.value, (len(pts), k_max, refine)
        assert got.error_bound == want.error_bound, (len(pts), k_max, refine)


def test_deeper_families_only_raise_value():
    for pts in (OVER, GOLD, [(0, 0), (5, 1), (2, 4), (7, 3)]):
        lo = path_len(pts, 8, 4)
        hi = path_len(pts, 20, 4)
        assert hi.value >= lo.value - 1e-15
        assert hi.error_bound <= lo.error_bound + 1e-15


# --- the seven-axiom contract ---


@given(
    st.lists(
        st.tuples(
            st.integers(-800, 800).map(lambda v: v / 8.0),
            st.integers(-800, 800).map(lambda v: v / 8.0),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 12),
    st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_axiom_bounded(pts, k_max, refine):
    lv = path_len(pts, k_max, refine)
    assert lv.value >= 0.0
    assert lv.error_bound >= 0.0
    assert lv.value + lv.error_bound < 1.0


def test_axiom_zero_iff_constant():
    assert path_len([(1, 1), (1, 1)], 8, 3).value == 0.0
    nonconst = path_len([(1, 1), (1, 1.001)], 8, 3)
    assert nonconst.value > 0.0
    # certified positivity once the path is long enough
    seg = path_len([(0, 0), (1, 0)], 8, 5)
    assert seg.value - seg.error_bound > 0.0


def test_axiom_isometry_invariance():
    base = [(0, 0), (2, 1), (1, 3), (-1, 2)]
    lv = path_len(base, 8, 3)
    quarter = [(-y, x) for x, y in base]
    mirrored = [(-x, y) for x, y in base]
    shifted = [(x + 17, y - 9) for x, y in base]
    c, s = math.cos(0.7321), math.sin(0.7321)
    rotated = [(c * x - s * y + 3, s * x + c * y - 5) for x, y in base]
    for pts in (quarter, mirrored, shifted, rotated):
        other = path_len(pts, 8, 3)
        assert abs(other.value - lv.value) < 1e-12
        assert abs(other.error_bound - lv.error_bound) < 1e-12


def test_axiom_subpath_never_longer():
    pts = [(0, 0), (3, 0), (3, 4), (1, 5), (-2, 2)]
    full = path_len(pts, 8, 3).value
    for i in range(len(pts)):
        for j in range(i + 1, len(pts) + 1):
            sub = path_len(pts[i:j], 8, 3).value
            assert sub <= full + 1e-12


def test_axiom_subpath_strictly_smaller_beyond_bounds():
    full = path_len(chop([(0, 0), (3, 0), (3, 4)], 0.02), 8, 0)
    sub = path_len(chop([(0, 0), (3, 0)], 0.02), 8, 0)
    assert sub.value + sub.error_bound < full.value - full.error_bound


def test_axiom_split_subadditive():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (1, 1)]
    whole = path_len(pts, 8, 3)
    for cut in range(1, len(pts) - 1):
        left = path_len(pts[: cut + 1], 8, 3)
        right = path_len(pts[cut:], 8, 3)
        assert whole.value <= (
            left.value + left.error_bound + right.value + right.error_bound + 1e-12
        )


def test_axiom_split_strictly_smaller_beyond_bounds():
    whole = path_len(chop([(0, 0), (4, 0), (4, 4)], 0.05), 8, 0)
    left = path_len(chop([(0, 0), (4, 0)], 0.05), 8, 0)
    right = path_len(chop([(4, 0), (4, 4)], 0.05), 8, 0)
    assert (
        whole.value + whole.error_bound
        < left.value - left.error_bound + right.value - right.error_bound
    )


@given(
    st.lists(
        st.tuples(
            st.integers(-40, 40).map(lambda v: v / 4.0),
            st.integers(-40, 40).map(lambda v: v / 4.0),
        ),
        min_size=2,
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.integers(-8, 8).map(lambda v: v / 16.0),
            st.integers(-8, 8).map(lambda v: v / 16.0),
        ),
        min_size=5,
        max_size=5,
    ),
)
@settings(max_examples=80, deadline=None)
def test_axiom_two_lipschitz_in_sup_distance(pts, deltas):
    moved = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(pts, deltas)]
    d_sup = max(
        math.dist(a, b) for a, b in zip(pts, moved)
    )
    la = path_len(pts, 8, 2)
    lb = path_len(moved, 8, 2)
    assert abs(la.value - lb.value) <= 2.0 * d_sup + 1e-12


def test_collinear_insertion_stays_within_error_bound():
    pts = [(0, 0), (2, 1), (1, 3)]
    base = path_len(pts, 8, 3)
    dense = []
    for a, b in zip(pts, pts[1:]):
        dense.append(a)
        dense.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    dense.append(pts[-1])
    again = path_len(dense, 8, 3)
    assert abs(again.value - base.value) <= base.error_bound + 1e-12


# --- comparisons ---


def test_compare_path_with_itself():
    assert len_compare(GOLD, GOLD, 8, 3) == "indistinguishable"


def test_compare_segment_beats_detour():
    seg = chop([(0, 0), (1, 0)], 0.05)
    detour = chop([(0, 0), (0.5, 3), (1, 0)], 0.05)
    assert len_compare(seg, detour, 8, 0) == "less"
    assert len_compare(detour, seg, 8, 0) == "greater"


def test_flat_route_pair_at_coarse_parameters():
    # long edges leave the discretization term larger than the true gap,
    # so the prescribed coarse evaluation cannot certify an ordering
    lo = path_len(OVER, 20, 6)
    lg = path_len(GOLD, 20, 6)
    assert abs(lo.value - 0.6754373050700501) < 1e-9
    assert abs(lo.error_bound - 0.13648877147247765) < 1e-9
    assert abs(lg.value - 0.6223139764038697) < 1e-9
    assert abs(lg.error_bound - 0.07378337429686843) < 1e-9
    assert lo.value > lg.value  # raw lower bounds do order correctly
    assert lo.value - lg.value < lo.error_bound + lg.error_bound
    assert len_compare(OVER, GOLD, 20, 6) == "indistinguishable"


def test_flat_route_pair_certified_on_fine_grid():
    lo = path_len(chop(OVER, 0.009), 20, 0)
    lg = path_len(chop(GOLD, 0.009), 20, 0)
    gap = lo.value - lg.value
    bounds = lo.error_bound + lg.error_bound
    assert gap > bounds + 0.005
    assert len_compare(chop(OVER, 0.009), chop(GOLD, 0.009), 20, 0) == "greater"


def test_huge_coordinates_give_a_finite_value():
    # squared differences near 1e399 overflow; the distances do not
    lv = path_len([(1e199, 1e199), (5e199, 2e199), (3e199, 3e199)])
    assert math.isfinite(lv.value) and math.isfinite(lv.error_bound)
    assert lv.value + lv.error_bound <= 1.0


# --- rejected inputs ---


@pytest.mark.parametrize("refine", [0, 3])
def test_empty_path_is_rejected(refine):
    with pytest.raises(ValueError, match="at least one point"):
        path_len([], 8, refine)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_rejected(bad):
    for pts in ([(0, 0), (bad, 1)], [(bad, 0)], [(0, 0), (1, 1), (2, bad)]):
        for refine in (0, 3):
            with pytest.raises(ValueError, match="finite"):
                path_len(pts, 8, refine)
    with pytest.raises(ValueError, match="finite"):
        len_compare([(0, 0), (1, 0)], [(0, 0), (bad, 1)])


def test_points_beyond_a_float_distance_are_rejected():
    # each coordinate is finite, but the distance between the points is not
    for refine in (0, 3):
        with pytest.raises(ValueError, match="too far apart"):
            path_len([(-1e308, 0), (1e308, 0)], 8, refine)
