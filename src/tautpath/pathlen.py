"""Bounded length functional for paths.

The value of a path is the supremum, over families of at most k
non-overlapping parameter intervals, of the weighted sum of gauged
endpoint displacements: the i-th largest displacement d contributes
2^-i * d/(1+d).  The supremum over all k is bounded by 1 and respects
uniform convergence, which ordinary arc length does not.  `path_len`
evaluates the restriction of that supremum to interval endpoints on a
refined vertex grid, which is a certified lower bound, and reports an
error bound covering both the dropped weights and the grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Pt


def gauge(d: float) -> float:
    return d / (1.0 + d)


@dataclass(frozen=True)
class LenValue:
    value: float
    error_bound: float

    @property
    def upper(self) -> float:
        return self.value + self.error_bound


def _as_float_pts(path):
    verts = getattr(path, "vertices", path)
    out = []
    for p in verts:
        if isinstance(p, Pt):
            out.append(p.as_floats())
        else:
            out.append((float(p[0]), float(p[1])))
    return out


def _refine(pts, rounds: int):
    if rounds <= 0:
        return list(pts)
    n = 1 << rounds
    out = []
    for i in range(len(pts) - 1):
        (ax, ay), (bx, by) = pts[i], pts[i + 1]
        for t in range(n):
            f = t / n
            out.append((ax + (bx - ax) * f, ay + (by - ay) * f))
    out.append(pts[-1])
    return out


def _greedy_value(G: np.ndarray, k_max: int) -> float:
    """Largest-displacement-first family, used for weight slots past the
    exact DP cutoff.  Always a valid family, hence a lower bound."""
    n = G.shape[0]
    gaps = [(0, n - 1)]
    ds: list = []
    for _ in range(k_max):
        best = None
        for gi, (a, b) in enumerate(gaps):
            if b - a < 1:
                continue
            sub = G[a : b + 1, a : b + 1]
            iu = np.triu_indices(b - a + 1, k=1)
            vals = sub[iu]
            t = int(np.argmax(vals))
            gval = float(vals[t])
            if best is None or gval > best[0]:
                best = (gval, gi, a + int(iu[0][t]), a + int(iu[1][t]))
        if best is None or best[0] <= 0.0:
            break
        gval, gi, i, j = best
        a, b = gaps.pop(gi)
        ds.append(gval)
        if i - a >= 1:
            gaps.append((a, i))
        if b - j >= 1:
            gaps.append((j, b))
    ds.sort(reverse=True)
    return sum(d * 2.0 ** -(r + 1) for r, d in enumerate(ds))


# earlier DP rows are read in blocks of at most this many, so the scratch
# buffer stays a fixed (64, k, 2^(k-1)) whatever the grid size
_BLOCK = 64


def _slot_tables(k: int):
    """Index tables of the weight-slot DP over subsets of k slots.  Row s
    of DST lists, ascending, the 2^(k-1) masks that hold slot s; the same
    row of SRC lists each of those masks with slot s taken out."""
    t = np.arange(1 << (k - 1))
    s = np.arange(k)[:, None]
    src = ((t >> s) << (s + 1)) | (t & ((1 << s) - 1))
    return src, src | (1 << s)


def path_len(path, k_max: int = 8, refine: int = 3) -> LenValue:
    """Certified lower bound and error bound for the path's bounded
    length.  `refine` bisection rounds set the endpoint grid.  Weight
    levels up to 8 are searched exactly; past that a greedy family can
    only raise the value, and the dropped tail stays inside the error
    bound.

    The exact search is a DP over grid points j and subsets m of weight
    slots: D[j, m] is the best family ending by point j that fills the
    slots in m, and an interval [i, j] in slot s extends D[i, m - {s}]
    by w_s * G[i, j].  Row j reads every earlier row once per slot, so
    the rows are kept stacked as S[i, s] = D[i, SRC[s]] and one add and
    one max over the earlier rows serve all slots at once.  Only the
    current row of D is kept.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    raw = _as_float_pts(path)
    if not raw:
        raise ValueError("a path needs at least one point")
    if not np.isfinite(raw).all():
        raise ValueError("path coordinates must be finite")
    P = np.asarray(_refine(raw, refine), dtype=np.float64)
    N = len(P)
    with np.errstate(over="ignore", invalid="ignore"):
        dm = np.subtract.outer(P[:, 0], P[:, 0])
        dy = np.subtract.outer(P[:, 1], P[:, 1])
        np.hypot(dm, dy, out=dm)
    diam = float(dm.max())
    if not math.isfinite(diam):
        raise ValueError("path points lie too far apart for a float distance")
    G = np.add(dm, 1.0, out=dy)
    np.divide(dm, G, out=G)
    del dm, dy
    k = min(k_max, 8)
    full = 1 << k
    w = np.array([2.0 ** -(s + 1) for s in range(k)])
    src, dst = _slot_tables(k)
    S = np.empty((N, k, full // 2))
    S[0] = 0.0
    row = np.zeros(full)
    # cand[s, m]: the best family of slots m whose last interval, in slot
    # s, ends at j; the entries whose m lacks s stay -inf
    cand = np.full((k, full), -np.inf)
    to_cand = (dst + full * np.arange(k)[:, None]).ravel()
    buf = np.empty((min(N, _BLOCK), k, full // 2))
    for j in range(1, N):
        # G is symmetric to the bit, and its rows are contiguous
        wg = G[j, :j, None] * w
        best = None
        for b in range(0, j, _BLOCK):
            e = min(b + _BLOCK, j)
            blk = np.add(S[b:e], wg[b:e, :, None], out=buf[: e - b])
            top = blk.max(axis=0)
            best = top if best is None else np.maximum(best, top, out=best)
        cand.ravel()[to_cand] = best.ravel()
        np.maximum(row, cand.max(axis=0), out=row)
        S[j] = row[src]
    value = float(row[full - 1])
    if k_max > k:
        value = max(value, _greedy_value(G, min(k_max, 32)))
    seg = P[1:] - P[:-1]
    h = float(np.hypot(seg[:, 0], seg[:, 1]).max()) if N > 1 else 0.0
    slack = 2.0 ** -k + 2.0 * h
    cap = gauge(diam) - value
    err = max(0.0, min(slack, cap))
    return LenValue(value=value, error_bound=err)


def len_compare(path_a, path_b, k_max: int = 8, refine: int = 3) -> str:
    """\"less\", \"greater\", or \"indistinguishable\" at the certified
    precision of both evaluations."""
    la = path_len(path_a, k_max, refine)
    lb = path_len(path_b, k_max, refine)
    if la.upper < lb.value:
        return "less"
    if lb.upper < la.value:
        return "greater"
    return "indistinguishable"
