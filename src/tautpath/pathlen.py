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


def path_len(path, k_max: int = 8, refine: int = 3) -> LenValue:
    """Certified lower bound and error bound for the path's bounded
    length.  `refine` bisection rounds set the endpoint grid.  Weight
    levels up to 8 are searched exactly; past that a greedy family can
    only raise the value, and the dropped tail stays inside the error
    bound.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    pts = _refine(_as_float_pts(path), refine)
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
