"""The benchmark's closed-loop workloads.

Each workload writes its inputs from the seed (``make_inputs``, untimed),
loads them the way a user would (``load``, the set-up), answers one query
at a time (``query``, timed) and verifies every output after the run
(``check``, untimed).  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import generate as gen
import tautpath as tp
import tautpath.cli


def _pt(c):
    return tp.Pt(c[0], c[1])


def _rings(inst):
    return {
        "outer": [[gen.to_str(x), gen.to_str(y)] for x, y in inst["outer"]],
        "holes": [[[gen.to_str(x), gen.to_str(y)] for x, y in h] for h in inst["holes"]],
    }


def _path_strs(pts):
    return [[gen.to_str(x), gen.to_str(y)] for x, y in pts]


def _domain(obj):
    return tp.PolygonalDomain([_pt(c) for c in obj["outer"]], [[_pt(c) for c in h] for h in obj["holes"]])


def _vertex_strs(pts):
    return [(str(p.x), str(p.y)) for p in pts]


def _funnel_route(path, tri):
    """Independent shortest route in the path's class: the funnel walk
    through the sleeve of the path's crossing word."""
    sleeve = tp.build_sleeve(tp.word_of(path, tri), tri)
    return tp.funnel_shortest(sleeve, path.start, path.end)


class Workload:
    name = ""
    # queries answered per second on the reference machine: a run has a
    # fixed number of queries, about --seconds of work over all its
    # passes there, so every run of a seed measures the same work
    RATE = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    @property
    def input_file(self):
        return os.path.join(self.workdir, "inputs.json")

    def query_name(self, i: int) -> str:
        return f"{self.name}-s{self.seed}-{i}"

    def queries_for(self, seconds: float, passes: int) -> int:
        return max(1, round(seconds * self.RATE / passes))

    def make_inputs(self, count: int):
        raise NotImplementedError

    def load(self):
        raise NotImplementedError

    def count(self, state) -> int:
        return len(state)

    def query(self, state, i):
        raise NotImplementedError

    def check(self, state, outputs: dict) -> dict:
        """{query index: message} for every output that is wrong."""
        raise NotImplementedError

    def digest(self, state, i, out):
        """Comparable summary of one output; every pass of a query must
        give the same one."""
        return out


# --------------------------------------------------------------- restarts


class Restarts(Workload):
    """Many wiggled homotopic starts per domain; the domain object and its
    triangulation are built once and shared by every start."""

    name = "restarts"
    RATE = 3.0
    DOMAINS = 10

    def make_inputs(self, count):
        doms = []
        for j in range(min(count, self.DOMAINS)):
            inst = gen.placed(self.name, self.seed, j, j % 4, 8 + (5 * j) % 12, 2 + (j // 4) % 3)
            rng = gen.rng_for(self.name, self.seed, j, "starts")
            starts = [
                gen.wiggle(inst["path"], inst["outer"], inst["holes"], rng)
                for _ in range(len(range(j, count, self.DOMAINS)))
            ]
            doms.append({**_rings(inst), "starts": [_path_strs(s) for s in starts]})
        with open(self.input_file, "w") as f:
            json.dump(doms, f)

    def load(self):
        with open(self.input_file) as f:
            raw = json.load(f)
        out = []
        for r in raw:
            d = _domain(r)
            starts = [tp.PathPoly([_pt(c) for c in s]) for s in r["starts"]]
            out.append((d, tp.triangulate(d), starts))
        return out

    def count(self, state):
        return sum(len(s) for _, _, s in state)

    def _at(self, state, i):
        # round robin over domains keeps the domain mix the same at any
        # run length
        d, tri, starts = state[i % len(state)]
        return d, tri, starts[i // len(state)]

    def query_name(self, i):
        return f"{self.name}-s{self.seed}-d{i % self.DOMAINS}-{i // self.DOMAINS}"

    def query(self, state, i):
        d, tri, start = self._at(state, i)
        out = tp.tighten(start, d).path
        same = tp.homotopic(start, out, tri)
        cmp = tp.len_compare(out, start)
        return _vertex_strs(out.vertices), same, cmp

    def check(self, state, outputs):
        bad = {}
        first = {}
        for i in sorted(outputs):
            verts, same, cmp = outputs[i]
            start = self._at(state, i)[2]
            ref = first.setdefault(i % len(state), verts)
            if (verts[0], verts[-1]) != tuple(_vertex_strs([start.start, start.end])):
                bad[i] = "output does not join the start's endpoints"
            elif verts != ref:
                bad[i] = "start gives another vertex sequence than the domain's first start"
            elif not same:
                bad[i] = "output not homotopic to its start"
            elif cmp == "greater":
                bad[i] = "output longer than its start"
        return bad


# ------------------------------------------------------------ certify_cli


class CertifyCli(Workload):
    """`tautpath tighten --certify-lines 250 --json`, run in-process on
    small instance files (0-1 holes, 8-15 outer vertices)."""

    name = "certify_cli"
    RATE = 4.0
    LINES = "250"

    def make_inputs(self, count):
        for name in os.listdir(self.workdir):
            if name.startswith(("in-", "out-")):
                os.unlink(os.path.join(self.workdir, name))
        for i in range(count):
            inst = gen.placed(self.name, self.seed, i, i % 2, 8 + (3 * i) % 8, 2 + (i // 2) % 3)
            doc = {"name": self.query_name(i), "seed": 0, "domain": _rings(inst), "path": _path_strs(inst["path"])}
            with open(self._files(i)[0], "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)

    def _files(self, i):
        return os.path.join(self.workdir, f"in-{i}.json"), os.path.join(self.workdir, f"out-{i}.json")

    def load(self):
        files = []
        i = 0
        while os.path.exists(self._files(i)[0]):
            src, dst = self._files(i)
            if os.path.exists(dst):
                os.unlink(dst)
            files.append((src, dst))
            i += 1
        return files

    def query(self, state, i):
        src, dst = state[i]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = tautpath.cli.main(
                ["tighten", src, "--certify-lines", self.LINES, "--json", dst]
            )
        return code, out.getvalue()

    def _result(self, state, i):
        with open(state[i][1]) as f:
            return json.load(f)

    def check(self, state, outputs):
        bad = {}
        for i, (code, _) in outputs.items():
            if code != 0:
                bad[i] = f"exit code {code}"
                continue
            res = self._result(state, i)
            cert = res.get("certificate") or {}
            if cert.get("violations") != [] or not cert.get("taut_vertices_ok"):
                bad[i] = "certificate not clean"
                continue
            with open(state[i][0]) as f:
                raw = json.load(f)
            d = _domain(raw["domain"])
            path = tp.PathPoly([_pt(c) for c in raw["path"]])
            route = [[str(v.x), str(v.y)] for v in _funnel_route(path, tp.triangulate(d))]
            got = [[str(tp.rat(x)), str(tp.rat(y))] for x, y in res["vertices"]]
            if got != route:
                bad[i] = "output differs from the funnel route"
        return bad

    def digest(self, state, i, out):
        code, _ = out
        return code, self._result(state, i)["vertices"] if code == 0 else None


# -------------------------------------------------------------------- len


class Len(Workload):
    """path_len on float polylines, plus one segment-versus-detour
    len_compare, as in acceptance criterion 7."""

    name = "len"
    RATE = 9.0
    ROT = (math.cos(0.7321), math.sin(0.7321))

    def make_inputs(self, count):
        polys = []
        for i in range(count):
            rng = gen.rng_for(self.name, self.seed, i)
            # sizes follow a fixed schedule so every run sees the same mix
            n, refine = 2 + (23 * i) % 59, 1 + i % 3
            polys.append({"pts": gen.gen_polyline(rng, n), "refine": refine, "detour": gen.gen_detour(rng)})
        with open(self.input_file, "w") as f:
            json.dump(polys, f)

    def load(self):
        with open(self.input_file) as f:
            raw = json.load(f)
        return [([tuple(p) for p in r["pts"]], r["refine"], *gen.detour_pair(*r["detour"])) for r in raw]

    def query(self, state, i):
        pts, refine, seg, det = state[i]
        lv = tp.path_len(pts, k_max=8, refine=refine)
        return lv.value, lv.error_bound, tp.len_compare(seg, det, k_max=6, refine=0)

    def check(self, state, outputs):
        bad = {}
        c, s = self.ROT
        for i, (value, err, cmp) in outputs.items():
            pts, refine = state[i][0], state[i][1]
            moved = [(c * x - s * y + 3.25, s * x + c * y - 1.5) for x, y in pts]
            if not (0.0 <= value and 0.0 <= err and value + err < 1.0):
                bad[i] = "value outside [0, 1)"
            elif abs(tp.path_len(moved, k_max=8, refine=refine).value - value) > 1e-12:
                bad[i] = "value changes under a rigid motion"
            elif cmp != "less":
                bad[i] = f"segment versus detour compares {cmp!r}"
        return bad


WORKLOADS = {w.name: w for w in (Restarts, CertifyCli, Len)}
