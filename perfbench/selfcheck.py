"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

For every workload it shows that an untraced run emits each end-to-end
metric of BENCHMARK.json with its unit, that a traced run emits each
per-layer metric with its unit, and that a deliberately corrupted output
(the vertex list reversed, or a wrong value) counts as a failed query and
makes the run incorrect.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

SEED = 0
SECONDS = "1.5"


def _corrupt(name, out, state, i):
    """A wrong answer of the kind each workload's check must catch."""
    if name == "restarts":
        verts, same, cmp = out
        return list(reversed(verts)), same, cmp
    if name == "certify_cli":
        dst = Path(state[i][1])
        doc = json.loads(dst.read_text())
        doc["vertices"].reverse()
        dst.write_text(json.dumps(doc))
        return out
    value, err, cmp = out
    return value + 0.5, err, cmp


def _run(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_package()
    import workloads

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = _run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if code != 0 or not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: clean run reported {res} (exit {code})")
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(got.items())} != {sorted(want.items())}")

        cls = workloads.WORKLOADS[name]
        honest = cls.query

        def corrupted(self, state, i, honest=honest):
            return _corrupt(self.name, honest(self, state, i), state, i)

        cls.query = corrupted
        try:
            _, res = _run(name, 0)
        finally:
            cls.query = honest
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{name}: corrupted outputs were not caught: {res}")
        print(f"{name}: checked", file=sys.stderr)

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
