"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload restarts --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Every query runs in this process, on one thread, one at a time.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass over the queries of an untraced one.  Generated inputs,
span dumps and full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# every query is answered once per pass, each pass from its own freshly
# loaded inputs, and keeps its fastest time: other tenants of a shared
# machine slow it down by up to 2x for tens of seconds at a time
PASSES = 3
# a run that takes this many times --seconds is cut short, so a badly
# slowed program still ends well inside the time a run may take
LIMIT_FACTOR = 4


def _import_package():
    sys.path.insert(0, str(SRC))
    import tautpath

    if not Path(tautpath.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tautpath was found at {tautpath.__file__}, not under {SRC}")
    return tautpath


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown";
    reads only files inside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(tp, seed) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "rat_backend": type(tp.geom.rat(1)).__name__,
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import tautpath."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tautpath"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def setup(wl, count):
    """Median set-up time over `count` repetitions, and each
    repetition's state.  Set-up is starting the interpreter and importing the package,
    then loading the stored inputs and building the state a user keeps
    between queries."""
    imports = [_import_seconds() for _ in range(count)]
    loads, states = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        states.append(wl.load())
        loads.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(loads), states


def closed_loop(wl, state, indices, limit, tracer=None):
    """Run the queries one after another, each after the previous one has
    returned; stop early only once `limit` (a perf_counter time) passes.
    Returns per-query times, outputs and errors."""
    times, outputs, errors = {}, {}, {}
    for i in indices:
        if time.perf_counter() >= limit:
            break
        t0 = time.perf_counter()
        try:
            with tracer.query(i) if tracer else contextlib.nullcontext():
                out = wl.query(state, i)
        except Exception as e:  # a failed query is counted, not fatal
            errors[i] = type(e).__name__
        else:
            outputs[i] = out
        finally:
            times[i] = time.perf_counter() - t0
    return times, outputs, errors


def timed_passes(wl, states, limit):
    """Answer every query once per state.  Returns each query's fastest
    time, the errors, and the wrong outputs: the first pass's outputs are
    checked, later passes must repeat them."""
    best, errors, bad, digests = {}, {}, {}, {}
    for k, state in enumerate(states):
        times, outputs, errs = closed_loop(wl, state, range(wl.count(state)), limit)
        for i, t in times.items():
            best[i] = min(best.get(i, math.inf), t)
        for i, e in errs.items():
            errors.setdefault(i, e)
        if k == 0:
            bad = wl.check(state, outputs)
        for i, out in outputs.items():
            d = wl.digest(state, i, out)
            if digests.setdefault(i, d) != d:
                bad.setdefault(i, "passes give different outputs")
    return best, errors, bad


def tail(times):
    """(percentile, value) of the highest nearest-rank percentile with at
    least 10 queries beyond it, never below the median; with 10 queries or
    fewer that is the slowest query."""
    vs = sorted(times)
    rank = len(vs) - 10 if len(vs) > 10 else len(vs)
    return 100 * rank / len(vs), max(vs[rank - 1], statistics.median(vs))


def end_to_end(best, failed, setup_s):
    """Metrics over each query's fastest time; a failed query counts as
    infinitely slow in the percentiles and adds its time to the total."""
    times = [math.inf if i in failed else t for i, t in best.items()]
    pct, tail_s = tail(times)
    return pct, {
        "query_s.p50": (statistics.median(times), "s"),
        "query_s.tail": (tail_s, "s"),
        "throughput_qps": ((len(best) - len(failed)) / sum(best.values()), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(wl, states, limit):
    """One untraced pass, then the same queries again from freshly loaded
    inputs with the tracer installed.  Returns the untraced pass's times,
    errors and wrong outputs (including traced outputs that differ), and
    the per-layer metrics."""
    from tracing import Tracer

    times, outputs, errors = closed_loop(wl, states[0], range(wl.count(states[0])), limit)
    bad = wl.check(states[0], outputs)
    digests = {i: wl.digest(states[0], i, out) for i, out in outputs.items()}
    with Tracer() as tracer:
        t_times, t_outputs, _ = closed_loop(wl, states[1], sorted(times), limit, tracer)
    for i in outputs:
        if i not in t_outputs or wl.digest(states[1], i, t_outputs[i]) != digests[i]:
            bad.setdefault(i, "traced pass gives another output")
    common = [i for i in outputs if i in t_outputs]
    untraced = sum(times[i] for i in common)
    traced = sum(t_times[i] for i in common)
    tracer.write_spans(os.path.join(wl.workdir, "spans.json.gz"))
    metrics = tracer.layer_metrics(len(times))
    metrics["trace.overhead_frac"] = (traced / untraced - 1 if untraced else 0.0, "ratio")
    return times, errors, bad, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        tp = _import_package()
    except ImportError as e:
        print(f"error: cannot import tautpath from {SRC}: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    env = environment(tp, args.seed)

    # a traced run answers each query twice (untraced, then traced), a
    # plain run PASSES times
    passes = 2 if args.trace else PASSES
    wl.make_inputs(wl.queries_for(args.seconds, passes))
    setup_s, states = setup(wl, passes)
    limit = time.perf_counter() + LIMIT_FACTOR * args.seconds
    if args.trace:
        best, errors, bad, metrics = traced_pass(wl, states, limit)
    else:
        best, errors, bad = timed_passes(wl, states, limit)

    if not best:
        print("error: no query ran before the time limit", file=sys.stderr)
        return 1
    failures = {i: f"error {e}" for i, e in errors.items()}
    failures.update({i: f"wrong output: {m}" for i, m in bad.items()})
    attempted = len(best)
    correct = not failures
    pct, e2e = end_to_end(best, failures, setup_s)
    if not args.trace:
        metrics = e2e

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, closed loop, 1 client")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    timing = "one untraced pass" if args.trace else f"fastest of {passes} passes"
    print(f"queries {attempted} of {wl.count(states[0])}, {timing}; tail percentile p{pct:.4g}")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {len(failures) / attempted:.6g} ratio")
    for i in sorted(failures)[:20]:
        print(f"failed {wl.query_name(i)}: {failures[i]}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed queries, listed in {workdir}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    print(f"correct {str(correct).lower()}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        **result,
        "environment": env,
        "tail_percentile": pct,
        "failures": {wl.query_name(i): m for i, m in failures.items()},
        "query_s": {wl.query_name(i): t for i, t in best.items()},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
