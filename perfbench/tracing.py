"""Traced runs: spans and counts at the package's module boundaries.

The tracer wraps public functions of ``tautpath`` from outside the
package.  ``from .geom import orient`` copies a function into the
importing module's namespace, so each wrapper is installed under every
name, in every ``tautpath`` module, that is bound to the original
function.  Timed functions record a span (name, start, end, parent span,
query id); the exact ``geom`` predicates and a few hot helpers are only
counted, so wrapper cost does not swamp the arithmetic they do.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("geom", "domain", "homotopy", "tighten", "pathlen", "cli")


def _grid_points(args, kwargs):
    path = args[0]
    n = len(getattr(path, "vertices", path))
    refine = args[2] if len(args) > 2 else kwargs.get("refine", 3)
    return (n - 1) * (1 << refine) + 1 if refine > 0 else n


def _tighten_notes(rep):
    chord = sum(1 for m in rep.moves if m.kind == "chord")
    return {
        "homotopy.word_len": rep.word_length,
        "homotopy.sleeve_copies": len(rep.sleeve),
        "tighten.moves.chord": chord,
        "tighten.moves.spur": len(rep.moves) - chord,
    }


# (module, attribute, timed, note on the result, note on the arguments).
# A "Class.method" attribute wraps the method on the class.
TARGETS = (
    ("geom", "orient", False, None, None),
    ("geom", "segments_intersect", False, None, None),
    ("geom", "line_side", False, None, None),
    ("geom", "line_hits_segment", False, None, None),
    ("geom", "clip_line_to_triangle", False, None, None),
    ("domain", "validate", True, None, None),
    ("domain", "triangulate", True, None, None),
    ("domain", "PolygonalDomain.feature_size2", True, None, None),
    ("domain", "locate", False, None, None),
    ("homotopy", "validate_path", True, None, None),
    ("homotopy", "crossing_word", True, None, None),
    ("homotopy", "build_sleeve", True, None, None),
    ("homotopy", "homotopic", True, None, None),
    ("homotopy", "line_lifts", True, lambda r: {"homotopy.line_lifts.chords": len(r)}, None),
    ("tighten", "tighten", True, _tighten_notes, None),
    (
        "tighten",
        "chord_meeting_components",
        True,
        lambda r: {"tighten.chord_meeting_components.split": int(len(r) >= 2)},
        None,
    ),
    ("tighten", "replace_move", False, None, None),
    (
        "tighten",
        "certify_efficient",
        True,
        lambda r: {"tighten.certify.lines_sampled": r.lines_sampled},
        None,
    ),
    ("pathlen", "path_len", True, None, lambda a, k: {"pathlen.grid_points": _grid_points(a, k)}),
    ("cli", "main", True, None, None),
    ("cli", "read_instance", True, None, None),
)


PER_QUERY, SECONDS = "count/query", "s/query"
# (metric, unit, store, key): per-query call counts, self or total span
# seconds, or summed notes
LAYER_METRICS = (
    ("homotopy.line_lifts.calls", PER_QUERY, "calls", "homotopy.line_lifts"),
    ("homotopy.line_lifts.self_s", SECONDS, "self_s", "homotopy.line_lifts"),
    ("homotopy.line_lifts.chords", PER_QUERY, "notes", "homotopy.line_lifts.chords"),
    ("geom.clip_line_to_triangle.calls", PER_QUERY, "calls", "geom.clip_line_to_triangle"),
    ("geom.line_hits_segment.calls", PER_QUERY, "calls", "geom.line_hits_segment"),
    ("geom.orient.calls", PER_QUERY, "calls", "geom.orient"),
    ("geom.segments_intersect.calls", PER_QUERY, "calls", "geom.segments_intersect"),
    ("geom.line_side.calls", PER_QUERY, "calls", "geom.line_side"),
    ("domain.validate.calls", PER_QUERY, "calls", "domain.validate"),
    ("domain.validate.self_s", SECONDS, "self_s", "domain.validate"),
    ("domain.triangulate.calls", PER_QUERY, "calls", "domain.triangulate"),
    ("domain.triangulate.self_s", SECONDS, "self_s", "domain.triangulate"),
    ("domain.feature_size2.self_s", SECONDS, "self_s", "domain.feature_size2"),
    ("domain.locate.calls", PER_QUERY, "calls", "domain.locate"),
    ("homotopy.crossing_word.calls", PER_QUERY, "calls", "homotopy.crossing_word"),
    ("homotopy.crossing_word.self_s", SECONDS, "self_s", "homotopy.crossing_word"),
    ("homotopy.validate_path.calls", PER_QUERY, "calls", "homotopy.validate_path"),
    ("homotopy.validate_path.self_s", SECONDS, "self_s", "homotopy.validate_path"),
    ("homotopy.build_sleeve.self_s", SECONDS, "self_s", "homotopy.build_sleeve"),
    ("homotopy.homotopic.self_s", SECONDS, "self_s", "homotopy.homotopic"),
    ("homotopy.word_len", PER_QUERY, "notes", "homotopy.word_len"),
    ("homotopy.sleeve_copies", PER_QUERY, "notes", "homotopy.sleeve_copies"),
    ("tighten.tighten.s", SECONDS, "total_s", "tighten.tighten"),
    ("tighten.tighten.self_s", SECONDS, "self_s", "tighten.tighten"),
    ("tighten.chord_meeting_components.calls", PER_QUERY, "calls", "tighten.chord_meeting_components"),
    ("tighten.chord_meeting_components.self_s", SECONDS, "self_s", "tighten.chord_meeting_components"),
    ("tighten.replace_move.calls", PER_QUERY, "calls", "tighten.replace_move"),
    ("tighten.moves.chord", PER_QUERY, "notes", "tighten.moves.chord"),
    ("tighten.moves.spur", PER_QUERY, "notes", "tighten.moves.spur"),
    ("tighten.certify_efficient.self_s", SECONDS, "self_s", "tighten.certify_efficient"),
    ("tighten.certify.lines_sampled", PER_QUERY, "notes", "tighten.certify.lines_sampled"),
    ("pathlen.path_len.calls", PER_QUERY, "calls", "pathlen.path_len"),
    ("pathlen.path_len.self_s", SECONDS, "self_s", "pathlen.path_len"),
    ("pathlen.grid_points", PER_QUERY, "notes", "pathlen.grid_points"),
    ("cli.main.self_s", SECONDS, "self_s", "cli.main"),
    ("cli.read_instance.self_s", SECONDS, "self_s", "cli.read_instance"),
)


class Tracer:
    """Span and count store for one traced pass.  Use as a context
    manager: entering installs the wrappers, leaving removes them."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query_of = array("i")
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.notes: Counter = Counter()
        self.query_id = -1
        self._stack: list = []  # [span id, time covered by child spans]
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _open(self, name_id):
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query_of.append(self.query_id)
        self._stack.append([sid, 0.0])
        return sid

    def _close(self, name):
        t1 = time.perf_counter()
        sid, child = self._stack.pop()
        self.end[sid] = t1
        dur = t1 - self.start[sid]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child

    @contextlib.contextmanager
    def query(self, qid):
        """Root span for one query."""
        self.query_id = qid
        self._open(self._name_id("query"))
        try:
            yield
        finally:
            self._close("query")
            self.query_id = -1

    def note(self, values):
        for k, v in values.items():
            self.notes[k] += v

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name, timed, on_result, on_args):
        calls = self.calls
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        name_id = self._name_id(name)

        def spanned(*args, **kwargs):
            if on_args is not None:
                self.note(on_args(args, kwargs))
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if on_result is not None:
                self.note(on_result(result))
            return result

        return spanned

    def __enter__(self):
        mods = [sys.modules["tautpath"]] + [sys.modules[f"tautpath.{m}"] for m in MODULES]
        for mod, attr, timed, on_result, on_args in TARGETS:
            name = f"{mod}.{attr.split('.')[-1]}"
            home = sys.modules[f"tautpath.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, name, timed, on_result, on_args))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, name, timed, on_result, on_args)
            for m in mods:
                for binding, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, binding, fn))
                        setattr(m, binding, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, binding, fn in reversed(self._undo):
            setattr(owner, binding, fn)
        self._undo.clear()
        return False

    # ----------------------------------------------------------- results

    def layer_metrics(self, queries: int) -> dict:
        """{metric: (per-query value, unit)} for every layer metric; 0 for
        layers the workload never called."""
        q = max(queries, 1)
        src = {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s, "notes": self.notes}
        out = {name: (src[kind][key] / q, unit) for name, unit, kind, key in LAYER_METRICS}
        calls = self.calls["tighten.chord_meeting_components"]
        split = self.notes["tighten.chord_meeting_components.split"]
        out["tighten.split_ratio"] = (split / calls if calls else 0.0, "ratio")
        return out

    def write_spans(self, fp):
        """All spans, column by column; times are seconds from the first
        span's start."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": [round(v - t0, 7) for v in self.start],
            "end": [round(v - t0, 7) for v in self.end],
            "parent": self.parent.tolist(),
            "query": self.query_of.tolist(),
            "calls": dict(self.calls),
            "notes": dict(self.notes),
        }
        with gzip.open(fp, "wt") as f:
            json.dump(doc, f)
