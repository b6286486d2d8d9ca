"""In-memory spans around calls into the relends layers.

The tracer wraps module attributes of the imported package: every module
attribute that is the original function (the defining module's and every
`from ... import` copy) is replaced by a timing wrapper, and restored on
exit.  Nothing under `src/` is edited.  A wrapper returns the wrapped
call's result object unchanged, so verdicts are identical with tracing on.

A span is `[name, start, end, parent, query_id]`; `parent` is the index of
the enclosing span or -1.  Spans nest strictly because the benchmark is a
single-threaded closed loop.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  The layer is the span name's prefix.
TARGETS = (
    ("relends.schreier", "stable_ball", "schreier.stable_ball"),
    ("relends.schreier", "enumerate_cosets", "schreier.enumerate_cosets"),
    ("relends.schreier", "_raw_enumerate", "schreier.raw_enumerate"),
    ("relends.schreier", "_finalize", "schreier.finalize"),
    ("relends.oracle", "stallings_fold", "oracle.fold"),
    ("relends.oracle", "free_schreier_ball", "oracle.ball"),
    ("relends.oracle", "graphs_isomorphic", "oracle.iso"),
    ("relends.ends", "count_relative_ends", "ends.count"),
    ("relends.ends", "sphere_classes", "ends.sphere_classes"),
    ("relends.ends", "empirical_ends", "ends.empirical"),
    ("relends.ends", "check_dag", "ends.check_dag"),
    ("relends.rips", "rips_construct", "rips.construct"),
    ("relends.rips", "verify_rips", "rips.verify"),
    ("relends.presentation", "check_small_cancellation", "presentation.small_cancellation"),
    ("relends.presentation", "parse_file", "presentation.parse"),
    ("relends.cli", "run", "cli.run"),
)

HOOK_SPAN = "trace.hook"


class Tracer:
    """Span recorder plus the counters read at layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.query_id = -1
        self._stack: list[int] = []
        # one record per _raw_enumerate call and per returned ball
        self.enum_runs: list[dict] = []
        self.balls: list[dict] = []
        self.pairs_checked: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.query_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def query(self, query_id: int, name: str):
        self.query_id = query_id
        try:
            with self.span(name) as idx:
                yield idx
        finally:
            self.query_id = -1

    def wrap(self, fn, name: str, after=None):
        """Timing wrapper; `after(args, kwargs, result)` runs in a trace.hook
        span once the call's own span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                with self.span(HOOK_SPAN):
                    after(args, kwargs, result)
            return result

        return traced

    # -- counters read from arguments and results ---------------------------

    def _after_raw(self, args, kwargs, result):
        _cols, uf, _pdist, _find = result
        horizon = args[2] if len(args) > 2 else kwargs["horizon"]
        budget = args[3] if len(args) > 3 else kwargs["node_budget"]
        n_letters = args[0].n_letters
        rows = len(uf)
        live = sum(map(int.__eq__, uf, range(rows)))
        self.enum_runs.append({
            "query": self.query_id, "horizon": horizon,
            "rows_allocated": rows, "rows_live": live,
            "budget_used_ratio": rows * n_letters / budget,
        })

    def _after_ball(self, args, kwargs, result):
        self.balls.append({"query": self.query_id, "vertices": result.n_vertices})

    def _after_condition(self, args, kwargs, result):
        self.pairs_checked.append(result.pairs_checked)

    def _hook_for(self, name: str):
        return {
            "schreier.raw_enumerate": self._after_raw,
            "schreier.stable_ball": self._after_ball,
            "schreier.enumerate_cosets": self._after_ball,
            "ends.check_dag": self._after_condition,
        }.get(name)

    @contextmanager
    def installed(self):
        """Patch every module attribute bound to a TARGETS function."""
        patches = []
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(original, name, self._hook_for(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "relends":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, original in reversed(patches):
                setattr(mod, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _q in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent, _q) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def certify_flags(spans) -> dict[int, bool]:
    """For each enumeration span: is it the last run of its ball?

    The last truncated run of a stable_ball or enumerate_cosets call is the
    slack + 1 certificate of the run before it; every other run is primary.
    """
    last_child: dict[int, int] = {}
    for i, span in enumerate(spans):
        if span[0] == "schreier.raw_enumerate":
            last_child[span[3]] = i
    return {
        i: last_child.get(span[3]) == i
        for i, span in enumerate(spans)
        if span[0] == "schreier.raw_enumerate"
    }


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer figure of one traced pass, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    layer_self: dict[str, float] = {}
    name_self: dict[str, float] = {}
    for span, s in zip(spans, own):
        layer = span[0].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
        name_self[span[0]] = name_self.get(span[0], 0.0) + s
    flags = certify_flags(spans)
    primary = sum(own[i] for i, last in flags.items() if not last)
    certify = sum(own[i] for i, last in flags.items() if last)
    runs = tracer.enum_runs
    rows = sum(r["rows_allocated"] for r in runs)
    vertices = sum(b["vertices"] for b in tracer.balls)
    accounted = sum(own)
    return {
        "bench.self_s": layer_self.get("bench", 0.0),
        "schreier.busy_s": layer_self.get("schreier", 0.0),
        "schreier.primary_s": primary,
        "schreier.certify_s": certify,
        "schreier.finalize_s": name_self.get("schreier.finalize", 0.0),
        "schreier.rows_allocated": rows,
        "schreier.rows_live": sum(r["rows_live"] for r in runs),
        "schreier.budget_used_ratio": max((r["budget_used_ratio"] for r in runs), default=0.0),
        "schreier.useful_row_ratio": vertices / rows if rows else 0.0,
        "schreier.runs": len(runs) / len(tracer.balls) if tracer.balls else 0.0,
        "schreier.vertices": vertices,
        "oracle.fold_s": name_self.get("oracle.fold", 0.0),
        "oracle.ball_s": name_self.get("oracle.ball", 0.0),
        "oracle.iso_s": name_self.get("oracle.iso", 0.0),
        "ends.sphere_classes_s": name_self.get("ends.sphere_classes", 0.0),
        "ends.empirical_s": name_self.get("ends.empirical", 0.0),
        "ends.check_dag_s": name_self.get("ends.check_dag", 0.0),
        "ends.pairs_checked": sum(tracer.pairs_checked),
        "rips.construct_s": name_self.get("rips.construct", 0.0),
        "rips.verify_s": name_self.get("rips.verify", 0.0),
        "presentation.small_cancellation_s": name_self.get("presentation.small_cancellation", 0.0),
        "presentation.parse_s": name_self.get("presentation.parse", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "other.self_s": sum(
            s for layer, s in layer_self.items()
            if layer not in ("bench", "schreier", "trace")
        ),
        "trace.hook_s": layer_self.get("trace", 0.0),
        "trace.accounted_ratio": accounted / wall_s if wall_s > 0 else 0.0,
    }


def per_query_counts(tracer: Tracer) -> dict[int, dict]:
    """Rows allocated, live rows, run horizons and ball vertices by query id."""
    out: dict[int, dict] = {}

    def entry(query_id):
        return out.setdefault(
            query_id, {"rows_allocated": 0, "rows_live": 0, "horizons": [], "vertices": 0}
        )

    for r in tracer.enum_runs:
        q = entry(r["query"])
        q["rows_allocated"] += r["rows_allocated"]
        q["rows_live"] += r["rows_live"]
        q["horizons"].append(r["horizon"])
    for b in tracer.balls:
        entry(b["query"])["vertices"] += b["vertices"]
    return out
