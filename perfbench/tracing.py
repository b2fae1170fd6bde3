"""Span tracer for the traced run.

The tracer rebinds the public entry points of every prunekit layer from this
process; nothing under ``src/`` changes.  Each call made while an op is being
timed records one span: name, start, end, parent span, op id and one number
the layer reports (rows, picks, subsets, |P| or bytes).  Spans live in flat
arrays in memory and are written to one ``.npz`` file when the run ends.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.  The root span of every op is named ``op``; its
self time is the benchmark's own glue inside the op.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

ROOT = "op"

#: module -> public entry points wrapped in the traced run; the layer name is
#: the module name
ENTRY_POINTS = {
    "selection": ["greedy", "threshold_greedy", "density_greedy"],
    "prune": ["prune_seq_disjoint", "prune_window", "prune_std_greedy",
              "prune_fast_budget_range", "prune_threshold_stream", "prune_random"],
    "knapsack": ["prune_sdg_density", "extract_budget", "extract_budget_grid"],
    "exact": ["opt_cardinality", "opt_knapsack"],
    "harness": ["containment_report", "run_pruner", "sweep", "separation_study",
                "speedup_probe"],
    "cli": ["main"],
    "instances": ["gen_gnm", "gen_planted", "gen_interference", "gen_coverage",
                  "gen_from_spec", "load_edge_list", "load_coverage_list",
                  "load_similarity_csv", "load_costs_csv", "load_scores_csv",
                  "load_penalty_csv"],
}


class Tracer:
    """In-memory span store; spans are recorded only while an op runs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.events: dict[str, int] = {}
        self.root = self.name_id(ROOT)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.active = True
        return self.open(self.root)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.active = False

    def count(self, event: str) -> None:
        self.events[event] = self.events.get(event, 0) + 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, fn, name: str, measure=None, refused=None):
    """Return ``fn`` recording a span named ``name`` per call made in an op.

    ``measure(result, args)`` gives the span's number; ``refused`` is an
    exception type counted as an event of the same name before re-raising.
    """
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if refused is not None and isinstance(exc, refused):
                tracer.count(name + ".refused")
            raise
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.value[idx] = measure(result, args)
        return result

    return traced


def _rebind(old, new, undo: list) -> None:
    """Point every prunekit module attribute bound to ``old`` at ``new``,
    including names imported with ``from .module import name``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "prunekit" or modname.startswith("prunekit.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                _setattr(mod, key, new, undo)


def _setattr(target, key, value, undo: list) -> None:
    undo.append((target, key, getattr(target, key)))
    setattr(target, key, value)


def _out_bytes(args) -> float:
    argv = list(args[0]) if args and args[0] is not None else []
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return float(os.path.getsize(path))
    return 0.0


def install(tracer: Tracer):
    """Wrap every layer entry point of the loaded prunekit package; returns a
    function that puts the original entry points back."""
    from prunekit import exact, objectives

    def cli_out(code, args) -> float:
        if code != 0:
            tracer.count("cli.nonzero_exits")
        return _out_bytes(args)

    undo: list = []
    mods = {name: sys.modules[f"prunekit.{name}"] for name in ENTRY_POINTS}
    measures = {
        "selection": lambda r, a: float(len(r.picks)),
        "prune": lambda r, a: float(len(r.elements)),
        "knapsack.prune_sdg_density": lambda r, a: float(len(r.elements)),
        "exact": lambda r, a: float(r.enumerated_count),
        "cli": cli_out,
    }
    for layer, attrs in ENTRY_POINTS.items():
        for attr in attrs:
            fn = getattr(mods[layer], attr)
            name = f"{layer}.{attr}"
            _rebind(fn, _wrap(tracer, fn, name, measures.get(name, measures.get(layer)),
                              exact.GuardExceeded if layer == "exact" else None), undo)

    _setattr(objectives.Objective, "eval",
             _wrap(tracer, objectives.Objective.eval, "objectives.eval"), undo)
    _setattr(objectives.CountingOracle, "eval",
             _wrap(tracer, objectives.CountingOracle.eval, "objectives.memo"), undo)
    member = tracer.name_id("objectives.membership")

    def rows(result, args):
        # only the outermost batched call counts its rows (Proxy and the gated
        # facility location delegate to an inner one)
        return 0.0 if tracer.name[tracer.stack[-1]] == member else float(len(args[1]))

    for cls in vars(objectives).values():
        if (isinstance(cls, type) and issubclass(cls, objectives.Objective)
                and "eval_membership" in vars(cls)):
            _setattr(cls, "eval_membership",
                     _wrap(tracer, cls.eval_membership, "objectives.membership", rows), undo)

    def restore() -> None:
        for target, key, old in reversed(undo):
            setattr(target, key, old)

    return restore


class SpanTable:
    """Column view of the recorded spans with self times worked out."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"].astype(np.int64)
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.value = cols["value"]
        self.dur = cols["end"] - cols["start"]
        has_parent = self.parent >= 0
        n = self.dur.size
        self.child_time = np.bincount(self.parent[has_parent],
                                      weights=self.dur[has_parent], minlength=n)
        self.children = np.bincount(self.parent[has_parent], minlength=n)
        self.self_time = self.dur - self.child_time
        parent_name = np.full(n, -1, dtype=np.int64)
        parent_name[has_parent] = self.name[self.parent[has_parent]]
        self.parent_name = parent_name

    def ids(self, prefix: str) -> np.ndarray:
        """Name ids whose name is ``prefix`` or starts with ``prefix.``."""
        return np.array([i for i, nm in enumerate(self.names)
                         if nm == prefix or nm.startswith(prefix + ".")], dtype=np.int64)

    def mask(self, prefix: str) -> np.ndarray:
        return np.isin(self.name, self.ids(prefix))

    def parent_mask(self, prefix: str) -> np.ndarray:
        return np.isin(self.parent_name, self.ids(prefix))


#: per-layer metric -> unit; every value is a mean per traced op unless the
#: unit says otherwise
LAYER_UNITS = {
    "objectives.eval_calls": "count/op", "objectives.eval_s": "s/op",
    "objectives.eval_us": "us", "objectives.membership_rows": "count/op",
    "objectives.membership_s": "s/op", "objectives.memo_queries": "count/op",
    "objectives.memo_hits": "count/op", "objectives.memo_hit_ratio": "ratio",
    "objectives.memo_s": "s/op",
    "selection.runs": "count/op", "selection.picks": "count/op",
    "selection.scans": "count/op", "selection.scans_per_pick": "ratio",
    "selection.self_s": "s/op",
    "prune.calls": "count/op", "prune.s": "s/op", "prune.self_s": "s/op",
    "prune.pruned_size": "count",
    "knapsack.prune_s": "s/op", "knapsack.extract_s": "s/op",
    "knapsack.extract_calls": "count/op",
    "exact.calls": "count/op", "exact.subsets": "count/op", "exact.s": "s/op",
    "exact.guard_refusals": "count/op", "exact.build_s": "s/op",
    "exact.eval_s": "s/op", "exact.subsets_per_s": "1/s",
    "harness.calls": "count/op", "harness.self_s": "s/op",
    "cli.calls": "count/op", "cli.self_s": "s/op", "cli.out_bytes": "B/op",
    "cli.nonzero_exits": "count/op",
    "instances.calls": "count/op", "instances.s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(t: SpanTable, events: dict[str, int], n_ops: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics over every recorded span, as means per traced op."""
    def per(x) -> float:
        return float(x) / n_ops

    ev, memo = t.mask("objectives.eval"), t.mask("objectives.memo")
    member = t.mask("objectives.membership")
    hits, misses = memo & (t.children == 0), memo & (t.children > 0)
    sel, pr, ex = t.mask("selection"), t.mask("prune"), t.mask("exact")
    kprune = t.mask("knapsack.prune_sdg_density")
    kext = t.mask("knapsack.extract_budget") | t.mask("knapsack.extract_budget_grid")
    scans = (ev | memo) & t.parent_mask("selection")
    harness, cli = t.mask("harness"), t.mask("cli")
    inst = t.mask("instances") & ~t.parent_mask("instances")
    picks = t.value[sel].sum()
    subsets = t.value[ex].sum()
    refusals = sum(v for k, v in events.items() if k.startswith("exact."))
    return {
        "objectives.eval_calls": per(ev.sum()),
        "objectives.eval_s": per(t.self_time[ev].sum()),
        "objectives.eval_us": 1e6 * _ratio(t.self_time[ev].sum(), ev.sum()),
        "objectives.membership_rows": per(t.value[member].sum()),
        "objectives.membership_s": per(t.self_time[member].sum()),
        "objectives.memo_queries": per(misses.sum()),
        "objectives.memo_hits": per(hits.sum()),
        "objectives.memo_hit_ratio": _ratio(hits.sum(), memo.sum()),
        "objectives.memo_s": per(t.self_time[memo].sum()),
        "selection.runs": per(sel.sum()),
        "selection.picks": per(picks),
        "selection.scans": per(scans.sum()),
        "selection.scans_per_pick": _ratio(scans.sum(), picks),
        "selection.self_s": per(t.self_time[sel].sum()),
        "prune.calls": per(pr.sum()),
        "prune.s": per(t.dur[pr].sum()),
        "prune.self_s": per(t.self_time[pr].sum()),
        "prune.pruned_size": _ratio(t.value[pr].sum(), pr.sum()),
        "knapsack.prune_s": per(t.dur[kprune].sum()),
        "knapsack.extract_s": per(t.dur[kext].sum()),
        "knapsack.extract_calls": per(kext.sum()),
        "exact.calls": per(ex.sum()),
        "exact.subsets": per(subsets),
        "exact.s": per(t.dur[ex].sum()),
        "exact.guard_refusals": per(refusals),
        "exact.build_s": per(t.self_time[ex].sum()),
        "exact.eval_s": per(t.dur[member & t.parent_mask("exact")].sum()),
        "exact.subsets_per_s": _ratio(subsets, t.dur[ex].sum()),
        "harness.calls": per(harness.sum()),
        "harness.self_s": per(t.self_time[harness].sum()),
        "cli.calls": per(cli.sum()),
        "cli.self_s": per(t.self_time[cli].sum()),
        "cli.out_bytes": per(t.value[cli].sum()),
        "cli.nonzero_exits": per(events.get("cli.nonzero_exits", 0)),
        "instances.calls": per(inst.sum()),
        "instances.s": per(t.dur[inst].sum()),
        "trace.overhead_ratio": overhead_ratio,
    }


def op_counts(t: SpanTable, op_id: int) -> dict[str, int]:
    """Exact work counts of one traced op."""
    mine = t.op == op_id
    memo = mine & t.mask("objectives.memo")
    return {
        "evals": int((mine & t.mask("objectives.eval")).sum()),
        "memo_queries": int((memo & (t.children > 0)).sum()),
        "memo_hits": int((memo & (t.children == 0)).sum()),
        "picks": int(t.value[mine & t.mask("selection")].sum()),
        "subsets": int(t.value[mine & t.mask("exact")].sum()),
        "membership_rows": int(t.value[mine & t.mask("objectives.membership")].sum()),
    }


def self_time_check(t: SpanTable) -> tuple[float, float]:
    """(traced op wall time, layer self time inside ops), summed over ops."""
    root = t.name == 0
    return float(t.dur[root].sum()), float(t.self_time[~root].sum())
