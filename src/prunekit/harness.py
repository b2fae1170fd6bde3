"""Containment evaluation and experiment harness.

``containment_report`` certifies a pruned set: for every downstream budget it
compares the best feasible subset found inside P against a reference optimum
(exact enumeration when the guard allows, greedy-on-the-full-set otherwise).
``sweep`` runs (instance x algorithm x seed) grids over objectives or
generator specs, which reach worker processes as they are (pickled), not
through a serial form.  ``separation_study`` reproduces the
interference-coverage containment comparison between one greedy run and
sequential disjoint greedy, ``paired_bootstrap`` gives percentile confidence
intervals, and ``speedup_probe`` times exact extraction on a pruned set vs
the full universe.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import exact
from .instances import GenSpec, gen_interference, objective_from_spec
from .objectives import Objective, objective_from_dict
from .prune import (PrunedSet, prune_fast_budget_range, prune_random,
                    prune_seq_disjoint, prune_std_greedy,
                    prune_threshold_stream, prune_window)
from .selection import greedy

__all__ = ["ContainmentReport", "containment_report", "run_pruner", "SweepResult",
           "sweep", "SeparationResult", "separation_study", "BootstrapCI",
           "paired_bootstrap", "SpeedupResult", "speedup_probe", "PRUNER_NAMES"]


@dataclass
class ContainmentReport:
    """Per-budget containment ratios for one pruned set.

    ``alphas[j]`` is alpha(k') for k' = budgets[j]; the convention for a zero
    denominator is alpha = 1 (nothing of value to contain).  Under the exact
    reference alpha is always in [0, 1]; under the greedy reference it can
    exceed 1 and the report is flagged.  Wall times (``prune_elapsed``,
    ``eval_elapsed``) live in ``timing``, which the serial form leaves out,
    so that reports of the same inputs are byte-identical.
    """

    budgets: list[int]
    alphas: list[float]
    reference: str
    best_inside: list[float]
    best_inside_sets: list[list[int]]
    denominators: list[float]
    inside_exact: bool
    resources: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def alpha_at_k(self) -> float:
        return self.alphas[-1]

    def to_dict(self) -> dict:
        return {
            "budgets": self.budgets,
            "alphas": self.alphas,
            "reference": self.reference,
            "best_inside": self.best_inside,
            "best_inside_sets": self.best_inside_sets,
            "denominators": self.denominators,
            "inside_exact": self.inside_exact,
            "resources": self.resources,
        }


def _alpha(numer: float, denom: float) -> float:
    if denom == 0:
        return 1.0
    return numer / denom


def _greedy_reference_values(obj: Objective, pool, k: int) -> list[float]:
    """Greedy prefix values f(picks[:k']) for k' = 1..k over the given pool."""
    run = greedy(obj, pool, k)
    base = float(obj.eval(()))
    prefix = run.prefix_values(base)[1:]
    # short pool: pad with the final value
    while len(prefix) < k:
        prefix.append(prefix[-1] if prefix else base)
    return prefix


def _at_budgets(profile: exact.OptProfile, budgets: list[int]):
    """``(values, sets)`` of an exact profile at each budget.  A profile
    stops at its universe's size, where ``OPT_k'`` stops growing, so a
    larger budget reads its last entry (``f(empty)`` and ``()`` when the
    universe is empty)."""
    top = len(profile.opt_by_budget) - 1
    at = [min(b, top) for b in budgets]
    return ([float(profile.opt_by_budget[b]) for b in at],
            [list(profile.argmax_by_budget[b]) for b in at])


def containment_report(obj: Objective, pruned: PrunedSet, k: int,
                       reference: str = "exact") -> ContainmentReport:
    """Certify alpha(k') for every k' = 1..k; ``k`` below 1 raises ``ValueError``.

    ``reference="exact"`` enumerates the full universe once and reads the
    best sets inside the pruned set off the same sweep (guard enforced on
    both, the pruned set's count first); ``resources.eval_enumerated``
    counts the subsets of both.  ``reference="greedy"`` uses greedy prefix
    values on the full set as the denominator and greedy-on-P for the
    numerator when P itself is too large to enumerate.
    """
    if reference not in ("exact", "greedy"):
        raise ValueError(f"reference must be 'exact' or 'greedy', got {reference}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = obj.n
    P = pruned.elements
    budgets = list(range(1, k + 1))
    t0 = time.perf_counter()

    inside_exact = True
    if reference == "exact":
        full_profile = exact.opt_cardinality(obj, range(n), k, inside=P)
        denominators, _ = _at_budgets(full_profile, budgets)
        best_inside, best_sets = _at_budgets(full_profile.inside, budgets)
        enumerated = full_profile.enumerated_count + full_profile.inside.enumerated_count
    else:
        try:
            inside_profile = exact.opt_cardinality(obj, P, k)
            best_inside, best_sets = _at_budgets(inside_profile, budgets)
            enumerated = inside_profile.enumerated_count
        except exact.GuardExceeded:
            inside_exact = False
            best_inside = _greedy_reference_values(obj, P, k)
            best_sets = [[] for _ in best_inside]
            enumerated = 0
        denominators = _greedy_reference_values(obj, range(n), k)

    alphas = [_alpha(v, d) for v, d in zip(best_inside, denominators)]
    elapsed = time.perf_counter() - t0
    return ContainmentReport(
        budgets=budgets,
        alphas=alphas,
        reference=reference,
        best_inside=best_inside,
        best_inside_sets=best_sets,
        denominators=denominators,
        inside_exact=inside_exact,
        resources={
            "prune_queries": pruned.stats.queries,
            "eval_enumerated": enumerated,
        },
        timing={"prune_elapsed": pruned.elapsed, "eval_elapsed": elapsed},
    )


#: the pruners :func:`run_pruner` dispatches by name
PRUNER_NAMES = ("seq_disjoint", "window_rand", "window_max", "std_greedy",
                "fast_budget_range", "threshold_stream", "random")


def run_pruner(name: str, obj: Objective, n: int, k: int, *, omega: int | None = None,
               ell: int | None = None, epsilon: float | None = None,
               p: int | None = None, seed: int = 0,
               stream_shuffle: bool = False) -> PrunedSet:
    """Dispatch a pruner by name with the benchmark parameter conventions:
    the budget knob omega means ell disjoint runs for seq_disjoint, the
    window width for window pruners, and p = omega * k elements for the
    flat-budget baselines.  The stream pruner scans ids in natural order
    unless ``stream_shuffle`` asks for a seeded permutation."""
    budget = p if p is not None else (omega * k if omega else None)
    if budget is None and name in ("std_greedy", "threshold_stream", "random"):
        raise ValueError(f"{name} needs p or omega")
    if name == "seq_disjoint":
        return prune_seq_disjoint(obj, n, k, ell=ell if ell is not None else omega,
                                  epsilon=None if (ell or omega) else epsilon)
    if name in ("window_rand", "window_max"):
        if omega is None:
            raise ValueError(f"{name} needs omega")
        return prune_window(obj, n, k, omega, seed=seed,
                            pick="random" if name == "window_rand" else "argmax")
    if name == "std_greedy":
        return prune_std_greedy(obj, n, budget)
    if name == "fast_budget_range":
        if epsilon is None:
            raise ValueError("fast_budget_range needs epsilon")
        return prune_fast_budget_range(obj, n, k, epsilon)
    if name == "threshold_stream":
        eps = epsilon if epsilon is not None else 0.1
        if stream_shuffle:
            seq = np.random.default_rng(seed).permutation(n).tolist()
        else:
            seq = list(range(n))
        return prune_threshold_stream(obj, seq, k, budget, eps)
    if name == "random":
        return prune_random(n, budget, seed=seed)
    raise ValueError(f"unknown pruner {name!r}; known: {PRUNER_NAMES}")


@dataclass
class SweepResult:
    """Rows and per-(algorithm, params) aggregates of a sweep."""

    rows: list[dict]
    aggregates: list[dict]
    errors: list[dict] = field(default_factory=list)

    def aggregate_for(self, algo: str, **params) -> dict | None:
        for agg in self.aggregates:
            if agg["algorithm"] == algo and all(agg["params"].get(k) == v
                                                for k, v in params.items()):
                return agg
        return None


def _sweep_cell(cell: dict) -> dict:
    payload = cell["objective"]
    if isinstance(payload, dict) and "family" in payload:
        payload = GenSpec(payload["family"], payload["params"], payload["seed"])
    if isinstance(payload, GenSpec):
        obj = objective_from_spec(payload)
    elif isinstance(payload, dict):
        obj = objective_from_dict(payload)
    else:
        obj = payload
    algo = dict(cell["algorithm"])
    name = algo.pop("algo")
    pruned = run_pruner(name, obj, obj.n, cell["k"], seed=cell["seed"], **algo)
    report = containment_report(obj, pruned, cell["k"], reference=cell["reference"])
    return {
        "instance": cell["instance"],
        "algorithm": name,
        "params": algo,
        "seed": cell["seed"],
        "k": cell["k"],
        "alpha": report.alpha_at_k,
        "alphas": report.alphas,
        "pruned_size": len(pruned.elements),
        "queries": pruned.stats.queries,
        "reference": report.reference,
    }


def sweep(instances: Sequence[tuple[str, object]], algorithms: Sequence[dict],
          k: int, seeds: Sequence[int], reference: str = "exact",
          jobs: int = 1) -> SweepResult:
    """Run every (instance, algorithm, seed) cell and aggregate mean/std alpha.

    ``instances`` holds (id, instance) pairs, where an instance is an
    objective, a :class:`~prunekit.instances.GenSpec`, or the dict form of
    either; specs and dicts are materialized in the cell, so with
    ``jobs > 1`` each worker builds its own.  ``jobs`` must be at least 1;
    the pool holds at most one worker per cell.  Per-cell errors are recorded,
    not fatal.  Deterministic given seeds; rows are ordered by
    (instance, algorithm index, seed).
    """
    if not instances or not algorithms or not seeds:
        raise ValueError("sweep needs at least one instance, algorithm, and seed")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = []
    for inst_id, payload in instances:
        for algo in algorithms:
            for seed in seeds:
                cells.append({"instance": inst_id, "objective": payload,
                              "algorithm": dict(algo), "k": k, "seed": int(seed),
                              "reference": reference})
    rows, errors = [], []
    workers = min(jobs, len(cells))  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_cell_safe, cells))
    else:
        outcomes = [_sweep_cell_safe(c) for c in cells]
    for cell, (row, err) in zip(cells, outcomes):
        if err is not None:
            errors.append({"instance": cell["instance"],
                           "algorithm": cell["algorithm"], "seed": cell["seed"],
                           "error": err})
        else:
            rows.append(row)

    buckets: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row["algorithm"], tuple(sorted(row["params"].items())))
        buckets.setdefault(key, []).append(row["alpha"])
    aggregates = []
    for (algo, params), vals in sorted(buckets.items()):
        aggregates.append({
            "algorithm": algo,
            "params": dict(params),
            "cells": len(vals),
            "mean_alpha": float(np.mean(vals)),
            "std_alpha": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            "min_alpha": float(np.min(vals)),
        })
    return SweepResult(rows, aggregates, errors)


def _sweep_cell_safe(cell: dict):
    try:
        return _sweep_cell(cell), None
    except Exception as exc:  # per-cell failures are data, not crashes
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class SeparationResult:
    """Containment and value-separation rates: one greedy run vs disjoint runs.

    ``value_separations`` counts strict wins of the best k-subset inside the
    disjoint-run set over the best one inside the plain greedy set (exact
    extraction, the downstream-optimizer view).  ``greedy_value_separations``
    counts wins under deterministic greedy re-extraction; it is provably zero
    whenever both pruned sets contain the whole shared greedy prefix, and is
    reported to document that the separation is invisible to a greedy
    extractor.
    """

    trials: int
    greedy_contain: float
    sdg_contain: float
    greedy_contain_any: float
    sdg_contain_any: float
    value_separations: int
    separation_rate: float
    greedy_value_separations: int
    max_gap: float
    greedy_subopt: float
    mean_alpha_greedy: float
    mean_alpha_sdg: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def separation_study(gen_params: dict, trials: int, k: int, omega: int,
                     seed: int = 0) -> SeparationResult:
    """Compare one greedy run (p = omega*k picks) against omega disjoint
    greedy runs of size k on random interference-coverage instances.

    Per instance: does the canonical exact optimum (and, separately, any
    optimum) survive in each pruned set, and does the best k-subset inside
    the disjoint-run set strictly beat the best one inside the plain greedy
    set?  Extraction is exact over P: deterministic greedy re-extraction
    follows the same trajectory inside both pruned sets (the first disjoint
    run is the plain run's k-prefix), so only the downstream-optimizer view
    can separate them.  ``max_gap`` is the largest OPT-normalized win.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = dict(gen_params)
    n = params.pop("n")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..n={n}, got {k}")
    rng = np.random.default_rng(seed)
    g_canon = s_canon = g_any = s_any = 0
    wins = greedy_wins = 0
    subopt = 0
    max_gap = 0.0
    alphas_g, alphas_s = [], []
    for _ in range(trials):
        inst_seed = int(rng.integers(2**32))
        obj = gen_interference(n=n, seed=inst_seed, **params)
        profile = exact.opt_cardinality(obj, range(n), k, collect_ties=True)
        opt_val = profile.opt_by_budget[k]
        opt_set = set(profile.argmax_by_budget[k])
        optima = [set(s) for s in profile.ties_at_top or []]

        pg = prune_std_greedy(obj, n, omega * k)
        ps = prune_seq_disjoint(obj, n, k, ell=omega)
        set_g, set_s = pg.element_set(), ps.element_set()

        g_canon += opt_set <= set_g
        s_canon += opt_set <= set_s
        g_any += any(o <= set_g for o in optima)
        s_any += any(o <= set_s for o in optima)

        val_g = float(exact.opt_cardinality(obj, set_g, k).opt_by_budget[k])
        val_s = float(exact.opt_cardinality(obj, set_s, k).opt_by_budget[k])
        greedy_wins += (_greedy_extract_value(obj, set_s, k)
                        > _greedy_extract_value(obj, set_g, k))
        full_val = _greedy_extract_value(obj, range(n), k)
        if val_s > val_g:
            wins += 1
            if opt_val > 0:
                max_gap = max(max_gap, (val_s - val_g) / opt_val)
        if full_val < opt_val:
            subopt += 1
        if opt_val > 0:
            alphas_g.append(val_g / opt_val)
            alphas_s.append(val_s / opt_val)
    return SeparationResult(
        trials=trials,
        greedy_contain=g_canon / trials,
        sdg_contain=s_canon / trials,
        greedy_contain_any=g_any / trials,
        sdg_contain_any=s_any / trials,
        value_separations=wins,
        separation_rate=wins / trials,
        greedy_value_separations=greedy_wins,
        max_gap=max_gap,
        greedy_subopt=subopt / trials,
        mean_alpha_greedy=float(np.mean(alphas_g)) if alphas_g else 1.0,
        mean_alpha_sdg=float(np.mean(alphas_s)) if alphas_s else 1.0,
    )


def _greedy_extract_value(obj: Objective, pool, k: int) -> float:
    """Value of the k-subset greedy extracts from a pool (stops at zero gain)."""
    run = greedy(obj, pool, k, stop_at_zero=True)
    return float(obj.eval(run.picks))


@dataclass
class BootstrapCI:
    lo: float
    hi: float
    mean: float

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mean": self.mean}


def paired_bootstrap(diffs: Sequence[float], resamples: int = 10000,
                     seed: int = 42) -> BootstrapCI:
    """Percentile 2.5/97.5 bootstrap interval of the mean paired difference."""
    arr = np.asarray(list(diffs), dtype=float)
    if arr.size == 0:
        raise ValueError("paired_bootstrap needs a non-empty difference list")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return BootstrapCI(float(lo), float(hi), float(arr.mean()))


@dataclass
class SpeedupResult:
    t_full: float
    t_pruned: float
    ratio: float
    alpha: float
    pruned_size: int
    guard_limited: bool = False

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _median_time(fn, repeats: int = 3):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def speedup_probe(obj: Objective, n: int, k: int, pruned: PrunedSet) -> SpeedupResult:
    """Time exact extraction on the pruned set vs the full universe.

    Both sides use the same enumeration engine; times are medians of three
    runs.  If the full-universe enumeration trips the guard, the probe caps
    k until it fits and flags the result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k_full = k
    limit = exact.enumeration_guard()
    while k_full > 0 and exact.cardinality_subset_count(n, k_full) > limit:
        k_full -= 1
    if k_full == 0:
        raise exact.GuardExceeded(exact.cardinality_subset_count(n, 1), limit)

    t_full, full_profile = _median_time(lambda: exact.opt_cardinality(obj, range(n), k_full))
    t_pruned, inside_profile = _median_time(
        lambda: exact.opt_cardinality(obj, pruned.elements, min(k, k_full)))
    opt = full_profile.opt_by_budget[-1]
    alpha = _alpha(inside_profile.opt_by_budget[-1], opt)
    return SpeedupResult(
        t_full=t_full,
        t_pruned=t_pruned,
        ratio=t_full / t_pruned if t_pruned > 0 else float("inf"),
        alpha=alpha,
        pruned_size=len(pruned.elements),
        guard_limited=k_full < k,
    )
