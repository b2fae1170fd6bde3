"""Knapsack-constraint pruning and per-budget extraction.

Pruning runs ``ell`` sequential disjoint density-greedy passes, each stopping
at accepted cost 2B while accepting nothing that would push it past 3B, so
the union P costs at most ``3 * ell * B``.  One pruned set then serves every
query budget B' <= B: :func:`extract_budget` finds a feasible subset of P
without re-pruning.

Extraction enumerates every subset of P, and returns each budget's exact
optimum over P, when |P| is at most :data:`EXHAUSTIVE_CAP` and the
enumeration guard allows it; otherwise it takes the better of a
density-greedy prefix and the best feasible singleton.  The cap is read at
call time, so a caller (a test forcing the density route, say) can patch it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import exact
from .objectives import REAL_TOL, Objective, OracleStats, counting_wrap
from .prune import PruneParams
from .selection import DensityRun, density_greedy

__all__ = ["KnapsackInstance", "KnapsackPrunedSet", "prune_sdg_density",
           "extract_budget", "extract_budget_grid"]

#: largest |P| for which extraction enumerates all subsets of P exactly
EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class KnapsackInstance:
    """Element costs and the master budget B; requires 0 < cost <= B."""

    costs: tuple[float, ...]
    B: float

    def __init__(self, costs, B: float):
        costs = tuple(float(c) for c in costs)
        B = float(B)
        if B <= 0:
            raise ValueError("master budget B must be positive")
        for e, c in enumerate(costs):
            if not (0 < c <= B):
                raise ValueError(f"cost of element {e} must be in (0, B], got {c}")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return len(self.costs)

    def check_budgets(self, budgets) -> None:
        """Raise ``ValueError`` unless every query budget is in (0, B]."""
        for b in budgets:
            if not (0 < b <= self.B):
                raise ValueError(f"query budget must be in (0, B], got {b}")

    def cost(self, S) -> float:
        return float(sum(self.costs[int(e)] for e in S))

    def to_dict(self) -> dict:
        return {"costs": list(self.costs), "B": self.B}


@dataclass
class KnapsackPrunedSet:
    """Pruned universe for a knapsack instance, with per-run provenance."""

    params: dict
    instance: KnapsackInstance
    elements: list[int]
    runs: list[DensityRun]
    total_cost: float
    stats: OracleStats
    elapsed: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "algorithm": "sdg_density",
            "params": self.params,
            "instance": self.instance.to_dict(),
            "elements": self.elements,
            "runs": [r.to_dict() for r in self.runs],
            "total_cost": self.total_cost,
            "stats": self.stats.to_dict(),
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "KnapsackPrunedSet":
        runs = [DensityRun(r["picks"], r["gains"], r["costs"],
                           [g / c for g, c in zip(r["gains"], r["costs"])],
                           r["dummy_cost"])
                for r in payload["runs"]]
        return cls(
            params=payload["params"],
            instance=KnapsackInstance(**payload["instance"]),
            elements=payload["elements"],
            runs=runs,
            total_cost=payload["total_cost"],
            stats=OracleStats(**payload["stats"]),
            elapsed=payload.get("elapsed", 0.0),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing=True), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "KnapsackPrunedSet":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def prune_sdg_density(obj: Objective, instance: KnapsackInstance,
                      ell: int | None = None, epsilon: float | None = None) -> KnapsackPrunedSet:
    """Sequential disjoint density-greedy pruning.

    ``ell`` (or ceil(1/epsilon)) passes over shrinking pools, each with
    stop cost 2B and keep cap 3B; dummy padding fills a pass whose pool runs
    out early.  The union costs at most 3*ell*B and serves every B' <= B.
    Queries: per pass ``f(empty)`` plus one value per remaining candidate
    at the start and after each acceptance; a skipped element costs no
    rescan.
    """
    if instance.n != obj.n:
        raise ValueError(f"instance has {instance.n} costs, objective has n={obj.n}")
    params = PruneParams(k=1, ell=ell, epsilon=epsilon)
    ell = params.resolved_ell()
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    pool = set(range(obj.n))
    runs: list[DensityRun] = []
    for _ in range(ell):
        run = density_greedy(oracle, pool, instance.costs,
                             stop_cost=2.0 * instance.B, keep_cap=3.0 * instance.B)
        runs.append(run)
        pool -= set(run.picks)
    elements = sorted({e for run in runs for e in run.picks})
    return KnapsackPrunedSet(
        params={"ell": ell, "B": instance.B, "n": obj.n},
        instance=instance,
        elements=elements,
        runs=runs,
        total_cost=instance.cost(elements),
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
    )


def extract_budget(pruned: KnapsackPrunedSet, obj: Objective, b_prime: float) -> list[int]:
    """Best feasible subset of P found for query budget B' <= B.

    Routes: exact enumeration over P when |P| is small enough and the guard
    allows it, otherwise the best prefix of a density-greedy pass over P at
    stop/keep = B' or the best feasible singleton, whichever is worth more.
    The result always costs at most B'.
    """
    return _extract_many(pruned, obj, [b_prime])[0]


def extract_budget_grid(pruned: KnapsackPrunedSet, obj: Objective,
                        budgets) -> list[list[int]]:
    """Per-budget extraction sharing one enumeration sweep across the grid."""
    return _extract_many(pruned, obj, list(budgets))


def _extract_many(pruned, obj, budgets):
    inst = pruned.instance
    inst.check_budgets(budgets)
    P = pruned.elements
    if len(P) <= EXHAUSTIVE_CAP:
        try:
            profile = exact.opt_knapsack(obj, P, inst.costs, budgets)
            return [sorted(s) for s in profile.argmax_by_budget]
        except exact.GuardExceeded:
            pass

    # density route: one pass per budget, scoring every prefix of the run,
    # against the best feasible singleton
    empty = float(obj.eval(()))
    singles = {e: float(obj.eval((e,))) for e in P}
    out = []
    for b in budgets:
        run = density_greedy(obj, P, inst.costs, stop_cost=b, keep_cap=b)
        value = empty
        best_val, best_prefix = empty, []
        for i, gain in enumerate(run.gains):
            value += gain
            if value > best_val:
                best_val, best_prefix = value, run.picks[: i + 1]
        candidates = [(best_val, list(best_prefix))]
        feas = [e for e in P if inst.costs[e] <= b]
        if feas:
            sv, se = max(((singles[e], e) for e in feas),
                         key=lambda t: (t[0], -t[1]))
            candidates.append((sv, [se]))
        feasible = [(v, s) for v, s in candidates if inst.cost(s) <= b + REAL_TOL]
        val, sel = max(feasible, key=lambda t: t[0])
        out.append(sorted(sel))
    return out
