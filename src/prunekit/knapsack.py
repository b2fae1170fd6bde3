"""Knapsack-constraint pruning and per-budget extraction.

Pruning is the skeleton of :mod:`prunekit.prune` with a density engine:
``ell`` sequential disjoint density-greedy passes, each stopping at accepted
cost 2B while accepting nothing that would push it past 3B, so the union P
costs at most ``3 * ell * B``.  One pruned set then serves every query
budget B' <= B: :func:`extract_budget` finds a feasible subset of P without
re-pruning.

Extraction enumerates every subset of P, and returns each budget's exact
optimum over P, when |P| is at most :data:`EXHAUSTIVE_CAP` and the
enumeration guard allows it; otherwise it takes the better, by ``eval``, of
the best prefix of a density-greedy pass and the best feasible singleton.
The cap is read at call time, so a caller (a test forcing the density
route, say) can patch it.

A caller that already holds the exact profile over all of N (as a knapsack
eval does, for its reference optima) passes it to
:func:`extract_budget_grid`: when P is all of N the exact route reads that
profile's witnesses instead of sweeping the same power set again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import exact
from .objectives import Objective, OracleStats, add_left_to_right, sorted_ids
from .prune import PrunedFile, PruneParams, metered
from .selection import DensityRun, density_greedy, disjoint_runs

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
        S = list(S)
        sorted_ids(S, self.n)  # checks the ids; the costs add in S's order
        return add_left_to_right(self.costs[e] for e in S)

    def to_dict(self) -> dict:
        return {"costs": list(self.costs), "B": self.B}


@dataclass
class KnapsackPrunedSet(PrunedFile):
    """Pruned universe for a knapsack instance, with per-run provenance."""

    params: dict
    instance: KnapsackInstance
    elements: list[int]
    runs: list[DensityRun]
    total_cost: float
    stats: OracleStats = field(default_factory=OracleStats)
    elapsed: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        return self._timed({
            "algorithm": "sdg_density",
            "params": self.params,
            "instance": self.instance.to_dict(),
            "elements": self.elements,
            "runs": [r.to_dict() for r in self.runs],
            "total_cost": self.total_cost,
            "stats": self.stats.to_dict(),
        }, include_timing)

    @classmethod
    def from_dict(cls, payload: dict) -> "KnapsackPrunedSet":
        runs = [DensityRun(r["picks"], r["gains"], r["costs"], r["dummy_cost"])
                for r in payload["runs"]]
        if not all(c > 0 for run in runs for c in run.costs):
            raise ValueError("a run cost must be positive")
        return cls(
            params=payload["params"],
            instance=KnapsackInstance(**payload["instance"]),
            elements=payload["elements"],
            runs=runs,
            total_cost=payload["total_cost"],
            stats=OracleStats(**payload["stats"]),
            elapsed=payload.get("elapsed", 0.0),
        )


@metered
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
    ell = PruneParams(k=1, ell=ell, epsilon=epsilon).resolved_ell()
    runs = disjoint_runs(lambda pool: density_greedy(obj, pool, instance.costs,
                                                     stop_cost=2.0 * instance.B,
                                                     keep_cap=3.0 * instance.B),
                         range(obj.n), ell)
    elements = sorted({e for run in runs for e in run.picks})
    return KnapsackPrunedSet(
        params={"ell": ell, "B": instance.B, "n": obj.n},
        instance=instance,
        elements=elements,
        runs=runs,
        total_cost=instance.cost(elements),
    )


def extract_budget(pruned: KnapsackPrunedSet, obj: Objective, b_prime: float) -> list[int]:
    """Best feasible subset of P found for query budget B' <= B.

    Routes: exact enumeration over P when |P| is small enough and the guard
    allows it, otherwise the best prefix of a density-greedy pass over P at
    stop/keep = B' or the best feasible singleton, whichever ``eval`` rates
    higher (the prefix on ties).  The result always costs at most B'.
    """
    return extract_budget_grid(pruned, obj, [b_prime])[0]


def extract_budget_grid(pruned: KnapsackPrunedSet, obj: Objective, budgets,
                        full_profile: exact.OptProfile | None = None) -> list[list[int]]:
    """Per-budget extraction sharing one enumeration sweep across the grid.

    ``full_profile``, when given, must be what
    ``exact.opt_knapsack(obj, range(obj.n), pruned.instance.costs, budgets)``
    returned; a profile over other budgets or another universe size raises
    ``ValueError``.  When P holds every id of N and the exact route applies,
    its witnesses are the answer: ``opt_knapsack`` sorts its universe, so
    the sweep over P would return them again.
    """
    budgets = list(budgets)
    inst = pruned.instance
    inst.check_budgets(budgets)
    if full_profile is not None:
        if full_profile.budgets != [float(b) for b in budgets]:
            raise ValueError(f"profile budgets {full_profile.budgets} are not the "
                             f"queried grid {budgets}")
        if full_profile.enumerated_count != 1 << obj.n:
            raise ValueError(f"profile enumerated {full_profile.enumerated_count} subsets, "
                             f"not the {1 << obj.n} of the power set of N")
    P = pruned.elements
    if len(P) <= EXHAUSTIVE_CAP:
        try:
            if full_profile is not None and len(sorted_ids(P, obj.n)) == obj.n:
                profile = full_profile
            else:
                profile = exact.opt_knapsack(obj, P, inst.costs, budgets)
            return [sorted(s) for s in profile.argmax_by_budget]
        except exact.GuardExceeded:
            pass

    # density route: one pass per budget; its best prefix (the first maximum of
    # the running sums; the pass accepts nothing past b) and the feasible
    # singletons are compared by eval, the prefix and then the lowest id first.
    empty = float(obj.eval(()))
    singles = {e: float(obj.eval((e,))) for e in P}
    out = []
    for b in budgets:
        run = density_greedy(obj, P, inst.costs, stop_cost=b, keep_cap=b)
        values = run.prefix_values(empty)
        prefix = run.picks[:values.index(max(values))]
        candidates = [(float(obj.eval(prefix)), prefix)]
        candidates += [(singles[e], [e]) for e in P if inst.costs[e] <= b]
        out.append(sorted(max(candidates, key=lambda t: t[0])[1]))
    return out
