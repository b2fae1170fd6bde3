"""Cardinality-constraint pruners.

Each pruner reduces the ground set ``0..n-1`` to a smaller universe ``P``
that keeps, for every downstream budget ``k' <= k``, a feasible subset worth
a guaranteed (or empirically measured) fraction of the optimum.  Every run
returns a :class:`PrunedSet` carrying the elements, the provenance structure
the guarantee argument needs (disjoint runs, windows, or per-budget grids),
a query-count snapshot, and wall time.  Queries are counted as the engines
in :mod:`prunekit.selection` count them: one per set value a candidate scan
computes, with no memo hits.

Guarantee handles used by the harness:

* :func:`sdg_bound` -- sequential disjoint greedy keeps ``(1 - 1/ell)/2``.
* :func:`window_bound` -- random window pruning keeps
  ``(1 - 1/(omega k))^k / 2`` in expectation.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import Objective, OracleStats, counting_wrap
from .selection import GreedyRun, greedy, threshold_greedy, threshold_stream, window_greedy

__all__ = [
    "PruneParams", "PrunedSet",
    "prune_seq_disjoint", "prune_window", "prune_std_greedy",
    "prune_fast_budget_range", "witness", "prune_threshold_stream",
    "prune_random", "budget_grid", "sdg_bound", "window_bound",
]


@dataclass(frozen=True)
class PruneParams:
    """Validated pruning parameters; ``ell`` defaults to ceil(1/epsilon)."""

    k: int
    p: int | None = None
    omega: int | None = None
    epsilon: float | None = None
    ell: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.p is not None and self.p < self.k:
            raise ValueError("pruning budget p must be >= k")
        if self.omega is not None and self.omega < 1:
            raise ValueError("omega must be >= 1")
        if self.epsilon is not None and not (0 < self.epsilon < 0.5):
            raise ValueError("epsilon must be in (0, 1/2)")
        if self.ell is not None and self.ell < 1:
            raise ValueError("ell must be >= 1")

    def resolved_ell(self) -> int:
        if self.ell is not None:
            return self.ell
        if self.epsilon is not None:
            return math.ceil(1.0 / self.epsilon)
        raise ValueError("need ell or epsilon")

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class PrunedSet:
    """A pruned universe with provenance, query stats, and timing."""

    algorithm: str
    params: dict
    elements: list[int]
    structure: dict
    stats: OracleStats
    elapsed: float = 0.0
    cap: int | None = None

    def __post_init__(self):
        self.elements = sorted(int(e) for e in self.elements)
        if self.cap is not None and len(self.elements) > self.cap:
            raise ValueError(
                f"{self.algorithm}: |P| = {len(self.elements)} exceeds cap {self.cap}")

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "algorithm": self.algorithm,
            "params": self.params,
            "elements": self.elements,
            "structure": self.structure,
            "stats": self.stats.to_dict(),
            "cap": self.cap,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "PrunedSet":
        return cls(
            algorithm=payload["algorithm"],
            params=payload["params"],
            elements=payload["elements"],
            structure=payload["structure"],
            stats=OracleStats(**payload["stats"]),
            elapsed=payload.get("elapsed", 0.0),
            cap=payload.get("cap"),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing=True), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "PrunedSet":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _empty_pruned(algorithm: str, params: dict) -> PrunedSet:
    return PrunedSet(algorithm, params, [], {"kind": "flat"}, OracleStats(), 0.0, cap=0)


def sdg_bound(ell: int) -> float:
    """Worst-case containment factor of ``ell`` disjoint greedy runs."""
    return 0.5 * (1.0 - 1.0 / ell)


def window_bound(omega: float, k: int) -> float:
    """Finite-k expected containment factor of random window pruning."""
    return (1.0 - 1.0 / (omega * k)) ** k / 2.0


def prune_seq_disjoint(obj: Objective, n: int, k: int, ell: int | None = None,
                       epsilon: float | None = None) -> PrunedSet:
    """Sequential disjoint greedy: ``ell`` greedy runs of size k, each on the
    ground set minus all previous runs; P is their union.

    When n < ell * k the pools exhaust and P = N (containment is then exact).
    Runs keep extending through negative marginals so that each has exactly
    min(k, |pool|) picks.  Each run costs one empty-set value plus one value
    per remaining candidate per step, so queries <= ell * k * n for k >= 2
    (ell * n + 1 when k = 1).
    """
    if k == 0:
        return _empty_pruned("seq_disjoint", {"k": 0, "ell": ell})
    params = PruneParams(k=k, ell=ell, epsilon=epsilon)
    ell = params.resolved_ell()
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    pool = set(range(n))
    runs: list[GreedyRun] = []
    for _ in range(ell):
        run = greedy(oracle, pool, k)
        runs.append(run)
        pool -= set(run.picks)
    elements = [e for run in runs for e in run.picks]
    return PrunedSet(
        algorithm="seq_disjoint",
        params={"k": k, "ell": ell, "n": n},
        elements=elements,
        structure={"kind": "disjoint_runs", "runs": [r.picks for r in runs]},
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
        cap=ell * k,
    )


def prune_window(obj: Objective, n: int, k: int, omega: int, seed: int = 0,
                 pick: str = "random") -> PrunedSet:
    """Window pruning: k rounds, each keeping the top-min(omega*k, remaining)
    elements by marginal gain and committing one of them.

    ``pick="random"`` commits a uniformly random window element (the variant
    the expectation guarantee applies to); ``pick="argmax"`` commits the best
    one.  P is the union of all windows plus the committed picks,
    |P| <= k + omega * k^2.  Queries <= k * n + 1.
    """
    if pick not in ("random", "argmax"):
        raise ValueError(f"pick must be 'random' or 'argmax', got {pick!r}")
    if k == 0:
        return _empty_pruned("window", {"k": 0, "omega": omega, "pick": pick})
    PruneParams(k=k, omega=omega, seed=seed)
    rng = np.random.default_rng(seed)
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    choose = (lambda width: int(rng.integers(width))) if pick == "random" else (lambda width: 0)
    run, windows = window_greedy(oracle, range(n), k, omega * k, choose)
    picks = run.picks
    elements = set(picks)
    for win in windows:
        elements.update(win)
    return PrunedSet(
        algorithm="window",
        params={"k": k, "omega": omega, "seed": seed, "pick": pick, "n": n},
        elements=sorted(elements),
        structure={"kind": "windows", "picks": picks, "windows": windows},
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
        cap=k + omega * k * k,
    )


def prune_std_greedy(obj: Objective, n: int, p: int) -> PrunedSet:
    """One plain greedy run of size min(p, n); P is its picks.

    For monotone objectives the greedy prefix property makes this the
    canonical pruner; for non-monotone ones it is the baseline the
    disjoint-run pruner is measured against.  Queries <= p * n + 1.
    """
    if p == 0:
        return _empty_pruned("std_greedy", {"p": 0})
    if p < 1:
        raise ValueError("p must be >= 1")
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    run = greedy(oracle, range(n), min(p, n))
    return PrunedSet(
        algorithm="std_greedy",
        params={"p": p, "n": n},
        elements=run.picks,
        structure={"kind": "disjoint_runs", "runs": [run.picks]},
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
        cap=p,
    )


def budget_grid(k: int, eta: float) -> list[int]:
    """Budget grid for fast budget-range pruning: the small budgets
    1..min(k, ceil(1/eta)) plus the geometric ladder min(k, ceil((1+eta)^j))."""
    if k < 1:
        return []
    small = set(range(1, min(k, math.ceil(1.0 / eta)) + 1))
    geometric = set()
    j_top = math.ceil(math.log(k, 1.0 + eta)) if k > 1 else 0
    for j in range(j_top + 1):
        geometric.add(min(k, math.ceil((1.0 + eta) ** j)))
    return sorted(small | geometric)


def prune_fast_budget_range(obj: Objective, n: int, k: int, epsilon: float) -> PrunedSet:
    """Near-linear-query pruning for monotone oracles.

    Runs decreasing-threshold greedy at accuracy eta = epsilon/4 for every
    budget on :func:`budget_grid`; P is the union of the runs and the
    structure keeps each per-budget run so :func:`witness` can answer any
    k' <= k.  |P| = O(k/epsilon); queries are O~(n/epsilon^2).
    """
    if k == 0:
        return _empty_pruned("fast_budget_range", {"k": 0, "epsilon": epsilon})
    params = PruneParams(k=k, epsilon=epsilon)
    eta = epsilon / 4.0
    grid = budget_grid(k, eta)
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    runs: dict[int, list[int]] = {}
    for q in grid:
        runs[q] = threshold_greedy(oracle, range(n), q, eta).picks
    elements = sorted({e for picks in runs.values() for e in picks})
    return PrunedSet(
        algorithm="fast_budget_range",
        params={"k": k, "epsilon": epsilon, "eta": eta, "grid": grid, "n": n},
        elements=elements,
        structure={"kind": "threshold_grid",
                   "runs": {str(q): picks for q, picks in runs.items()}},
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
        cap=sum(grid),
    )


def witness(pruned: PrunedSet, obj: Objective, k_prime: int, seed: int = 0,
            retries: int | None = None) -> list[int]:
    """Extract a size <= k' witness from a threshold-grid pruned set.

    Picks the smallest grid budget q >= k'; returns the stored run when it
    already fits, otherwise the best of ceil(4/epsilon) uniformly random
    k'-subsets of it.
    """
    if pruned.structure.get("kind") != "threshold_grid":
        raise ValueError("witness requires a fast-budget-range pruned set")
    k = pruned.params["k"]
    if not (1 <= k_prime <= k):
        raise ValueError(f"k' must be in 1..{k}, got {k_prime}")
    grid = sorted(int(q) for q in pruned.structure["runs"])
    q = next(b for b in grid if b >= k_prime)
    run = pruned.structure["runs"][str(q)]
    if len(run) <= k_prime:
        return list(run)
    if retries is None:
        retries = math.ceil(4.0 / pruned.params["epsilon"])
    rng = np.random.default_rng(seed)
    best_set, best_val = None, None
    for _ in range(retries):
        cand = sorted(rng.choice(len(run), size=k_prime, replace=False).tolist())
        cand = [run[i] for i in cand]
        val = obj.eval(cand)
        if best_val is None or val > best_val:
            best_set, best_val = cand, val
    return best_set


def prune_threshold_stream(obj: Objective, order: Sequence[int], k: int, p: int,
                           epsilon: float) -> PrunedSet:
    """Single-pass streaming threshold pruner (baseline reconstruction).

    Scans ``order`` once, tracking the running best singleton value d, and
    accepts an element while |P| < p if its marginal against the accepted set
    is at least epsilon * d / k.  This reconstructs a streaming baseline whose
    exact schedule is not pinned down anywhere; it carries no guarantee here
    and is included for comparison only.
    """
    if k == 0 or p == 0:
        return _empty_pruned("threshold_stream", {"k": k, "p": p, "epsilon": epsilon})
    order = [int(e) for e in order]
    if sorted(order) != list(range(obj.n)):
        raise ValueError("order must be a permutation of the ground set")
    oracle = counting_wrap(obj)
    t0 = time.perf_counter()
    accepted = threshold_stream(oracle, order, k, p, epsilon)
    return PrunedSet(
        algorithm="threshold_stream",
        params={"k": k, "p": p, "epsilon": epsilon, "n": obj.n},
        elements=accepted,
        structure={"kind": "flat"},
        stats=oracle.stats(),
        elapsed=time.perf_counter() - t0,
        cap=p,
    )


def prune_random(n: int, p: int, seed: int = 0) -> PrunedSet:
    """Uniform random p-subset (clamped to n); the no-structure baseline."""
    if p == 0:
        return _empty_pruned("random", {"p": 0, "seed": seed})
    rng = np.random.default_rng(seed)
    take = min(p, n)
    elements = sorted(rng.choice(n, size=take, replace=False).tolist())
    return PrunedSet(
        algorithm="random",
        params={"p": p, "seed": seed, "n": n},
        elements=elements,
        structure={"kind": "flat"},
        stats=OracleStats(),
        elapsed=0.0,
        cap=p,
    )
