"""Cardinality-constraint pruners, and the skeleton the knapsack pruner shares.

Each pruner reduces the ground set ``0..n-1`` to a smaller universe ``P``
that keeps, for every downstream budget ``k' <= k``, a feasible subset worth
a guaranteed (or empirically measured) fraction of the optimum.  Every run
returns a :class:`PrunedSet` carrying the elements, the provenance structure
the guarantee argument needs (disjoint runs, windows, or a threshold run),
a query-count snapshot, and wall time, all filled in by :func:`metered`.
Budgets and sizes (``k``, ``p``, ``omega``, ``ell``) are read with
``operator.index``, as ids are: a float or a string raises ``TypeError``.
Queries are counted as the engines in :mod:`prunekit.selection` count them:
one per set value a candidate scan computes.  Disjoint runs come from
:func:`prunekit.selection.disjoint_runs` (``std_greedy`` is one run), and
:class:`PrunedFile` writes and reads every pruned-set file.

Guarantee handles used by the harness:

* :func:`sdg_bound` -- sequential disjoint greedy keeps ``(1 - 1/ell)/2``.
* :func:`window_bound` -- random window pruning keeps
  ``(1 - 1/(omega k))^k / 2`` in expectation.
* :func:`witness` -- the length-``k'`` prefix of the fast-budget-range run
  keeps ``1 - 1/e - epsilon`` on monotone objectives.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .objectives import Objective, OracleStats, _ids, counting_wrap, sorted_ids
from .selection import disjoint_runs, greedy, threshold_greedy, threshold_stream, window_greedy

__all__ = [
    "PruneParams", "PrunedSet",
    "prune_seq_disjoint", "prune_window", "prune_std_greedy",
    "prune_fast_budget_range", "witness", "prune_threshold_stream",
    "prune_random", "sdg_bound", "window_bound", "EPSILON_FLOOR",
]

#: smallest epsilon the pruners accept: ``fast_budget_range`` walks about
#: ``ln(n/eta)/eta`` threshold levels at ``eta = epsilon/4``, and the
#: disjoint-run pruners take ``ceil(1/epsilon)`` runs
EPSILON_FLOOR = 1e-3


@dataclass(frozen=True)
class PruneParams:
    """Validated pruning parameters; ``ell`` defaults to ceil(1/epsilon)."""

    k: int
    omega: int | None = None
    epsilon: float | None = None
    ell: int | None = None

    def __post_init__(self):
        for size in (self.k, self.omega, self.ell):
            if size is not None:
                operator.index(size)  # a float or a string raises TypeError
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.omega is not None and self.omega < 1:
            raise ValueError("omega must be >= 1")
        if self.epsilon is not None and not (EPSILON_FLOOR <= self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in [{EPSILON_FLOOR:g}, 1/2), got {self.epsilon}")
        if self.ell is not None and self.ell < 1:
            raise ValueError("ell must be >= 1")

    def resolved_ell(self) -> int:
        if self.ell is not None:
            return self.ell
        if self.epsilon is not None:
            return math.ceil(1.0 / self.epsilon)
        raise ValueError("need ell or epsilon")


def metered(prune):
    """Run ``prune`` on its objective wrapped in a counting oracle; set stats and elapsed."""
    @functools.wraps(prune)
    def run(obj, *args, **kwargs):
        oracle = counting_wrap(obj)
        t0 = time.perf_counter()
        pruned = prune(oracle, *args, **kwargs)
        pruned.elapsed = time.perf_counter() - t0
        pruned.stats = oracle.stats()
        return pruned
    return run


class PrunedFile:
    """The pruned-set file: ``to_dict(include_timing=True)`` as sorted JSON."""

    def _timed(self, body: dict, include_timing: bool) -> dict:
        return {**body, "elapsed": self.elapsed} if include_timing else body

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing=True), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class PrunedSet(PrunedFile):
    """A pruned universe of ids below ``params["n"]``, with provenance, stats and timing."""

    algorithm: str
    params: dict
    elements: list[int]
    structure: dict
    stats: OracleStats = field(default_factory=OracleStats)
    elapsed: float = 0.0
    cap: int | None = None

    def __post_init__(self):
        self.elements = sorted_ids(self.elements, self.params.get("n", 0)).tolist()
        if self.cap is not None and len(self.elements) > self.cap:
            raise ValueError(
                f"{self.algorithm}: |P| = {len(self.elements)} exceeds cap {self.cap}")

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def to_dict(self, include_timing: bool = False) -> dict:
        return self._timed({
            "algorithm": self.algorithm,
            "params": self.params,
            "elements": self.elements,
            "structure": self.structure,
            "stats": self.stats.to_dict(),
            "cap": self.cap,
        }, include_timing)

    @classmethod
    def from_dict(cls, payload: dict) -> "PrunedSet":
        """Load a pruned set.  A fast-budget-range body (k >= 1; k = 0 is
        empty and flat) must hold a threshold run, and a legacy per-budget
        ``threshold_grid`` is read as its largest run."""
        structure = payload["structure"]
        if payload["algorithm"] == "fast_budget_range" and payload["params"]["k"]:
            structure = {"kind": "threshold_run", "picks": _run_picks(structure)}
        return cls(
            algorithm=payload["algorithm"],
            params=payload["params"],
            elements=payload["elements"],
            structure=structure,
            stats=OracleStats(**payload["stats"]),
            elapsed=payload.get("elapsed", 0.0),
            cap=payload.get("cap"),
        )


def _empty_pruned(algorithm: str, params: dict) -> PrunedSet:
    return PrunedSet(algorithm, params, [], {"kind": "flat"}, cap=0)


def sdg_bound(ell: int) -> float:
    """Worst-case containment factor of ``ell`` disjoint greedy runs."""
    return 0.5 * (1.0 - 1.0 / ell)


def window_bound(omega: float, k: int) -> float:
    """Finite-k expected containment factor of random window pruning."""
    return (1.0 - 1.0 / (omega * k)) ** k / 2.0


@metered
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
    if operator.index(k) == 0:
        return _empty_pruned("seq_disjoint", {"k": 0, "ell": ell})
    ell = PruneParams(k=k, ell=ell, epsilon=epsilon).resolved_ell()
    runs = disjoint_runs(lambda pool: greedy(obj, pool, k), range(n), ell)
    return PrunedSet(
        algorithm="seq_disjoint",
        params={"k": k, "ell": ell, "n": n},
        elements=[e for run in runs for e in run.picks],
        structure={"kind": "disjoint_runs", "runs": [r.picks for r in runs]},
        cap=ell * k,
    )


@metered
def prune_window(obj: Objective, n: int, k: int, omega: int, seed: int = 0,
                 pick: str = "random") -> PrunedSet:
    """Window pruning: k rounds, each keeping the top-min(omega*k, remaining)
    elements by marginal gain and committing one of them.

    ``pick="random"`` commits a uniformly random window element (the variant
    the expectation guarantee applies to); ``pick="argmax"`` commits the best
    one.  P is the union of all windows, each of which holds its round's
    pick, so |P| <= k + omega * k^2.  Queries <= k * n + 1.
    """
    if pick not in ("random", "argmax"):
        raise ValueError(f"pick must be 'random' or 'argmax', got {pick!r}")
    if operator.index(k) == 0:
        return _empty_pruned("window", {"k": 0, "omega": omega, "pick": pick})
    PruneParams(k=k, omega=omega)
    rng = np.random.default_rng(seed)
    choose = (lambda width: int(rng.integers(width))) if pick == "random" else (lambda width: 0)
    run, windows = window_greedy(obj, range(n), k, omega * k, choose)
    return PrunedSet(
        algorithm="window",
        params={"k": k, "omega": omega, "seed": seed, "pick": pick, "n": n},
        elements={e for window in windows for e in window},
        structure={"kind": "windows", "picks": run.picks, "windows": windows},
        cap=k + omega * k * k,
    )


@metered
def prune_std_greedy(obj: Objective, n: int, p: int) -> PrunedSet:
    """One disjoint greedy run of size min(p, n); P is its picks.

    For monotone objectives the greedy prefix property makes this the
    canonical pruner; for non-monotone ones it is the baseline the
    disjoint-run pruner is measured against.  Queries <= p * n + 1.
    """
    if operator.index(p) == 0:
        return _empty_pruned("std_greedy", {"p": 0})
    if p < 1:
        raise ValueError("p must be >= 1")
    runs = disjoint_runs(lambda pool: greedy(obj, pool, min(p, n)), range(n), 1)
    return PrunedSet(
        algorithm="std_greedy",
        params={"p": p, "n": n},
        elements=runs[0].picks,
        structure={"kind": "disjoint_runs", "runs": [r.picks for r in runs]},
        cap=p,
    )


@metered
def prune_fast_budget_range(obj: Objective, n: int, k: int, epsilon: float) -> PrunedSet:
    """Near-linear-query pruning for monotone oracles.

    One decreasing-threshold greedy run at accuracy eta = epsilon/4, capped
    at k picks; P is its picks, so |P| <= k, and the structure keeps the run
    in pick order so :func:`witness` can answer any k' <= k with a prefix.
    Queries are O((n/eta) log(n/eta)).
    """
    if operator.index(k) == 0:
        return _empty_pruned("fast_budget_range", {"k": 0, "epsilon": epsilon})
    PruneParams(k=k, epsilon=epsilon)
    eta = epsilon / 4.0
    picks = threshold_greedy(obj, range(n), k, eta).picks
    return PrunedSet(
        algorithm="fast_budget_range",
        params={"k": k, "epsilon": epsilon, "eta": eta, "n": n},
        elements=picks,
        structure={"kind": "threshold_run", "picks": picks},
        cap=k,
    )


def witness(pruned: PrunedSet, obj: Objective, k_prime: int, seed: int = 0) -> list[int]:
    """The size <= k' witness of a fast-budget-range pruned set: the first k'
    picks of its threshold run.

    Every pick of the run gains at least (1 - eta) times the best marginal
    left, whatever the cap: a better element would have been taken at the
    previous threshold, and marginals only shrink.  The threshold schedule
    does not depend on the cap either, so the prefix is exactly the run
    capped at k', and on a monotone objective it keeps
    (1 - 1/e - epsilon) OPT_{k'} (the approximate-greedy prefix argument of
    Badanidiyuru & Vondrak, SODA 2014).  A run shorter than k' stopped at
    its threshold floor (eta/n) d, d the best singleton value: every element
    left gains less than eta d / ((1 - eta) n), so the run is within k'
    times that, at most eta/(1 - eta) OPT_{k'}, of the optimum.

    ``obj`` and ``seed`` are unused: the witness is deterministic and needs
    no values.  They stay in the signature so existing callers keep working.
    """
    if pruned.algorithm != "fast_budget_range":
        raise ValueError("witness requires a fast-budget-range pruned set")
    k = pruned.params["k"]
    if not (1 <= k_prime <= k):
        raise ValueError(f"k' must be in 1..{k}, got {k_prime}")
    return _run_picks(pruned.structure)[:k_prime]


def _run_picks(structure) -> list[int]:
    """The threshold run a fast-budget-range structure stores.  A legacy
    ``threshold_grid`` structure, one run per budget on a grid, gives its
    largest run: every smaller grid run is a prefix of it."""
    kind = structure.get("kind") if isinstance(structure, dict) else None
    if kind == "threshold_run":
        picks = structure["picks"]
    elif kind == "threshold_grid":
        runs = structure["runs"]
        if not (isinstance(runs, dict) and runs):
            raise ValueError("threshold_grid structure holds no run")
        picks = runs[max(runs, key=int)]
    else:
        raise ValueError(f"a fast-budget-range structure holds a threshold run, got {kind!r}")
    if not _ids(picks):
        raise ValueError("a threshold run must be a list of integer ids")
    return picks


@metered
def prune_threshold_stream(obj: Objective, order: Sequence[int], k: int, p: int,
                           epsilon: float) -> PrunedSet:
    """Single-pass streaming threshold pruner (baseline reconstruction).

    Scans ``order`` once, tracking the running best singleton value d, and
    accepts an element while |P| < p if its marginal against the accepted set
    is at least epsilon * d / k.  This reconstructs a streaming baseline whose
    exact schedule is not pinned down anywhere; it carries no guarantee here
    and is included for comparison only.  ``epsilon`` must be finite and
    positive.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if 0 in (operator.index(k), operator.index(p)):
        return _empty_pruned("threshold_stream", {"k": k, "p": p, "epsilon": epsilon})
    order = list(order)
    if sorted(order) != list(range(obj.n)):
        raise ValueError("order must be a permutation of the ground set")
    return PrunedSet(
        algorithm="threshold_stream",
        params={"k": k, "p": p, "epsilon": epsilon, "n": obj.n},
        elements=threshold_stream(obj, order, k, p, epsilon),
        structure={"kind": "flat"},
        cap=p,
    )


def prune_random(n: int, p: int, seed: int = 0) -> PrunedSet:
    """Uniform random p-subset (clamped to n); the no-structure baseline."""
    if operator.index(p) == 0:
        return _empty_pruned("random", {"p": 0, "seed": seed})
    rng = np.random.default_rng(seed)
    return PrunedSet(
        algorithm="random",
        params={"p": p, "seed": seed, "n": n},
        elements=rng.choice(n, size=min(p, n), replace=False).tolist(),
        structure={"kind": "flat"},
        cap=p,
    )
