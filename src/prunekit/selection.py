"""Greedy selection engines shared by the pruners.

All engines are deterministic: ties are broken by lowest element id, and each
records a transcript (picks, marginal gains at pick time) that can be
replayed against the oracle.  They accept either a raw objective or a
:class:`~prunekit.objectives.CountingOracle`.  Pools and stream orders are
read by :func:`~prunekit.objectives.sorted_ids` (a non-integer id raises
``TypeError``, one outside ``0..n-1`` ``IndexError``); an order that
repeats an id raises ``ValueError``.  Sizes and budgets (``size``,
``rounds``, ``width``, ``k``, ``p``) are read with ``operator.index`` too,
so a float or a string raises ``TypeError`` instead of being rounded.

Every engine scans candidates through one primitive, the objective's
:class:`~prunekit.objectives.CandidateScan`: a scan returns ``f(S + e)`` for
a whole array of remaining candidates at once.  A gain is ``f(S + e) - f(S)``
with ``f(S)`` kept as the running sum of the picked gains, so transcripts
match a scalar loop over ``eval`` bit for bit, gain types included.  One
query is one candidate a scan values or ranks, plus ``f(empty)`` once per
run.  Pruners pass a CountingOracle, which records those queries.

:func:`greedy` and :func:`window_greedy` share one rank-and-commit loop
over the scan's ``top``, which returns a round's window with exact values:
plain greedy commits the best candidate of a window one element wide.
:func:`density_greedy` and :func:`threshold_stream` read candidates through
``values``, and :func:`threshold_greedy` through ``values`` or, where the
scan keeps gains, their upper bounds from ``screen``.  Scans that keep
gains spare every engine the candidates a pick cannot have changed:
unweighted coverage keeps every gain exactly, so its ``values`` is one
gather, and the facility location families keep approximate gains once a
pass spans several kernel blocks, so ``top`` and a threshold sweep value
exactly only the candidates within a derived rounding bound of the window
or the threshold.  A threshold sweep that finds no hit with every value
fresh steps over the levels above the best gain without sweeping them.
:func:`disjoint_runs` is the pruners' one pool-shrinking loop over any
engine.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .objectives import CandidateScan, _gains, add_left_to_right, open_scan, sorted_ids

__all__ = ["GreedyRun", "DensityRun", "greedy", "threshold_greedy", "density_greedy",
           "window_greedy", "threshold_stream", "disjoint_runs"]


@dataclass
class GreedyRun:
    """Transcript of one greedy selection over a fixed candidate pool."""

    picks: list[int]
    gains: list[float]

    def prefix_values(self, base: float = 0.0) -> list[float]:
        """Values of f(picks[:i]) for i = 0..len(picks), given f(empty)."""
        return list(accumulate(self.gains, initial=base))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DensityRun(GreedyRun):
    """Transcript of one density-greedy selection under a cost cap.

    ``dummy_cost`` is virtual zero-value padding recorded when the pool ran
    out before the stop cost was reached; dummies never become elements.
    """

    costs: list[float] = field(default_factory=list)
    dummy_cost: float = 0.0

    @property
    def densities(self) -> list[float]:
        return [g / c for g, c in zip(self.gains, self.costs)]

    @property
    def real_cost(self) -> float:
        return add_left_to_right(self.costs)


def disjoint_runs(engine: Callable[[Iterable[int]], GreedyRun], pool: Iterable[int],
                  ell: int) -> list[GreedyRun]:
    """``ell`` runs of ``engine``, each on ``pool`` minus the picks of the
    runs before it; the later pools go to ``engine`` as ascending arrays."""
    if not isinstance(pool, (range, np.ndarray)):
        pool = list(pool)
    runs = []
    for _ in range(ell):
        if runs:
            pool = _without(pool, runs[-1].picks)
        runs.append(engine(pool))
    return runs


def _without(pool, picks: list[int]) -> np.ndarray:
    """The ids of ``pool``, which an engine has read by the id rule, less
    ``picks``, ascending."""
    if isinstance(pool, range) and pool.step > 0:
        ids = np.arange(pool.start, pool.stop, pool.step, dtype=np.intp)
    else:
        ids = np.asarray(pool, dtype=np.intp)
        if not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
    keep = np.ones(len(ids), dtype=bool)
    keep[ids.searchsorted(picks)] = False
    return ids[keep]


def greedy(oracle, pool: Iterable[int], size: int, stop_at_zero: bool = False) -> GreedyRun:
    """Plain greedy: repeatedly add the remaining element with the largest
    marginal gain, lowest id on ties -- window selection with windows one
    element wide.

    Runs for exactly ``min(size, |pool|)`` steps even when the best marginal
    is negative -- the disjoint-run pruner needs exactly-k runs.  Pass
    ``stop_at_zero=True`` to stop once the best gain is <= 0 (monotone use).
    Queries: ``f(empty)`` plus ``|pool| - i`` candidate values at step i.
    """
    if operator.index(size) < 0:
        raise ValueError("size must be >= 0")
    return _rank_and_commit(oracle, pool, size, 1, None, stop_at_zero)[0]


def threshold_greedy(oracle, pool: Iterable[int], size: int, eta: float) -> GreedyRun:
    """Decreasing-threshold greedy for monotone oracles.

    Starts at the maximum singleton value d, sweeps the pool accepting any
    element whose marginal meets the current threshold, then decays the
    threshold by (1 - eta); stops below (eta / |pool|) * d or at ``size``
    picks.  Query cost is O((|pool|/eta) log(|pool|/eta)).

    A sweep scans lazily, as a memo would: values taken at the current set
    are kept, and values made stale by an acceptance are rescanned in
    chunks of ``_FIRST_CHUNK`` elements, doubling, as the sweep reaches them;
    each chunk records one query per stale candidate.  Where the scan keeps
    gains (``screen``), a rescan reads their upper bounds instead, and only
    a candidate whose bound reaches the threshold is valued exactly.  Once
    a sweep ends with every value fresh, no level above the best gain (or
    bound) can hit: those levels are stepped over by the same products,
    without a sweep.
    """
    if not (0 < eta < 1):
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if operator.index(size) < 0:
        raise ValueError("size must be >= 0")
    scan, remaining = _open(oracle, pool)
    run = GreedyRun([], [])
    if not len(remaining) or size == 0:
        return run
    vals = scan.values(remaining)  # the singleton values
    d = vals[int(np.argmax(_gains(vals, 0)))].item()
    if d <= 0:
        return run
    base = scan.empty_value()
    gains = _gains(vals, base)  # exact, or an upper bound where ``bounded``
    fresh = np.ones(len(remaining), dtype=bool)  # scanned at the current set
    bounded = np.zeros(len(remaining), dtype=bool)
    floor = (eta / len(remaining)) * d
    tau = d
    while tau >= floor and len(run.picks) < size and len(remaining):
        start, width = 0, _FIRST_CHUNK
        while start < len(remaining) and len(run.picks) < size:
            stop = len(remaining) if fresh[start:].all() else start + width
            stale = start + np.flatnonzero(~fresh[start:stop])
            if len(stale):
                bounds = scan.screen(remaining[stale], base)
                if bounds is None:
                    vals[stale] = scan.values(remaining[stale])
                    gains[stale] = _gains(vals[stale], base)
                else:
                    gains[stale] = bounds
                bounded[stale] = bounds is not None
                fresh[stale] = True
            near = start + np.flatnonzero(bounded[start:stop] & (gains[start:stop] >= tau))
            if len(near):  # bounds that reach tau: their exact values, already counted
                vals[near] = scan.values(remaining[near], counted=False)
                gains[near] = _gains(vals[near], base)
                bounded[near] = False
            hits = np.flatnonzero(gains[start:stop] >= tau)
            if not len(hits):
                start, width = stop, 2 * width
                continue
            at = start + int(hits[0])
            gain = vals[at].item() - base
            e = int(remaining[at])
            scan.add(e)
            base += gain
            run.picks.append(e)
            run.gains.append(gain)
            remaining, vals, gains, fresh, bounded = (
                _drop(a, at) for a in (remaining, vals, gains, fresh, bounded))
            fresh[:] = False
            start, width = at, _FIRST_CHUNK
        tau *= 1.0 - eta
        if len(remaining) and fresh.all():  # no level above the best gain can hit
            tau = _live_level(tau, gains.max(), eta, floor)
    return run


def _live_level(tau, best, eta: float, floor):
    """The first threshold of the schedule from ``tau`` (``tau *= 1 - eta``,
    the same products the sweeps make) at or below ``best``, or the first
    below ``floor``: a sweep at any level above ``best`` finds no hit."""
    while best < tau >= floor:
        tau *= 1.0 - eta
    return tau


def density_greedy(oracle, pool: Iterable[int], costs, stop_cost: float,
                   keep_cap: float) -> DensityRun:
    """Knapsack greedy by marginal gain per unit cost.

    Each step selects the remaining element with the highest density
    (lowest id on ties).  It is accepted if the accumulated cost stays within
    ``keep_cap``; otherwise it is skipped permanently, and the gains of the
    others are kept.  The run stops once the accepted cost reaches
    ``stop_cost`` or the pool is exhausted, padding the shortfall with
    virtual zero-value dummy cost.  Negative marginals do not stop the run:
    the containment analysis consumes cost-bounded prefixes of the recorded
    order.
    """
    if stop_cost > keep_cap:
        raise ValueError("stop_cost must be <= keep_cap")
    scan, remaining = _open(oracle, pool)
    cost_vec = np.array([float(costs[e]) for e in remaining.tolist()])  # mapping or sequence
    for e, c in zip(remaining.tolist(), cost_vec.tolist()):
        if not c > 0:
            raise ValueError(f"cost of element {e} must be positive, got {c}")
    run = DensityRun([], [])
    base = scan.empty_value()
    spent = 0.0
    vals = None  # candidate values at the current set
    while spent < stop_cost:
        if not len(remaining):
            run.dummy_cost = stop_cost - spent
            break
        if vals is None:
            vals = scan.values(remaining)
        best = int(np.argmax(_gains(vals, base) / cost_vec))
        e, cost = int(remaining[best]), cost_vec[best].item()
        gain = vals[best].item() - base
        remaining, vals, cost_vec = (_drop(a, best) for a in (remaining, vals, cost_vec))
        if spent + cost > keep_cap:
            continue  # permanently skipped
        scan.add(e)
        base += gain
        spent += cost
        vals = None
        run.picks.append(e)
        run.gains.append(gain)
        run.costs.append(cost)
    return run


def window_greedy(oracle, pool: Iterable[int], rounds: int, width: int,
                  choose: Callable[[int], int]) -> tuple[GreedyRun, list[list[int]]]:
    """Window selection: each of ``rounds`` rounds ranks the remaining
    elements by marginal gain (lowest id on ties), keeps the top ``width``
    as the round's window and commits the one at index
    ``choose(len(window))``.  Returns the committed run and the windows;
    :func:`greedy` is the same loop with windows one element wide.
    Queries: ``f(empty)`` plus ``|pool| - i`` candidate values in round i.
    A negative ``rounds``, a ``width`` below 1 or a ``choose`` result
    outside ``0..len(window) - 1`` raises ``ValueError``.
    """
    rounds, width = operator.index(rounds), operator.index(width)
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if width < 1:
        raise ValueError("width must be >= 1")
    return _rank_and_commit(oracle, pool, rounds, width, choose)


def threshold_stream(oracle, order: Sequence[int], k: int, p: int,
                     epsilon: float) -> list[int]:
    """One pass over ``order``, tracking the running best singleton value d:
    an element is accepted while fewer than ``p`` are if its marginal
    against the accepted set is at least ``epsilon * d / k``.  Returns the
    accepted elements in order.  A ``k`` below 1 or a negative ``p`` raises
    ``ValueError``."""
    k, p = operator.index(k), operator.index(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 0:
        raise ValueError("p must be >= 0")
    scan = open_scan(oracle)
    order = list(order)
    if len(sorted_ids(order, scan.obj.n)) < len(order):
        raise ValueError("threshold_stream: order repeats an id")
    order = np.array(order, dtype=np.intp)
    singles = scan.values(order)  # at the empty set, before any add
    accepted: list[int] = []
    current = None  # f(accepted), once needed
    d = 0.0
    for i, e in enumerate(order.tolist()):
        d = max(d, singles[i].item())
        if len(accepted) >= p or d <= 0:
            continue
        if current is None:
            current = scan.empty_value()
        value = scan.values([e])[0].item()
        if value - current >= epsilon * d / k:
            accepted.append(e)
            scan.add(e)
            current = value
    return accepted


#: candidates a threshold sweep rescans at once after an acceptance; doubles
#: while the sweep finds no element above the threshold
_FIRST_CHUNK = 64


def _rank_and_commit(oracle, pool: Iterable[int], rounds: int, width: int,
                     choose: Callable[[int], int] | None, stop_at_zero: bool = False
                     ) -> tuple[GreedyRun, list[list[int]]]:
    """The loop of :func:`greedy` and :func:`window_greedy`: each round
    ranks by the scan's ``top``; a window one element wide commits its one
    entry without calling ``choose``."""
    scan, remaining = _open(oracle, pool)
    run = GreedyRun([], [])
    windows: list[list[int]] = []
    base = scan.empty_value()
    while len(remaining) and len(run.picks) < rounds:
        ranked, vals = scan.top(remaining, base, width)
        i = 0 if width == 1 else operator.index(choose(len(ranked)))
        if not 0 <= i < len(ranked):
            raise ValueError(f"choose returned {i} for a window of {len(ranked)}")
        at = int(ranked[i])
        e = int(remaining[at])
        gain = vals[i].item() - base
        if stop_at_zero and gain <= 0:
            break
        windows.append([e] if width == 1 else remaining[ranked].tolist())
        scan.add(e)
        base += gain
        remaining = _drop(remaining, at)
        run.picks.append(e)
        run.gains.append(gain)
    return run, windows


def _open(oracle, pool: Iterable[int]) -> tuple[CandidateScan, np.ndarray]:
    """A scan at the empty set and the pool as an ascending id array."""
    scan = open_scan(oracle)
    return scan, sorted_ids(pool, scan.obj.n)


def _drop(a: np.ndarray, i: int) -> np.ndarray:
    """``a`` without entry ``i``; ``np.delete`` costs several times more on
    the short arrays of small pools."""
    return np.concatenate((a[:i], a[i + 1:]))
