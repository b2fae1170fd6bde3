"""Exhaustive optimum oracles.

These provide the denominators for containment ratios and the independent
verification side of every guarantee check.  Both take an objective, not a
counting wrapper, and read the universe by :func:`~prunekit.objectives.sorted_ids`
(a non-integer id raises ``TypeError``, one outside ``0..n-1``
``IndexError``, and a repeat counts once).  Enumeration is guarded: a call
that would visit more than the guard's subset count is refused with
:class:`GuardExceeded` so callers can fall back to a greedy reference.  The
guard defaults to 10^8 subsets and can be overridden with the
``PRUNEKIT_GUARD`` environment variable, the one place it is set.

:func:`opt_cardinality` enumerates with :func:`subset_batches`.  It builds
subsets as numpy ``(batch, width)`` id arrays, never as Python tuples, in
size-ascending lexicographic order (the order of ``itertools.combinations``).
Rows shorter than the batch width are padded with the empty-slot id ``n``.

Each batch is valued by one call to the objective's batched kernel,
``Objective.eval_ids`` (contract in :mod:`prunekit.objectives`).  The
kernel returns, bit for bit, what ``eval`` returns for each row, whatever
else is in the batch, so the optima, the canonical argmaxes and
``ties_at_top`` are values ``eval`` gives their witnesses and do not
depend on how subsets are batched.

Each size comes from one builder, :func:`_lex_pieces`: a whole table when it
has at most ``_CHUNK`` rows, else consecutive pieces of at most ``_CHUNK``
rows, split by leading ids.  One rule batches them: pieces of at most
``_GROUP_ROWS`` rows share a padded batch, in order, until the next piece
would not fit; a larger piece comes alone as soon as it is built.
Enumerations that fit one batch are built once per (universe size, k) and
reused.

:func:`opt_knapsack` builds no id tables.  It reads two power-set tables
indexed by the subset mask over the sorted universe (bit ``i`` stands for
the ``i``-th smallest id): costs from
:func:`~prunekit.objectives.power_set_sums` and values from
:func:`~prunekit.objectives.power_set_values`, whose doubling steps
``tab[h:2h] = tab[:h] (+) element j`` (``h = 2^j``) add costs in ascending
id order, as a row sum does, so every feasibility test keeps its bits.
Both come in blocks of at most ``_CHUNK`` masks: the low bits span one
table, built once, and each block fixes the high bits, folding the high
elements onto it in ascending order.  The argmax per budget is the first
optimum in size-ascending lexicographic order: among the feasible masks
that tie for the maximum, the smallest popcount, then the largest mask with
its bits reversed; only the tied masks are ranked.  Each block visits the
budgets from the largest down: the feasible sets shrink, so a budget keeps
the last maximum and its tied masks that still fit, and pays a full masked
pass over the block only when none of them does.

The module constants ``_CHUNK``, ``_GROUP_ROWS`` and :data:`TIE_CAP` (the
most optimal sets a ``collect_ties`` profile keeps) are read at call time,
so tests patch them instead of passing them as arguments.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .objectives import Objective, power_set_sums, power_set_values, sorted_ids

__all__ = ["GuardExceeded", "enumeration_guard", "cardinality_subset_count",
           "OptProfile", "opt_cardinality", "opt_knapsack", "check_guard",
           "subset_batches"]

DEFAULT_GUARD = 10**8
GUARD_ENV = "PRUNEKIT_GUARD"

#: a size table larger than this comes in pieces of at most this many rows,
#: and a power-set table in blocks of at most this many masks
_CHUNK = 1 << 17
#: pieces share one padded batch up to this many rows, so that small
#: enumerations cost one kernel call; larger pieces come alone
_GROUP_ROWS = 1 << 12
#: most optimal sets ``opt_cardinality(..., collect_ties=True)`` keeps
TIE_CAP = 256


class GuardExceeded(RuntimeError):
    """Raised when an enumeration would exceed the subset-count guard."""

    def __init__(self, needed: int, limit: int):
        super().__init__(f"enumeration of {needed} subsets exceeds guard {limit}")
        self.needed = needed
        self.limit = limit


def enumeration_guard() -> int:
    """Current guard value (env override, else 10^8 subsets)."""
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return DEFAULT_GUARD
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{GUARD_ENV} must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ValueError(f"{GUARD_ENV} must be positive")
    return val


@functools.lru_cache(maxsize=256)
def cardinality_subset_count(universe_size: int, k: int) -> int:
    """Number of subsets of size <= k."""
    k = min(k, universe_size)
    return sum(math.comb(universe_size, j) for j in range(k + 1))


@dataclass
class OptProfile:
    """Exact optima per budget with canonical argmax witnesses.

    For cardinality profiles ``budgets`` is 0..k and ``opt_by_budget[j]`` is
    the maximum over subsets of size <= j.  For knapsack profiles ``budgets``
    is the queried cost-budget grid.  The canonical argmax is the
    lexicographically smallest optimal set (as a sorted id tuple); for
    knapsack it is the first optimum in size-ascending lexicographic order.
    """

    budgets: list
    opt_by_budget: list[float]
    argmax_by_budget: list[tuple[int, ...]]
    enumerated_count: int
    ties_at_top: list[tuple[int, ...]] | None = None

    def opt(self, budget) -> float:
        return self.opt_by_budget[self.budgets.index(budget)]

    def to_dict(self) -> dict:
        return {
            "budgets": list(self.budgets),
            "opt_by_budget": [float(v) for v in self.opt_by_budget],
            "argmax_by_budget": [list(s) for s in self.argmax_by_budget],
            "enumerated_count": self.enumerated_count,
        }


def _lex_pieces(m: int, s: int, chunk: int) -> Iterator[np.ndarray]:
    """The ``s``-subsets of ``range(m)`` in lexicographic order, as
    consecutive tables of at most ``chunk`` rows, split by leading id.

    A table that fits ``chunk`` grows from the (s-1)-table of ``range(m-1)``
    (see :func:`_led`): along a diagonal of Pascal's triangle, every table
    built on the way is no larger than the result.
    """
    if s == 0:
        yield np.empty((1, 0), dtype=np.intp)
    elif s == 1 and m <= chunk:  # the first table of the diagonal
        yield np.arange(m, dtype=np.intp)[:, None]
    elif math.comb(m, s) <= chunk:
        yield _led_table(0, [sub for _, sub in _led(m, s, chunk)], s)
    else:
        for a, sub in _led(m, s, chunk):
            yield _led_table(a, [sub], s)


def _led(m: int, s: int, chunk: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(a, sub)`` pairs in lexicographic order: the ``s``-subsets of
    ``range(m)`` led by ``a`` are ``a`` followed by 1 + the rows of ``sub``,
    the (s-1)-subsets of ``range(a, m - 1)``.  Those are a suffix of the
    (s-1)-table of ``range(m - 1)`` when that table fits ``chunk``."""
    if math.comb(m - 1, s - 1) <= chunk:
        tail, = _lex_pieces(m - 1, s - 1, chunk)
        for a in range(m - s + 1):
            yield a, tail[len(tail) - math.comb(m - 1 - a, s - 1):]
    else:
        for a in range(m - s + 1):
            for sub in _lex_pieces(m - a - 1, s - 1, chunk):
                yield a, sub + a


def _led_table(first: int, subs: list[np.ndarray], s: int) -> np.ndarray:
    """One table holding, for each ``i``, the rows ``first + i`` then
    1 + ``subs[i]``."""
    counts = [len(sub) for sub in subs]
    table = np.empty((sum(counts), s), dtype=np.intp)
    table[:, 0] = np.repeat(np.arange(first, first + len(subs)), counts)
    np.add(subs[0] if len(subs) == 1 else np.concatenate(subs), 1, out=table[:, 1:])
    return table


def _padded(group: list[tuple[int, np.ndarray]], pad: int):
    """Stack ``(size, table)`` pieces into one batch padded with ``pad``."""
    width = max(1, max(s for s, _ in group))
    pos = np.full((sum(len(t) for _, t in group), width), pad, dtype=np.intp)
    runs, row = [], 0
    for s, table in group:
        pos[row:row + len(table), :s] = table
        runs.append((s, row, row + len(table)))
        row += len(table)
    return pos, tuple(runs)


def _position_batches(u: int, k: int):
    """Batches over the subsets of ``range(u)`` with at most ``k`` elements:
    ``(positions, runs)`` with empty slot ``u`` and ``runs`` the
    ``(size, start, stop)`` row range of each piece in the batch."""
    group: list[tuple[int, np.ndarray]] = []
    rows, group_rows = 0, min(_CHUNK, _GROUP_ROWS)
    for s in range(k + 1):
        for table in _lex_pieces(u, s, _CHUNK):
            if group and rows + len(table) > group_rows:
                yield _padded(group, u)
                group, rows = [], 0
            if len(table) > group_rows:
                yield table, ((s, 0, len(table)),)
            else:
                group.append((s, table))
                rows += len(table)
    if group:
        yield _padded(group, u)


@functools.lru_cache(maxsize=16)
def _cached_batch(u: int, k: int):
    """The single batch of an enumeration of at most ``_GROUP_ROWS`` subsets."""
    (pos, runs), = _position_batches(u, k)
    pos.flags.writeable = False
    return pos, runs


def subset_batches(universe: Sequence[int], n: int, k: int):
    """Every subset of ``universe`` with at most ``k`` elements, as id batches.

    ``universe`` is a sorted list of distinct ids in ``0..n-1``.  Yields
    ``(ids, runs)``: ``ids`` is a ``(batch, width)`` intp array whose rows
    come in size-ascending lexicographic order, padded with the empty-slot
    id ``n``; ``runs`` lists the ``(size, start, stop)`` row range of each
    piece in the batch (a size split into pieces has one run per piece).
    The arrays may be shared with later calls and must not be written to.
    """
    u = len(universe)
    k = min(k, u)
    if cardinality_subset_count(u, k) <= min(_CHUNK, _GROUP_ROWS):
        batches = iter([_cached_batch(u, k)])
    else:
        batches = _position_batches(u, k)
    if u == n:  # the universe is range(n): positions are ids
        yield from batches
        return
    to_id = np.array([*universe, n], dtype=np.intp)
    for pos, runs in batches:
        yield to_id[pos], runs


def check_guard(needed: int) -> None:
    """Raise :class:`GuardExceeded` if ``needed`` subsets exceed the guard."""
    if needed > (limit := enumeration_guard()):
        raise GuardExceeded(needed, limit)


def opt_cardinality(obj: Objective, universe: Sequence[int], k: int, *,
                    collect_ties: bool = False) -> OptProfile:
    """Exact OPT_j = max_{|T| <= j} f(T) for every j = 0..k, in one sweep.

    Deterministic: the recorded argmax is the lexicographically smallest
    optimal set.  With ``collect_ties`` the profile also retains every
    optimal set at the top budget (the first ``TIE_CAP`` in lexicographic
    order), which lets callers test "any optimal set contained" without tie
    ambiguity.
    """
    universe = sorted_ids(universe, obj.n).tolist()
    u = len(universe)
    k = min(int(k), u)
    if k < 0:
        raise ValueError("k must be >= 0")
    total = cardinality_subset_count(u, k)
    check_guard(total)

    # per size: its best value and its first optimal sets in enumeration order
    per_size: list[tuple[float, list[tuple[int, ...]]] | None] = [None] * (k + 1)
    for ids, runs in subset_batches(universe, obj.n, k):
        vals = np.asarray(obj.eval_ids(ids), dtype=float)
        for size, lo, hi in runs:
            seg = vals[lo:hi]
            first = int(seg.argmax())  # the first maximum in enumeration order
            vmax = float(seg[first])
            if per_size[size] is None or vmax > per_size[size][0]:
                per_size[size] = (vmax, [])
            size_best, size_sets = per_size[size]
            if vmax != size_best:
                continue
            if collect_ties:
                rows = lo + np.flatnonzero(seg == vmax)[:TIE_CAP - len(size_sets)]
                size_sets.extend(tuple(row[:size]) for row in ids[rows].tolist())
            elif not size_sets:
                size_sets.append(tuple(ids[lo + first, :size].tolist()))

    profile: list[float] = []
    argmax: list[tuple[int, ...]] = []
    for size_best, size_sets in per_size:
        cand = size_sets[0]  # the lexicographically smallest optimum of this size
        if not profile or size_best > best_val:
            best_val, best_set = size_best, cand
        elif size_best == best_val and cand < best_set:
            best_set = cand
        profile.append(best_val)
        argmax.append(best_set)

    ties = None
    if collect_ties:
        ties = sorted(s for v, size_sets in per_size if v == best_val
                      for s in size_sets)[:TIE_CAP]
    return OptProfile(list(range(k + 1)), profile, argmax, total, ties)


def block_bits(u: int) -> int:
    """Low bits per block of a power-set table over ``u`` elements: blocks
    hold at most ``_CHUNK`` masks."""
    return min(u, _CHUNK.bit_length() - 1)


def _first_in_order(masks: np.ndarray, u: int) -> int:
    """The mask among ``masks`` whose set comes first in size-ascending
    lexicographic order: the smallest popcount, then the largest mask with
    its ``u`` bits reversed.  Among sets of one size that agree below bit
    ``i``, those holding ``i`` come first, so the masks are filtered bit by
    bit from the lowest."""
    sizes = np.bitwise_count(masks)
    masks = masks[sizes == sizes.min()]
    for i in range(u):
        if len(masks) == 1:
            break
        holds = (masks >> i & 1).astype(bool)
        if holds.any():
            masks = masks[holds]
    return int(masks[0])


def opt_knapsack(obj: Objective, universe: Sequence[int], costs,
                 budgets: Sequence[float]) -> OptProfile:
    """Exact OPT_B = max {f(T) : c(T) <= B} for every queried budget, in one
    sweep over the power-set tables of the universe, block by block.

    The guard counts the full power set.  Argmax per budget is the first
    optimum in size-ascending lexicographic enumeration order.  Budgets must
    be positive, not NaN; costs positive and finite.  Each block visits the
    budgets in descending order, keeping the tied optima that still fit, and
    takes a new masked maximum only when none does.
    """
    universe = sorted_ids(universe, obj.n).tolist()
    u = len(universe)
    budgets = [float(b) for b in budgets]
    if not budgets:
        raise ValueError("need at least one budget")
    if not all(b > 0 for b in budgets):  # NaN fails too
        raise ValueError("budgets must be positive")
    check_guard(1 << u)
    cost = np.array([float(costs[e]) for e in universe])
    if u and not (np.isfinite(cost).all() and cost.min() > 0):
        raise ValueError("costs must be positive and finite")

    low = block_bits(u)
    descending = sorted(range(len(budgets)), key=budgets.__getitem__, reverse=True)
    best_val = [-np.inf] * len(budgets)
    best_mask = [0] * len(budgets)
    start = 0
    for spent, vals in zip(power_set_sums(cost, low), power_set_values(obj, universe, low)):
        ties = np.empty(0, dtype=np.intp)
        for j in descending:
            b = budgets[j]
            if len(ties) and spent[first] > b:  # the feasible sets shrink
                ties = ties[spent[ties] <= b]
                if len(ties):
                    first = _first_in_order(ties, u)
            if not len(ties):
                feasible = np.where(spent <= b, vals, -np.inf)
                top = feasible.max()
                if top == -np.inf:
                    break
                ties = np.flatnonzero(feasible == top)
                first = _first_in_order(ties, u)
            if top < best_val[j]:
                continue
            mask = start + first
            if top == best_val[j]:
                mask = _first_in_order(np.array([best_mask[j], mask]), u)
                if mask == best_mask[j]:
                    continue
            best_val[j], best_mask[j] = float(vals[mask - start]), mask
        start += len(vals)
    argmax = [tuple(e for i, e in enumerate(universe) if mask >> i & 1) for mask in best_mask]
    return OptProfile(budgets, best_val, argmax, 1 << u)
