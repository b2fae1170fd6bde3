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

The colex sweep serves :func:`opt_cardinality` alone.  It enumerates the
universe reflected (position ``p`` is the ``p``-th largest id), each size
in colex order (Knuth, *TAOCP* 4A, 7.2.1.3): the ``s``-subsets whose
largest position is ``j`` are the first ``C(j, s-1)`` rows of the
``(s-1)``-table plus ``j``.  So one generator,
:func:`_sweep`, grows each size table from prefixes of the last whole one,
one broadcast per block (:func:`_leaves`), in channels that each fill a
batch's table from the held one: the states of the family's
``_sweep_states``, by default the fold states of its ``_fold`` (its own,
:class:`~prunekit.objectives.Proxy`'s facility location) extended by the
fold's exact ``op``, and for unweighted Cut each row's positions and
integer cut value, extended by one step per new position,
``cut(T + j) = cut(T) + deg(j) - 2 * (edges from j into T)``, over the
whole batch; ascending id rows (the new id comes first) for
interference's pair penalties; and the flags of the rows inside an
``inside`` set, extended by ``and``.  A family names what it reads
(``_sweep_states``, ``_sweep_ids``) and values it in ``_sweep_values``,
bit for bit as ``eval`` (the contract in :mod:`prunekit.objectives`), so
no optimum depends on the batching.

Lexicographic order is the reverse of this order (``A`` precedes ``B`` when
``min(A ^ B)`` lies in ``A``), so a size's canonical witness, its
lexicographically smallest optimum, is its *last* maximum, read back from
its colex rank.  The flagged rows give the profile over ``inside`` from the
same sweep, so :func:`~prunekit.harness.containment_report` enumerates ``N``
once, not ``N`` and then ``P``.  Memory stays bounded: a size table is whole
only up to ``_CHUNK`` rows and ``objectives._KERNEL_CELLS`` folded cells,
only the last whole table is held, and larger tables come in batches of
leaves of at most ``_GROUP_ROWS`` rows, in two buffers per table kind reused
batch after batch.  An enumeration of at most ``_GROUP_ROWS`` subsets is one
cached batch of position rows, padded with the empty slot's position ``u``,
and one ``_position_values`` call values it: by default ``eval_ids`` of
its ids; unweighted Cut sums a table over each row's position pairs.  Its
rows come in the sweep's order, so its witnesses are read back the same
way.  Unweighted Cut's table over the universe's positions (``(u + 1)^2``
small integers) is built only for a row of two positions, so an
enumeration of single ids reads the degrees alone.

:func:`opt_knapsack` builds no id tables.  It reads two power-set tables
indexed by the subset mask over the sorted universe (bit ``i`` stands for
the ``i``-th smallest id): values from
:func:`~prunekit.objectives.power_set_values`, which each family builds in
the layer that values it, and costs from
:func:`~prunekit.objectives.power_set_sums`, whose doubling steps
``tab[h:2h] = tab[:h] + c_j`` (``h = 2^j``) add costs in ascending id
order, as a row sum does, so every feasibility test keeps its bits.
Both come in blocks of at most ``_CHUNK`` masks: the low bits span one
table, built once, and each block fixes the high bits, folding the high
elements onto it in ascending order.  The argmax per budget is the first
optimum in size-ascending lexicographic order: among the feasible masks
that tie for the maximum, the smallest popcount, then the largest mask with
its bits reversed; only the tied masks are ranked.  Each block visits the
budgets from the largest down: the feasible sets shrink, so a budget keeps
the last maximum and its tied masks that still fit, and pays a full masked
pass over the block only when none of them does.

The module constants ``_CHUNK`` and ``_GROUP_ROWS``, and
``objectives._KERNEL_CELLS``, are read at call time, so tests patch them
instead of passing them as arguments.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import objectives
from .objectives import Objective, _Folded, power_set_sums, power_set_values, sorted_ids

__all__ = ["GuardExceeded", "enumeration_guard", "cardinality_subset_count",
           "OptProfile", "opt_cardinality", "opt_knapsack", "check_guard"]

DEFAULT_GUARD = 10**8
GUARD_ENV = "PRUNEKIT_GUARD"

#: a size table larger than this comes in batches, and a power-set table in
#: blocks of at most this many masks
_CHUNK = 1 << 17
#: an enumeration of at most this many subsets is one cached batch, valued
#: by one kernel call; a table that is not whole comes in batches this large
_GROUP_ROWS = 1 << 12


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
    #: the profile over a subset of the universe, read off the same sweep
    inside: "OptProfile | None" = None

    def opt(self, budget) -> float:
        return self.opt_by_budget[self.budgets.index(budget)]

    def to_dict(self) -> dict:
        return {
            "budgets": list(self.budgets),
            "opt_by_budget": [float(v) for v in self.opt_by_budget],
            "argmax_by_budget": [list(s) for s in self.argmax_by_budget],
            "enumerated_count": self.enumerated_count,
        }


def _leaves(s: int, m: int, base: int, tail: tuple[int, ...] = ()):
    """The ``s``-subsets of ``range(m)`` in colex order, as leaves
    ``(rows, tail)``: the first ``rows`` rows of the size-``base`` table,
    each with the positions ``tail`` (ascending, all above the rows') added.

    The ``s``-subsets whose largest position is ``j`` are the first
    ``C(j, s-1)`` rows of the ``(s-1)``-table plus ``j``; below ``s - 1``
    the split recurses down to ``base``."""
    if s == base:
        yield math.comb(m, s), tail
    else:
        for j in range(s - 1, m):
            yield from _leaves(s - 1, j, base, (j, *tail))


def _batches(leaves, cap: int):
    """Consecutive leaves in groups ``[(lo, hi, start, stop, tail), ...]`` of
    at most ``cap`` rows: the prefix rows ``start:stop`` of each leaf, a
    larger leaf cut into slices, at the batch's rows ``lo:hi``."""
    group, rows = [], 0
    for count, tail in leaves:
        for start in range(0, count, cap):
            stop = min(count, start + cap)
            if rows + stop - start > cap:
                yield group, rows
                group, rows = [], 0
            group.append((rows, rows + stop - start, start, stop, tail))
            rows += stop - start
    if group:
        yield group, rows


class _IdRows:
    """Ascending id rows: a leaf's tail ids, then its prefix rows.
    ``to_id[p]`` is the id at position ``p``."""

    cells = 0

    def __init__(self, to_id: list[int]):
        self.to_id, self.start = to_id, np.empty((1, 0), dtype=np.intp)

    def width(self, s: int) -> int:
        return s

    def fill(self, out, held, group):
        for lo, hi, start, stop, tail in group:
            out[lo:hi, :len(tail)] = [self.to_id[p] for p in reversed(tail)]
            out[lo:hi, len(tail):] = held[start:stop]


def _sweep(u: int, k: int, channels: dict):
    """Every subset of the positions ``range(u)`` with at most ``k``
    elements, size by size in colex order, as ``(size, rank, tables)``:
    ``tables`` maps each channel's name to its table for the batch's rows,
    whose first row has colex rank ``rank`` within its size.  A table is
    valid until the next batch is drawn: each channel writes into two
    buffers, one holding the prefix table and one for the rest.

    A channel gives ``start``, the empty set's one-row table (its dtype is
    the channel's), ``cells``, the folded cells per row that bound a
    table, ``width(s)``, a row's width at size ``s``, and ``fill(out, held,
    group)``, which fills the batch's table ``out`` from the held table and
    the batch's leaves ``(lo, hi, start, stop, tail)``: rows ``lo:hi``
    extend the held rows ``start:stop`` by the positions ``tail``.

    A size table comes whole when it holds at most ``_CHUNK`` rows and
    ``objectives._KERNEL_CELLS`` folded cells (so the tables of a sweep stay
    few and small enough to be reused in cache); the last whole table is
    kept, and each later size grows from its prefixes (:func:`_leaves`).  A
    larger table comes in batches of leaves, cut to at most
    ``min(_CHUNK, _GROUP_ROWS)`` rows and ``objectives._KERNEL_CELLS``
    cells each.
    """
    base, held = 0, {name: ch.start for name, ch in channels.items()}
    held_buf, spare = (dict.fromkeys(channels, np.empty(0)) for _ in range(2))
    yield 0, 0, held
    cells = sum(ch.cells for ch in channels.values())
    most = objectives._KERNEL_CELLS
    cap = max(1, min(_CHUNK, _GROUP_ROWS, most // max(1, cells)))
    for s in range(1, k + 1):
        total = math.comb(u, s)
        whole = total <= _CHUNK and total * cells <= most
        rank = 0
        for group, rows in _batches(_leaves(s, u, base), total if whole else cap):
            tables = {}
            for name, ch in channels.items():
                size = rows * ch.width(s)
                if spare[name].size < size:
                    spare[name] = np.empty(size, dtype=ch.start.dtype)
                tables[name] = spare[name][:size].reshape(rows, -1)
                ch.fill(tables[name], held[name], group)
            yield s, rank, tables
            rank += rows
        if whole:
            held_buf, spare = spare, held_buf
            base, held = s, tables


@functools.lru_cache(maxsize=16)
def _small_batch(u: int, k: int):
    """The one batch of an enumeration of at most ``_GROUP_ROWS`` subsets:
    the position rows of every size, padded with ``u`` and laid out column
    by column, and each size's ``(size, start, stop)`` row range."""
    pos = np.full((cardinality_subset_count(u, k), max(1, k)), u, dtype=np.intp, order="F")
    runs, row = [], 0
    for s, _, tables in _sweep(u, k, {"ids": _IdRows(list(range(u)))}):
        pos[row:row + len(tables["ids"]), :s] = tables["ids"]
        runs.append((s, row, row + len(tables["ids"])))
        row = runs[-1][2]
    pos.flags.writeable = False
    return pos, tuple(runs)


def _valued(obj: Objective, to_id: list[int], k: int, inside: set | None):
    """``(batches, subset)`` over every subset with at most ``k`` elements of
    the universe whose position ``p`` holds the id ``to_id[p]`` (the empty
    slot last): ``batches`` yields ``(size, rank, values, flags)`` in
    :func:`_sweep` order, ``flags`` marking the subsets inside ``inside``
    (None when it is None), and ``subset(size, rank)`` gives the ids of a
    row by :func:`_colex_set`, on either route."""
    u = len(to_id) - 1
    subset = functools.partial(_colex_set, to_id=to_id)
    in_pos = None if inside is None else np.array([e in inside for e in to_id[:-1]] + [True])
    if cardinality_subset_count(u, k) <= min(_CHUNK, _GROUP_ROWS):
        pos, runs = _small_batch(u, k)
        vals = np.asarray(obj._position_values(to_id, pos), dtype=float)
        flags = None if inside is None else in_pos[pos].all(axis=1)
        return ([(size, 0, vals[lo:hi], None if flags is None else flags[lo:hi])
                 for size, lo, hi in runs], subset)
    channels = {"states": obj._sweep_states(to_id)}
    if obj._sweep_ids:
        channels["ids"] = _IdRows(to_id)
    if inside is not None:
        channels["flags"] = _Folded(in_pos[:, None], np.logical_and)
    batches = ((size, rank, np.asarray(obj._sweep_values(t.get("ids"), t["states"], size),
                                       dtype=float), None if inside is None else t["flags"][:, 0])
               for size, rank, t in _sweep(u, k, channels))
    return batches, subset


class _SizeBest:
    """One size's best value so far and the colex rank of its last maximum."""

    __slots__ = ("value", "rank")

    def __init__(self):
        self.value = None

    def update(self, vals: np.ndarray, rank: int) -> None:
        last = vals.size - 1 - int(vals[::-1].argmax())
        top = vals.item(last)
        if self.value is None or top >= self.value:
            self.value, self.rank = top, rank + last


def _colex_set(size: int, rank: int, *, to_id: list[int]) -> tuple[int, ...]:
    """The ids of the ``size``-subset of colex rank ``rank`` over the
    positions ``range(len(to_id) - 1)``: its positions ``c_size > ... > c_1``
    satisfy ``rank = sum C(c_i, i)``, each the largest that fits (ascending
    ids)."""
    out, c = [], len(to_id) - 2
    for i in range(size, 0, -1):
        binom = math.comb(c, i)
        while binom > rank:
            binom, c = binom * (c - i) // c, c - 1  # C(c - 1, i)
        rank -= binom
        out.append(to_id[c])
        c -= 1
    return tuple(out)


def _profile(best: list[_SizeBest], subset, count: int) -> OptProfile:
    """The profile over sizes ``0..len(best) - 1``: per budget the best value
    of any size up to it, witnessed by the lexicographically smallest set
    among the sizes that reach it; ``subset(size, rank)`` reads a set."""
    profile: list[float] = []
    argmax: list[tuple[int, ...]] = []
    for size, size_best in enumerate(best):  # a size below the best reads no set
        if not profile or size_best.value > best_val:
            best_val, best_set = size_best.value, subset(size, size_best.rank)
        elif size_best.value == best_val:
            best_set = min(best_set, subset(size, size_best.rank))
        profile.append(float(best_val))
        argmax.append(best_set)
    return OptProfile(list(range(len(best))), profile, argmax, count)


def check_guard(needed: int) -> None:
    """Raise :class:`GuardExceeded` if ``needed`` subsets exceed the guard."""
    if needed > (limit := enumeration_guard()):
        raise GuardExceeded(needed, limit)


def opt_cardinality(obj: Objective, universe: Sequence[int], k: int, *,
                    inside: Sequence[int] | None = None) -> OptProfile:
    """Exact OPT_j = max_{|T| <= j} f(T) for every j = 0..k, in one sweep.

    ``k`` is read with ``operator.index`` (a float or a string raises
    ``TypeError``) and capped at the universe's size.  Deterministic: the
    recorded argmax is the lexicographically smallest optimal set.

    With ``inside``, a subset of the universe, the same sweep also gives
    the profile over ``inside`` (as ``opt_cardinality(obj, inside, k)``
    would), in the result's ``inside`` field.  The guard counts the
    enumeration over ``inside`` first, then over the universe.
    """
    universe = sorted_ids(universe, obj.n).tolist()
    u = len(universe)
    k = min(operator.index(k), u)
    if k < 0:
        raise ValueError("k must be >= 0")
    if inside is not None:
        inside = set(sorted_ids(inside, obj.n).tolist())
        if not inside <= set(universe):
            raise ValueError("inside must be a subset of the universe")
        k_in = min(k, len(inside))
        check_guard(inside_total := cardinality_subset_count(len(inside), k_in))
    total = cardinality_subset_count(u, k)
    check_guard(total)

    best = [_SizeBest() for _ in range(k + 1)]
    best_in = [] if inside is None else [_SizeBest() for _ in range(k_in + 1)]
    batches, subset = _valued(obj, [*reversed(universe), obj.n], k, inside)
    for size, rank, vals, flags in batches:
        best[size].update(vals, rank)
        if size < len(best_in) and flags.any():
            best_in[size].update(np.where(flags, vals, -np.inf), rank)

    profile = _profile(best, subset, total)
    if inside is not None:
        profile.inside = _profile(best_in, subset, inside_total)
    return profile


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
