"""Set-function value oracles for containment pruning.

Elements of a ground set are dense integer ids ``0..n-1``; every id a caller
passes is read by :func:`sorted_ids`, which raises ``TypeError`` for a float
or a string and ``IndexError`` outside ``0..n-1``.  Every objective
exposes ``eval`` (value of a set), ``marginal`` (value gain of one element)
and one batched path.  Objectives copy their inputs once and are pure after
construction; the :class:`CountingOracle` wrapper adds query accounting for
one thread (parallel sweeps run in worker processes, each with its own).

Batched evaluation: ``eval_ids(ids)`` is the one batched entry point, called
by the exact enumeration engine and the default candidate scan.  ``ids`` is
a ``(batch, width)`` integer array; each row lists the distinct ids of one
selection in any order, padded anywhere with the empty-slot id ``n``.  It
returns one float per row, equal bit for bit to ``eval`` of that row
whatever else is in the batch: each kernel reduces every row on its own in
the order ``eval`` does, and none uses a matmul, whose row results depend on
the rows batched with them.  The pair kernels of unweighted :class:`Cut`
and :class:`InterferenceCoverage` read a flat pair table over the ranks of
the ids the batch uses, so the table grows with those ids, not with ``n``;
interference visits a row's column pairs in triu order over its sorted
ranks, which is ascending pair order.  Cut's degrees and adjacency and the
packed cover words are built lazily.  ``_value`` stays the scalar path: a
small batch costs tens of microseconds, a scalar value a few.

Power-set tables: :func:`power_set_values` gives ``f`` of every subset of a
universe, indexed by subset mask, in blocks of masks that share their high
bits; only one block is held at a time.  The coverage families build it by
doubling, ``tab[h:2h] = tab[:h] (+) element j``, over cover words and pair
penalties; the others value the exact enumerator's batches with
``eval_ids``.  :func:`value_table` and ``exact.opt_knapsack`` read it.

Candidate scans:

* ``scan()`` opens a :class:`CandidateScan`, the primitive every greedy
  engine runs on.  Over a set ``S`` that starts empty and grows by
  ``add(e)``, ``values(cands)`` returns ``f(S + e)`` for a whole array of
  candidates, equal bit for bit to ``eval``.  Unweighted :class:`Cut` and
  :class:`Coverage` keep a batched state (edges into ``S``, the union's
  cover words).  The facility-location families (:class:`Proxy` too) keep
  the best similarity per point and run ``eval_ids``' kernel on it.
  :class:`InterferenceCoverage` extends the coverage scan with ``S``'s
  membership: each candidate's penalty sums the weights of the pairs with
  an end in ``S``, in pair order as ``eval`` sums them, for all candidates
  at once.  The other families value the rows ``S + e`` with one
  ``eval_ids`` call.

Built-in families:

* :class:`Coverage` -- weighted set coverage over a universe of items.
* :class:`Cut` -- (weighted) graph cut, the standard non-monotone example.
* :class:`FacilityLocation` -- ``sum_v max_{s in S} sim[v, s]``.
* :class:`Proxy` -- facility location minus a convex non-decreasing size
  penalty; non-monotone but still submodular.
* :class:`RestrictedFacilityLocation` -- facility location over the rows
  whose relevance score exceeds a gate threshold.
* :class:`InterferenceCoverage` -- coverage minus a weighted penalty on
  interfering pairs inside the selection.

:class:`Modular` and :class:`TableObjective` are plain helpers used mainly by
tests and property checkers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

#: comparison tolerance for real-valued objectives; integer-valued ones compare exactly
REAL_TOL = 1e-9

#: most cells (rows x per-row width) a batched kernel gathers at once; small
#: enough that its temporaries stay in cache
_KERNEL_CELLS = 1 << 16


@dataclass(frozen=True)
class OracleStats:
    """Query accounting snapshot.

    ``queries`` counts set values computed: one per
    :meth:`CountingOracle.eval`, plus every value a greedy engine's
    :class:`CandidateScan` computes (one per candidate value ``f(S + e)``
    and one per run for ``f(empty)``).  ``cache_hits`` is always 0; it stays
    in the serial form so that saved pruned sets keep their bytes.
    """

    queries: int = 0
    cache_hits: int = 0

    def to_dict(self) -> dict:
        return {"queries": self.queries, "cache_hits": self.cache_hits}


class PenaltyCurve:
    """Convex non-decreasing size penalty theta(0..n), theta(0) = 0."""

    def __init__(self, theta: Sequence[float]):
        arr = _finite(theta, "penalty curve theta")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("penalty curve must be a 1-d array of length >= 1")
        if abs(arr[0]) > REAL_TOL:
            raise ValueError(f"theta[0] must be 0, got {arr[0]}")
        steps = np.diff(arr)
        if steps.size and steps.min() < -REAL_TOL:
            raise ValueError("penalty curve must be non-decreasing")
        if steps.size > 1 and np.diff(steps).min() < -REAL_TOL:
            raise ValueError("penalty curve must be convex")
        self.theta = arr

    def __len__(self) -> int:
        return self.theta.size

    def __call__(self, size: int) -> float:
        return float(self.theta[size])

    def __eq__(self, other) -> bool:
        return isinstance(other, PenaltyCurve) and np.array_equal(self.theta, other.theta)

    def to_dict(self) -> dict:
        return {"theta": self.theta.tolist()}


def _finite(values, what: str, copy: bool = True) -> np.ndarray:
    """``values`` as a float array, copied if ``copy``; non-finite entries raise ValueError."""
    arr = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def sorted_ids(ids: Iterable[int], n: int) -> np.ndarray:
    """The distinct ids of ``ids`` ascending, as an intp array.  Each id is
    read with ``operator.index``, so a float or a string raises
    ``TypeError``; an id outside ``0..n-1`` raises ``IndexError``."""
    s = sorted({operator.index(e) for e in ids})
    if s and (s[0] < 0 or s[-1] >= n):
        raise IndexError(f"element id {s[0] if s[0] < 0 else s[-1]} out of range [0, {n})")
    return np.array(s, dtype=np.intp)


def add_left_to_right(values) -> float:
    """Sum floats in order, as 3.11's builtin ``sum`` does (3.12's compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def _as_index_set(S: Iterable[int], n: int) -> frozenset[int]:
    return frozenset(sorted_ids(S, n).tolist())


class Objective:
    """Base value oracle.  Subclasses set ``n`` and ``variant`` and implement ``_value``."""

    n: int
    variant: str
    integer_valued: bool = False

    def eval(self, S: Iterable[int]):
        """Value of the selection ``S``.  Deterministic; non-negative for the
        built-in families except an unshifted :class:`Proxy` and an
        :class:`InterferenceCoverage` whose penalties outweigh coverage."""
        return self._value(_as_index_set(S, self.n))

    def marginal(self, e: int, S: Iterable[int]):
        """``f(S + e) - f(S)``.  Raises if ``e`` is already in ``S``."""
        s = _as_index_set(S, self.n)
        e, = sorted_ids([e], self.n).tolist()
        if e in s:
            raise ValueError(f"marginal: element {e} already in the set")
        return self.eval(s | {e}) - self.eval(s)

    def eval_ids(self, ids: np.ndarray) -> np.ndarray:
        """One float per row of ``ids``, a (batch, width) array of distinct
        ids per row padded with ``n``, equal to ``eval`` of the row.  Families
        with a kernel override this; the default calls ``_value`` per row."""
        n = self.n
        rows = [frozenset(e for e in row if e < n) for row in np.asarray(ids).tolist()]
        return np.fromiter((self._value(s) for s in rows), dtype=float, count=len(rows))

    def scan(self) -> "CandidateScan":
        """A candidate scan at the empty set.  Families with a batched scan
        state override this; the default values candidates through
        ``eval_ids``."""
        return CandidateScan(self)

    def _value(self, s: frozenset[int]):
        raise NotImplementedError

    def _power_set(self, universe: list[int], low: int):
        """The blocks of :func:`power_set_values`.  The default values each
        block with ``eval_ids`` over the exact enumerator's id batches of
        the low ids, the block's high ids appended to every row."""
        from .exact import subset_batches

        bit = np.zeros(self.n + 1, dtype=np.int64)  # the empty slot sets no bit
        bit[universe[:low]] = np.left_shift(1, np.arange(low, dtype=np.int64))
        for high in _power_set_blocks(universe, low):
            block = np.empty(1 << low)
            for ids, _ in subset_batches(universe[:low], self.n, low):
                rows = np.hstack([ids, np.broadcast_to(high, (len(ids), len(high)))]) \
                    if high else ids
                block[bit[ids].sum(axis=1)] = self.eval_ids(rows)
            yield block

    def _kernel_value(self, s: frozenset[int]) -> float:
        """``f(s)`` as a one-row ``eval_ids`` call: the scalar path of the
        families whose kernel is as cheap as a scalar formula."""
        return float(self.eval_ids(np.array([[*s, self.n]]))[0])

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no serial form")


def ids_to_mask(ids: np.ndarray, n: int) -> np.ndarray:
    """(batch, n) membership matrix of padded id rows."""
    M = np.zeros((len(ids), n + 1), dtype=bool)
    M[np.arange(len(ids))[:, None], ids] = True
    return M[:, :n]


def _by_blocks(ids: np.ndarray, per_row: int, kernel) -> np.ndarray:
    """``kernel(block)`` over row blocks of ``ids`` small enough that the
    block gathers at most ``_KERNEL_CELLS`` cells."""
    step = max(1, _KERNEL_CELLS // max(1, per_row))
    if len(ids) <= step:
        return kernel(ids)
    return np.concatenate([kernel(ids[lo:lo + step]) for lo in range(0, len(ids), step)])


def _best_sums(sim_t: np.ndarray, ids: np.ndarray, best: np.ndarray | None = None) -> np.ndarray:
    """The facility-location kernel over ``sim_t``, one contiguous row per
    id: per row of ``ids`` the running maximum of its ids' rows, folded with
    ``best`` when given, summed pairwise over the points as ``eval`` sums."""

    def kernel(block):
        rows = sim_t[block[:, 0]]  # (rows, points)
        for j in range(1, block.shape[1]):
            np.maximum(rows, sim_t[block[:, j]], out=rows)
        if best is not None:
            np.maximum(rows, best, out=rows)
        return rows.sum(axis=1)

    return _by_blocks(ids, sim_t.shape[1], kernel)


def _masked_row_sums(weights: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row of the boolean matrix ``keep``, ``weights`` summed with zeros
    where it is false.  In a C-contiguous array numpy sums each row pairwise
    on its own; in another layout it would add column by column."""
    terms = np.zeros(keep.shape)
    np.copyto(terms, weights, where=keep)
    return terms.sum(axis=1)


def _ranks(used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ranked, rank)``: the ids marked in the boolean ``used``, ascending,
    and per id its rank among them (0 when unmarked).  Pair tables indexed
    by rank grow with the ids a batch uses, not with ``n``."""
    ranked = np.flatnonzero(used)
    rank = np.zeros(len(used), dtype=np.intp)
    rank[ranked] = np.arange(len(ranked))
    return ranked, rank


@functools.lru_cache(maxsize=32)
def _pairs(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Column pairs i <= j of an id batch of the given width."""
    return np.triu_indices(width)


def _cover_words(covers: Sequence[frozenset[int]], m: int) -> np.ndarray:
    """Covers packed into uint64 words, one row per element plus an all-zero
    empty-slot row, in ``np.packbits`` order: ``np.unpackbits`` gives back
    the items ``0..m-1`` in ascending order."""
    n = len(covers)
    bits = np.zeros((n + 1, 64 * max(1, -(-m // 64))), dtype=bool)
    owner = np.repeat(np.arange(n), [len(cov) for cov in covers])
    bits[owner, np.fromiter(itertools.chain.from_iterable(covers), np.intp, len(owner))] = True
    return np.packbits(bits, axis=1).view(np.uint64)


def _union(words: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The cover words of each id row OR-ed together."""
    union = words[ids[:, 0]]
    for j in range(1, ids.shape[1]):
        union |= words[ids[:, j]]
    return union


def _covered_count(union: np.ndarray, dtype=float) -> np.ndarray:
    """Number of universe items set in each row of union words, in
    ``dtype``: the popcounts of the word columns added one column at a
    time.  Counts are small integers, exact in either dtype."""
    counts = np.bitwise_count(union)
    out = counts[:, 0].astype(dtype)
    for col in range(1, union.shape[1]):
        out += counts[:, col]
    return out


class _CoverObjective(Objective):
    """The cover tables of the coverage families: ``covers[e]`` is the set
    of universe items ``0..m-1`` element ``e`` covers.  The scalar path
    counts from these sets; the kernels and scans read them packed into
    words."""

    def __init__(self, covers: Sequence[Iterable[int]], m: int | None):
        if not covers:
            raise ValueError(f"{type(self).__name__} needs at least one element")
        self.covers = [frozenset(int(v) for v in cov) for cov in covers]
        for i, cov in enumerate(self.covers):
            if cov and min(cov) < 0:
                raise ValueError(f"cover of element {i}: negative item {min(cov)}")
        m_seen = max((max(cov) + 1 for cov in self.covers if cov), default=0)
        self.m = m_seen if m is None else int(m)
        if self.m < m_seen:
            raise ValueError(f"universe size {self.m} smaller than max covered item")
        self.n = len(covers)

    def _covered(self, s) -> int:
        """Number of universe items the covers of ``s`` cover."""
        return len(frozenset().union(*[self.covers[e] for e in s]))

    @functools.cached_property
    def _words(self) -> np.ndarray:
        return _cover_words(self.covers, self.m)

    def _power_set_unions(self, universe: list[int], low: int):
        """Per block of :func:`power_set_values`, the union words of its
        subsets: a low table OR-ed by doubling, then the high ids' words."""
        words = self._words
        table = _doubling(words[self.n], words[universe[:low]], np.bitwise_or)
        for high in _power_set_blocks(universe, low):
            yield _fold(table, words[high], np.bitwise_or)


class Coverage(_CoverObjective):
    """Weighted coverage: f(S) = sum of weights of universe items covered by S.

    ``covers[e]`` lists the universe items element ``e`` covers; ``weights``
    (default all-ones) are per universe item and must be non-negative.
    """
    variant = "coverage"

    def __init__(self, covers: Sequence[Iterable[int]], weights: Sequence[float] | None = None,
                 m: int | None = None):
        super().__init__(covers, m)
        if weights is None:
            self.weights = None
            self.integer_valued = True
        else:
            w = _finite(weights, "coverage weights")
            if w.size != self.m:
                raise ValueError(f"need {self.m} weights, got {w.size}")
            if w.size and w.min() < 0:
                raise ValueError("coverage weights must be non-negative")
            self.weights = w
            self.integer_valued = bool(np.all(w == np.round(w)))

    def _value(self, s):
        if self.weights is None:
            return self._covered(s)
        return self._kernel_value(s)

    def eval_ids(self, ids):
        """Unweighted: the covered count.  Weighted: the covered items'
        weights added one item at a time in ascending order."""
        ids = np.asarray(ids)
        if self.weights is None:
            return _covered_count(_union(self._words, ids))
        return _by_blocks(ids, self.m,
                          lambda block: self._covered_weight(_union(self._words, block)))

    def _power_set(self, universe, low):
        for union in self._power_set_unions(universe, low):
            if self.weights is None:
                yield _covered_count(union)
            else:
                yield _by_blocks(union, self.m, self._covered_weight)

    def _covered_weight(self, union: np.ndarray) -> np.ndarray:
        """Per row of union words, the covered items' weights added one
        item at a time in ascending order."""
        if not self.m:
            return np.zeros(len(union))
        covered = np.unpackbits(union.view(np.uint8), axis=1, count=self.m)
        return np.where(covered, self.weights, 0.0).cumsum(axis=1)[:, -1]

    def scan(self):
        return _CoverageScan(self) if self.weights is None else CandidateScan(self)

    def to_dict(self):
        return {
            "variant": self.variant,
            "covers": [sorted(c) for c in self.covers],
            "weights": None if self.weights is None else self.weights.tolist(),
            "m": self.m,
        }


class Cut(Objective):
    """Graph cut value: weight of edges with exactly one endpoint selected.

    Non-monotone (the full vertex set cuts nothing) but submodular.
    """
    variant = "cut"

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 weights: Sequence[float] | None = None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("cut objective needs n >= 1")
        us, vs = [], []
        for (u, v) in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            us.append(u)
            vs.append(v)
        self._us = np.asarray(us, dtype=np.int64)
        self._vs = np.asarray(vs, dtype=np.int64)
        if weights is None:
            self._ws = None
            self.integer_valued = True
        else:
            w = _finite(weights, "edge weights")
            if w.size != len(us):
                raise ValueError("one weight per edge required")
            if w.size and w.min() < 0:
                raise ValueError("edge weights must be non-negative")
            self._ws = w
            self.integer_valued = bool(np.all(w == np.round(w)))

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self._us.tolist(), self._vs.tolist()))

    def _value(self, s):
        if self._ws is not None:
            return self._kernel_value(s)
        mem = np.zeros(self.n, dtype=bool)
        mem[list(s)] = True
        return int(np.count_nonzero(mem[self._us] != mem[self._vs]))

    @functools.cached_property
    def _degrees(self) -> np.ndarray:
        """Vertex degrees, with a zero for the empty slot ``n``."""
        side = self.n + 1
        return np.bincount(self._us, minlength=side) + np.bincount(self._vs, minlength=side)

    @functools.cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, nbrs)``: the neighbours of ``v`` are
        ``nbrs[indptr[v]:indptr[v + 1]]``, one entry per edge."""
        ends = np.concatenate([self._us, self._vs])
        nbrs = np.concatenate([self._vs, self._us])[np.argsort(ends, kind="stable")]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return indptr, nbrs

    def scan(self):
        return _CutScan(self) if self._ws is None else CandidateScan(self)

    def eval_ids(self, ids):
        """Unweighted cut of each row: its degree sum minus twice the edges
        inside it, read from a pair table over the ids the batch uses.
        Weighted: the weights of the cut edges summed along each row."""
        ids = np.asarray(ids)
        if self._ws is not None:
            return _by_blocks(ids, max(self.n, len(self._ws)), self._cut_weight)
        if ids.shape[1] == 1:  # no pairs: a single vertex cuts its degree
            return self._degrees[ids[:, 0]].astype(float)
        used = np.zeros(self.n + 1, dtype=bool)
        used[ids.reshape(-1)] = True
        rank, weights, side = self._pair_table(used)
        first, second = _pairs(ids.shape[1])

        def block_values(block):
            ranks = rank[block]
            return weights[(ranks * side)[:, first] + ranks[:, second]].sum(axis=1, dtype=float)

        return _by_blocks(ids, len(first), block_values)

    def _cut_weight(self, block: np.ndarray) -> np.ndarray:
        M = ids_to_mask(block, self.n)
        return _masked_row_sums(self._ws, M[:, self._us] != M[:, self._vs])

    def _pair_table(self, used: np.ndarray):
        """``(rank, weights, side)`` for the ids marked in ``used``: ``rank``
        maps an id to its rank among them, and ``weights`` is a flat
        ``side x side`` table over the ranks with the degrees on the
        diagonal and -2 times the edge counts off it.  The table grows with
        the enumerated universe, not with ``n``."""
        ranked, rank = _ranks(used)
        side = len(ranked)
        inside = used[self._us] & used[self._vs]
        ru, rv = rank[self._us[inside]], rank[self._vs[inside]]
        weights = -2 * np.bincount(np.concatenate([ru * side + rv, rv * side + ru]),
                                   minlength=side * side)
        weights[::side + 1] = self._degrees[ranked]
        return rank, weights, side

    def to_dict(self):
        return {
            "variant": self.variant,
            "n": self.n,
            "edges": self.edges,
            "weights": None if self._ws is None else self._ws.tolist(),
        }


class FacilityLocation(Objective):
    """f(S) = sum over covered points v of max_{s in S} sim[v, s]; f({}) = 0.

    ``sim`` is an (m, n) non-negative similarity matrix: rows are covered
    points, columns are selectable elements.  Monotone submodular.  The one
    copy is ``_sim_t``, a row per element and a zero row for the empty slot
    ``n``; ``sim`` is a view of it.
    """
    variant = "facility_location"

    def __init__(self, sim: np.ndarray):
        sim = _finite(sim, "similarities", copy=False)  # read once, into _sim_t
        if sim.ndim != 2 or sim.shape[0] < 1 or sim.shape[1] < 1:
            raise ValueError("similarity matrix must be 2-d and non-empty")
        if sim.min() < 0:
            raise ValueError("similarities must be non-negative")
        self.m, self.n = sim.shape
        self._sim_t = np.zeros((self.n + 1, self.m))  # C order, whatever sim's layout
        self._sim_t[:self.n] = sim.T

    @property
    def sim(self) -> np.ndarray:
        return self._sim_t[:self.n].T

    def _value(self, s):
        if not s:
            return 0.0
        return float(self._sim_t[sorted(s)].max(axis=0).sum())

    def scan(self):
        return _FacilityScan(self, self._sim_t)

    def eval_ids(self, ids):
        """:func:`_best_sums` of each row."""
        return _best_sums(self._sim_t, np.asarray(ids))

    def to_dict(self):
        return {"variant": self.variant, "sim": self.sim.tolist()}


class RestrictedFacilityLocation(FacilityLocation):
    """Facility location restricted to rows with relevance above a gate.

    f(S) = sum over rows v with rel[v] > tau of max_{s in S} sim[v, s].
    ``full_sim`` (a view of the padded rows it was read into) is the matrix
    as given, validated whole, for the serial form; ``sim`` and ``m``
    describe the gated rows, over which this is a plain facility location.
    When no row passes the gate, ``sim`` is one all-zero row, so every
    value is 0.0.
    """
    variant = "restricted_fl"

    def __init__(self, sim: np.ndarray, rel: Sequence[float], tau: float):
        rel = _finite(rel, "relevance scores")
        super().__init__(sim)
        if rel.shape != (self.m,):
            raise ValueError("one relevance score per similarity row required")
        self.full_sim, self.rel, self.tau = self.sim, rel, float(_finite(tau, "gate tau"))
        gated = self._sim_t.compress(rel > self.tau, axis=1)
        self._sim_t = gated if gated.size else np.zeros((self.n + 1, 1))
        self.m = self._sim_t.shape[1]

    def to_dict(self):
        return {"variant": self.variant, "sim": self.full_sim.tolist(),
                "rel": self.rel.tolist(), "tau": self.tau}


class Proxy(Objective):
    """Facility location minus a convex non-decreasing size penalty.

    ``f(S) = FL(S) - theta(|S|)`` is submodular but non-monotone.  Can dip
    below zero for aggressive penalties; construction verifies
    ``theta(n) <= FL(full set)`` and ``shift=True`` adds the constant that
    restores non-negativity (exact via enumeration for n <= 20, the safe
    bound theta(n) otherwise).
    """
    variant = "proxy"
    SHIFT_ENUM_LIMIT = 20

    def __init__(self, fl: FacilityLocation, penalty: PenaltyCurve,
                 shift: bool = False, clamp: bool = False):
        self.fl = fl
        self.penalty = penalty
        self.n = fl.n
        if len(penalty) < self.n + 1:
            raise ValueError(
                f"penalty curve has {len(penalty)} entries, need n+1 = {self.n + 1}")
        full = fl.eval(range(self.n))
        if penalty(self.n) > full + REAL_TOL:
            raise ValueError(
                f"penalty at full size ({penalty(self.n):.6g}) exceeds FL of the "
                f"full set ({full:.6g})")
        self.clamp = bool(clamp)
        self.shift = 0.0
        if shift:
            self.shift = max(0.0, -self._lower_bound())

    def _lower_bound(self) -> float:
        if self.n <= self.SHIFT_ENUM_LIMIT:
            sizes = np.bitwise_count(np.arange(1 << self.n))
            return float((value_table(self.fl) - self.penalty.theta[sizes]).min())
        return -self.penalty(self.n)

    def _value(self, s):
        val = self.fl._value(s) - self.penalty(len(s)) + self.shift
        return max(val, 0.0) if self.clamp else val

    def eval_ids(self, ids):
        ids = np.asarray(ids)
        return self._penalised(self.fl.eval_ids(ids), np.count_nonzero(ids < self.n, axis=1))

    def _penalised(self, fl_vals: np.ndarray, sizes) -> np.ndarray:
        """FL values of sets of ``sizes`` elements minus ``theta``, plus the
        shift; with ``clamp``, ``max(v, 0.0)``, -0.0 kept as ``eval`` keeps it."""
        vals = fl_vals - self.penalty.theta[sizes] + self.shift
        return np.where(vals < 0.0, 0.0, vals) if self.clamp else vals

    def scan(self):
        return _ProxyScan(self, self.fl._sim_t)

    def to_dict(self):
        return {"variant": self.variant, "sim": self.fl.sim.tolist(),
                "penalty": self.penalty.to_dict(), "shift": self.shift,
                "clamp": self.clamp}


class InterferenceCoverage(_CoverObjective):
    """Coverage minus a weighted penalty on interfering pairs.

    f(S) = |union of covers| - lam * sum over selected pairs of intf(i, j).
    ``intf`` maps unordered pairs to non-negative intensities (symmetric,
    zero diagonal).  Non-monotone for lam > 0.  The pairs are kept once, in
    ascending pair order, as end arrays ``_pi < _pj`` and weights ``_pw``;
    every value path adds the weights of a set's pairs in that order: the
    scalar path over the pairs inside the set, ``eval_ids`` over each row's
    sorted column pairs, the scan over the pairs with an end in ``S`` and
    the power set pair by pair.
    """
    variant = "interference_coverage"

    def __init__(self, covers: Sequence[Iterable[int]],
                 intf: Mapping[tuple[int, int], float], lam: float,
                 m: int | None = None):
        super().__init__(covers, m)
        self.lam = float(lam)
        if not 0 <= self.lam < float("inf"):
            raise ValueError(f"interference weight lam must be finite and non-negative, "
                             f"got {self.lam}")
        pairs: dict[tuple[int, int], float] = {}
        for (i, j), w in intf.items():
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"interference diagonal ({i},{i}) must be absent")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"interference pair ({i},{j}) out of range")
            key = (min(i, j), max(i, j))
            w = float(w)
            if not 0 <= w < float("inf"):
                raise ValueError(f"interference intensities must be finite and "
                                 f"non-negative, got {w} for pair {key}")
            if key in pairs and pairs[key] != w:
                raise ValueError(f"asymmetric intensities for pair {key}")
            pairs[key] = w
        ends = sorted(pairs)
        self._pi = np.array([i for i, _ in ends], dtype=np.int64)
        self._pj = np.array([j for _, j in ends], dtype=np.int64)
        self._pw = np.array([pairs[key] for key in ends], dtype=float)

    @property
    def intf(self) -> dict[tuple[int, int], float]:
        """The pair intensities, in ascending pair order."""
        return dict(zip(zip(self._pi.tolist(), self._pj.tolist()), self._pw.tolist()))

    def _value(self, s):
        val = float(self._covered(s))
        if self.lam and len(s) > 1 and len(self._pw):
            member = np.zeros(self.n, dtype=bool)
            member[list(s)] = True
            inside = self._pw[member[self._pi] & member[self._pj]].tolist()
            val -= self.lam * add_left_to_right(inside)  # in pair order, as the kernels add
        return val

    def scan(self):
        return _InterferenceScan(self)

    def eval_ids(self, ids):
        """Covered count minus ``lam`` times each row's pair penalty."""
        ids = np.asarray(ids)
        out = _covered_count(_union(self._words, ids))
        if self.lam and len(self._pw) and ids.shape[1] > 1:
            out -= self.lam * self._penalties(ids)
        return out

    def _penalties(self, ids: np.ndarray) -> np.ndarray:
        """Per row the weights of the pairs inside it, added left to right in
        pair order, as ``eval`` adds them.

        Ids are replaced by their ranks among the ids the batch uses, and a
        flat ``side x side`` table over the ranks holds each pair's weight
        at ``(lower, higher)`` and 0.0 elsewhere.  With its ranks sorted,
        the empty slot ``n`` goes last, and the column pairs ``a < b`` in
        triu order visit the row's id pairs in ascending pair order.  So
        each row adds its pairs' weights in ``eval``'s order, and 0.0 for
        the rest; the partial sums are never negative, so the zeros change
        no bit.  The ranks are laid out one contiguous row per column."""
        used = np.zeros(self.n + 1, dtype=bool)
        used[ids.reshape(-1)] = True
        ranked, rank = _ranks(used)
        side = len(ranked)
        inside = used[self._pi] & used[self._pj]
        table = np.zeros(side * side)
        table[rank[self._pi[inside]] * side + rank[self._pj[inside]]] = self._pw[inside]
        pairs = list(itertools.combinations(range(ids.shape[1]), 2))  # triu order

        def kernel(block):
            ranks = rank[np.ascontiguousarray(block.T)]  # (width, rows)
            if not (ranks[:-1] <= ranks[1:]).all():  # the enumerator's rows come sorted
                ranks.sort(axis=0)
            firsts = ranks * side
            total = np.zeros(len(block))
            for a, b in pairs:
                total += table[firsts[a] + ranks[b]]
            return total

        return _by_blocks(ids, ids.shape[1], kernel)

    def _power_set(self, universe, low):
        """Covered counts minus ``lam`` times the pair penalties.  Each
        block adds the weight of every pair with both ends in the universe,
        in pair order, to the masks holding both ends: the strided view
        over the low bits the pair sets, the whole block or nothing for its
        high ends.  That is ``eval``'s add sequence, mask by mask."""
        bit = np.full(self.n, -1)
        bit[universe] = np.arange(len(universe))
        first, second = bit[self._pi], bit[self._pj]
        both = (first >= 0) & (second >= 0)
        pairs = list(zip(first[both].tolist(), second[both].tolist(), self._pw[both].tolist()))
        for prefix, union in enumerate(self._power_set_unions(universe, low)):
            out = _covered_count(union)
            if self.lam and pairs:
                total = np.zeros(len(out))
                for p, q, w in pairs:
                    if all(prefix >> (b - low) & 1 for b in (p, q) if b >= low):
                        view = _with_bits(total, [b for b in (p, q) if b < low])
                        view += w
                out -= self.lam * total
            yield out

    def to_dict(self):
        return {
            "variant": self.variant,
            "covers": [sorted(c) for c in self.covers],
            "intf": [[i, j, w] for (i, j), w in self.intf.items()],
            "lam": self.lam,
            "m": self.m,
        }


class Modular(Objective):
    """Additive objective f(S) = sum of per-element weights."""
    variant = "modular"

    def __init__(self, weights: Sequence[float]):
        w = _finite(weights, "modular weights")
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need a non-empty 1-d weight vector")
        self.weights = w
        self.n = w.size
        self.integer_valued = bool(np.all(w == np.round(w)))

    def _value(self, s):
        return self._kernel_value(s)

    def eval_ids(self, ids):
        """The selected elements' weights summed along each row."""
        return _by_blocks(np.asarray(ids), self.n, lambda block: _masked_row_sums(
            self.weights, ids_to_mask(block, self.n)))

    def to_dict(self):
        return {"variant": self.variant, "weights": self.weights.tolist()}


class TableObjective(Objective):
    """Explicit value table over all subsets; for tests and counterexamples."""

    def __init__(self, n: int, table: Mapping[frozenset, float]):
        self.n = int(n)
        self.table = {frozenset(k): float(v) for k, v in table.items()}
        if len(self.table) != (1 << self.n):
            raise ValueError(f"table must cover all {1 << self.n} subsets")
        self.integer_valued = all(v == int(v) for v in self.table.values())

    @classmethod
    def from_function(cls, n: int, fn) -> "TableObjective":
        from itertools import combinations

        table = {}
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                table[frozenset(combo)] = fn(frozenset(combo))
        return cls(n, table)

    def _value(self, s):
        return self.table[s]


class CandidateScan:
    """The greedy engines' scan primitive: values ``f(S + e)`` for whole
    arrays of candidates ``e``, over a set ``S`` that starts empty and grows
    by :meth:`add`.

    ``values(cands)`` takes ids in ``0..n-1`` outside ``S`` (unchecked: the
    engines check their pool once) and returns a numeric array with one
    value per candidate, equal bit for bit to ``eval(S + e)``: integers for
    the integer-valued states, floats otherwise.  This default values the
    rows ``S + e`` with one ``eval_ids`` call.  With a ``counter`` (see
    :func:`open_scan`) every value computed, ``f(empty)`` included, is
    recorded there as one query.
    """

    def __init__(self, obj: Objective):
        self.obj = obj
        self.members: frozenset[int] = frozenset()
        self.counter: CountingOracle | None = None

    def empty_value(self):
        """``f(empty)``, as ``eval`` returns it."""
        self._count(1)
        return self.obj.eval(())

    def values(self, cands) -> np.ndarray:
        cands = np.asarray(cands, dtype=np.intp)
        self._count(len(cands))
        return self._values(cands)

    def add(self, e: int) -> None:
        """Add candidate ``e`` to ``S``."""
        e = int(e)
        self._grow(e)
        self.members |= {e}

    def _count(self, queries: int) -> None:
        if self.counter is not None:
            self.counter.record(queries)

    def _values(self, cands: np.ndarray) -> np.ndarray:
        rows = np.empty((len(cands), len(self.members) + 1), dtype=np.intp)
        rows[:, :-1] = list(self.members)
        rows[:, -1] = cands
        return self.obj.eval_ids(rows)

    def _grow(self, e: int) -> None:
        pass


class _CutScan(CandidateScan):
    """Unweighted cut: ``f(S + e) = f(S) + deg(e) - 2 * inside(e)``, where
    ``inside`` counts each vertex's edges into ``S``."""

    def __init__(self, obj: Cut):
        super().__init__(obj)
        self._cut = 0
        self._inside = np.zeros(obj.n, dtype=np.int64)

    def _values(self, cands):
        return self._cut + self.obj._degrees[cands] - 2 * self._inside[cands]

    def _grow(self, e):
        self._cut += int(self.obj._degrees[e] - 2 * self._inside[e])
        indptr, nbrs = self.obj._adjacency
        np.add.at(self._inside, nbrs[indptr[e]:indptr[e + 1]], 1)


class _CoverageScan(CandidateScan):
    """Coverage counts: the covered count of the cover words of ``e`` OR
    the union of ``S``'s."""

    def __init__(self, obj: _CoverObjective):
        super().__init__(obj)
        self._union = np.zeros(obj._words.shape[1], dtype=np.uint64)

    def _values(self, cands):
        words, union = self.obj._words, self._union
        return _by_blocks(cands, words.shape[1],
                          lambda block: _covered_count(words[block] | union, np.int64))

    def _grow(self, e):
        self._union |= self.obj._words[e]


class _InterferenceScan(_CoverageScan):
    """Interference coverage: the covered count minus ``lam`` times each
    candidate's pair penalty.  Only a pair with an end in ``S`` can lie
    inside a row ``S + e``: one with both ends in ``S`` lies inside every
    row, any other only in the row of its far end.  Each row adds those
    pairs' weights left to right in pair order, 0.0 where a pair is not
    inside the row, as ``_value`` adds them; the partial sums are
    never negative, so the zeros change no bit."""

    def __init__(self, obj: InterferenceCoverage):
        super().__init__(obj)
        self._in = np.zeros(obj.n, dtype=bool)  # membership in S

    def _values(self, cands):
        obj, member = self.obj, self._in
        out = super()._values(cands).astype(float)
        if not (obj.lam and self.members):  # no penalty: lam is 0 or |S + e| = 1
            return out
        touch = (member[obj._pi] | member[obj._pj]).nonzero()[0]
        if touch.size:
            pi, pj, pw = obj._pi[touch], obj._pj[touch], obj._pw[touch]
            first_in = member[pi]
            far = np.where(first_in, pj, pi)  # in S too when both ends are
            every_row = np.where(first_in & member[pj], pw, 0.0)

            def penalties(block):
                terms = np.where(far == block[:, None], pw, every_row)
                return terms.cumsum(axis=1)[:, -1]

            out -= obj.lam * _by_blocks(cands, len(touch), penalties)
        return out

    def _grow(self, e):
        super()._grow(e)
        self._in[e] = True


class _FacilityScan(CandidateScan):
    """Facility location over ``sim_t`` (one contiguous row per element):
    per point the best similarity in ``S``, folded into each candidate's row
    by :func:`_best_sums`, ``eval_ids``' kernel, so values match ``eval``."""

    def __init__(self, obj: Objective, sim_t: np.ndarray):
        super().__init__(obj)
        self._sim_t = sim_t
        self._best = None  # while S is empty

    def _values(self, cands):
        return _best_sums(self._sim_t, cands[:, None], self._best)

    def _grow(self, e):
        row = self._sim_t[e]
        self._best = row.copy() if self._best is None else np.maximum(self._best, row)


class _ProxyScan(_FacilityScan):
    """Facility location minus the penalty at ``|S| + 1``, shifted and
    clamped as ``Proxy`` does it."""

    def _values(self, cands):
        return self.obj._penalised(super()._values(cands), len(self.members) + 1)


def objective_from_dict(payload: Mapping) -> Objective:
    """Rebuild an objective from its ``to_dict`` payload.

    A payload that is not a mapping, misses a field or holds one of the
    wrong type or shape raises ``TypeError``.  Well-formed values the family
    rejects (an unknown variant, a negative or non-finite proxy shift,
    weight, ``lam`` or intensity, a non-finite ``theta``, ``rel`` or
    ``tau``) raise ``ValueError``.
    """
    if not isinstance(payload, Mapping):
        raise TypeError("objective payload must be a JSON object")
    get = functools.partial(_field, payload)
    variant = get("variant", str)
    if variant == "coverage":
        return Coverage(get("covers", "lists"), get("weights", 1, None), m=get("m", int, None))
    if variant == "cut":
        edges = get("edges", "lists")
        if any(len(e) != 2 for e in edges):
            raise TypeError("objective field 'edges' must hold [u, v] pairs")
        return Cut(get("n", int), [tuple(e) for e in edges], get("weights", 1, None))
    if variant == "facility_location":
        return FacilityLocation(get("sim", 2))
    if variant == "restricted_fl":
        return RestrictedFacilityLocation(get("sim", 2), get("rel", 1), get("tau", float))
    if variant == "proxy":
        obj = Proxy(FacilityLocation(get("sim", 2)),
                    PenaltyCurve(_field(get("penalty", Mapping), "theta", 1)),
                    clamp=get("clamp", bool, False))
        obj.shift = float(get("shift", float, 0.0))
        if not 0.0 <= obj.shift < float("inf"):
            raise ValueError(f"proxy shift must be finite and non-negative, got {obj.shift}")
        return obj
    if variant == "interference_coverage":
        intf = get("intf", list)
        if not all(isinstance(t, list) and len(t) == 3 and _ids(t[:2]) and _is(t[2], float)
                   for t in intf):
            raise TypeError("objective field 'intf' must hold [i, j, weight] triples")
        return InterferenceCoverage(get("covers", "lists"), {(i, j): w for i, j, w in intf},
                                    get("lam", float), m=get("m", int, None))
    if variant == "modular":
        return Modular(get("weights", 1))
    raise ValueError(f"unknown objective variant {variant!r}")


_KINDS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _is(value, kind: type) -> bool:
    """Whether a payload value has type ``kind``; only ``bool`` takes bools."""
    return isinstance(value, bool) == (kind is bool) and isinstance(value, _KINDS.get(kind, kind))


def _ids(value) -> bool:
    return isinstance(value, (list, tuple)) and all(_is(v, int) for v in value)


def _field(payload: Mapping, key: str, kind, default=...):
    """``payload[key]`` checked against ``kind``: a type, an array
    dimension (1 or 2: returns a float array) or ``"lists"`` (a list of
    integer id lists).  An absent or null field takes ``default`` or, with
    none given, is missing."""
    value = payload.get(key)
    if value is None:
        if default is ...:
            raise TypeError(f"objective payload misses field {key!r}")
        return default
    if kind in (1, 2):
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = None
        if arr is not None and arr.ndim == kind and arr.dtype.kind in "iuf":
            return arr.astype(float)
    elif kind == "lists":
        if isinstance(value, list) and all(_ids(ids) for ids in value):
            return value
    elif _is(value, kind):
        return value
    raise TypeError(f"objective field {key!r} is ill-typed")


class CountingOracle:
    """Query-counting wrapper: each :meth:`eval` is one query, and
    :meth:`record` adds the values a :class:`CandidateScan` computes.
    Values are the wrapped objective's (a wrapper's own, when given one)."""

    def __init__(self, obj: Objective):
        self.inner = obj.inner if isinstance(obj, CountingOracle) else obj
        self.n = obj.n
        self.integer_valued = obj.integer_valued
        self._queries = 0

    def eval(self, S: Iterable[int]):
        val = self.inner.eval(S)
        self._queries += 1
        return val

    def record(self, queries: int) -> None:
        """Count ``queries`` set values computed by a scan."""
        self._queries += queries

    def stats(self) -> OracleStats:
        return OracleStats(self._queries)


def counting_wrap(obj: Objective) -> CountingOracle:
    """Wrap an objective for query-counted evaluation."""
    return CountingOracle(obj)


def open_scan(oracle) -> CandidateScan:
    """A candidate scan at the empty set over the objective behind
    ``oracle``; when ``oracle`` is a :class:`CountingOracle`, the scan
    records its queries there."""
    counted = isinstance(oracle, CountingOracle)
    scan = (oracle.inner if counted else oracle).scan()
    scan.counter = oracle if counted else None
    return scan


def _doubling(empty, items, op) -> np.ndarray:
    """The power-set table of ``op`` over ``items``: entry ``mask`` is
    ``empty`` with ``op(., items[i])`` applied for each set bit ``i``, lowest
    first.  Built in ``len(items)`` vectorised steps,
    ``table[h:2h] = op(table[:h], items[j])`` with ``h = 2^j``."""
    empty = np.asarray(empty)
    table = np.empty((1 << len(items), *empty.shape), dtype=empty.dtype)
    table[0] = empty
    for j, item in enumerate(items):
        h = 1 << j
        op(table[:h], item, out=table[h:2 * h])
    return table


def _fold(table: np.ndarray, items, op) -> np.ndarray:
    """``table`` with ``op(., item)`` applied for each of ``items`` in order."""
    for item in items:
        table = op(table, item)
    return table


def _with_bits(table: np.ndarray, bits: list[int]) -> np.ndarray:
    """The strided view of the entries of a power-set table whose masks set
    every bit in ``bits``."""
    shape, index, top = [], [], table.size.bit_length() - 1
    for b in sorted(bits, reverse=True):
        shape += [1 << (top - b - 1), 2]
        index += [slice(None), 1]
        top = b
    return table.reshape(*shape, 1 << top)[(*index, slice(None))]


def _power_set_blocks(items: Sequence, low: int):
    """The blocks of a power-set table over ``items``: block ``b`` holds the
    ``2^low`` masks whose bits from ``low`` up spell ``b``.  Yields, block by
    block, the high items it selects, ``items[low + i]`` for each set bit
    ``i`` of ``b``, in ascending order."""
    high = items[low:]
    for b in range(1 << len(high)):
        yield [high[i] for i in _bits(b)]


def power_set_sums(values: np.ndarray, low: int):
    """Per block of :func:`_power_set_blocks`, the sum of ``values`` over
    each mask's set bits, added in ascending bit order as a row sum of
    ascending ids adds them: the low table by doubling, then the high
    values one by one."""
    table = _doubling(0.0, values[:low], np.add)
    for high in _power_set_blocks(values, low):
        yield _fold(table, high, np.add)


def power_set_values(obj: Objective, universe: Sequence[int], low: int):
    """``f`` of every subset of ``universe``, a sorted list of distinct ids,
    indexed by mask: bit ``i`` stands for ``universe[i]``.  Yields the
    ``2^(u - low)`` blocks of :func:`_power_set_blocks` in mask order, each a
    float array equal bit for bit to ``eval`` of its subsets; ``low`` is at
    most ``u``.

    Unweighted :class:`Coverage` counts cover words OR-ed by doubling;
    weighted coverage takes ``_covered_weight`` of the same union words;
    :class:`InterferenceCoverage` subtracts pair penalties added in pair
    order.  Every other family values each block with ``eval_ids`` over the
    exact enumerator's batches of the low ids plus the block's high ids."""
    return obj._power_set(list(universe), low)


def value_table(obj: Objective) -> np.ndarray:
    """Values for all 2^n subsets, indexed by bitmask, from
    :func:`power_set_values` over ``range(n)`` in blocks of at most
    ``exact._CHUNK`` masks.  Requires n <= 24."""
    from .exact import block_bits

    n = obj.n
    if n > 24:
        raise ValueError(f"value table infeasible for n={n}")
    low = block_bits(n)
    out = np.empty(1 << n)
    for b, vals in enumerate(power_set_values(obj, range(n), low)):
        out[b << low:(b + 1) << low] = vals
    return out


@dataclass
class PropertyReport:
    """Result of a randomized or exhaustive structural property check."""

    property: str
    checked: int
    violations: list = field(default_factory=list)
    max_violation: float = 0.0
    exhaustive: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "checked": self.checked,
            "violations": len(self.violations),
            "max_violation": self.max_violation,
            "exhaustive": self.exhaustive,
            "ok": self.ok,
        }


def _tol(obj) -> float:
    """The violation margin: none for integer-valued objectives."""
    return 0.0 if getattr(obj, "integer_valued", False) else REAL_TOL


_VIOLATION_CAP = 100


def check_submodular(obj: Objective, trials: int = 1000, seed: int = 0,
                     exhaustive: bool = False) -> PropertyReport:
    """Check diminishing returns: f(x|A) >= f(x|B) for A subset of B, x outside B.

    Sampled mode draws nested pairs uniformly (each element lands in A, B\\A,
    or outside with equal probability) plus a uniform outside x.  Exhaustive
    mode checks every (A, B, x) triple on :func:`value_table`; it is
    practical to about n = 13, and raises ``exact.GuardExceeded`` before
    building anything when its 3^n nested pairs (A, B) exceed the
    enumeration guard.  A gap counts as a violation beyond ``REAL_TOL``, or
    any gap when the objective is integer-valued.
    """
    return _check(obj, "submodular", trials, seed, exhaustive, True,
                  lambda t, a, b, x: -(t[a | x] - t[a] - t[b | x] + t[b]),
                  lambda a, b, x: -(obj.marginal(x, a) - obj.marginal(x, b)))


def check_monotone(obj: Objective, trials: int = 1000, seed: int = 0,
                   exhaustive: bool = False) -> PropertyReport:
    """Check f(A) <= f(B) over nested pairs A subset of B, in the modes, with
    the enumeration guard and with the violation margin of
    :func:`check_submodular`; exhaustive mode is practical to about n = 13."""
    return _check(obj, "monotone", trials, seed, exhaustive, False,
                  lambda t, a, b: t[a] - t[b],
                  lambda a, b: obj.eval(a) - obj.eval(b))


def _check(obj: Objective, prop: str, trials: int, seed: int, exhaustive: bool,
           with_x: bool, table_gap, oracle_gap) -> PropertyReport:
    """The property checker behind ``check_submodular`` and ``check_monotone``.

    A case is a nested pair (A, B), plus an element x outside B when
    ``with_x``; it violates ``prop`` when its gap exceeds the margin.
    Exhaustive mode takes gaps for whole blocks of cases from
    ``table_gap(table, a, b[, 1 << x])`` over mask arrays, x ascending within
    each pair of :func:`_nested_pairs`; sampled mode takes one gap per trial
    from ``oracle_gap(a, b[, x])`` over id arrays."""
    tol = _tol(obj)
    n = obj.n
    report = PropertyReport(prop, 0, exhaustive=exhaustive)
    if exhaustive:
        from .exact import check_guard

        check_guard(3 ** n)  # the nested pairs (A, B), before any table is built
        table = value_table(obj)
        cap = _KERNEL_CELLS // max(1, n) if with_x else _KERNEL_CELLS
        for a, b in _nested_pairs(n, cap):
            cols = []
            if with_x:  # row-major nonzeros: x ascending per pair
                pair, x = np.nonzero((b[:, None] >> np.arange(n)) & 1 == 0)
                a, b, cols = a[pair], b[pair], [x]
            gaps = table_gap(table, a, b, *(1 << c for c in cols))
            bad = np.flatnonzero(gaps > tol)
            _record(report, gaps.size, gaps[bad],
                    ((_bits(int(a[i])), _bits(int(b[i])), *(int(c[i]) for c in cols))
                     for i in bad))
        return report

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        roles = rng.integers(0, 3, size=n)
        case = [np.flatnonzero(roles == 0), np.flatnonzero(roles <= 1)]
        if with_x:
            outside = np.flatnonzero(roles == 2)
            if outside.size == 0:
                continue
            case.append(int(rng.choice(outside)))
        gap = oracle_gap(*case)
        _record(report, 1, [gap] if gap > tol else [],
                [(tuple(case[0].tolist()), tuple(case[1].tolist()), *case[2:])])
    return report


def _nested_pairs(n: int, cap: int):
    """Every nested pair (A, B) of subsets of ``range(n)`` as two mask
    arrays, in blocks of at most ``cap`` pairs: B ascending and, within each
    B, A descending, the order in which ``a = (a - 1) & b`` walks the
    submasks of ``b``.  The t-th submask of B from the top puts the bits of
    ``2^|B| - 1 - t`` onto the set bits of B."""
    ends = np.cumsum(1 << np.bitwise_count(np.arange(1 << n)).astype(np.int64))
    for start in range(0, int(ends[-1]), cap):
        pair = np.arange(start, min(start + cap, int(ends[-1])))
        b = np.searchsorted(ends, pair, side="right")
        rank = ends[b] - 1 - pair
        a = np.zeros_like(b)
        for i in range(n):
            bit = (b >> i) & 1
            a |= (rank & bit) << i
            rank >>= bit
        yield a, b


def _record(report: PropertyReport, checked: int, gaps, cases) -> None:
    """Count ``checked`` more cases in ``report``, and the violations among
    them: ``gaps`` holds their gaps in order and ``cases`` yields their
    ``(A, B[, x])``, read only while the list is below ``_VIOLATION_CAP``.
    ``max_violation`` is the running maximum of every gap, from 0.0."""
    report.checked += checked
    room = _VIOLATION_CAP - len(report.violations)
    report.violations += [(*case, float(gap))
                          for case, gap in zip(itertools.islice(cases, room), gaps)]
    if len(gaps):
        report.max_violation = max(report.max_violation, float(np.max(gaps)))


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
