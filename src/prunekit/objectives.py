"""Set-function value oracles for containment pruning.

Elements of a ground set are dense integer ids ``0..n-1``; every id a caller
passes is read by :func:`sorted_ids`, which raises ``TypeError`` for a float
or a string and ``IndexError`` outside ``0..n-1``.  Constructors read edge
ends, pair ends, cover items and Cut's ``n`` by the same ``operator.index``
rule.  Every objective
exposes ``eval`` (value of a set), ``marginal`` (value gain of one element)
and one batched path.  Objectives copy their inputs once and are pure after
construction; the :class:`CountingOracle` wrapper adds query accounting for
one thread (parallel sweeps run in worker processes, each with its own).

Batched evaluation: ``eval_ids(ids)`` is the one batched entry point, called
by the exact enumeration engine's small batches (``_position_values``, but
for unweighted Cut) and the scalar path of weighted :class:`Coverage`.
``ids`` is a ``(batch, width)`` integer array; each row lists the distinct
ids of one selection in any order, padded anywhere with the empty-slot id
``n``.  It returns one float per row, equal bit for bit to ``eval`` of that row
whatever else is in the batch: each kernel reduces every row on its own in
the order ``eval`` does, and none uses a matmul, whose row results depend on
the rows batched with them.  Unweighted :class:`Cut` values rows from a
table of small integers over the ids the batch uses (:meth:`Cut._among`),
and :class:`InterferenceCoverage` its penalties from :class:`_PairTable`, a
flat table of pair intensities over the ranks of those ids; both grow with
those ids, not with ``n``.  The pair table is read over a row's column
pairs in triu order, which is ascending pair order.  Cut's degrees,
adjacency and edge counts and the cover words are built lazily.
``_value`` stays the scalar path: a small batch costs tens of microseconds,
a scalar value a few.

One fold layer, the :class:`Objective` base, serves every family but
unweighted :class:`Cut`, which extends an integer state of its own by the
step ``cut(S + j) = cut(S) + deg(j) - 2 * (edges from j into S)``: the scan
keeps the edges into ``S`` (:class:`_CutScan`), and the exact enumerator
and the power set extend cut values from a table over the universe's
positions (:class:`_CutRows`, :meth:`Cut._among`).  The fold: a set's rows
folded by an exact, order-free ``op``, then finished.  By default the rows
are one-hot membership words, folded by OR and finished as
``_mask_values`` of the membership rows they unpack to:
weighted Cut's and :class:`Modular`'s pairwise row sums, ``_value`` per row
for :class:`TableObjective` and any subclass that gives only ``_value``.
The coverage families fold cover words by OR and finish a covered count or
weight; the facility-location families fold similarities by max and finish
a pairwise row sum.  ``eval_ids``, the scans, the power-set tables and the
exact enumerator (which folds each subset's new element onto its prefix's
state, see ``_sweep_values``) all fold, so they agree bit for bit.

Power-set tables: :func:`power_set_values` gives ``f`` of every subset of a
universe, indexed by subset mask, in blocks of masks that share their high
bits; only one block is held at a time.  The layer that values a family
builds them: the fold by doubling, ``tab[h:2h] = tab[:h] (+) element j``
(:class:`Proxy` penalises its facility location's), unweighted Cut by
doubling its step, ``tab[h:2h] = tab[:h] + deg(j) - 2 *
bitwise_count(mask & adj_j)``, and the pair layer by adding each pair's
weight to the masks that hold it, in pair order (interference's
penalties).

Candidate scans:

* ``scan()`` opens a :class:`CandidateScan`, the primitive every greedy
  engine runs on.  Over a set ``S`` that starts empty and grows by
  ``add(e)``, ``values(cands)`` returns ``f(S + e)`` for a whole array of
  candidates, equal bit for bit to ``eval``.  It keeps ``S``'s folded state
  (:class:`Proxy`'s over its facility location) and folds each candidate's
  row onto it, reading the singleton values every run starts from from a
  per-objective cache; unweighted :class:`Cut` keeps the edges into ``S``
  instead, and unweighted :class:`Coverage` every candidate's gain,
  exactly (see :class:`_CoverageScan`).  :class:`InterferenceCoverage`
  adds ``S``'s membership: each candidate's penalty sums the weights of
  the pairs with an end in ``S``, in pair order as ``eval`` sums them, for
  all candidates at once.
* ``top(cands, base, width)`` ranks: the window of the ``width`` largest
  gains ``f(S + e) - base``, lower position first on ties, with their
  exact values.  ``screen(cands, base)`` gives upper bounds on the gains
  from gains the scan keeps, or ``None``.  By default ``top`` values every
  candidate and ``screen`` keeps nothing.  The facility location families
  (not :class:`Proxy`, whose clamp ties candidates the facility location
  separates) keep approximate gains once a pass spans several kernel
  blocks and bring them up to date from the rows the picks raised when
  they are next read; ``top`` then values exactly only the candidates
  within a stated rounding bound of the window, and ``screen`` returns the
  gains plus that bound (see :class:`_FacilityScan`).  Either way a
  ranking or a screen counts one query per candidate.

Numeric policies.  Values of one set from any of the paths above are equal
bit for bit and compare exactly.  ``REAL_TOL`` applies to comparisons
across code paths that round differently (a penalty curve's shape, a
proxy's penalty against its facility location, the property checker's
gaps); integer-valued families compare exactly there too.  Kept gains
carry derived rounding bounds instead: bounds on the float64 arithmetic of
the exact pass and on the float32 arithmetic of the gain updates (see
:class:`_FacilityScan`).  They are not tolerances: they only decide which
candidates get valued exactly, so no two values are ever taken as equal
because they lie within one.

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

#: most cells (rows x per-row width) a batched kernel gathers at once, and
#: most fold-state cells an exact sweep's size table holds; small enough
#: that its temporaries stay in cache
_KERNEL_CELLS = 1 << 16

#: float32's unit roundoff, for the rounding bound of facility location's
#: float32 gain updates
_U32 = 2.0 ** -24


@dataclass(frozen=True)
class OracleStats:
    """Query accounting snapshot.

    ``queries`` counts set values computed: one per
    :meth:`CountingOracle.eval`, plus one per candidate a greedy engine's
    :class:`CandidateScan` values, ranks or screens (``f(S + e)``, whether
    it is valued exactly or screened out) and one per run for ``f(empty)``;
    a threshold sweep's exact re-read of a screened candidate is not
    counted again.
    ``cache_hits`` is always 0; it stays in the serial form so that saved
    pruned sets keep their bytes.
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
    ``TypeError``; an id outside ``0..n-1`` raises ``IndexError``.  A
    ``range`` and a strictly ascending 1-d integer array, whose ids all
    pass that rule, are read with array operations."""
    if isinstance(ids, range):
        s = ids if ids.step > 0 else ids[::-1]
    elif (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"
          and (ids[1:] > ids[:-1]).all()):
        s = ids
    else:
        s = sorted({operator.index(e) for e in ids})
    if len(s) and (s[0] < 0 or s[-1] >= n):
        raise IndexError(f"element id {s[0] if s[0] < 0 else s[-1]} out of range [0, {n})")
    if isinstance(s, range):
        return np.arange(s.start, s.stop, s.step, dtype=np.intp)
    return np.array(s, dtype=np.intp)


def add_left_to_right(values) -> float:
    """Sum floats in order, as 3.11's builtin ``sum`` does (3.12's compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def _as_index_set(S: Iterable[int], n: int) -> frozenset[int]:
    return frozenset(sorted_ids(S, n).tolist())


def _pair_ends(pairs: list) -> np.ndarray:
    """The ends of ``pairs`` as an ``(m, 2)`` array, read by the id rule
    (``operator.index``); ends too large for int64 stay Python ints."""
    ends = np.array(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
    if ends.dtype.kind not in "iu" or ends.shape[1:] != (2,):
        ends = np.array([(operator.index(i), operator.index(j)) for i, j in pairs])
    return ends


class Objective:
    """Base value oracle.  Subclasses set ``n`` and ``variant`` and implement
    ``_value`` (or ``_mask_values``, or a fold of their own).

    Every batched path folds: ``f(S)`` is ``_finish`` (one value per row of
    states) of ``_op`` folded over the rows ``_rows[e]`` of ``S``'s
    elements, from the empty slot's identity row ``_rows[n]``.  ``_op`` is
    exact and order-free, so every fold of a set gives the same state.  The
    default fold ORs one-hot membership words and finishes them as
    membership rows for ``_mask_values``."""

    n: int
    variant: str
    integer_valued: bool = False
    _op: np.ufunc = np.bitwise_or
    #: the dtype of scan values; ``eval_ids`` returns floats
    _scan_dtype = float

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
        ids per row padded with ``n``, equal to ``eval`` of the row."""
        return self._fold_values(np.asarray(ids))

    def _fold_values(self, ids: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        """``_finish`` of the rows of each row of ``ids`` folded together,
        and onto ``state`` when given."""
        rows, op = self._rows, self._op
        if not ids.shape[1]:  # rows of no ids: the empty slot's identity row
            ids = np.full((len(ids), 1), self.n)

        def kernel(block):
            folded = rows[block[:, 0]]
            for j in range(1, block.shape[1]):
                op(folded, rows[block[:, j]], out=folded)
            if state is not None:
                op(folded, state, out=folded)
            return self._finish(folded)

        return _by_blocks(ids, rows.shape[1], kernel)

    @functools.cached_property
    def _rows(self) -> np.ndarray:  # (n + 1, width), C-contiguous
        """One-hot membership words: row ``e`` sets bit ``e`` alone, and the
        empty slot's row ``n`` none."""
        return _cover_words([(e,) for e in range(self.n)], self.n)

    def _finish(self, words: np.ndarray) -> np.ndarray:
        """``_mask_values`` of the membership rows that one-hot ``words``
        unpack to, in row blocks as large as ``_mask_width`` allows."""
        return _by_blocks(words, self._mask_width, lambda block: self._mask_values(
            np.unpackbits(block.view(np.uint8), axis=1, count=self.n).view(bool)))

    _mask_width = property(operator.attrgetter("n"))  # cells a mask row gathers

    def _mask_values(self, M: np.ndarray) -> np.ndarray:
        """``f`` of each row of the ``(rows, n)`` membership matrix ``M``.
        The default calls ``_value`` per row."""
        return np.fromiter((self._value(frozenset(np.flatnonzero(row).tolist())) for row in M),
                           dtype=float, count=len(M))

    def _value(self, s: frozenset[int]):
        """``f(s)``: the default is ``_mask_values`` of its one membership row."""
        if type(self)._mask_values is Objective._mask_values:  # it would call back here
            raise NotImplementedError(f"{type(self).__name__} implements neither _value "
                                      "nor _mask_values")
        row = np.zeros((1, self.n), dtype=bool)
        row[0, list(s)] = True
        return float(self._mask_values(row)[0])

    def scan(self) -> "CandidateScan":
        """A candidate scan at the empty set."""
        return CandidateScan(self)

    #: the fold whose states the scan and, by default, the exact enumerator
    #: extend (None: the family keeps states of its own), and whether
    #: ``_sweep_values`` reads the id rows too
    _fold = property(lambda self: self)
    _sweep_ids = False

    @functools.cached_property
    def _singles(self) -> tuple[np.ndarray, np.ndarray]:
        """``f({e})`` per id, as the scan's fold gives it, and which ids are
        filled in: the scan fills them the first time a run reads them."""
        return np.zeros(self.n, dtype=self._scan_dtype), np.zeros(self.n, dtype=bool)

    def _sweep_states(self, to_id: list[int]) -> "_Folded":
        """The states the exact enumerator extends over the positions whose
        ids are ``to_id`` (the empty slot last): by default the rows of
        ``_fold``, folded by its ``op``."""
        fold = self._fold
        return _Folded(fold._rows[to_id], fold._op)

    def _position_values(self, to_id: list[int], pos: np.ndarray) -> np.ndarray:
        """``f`` of each row of ``pos``, the positions of a set over the
        universe whose position ``p`` holds the id ``to_id[p]`` (the empty
        slot last), padded with the empty slot's.  By default, ``eval_ids``
        of their ids."""
        return self.eval_ids(np.array(to_id, dtype=np.intp)[pos])

    def _sweep_values(self, ids, states, size: int) -> np.ndarray:
        """``f`` of one size's rows as the exact enumerator builds them, from
        their states under ``_sweep_states`` (and their id rows, when
        ``_sweep_ids``)."""
        return self._finish(states)

    def _power_set(self, universe: list[int], low: int):
        """The blocks of :func:`power_set_values`, each ``2^(low - sub)``
        finished sub-blocks of :func:`_folded`: ``sub <= low`` as large as
        keeps a doubling table within ``2^low`` cells."""
        rows = self._rows
        sub = max(0, low - (rows.shape[1] - 1).bit_length())
        states = _folded(rows[self.n], rows[universe], sub, self._op)
        for _ in range(1 << (len(universe) - low)):
            parts = [self._finish(next(states)) for _ in range(1 << (low - sub))]
            yield parts[0] if len(parts) == 1 else np.concatenate(parts)

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no serial form")


class _Folded:
    """An exact sweep's channel (see :func:`~prunekit.exact._sweep`): per
    subset, ``op`` folded over the rows of its positions (``rows[p]``, the
    identity row last), a leaf's prefix states folded with its tail's rows,
    one broadcast per leaf.  Fold states, and with ``logical_and`` the flags
    of the subsets inside a set."""

    def __init__(self, rows: np.ndarray, op: np.ufunc):
        self.rows, self.op, self.start, self.cells = rows, op, rows[-1:], rows.shape[1]

    def width(self, s: int) -> int:
        return self.cells

    def fill(self, out, held, group):
        """Fill ``out`` with the batch ``group`` of leaves ``(lo, hi, start,
        stop, tail)``: rows ``lo:hi`` extend ``held[start:stop]`` by ``tail``."""
        for lo, hi, start, stop, tail in group:
            row = self.rows[tail[0]]
            for p in tail[1:]:
                row = self.op(row, self.rows[p])
            self.op(held[start:stop], row, out=out[lo:hi])


def _by_blocks(ids: np.ndarray, per_row: int, kernel) -> np.ndarray:
    """``kernel(block)`` over row blocks of ``ids`` small enough that the
    block gathers at most ``_KERNEL_CELLS`` cells."""
    step = max(1, _KERNEL_CELLS // max(1, per_row))
    if len(ids) <= step:
        return kernel(ids)
    return np.concatenate([kernel(ids[lo:lo + step]) for lo in range(0, len(ids), step)])


def _masked_row_sums(weights: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row of the boolean matrix ``keep``, ``weights`` summed with zeros
    where it is false.  In a C-contiguous array numpy sums each row pairwise
    on its own; in another layout it would add column by column."""
    terms = np.zeros(keep.shape)
    np.copyto(terms, weights, where=keep)
    return terms.sum(axis=1)


@functools.lru_cache(maxsize=32)
def _pairs(width: int) -> tuple[tuple[int, int], ...]:
    """Column pairs a < b of an id batch of the given width, in triu order."""
    return tuple(itertools.combinations(range(width), 2))


class _PairTable:
    """Per row of an id batch, the weights ``pw`` of the pairs ``pi < pj``
    inside it, added left to right in pair order, as ``eval`` adds them
    (:meth:`sums`).  The pairs are distinct.

    Ids are replaced by their ranks among the ids the batch uses, and a
    flat ``side x side`` table over the ranks holds each pair's weight
    at ``(lower, higher)`` and 0.0 elsewhere, so the table grows with those
    ids, not with ``n``.  With its ranks sorted, the empty slot ``n`` goes
    last, and the column pairs ``a < b`` in triu order visit the row's id
    pairs in ascending pair order.  So each row adds its pairs' weights in
    ``eval``'s order, and 0.0 for the rest; the partial sums are never
    negative, so the zeros change no bit.  The ranks are laid out one
    contiguous row per column.  The last table is kept, keyed by the bytes
    of the mask of the ids the batch uses, and serves the next batch over
    the same ids."""

    def __init__(self, n: int, pi: np.ndarray, pj: np.ndarray, pw: np.ndarray):
        self.n, self.pi, self.pj, self.pw = n, pi, pj, pw
        self._last = (b"", None, 0, None)  # (used mask bytes, rank, side, table)

    def sums(self, ids: np.ndarray) -> np.ndarray:
        if ids.shape[1] < 2:  # no pairs inside a row
            return np.zeros(len(ids))
        used = np.zeros(self.n + 1, dtype=bool)
        used[ids.ravel("K")] = True  # in memory order: a view in either layout
        key = used.tobytes()
        last, rank, side, table = self._last
        if key != last:
            ranked = np.flatnonzero(used)
            rank = np.zeros(self.n + 1, dtype=np.intp)
            rank[ranked] = np.arange(len(ranked))
            side = len(ranked)
            inside = used[self.pi] & used[self.pj]
            table = np.zeros(side * side)
            table[rank[self.pi[inside]] * side + rank[self.pj[inside]]] = self.pw[inside]
            self._last = key, rank, side, table
        pairs = _pairs(ids.shape[1])

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

    def power_set(self, universe: list[int], low: int):
        """Per block of :func:`_power_set_blocks` over ``universe``, the
        weights of the pairs inside each mask, added in pair order: each
        pair with both ends in the universe adds its weight to the strided
        view over the low bits it sets, in the blocks that hold its high
        ends.  That is ``sums``' add sequence, mask by mask."""
        bit = np.full(self.n, -1)
        bit[universe] = np.arange(len(universe))
        first, second = bit[self.pi], bit[self.pj]
        both = (first >= 0) & (second >= 0)
        pairs = list(zip(first[both].tolist(), second[both].tolist(), self.pw[both].tolist()))
        for prefix in range(1 << (len(universe) - low)):
            total = np.zeros(1 << low)
            for p, q, w in pairs:
                if all(prefix >> (b - low) & 1 for b in (p, q) if b >= low):
                    view = _with_bits(total, [b for b in (p, q) if b < low])
                    view += w
            yield total


def _cover_words(covers: Sequence[frozenset[int]], m: int) -> np.ndarray:
    """Covers packed into uint64 words, one row per element plus an all-zero
    empty-slot row, in ``np.packbits`` order: ``np.unpackbits`` gives back
    the items ``0..m-1`` in ascending order."""
    bits = np.zeros((len(covers) + 1, _row_bits(m)), dtype=bool)
    bits[_cover_entries(covers)] = True
    return np.packbits(bits, axis=1).view(np.uint64)


def _row_bits(m: int) -> int:
    """Bits in a row of cover words over ``m`` items: whole uint64 words, at least one."""
    return 64 * max(1, -(-m // 64))


def _cover_entries(covers: Sequence[frozenset[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, item)``: one entry per element and item it covers, by
    element ascending, each cover's items in its iteration order."""
    owner = np.repeat(np.arange(len(covers)), [len(cov) for cov in covers])
    return owner, np.fromiter(itertools.chain.from_iterable(covers), np.intp, len(owner))


def _covered_count(union: np.ndarray) -> np.ndarray:
    """Number of universe items set in each row of union words, as floats.
    Rows of several words take the popcounts' product with a ones vector:
    one BLAS call over small integers, exact in any order of addition."""
    counts = np.bitwise_count(union)
    if union.shape[1] == 1:  # a cast costs a tenth of a matvec here
        return counts[:, 0].astype(float)
    return counts @ np.ones(union.shape[1])


class _CoverObjective(Objective):
    """The cover tables of the coverage families: ``covers[e]`` is the set
    of universe items ``0..m-1`` element ``e`` covers.  The scalar path
    counts from these sets; the fold ORs them packed into words and counts
    the covered items."""

    def __init__(self, covers: Sequence[Iterable[int]], m: int | None):
        if not covers:
            raise ValueError(f"{type(self).__name__} needs at least one element")
        self.covers = [frozenset(operator.index(v) for v in cov) for cov in covers]
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
    def _rows(self) -> np.ndarray:
        return _cover_words(self.covers, self.m)

    def _finish(self, union):
        return _covered_count(union)


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
            self._scan_dtype = np.int64  # as ``eval``, so greedy gains stay ints
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
        return float(self.eval_ids(np.array([[*s, self.n]]))[0])  # one-row fold

    def scan(self):
        """Unweighted: the scan that keeps every gain exactly, when the
        cover matrix spans more than one kernel block (below that a fold
        pass is mostly fixed cost, less than building the table) and the
        table fits; weighted, or otherwise, the fold's."""
        if (self.weights is None and self.n * self.m > _KERNEL_CELLS
                and self._incidence is not None):
            return _CoverageScan(self)
        return super().scan()

    @functools.cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(sizes, pair_ptr, pair_items, pair_owners)``: the cover sizes,
        and per element ``e``, in the slice ``pair_ptr[e]:pair_ptr[e + 1]``,
        each item of ``covers[e]`` paired with each element that covers it,
        read from the item -> element incidence (CSR, by item).  ``None``
        when the pairs, ``sum_i deg(i)^2`` over the items, would outnumber
        the bits of the fold's cover words (``n`` rows of whole words): the
        table stays within 8 bytes per bit of those words, and a pick
        updates on average no more gains than a row of them holds bits."""
        owner, item = _cover_entries(self.covers)
        deg = np.bincount(item, minlength=self.m)
        spans = deg[item]  # per entry, the elements that cover its item
        ends = np.cumsum(spans)
        cap = self.n * _row_bits(self.m)
        if len(ends) and ends[-1] > cap:
            return None
        small = np.int32 if cap < 2**31 else np.intp  # every id and pair position fits
        item_ptr = np.zeros(self.m + 1, dtype=np.intp)
        np.cumsum(deg, out=item_ptr[1:])
        item_owners = owner[np.argsort(item, kind="stable")].astype(small)
        sizes = np.bincount(owner, minlength=self.n)
        cover_ptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(sizes, out=cover_ptr[1:])
        at = np.repeat((item_ptr[item] - ends + spans).astype(small), spans)
        at += np.arange(len(at), dtype=small)
        return (sizes.astype(np.int64), np.concatenate(([0], ends))[cover_ptr],
                np.repeat(item.astype(small), spans), item_owners[at])

    def _finish(self, union):
        """Unweighted: the covered count.  Weighted: the covered items'
        weights added one item at a time in ascending order, in row blocks
        small enough for their unpacked items."""
        if self.weights is None or not self.m:  # no item to weigh: the count 0.0
            return _covered_count(union)

        def weigh(block):
            covered = np.unpackbits(block.view(np.uint8), axis=1, count=self.m)
            return np.where(covered, self.weights, 0.0).cumsum(axis=1)[:, -1]

        return _by_blocks(union, self.m, weigh)

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
        self.n = operator.index(n)
        if self.n < 1:
            raise ValueError("cut objective needs n >= 1")
        ends = _pair_ends(list(edges))
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        if bad.any():  # the first bad edge in input order
            u, v = (int(e) for e in ends[int(bad.argmax())])
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        self._us, self._vs = np.ascontiguousarray(ends.T, dtype=np.int64)
        if weights is None:
            self._ws = None
            self.integer_valued = True
        else:
            w = _finite(weights, "edge weights")
            if w.size != len(self._us):
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
            return super()._value(s)
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
        return _CutScan(self) if self._ws is None else super().scan()

    #: weighted: the one-hot fold; unweighted: none, as the scan keeps the
    #: edges into ``S`` and the exact enumerator extends cut values
    #: (:class:`_CutRows`)
    _fold = property(lambda self: None if self._ws is None else self)

    @functools.cached_property
    def _edge_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, count)``: the distinct edges ascending, ``lo < hi``,
        with their multiplicities."""
        codes, counts = np.unique(np.minimum(self._us, self._vs) * self.n
                                  + np.maximum(self._us, self._vs), return_counts=True)
        return codes // self.n, codes % self.n, counts

    @functools.cached_property
    def _among_dtype(self) -> np.dtype:
        """The smallest signed dtype that holds every entry of an
        :meth:`_among` table: each degree and -2 times each multiplicity
        (one past the largest, as a signed type holds one more negative
        value than positive ones)."""
        big = max(1, int(self._degrees.max()), 2 * int(self._edge_pairs[2].max(initial=0)))
        return np.min_scalar_type(-big - 1)

    #: the last ids ``_among`` read and their table
    _last_among = (None, None)

    def _among(self, ids: list[int]) -> np.ndarray:
        """The ``(u, u)`` table ``W`` over the positions of the ``u``
        distinct ``ids`` (the empty slot ``n`` may be one) whose entries
        ``W[i, j]``, ``i <= j``, sum to the cut of any set of positions:
        each id's degree on the diagonal (an edge to an id outside ``ids``
        counts there only) and, off it, -2 times the multiplicity of the
        edge between two positions, symmetric; in ``_among_dtype``.  The
        last table is kept and serves the next call over the same ids."""
        key = tuple(ids)
        if self._last_among[0] != key:
            lo, hi, count = self._edge_pairs
            at = np.full(self.n + 1, -1)
            at[ids] = np.arange(len(ids))
            a, b = at[lo], at[hi]
            both = (a >= 0) & (b >= 0)
            a, b, count = a[both], b[both], count[both]
            table = np.zeros((len(ids), len(ids)), dtype=self._among_dtype)
            table[a, b] = table[b, a] = -2 * count
            np.fill_diagonal(table, self._degrees[ids])
            self._last_among = key, table
        return self._last_among[1]

    def eval_ids(self, ids):
        """Unweighted: each row's positions among the ids the batch uses and
        the empty slot, valued by ``_position_values`` in blocks."""
        if self._ws is not None:
            return super().eval_ids(ids)
        ids = np.asarray(ids)
        if not ids.shape[1]:  # rows of no ids: empty sets
            return np.zeros(len(ids))
        used = np.union1d(ids, self.n)  # ascending: the empty slot last
        to_id, width = used.tolist(), ids.shape[1]
        return _by_blocks(np.searchsorted(used, ids), width * (width + 1) // 2,
                          lambda block: self._position_values(to_id, block))

    def _sweep_states(self, to_id):
        return super()._sweep_states(to_id) if self._ws is not None else _CutRows(self, to_id)

    def _sweep_values(self, ids, states, size):
        return super()._sweep_values(ids, states, size) if self._ws is not None else states[:, -1]

    #: the last position rows ``_position_values`` read, by identity, their
    #: side and pair indices; kept on the class, as the enumerator's small
    #: batches are cached arrays that serve every graph
    _last_pairs = (None, 0, None)

    def _position_values(self, to_id, pos):
        """Unweighted: the sum of ``W[a, b]`` over each row's position pairs
        ``a <= b`` (:meth:`_among`; the empty slot's entries are 0), read at
        flat indices ``a * side + b`` and summed in floats: small integers,
        exact in any order.  Rows of one position read the degrees alone
        and build no table."""
        if self._ws is not None:
            return super()._position_values(to_id, pos)
        if pos.shape[1] < 2:
            return self._degrees[np.array(to_id, dtype=np.intp)[pos[:, 0]]].astype(float)
        last, side, pairs = Cut._last_pairs
        if last is not pos or side != len(to_id):
            cols, side = pos.T, len(to_id)
            firsts, seconds = np.triu_indices(len(cols))
            pairs = cols[firsts] * side + cols[seconds]
            Cut._last_pairs = pos, side, pairs
        return self._among(to_id).reshape(-1)[pairs].sum(axis=0, dtype=float)

    _mask_width = property(lambda self: max(self.n, len(self._us)))

    def _mask_values(self, M):
        """Weighted: the weights of the cut edges summed along each row."""
        return _masked_row_sums(self._ws, M[:, self._us] != M[:, self._vs])

    def _power_set(self, universe, low):
        """Unweighted: by doubling, each element ``j`` adding ``deg(j) - 2 *
        (edges from j into the mask)`` (:class:`_CutRows`' step).  Within a
        block the mask of the low bits is the index, and the edges into it
        are ``bitwise_count(mask & adj)`` summed over the binary digits of
        the multiplicities, weighted ``2^b``: the word ``adj`` of digit
        ``b`` sets the low bits of the neighbours whose multiplicity has
        bit ``b`` set."""
        if self._ws is not None:
            yield from super()._power_set(universe, low)
            return
        w = self._among(universe)
        deg, counts = w.diagonal(), np.minimum(w, 0) // -2
        bits = np.left_shift(1, np.arange(low, dtype=np.uint64))
        digits = [np.bitwise_or.reduce(np.where(counts[:, :low] >> b & 1, bits, 0), axis=1)
                  for b in range(int(counts.max(initial=0)).bit_length())]
        masks = np.arange(1 << low, dtype=np.uint64)

        def step(j, h, inside=0):  # the gain of adding j to the masks below h
            edges = np.full(h, inside, dtype=np.int64)
            for b, adj in enumerate(digits):
                edges += np.bitwise_count(masks[:h] & adj[j]).astype(np.int64) << b
            return deg[j] - 2 * edges

        table = np.zeros(1 << low)
        for j in range(low):
            h = 1 << j
            np.add(table[:h], step(j, h), out=table[h:2 * h])
        for high in _power_set_blocks(list(range(len(universe))), low):
            block = table.copy()
            for i, j in enumerate(high):
                block += step(j, 1 << low, int(counts[j, high[:i]].sum()))
            yield block

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
    ``n``; ``sim`` is a view of it.  The fold takes the running maximum of
    these rows and sums the best similarities pairwise, as ``eval`` sums.
    """
    variant = "facility_location"
    _op = np.maximum

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

    _rows = property(operator.attrgetter("_sim_t"))

    def _finish(self, best):
        return best.sum(axis=1)

    def scan(self):
        return _FacilityScan(self)

    @functools.cached_property
    def _row_max(self) -> np.ndarray:
        """``max_e sim[i, e]`` per row ``i``."""
        return self._sim_t.max(axis=0)

    @functools.cached_property
    def _sim_bound(self) -> float:
        """``sum_i max_e sim[i, e]``: no value exceeds it."""
        return float(self._row_max.sum())

    @functools.cached_property
    def _sim_exp(self) -> int:
        """The exponent ``x`` with the largest similarity in ``[2^(x-1), 2^x)``."""
        return int(np.frexp(self._row_max.max())[1])

    @functools.cached_property
    def _sim_rows(self) -> np.ndarray:
        """The (m, n) similarities times ``2^-x`` (``x`` is ``_sim_exp``),
        so none exceeds 1, rounded to float32 and C-contiguous: the scan's
        gain updates gather whole rows of them."""
        rows = np.empty((self.m, self.n), dtype=np.float32)
        np.ldexp(self._sim_t[:self.n].T, -self._sim_exp, out=rows, casting="same_kind")
        return rows

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

    _fold = property(operator.attrgetter("fl"))

    def _sweep_values(self, ids, states, size):
        return self._penalised(self.fl._finish(states), size)

    def _power_set(self, universe, low):
        """The facility location's blocks, penalised at each mask's size."""
        for b, fl_vals in enumerate(self.fl._power_set(universe, low)):
            yield self._penalised(fl_vals, np.bitwise_count(np.arange(b << low, (b + 1) << low)))

    def _penalised(self, fl_vals: np.ndarray, sizes) -> np.ndarray:
        """FL values of sets of ``sizes`` elements minus ``theta``, plus the
        shift; with ``clamp``, ``max(v, 0.0)``, -0.0 kept as ``eval`` keeps it."""
        vals = fl_vals - self.penalty.theta[sizes] + self.shift
        return np.where(vals < 0.0, 0.0, vals) if self.clamp else vals

    def scan(self):
        return _ProxyScan(self)

    def to_dict(self):
        return {"variant": self.variant, "sim": self.fl.sim.tolist(),
                "penalty": self.penalty.to_dict(), "shift": self.shift,
                "clamp": self.clamp}


def _pair_arrays(intf: Mapping[tuple[int, int], float], n: int):
    """``(pi, pj, pw)``: the distinct unordered pairs of ``intf`` in
    ascending order, as end arrays ``pi < pj`` and weights ``pw`` (a pair
    given twice keeps its last weight).

    Ends are read by the id rule (``operator.index``: a float or a string
    raises ``TypeError``).  A pair on the diagonal or out of range, a
    negative or non-finite weight, or a pair given again with another weight
    raises ``ValueError`` for the first such pair in mapping order."""
    keys = list(intf)
    ends = _pair_ends(keys)
    w = np.fromiter(intf.values(), dtype=float, count=len(keys))
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    valid = (lo >= 0) & (hi < n) & (lo < hi) & (w >= 0) & (w < np.inf)
    stop = len(keys) if valid.all() else int(valid.argmin())

    # the valid pairs before ``stop`` by code lo * n + hi, stably
    codes = (lo[:stop] * n + hi[:stop]).astype(np.int64)
    order = np.argsort(codes, kind="stable")
    codes, ws = codes[order], w[order]
    same = codes[1:] == codes[:-1]
    clash = same & (ws[1:] != ws[:-1])
    if clash.any():  # the first pair whose weight differs from its pair's first one
        t = int(order[1:][clash].min())
        raise ValueError(f"asymmetric intensities for pair {(int(lo[t]), int(hi[t]))}")
    if stop < len(keys):
        a, b = (int(e) for e in ends[stop])
        if a == b:
            raise ValueError(f"interference diagonal ({a},{a}) must be absent")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"interference pair ({a},{b}) out of range")
        raise ValueError(f"interference intensities must be finite and non-negative, "
                         f"got {w[stop]} for pair {(min(a, b), max(a, b))}")
    last = np.append(~same, True)[:stop]  # each code's last occurrence
    return codes[last] // n, codes[last] % n, ws[last]


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
        self._pi, self._pj, self._pw = _pair_arrays(intf, self.n)
        self._pair_table = _PairTable(self.n, self._pi, self._pj, self._pw)

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
        return self._less_penalties(super().eval_ids(ids), ids)

    _sweep_ids = True

    def _sweep_values(self, ids, states, size):
        return self._less_penalties(self._finish(states), ids)

    def _less_penalties(self, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        if self.lam and len(self._pw):
            counts -= self.lam * self._pair_table.sums(ids)
        return counts

    def _power_set(self, universe, low):
        """Covered counts minus ``lam`` times the pair table's penalties."""
        for out, pens in zip(super()._power_set(universe, low),
                             self._pair_table.power_set(universe, low)):
            out -= self.lam * pens
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

    def _mask_values(self, M):
        """The selected elements' weights summed along each row."""
        return _masked_row_sums(self.weights, M)

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
        table = {}
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
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
    the integer-valued states, floats otherwise.  This default keeps ``S``'s
    state in the fold ``obj._fold``, ``None`` while ``S`` is empty, and
    folds it in place onto each candidate's row; at the empty set it reads
    the fold's singleton values, kept per objective (``_singles``).
    :meth:`top` ranks the candidates for the window engines.  With a
    ``counter`` (see :func:`open_scan`) every value computed, ranked or
    screened, ``f(empty)`` included, is recorded there as one query.
    """

    def __init__(self, obj: Objective):
        self.obj = obj
        self.members: frozenset[int] = frozenset()
        self.counter: CountingOracle | None = None
        self._fold = obj._fold
        self._state = None

    def empty_value(self):
        """``f(empty)``, as ``eval`` returns it."""
        self._count(1)
        return self.obj.eval(())

    def values(self, cands, counted: bool = True) -> np.ndarray:
        """``f(S + e)`` per candidate.  ``counted=False`` re-reads
        candidates whose value at the current set is already recorded (a
        threshold sweep's screened candidates) and records nothing."""
        cands = np.asarray(cands, dtype=np.intp)
        if counted:
            self._count(len(cands))
        return self._values(cands)

    def top(self, cands, base, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The window of the ``width`` best candidates: their positions in
        ``cands`` in rank order (gain ``f(S + e) - base`` descending, the
        lower position first on ties) and their values, equal bit for bit
        to :meth:`values`.  Records ``len(cands)`` queries, as ``values``
        does; this default values every candidate."""
        return _window(self.values(cands), base, width)

    def screen(self, cands, base) -> np.ndarray | None:
        """Upper bounds on the gains ``f(S + e) - base`` of ``cands`` from
        gains the scan keeps, recording ``len(cands)`` queries, or ``None``,
        recording nothing, when it keeps none for them.  This default keeps
        none."""
        return None

    def add(self, e: int) -> None:
        """Add candidate ``e`` to ``S``."""
        e = int(e)
        self._grow(e)
        self.members |= {e}

    def _count(self, queries: int) -> None:
        if self.counter is not None:
            self.counter.record(queries)

    def _values(self, cands: np.ndarray) -> np.ndarray:
        fold = self._fold
        if self._state is None:  # the values every run starts from, kept per objective
            vals, known = fold._singles
            fill = cands[~known[cands]]
            if len(fill):
                vals[fill] = fold._fold_values(fill[:, None])
                known[fill] = True
            return vals[cands]
        return fold._fold_values(cands[:, None], self._state).astype(fold._scan_dtype, copy=False)

    def _grow(self, e: int) -> None:
        row, state = self._fold._rows[e], self._state
        self._state = row.copy() if state is None else self._fold._op(state, row, out=state)


def _gains(vals: np.ndarray, base) -> np.ndarray:
    """``f(S + e) - f(S)`` per candidate as floats, for comparisons.  Each
    is the double the scalar ``eval(S + e) - base`` gives."""
    return np.asarray(vals, dtype=float) - base


def _window(vals: np.ndarray, base, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the ``width`` best gains ``vals - base``, ranked as
    :meth:`CandidateScan.top` ranks them, and their values.  A window one
    element wide is the first ``argmax``, which a stable sort would also
    rank first, at less cost."""
    gains = _gains(vals, base)
    ranked = (gains.argmax(keepdims=True) if width == 1
              else np.argsort(-gains, kind="stable")[:width])
    return ranked, vals[ranked]


class _FacilityScan(CandidateScan):
    """Facility location's scan: ``top`` and ``screen`` value exactly only
    the candidates that can reach a window or a threshold.

    An exact ``values`` pass that spans more than one kernel block, over
    candidates the kept gains do not serve, keeps their gains
    ``G[e] = f(S + e) - b0``, with ``b0`` the scan's own ``f(S)``.  A pick
    leaves ``G`` as it is until the next ``top`` or ``screen`` reads it, so
    the last pick of a run costs nothing.  The read brings ``G`` from the
    set it was kept at to the current one: each row ``i`` of the rows ``R``
    whose running best rose from ``old_i`` to ``new_i`` lowers the gain of
    every ``e'`` by ``t_i = min(max(sim[i, e'] - old_i, 0), w_i)``, with
    ``w_i = new_i - old_i``.  The update forms the ``t_i`` in float32 from
    the C-contiguous float32 copy ``obj._sim_rows``, a kernel block of rows
    at a time, sums each block's in float32 and takes the sum off ``G`` in
    float64.  ``top`` does that when its ``|R| n`` cells cost less than an
    exact pass over the candidates ``G`` still serves, and otherwise drops
    ``G`` and makes that pass.  ``screen`` always does it: without ``G`` a
    threshold sweep values about every candidate exactly after each pick,
    and an update gathers at most ``m n`` cells.

    The float64 error.  Let ``u = eps / 2``, ``M_i = max_e sim[i, e]``,
    ``M = sum_i M_i`` (no value, row sum or gain here exceeds it), ``A``
    the subtractions from ``G`` since its pass (one per block of an
    update), and ``b`` the engine's base now.  An exact value adds ``m``
    terms, so it is within ``(m - 1) u M`` of the real one, and so is
    ``b0``; taking ``b0`` off adds ``u (M + |b0|)``, and so does each
    subtraction.  The base is the last pick's exact value after two
    roundings, within ``(m + 2) u M`` of the real ``f(S)``.  So, the
    float32 work apart, ``G`` is within ``u (4m + A + 1) (M + |b0| + |b|)``
    of the gain ``f(S + e) - b`` the engine compares, and
    ``2 eps (m + A + 2) (M + |b0| + |b|)`` bounds that with room for the
    second-order terms.

    The float32 error.  ``_sim_rows`` holds the similarities times
    ``2^-x`` (``obj._sim_exp``), so none exceeds 1, rounded once; the
    update rounds ``old_i`` the same way, and ``w_i``, subtracted in
    float64, once more.  Each rounding to float32 errs by at most
    ``u' |v| + eta`` in the similarities' units, with ``u' = 2^-24`` and
    ``eta`` the larger of ``2^(x - 149)`` (underflow) and float64's least
    subnormal (bringing a block's sum back by ``2^x``).  As
    ``sim[i, e'], old_i <= M_i``, the rounded inputs move
    ``sim[i, e'] - old_i`` by at most ``2 u' M_i + 2 eta`` and ``w_i`` by
    at most ``(u' + u + u' u) w_i + eta``.  A clamp moves its output by no
    more than the larger move of its inputs, and rounding the difference,
    which is monotone and keeps ``0`` and the rounded ``w_i``, moves the
    clamped value by at most ``u'`` times it.  Summing ``c`` terms in
    float32 errs by at most ``gamma(c - 1)`` times their sum, with
    ``gamma(k) = k u' / (1 - k u')`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 4.2), and
    ``(1 + gamma(j)) (1 + gamma(k)) <= 1 + gamma(j + k)`` collects the
    factors.  So with ``W = sum_R w_i`` and ``c`` the most rows in a
    block, one update moves ``G`` by at most
    ``2 u' sum_R M_i + gamma(c + 3) W + 4 |R| eta``: to first order
    ``u' (2 sum_R M_i + (c + 1) W)``, the rest second order.  ``E`` sums
    these since the pass, each as
    ``u' (2 sum_R M_i + k W) / (1 - k u') + 5 |R| eta`` with
    ``k = c + 4``; the added ``1``, the divisor on the first term and the
    fifth ``eta`` cover the rounding of these float64 sums.  A block of
    at most ``_KERNEL_CELLS`` rows keeps ``k u' < 1``.

    The margin.  ``delta = 2 eps (m + A + 2) (M + |b0| + |b|) + E`` bounds
    ``G``'s distance from the gain the engine compares.  These are derived
    bounds, not tolerances.  :meth:`_kept` gives ``G`` with the margin
    ``2 delta``:

    * ``top`` values exactly, by ``values``' kernel, only the candidates
      whose ``G`` lies within the margin of the window's threshold ``T``,
      the ``width``-th largest ``G``, and ranks them.  The ``width``
      candidates with the largest ``G`` all gain at least ``T - delta``,
      so every candidate in the window or tied with its last has
      ``G >= T - 2 delta``: picks, gains and windows stay those of an
      exact pass.
    * ``screen`` returns ``G`` plus the margin.  A candidate whose bound
      is below a threshold ``tau`` gains less than ``tau - delta``, so a
      threshold sweep values exactly only the others, and its first hit
      stays the same.
    """

    def __init__(self, obj: FacilityLocation):
        super().__init__(obj)
        self._approx = None  # G per id, while it serves the candidates below
        self._live = None  # its exact pass's candidates, less the ids added since
        self._at = None  # the running best that G is at
        self._behind = False  # whether picks were added since
        self._adds = 0  # A
        self._base = 0.0  # |b0|
        self._err32 = 0.0  # E

    def values(self, cands, counted=True):
        cands = np.asarray(cands, dtype=np.intp)
        vals = super().values(cands, counted)
        obj, state = self.obj, self._state
        if len(cands) * obj.m > _KERNEL_CELLS and not self._serves(cands):
            b0 = 0.0 if state is None else float(state.sum())
            self._approx = np.empty(obj.n)
            self._approx[cands] = _gains(vals, b0)
            self._live = np.zeros(obj.n, dtype=bool)
            self._live[cands] = True
            self._at = np.zeros(obj.m) if state is None else state.copy()
            self._behind, self._adds, self._base, self._err32 = False, 0, abs(b0), 0.0
        return vals

    def top(self, cands, base, width):
        cands = np.asarray(cands, dtype=np.intp)
        kept = self._kept(cands, base, update=False)
        if kept is None:
            return _window(self.values(cands), base, width)
        self._count(len(cands))
        approx, margin = kept
        last = len(cands) - min(width, len(cands))
        bar = approx.max() if last == len(cands) - 1 else np.partition(approx, last)[last]
        near = np.flatnonzero(approx >= bar - margin)
        ranked, vals = _window(self._values(cands[near]), base, width)
        return near[ranked], vals

    def screen(self, cands, base):
        cands = np.asarray(cands, dtype=np.intp)
        kept = self._kept(cands, base, update=True)
        if kept is None:
            return None
        self._count(len(cands))
        approx, margin = kept
        return approx + margin

    def _serves(self, cands) -> bool:
        return self._approx is not None and bool(self._live[cands].all())

    def _kept(self, cands, base, update: bool):
        """``(G[cands], 2 delta)``, ``G`` brought to the current set first,
        or ``None`` when ``G`` does not serve ``cands``.  Unless
        ``update``, a read whose update would cost more cells than an exact
        pass drops ``G`` instead and gives ``None``."""
        if not self._serves(cands):
            return None
        obj = self.obj
        if self._behind:
            new, old = self._state, self._at
            raised = np.flatnonzero(new > old)
            if not update and len(raised) * obj.n >= np.count_nonzero(self._live) * obj.m:
                self._approx = None
                return None
            lo, hi = old[raised], new[raised]
            x = obj._sim_exp
            lo32 = np.ldexp(lo, -x).astype(np.float32)
            width32 = np.ldexp(hi - lo, -x).astype(np.float32)
            step = max(1, _KERNEL_CELLS // obj.n)  # rows of one kernel block
            for at in range(0, len(raised), step):
                t = obj._sim_rows[raised[at:at + step]]
                t -= lo32[at:at + step, None]
                np.maximum(t, 0, out=t)
                np.minimum(t, width32[at:at + step, None], out=t)
                self._approx -= np.ldexp(t.sum(axis=0), x, dtype=float)
                self._adds += 1
            k = min(step, len(raised)) + 4
            eta = np.ldexp(1.0, max(x - 149, -1074))
            self._err32 += ((2 * obj._row_max[raised].sum() + k * (hi - lo).sum())
                            * _U32 / (1 - k * _U32) + 5 * len(raised) * eta)
            old[raised] = hi
            self._behind = False
        delta = (2 * np.finfo(float).eps * (obj.m + self._adds + 2)
                 * (obj._sim_bound + self._base + abs(base)) + self._err32)
        return self._approx[cands], 2 * delta

    def _grow(self, e):
        if self._approx is not None:
            self._live[e] = False
            self._behind = True
        super()._grow(e)


class _CoverageScan(CandidateScan):
    """Unweighted coverage keeps every gain exactly: the covered count and,
    per element, ``G[e]``, the items of its cover not yet covered, so
    ``f(S + e)`` is the count plus ``G[e]``, one gather.  A pick ``e`` adds
    ``G[e]`` to the count and takes one off the gain of every element that
    covers each item ``e`` newly covers, read from its slice of the
    objective's pair table."""

    def __init__(self, obj: Coverage):
        super().__init__(obj)
        self._total = 0
        self._gain = obj._incidence[0].copy()
        self._covered = np.zeros(obj.m, dtype=bool)

    def _values(self, cands):
        return self._total + self._gain[cands]

    def _grow(self, e):
        _, pair_ptr, pair_items, pair_owners = self.obj._incidence
        lo, hi = pair_ptr[e], pair_ptr[e + 1]
        items = pair_items[lo:hi]
        self._total += int(self._gain[e])
        np.subtract.at(self._gain, pair_owners[lo:hi][~self._covered[items]], 1)
        self._covered[items] = True


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


class _CutRows:
    """The exact sweep's channel for unweighted Cut (see
    :func:`~prunekit.exact._sweep`): per subset its positions, the new ones
    first, then its cut value.  A batch copies each leaf's prefix rows after
    its new positions, two broadcasts per leaf as for id rows; then, over
    the whole batch, it adds the new positions' columns one at a time, the
    last first, as :class:`_CutScan` adds a pick: ``cut(T + j) = cut(T) +
    deg(j) - 2 * (edges from j into T)``, that is ``deg(j)`` plus
    ``W[j, t]`` for each ``t`` in ``T``, read from :meth:`Cut._among`'s
    table with one gather per column.  The table is built for the first
    row of two positions, so a sweep of single ids reads degrees alone.
    Small integers: exact in any order."""

    cells = 0

    def __init__(self, cut: Cut, to_id: list[int]):
        # a position, a cut and every partial gain lie within +-max(u, |E|)
        dtype = np.result_type(cut._among_dtype,
                               np.min_scalar_type(-max(len(to_id), len(cut._us)) - 1))
        self.cut, self.to_id, self.side = cut, to_id, len(to_id)
        self.deg = cut._degrees[np.array(to_id, dtype=np.intp)].astype(dtype)
        self.start = np.zeros((1, 1), dtype=dtype)  # the empty set: no position, cut 0

    @functools.cached_property
    def table(self) -> np.ndarray:
        return self.cut._among(self.to_id).reshape(-1)

    def width(self, s: int) -> int:
        return s + 1

    def fill(self, out, held, group):
        for lo, hi, start, stop, tail in group:
            out[lo:hi, :len(tail)] = tail
            out[lo:hi, len(tail):] = held[start:stop]
        cols = out.T
        at = np.empty(len(out), dtype=np.intp)
        for i in reversed(range(len(group[0][-1]))):
            firsts = np.multiply(cols[i], self.side, dtype=np.intp)
            gain = self.deg[cols[i]]
            for col in cols[i + 1:-1]:
                gain += self.table[np.add(firsts, col, out=at)]
            cols[-1] += gain


class _InterferenceScan(CandidateScan):
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
        out = super()._values(cands)
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


class _ProxyScan(CandidateScan):
    """The scan of the proxy's facility location, minus the penalty at
    ``|S| + 1``, shifted and clamped as ``Proxy`` does it."""

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


def _folded(empty, items, low: int, op):
    """Per block of :func:`_power_set_blocks` over ``items``, ``op`` folded
    from ``empty`` over each mask's items in ascending bit order: the low
    items' table by doubling, then, into a copy, the block's high items."""
    table = _doubling(empty, items[:low], op)
    for high in _power_set_blocks(items, low):
        block = op(table, high[0]) if high else table
        for item in high[1:]:
            op(block, item, out=block)
        yield block


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
    return _folded(0.0, values, low, np.add)


def power_set_values(obj: Objective, universe: Sequence[int], low: int):
    """``f`` of every subset of ``universe``, a sorted list of distinct ids,
    indexed by mask: bit ``i`` stands for ``universe[i]``.  Yields the
    ``2^(u - low)`` blocks of :func:`_power_set_blocks` in mask order, each a
    float array equal bit for bit to ``eval`` of its subsets; ``low`` is at
    most ``u``.  Each family's ``_power_set`` builds them (see the module
    docstring)."""
    return obj._power_set(list(universe), low)


def value_table(obj: Objective) -> np.ndarray:
    """Values for all 2^n subsets, indexed by bitmask, from
    :func:`power_set_values` over ``range(n)`` in blocks of at most
    ``exact._CHUNK`` masks.  Requires n <= 24 and 2^n within the guard."""
    from .exact import block_bits, check_guard

    n = obj.n
    if n > 24:
        raise ValueError(f"value table infeasible for n={n}")
    check_guard(1 << n)
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
