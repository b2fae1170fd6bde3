"""The candidate scan and the greedy engines built on it, against the scalar
engines they replaced.

The ``ref_*`` functions below are the scalar engines: one
``oracle.eval(current | {e})`` call per candidate through a query-counting
CountingOracle.  They are the bit-for-bit reference: the batched engines must
reproduce their picks, their gains (value and Python type), costs,
densities, dummy cost and windows on every family.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from conftest import build_variants, scan_families
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import exact, objectives, selection
from prunekit.instances import gen_coverage, gen_gnm, gen_interference
from prunekit.harness import containment_report
from prunekit.objectives import (CountingOracle, Coverage, Cut, FacilityLocation,
                                 InterferenceCoverage, Modular, Objective, OracleStats,
                                 PenaltyCurve, Proxy, RestrictedFacilityLocation,
                                 add_left_to_right, counting_wrap, open_scan, value_table)
from prunekit.prune import (prune_fast_budget_range, prune_seq_disjoint,
                            prune_std_greedy, prune_threshold_stream, prune_window,
                            witness)
from prunekit.selection import (density_greedy, greedy, threshold_greedy,
                                threshold_stream, window_greedy)


# --------------------------------------------------------------------------
# scalar reference engines

def ref_greedy(oracle, pool, size, stop_at_zero=False):
    remaining = sorted(set(int(e) for e in pool))
    picks, gains = [], []
    current = set()
    base = oracle.eval(current)
    while remaining and len(picks) < size:
        best_e, best_gain = None, None
        for e in remaining:
            gain = oracle.eval(current | {e}) - base
            if best_gain is None or gain > best_gain:
                best_e, best_gain = e, gain
        if stop_at_zero and best_gain <= 0:
            break
        current.add(best_e)
        base += best_gain
        remaining.remove(best_e)
        picks.append(best_e)
        gains.append(best_gain)
    return picks, gains


def ref_threshold_greedy(oracle, pool, size, eta):
    remaining = sorted(set(int(e) for e in pool))
    picks, gains = [], []
    if not remaining or size == 0:
        return picks, gains
    d = max(oracle.eval((e,)) for e in remaining)
    if d <= 0:
        return picks, gains
    current = set()
    base = oracle.eval(current)
    floor = (eta / len(remaining)) * d
    tau = d
    while tau >= floor and len(picks) < size and remaining:
        for e in list(remaining):
            if len(picks) >= size:
                break
            gain = oracle.eval(current | {e}) - base
            if gain >= tau:
                current.add(e)
                base += gain
                remaining.remove(e)
                picks.append(e)
                gains.append(gain)
        tau *= 1.0 - eta
    return picks, gains


def ref_threshold_queries(obj, pool, size, eta, chunk):
    """``(queries, dead)`` of threshold_greedy's chunked-rescan rule, walked
    with one ``eval`` per value: the singleton values and ``f(empty)``, then
    per sweep chunks of ``chunk`` positions, doubling while they hold no
    hit and reset at each acceptance, each counting its stale candidates.
    It walks every level; ``dead`` counts the levels after the first that
    a sweep enters with every value fresh and leaves with no acceptance.
    Such a level counts nothing, so the engine may step over it."""
    remaining = sorted(set(int(e) for e in pool))
    if not remaining or size == 0:
        return 0, 0
    singles = [obj.eval((e,)) for e in remaining]
    d = max(singles)
    if d <= 0:
        return len(remaining), 0
    base = obj.eval(())
    queries, dead, picks = len(remaining) + 1, 0, 0
    gains = [v - base for v in singles]
    fresh = [True] * len(remaining)
    current = set()
    floor = (eta / len(remaining)) * d
    tau = d
    while tau >= floor and picks < size and remaining:
        entered_fresh, accepted = all(fresh) and tau < d, False
        start, width = 0, chunk
        while start < len(remaining) and picks < size:
            stop = len(remaining) if all(fresh[start:]) else min(start + width, len(remaining))
            for i in range(start, stop):
                if not fresh[i]:
                    gains[i] = obj.eval(current | {remaining[i]}) - base
                    fresh[i] = True
                    queries += 1
            hits = [i for i in range(start, stop) if gains[i] >= tau]
            if not hits:
                start, width = stop, 2 * width
                continue
            at = hits[0]
            current.add(remaining[at])
            base += gains[at]
            picks += 1
            accepted = True
            del remaining[at], gains[at]
            fresh = [False] * len(remaining)
            start, width = at, chunk
        dead += entered_fresh and not accepted
        tau *= 1.0 - eta
    return queries, dead


def ref_density_greedy(oracle, pool, costs, stop_cost, keep_cap):
    remaining = sorted(set(int(e) for e in pool))
    cost_of = {e: float(costs[e]) for e in remaining}
    picks, gains, spent_costs, densities = [], [], [], []
    dummy = 0.0
    current = set()
    base = oracle.eval(current)
    spent = 0.0
    while spent < stop_cost:
        if not remaining:
            dummy = stop_cost - spent
            break
        best_e, best_density, best_gain = None, None, None
        for e in remaining:
            gain = oracle.eval(current | {e}) - base
            density = gain / cost_of[e]
            if best_density is None or density > best_density:
                best_e, best_density, best_gain = e, density, gain
        if spent + cost_of[best_e] > keep_cap:
            remaining.remove(best_e)
            continue
        current.add(best_e)
        base += best_gain
        spent += cost_of[best_e]
        remaining.remove(best_e)
        picks.append(best_e)
        gains.append(best_gain)
        spent_costs.append(cost_of[best_e])
        densities.append(best_density)
    return picks, gains, spent_costs, densities, dummy


def ref_window(oracle, n, k, w, choose):
    picks, windows = [], []
    current = set()
    base = oracle.eval(current)
    for _ in range(k):
        remaining = sorted(set(range(n)) - current)
        if not remaining:
            break
        gains = [(oracle.eval(current | {e}) - base, e) for e in remaining]
        gains.sort(key=lambda t: (-t[0], t[1]))
        window = [e for _, e in gains[:w]]
        windows.append(window)
        chosen_gain, chosen = gains[choose(len(window))]
        current.add(chosen)
        base += chosen_gain
        picks.append(chosen)
    return picks, windows


def ref_threshold_stream(oracle, order, k, p, epsilon):
    accepted, current = [], set()
    d = 0.0
    for e in order:
        d = max(d, oracle.eval((e,)))
        if len(accepted) >= p or d <= 0:
            continue
        if oracle.eval(current | {e}) - oracle.eval(current) >= epsilon * d / k:
            accepted.append(e)
            current.add(e)
    return accepted


FAMILY_NAMES = sorted(scan_families(6, 0))


def typed(values):
    """Values with their types, -0.0 told apart from 0.0."""
    return [(type(v), repr(v)) for v in values]


# --------------------------------------------------------------------------
# the primitive

class TestCandidateScan:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 8))
    @settings(max_examples=20, deadline=None)
    def test_values_match_eval_along_a_growth_path(self, name, seed, n):
        obj = scan_families(n, seed)[name]
        rng = np.random.default_rng(seed)
        scan = obj.scan()
        assert typed([scan.empty_value()]) == typed([obj.eval(())])
        members = []
        for e in rng.permutation(n).tolist():
            cands = np.array([c for c in range(n) if c not in members], dtype=np.intp)
            vals = scan.values(cands)
            got = vals.tolist()  # Python scalars, as the engines read them
            assert typed(got) == typed([obj.eval(members + [c]) for c in cands.tolist()])
            scan.add(e)
            members.append(e)

    def test_large_families_match_eval(self):
        n = 300
        cov = gen_coverage(n, 200, seed=2)
        sim = np.random.default_rng(3).uniform(size=(150, n))
        fams = [Cut(n, gen_gnm(n, 4 * n, seed=1)), cov, FacilityLocation(sim),
                gen_interference(n, 200, seed=8),
                Proxy(FacilityLocation(sim), PenaltyCurve(np.linspace(0, 10, n + 1)),
                      clamp=True)]
        rng = np.random.default_rng(4)
        for obj in fams:
            scan, members = obj.scan(), []
            for e in rng.choice(n, size=6, replace=False).tolist():
                cands = rng.choice([c for c in range(n) if c not in members], size=40,
                                   replace=False)
                vals = scan.values(cands).tolist()
                assert vals == [obj.eval(members + [c]) for c in cands.tolist()]
                scan.add(e)
                members.append(e)

    def test_shift_and_clamp_engage(self):
        fams = scan_families(6, 0)
        assert fams["proxy_shift"].shift > 0
        assert fams["proxy_clamp"].eval([0]) == 0.0
        assert fams["proxy_clamp"].fl.eval([0]) - fams["proxy_clamp"].penalty(1) < 0

    def test_batched_families_return_arrays(self):
        # every scan, the default one over eval_ids included, returns numbers
        for name, obj in scan_families(6, 1).items():
            assert obj.scan().values([0, 1]).dtype.kind in "if", name

    def test_empty_set_values_are_kept_per_objective(self):
        obj = FacilityLocation(np.random.default_rng(2).uniform(size=(20, 50)))
        rows, fold = [], Objective._fold_values

        def spy(self, ids, state=None):
            rows.append(len(ids))
            return fold(self, ids, state)

        with mock.patch.object(Objective, "_fold_values", spy):
            first = obj.scan().values([3, 7, 9]).tolist()
            again = obj.scan().values([9, 3, 12]).tolist()
        assert rows == [3, 1]  # the second scan folds only id 12
        assert typed(first) == typed([obj.eval([e]) for e in (3, 7, 9)])
        assert typed(again) == typed([obj.eval([e]) for e in (9, 3, 12)])

    def test_counting_oracle_records_every_value(self, triangle):
        oracle = counting_wrap(triangle)
        scan = open_scan(oracle)
        scan.empty_value()
        scan.values([0, 1, 2])
        scan.add(0)
        scan.values([1, 2])
        assert oracle.stats() == OracleStats(queries=6, cache_hits=0)


def kernel_families(n, m, seed):
    """Every family on the facility-location kernel, over ``m`` points."""
    rng = np.random.default_rng(seed)
    sim = rng.uniform(size=(m, n))
    dud = sim.copy()
    dud[:, 0] = 0.0  # {0} falls below the penalty: shift and clamp engage
    linear = PenaltyCurve(0.999 * float(dud.max(axis=1).sum()) * np.arange(n + 1) / n)
    rel = rng.uniform(size=m)
    rel[0] = 0.9  # at least one row passes the gate at tau = 0.5
    return {
        "facility_location": FacilityLocation(sim),
        "proxy_shift": Proxy(FacilityLocation(dud), linear, shift=True),
        "proxy_clamp": Proxy(FacilityLocation(dud), linear, clamp=True),
        "restricted_fl": RestrictedFacilityLocation(sim, rel, tau=0.5),
        "restricted_fl_ungated": RestrictedFacilityLocation(sim, rel, tau=1.0),
    }


class TestFacilityKernelAtBlockEdges:
    """With ``_KERNEL_CELLS`` at 64, the kernel gathers a few rows per block
    (one when there are more than 64 points), so block edges fall inside
    every scan and every batch."""

    @pytest.mark.parametrize("name", sorted(kernel_families(3, 1, 0)))
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 12), m=st.integers(1, 80))
    @settings(max_examples=20, deadline=None)
    def test_scan_and_eval_ids_match_eval(self, name, seed, n, m):
        obj = kernel_families(n, m, seed)[name]
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(20):  # distinct ids padded with n anywhere
            row = rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()
            rows.append(rng.permutation(row + [n] * (n - len(row))).tolist())
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64):
            got = obj.eval_ids(np.array(rows)).tolist()
            scan, members = obj.scan(), []
            for e in rng.permutation(n).tolist():
                cands = np.array([c for c in range(n) if c not in members], dtype=np.intp)
                assert typed(scan.values(cands).tolist()) == \
                    typed([obj.eval(members + [c]) for c in cands.tolist()])
                scan.add(e)
                members.append(e)
        assert typed(got) == typed([obj.eval([e for e in row if e < n]) for row in rows])

    def test_gate_engages(self):
        fams = kernel_families(6, 20, 0)
        assert fams["restricted_fl"].m < 20
        assert not fams["restricted_fl_ungated"].eval_ids(np.array([[0, 1, 2]])).any()
        assert fams["restricted_fl"].eval([0]) > 0.0


def cover_families(n, m, seed):
    """The coverage families over ``m`` items, whose covers reach the last
    item, so the last of the ``ceil(m / 64)`` words is in use."""
    rng = np.random.default_rng(seed)
    covers = [rng.choice(m, size=rng.integers(1, 2 * m // n + 2), replace=False).tolist()
              for _ in range(n)]
    if m - 1 not in covers[-1]:
        covers[-1].append(m - 1)
    intf = {(i, j): float(rng.uniform(1, 5))
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return {
        "coverage": Coverage(covers, m=m),
        "weighted_coverage": Coverage(covers, m=m, weights=rng.uniform(0.5, 2.0, size=m)),
        "interference": InterferenceCoverage(covers, intf, lam=0.3, m=m),
    }


class TestMultiWordCovers:
    """Covers over 64, 65 and 200 items: one, two and four words per row.
    Scan values keep ``eval``'s types: ``int`` for unweighted Coverage."""

    @pytest.mark.parametrize("name", sorted(cover_families(3, 64, 0)))
    @pytest.mark.parametrize("m", [64, 65, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_kernels_and_scan_match_eval(self, name, m, seed):
        n = 8
        obj = cover_families(n, m, seed)[name]
        assert obj._rows.shape[1] == -(-m // 64)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(30):  # distinct ids padded with n anywhere
            row = rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()
            rows.append(rng.permutation(row + [n] * (n - len(row))).tolist())
        got = obj.eval_ids(np.array(rows))
        assert got.dtype == np.float64
        assert got.tolist() == [float(obj.eval([e for e in row if e < n])) for row in rows]
        table = value_table(obj)
        assert table.tolist() == [float(obj.eval([i for i in range(n) if mask >> i & 1]))
                                  for mask in range(1 << n)]
        scan, members = obj.scan(), []
        for e in rng.permutation(n).tolist():
            cands = np.array([c for c in range(n) if c not in members], dtype=np.intp)
            assert typed(scan.values(cands).tolist()) == \
                typed([obj.eval(members + [c]) for c in cands.tolist()])
            scan.add(e)
            members.append(e)


def kept_gain_coverage(n, m, seed, empty, everyone, twice):
    """Unweighted coverage over ``m`` items, optionally with an empty
    cover, an item that every element covers and a cover given twice."""
    rng = np.random.default_rng(seed)
    covers = [set(rng.choice(m, size=rng.integers(0, min(m, 5) + 1), replace=False).tolist())
              for _ in range(n)]
    if everyone:
        item = int(rng.integers(m))
        for cov in covers:
            cov.add(item)
    if twice and n > 1:
        covers[-1] = set(covers[0])
    if empty:
        covers[int(rng.integers(n))] = set()
    return Coverage(covers, m=m)


class TestKeptCoverageGains:
    """Unweighted coverage keeps every gain exactly: values along a growth
    path equal ``eval`` and the fold scan, as Python ints."""

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12), empty=st.booleans(),
           everyone=st.booleans(), twice=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_growth_path_matches_eval_and_the_fold(self, m, seed, n, empty, everyone, twice):
        obj = kept_gain_coverage(n, m, seed, empty, everyone, twice)
        with mock.patch.object(objectives, "_KERNEL_CELLS", 0):  # every cover matrix spans blocks
            scan = obj.scan()
        fold = objectives.CandidateScan(obj)
        assert type(scan) is objectives._CoverageScan
        assert typed([scan.empty_value()]) == typed([obj.eval(())])
        members = []
        for e in np.random.default_rng(seed).permutation(n).tolist():
            cands = np.array([c for c in range(n) if c not in members], dtype=np.intp)
            got = scan.values(cands).tolist()
            assert typed(got) == typed([obj.eval(members + [c]) for c in cands.tolist()])
            assert got == fold.values(cands).tolist()
            scan.add(e)
            fold.add(e)
            members.append(e)

    def test_every_engine_gives_python_int_gains(self):
        obj = gen_coverage(300, 300, seed=3)
        assert type(obj.scan()) is objectives._CoverageScan
        runs = [greedy(counting_wrap(obj), range(300), 6),
                threshold_greedy(counting_wrap(obj), range(300), 6, 0.1),
                density_greedy(counting_wrap(obj), range(300), np.linspace(0.5, 1.5, 300), 3.0,
                               4.0),
                window_greedy(counting_wrap(obj), range(300), 6, 3, lambda w: w - 1)[0]]
        for run in runs:
            assert run.gains and all(type(g) is int for g in run.gains)

    def test_the_incidence_is_built_once_per_objective(self):
        obj = gen_coverage(400, 300, seed=4)
        with mock.patch.object(objectives, "_cover_entries",
                               wraps=objectives._cover_entries) as entries:
            prune_seq_disjoint(obj, 400, 5, ell=3)
            threshold_greedy(counting_wrap(obj), range(400), 5, 0.1)
            density_greedy(counting_wrap(obj), range(400), np.ones(400), 4.0, 4.0)
            threshold_stream(counting_wrap(obj), range(400), 5, 5, 0.2)
        assert entries.call_count == 1
        assert type(obj.scan()) is objectives._CoverageScan

    def test_small_cover_matrices_stay_on_the_fold(self):
        # 22 x 30 cells: one kernel block, where a fold pass is mostly fixed cost
        assert type(gen_coverage(22, 30, seed=1).scan()) is objectives.CandidateScan
        assert type(gen_coverage(1000, 500, seed=1).scan()) is objectives._CoverageScan

    def test_other_coverage_scans_keep_their_classes(self):
        covers = [[0, 1], [1, 2], [2, 3]]
        assert type(Coverage(covers, weights=[1.0, 2.0, 1.0, 0.5]).scan()) \
            is objectives.CandidateScan
        assert type(InterferenceCoverage(covers, {(0, 1): 1.0}, lam=0.5).scan()) \
            is objectives._InterferenceScan

    def test_a_pair_table_beyond_the_cover_words_falls_back_to_the_fold(self):
        # 1,200 elements all covering item 0: over 1.4 million pairs against
        # 1,200 rows of 64 bits, on a cover matrix of 72,000 cells
        n = 1200
        obj = Coverage([[0, e % 59 + 1] for e in range(n)], m=60)
        assert obj._incidence is None
        assert type(obj.scan()) is objectives.CandidateScan
        new, ref = both(obj)
        run = greedy(new, range(n), 3)
        picks, gains = ref_greedy(ref, range(n), 3)
        assert run.picks == picks and typed(run.gains) == typed(gains)


def one_hot_families(n, seed):
    """Weighted Cut and ``Modular``, whose batched paths fold one-hot
    membership words of ``ceil(n / 64)`` words per row."""
    rng = np.random.default_rng(seed)
    edges = gen_gnm(n, 3 * n, seed=seed)
    return {"weighted_cut": Cut(n, edges, weights=rng.uniform(0.5, 2.0, size=len(edges))),
            "modular": Modular(rng.uniform(-1.0, 2.0, size=n))}


class TestOneHotWordBoundaries:
    """At 63, 64, 65 and 130 ids the membership words of weighted Cut and
    ``Modular`` span one, one, two and three words: every batched path
    matches ``eval`` bit for bit across the word boundaries."""

    @pytest.mark.parametrize("name", ["weighted_cut", "modular"])
    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_batched_paths_match_eval(self, name, n):
        obj = one_hot_families(n, n)[name]
        assert obj._rows.shape == (n + 1, -(-n // 64))
        rng = np.random.default_rng(n)
        rows = []
        for _ in range(40):  # distinct ids padded with n anywhere
            row = rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()
            rows.append(rng.permutation(row + [n] * (n - len(row))).tolist())
        assert typed(obj.eval_ids(np.array(rows)).tolist()) == \
            typed([obj.eval([e for e in row if e < n]) for row in rows])

        new, ref = both(obj)
        run = greedy(new, range(n), 6)
        picks, gains = ref_greedy(ref, range(n), 6)
        assert run.picks == picks and typed(run.gains) == typed(gains)

        prof = exact.opt_cardinality(obj, range(n), 2)
        by_size = [[(obj.eval(c), c) for c in itertools.combinations(range(n), s)]
                   for s in range(3)]
        for j in range(3):
            cands = [vc for size in by_size[:j + 1] for vc in size]
            top = max(v for v, _ in cands)
            assert prof.opt_by_budget[j].hex() == top.hex()
            assert prof.argmax_by_budget[j] == min(c for v, c in cands if v == top)

        universe = np.linspace(0, n - 1, 12).round().astype(int).tolist()
        assert universe[-1] // 64 == (n - 1) // 64  # the universe reaches the last word
        for low in (12, 5):
            masks = range(1 << 12)
            got = np.concatenate(list(objectives.power_set_values(obj, universe, low)))
            want = [obj.eval([universe[i] for i in range(12) if mask >> i & 1]) for mask in masks]
            assert got.tolist() == want


# --------------------------------------------------------------------------
# the engines against the scalar references

def both(obj):
    """A fresh counting oracle for each engine."""
    return counting_wrap(obj), CountingOracle(obj)


def level_spy():
    """``(steps, patch)``: while ``patch`` is active, the threshold levels
    each dead-level skip of threshold_greedy steps over go to ``steps``."""
    steps = []
    live = selection._live_level

    def spy(tau, best, eta, floor):
        out, count = live(tau, best, eta, floor), 0
        while tau != out:
            tau *= 1.0 - eta
            count += 1
        steps.append(count)
        return out

    return steps, mock.patch.object(selection, "_live_level", spy)


class TestEnginesMatchScalarReference:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8),
           size=st.integers(0, 9), eta=st.sampled_from([0.05, 0.2, 0.5]),
           chunk=st.sampled_from([1, 2, 64]))
    @settings(max_examples=50, deadline=None)
    def test_transcripts(self, name, seed, n, size, eta, chunk):
        obj = scan_families(n, seed)[name]
        rng = np.random.default_rng(seed)
        pool = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())

        for stop_at_zero in (False, True):
            new, ref = both(obj)
            run = greedy(new, pool, size, stop_at_zero=stop_at_zero)
            picks, gains = ref_greedy(ref, pool, size, stop_at_zero=stop_at_zero)
            assert run.picks == picks and typed(run.gains) == typed(gains)

        new, ref = both(obj)
        with mock.patch.object(selection, "_FIRST_CHUNK", chunk):
            run = threshold_greedy(new, pool, size, eta)
        picks, gains = ref_threshold_greedy(ref, pool, size, eta)
        assert run.picks == picks and typed(run.gains) == typed(gains)

        costs = rng.uniform(0.2, 1.5, size=n)
        stop = float(rng.uniform(0.5, 3.0))
        keep = stop * float(rng.uniform(1.0, 2.0))
        new, ref = both(obj)
        drun = density_greedy(new, pool, costs, stop, keep)
        picks, gains, spent, dens, dummy = ref_density_greedy(ref, pool, costs, stop, keep)
        assert drun.picks == picks and typed(drun.gains) == typed(gains)
        assert drun.costs == spent and typed(drun.densities) == typed(dens)
        assert drun.dummy_cost == dummy

        k, width = max(1, size), int(rng.integers(1, 2 * n + 1))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        new, ref = both(obj)
        wrun, windows = window_greedy(new, range(n), k, width,
                                      lambda w: int(rngs[0].integers(w)))
        picks, ref_windows = ref_window(ref, n, k, width, lambda w: int(rngs[1].integers(w)))
        assert wrun.picks == picks and windows == ref_windows

        order = rng.permutation(n).tolist()
        new, ref = both(obj)
        assert (threshold_stream(new, order, k, max(1, size), eta)
                == ref_threshold_stream(ref, order, k, max(1, size), eta))

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 9), size=st.integers(0, 9),
           eta=st.sampled_from([0.05, 0.2, 0.5]), chunk=st.sampled_from([1, 2, 64]))
    @settings(max_examples=40, deadline=None)
    def test_threshold_queries_match_the_counting_reference(self, name, seed, n, size, eta,
                                                            chunk):
        obj = scan_families(n, seed)[name]
        rng = np.random.default_rng(seed)
        pool = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        oracle, skipped = counting_wrap(obj), level_spy()
        with mock.patch.object(selection, "_FIRST_CHUNK", chunk), skipped[1]:
            threshold_greedy(oracle, pool, size, eta)
        queries, dead = ref_threshold_queries(obj, pool, size, eta, chunk)
        assert oracle.stats().queries == queries
        assert sum(skipped[0]) == dead  # no family screens at this size

    def test_dead_levels_are_skipped_with_their_products(self):
        eta, floor = 0.05, 1e-3
        taus = [1.0]
        while taus[-1] >= floor:
            taus.append(taus[-1] * (1.0 - eta))
        for best in (0.999, taus[7], np.nextafter(taus[7], 0.0), 0.5, 1e-9):
            got = selection._live_level(1.0, best, eta, floor)
            want = next(t for t in taus if t <= best or t < floor)
            assert got.hex() == want.hex()
        assert selection._live_level(1.0, 2.0, eta, floor) == 1.0

    @pytest.mark.parametrize("family", ["coverage", "facility_location"])
    def test_large_pools_skip_dead_levels(self, family):
        obj = {"coverage": gen_coverage(400, 300, seed=7),  # the kept-gain scan
               "facility_location": FacilityLocation(  # one block: the exact path
                   np.random.default_rng(5).uniform(size=(60, 400)))}[family]
        oracle, skipped = counting_wrap(obj), level_spy()
        with skipped[1]:
            run = threshold_greedy(oracle, range(400), 40, 0.05)
        queries, dead = ref_threshold_queries(obj, range(400), 40, 0.05, selection._FIRST_CHUNK)
        assert oracle.stats().queries == queries and sum(skipped[0]) == dead > 0
        picks, gains = ref_threshold_greedy(CountingOracle(obj), range(400), 40, 0.05)
        assert run.picks == picks and typed(run.gains) == typed(gains)

    @pytest.mark.parametrize("family", ["cut", "coverage", "facility_location", "proxy"])
    def test_large_pools_with_chunked_rescans(self, family):
        n = 400
        sim = np.random.default_rng(5).uniform(size=(60, n))
        obj = {"cut": Cut(n, gen_gnm(n, 3 * n, seed=6)),
               "coverage": gen_coverage(n, 300, seed=7),
               "facility_location": FacilityLocation(sim),
               "proxy": Proxy(FacilityLocation(sim),
                              PenaltyCurve(0.002 * np.arange(n + 1) ** 1.5))}[family]
        new, ref = both(obj)
        run = threshold_greedy(new, range(n), 12, 0.1)
        picks, gains = ref_threshold_greedy(ref, range(n), 12, 0.1)
        assert run.picks == picks and typed(run.gains) == typed(gains)
        new, ref = both(obj)
        run = greedy(new, range(n), 8)
        picks, gains = ref_greedy(ref, range(n), 8)
        assert run.picks == picks and typed(run.gains) == typed(gains)
        new, ref = both(obj)
        wrun, windows = window_greedy(new, range(n), 5, 10, lambda w: w // 2)
        assert (wrun.picks, windows) == ref_window(ref, n, 5, 10, lambda w: w // 2)

    def test_integer_families_give_python_int_gains(self):
        fams = scan_families(8, 3)
        for name in ("cut", "coverage", "tie_cut"):
            run = greedy(counting_wrap(fams[name]), range(8), 4)
            assert all(type(g) is int for g in run.gains), name

    def test_lowest_id_wins_ties(self):
        run = greedy(counting_wrap(Modular([2.0, 3.0, 3.0, 1.0, 3.0])), range(5), 3)
        assert run.picks == [1, 2, 4]
        run, windows = window_greedy(counting_wrap(Cut(6, [(i, (i + 1) % 6) for i in range(6)])),
                                     range(6), 1, 3, lambda w: 0)
        assert windows == [[0, 1, 2]] and run.picks == [0]

    def test_pool_ids_out_of_range_rejected(self, triangle):
        for pool in ([0, 3], [-1, 1]):
            with pytest.raises(IndexError):
                greedy(counting_wrap(triangle), pool, 2)


# --------------------------------------------------------------------------
# threshold runs are prefixes of each other: the single-run pruner against the
# per-budget grid loop it replaced

def ref_budget_grid(k, eta):
    """The grid the per-budget loop ran on: budgets 1..min(k, ceil(1/eta))
    plus the geometric ladder min(k, ceil((1+eta)^j))."""
    small = set(range(1, min(k, math.ceil(1.0 / eta)) + 1))
    j_top = math.ceil(math.log(k, 1.0 + eta)) if k > 1 else 0
    ladder = {min(k, math.ceil((1.0 + eta) ** j)) for j in range(j_top + 1)}
    return sorted(small | ladder)


def ref_grid_prune(obj, n, k, epsilon):
    """One threshold run per grid budget at eta = epsilon/4; P is their union."""
    eta = epsilon / 4.0
    oracle = counting_wrap(obj)
    runs = {q: threshold_greedy(oracle, range(n), q, eta).picks
            for q in ref_budget_grid(k, eta)}
    return runs, sorted({e for picks in runs.values() for e in picks})


PREFIX_FAMILIES = ["coverage", "facility_location", "weighted_coverage"]


class TestThresholdRunPrefixes:
    @pytest.mark.parametrize("name", PREFIX_FAMILIES)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 45), k=st.integers(1, 40),
           eps=st.sampled_from([0.05, 0.2, 0.45]))
    @settings(max_examples=25, deadline=None)
    def test_capped_runs_are_prefixes(self, name, seed, n, k, eps):
        # eps = 0.45 at large k is a sparse grid: the per-budget loop skipped budgets
        obj = build_variants(n=n, seed=seed)[name]
        eta = eps / 4.0
        top = threshold_greedy(counting_wrap(obj), range(n), k, eta)
        assert len(top.picks) <= k
        for q in range(1, k + 1):
            run = threshold_greedy(counting_wrap(obj), range(n), q, eta)
            assert run.picks == top.picks[:q]
            assert typed(run.gains) == typed(top.gains[:q])

        pruned = prune_fast_budget_range(obj, n, k, epsilon=eps)
        runs, union = ref_grid_prune(obj, n, k, eps)
        assert pruned.elements == union == sorted(top.picks)
        assert pruned.structure == {"kind": "threshold_run", "picks": top.picks}
        assert pruned.cap == k
        for kp in range(1, k + 1):
            assert witness(pruned, obj, kp) == top.picks[:kp]
        for q, picks in runs.items():
            assert witness(pruned, obj, q) == picks


# --------------------------------------------------------------------------
# the ranking primitive: facility location's screened ``top`` against the
# default, which values every candidate

def near_tie_facilities(m, n, seed):
    """Facility locations whose gains tie or nearly tie, two whose
    similarities lie beyond float32's range, and the restricted ones, one
    with a gate that passes no row."""
    rng = np.random.default_rng(seed)
    sim = rng.uniform(size=(m, n))
    half = n // 2
    dup, ulp, zero = sim.copy(), sim.copy(), sim.copy()
    dup[:, half:2 * half] = sim[:, :half]  # each column of the first half twice
    ulp[:, half:2 * half] = np.nextafter(sim[:, :half], 2.0)  # 1 ulp above it
    zero[:, ::3] = 0.0
    rel = rng.uniform(size=m)
    rel[0] = 0.9
    return {
        "plain": FacilityLocation(sim),
        "duplicate_columns": FacilityLocation(dup),
        "ulp_apart_columns": FacilityLocation(ulp),
        "zero_columns": FacilityLocation(zero),
        "rounded": FacilityLocation(np.round(sim, 1)),
        "huge": FacilityLocation(sim * 2.0 ** 1000),
        "tiny": FacilityLocation(sim * 2.0 ** -1000),
        "restricted": RestrictedFacilityLocation(sim, rel, tau=0.5),
        "restricted_no_row": RestrictedFacilityLocation(sim, rel, tau=1.0),
    }


def default_top(scan, cands, base, width):
    return objectives.CandidateScan.top(scan, cands, base, width)


def rows_valued():
    """A spy on the scan kernel: the number of candidates each call values."""
    calls = []
    kernel = objectives.CandidateScan._values

    def spy(self, cands):
        calls.append(len(cands))
        return kernel(self, cands)

    return calls, mock.patch.object(objectives.CandidateScan, "_values", spy)


class TestScreenedTop:
    """With ``_KERNEL_CELLS`` at 64, an exact pass over more than ``64 // m``
    candidates spans several blocks, so small instances screen."""

    @pytest.mark.parametrize("name", sorted(near_tie_facilities(2, 4, 0)))
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 12), n=st.integers(1, 40),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_top_matches_the_default_along_a_growth_path(self, name, seed, m, n, data):
        obj = near_tie_facilities(m, n, seed)[name]
        rng = np.random.default_rng(seed)
        size = data.draw(st.integers(1, n), label="pool size")
        pool = np.sort(rng.choice(n, size=size, replace=False))
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64):
            scan, base = obj.scan(), obj.eval(())
            while len(pool):
                width = data.draw(st.integers(1, len(pool) + 1), label="width")
                want_pos, want_vals = default_top(scan, pool, base, width)
                got_pos, got_vals = scan.top(pool, base, width)
                assert got_pos.tolist() == want_pos.tolist()
                assert typed(got_vals.tolist()) == typed(want_vals.tolist())
                at = int(got_pos[int(rng.integers(len(got_pos)))])
                base += obj.eval(scan.members | {int(pool[at])}) - base
                scan.add(int(pool[at]))
                pool = np.delete(pool, at)

    @pytest.mark.parametrize("name", sorted(near_tie_facilities(2, 4, 0)))
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), n=st.integers(2, 30),
           size=st.integers(0, 8), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_engines_match_the_scalar_references(self, name, seed, m, n, size, data):
        obj = near_tie_facilities(m, n, seed)[name]
        width = data.draw(st.integers(1, n + 1), label="width")
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64):
            new, ref = both(obj)
            run = greedy(new, range(n), size)
            picks, gains = ref_greedy(ref, range(n), size)
            assert run.picks == picks and typed(run.gains) == typed(gains)
            assert new.stats() == ref.stats()
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            new, ref = both(obj)
            wrun, windows = window_greedy(new, range(n), max(1, size), width,
                                          lambda w: int(rngs[0].integers(w)))
            assert (wrun.picks, windows) == ref_window(ref, n, max(1, size), width,
                                                       lambda w: int(rngs[1].integers(w)))

    def test_ids_outside_the_last_exact_pass_take_the_exact_path(self):
        obj = FacilityLocation(np.random.default_rng(1).uniform(size=(10, 200)))
        calls, spy = rows_valued()
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64), spy:
            scan, base = obj.scan(), 0.0
            pool = np.arange(150)  # more than the 6 rows of one block: screens
            for _ in range(4):
                calls.clear()
                ranked, vals = scan.top(pool, base, 1)
                base = vals[0].item()
                scan.add(int(pool[ranked[0]]))
                pool = np.delete(pool, ranked[0])
            assert calls[0] < len(pool)  # the last pick was screened
            wider = np.setdiff1d(np.arange(200), list(scan.members))
            calls.clear()
            got = scan.top(wider, base, 3)
            assert calls == [len(wider)]  # ids 150..199 were not in the pass
            want = default_top(scan, wider, base, 3)
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("cls", ["facility_location", "restricted_fl"])
    def test_large_instances_screen_and_keep_their_transcripts(self, cls):
        rng = np.random.default_rng(11)
        sim = rng.uniform(size=(300, 1000))
        obj = (FacilityLocation(sim) if cls == "facility_location"
               else RestrictedFacilityLocation(sim, rng.uniform(size=300), tau=0.3))
        calls, spy = rows_valued()
        with spy:
            run = greedy(counting_wrap(obj), range(1000), 20)
            wrun, windows = window_greedy(counting_wrap(obj), range(1000), 8, 20,
                                          lambda w: w // 3)
        assert min(calls) < 20  # screened picks valued only a few candidates
        with mock.patch.object(objectives._FacilityScan, "top", default_top):
            want = greedy(counting_wrap(obj), range(1000), 20)
            want_w = window_greedy(counting_wrap(obj), range(1000), 8, 20, lambda w: w // 3)
        assert run.picks == want.picks and typed(run.gains) == typed(want.gains)
        assert (wrun.picks, windows) == (want_w[0].picks, want_w[1])
        assert typed(wrun.gains) == typed(want_w[0].gains)

    def test_benchmark_size_values_few_candidates_per_screened_pick(self):
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        calls, spy = rows_valued()
        with spy:
            prune_seq_disjoint(fl, 1000, 10, ell=4)
        # per run, exact passes at the empty set and after the first pick,
        # whose update would cost more than a pass
        exact = [c for c in calls if c > 900]
        screened = [c for c in calls if c <= 900]
        assert len(exact) == 8 and len(screened) == 32
        assert max(screened) <= 3

    def test_small_pools_stay_on_the_exact_path(self):
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        pool = np.arange(0, 1000, 25)  # 40 ids: one kernel block of 218 rows
        calls, spy = rows_valued()
        with spy:
            greedy(counting_wrap(fl), pool, 10)
            prune_seq_disjoint(FacilityLocation(fl.sim[:40, :22]), 22, 5, ell=3)
        assert calls == [40 - i for i in range(10)] + [22 - i for i in range(15)]


def updates_applied():
    """A spy on the facility-location scan's reads: one flag per read, true
    when the read brought the kept gains up to the current set."""
    flags = []
    kept = objectives._FacilityScan._kept

    def spy(self, cands, base, update):
        behind = self._behind
        out = kept(self, cands, base, update)
        flags.append(behind and out is not None)
        return out

    return flags, mock.patch.object(objectives._FacilityScan, "_kept", spy)


def bounds_read():
    """A spy on ``screen``: the number of bounds each call returns (0 for ``None``)."""
    counts = []
    screen = objectives._FacilityScan.screen

    def spy(self, cands, base):
        out = screen(self, cands, base)
        counts.append(0 if out is None else len(out))
        return out

    return counts, mock.patch.object(objectives._FacilityScan, "screen", spy)


class TestScreenedThresholdSweep:
    """With ``_KERNEL_CELLS`` at 64 the singleton pass of a threshold run
    spans several blocks on small instances, so its sweeps read kept gains."""

    @pytest.mark.parametrize("name", sorted(near_tie_facilities(2, 4, 0)))
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 12), n=st.integers(2, 40),
           size=st.integers(0, 10), eta=st.sampled_from([0.05, 0.2, 0.5]),
           chunk=st.sampled_from([1, 2, 64]))
    @settings(max_examples=20, deadline=None)
    def test_transcripts_and_queries_match_the_references(self, name, seed, m, n, size, eta,
                                                          chunk):
        obj = near_tie_facilities(m, n, seed)[name]
        new, ref = both(obj)
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64), \
                mock.patch.object(selection, "_FIRST_CHUNK", chunk):
            run = threshold_greedy(new, range(n), size, eta)
        picks, gains = ref_threshold_greedy(ref, range(n), size, eta)
        assert run.picks == picks and typed(run.gains) == typed(gains)
        assert new.stats().queries == ref_threshold_queries(obj, range(n), size, eta, chunk)[0]

    @pytest.mark.parametrize("name", sorted(near_tie_facilities(2, 4, 0)))
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 12), n=st.integers(8, 40))
    @settings(max_examples=20, deadline=None)
    def test_bounds_cover_the_exact_gains_along_a_growth_path(self, name, seed, m, n):
        # the sweep leaves out a candidate whose bound is below tau, so no
        # bound may fall below the gain the engine would compute
        obj = near_tie_facilities(m, n, seed)[name]
        rng = np.random.default_rng(seed)
        pool = np.arange(n)
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64):
            scan = obj.scan()
            vals, base = scan.values(pool), obj.eval(())
            while len(pool):
                bounds = scan.screen(pool, base)
                exact = scan.values(pool, counted=False)
                if bounds is not None:
                    assert (bounds >= objectives._gains(exact, base)).all()
                at = int(rng.integers(len(pool)))
                base += exact[at].item() - base
                scan.add(int(pool[at]))
                pool = np.delete(pool, at)

    @pytest.mark.parametrize("name", ["duplicate_columns", "ulp_apart_columns", "zero_columns",
                                      "restricted"])
    def test_small_instances_screen(self, name):
        obj = near_tie_facilities(6, 40, 3)[name]
        counts, spy = bounds_read()
        with mock.patch.object(objectives, "_KERNEL_CELLS", 64), spy:
            run = threshold_greedy(counting_wrap(obj), range(40), 8, 0.05)
        assert max(counts) > 0
        picks, gains = ref_threshold_greedy(CountingOracle(obj), range(40), 8, 0.05)
        assert run.picks == picks and typed(run.gains) == typed(gains)

    def test_benchmark_size_values_few_candidates_per_pick(self):
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        calls, spy = rows_valued()
        counts, screens = bounds_read()
        with spy, screens:
            pruned = prune_fast_budget_range(fl, 1000, 10, epsilon=0.2)
        assert calls[0] == 1000  # the singleton pass, which keeps the gains
        assert len(pruned.elements) == 10 and sum(calls[1:]) <= 30
        assert min(counts) > 0  # every rescan read kept gains
        assert pruned.stats.queries == 9956

    def test_the_last_pick_of_a_run_updates_nothing(self):
        # per run: the read after the first pick drops the gains (the update
        # would cost more than a pass), picks 2..9 are each brought in by the
        # next read, and no read follows pick 10
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        flags, spy = updates_applied()
        with spy:
            prune_seq_disjoint(fl, 1000, 10, ell=4)
        assert sum(flags) == 4 * 8


def reads_checked():
    """Spies on the facility-location scan that check every read against
    exact values: ``top`` against :func:`default_top`, and every bound
    ``screen`` returns against the exact gain.  Records, per read that used
    kept gains, how many rows its update raised (0 for none)."""
    raised = []
    top, screen, kept = (objectives._FacilityScan.top, objectives._FacilityScan.screen,
                         objectives._FacilityScan._kept)

    def check_top(self, cands, base, width):
        got = top(self, cands, base, width)
        want = default_top(self, cands, base, width)
        assert got[0].tolist() == want[0].tolist()
        assert typed(got[1].tolist()) == typed(want[1].tolist())
        return got

    def check_screen(self, cands, base):
        bounds = screen(self, cands, base)
        if bounds is not None:
            exact = self.values(cands, counted=False)
            assert (bounds >= objectives._gains(exact, base)).all()
        return bounds

    def count_rows(self, cands, base, update):
        rows = np.count_nonzero(self._state > self._at) if self._behind else 0
        out = kept(self, cands, base, update)
        if out is not None:
            raised.append(rows)
        return out

    return raised, mock.patch.multiple(objectives._FacilityScan, top=check_top,
                                       screen=check_screen, _kept=count_rows)


class TestKeptGainsAtBenchmarkScale:
    """At 300x1000 and the default ``_KERNEL_CELLS`` an update raises up to
    300 rows, summed in float32 in blocks of 65, over similarities whose
    row maxima sum to about 300: the float32 term of the margin is as large
    as on the benchmark's instance."""

    @pytest.mark.parametrize("cls", ["facility_location", "restricted_fl"])
    def test_every_read_bounds_the_exact_gains(self, cls):
        rng = np.random.default_rng(5)
        sim = rng.uniform(size=(300, 1000))
        obj = (FacilityLocation(sim) if cls == "facility_location"
               else RestrictedFacilityLocation(sim, rng.uniform(size=300), tau=0.3))
        raised, spy = reads_checked()
        with spy:
            prune_seq_disjoint(obj, 1000, 10, ell=2)  # greedy: top at width 1
            window_greedy(counting_wrap(obj), range(1000), 8, 20, lambda w: w // 3)
            prune_fast_budget_range(obj, 1000, 10, epsilon=0.2)  # threshold: screen
        assert len(raised) > 40 and max(raised) > 65  # updates that span several blocks


# --------------------------------------------------------------------------
# query accounting: one query per set value a scan computes

class TestPinnedQueryCounts:
    N, K = 30, 3

    def cut(self):
        return Cut(self.N, gen_gnm(self.N, 60, seed=1))

    def test_seq_disjoint(self):
        # per run: f(empty) + 30 + 29 + 28, then f(empty) + 27 + 26 + 25
        pruned = prune_seq_disjoint(self.cut(), self.N, self.K, ell=2)
        assert pruned.stats == OracleStats(queries=88 + 79, cache_hits=0)

    def test_seq_disjoint_k1_edge_case(self):
        # k = 1: each run's f(empty) is not covered by the k >= 2 margin
        pruned = prune_seq_disjoint(self.cut(), self.N, 1, ell=2)
        assert pruned.stats.queries == (1 + 30) + (1 + 29) == 2 * self.N + 1

    def test_std_greedy(self):
        pruned = prune_std_greedy(self.cut(), self.N, 4)
        assert pruned.stats == OracleStats(queries=1 + 30 + 29 + 28 + 27, cache_hits=0)

    def test_window(self):
        pruned = prune_window(self.cut(), self.N, self.K, omega=2, seed=0)
        assert pruned.stats == OracleStats(queries=1 + 30 + 29 + 28, cache_hits=0)

    def test_fast_budget_range(self):
        # one run at eta = 0.05: 30 singleton values, f(empty), and 57
        # rescans after its acceptances
        obj = gen_coverage(self.N, 40, seed=2)
        pruned = prune_fast_budget_range(obj, self.N, self.K, epsilon=0.2)
        assert pruned.stats == OracleStats(queries=88, cache_hits=0)
        assert pruned.stats.queries <= 50 * (self.N / 0.2) * math.log(self.N / 0.2)
        # facility location 300x1000 at k = 10, whose sweeps read kept gains:
        # 1000 singleton values, f(empty) and 8,955 rescans, as before screening
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        assert prune_fast_budget_range(fl, 1000, 10, epsilon=0.2).stats.queries == 9956

    def test_screened_facility_location_counts_every_candidate(self):
        # a screened pick values a few candidates exactly but ranks them all
        fl = FacilityLocation(np.random.default_rng(5).uniform(size=(300, 1000)))
        runs = prune_seq_disjoint(fl, 1000, 10, ell=4).stats.queries
        assert runs == sum(1 + sum(1000 - 10 * r - i for i in range(10)) for r in range(4))
        assert runs == 39224  # as before screening
        assert prune_std_greedy(fl, 1000, 10).stats.queries == 1 + sum(range(991, 1001))
        assert prune_window(fl, 1000, 3, omega=2).stats.queries == 1 + 1000 + 999 + 998

    def test_threshold_stream_counts_no_memo_hits(self):
        obj = gen_coverage(self.N, 40, seed=2)
        pruned = prune_threshold_stream(obj, range(self.N), self.K, 6, epsilon=0.2)
        assert pruned.stats.cache_hits == 0 and pruned.stats.queries >= self.N



# --------------------------------------------------------------------------
# the extension point: a subclass that implements ``_value`` alone

class SqrtIdSum(Objective):
    """``f(S) = sqrt(sum of (e + 1) over S)``: a concave function of a
    modular one, so monotone submodular, given only its ``_value``."""

    variant = "sqrt_id_sum"

    def __init__(self, n):
        self.n = n

    def _value(self, s):
        return math.sqrt(sum(e + 1 for e in s))


class TestValueOnlySubclass:
    N, K = 8, 3

    def subsets(self, universe, k):
        """``(value, set)`` of every subset of ``universe`` with at most ``k``
        elements, from ``_value``, size by size in lexicographic order."""
        obj = SqrtIdSum(self.N)
        return [(obj._value(frozenset(c)), c) for size in range(k + 1)
                for c in itertools.combinations(universe, size)]

    def test_engines_match_the_scalar_references(self):
        obj, n, k = SqrtIdSum(self.N), self.N, self.K
        new, ref = both(obj)
        run = greedy(new, range(n), k)
        picks, gains = ref_greedy(ref, range(n), k)
        assert run.picks == picks and typed(run.gains) == typed(gains)
        new, ref = both(obj)
        run = threshold_greedy(new, range(n), k, 0.2)
        picks, gains = ref_threshold_greedy(ref, range(n), k, 0.2)
        assert run.picks == picks and typed(run.gains) == typed(gains)
        costs = np.linspace(0.5, 1.5, n)
        new, ref = both(obj)
        drun = density_greedy(new, range(n), costs, 2.0, 3.0)
        picks, gains, spent, dens, dummy = ref_density_greedy(ref, range(n), costs, 2.0, 3.0)
        assert drun.picks == picks and typed(drun.gains) == typed(gains)
        assert typed(drun.densities) == typed(dens) and drun.dummy_cost == dummy

        pruned = prune_seq_disjoint(obj, n, k, ell=2)
        first = ref_greedy(CountingOracle(obj), range(n), k)[0]
        second = ref_greedy(CountingOracle(obj), sorted(set(range(n)) - set(first)), k)[0]
        assert pruned.structure["runs"] == [first, second]

    def test_exact_references_match_value(self):
        obj, n, k = SqrtIdSum(self.N), self.N, self.K
        table = value_table(obj)
        assert table.tolist() == [obj._value(frozenset(i for i in range(n) if mask >> i & 1))
                                  for mask in range(1 << n)]

        P = [1, 2, 5, 7]
        prof = exact.opt_cardinality(obj, range(n), k, inside=P)
        for j in range(k + 1):
            for got, universe in ((prof, range(n)), (prof.inside, P)):
                cands = self.subsets(universe, j)
                top = max(v for v, _ in cands)
                assert got.opt_by_budget[j] == top
                assert got.argmax_by_budget[j] == min(c for v, c in cands if v == top)

        pruned = prune_seq_disjoint(obj, n, k, ell=2)
        report = containment_report(obj, pruned, k)
        for j, budget in enumerate(report.budgets):
            opt = max(v for v, _ in self.subsets(range(n), budget))
            best = max(v for v, _ in self.subsets(sorted(pruned.elements), budget))
            assert report.denominators[j] == opt and report.best_inside[j] == best
            assert report.alphas[j] == best / opt

        costs = np.linspace(0.5, 1.5, n)
        budgets = [1.0, 2.5, 6.0]
        kprof = exact.opt_knapsack(obj, range(n), costs, budgets)
        for b, opt, argmax in zip(budgets, kprof.opt_by_budget, kprof.argmax_by_budget):
            first = None
            for v, c in self.subsets(range(n), n):  # size ascending, then lexicographic
                if add_left_to_right(costs[list(c)].tolist()) <= b and (first is None
                                                                      or v > first[0]):
                    first = (v, c)
            assert (opt, tuple(argmax)) == first

    def test_a_subclass_needs_value_or_mask_values(self):
        class Nothing(Objective):
            variant = "nothing"

            def __init__(self):
                self.n = 3

        for call in (lambda obj: obj.eval([0]), lambda obj: obj.eval_ids(np.array([[0, 3]]))):
            with pytest.raises(NotImplementedError, match="neither _value nor _mask_values"):
                call(Nothing())
