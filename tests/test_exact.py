import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from conftest import build_variants, scan_families
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import exact, objectives
from prunekit.instances import gen_coverage, gen_gnm, gen_interference
from prunekit.objectives import (REAL_TOL, Coverage, Cut, FacilityLocation,
                                 InterferenceCoverage, Modular, PenaltyCurve, Proxy,
                                 RestrictedFacilityLocation, TableObjective,
                                 counting_wrap, value_table)
from prunekit.prune import prune_seq_disjoint, prune_std_greedy
from prunekit.selection import greedy


class TestOptCardinality:
    def test_modular_profile(self):
        prof = exact.opt_cardinality(Modular([5, 3, 1]), range(3), 2)
        assert prof.opt_by_budget == [0.0, 5.0, 8.0]
        assert prof.argmax_by_budget == [(), (0,), (0, 1)]

    def test_triangle_profile(self, triangle):
        prof = exact.opt_cardinality(triangle, range(3), 2)
        assert prof.opt_by_budget == [0.0, 2.0, 2.0]

    def test_full_budget_on_monotone_equals_full_value(self):
        obj = gen_coverage(8, 12, seed=1)
        prof = exact.opt_cardinality(obj, range(8), 8)
        assert prof.opt_by_budget[8] == pytest.approx(obj.eval(range(8)))

    def test_monotone_profile_nondecreasing(self):
        obj = gen_coverage(10, 14, seed=2)
        prof = exact.opt_cardinality(obj, range(10), 6)
        assert all(a <= b + 1e-12 for a, b in
                   zip(prof.opt_by_budget, prof.opt_by_budget[1:]))

    def test_opt_zero_is_empty_value(self, triangle):
        assert exact.opt_cardinality(triangle, range(3), 2).opt_by_budget[0] == 0.0

    def test_restricted_universe_sandwich(self):
        obj = gen_interference(10, 12, seed=3)
        full = exact.opt_cardinality(obj, range(10), 3)
        sub = exact.opt_cardinality(obj, [0, 2, 4, 6], 3)
        for kp in range(4):
            assert sub.opt_by_budget[kp] <= full.opt_by_budget[kp] + 1e-12

    def test_greedy_below_opt_and_modular_tight(self):
        obj = gen_coverage(9, 12, seed=4)
        run = greedy(counting_wrap(obj), range(9), 3)
        opt = exact.opt_cardinality(obj, range(9), 3).opt_by_budget[3]
        assert obj.eval(run.picks) <= opt + 1e-12
        mod = Modular([4, 7, 2, 9])
        run2 = greedy(counting_wrap(mod), range(4), 2)
        assert mod.eval(run2.picks) == exact.opt_cardinality(mod, range(4), 2).opt_by_budget[2]

    def test_lexicographic_canonical_argmax(self):
        # every pair ties; the canonical witness is the lexicographically least
        prof = exact.opt_cardinality(Modular([1, 1, 1]), range(3), 2)
        assert prof.argmax_by_budget[2] == (0, 1)

    def test_counts(self):
        prof = exact.opt_cardinality(Modular([1, 1, 1, 1]), range(4), 2)
        assert prof.enumerated_count == 1 + 4 + 6


class TestGuard:
    def test_exceeded_raises(self, monkeypatch):
        monkeypatch.setenv(exact.GUARD_ENV, "1000")
        with pytest.raises(exact.GuardExceeded):
            exact.opt_cardinality(Modular(np.ones(40)), range(40), 10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(exact.GUARD_ENV, "5")
        assert exact.enumeration_guard() == 5
        with pytest.raises(exact.GuardExceeded):
            exact.opt_cardinality(Modular([1, 1, 1]), range(3), 2)
        monkeypatch.setenv(exact.GUARD_ENV, "junk")
        with pytest.raises(ValueError):
            exact.enumeration_guard()

    def test_subset_count(self):
        assert exact.cardinality_subset_count(24, 4) == 1 + 24 + 276 + 2024 + 10626

    def test_value_table_and_proxy_shift_obey_the_guard(self, monkeypatch):
        # both enumerate the 2^12 subsets of the facility location
        fl = FacilityLocation(np.random.default_rng(0).random((3, 12)))
        flat = PenaltyCurve(np.zeros(13))
        monkeypatch.setenv(exact.GUARD_ENV, "1000")
        with pytest.raises(exact.GuardExceeded):
            value_table(fl)
        with pytest.raises(exact.GuardExceeded):
            Proxy(fl, flat, shift=True)
        assert Proxy(fl, flat).shift == 0.0  # no shift: nothing is enumerated
        monkeypatch.setenv(exact.GUARD_ENV, "4096")
        assert value_table(fl).size == 4096


class TestOptKnapsack:
    def test_unit_costs_match_cardinality(self):
        obj = gen_coverage(8, 12, seed=6)
        card = exact.opt_cardinality(obj, range(8), 3)
        knap = exact.opt_knapsack(obj, range(8), [1.0] * 8, budgets=[1, 2, 3])
        for b in (1, 2, 3):
            assert knap.opt(float(b)) == pytest.approx(card.opt_by_budget[b])

    def test_expensive_item_excluded(self):
        obj = Modular([100, 1])
        prof = exact.opt_knapsack(obj, range(2), [5.0, 1.0], budgets=[2.0])
        assert prof.opt_by_budget[0] == 1.0
        assert prof.argmax_by_budget[0] == (1,)

    def test_against_dp_oracle(self):
        # independent check: classic 0/1 knapsack DP on integer costs
        rng = np.random.default_rng(42)
        values = rng.integers(1, 30, size=12).astype(float)
        costs = rng.integers(1, 9, size=12)
        B = 20
        dp = np.zeros(B + 1)
        for v, c in zip(values, costs):
            for b in range(B, c - 1, -1):
                dp[b] = max(dp[b], dp[b - c] + v)
        obj = Modular(values)
        for b in (5, 11, 20):
            prof = exact.opt_knapsack(obj, range(12), costs.astype(float), budgets=[float(b)])
            assert prof.opt_by_budget[0] == pytest.approx(dp[b])

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            exact.opt_knapsack(Modular([1]), range(1), [1.0], budgets=[])
        with pytest.raises(ValueError):
            exact.opt_knapsack(Modular([1]), range(1), [1.0], budgets=[0.0])

    @pytest.mark.parametrize("budgets", [[2.0, np.nan], [np.nan, 2.0], [np.nan]])
    def test_nan_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="budget"):
            exact.opt_knapsack(Modular([1, 2]), range(2), [1.0, 1.0], budgets=budgets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="cost"):
            exact.opt_knapsack(Modular([1, 2, 3]), range(3), [1.0, bad, 1.0], budgets=[2.0])

    def test_guard_counts_power_set(self, monkeypatch):
        monkeypatch.setenv(exact.GUARD_ENV, "100")
        with pytest.raises(exact.GuardExceeded):
            exact.opt_knapsack(Modular(np.ones(12)), range(12), np.ones(12), budgets=[3.0])


# --------------------------------------------------------------------------
# engine against a brute-force reference

def dyadic_families(n=7, seed=0):
    """One instance of every family whose values are sums of small dyadic
    numbers, so every summation order gives the same float and ties are
    real ties: the reference below can then be compared exactly."""
    rng = np.random.default_rng(seed)

    def q(size):  # multiples of 1/4 in [0, 2]
        return rng.integers(0, 9, size=size) / 4.0

    covers = [rng.choice(2 * n, size=rng.integers(1, 4), replace=False).tolist()
              for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    sim = q((n + 2, n))
    sim[:, 0] = 0.0  # a dud element: {0} falls below a linear penalty
    full = float(sim.max(axis=1).sum())
    theta = np.floor(16 * full / n) / 16 * np.arange(n + 1)
    intf = {(i, j): float(rng.integers(1, 5)) / 2
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    rel = q(n + 2)
    table = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            table[frozenset(combo)] = float(rng.integers(0, 8)) / 2
    return {
        "cut": Cut(n, edges),
        "weighted_cut": Cut(n, edges, weights=q(len(edges)) + 0.25),
        "coverage": Coverage(covers, m=2 * n),
        "weighted_coverage": Coverage(covers, m=2 * n, weights=q(2 * n)),
        "facility_location": FacilityLocation(sim),
        "restricted_fl": RestrictedFacilityLocation(sim, rel, tau=0.75),
        "restricted_fl_ungated": RestrictedFacilityLocation(sim, rel, tau=10.0),
        "proxy": Proxy(FacilityLocation(sim), PenaltyCurve(theta)),
        "proxy_shift": Proxy(FacilityLocation(sim), PenaltyCurve(theta), shift=True),
        "proxy_clamp": Proxy(FacilityLocation(sim), PenaltyCurve(theta), clamp=True),
        "interference": InterferenceCoverage(covers, intf, lam=0.5, m=2 * n),
        "modular": Modular(q(n) - 0.5),
        "table": TableObjective(n, table),
    }


def reference_cardinality(obj, universe, k):
    """opt, canonical argmax, sorted top ties and subset count by brute force."""
    universe = sorted(set(universe))
    k = min(k, len(universe))
    per_size = []
    for size in range(k + 1):
        sets = list(itertools.combinations(universe, size))
        vals = [float(obj.eval(c)) for c in sets]
        top = max(vals)
        per_size.append((top, [c for c, v in zip(sets, vals) if v == top]))
    opt, argmax = [], []
    for j in range(k + 1):
        best = max(v for v, _ in per_size[:j + 1])
        opt.append(best)
        argmax.append(min(c for v, cs in per_size[:j + 1] if v == best for c in cs))
    ties = sorted(c for v, cs in per_size if v == opt[-1] for c in cs)
    count = sum(math.comb(len(universe), size) for size in range(k + 1))
    return opt, argmax, ties, count


def reference_knapsack(obj, universe, costs, budgets):
    """opt and first optimum in size-ascending lex order per budget."""
    universe = sorted(set(universe))
    order = [c for size in range(len(universe) + 1)
             for c in itertools.combinations(universe, size)]
    vals = [float(obj.eval(c)) for c in order]
    spent = [sum(costs[e] for e in c) for c in order]
    opt, argmax = [], []
    for b in budgets:
        best = None
        for i, c in enumerate(order):
            if spent[i] <= b and (best is None or vals[i] > vals[best]):
                best = i
        opt.append(vals[best])
        argmax.append(order[best])
    return opt, argmax


FAMILIES = sorted(dyadic_families())


class TestEngineAgainstReference:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("universe,k", [
        (range(7), 3), (range(7), 7), (range(7), 0), ([1, 3, 4, 6], 2),
        ([6, 0, 5, 2, 2], 9), ([4], 1), ([], 2)])
    def test_cardinality(self, name, universe, k):
        obj = dyadic_families(seed=3)[name]
        opt, argmax, _, count = reference_cardinality(obj, universe, k)
        for chunk in (exact._CHUNK, 5, 1):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_cardinality(obj, universe, k)
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == argmax
            assert prof.enumerated_count == count
            assert prof.budgets == list(range(len(opt)))

    def test_families_exercise_shift_clamp_and_gate(self):
        fams = dyadic_families(seed=3)
        assert fams["proxy_shift"].shift > 0
        assert fams["proxy_clamp"].eval([0]) == 0.0
        assert not value_table(fams["restricted_fl_ungated"]).any()
        assert value_table(fams["restricted_fl"]).any()

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("universe", [range(7), [0, 2, 3, 6], []])
    def test_knapsack(self, name, universe):
        obj = dyadic_families(seed=5)[name]
        costs = np.random.default_rng(1).integers(1, 5, size=obj.n) / 4.0
        budgets = [0.25, 0.5, 1.0, 1.75, 100.0]
        opt, argmax = reference_knapsack(obj, universe, costs, budgets)
        for chunk in (exact._CHUNK, 4):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_knapsack(obj, universe, costs, budgets)
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == argmax
            assert prof.enumerated_count == 1 << len(list(universe))

    def test_knapsack_tie_goes_to_smaller_set_first(self):
        # {2} and {0, 1} both reach 2 at cost 2: size-ascending order finds
        # {2} first although (0, 1) is the lexicographically smaller tuple
        obj = Modular([1, 1, 2])
        prof = exact.opt_knapsack(obj, range(3), [1.0, 1.0, 2.0], budgets=[2.0, 1.0])
        assert prof.argmax_by_budget == [(2,), (0,)]
        assert prof.opt_by_budget == [2.0, 1.0]

    def test_knapsack_equal_sets_tie_lexicographically(self):
        prof = exact.opt_knapsack(Modular([1, 1, 1, 1]), [3, 1, 2, 0], [1.0] * 4,
                                  budgets=[2.0, 3.5])
        assert prof.argmax_by_budget == [(0, 1), (0, 1, 2)]

    def test_real_valued_families_within_tolerance(self):
        for name, obj in build_variants(n=8, seed=7).items():
            opt, _, _, _ = reference_cardinality(obj, range(8), 4)
            prof = exact.opt_cardinality(obj, range(8), 4)
            assert prof.opt_by_budget == pytest.approx(opt, abs=REAL_TOL), name
            for j, witness in enumerate(prof.argmax_by_budget):
                assert len(witness) <= j
                assert obj.eval(witness) == pytest.approx(opt[j], abs=REAL_TOL), name

    def test_out_of_range_universe_rejected(self):
        with pytest.raises(IndexError):
            exact.opt_cardinality(Modular([1, 2]), [0, 2], 1)
        with pytest.raises(IndexError):
            exact.opt_knapsack(Modular([1, 2]), [-1, 0], [1.0, 1.0], budgets=[1.0])


def profile_fields(prof):
    return prof.opt_by_budget, prof.argmax_by_budget, prof.enumerated_count


class TestInsideProfiles:
    """``opt_cardinality(obj, U, k, inside=P)`` reads the profile over P off
    the sweep over U: both equal separate calls and the
    ``itertools.combinations`` reference bit for bit, for every family, at
    any chunk size, on sparse universes, at k = 0 and k >= |U|."""

    @given(data=st.data(), n=st.integers(2, 8), seed=st.integers(0, 2**16),
           chunk=st.sampled_from([1, 5, 100, exact._CHUNK]))
    @settings(max_examples=60, deadline=None)
    def test_inside_equals_separate_calls_and_reference(self, data, n, seed, chunk):
        fams = scan_families(n, seed)
        name = data.draw(st.sampled_from(sorted(fams)), label="family")
        obj = fams[name]
        universe = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="universe")
        k = data.draw(st.integers(0, len(universe) + 2), label="k")
        inside = data.draw(st.sampled_from(["empty", "all", "some"]), label="inside")
        P = {"empty": [], "all": universe}.get(inside) or data.draw(
            st.lists(st.sampled_from(universe), unique=True) if universe else st.just([]),
            label="P")
        with mock.patch.object(exact, "_CHUNK", chunk):
            prof = exact.opt_cardinality(obj, universe, k, inside=P)
            alone = exact.opt_cardinality(obj, P, k)
            full = exact.opt_cardinality(obj, universe, k)
        for got, ground, want in ((prof, universe, full), (prof.inside, P, alone)):
            opt, argmax, _, count = reference_cardinality(obj, ground, k)
            assert profile_fields(got) == profile_fields(want), name
            assert got.opt_by_budget == opt and got.argmax_by_budget == argmax, name
            assert got.enumerated_count == count, name
        assert alone.inside is None and full.inside is None

    def test_inside_must_lie_in_the_universe(self):
        with pytest.raises(ValueError, match="inside"):
            exact.opt_cardinality(Modular([1, 2, 3]), [0, 1], 2, inside=[2])

    def test_guard_counts_p_first(self, monkeypatch):
        # P alone exceeds the guard: the refusal names P's count, as a
        # separate call over P would
        monkeypatch.setenv(exact.GUARD_ENV, "20")
        with pytest.raises(exact.GuardExceeded) as err:
            exact.opt_cardinality(Modular(np.ones(8)), range(8), 2, inside=range(6))
        assert err.value.needed == exact.cardinality_subset_count(6, 2)


def multigraph_cut(n, seed):
    """Unweighted Cut on G(n, 3n) with n of its edges repeated reversed and
    n // 2 repeated as given: multiplicities up to 3, in both orientations."""
    base = gen_gnm(n, 3 * n, seed=seed)
    return Cut(n, base + [e[::-1] for e in base[:n]] + base[:n // 2])


class TestCutSweep:
    """Unweighted Cut's step in the exact sweep, ``cut(T + j) = cut(T) +
    deg(j) - 2 * (edges from j into T)``, against brute force over
    ``eval``: multi-edges count with their multiplicity, and edges to ids
    outside the universe in ``deg`` only."""

    @staticmethod
    def profile(obj, universe, k, inside, chunk, group):
        """The profile, and the most new positions one batch of the sweep
        added at once (0 when the cached small batch valued it)."""
        tails, fill = [0], objectives._CutRows.fill

        def spy(self, out, held, group):
            tails.append(len(group[0][-1]))
            return fill(self, out, held, group)

        with mock.patch.object(exact, "_CHUNK", chunk), \
                mock.patch.object(exact, "_GROUP_ROWS", group), \
                mock.patch.object(objectives._CutRows, "fill", spy):
            prof = exact.opt_cardinality(obj, universe, k, inside=inside)
        return prof, max(tails)

    @pytest.mark.parametrize("chunk,group,tails", [
        (exact._CHUNK, exact._GROUP_ROWS, 0),  # one cached batch
        (exact._CHUNK, 64, 1),  # whole tables, each size from the last
        (60, 16, 3),  # tables beyond 60 rows from the size-2 table
        (12, 5, 4),  # from the size-1 table, in batches of at most 5 rows
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_multigraph_with_inside(self, chunk, group, tails, seed):
        n = 14
        obj = multigraph_cut(n, seed)
        assert len(obj.edges) > len(obj._edge_pairs[0])  # repeated edges
        rng = np.random.default_rng(seed)
        universe = sorted(rng.choice(n, size=11, replace=False).tolist())
        assert any((u in universe) != (v in universe) for u, v in obj.edges)
        inside = universe[seed::2]
        prof, most = self.profile(obj, universe, 5, inside, chunk, group)
        assert most == tails
        for got, ground in ((prof, universe), (prof.inside, inside)):
            opt, argmax, _, count = reference_cardinality(obj, ground, 5)
            assert got.opt_by_budget == opt
            assert got.argmax_by_budget == argmax
            assert got.enumerated_count == count

    @pytest.mark.parametrize("group", [exact._GROUP_ROWS, 256])
    def test_universe_wider_than_a_mask_word(self, group):
        # 70 of 80 ids at k = 2: one cached batch, or the sweep in batches
        obj = multigraph_cut(80, 4)
        universe = list(range(5, 75))
        prof, most = self.profile(obj, universe, 2, universe[::3], exact._CHUNK, group)
        assert most == (group < exact._GROUP_ROWS)
        for got, ground in ((prof, universe), (prof.inside, universe[::3])):
            opt, argmax, _, _ = reference_cardinality(obj, ground, 2)
            assert got.opt_by_budget == opt
            assert got.argmax_by_budget == argmax

    def test_star_past_the_int8_range(self):
        # the centre's degree, 128, is one past int8's largest value: the
        # degrees alone, one cached batch of pairs, the sweep, the power set
        star = Cut(129, [(0, leaf) for leaf in range(1, 129)])
        for universe, k in ((range(129), 1), (range(61), 2), (range(129), 2)):
            prof = exact.opt_cardinality(star, universe, k)
            opt, argmax, _, count = reference_cardinality(star, universe, k)
            assert prof.opt_by_budget == opt and opt[1] == 128.0
            assert prof.argmax_by_budget == argmax
            assert prof.enumerated_count == count
        universe = list(range(13))
        want = [float(star.eval([universe[i] for i in range(13) if mask >> i & 1]))
                for mask in range(1 << 13)]
        got = np.concatenate(list(objectives.power_set_values(star, universe, 10)))
        assert got.tolist() == want

    def test_cut_values_past_the_int8_range(self):
        # K_{8,16}: degrees 16 and 8, but 128 edges, all cut by the left
        # side; the sweep's states must hold 128.  A set of x left and y
        # right ids cuts 16x + 8y - 2xy edges, so each size's best is known.
        left, right = range(8), range(8, 24)
        obj = Cut(24, [(a, b) for a in left for b in right])
        prof = exact.opt_cardinality(obj, range(24), 8)
        best = [max(16 * x + 8 * (s - x) - 2 * x * (s - x)
                    for x in range(max(0, s - 16), min(s, 8) + 1)) for s in range(9)]
        assert prof.opt_by_budget == [float(max(best[:b + 1])) for b in range(9)]
        assert prof.opt_by_budget[8] == 128.0 and prof.argmax_by_budget[8] == tuple(left)
        assert [obj.eval(a) for a in prof.argmax_by_budget] == prof.opt_by_budget
        assert prof.enumerated_count == exact.cardinality_subset_count(24, 8)

    def test_swept_single_ids_build_no_table(self):
        # k = 1 over more ids than one cached batch reads the degrees alone
        # (TestCutPairTable checks the cached batch)
        n = 6000
        edges = gen_gnm(n, 18000, seed=5)
        obj = Cut(n, edges)
        degrees = np.bincount(np.ravel(edges), minlength=n)
        assert exact.cardinality_subset_count(n, 1) > exact._GROUP_ROWS
        profile = exact.opt_cardinality(obj, range(n), 1)
        assert profile.opt_by_budget == [0.0, float(degrees.max())]
        assert profile.argmax_by_budget[1] == (int(degrees.argmax()),)
        assert "_last_among" not in vars(obj)

    def test_values_equal_eval_row_by_row(self):
        # every row of a sweep that adds several positions per batch
        obj = multigraph_cut(12, 7)
        to_id = [*reversed(range(1, 11)), 12]
        with mock.patch.object(exact, "_CHUNK", 30), mock.patch.object(exact, "_GROUP_ROWS", 7):
            for size, rank, tables in exact._sweep(10, 6, {"states": obj._sweep_states(to_id)}):
                rows = tables["states"]
                want = [float(obj.eval(exact._colex_set(size, rank + r, to_id=to_id)))
                        for r in range(len(rows))]
                assert obj._sweep_values(None, rows, size).tolist() == want
                assert sorted(to_id[p] for p in rows[0, :size]) == sorted(
                    exact._colex_set(size, rank, to_id=to_id))


class TestHoldsAnOptimum:
    """Some optimal set of at most ``k`` elements lies inside ``P`` exactly
    when ``P``'s exact best value at ``k`` equals ``OPT_k``, the rule by
    which ``separation_study`` counts its ``*_contain_any`` rates."""

    def test_best_in_p_is_opt_when_a_reference_tie_lies_in_p(self):
        seen = set()
        for n, k, seed in itertools.product((14, 17, 20), (3, 4), range(3)):
            obj = gen_interference(n, 30, seed=seed)
            opt, argmax, ties, _ = reference_cardinality(obj, range(n), k)
            for pruned in (prune_std_greedy(obj, n, 2 * k), prune_seq_disjoint(obj, n, k, ell=2)):
                P = pruned.element_set()
                holds = exact.opt_cardinality(obj, P, k).opt_by_budget[k] == opt[k]
                assert holds == any(set(t) <= P for t in ties), (n, k, seed)
                seen.add((holds, set(argmax[k]) <= P))
        # held and missed, and once held by a tie other than the canonical witness
        assert seen == {(True, True), (False, False), (True, False)}


def colex_order(universe, k):
    """Every subset of at most k ids, sizes ascending, each size in reverse
    lexicographic order: colex order over the reflected universe."""
    return [c for size in range(k + 1)
            for c in reversed(list(itertools.combinations(universe, size)))]


def id_batches(universe, n, k):
    """The id batches of ``exact._sweep`` over every subset of at most ``k``
    ids of ``universe``, as ``(ids, runs)``: each batch holds the rows of
    one size, copied before the sweep reuses its buffers."""
    universe = list(universe)
    to_id = [*reversed(universe), n]
    for s, _, tables in exact._sweep(len(universe), min(k, len(universe)),
                                     {"ids": exact._IdRows(to_id)}):
        yield tables["ids"].copy(), ((s, 0, len(tables["ids"])),)


class TestSubsetBatches:
    @pytest.mark.parametrize("m,s", [(0, 0), (5, 0), (5, 1), (6, 3), (9, 9), (12, 5)])
    def test_lex_table_is_combinations_order(self, m, s):
        """Read backwards, in lexicographic order, a size table is the
        order of ``itertools.combinations``."""
        rows = [tuple(r[:size]) for ids, runs in id_batches(range(m), m, s)
                for size, lo, hi in runs if size == s for r in ids[lo:hi].tolist()]
        assert rows[::-1] == list(itertools.combinations(range(m), s))

    @pytest.mark.parametrize("chunk,universe,n,k", [
        pytest.param(chunk, [1, 2, 4, 7, 8, 9, 11], 12, 4, id=str(chunk))
        for chunk in [1, 4, 10, 35, exact._CHUNK]
    ] + [pytest.param(100, range(12), 12, 6, id="100-full12-k6")])  # recursive leaves
    def test_batches_cover_subsets_in_order(self, chunk, universe, n, k):
        rows, sizes = [], []
        with mock.patch.object(exact, "_CHUNK", chunk):
            batches = list(id_batches(universe, n, k))
        for ids, runs in batches:
            assert len(ids) <= chunk
            assert [lo for _, lo, _ in runs][0] == 0 and runs[-1][2] == len(ids)
            for size, lo, hi in runs:
                block = ids[lo:hi]
                assert np.all(block[:, size:] == n) and np.all(block[:, :size] < n)
                assert np.all(np.diff(block[:, :size], axis=1) > 0)  # ascending ids
                rows += [tuple(r[:size]) for r in block.tolist()]
                sizes.append(size)
        assert rows == colex_order(universe, k)
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("chunk,group", [(100, exact._GROUP_ROWS), (100, 30), (7, 5)])
    def test_adjacent_batches_do_not_fit_one(self, chunk, group):
        """The leaves of a split size table share batches: a batch ends only
        where the next leaf would not fit it."""
        with mock.patch.object(exact, "_CHUNK", chunk), \
                mock.patch.object(exact, "_GROUP_ROWS", group):
            batches = list(id_batches(range(12), 12, 6))
        rows = [tuple(r[:size]) for ids, runs in batches
                for size, lo, hi in runs for r in ids[lo:hi].tolist()]
        assert rows == colex_order(range(12), 6)
        sized = [(runs[0][0], len(ids)) for ids, runs in batches]
        assert all(a + b > min(chunk, group)
                   for (s, a), (t, b) in zip(sized, sized[1:]) if s == t)


# --------------------------------------------------------------------------
# batched kernels against the scalar path

class TestKernels:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_kernel_agrees_with_eval_row_by_row(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        for name, obj in build_variants(n=n, seed=seed % 1000).items():
            width = int(rng.integers(1, n + 2))
            ids = np.full((rows, width), n, dtype=np.intp)
            for r in range(rows):
                picked = rng.permutation(n)[:rng.integers(0, min(n, width) + 1)]
                slots = rng.permutation(width)[:len(picked)]
                ids[r, slots] = picked  # ids in any order, empty slots anywhere
            vals = obj.eval_ids(ids)
            for row, val in zip(ids, vals):
                assert val == obj.eval(row[row < n]), name

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_eval_in_any_batch(self, seed, n, rows):
        # mixed sizes, ids in any order, empty slots anywhere; then the same
        # rows shuffled, split in two, one at a time and with more padding
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, n + 2))
        ids = np.full((rows, width), n, dtype=np.intp)
        for r in range(rows):
            picked = rng.permutation(n)[:rng.integers(0, min(n, width) + 1)]
            ids[r, rng.permutation(width)[:len(picked)]] = picked
        order = rng.permutation(rows)
        cut = int(rng.integers(1, rows + 1))
        wide = np.concatenate([ids, np.full((rows, int(rng.integers(1, 4))), n)], axis=1)
        wide = wide[:, rng.permutation(wide.shape[1])]
        for name, obj in scan_families(n, seed % 1000).items():
            want = [obj.eval(row[row < n]) for row in ids]
            assert obj.eval_ids(ids).tolist() == want, name
            assert obj.eval_ids(ids[order]).tolist() == [want[r] for r in order], name
            split = [*obj.eval_ids(ids[:cut]).tolist(), *obj.eval_ids(ids[cut:]).tolist()]
            assert split == want, name
            assert [obj.eval_ids(ids[r:r + 1])[0] for r in range(rows)] == want, name
            assert obj.eval_ids(wide).tolist() == want, name

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_rows_of_width_zero_are_empty_sets(self, rows):
        for name, obj in scan_families(6, 2).items():
            vals = obj.eval_ids(np.empty((rows, 0), dtype=np.intp))
            assert vals.dtype == float, name
            assert [v.hex() for v in vals] == [float(obj.eval(())).hex()] * rows, name

    def test_rows_do_not_depend_on_other_sizes_in_the_batch(self):
        # a mixed-size batch gives each size the values it gets alone, so a
        # BLAS matmul sees the same rows as a one-size-per-batch enumeration
        objs = dict(build_variants(n=10, seed=8))
        for seed in range(3):
            objs[f"interference-{seed}"] = gen_interference(10, 30, seed=seed,
                                                            interference_prob=0.8)
            weights = np.random.default_rng(seed).uniform(0.5, 2.0, size=35)
            objs[f"weighted_cut-{seed}"] = Cut(10, gen_gnm(10, 35, seed=seed), weights)
        # sizes of 6 and 7 ids give runs whose lengths leave 2 or 3 rows over
        # a multiple of 4, where a BLAS matmul changes its row kernel
        for universe in (range(6), range(1, 8), range(10)):
            # the enumerator's one padded batch of every size
            pos, runs = exact._small_batch(len(universe), 5)
            ids = np.array([*reversed(universe), 10])[pos]
            for name, obj in objs.items():
                vals = obj.eval_ids(ids)
                for _, lo, hi in runs:
                    assert np.array_equal(vals[lo:hi], obj.eval_ids(ids[lo:hi])), name

    def test_kernel_arrays_are_built_lazily(self):
        cut = Cut(4, [(0, 1), (1, 2), (2, 3)])
        cut.eval(range(2))
        assert "_degrees" not in vars(cut) and "_adjacency" not in vars(cut)
        cut.eval_ids(np.array([[0, 4]]))
        assert "_degrees" in vars(cut) and "_adjacency" not in vars(cut)
        cut.scan().add(0)
        assert "_adjacency" in vars(cut)
        cov = Coverage([[0, 1], [1, 2]])
        cov.eval(range(2))
        assert "_rows" not in vars(cov)
        cov.eval_ids(np.array([[0, 2]]))
        assert "_rows" in vars(cov)
        # facility location keeps one array, built at once: sim is a view of it
        fl = FacilityLocation(np.ones((3, 4)))
        assert np.shares_memory(fl.sim, fl._sim_t)
        assert fl._sim_t.flags.c_contiguous  # rows are gathered, one per id
        rfl = RestrictedFacilityLocation(np.ones((3, 4)), [0.9, 0.1, 0.8], tau=0.5)
        assert np.shares_memory(rfl.sim, rfl._sim_t) and rfl._sim_t.flags.c_contiguous

    @pytest.mark.parametrize("seed", range(4))
    def test_interference_scalar_path_at_scale(self, seed):
        # hundreds of pairs inside the larger sets: the scalar sum and the
        # batched pair loop add the same weights in the same order
        obj = gen_interference(300, 100, seed=seed)
        assert not any(isinstance(v, dict) for v in vars(obj).values())
        rng = np.random.default_rng(seed)
        for size in range(41):
            S = rng.choice(300, size=size, replace=False)
            row = obj.eval_ids(np.concatenate([S, [300]])[None, :])[0]
            val = obj.eval(S)
            assert type(val) is float and type(row) is np.float64
            assert val == row


class TestCutPairTable:
    def test_table_spans_the_universe_not_n(self):
        # the table over positions that Cut's batched paths read spans the
        # ids they value and the empty slot, not n: the exact enumerator's
        # universe, and under ``eval_ids`` the ids the batch uses
        n = 5000
        obj = Cut(n, gen_gnm(n, 20000, seed=2))
        universe = sorted(np.random.default_rng(3).choice(n, size=12, replace=False).tolist())
        profile = exact.opt_cardinality(obj, universe, 4)
        opt, argmax, _, _ = reference_cardinality(obj, universe, 4)
        assert profile.opt_by_budget == opt
        assert profile.argmax_by_budget == argmax
        assert obj._last_among[1].shape == (len(universe) + 1,) * 2
        ids = np.array([*universe, n])[exact._small_batch(len(universe), 4)[0]]
        vals = obj.eval_ids(ids)
        assert vals.tolist() == [obj.eval(row[row < n]) for row in ids]
        # the universe and the empty slot
        assert obj._last_among[0] == (*universe, n)
        assert obj._last_among[1].shape == (len(universe) + 1,) * 2

    def test_single_vertex_rows_read_degrees(self):
        n = 3000
        edges = gen_gnm(n, 9000, seed=5)
        obj = Cut(n, edges)
        degrees = np.bincount(np.ravel(edges), minlength=n)
        profile = exact.opt_cardinality(obj, range(n), 1)
        assert profile.opt_by_budget == [0.0, float(degrees.max())]
        assert profile.argmax_by_budget[1] == (int(degrees.argmax()),)
        assert "_last_among" not in vars(obj)  # no table over the positions

    def test_table_larger_than_the_batch_matches_eval(self):
        obj = Cut(40, gen_gnm(40, 100, seed=1))
        ids = np.array([[0, 39], [1, 2]])
        assert np.array_equal(obj.eval_ids(ids), [obj.eval([0, 39]), obj.eval([1, 2])])


def non_dyadic_families(n, seed):
    """Families whose values are sums of random reals: a change in the order
    of their additions moves the last bits of some values."""
    rng = np.random.default_rng(seed)
    covers = gen_coverage(n, 3 * n, seed=seed).covers
    return {
        "interference": gen_interference(n, 12, seed=seed, interference_prob=0.5),
        "weighted_coverage": Coverage(covers, m=3 * n, weights=rng.random(3 * n)),
        "coverage": Coverage(covers, m=3 * n),
        "facility_location": FacilityLocation(rng.random((n + 3, n))),
    }


NON_DYADIC = ["coverage", "facility_location", "interference", "weighted_coverage"]


def fold_families(n, seed):
    """Every family on the fold layer: Coverage over one word and over four
    (unweighted and weighted), interference, and facility location over
    many points, plain, gated and with no gated row."""
    rng = np.random.default_rng(seed)
    wide = [rng.choice(200, size=rng.integers(0, 60), replace=False).tolist()
            for _ in range(n)]
    sim = rng.random((n + 3, n))
    return {
        "coverage": gen_coverage(n, 3 * n, seed=seed),
        "multi_word_coverage": Coverage(wide, m=200),
        "weighted_coverage": Coverage(wide, m=200, weights=rng.random(200)),
        "interference": gen_interference(n, 12, seed=seed, interference_prob=0.5),
        "facility_location": FacilityLocation(rng.random((40, n))),
        "restricted_fl": RestrictedFacilityLocation(sim, rng.random(n + 3), tau=0.5),
        "restricted_fl_ungated": RestrictedFacilityLocation(sim, np.zeros(n + 3), tau=1.0),
    }


FOLD_FAMILIES = sorted(fold_families(4, 0))


class TestFoldPowerSets:
    """The fold families' doubling tables against ``_value`` per mask, their
    table sizes, and no ``_value`` per membership row on the way."""

    @pytest.mark.parametrize("name", FOLD_FAMILIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_doubling_equals_the_lex_route(self, name, seed):
        n = 10
        obj = fold_families(n, seed)[name]
        universe = sorted(np.random.default_rng(300 + seed).choice(n, size=7, replace=False)
                          .tolist())
        for chunk in (exact._CHUNK, 32, 8):  # one block; blocks of 5 and of 3 low bits
            with mock.patch.object(exact, "_CHUNK", chunk):
                low = exact.block_bits(len(universe))
                doubled = list(obj._power_set(universe, low))
                fallback = [np.array([obj._value(frozenset(universe[i] for i in _bits_of(mask)))
                                      for mask in range(b << low, (b + 1) << low)], dtype=float)
                            for b in range(1 << (len(universe) - low))]
            assert len(doubled) == len(fallback) == 1 << (len(universe) - low)
            for a, b in zip(doubled, fallback):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, chunk)

    @pytest.mark.parametrize("chunk", [exact._CHUNK, 1 << 10])
    def test_tables_hold_at_most_a_block_of_cells(self, chunk):
        n = 12
        obj = FacilityLocation(np.random.default_rng(1).random((300, n)))
        sizes, doubling = [], objectives._doubling

        def spy(empty, items, op):
            table = doubling(empty, items, op)
            sizes.append(table.size)
            return table

        with mock.patch.object(exact, "_CHUNK", chunk), \
                mock.patch.object(objectives, "_doubling", spy):
            table = value_table(obj)
            low = exact.block_bits(n)
        assert sizes and max(sizes) <= 1 << low
        for mask in np.random.default_rng(2).integers(0, 1 << n, size=50).tolist():
            assert table[mask] == obj.eval([i for i in range(n) if mask >> i & 1])

    @pytest.mark.parametrize("name", [*FOLD_FAMILIES, "cut", "tie_cut", "proxy", "proxy_shift",
                                      "proxy_clamp"])
    def test_no_lex_batches(self, name):
        # every fold family, unweighted Cut and Proxy value their power
        # sets through their own layer, never ``_value`` per membership row
        n = 10
        obj = {**fold_families(n, 1), **scan_families(n, 1)}[name]
        with mock.patch.object(objectives.Objective, "_mask_values",
                               side_effect=AssertionError("fallback route")) as spy:
            value_table(obj)
            exact.opt_knapsack(obj, range(n), np.ones(n), [3.0])
        spy.assert_not_called()


def power_set_families(n, seed):
    """Every power-set route: the fold families, unweighted Cut on a
    multigraph (repeated edges, both orientations), weighted Cut,
    ``Modular``, a value table and Proxy plain, shifted and clamped."""
    fams = {**fold_families(n, seed), **{
        name: obj for name, obj in scan_families(n, seed).items()
        if name in ("weighted_cut", "modular", "table", "proxy", "proxy_shift", "proxy_clamp")}}
    base = gen_gnm(n, 3 * n, seed=seed)
    fams["multigraph_cut"] = Cut(n, base + [e[::-1] for e in base[:n]] + base[:n // 2])
    return fams


#: (universe, _CHUNK) per case: one block, blocks of 5 low bits, a sparse
#: universe in blocks of 3 low bits, and the empty universe
POWER_SET_CASES = [(list(range(12)), exact._CHUNK), (list(range(12)), 32),
                   ([0, 2, 3, 5, 8, 9, 11], 8), ([], exact._CHUNK)]

#: per family and case, sha256 of the dtype and bytes of every block, pinned
#: from the route that valued the enumerator's id batches with ``eval_ids``
#: (Cut, Proxy, ``Modular``, the table) and from the fold and pair passes
POWER_SET_DIGESTS = {
    'coverage': ('545b6f1cbc5e35ce', 'e4b512b3edd3e701', 'f181c982d9e5e835', 'e1300c5538868063'),
    'facility_location': ('2c594678e048661b', '8f88a2bbc7eba88e', '665b2a21a9a9dbc1', 'e1300c5538868063'),
    'interference': ('e3f46f656332433c', '4cd08218c2f44b2b', '4dcaf52a8ca8e784', 'e1300c5538868063'),
    'modular': ('7104c7bc55630179', '9e6ca79ebbcfa14e', 'a22794b217cf497d', 'e1300c5538868063'),
    'multi_word_coverage': ('1ec0290b65d3e0d3', '3da084d831cf1e83', 'db776162086f30a5', 'e1300c5538868063'),
    'multigraph_cut': ('4b2a2fc7891b561a', '398845d63cd79420', 'c8f28d7efe0aa0b5', 'e1300c5538868063'),
    'proxy': ('c08de0e9f7646a28', '074acf406f0b97b6', '4df06cb56a4bb0b4', 'e1300c5538868063'),
    'proxy_clamp': ('8feea6381f74a144', 'e6b96f4331145a52', 'b4e51fd2a600bb98', 'e1300c5538868063'),
    'proxy_shift': ('9af0158f2ec2ce04', '5cbf4143eb4c94d8', '9bd8006c80cb18d6', '6e57f164085b9c0f'),
    'restricted_fl': ('53fe7930f86ebd6e', 'b82c49a0706e242c', '87877ceb38a06a5f', 'e1300c5538868063'),
    'restricted_fl_ungated': ('9fc8e52c55a7bbca', '89d20043a711f0a6', '09e12cc6e63c1c0d', 'e1300c5538868063'),
    'table': ('2ac249195ad9a267', 'bd394d04750e949a', '8689bab6e6fbede8', 'e1300c5538868063'),
    'weighted_coverage': ('03f0c6e75c15522c', '07cd383d9e853b22', '18ed26d21b13de59', 'e1300c5538868063'),
    'weighted_cut': ('d2a81bc038c59dea', '5feec456808c539e', 'e4a62671e798d5bb', 'e1300c5538868063'),
}


def power_set_digest(obj, universe, chunk):
    digest = hashlib.sha256()
    with mock.patch.object(exact, "_CHUNK", chunk):
        for block in objectives.power_set_values(obj, universe, exact.block_bits(len(universe))):
            digest.update(block.dtype.str.encode() + block.tobytes())
    return digest.hexdigest()[:16]


class TestPowerSetRoutes:
    @pytest.mark.parametrize("name", sorted(POWER_SET_DIGESTS))
    def test_blocks_keep_their_bytes(self, name):
        obj = power_set_families(12, 5)[name]
        got = tuple(power_set_digest(obj, universe, chunk) for universe, chunk in POWER_SET_CASES)
        assert got == POWER_SET_DIGESTS[name]


    @pytest.mark.parametrize("u", [13, 16])
    @pytest.mark.parametrize("name", ["proxy", "proxy_shift", "proxy_clamp"])
    def test_proxy_beyond_one_cached_batch(self, name, u):
        # more than _GROUP_ROWS subsets: the id batches held a size-0 batch of
        # width 0 here, which the facility location's kernel could not read
        obj = scan_families(u, 2)[name]
        masks = np.random.default_rng(u).integers(0, 1 << u, size=200).tolist()
        want = [obj.eval(_bits_of(mask)) for mask in masks]
        table = value_table(obj)
        assert [table[mask].hex() for mask in masks] == [v.hex() for v in want]
        costs = np.random.default_rng(1).uniform(0.5, 1.5, size=u)
        prof = exact.opt_knapsack(obj, range(u), costs, [2.0, 4.5, float(u)])
        for opt, argmax in zip(prof.opt_by_budget, prof.argmax_by_budget):
            assert opt.hex() == obj.eval(argmax).hex()
            assert opt == table[sum(1 << e for e in argmax)]


def _bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestPowerSetTablesBitForBit:
    @pytest.mark.parametrize("name", NON_DYADIC)
    @pytest.mark.parametrize("seed", range(4))
    def test_knapsack_equals_reference(self, name, seed):
        n = 9
        obj = non_dyadic_families(n, seed)[name]
        rng = np.random.default_rng(100 + seed)
        universe = sorted(rng.choice(n, size=rng.integers(4, n - 1), replace=False).tolist())
        if name == "interference":  # pairs reaching outside the universe
            assert any((i in universe) != (j in universe) for i, j in obj.intf)
        costs = rng.uniform(0.1, 1.0, size=n)
        # the costs of some subsets, added in ascending id order, and the
        # floats just below them: a change of summation order flips some
        edges = [sum(costs[e] for e in sorted(rng.choice(universe, size=s, replace=False)))
                 for s in range(2, len(universe) + 1)]
        budgets = sorted({*rng.uniform(0.05, 1.0, size=3) * costs[universe].sum(),
                          *edges, *np.nextafter(edges, 0)})
        opt, argmax = reference_knapsack(obj, universe, costs, budgets)
        for chunk in (exact._CHUNK, 4):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_knapsack(obj, universe, costs, budgets)
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == argmax
            assert prof.enumerated_count == 1 << len(universe)

    @pytest.mark.parametrize("name", NON_DYADIC)
    @pytest.mark.parametrize("seed", range(3))
    def test_unsorted_grid_with_duplicates(self, name, seed):
        # slack budgets (at and past c(N)) and binding ones (subset costs
        # and the floats just below them), shuffled, some listed twice
        n = 9
        obj = non_dyadic_families(n, seed)[name]
        rng = np.random.default_rng(200 + seed)
        universe = sorted(rng.choice(n, size=8, replace=False).tolist())
        costs = rng.uniform(0.1, 1.0, size=n)
        total = sum(costs[e] for e in universe)
        edges = [sum(costs[e] for e in sorted(rng.choice(universe, size=s, replace=False)))
                 for s in range(1, len(universe))]
        budgets = [total, np.nextafter(total, np.inf), 2 * total, *edges,
                   *np.nextafter(edges, 0), *rng.uniform(0.05, 0.9, size=4) * total]
        budgets = [float(b) for b in rng.permutation(budgets)]
        budgets += budgets[::3]
        opt, argmax = reference_knapsack(obj, universe, costs, budgets)
        for chunk in (exact._CHUNK, 4):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_knapsack(obj, universe, costs, budgets)
            assert prof.budgets == budgets
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == argmax

    @pytest.mark.parametrize("name", FAMILIES)
    def test_blocks_with_no_feasible_mask(self, name):
        # with _CHUNK at 4 a block fixes every bit from 2 up; an expensive
        # high element leaves its blocks with nothing under the small budgets
        obj = dyadic_families(seed=7)[name]
        costs = np.array([0.25, 0.5, 0.25, 3.0, 0.5, 4.0, 0.75])
        budgets = [0.5, 5.0, 0.25, 1.0, 3.25, 1.0, 100.0]
        assert min(budgets) < costs[2:].max()
        opt, argmax = reference_knapsack(obj, range(7), costs, budgets)
        for chunk in (exact._CHUNK, 4, 1):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_knapsack(obj, range(7), costs, budgets)
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == argmax

    @pytest.mark.parametrize("weights,costs,budgets,want", [
        # at 2 the optima {0} and {1} tie and {0} comes first; at 1 only {1}
        # of them fits, so it stays the optimum
        ([1, 1], [2.0, 1.0], [2.0, 1.0], [(0,), (1,)]),
        # at 2 the only optimum {0} does not fit 1: the next best is {1}
        ([2, 1], [2.0, 1.0], [1.0, 2.0], [(1,), (0,)]),
        # the first optimum fits every smaller budget
        ([1, 3, 1], [1.0, 0.5, 2.0], [4.0, 0.5, 1.0, 3.5], [(0, 1, 2), (1,), (1,), (0, 1, 2)]),
        # optima of two sizes: the smaller {0} comes first, only {1, 2} fits 1
        ([2, 1, 1], [2.0, 0.5, 0.5], [2.0, 1.0], [(0,), (1, 2)]),
        # {0, 1} comes first at 2.5; of the tied pairs {0, 2} and {0, 3} fit
        # 2.25; none fits 1
        ([1, 1, 1, 1], [1.0, 1.5, 1.25, 1.25], [2.5, 2.25, 1.0], [(0, 1), (0, 2), (0,)]),
        # {2}, {3} and {0, 1} tie at 1.9; at 1.5 {3} costs exactly the budget
        # and comes before {0, 1}, whose mask is smaller
        ([1, 1, 2, 2], [0.5, 0.75, 1.75, 1.5], [1.9, 1.5], [(2,), (3,)]),
    ])
    def test_modular_optimum_that_stops_fitting(self, weights, costs, budgets, want):
        obj = Modular(weights)
        opt, argmax = reference_knapsack(obj, range(len(weights)), costs, budgets)
        assert argmax == want
        for chunk in (exact._CHUNK, 2, 1):
            with mock.patch.object(exact, "_CHUNK", chunk):
                prof = exact.opt_knapsack(obj, range(len(weights)), costs, budgets)
            assert prof.opt_by_budget == opt
            assert prof.argmax_by_budget == want

    @pytest.mark.parametrize("name", NON_DYADIC)
    def test_value_table_equals_eval(self, name):
        n = 8
        obj = non_dyadic_families(n, seed=2)[name]
        for chunk in (exact._CHUNK, 4):
            with mock.patch.object(exact, "_CHUNK", chunk):
                table = value_table(obj)
            for mask in range(1 << n):
                assert table[mask] == obj.eval([i for i in range(n) if mask >> i & 1])
