from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import exact, knapsack
from prunekit.instances import gen_coverage, gen_gnm, gen_interference
from prunekit.knapsack import (KnapsackInstance, KnapsackPrunedSet, extract_budget,
                               extract_budget_grid, prune_sdg_density)
from prunekit.objectives import Coverage, Cut, Modular
from prunekit.selection import density_greedy


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnapsackInstance([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            KnapsackInstance([1.0, 5.0], 3.0)  # cost above B
        with pytest.raises(ValueError):
            KnapsackInstance([1.0, 0.0], 3.0)
        inst = KnapsackInstance([1.0, 2.0], 3.0)
        assert inst.cost({0, 1}) == 3.0

    @pytest.mark.parametrize("B", [float("inf"), float("nan"), -float("inf")])
    def test_master_budget_must_be_finite(self, B):
        # an infinite B would be written as the invalid JSON token Infinity
        with pytest.raises(ValueError, match="master budget B must be positive and finite"):
            KnapsackInstance([1.0, 2.0], B)

    def test_costs_add_left_to_right(self):
        # a compensated sum (the builtin on Python 3.12+) gives 1.0000000000000002
        inst = KnapsackInstance((1.0, 1e-16, 1e-16), 1.0)
        assert inst.cost([0, 1, 2]) == 1.0
        run = density_greedy(Modular([3.0, 0.0, 0.0]), range(3), inst.costs,
                             stop_cost=1.0 + 1e-15, keep_cap=1.0 + 1e-15)
        assert run.costs == [1.0, 1e-16, 1e-16] and run.real_cost == 1.0


class TestSdgDensity:
    def test_unit_cost_reduction(self):
        # all costs 1, B = k: each run takes between 2k and 3k elements
        k = 3
        obj = gen_coverage(10, 14, seed=1)
        inst = KnapsackInstance([1.0] * 10, float(k))
        pruned = prune_sdg_density(obj, inst, ell=2)
        for run in pruned.runs:
            assert len(run.picks) + run.dummy_cost >= 2 * k
            assert len(run.picks) <= 3 * k

    def test_cost_cap(self):
        rng = np.random.default_rng(2)
        obj = gen_interference(10, 14, seed=2)
        inst = KnapsackInstance(rng.uniform(0.1, 0.9, size=10), 1.0)
        pruned = prune_sdg_density(obj, inst, ell=2)
        assert pruned.total_cost <= 3 * 2 * inst.B + 1e-9
        for run in pruned.runs:
            assert run.real_cost <= 3 * inst.B + 1e-9

    def test_runs_disjoint_and_exhaustion_pads(self):
        obj = gen_coverage(8, 12, seed=3)
        inst = KnapsackInstance([0.5] * 8, 4.0)  # pool cost 4 < 2B = 8
        pruned = prune_sdg_density(obj, inst, ell=2)
        assert sorted(pruned.runs[0].picks) == list(range(8))
        assert pruned.runs[0].dummy_cost == pytest.approx(8.0 - 4.0)
        assert pruned.runs[1].picks == []
        assert pruned.runs[1].dummy_cost == pytest.approx(8.0)

    def test_accepted_cost_reaches_stop_or_pool(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(6, 14))
            obj = gen_interference(n, 14, seed=int(rng.integers(2**32)))
            costs = rng.uniform(0.05, 1.0, size=n)
            inst = KnapsackInstance(costs, 1.0)
            pruned = prune_sdg_density(obj, inst, ell=2)
            pool_cost = float(costs.sum())
            first = pruned.runs[0]
            assert first.real_cost + 1e-9 >= min(2 * inst.B, pool_cost)

    def test_epsilon_to_ell(self):
        obj = gen_coverage(8, 12, seed=5)
        inst = KnapsackInstance([1.0] * 8, 2.0)
        pruned = prune_sdg_density(obj, inst, epsilon=0.3)
        assert pruned.params["ell"] == 4

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prune_sdg_density(Modular([1, 2]), KnapsackInstance([1.0], 1.0), ell=1)


class TestExtractBudget:
    def test_full_budget_matches_whole_pruned_set(self):
        # monotone objective, everything affordable: the extraction must be
        # worth as much as taking all of P (ties may prefer a smaller set)
        obj = gen_coverage(8, 12, seed=6)
        inst = KnapsackInstance([0.2] * 8, 2.0)
        pruned = prune_sdg_density(obj, inst, ell=1)
        q = extract_budget(pruned, obj, 2.0)
        assert obj.eval(q) == pytest.approx(obj.eval(pruned.elements))
        assert inst.cost(q) <= 2.0

    def test_exact_route_returns_the_exact_argmax(self):
        # P is small enough to enumerate: its first optimum per budget is the
        # answer, not a density prefix that ties with it
        obj = gen_coverage(12, 30, seed=0)
        costs = np.random.default_rng(0).uniform(0.2, 1.0, size=12) * 0.03
        pruned = prune_sdg_density(obj, KnapsackInstance(costs, 1.0), ell=4)
        budgets = list(np.geomspace(0.1, 1.0, 4)[1:])
        profile = exact.opt_knapsack(obj, pruned.elements, costs, budgets)
        assert extract_budget_grid(pruned, obj, budgets) == \
            [sorted(s) for s in profile.argmax_by_budget]

    def test_single_affordable_item(self):
        obj = Modular([3, 10, 4])
        inst = KnapsackInstance([0.5, 2.0, 1.8], 2.0)
        pruned = prune_sdg_density(obj, inst, ell=1)
        q = extract_budget(pruned, obj, 0.6)
        assert q == [0]

    def test_feasibility_and_budget_range(self):
        rng = np.random.default_rng(7)
        obj = gen_interference(12, 16, seed=7)
        costs = rng.uniform(0.1, 1.0, size=12)
        inst = KnapsackInstance(costs, 1.0)
        pruned = prune_sdg_density(obj, inst, ell=3)
        budgets = np.geomspace(0.1, 1.0, 9)[1:]
        sets = extract_budget_grid(pruned, obj, budgets)
        for b, q in zip(budgets, sets):
            assert inst.cost(q) <= b + 1e-9
            assert set(q) <= set(pruned.elements)

    def test_out_of_range_budget_rejected(self):
        obj = Modular([1, 2])
        inst = KnapsackInstance([0.5, 0.5], 1.0)
        pruned = prune_sdg_density(obj, inst, ell=1)
        for b in (0.0, 1.5):
            with pytest.raises(ValueError):
                extract_budget(pruned, obj, b)

    def test_prefix_beats_full_run_on_nonmonotone(self):
        # the density run keeps going through negative gains; extraction must
        # not be stuck with the full run's value
        obj = Cut(10, gen_gnm(10, 25, seed=8))
        inst = KnapsackInstance([0.25] * 10, 1.0)
        pruned = prune_sdg_density(obj, inst, ell=2)
        with mock.patch.object(knapsack, "EXHAUSTIVE_CAP", 0):  # force density route
            q = extract_budget(pruned, obj, 1.0)
        vals = [obj.eval(q)]
        assert obj.eval(q) >= max(0.0, *(obj.eval([e]) for e in pruned.elements
                                         if inst.costs[e] <= 1.0))

    def test_density_route_budget_grid(self):
        # forced onto the density route, each budget's best density prefix
        # competes with the best feasible singleton, which wins at B' = 0.4
        rng = np.random.default_rng(19)
        obj = gen_coverage(16, 24, seed=19)
        inst = KnapsackInstance(rng.uniform(0.05, 1.0, size=16), 1.0)
        pruned = prune_sdg_density(obj, inst, ell=2)
        budgets = [0.2, 0.4, 0.6, 0.8, 1.0]
        with mock.patch.object(knapsack, "EXHAUSTIVE_CAP", 0):
            grid = extract_budget_grid(pruned, obj, budgets)
            assert grid == [[3], [2], [3, 8], [3, 4, 8], [0, 3, 8]]
            for b, sel in zip(budgets, grid):
                assert sel == extract_budget(pruned, obj, b)
                assert inst.cost(sel) <= b
        run = density_greedy(obj, pruned.elements, inst.costs, stop_cost=0.4, keep_cap=0.4)
        prefixes = [obj.eval(run.picks[:i]) for i in range(len(run.picks) + 1)]
        assert obj.eval([2]) > max(prefixes)

    def test_small_item_guarantee_mini(self):
        # miniature of the clean small-item regime: microscopic items mean the
        # pool never fills 2B, so P = N and extraction hits the exact optimum
        eps = 0.25
        rng = np.random.default_rng(9)
        budgets = np.geomspace(0.1, 1.0, 9)[1:]
        cap = (eps / 8) * budgets.min()
        for trial in range(20):
            n = int(rng.integers(8, 13))
            obj = gen_interference(n, 14, seed=int(rng.integers(2**32)))
            costs = rng.uniform(0.2, 1.0, size=n) * cap
            inst = KnapsackInstance(costs, 1.0)
            pruned = prune_sdg_density(obj, inst, ell=4)
            assert pruned.total_cost <= 12.0 + 1e-9
            opt = exact.opt_knapsack(obj, range(n), costs, budgets)
            sets = extract_budget_grid(pruned, obj, budgets)
            for b, o, q in zip(budgets, opt.opt_by_budget, sets):
                assert obj.eval(q) >= (0.5 - eps) * o - 1e-9


def full_pruned(inst: KnapsackInstance) -> KnapsackPrunedSet:
    """The pruned set that is all of N, as ``eval --full`` builds it."""
    return KnapsackPrunedSet(params={"full": True, "B": inst.B, "n": inst.n}, instance=inst,
                             elements=list(range(inst.n)), runs=[],
                             total_cost=inst.cost(range(inst.n)))


SHARED_FAMILIES = {
    "coverage": lambda n, seed: gen_coverage(n, 12, seed=seed),
    "weighted_coverage": lambda n, seed: Coverage(
        gen_coverage(n, 12, seed=seed).covers,
        weights=np.random.default_rng(seed).uniform(0.1, 3.0, 12), m=12),
    "interference": lambda n, seed: gen_interference(n, 12, seed=seed, interference_prob=0.5),
    "modular": lambda n, seed: Modular(np.random.default_rng(seed).uniform(-1.0, 3.0, n)),
}


class TestSharedProfile:
    """``extract_budget_grid(..., full_profile)`` reads the sweep over N
    when P is all of N, and answers as the sweep over P would."""

    @given(family=st.sampled_from(sorted(SHARED_FAMILIES)), n=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), binding=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_profile_over_n_gives_the_sweep_over_p(self, family, n, seed, binding):
        # slack: every budget admits all of N; binding: none does
        obj = SHARED_FAMILIES[family](n, seed)
        costs = np.random.default_rng(seed + 1).uniform(0.05, 1.0, n)
        total = float(costs.sum())
        inst = KnapsackInstance(costs, 2 * total)
        budgets = [f * total for f in ((0.1, 0.3, 0.6) if binding else (1.0, 1.5, 2.0))]
        pruned = full_pruned(inst)
        profile = exact.opt_knapsack(obj, range(n), inst.costs, budgets)
        with mock.patch.object(exact, "opt_knapsack", side_effect=AssertionError("swept")):
            shared = extract_budget_grid(pruned, obj, budgets, full_profile=profile)
        assert shared == extract_budget_grid(pruned, obj, budgets)

    def test_a_strict_subset_still_sweeps_p(self):
        obj = gen_coverage(12, 30, seed=0)
        costs = np.random.default_rng(0).uniform(0.2, 1.0, size=12)
        pruned = prune_sdg_density(obj, KnapsackInstance(costs, 1.0), ell=1)
        assert len(pruned.elements) < 12
        budgets = [0.5, 1.0]
        profile = exact.opt_knapsack(obj, range(12), costs, budgets)
        with mock.patch.object(exact, "opt_knapsack", wraps=exact.opt_knapsack) as sweeps:
            shared = extract_budget_grid(pruned, obj, budgets, full_profile=profile)
        assert [call.args[1] for call in sweeps.call_args_list] == [pruned.elements]
        assert shared == extract_budget_grid(pruned, obj, budgets)

    def test_density_route_ignores_the_profile(self):
        # |P| = n above the patched cap: the density route runs, one pass per
        # budget, and answers as without the profile
        obj = gen_interference(10, 16, seed=3)
        inst = KnapsackInstance(np.random.default_rng(3).uniform(0.1, 0.5, 10), 2.0)
        budgets = [0.4, 1.0, 2.0]
        pruned = full_pruned(inst)
        profile = exact.opt_knapsack(obj, range(10), inst.costs, budgets)
        with mock.patch.object(knapsack, "EXHAUSTIVE_CAP", 9):
            with mock.patch.object(knapsack, "density_greedy", wraps=density_greedy) as runs:
                shared = extract_budget_grid(pruned, obj, budgets, full_profile=profile)
            assert runs.call_count == len(budgets)
            assert shared == extract_budget_grid(pruned, obj, budgets)

    def test_mismatched_profile_rejected(self):
        obj = gen_coverage(6, 12, seed=1)
        inst = KnapsackInstance([0.1] * 6, 1.0)
        pruned = full_pruned(inst)
        profile = exact.opt_knapsack(obj, range(6), inst.costs, [0.5, 1.0])
        with pytest.raises(ValueError, match="budgets"):
            extract_budget_grid(pruned, obj, [0.5], full_profile=profile)
        with pytest.raises(ValueError, match="budgets"):
            extract_budget_grid(pruned, obj, [1.0, 0.5], full_profile=profile)
        over_five = exact.opt_knapsack(obj, range(5), inst.costs, [0.5, 1.0])
        with pytest.raises(ValueError, match="enumerated 32 subsets"):
            extract_budget_grid(pruned, obj, [0.5, 1], full_profile=over_five)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        obj = gen_interference(10, 14, seed=10)
        inst = KnapsackInstance(np.random.default_rng(10).uniform(0.2, 1.0, 10), 1.0)
        pruned = prune_sdg_density(obj, inst, ell=2)
        path = tmp_path / "kp.json"
        pruned.save(path)
        loaded = KnapsackPrunedSet.load(path)
        assert loaded.elements == pruned.elements
        assert loaded.total_cost == pytest.approx(pruned.total_cost)
        assert [r.picks for r in loaded.runs] == [r.picks for r in pruned.runs]
        q1 = extract_budget_grid(pruned, obj, [0.5, 1.0])
        q2 = extract_budget_grid(loaded, obj, [0.5, 1.0])
        assert q1 == q2
