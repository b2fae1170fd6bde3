import math

import numpy as np
import pytest

from prunekit import exact
from prunekit.instances import gen_coverage, gen_gnm, gen_interference
from prunekit.objectives import CountingOracle, Cut, Modular, counting_wrap
from prunekit.prune import (EPSILON_FLOOR, PruneParams, PrunedSet,
                            prune_fast_budget_range, prune_random, prune_seq_disjoint,
                            prune_std_greedy, prune_threshold_stream, prune_window,
                            sdg_bound, window_bound, witness)
from prunekit.selection import greedy, threshold_greedy


class TestPruneParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PruneParams(k=0)
        with pytest.raises(ValueError):
            PruneParams(k=3, epsilon=0.7)
        assert PruneParams(k=3, epsilon=0.3).resolved_ell() == 4
        assert PruneParams(k=3, ell=2, epsilon=0.3).resolved_ell() == 2


class TestMetered:
    def test_a_handed_oracle_is_counted_once(self):
        obj = gen_interference(12, 15, seed=1)
        assert CountingOracle(counting_wrap(obj)).inner is obj
        oracle = counting_wrap(obj)
        pruned = prune_seq_disjoint(oracle, 12, 3, ell=2)
        plain = prune_seq_disjoint(obj, 12, 3, ell=2)
        assert (pruned.elements, pruned.stats) == (plain.elements, plain.stats)
        assert pruned.stats.queries > 0 and oracle.stats().queries == 0


class TestSeqDisjoint:
    def test_ell_one_equals_plain_greedy(self):
        obj = gen_interference(12, 15, seed=1)
        pruned = prune_seq_disjoint(obj, 12, 4, ell=1)
        run = greedy(counting_wrap(obj), range(12), 4)
        assert pruned.elements == sorted(run.picks)
        assert pruned.structure["runs"] == [run.picks]

    def test_exhaustion_partitions_ground_set(self):
        obj = gen_coverage(6, 10, seed=2)
        pruned = prune_seq_disjoint(obj, 6, 3, ell=2)
        runs = pruned.structure["runs"]
        assert sorted(e for r in runs for e in r) == list(range(6))
        assert pruned.elements == list(range(6))

    def test_runs_pairwise_disjoint_and_exact_size(self):
        obj = gen_interference(20, 30, seed=3)
        pruned = prune_seq_disjoint(obj, 20, 4, ell=3)
        runs = [set(r) for r in pruned.structure["runs"]]
        assert all(len(r) == 4 for r in runs)
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                assert not runs[i] & runs[j]
        assert len(pruned.elements) == 12 <= pruned.cap

    def test_k_zero_empty(self, triangle):
        assert prune_seq_disjoint(triangle, 3, 0, ell=2).elements == []

    def test_query_budget(self):
        obj = gen_interference(15, 20, seed=4)
        for ell in (2, 4):
            pruned = prune_seq_disjoint(obj, 15, 3, ell=ell)
            assert pruned.stats.queries <= ell * 3 * 15

    def test_worst_case_guarantee_small(self):
        # exhaustive check of the (1 - 1/ell)/2 bound on tiny instances
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(6, 13))
            k = int(rng.integers(1, 4))
            obj = gen_interference(n, 15, seed=int(rng.integers(2**32)))
            full = exact.opt_cardinality(obj, range(n), k)
            for ell in (2, 4):
                pruned = prune_seq_disjoint(obj, n, k, ell=ell)
                inside = exact.opt_cardinality(obj, pruned.elements, k)
                for kp in range(1, k + 1):
                    opt = full.opt_by_budget[kp]
                    alpha = 1.0 if opt == 0 else inside.opt_by_budget[kp] / opt
                    assert alpha >= sdg_bound(ell) - 1e-9


class TestWindow:
    def test_windows_absorb_everything(self):
        obj = gen_interference(5, 10, seed=6)
        pruned = prune_window(obj, 5, 2, omega=2, seed=0)  # window = 4 >= n-1
        assert pruned.elements == list(range(5))

    def test_k_one_cap(self):
        obj = gen_interference(10, 12, seed=7)
        pruned = prune_window(obj, 10, 1, omega=3, seed=1)
        assert len(pruned.elements) <= 1 + 3

    def test_argmax_variant_tracks_greedy(self):
        obj = gen_interference(14, 18, seed=8)
        pruned = prune_window(obj, 14, 4, omega=2, seed=0, pick="argmax")
        run = greedy(counting_wrap(obj), range(14), 4)
        assert pruned.structure["picks"] == run.picks

    def test_structure_contained_and_capped(self):
        obj = gen_interference(16, 20, seed=9)
        pruned = prune_window(obj, 16, 3, omega=2, seed=3)
        elements = set(pruned.elements)
        assert set(pruned.structure["picks"]) <= elements
        for win in pruned.structure["windows"]:
            assert set(win) <= elements
        assert len(pruned.elements) <= 3 + 2 * 9

    def test_seeded_determinism(self):
        obj = gen_interference(12, 16, seed=10)
        a = prune_window(obj, 12, 3, omega=2, seed=5)
        b = prune_window(obj, 12, 3, omega=2, seed=5)
        c = prune_window(obj, 12, 3, omega=2, seed=6)
        assert a.elements == b.elements and a.structure == b.structure
        assert a.elements != c.elements or a.structure != c.structure

    def test_query_budget(self):
        obj = gen_interference(15, 20, seed=11)
        pruned = prune_window(obj, 15, 3, omega=2, seed=0)
        assert pruned.stats.queries <= 3 * 15 + 1

    def test_expectation_bound_quick(self):
        # small version of the expectation guarantee: mean best-in-P over
        # seeds clears the finite-k bound minus 3 standard errors
        obj = Cut(12, gen_gnm(12, 30, seed=12))
        k, omega, trials = 3, 2, 200
        opt = exact.opt_cardinality(obj, range(12), k).opt_by_budget[k]
        vals = []
        for s in range(trials):
            pruned = prune_window(obj, 12, k, omega=omega, seed=s)
            vals.append(exact.opt_cardinality(obj, pruned.elements, k).opt_by_budget[k])
        se = np.std(vals, ddof=1) / math.sqrt(trials)
        assert np.mean(vals) >= window_bound(omega, k) * opt - 3 * se

    def test_pick_validated(self, triangle):
        with pytest.raises(ValueError):
            prune_window(triangle, 3, 1, omega=1, pick="best")


class TestStdGreedy:
    def test_p_at_least_n_returns_everything(self):
        obj = gen_coverage(7, 10, seed=13)
        assert prune_std_greedy(obj, 7, 10).elements == list(range(7))

    def test_modular_top_p(self):
        pruned = prune_std_greedy(Modular([5, 1, 9, 3]), 4, 2)
        assert pruned.elements == [0, 2]

    def test_query_budget(self):
        obj = gen_coverage(12, 18, seed=14)
        pruned = prune_std_greedy(obj, 12, 5)
        assert pruned.stats.queries <= 5 * 12 + 1


class TestFastBudgetRange:
    def test_structure_keeps_the_run(self):
        obj = gen_coverage(15, 20, seed=15)
        pruned = prune_fast_budget_range(obj, 15, 4, epsilon=0.2)
        run = threshold_greedy(counting_wrap(obj), range(15), 4, 0.05)
        assert pruned.structure == {"kind": "threshold_run", "picks": run.picks}
        assert pruned.elements == sorted(run.picks)
        assert pruned.cap == 4 and "grid" not in pruned.params

    def test_witness_guarantee(self):
        eps = 0.2
        obj = gen_coverage(20, 30, seed=16)
        pruned = prune_fast_budget_range(obj, 20, 5, epsilon=eps)
        profile = exact.opt_cardinality(obj, range(20), 5)
        bound = 1 - 1 / math.e - eps
        for kp in range(1, 6):
            w = witness(pruned, obj, kp, seed=7)
            assert len(w) <= kp
            assert obj.eval(w) >= bound * profile.opt_by_budget[kp] - 1e-9

    def test_witness_is_run_prefix(self):
        obj = gen_coverage(12, 18, seed=17)
        pruned = prune_fast_budget_range(obj, 12, 3, epsilon=0.2)
        picks = pruned.structure["picks"]
        for kp in range(1, 4):
            assert witness(pruned, obj, kp, seed=kp) == picks[:kp]

    def test_witness_rejects_bad_budget(self):
        obj = gen_coverage(10, 14, seed=18)
        pruned = prune_fast_budget_range(obj, 10, 3, epsilon=0.2)
        with pytest.raises(ValueError):
            witness(pruned, obj, 4)
        with pytest.raises(ValueError):
            witness(prune_std_greedy(obj, 10, 3), obj, 1)

    def test_query_envelope(self):
        n, eps = 20, 0.2
        obj = gen_coverage(n, 30, seed=19)
        pruned = prune_fast_budget_range(obj, n, 6, epsilon=eps)
        assert pruned.stats.queries <= 50 * (n / eps) * math.log(n / eps)

    def test_legacy_threshold_grid_loads_as_largest_run(self):
        # budgets 1..10: the largest run sits under "10", not under the
        # lexicographically last key "9"
        obj = gen_coverage(30, 40, seed=17)
        run = threshold_greedy(counting_wrap(obj), range(30), 10, 0.05).picks
        assert len(run) == 10
        grid = list(range(1, 11))
        legacy = {"algorithm": "fast_budget_range",
                  "params": {"k": 10, "epsilon": 0.2, "eta": 0.05, "grid": grid, "n": 30},
                  "elements": sorted(run),
                  "structure": {"kind": "threshold_grid",
                                "runs": {str(q): run[:q] for q in grid}},
                  "stats": {"queries": 1000, "cache_hits": 0}, "cap": sum(grid)}
        loaded = PrunedSet.from_dict(legacy)
        assert loaded.structure == {"kind": "threshold_run", "picks": run}
        for kp in grid:
            assert witness(loaded, obj, kp) == run[:kp]

    @pytest.mark.parametrize("structure", [
        {"kind": "threshold_run"},
        {"kind": "threshold_grid", "runs": {}},
        {"kind": "flat"},
        {"kind": "threshold_run", "picks": [0, "1"]},
        {"kind": "threshold_run", "picks": [0, 1.0]},
        {"kind": "threshold_grid", "runs": {"2": [0, True]}},
    ], ids=["no_picks", "empty_grid", "flat", "string_id", "float_id", "bool_id"])
    def test_malformed_run_rejected(self, structure):
        body = prune_fast_budget_range(gen_coverage(10, 14, seed=18), 10, 2,
                                       epsilon=0.2).to_dict()
        body["structure"] = structure
        with pytest.raises((KeyError, ValueError)):
            PrunedSet.from_dict(body)

    def test_k_zero_round_trips(self):
        pruned = prune_fast_budget_range(gen_coverage(10, 14, seed=18), 10, 0, epsilon=0.2)
        assert PrunedSet.from_dict(pruned.to_dict()).to_dict() == pruned.to_dict()

    def test_epsilon_validated(self, triangle):
        with pytest.raises(ValueError):
            prune_fast_budget_range(triangle, 3, 2, epsilon=0.6)

    def test_epsilon_floor(self, triangle):
        for eps in (1e-9, EPSILON_FLOOR / 2):
            with pytest.raises(ValueError, match="epsilon"):
                prune_fast_budget_range(triangle, 3, 2, epsilon=eps)
            with pytest.raises(ValueError, match="epsilon"):
                prune_seq_disjoint(triangle, 3, 2, epsilon=eps)
        assert prune_fast_budget_range(triangle, 3, 2, epsilon=EPSILON_FLOOR).elements
        assert PruneParams(k=1, epsilon=EPSILON_FLOOR).resolved_ell() == 1000


class TestThresholdStream:
    def test_modular_accepts_top_until_budget(self):
        obj = Modular([5, 4, 3, 2, 1])
        pruned = prune_threshold_stream(obj, range(5), k=2, p=3, epsilon=0.1)
        assert pruned.elements == [0, 1, 2]

    def test_all_zero_function_accepts_nothing(self):
        obj = Modular([0, 0, 0])
        pruned = prune_threshold_stream(obj, range(3), k=2, p=3, epsilon=0.1)
        assert pruned.elements == []

    def test_order_must_be_permutation(self, triangle):
        with pytest.raises(ValueError):
            prune_threshold_stream(triangle, [0, 1], k=1, p=2, epsilon=0.1)

    def test_nonmonotone_accepts_few(self):
        obj = Cut(20, gen_gnm(20, 60, seed=20))
        pruned = prune_threshold_stream(obj, range(20), k=5, p=15, epsilon=0.1)
        assert len(pruned.elements) <= 15

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # a negative epsilon would accept the first p elements whatever their
        # marginals, and nan none at all
        with pytest.raises(ValueError, match="epsilon"):
            prune_threshold_stream(Modular([5, 4, 3]), range(3), k=2, p=2,
                                   epsilon=epsilon)


class TestRandomPrune:
    def test_full_budget_returns_everything(self):
        assert prune_random(6, 6, seed=1).elements == list(range(6))

    def test_oversized_budget_clamps(self):
        assert prune_random(4, 9, seed=2).elements == list(range(4))

    def test_seeded_reproducible(self):
        assert prune_random(30, 10, seed=3).elements == prune_random(30, 10, seed=3).elements
        assert prune_random(30, 10, seed=3).elements != prune_random(30, 10, seed=4).elements


class TestSerialization:
    def test_round_trip(self, tmp_path):
        obj = gen_interference(14, 18, seed=21)
        pruned = prune_seq_disjoint(obj, 14, 3, ell=2)
        path = tmp_path / "pruned.json"
        pruned.save(path)
        loaded = PrunedSet.load(path)
        assert loaded.to_dict() == pruned.to_dict()
        assert loaded.elements == pruned.elements

    def test_alpha_recompute_from_serialized(self, tmp_path):
        obj = gen_interference(12, 16, seed=22)
        pruned = prune_window(obj, 12, 3, omega=2, seed=9)
        path = tmp_path / "pruned.json"
        pruned.save(path)
        loaded = PrunedSet.load(path)
        a = exact.opt_cardinality(obj, pruned.elements, 3).opt_by_budget
        b = exact.opt_cardinality(obj, loaded.elements, 3).opt_by_budget
        assert a == b

    def test_body_excludes_timing(self):
        obj = gen_coverage(8, 12, seed=23)
        pruned = prune_std_greedy(obj, 8, 3)
        assert "elapsed" not in pruned.to_dict()
        assert "elapsed" in pruned.to_dict(include_timing=True)
