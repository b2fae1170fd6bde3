import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit.exact import opt_cardinality
from prunekit.instances import gen_coverage
from prunekit.objectives import Cut, FacilityLocation, Modular, counting_wrap
from prunekit.prune import prune_threshold_stream
from prunekit.selection import (density_greedy, disjoint_runs, greedy, threshold_greedy,
                                threshold_stream, window_greedy)


class TestGreedy:
    def test_modular_forced_order(self):
        run = greedy(counting_wrap(Modular([5, 3, 1])), range(3), 2)
        assert run.picks == [0, 1]
        assert run.gains == [5.0, 3.0]

    def test_triangle_continues_through_negative(self, triangle):
        run = greedy(counting_wrap(triangle), range(3), 3)
        assert run.picks == [0, 1, 2]
        assert run.gains == [2, 0, -2]

    def test_stop_at_zero(self, triangle):
        run = greedy(counting_wrap(triangle), range(3), 3, stop_at_zero=True)
        assert run.picks == [0]

    def test_size_zero(self, triangle):
        run = greedy(counting_wrap(triangle), range(3), 0)
        assert run.picks == [] and run.gains == []

    def test_size_clamped_to_pool(self):
        run = greedy(counting_wrap(Modular([1, 2])), {1}, 5)
        assert run.picks == [1]

    def test_deterministic_and_gains_consistent(self):
        obj = gen_coverage(12, 20, seed=3)
        r1 = greedy(counting_wrap(obj), range(12), 6)
        r2 = greedy(counting_wrap(obj), range(12), 6)
        assert r1.picks == r2.picks and r1.gains == r2.gains
        # replaying the transcript reproduces the recorded gains exactly
        for i, (e, g) in enumerate(zip(r1.picks, r1.gains)):
            assert obj.marginal(e, r1.picks[:i]) == pytest.approx(g)

    def test_prefix_values(self):
        run = greedy(counting_wrap(Modular([4, 2, 1])), range(3), 3)
        assert run.prefix_values(0.0) == [0.0, 4.0, 6.0, 7.0]

    def test_negative_size_rejected(self, triangle):
        with pytest.raises(ValueError):
            greedy(counting_wrap(triangle), range(3), -1)


class TestGreedyPrefixProperty:
    def test_monotone_prefix_guarantee(self):
        # for every k' <= k, the greedy prefix is within 1-1/e of OPT_{k'}
        bound = 1 - 1 / math.e
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(8, 17))
            obj = gen_coverage(n, 20, seed=int(rng.integers(2**32)))
            k = int(rng.integers(1, 6))
            oracle = counting_wrap(obj)
            run = greedy(oracle, range(n), k)
            prefixes = run.prefix_values(float(oracle.eval(())))
            profile = opt_cardinality(obj, range(n), k)
            for kp in range(1, min(k, len(run.picks)) + 1):
                assert prefixes[kp] >= bound * profile.opt_by_budget[kp] - 1e-9


class TestThresholdGreedy:
    def test_modular_sweep(self):
        run = threshold_greedy(counting_wrap(Modular([5, 3, 1])), range(3), 2, eta=0.1)
        assert run.picks == [0, 1]

    def test_size_at_least_pool_takes_positive_singletons(self):
        obj = Modular([2, 0, 3, 1])
        run = threshold_greedy(counting_wrap(obj), range(4), 10, eta=0.2)
        assert sorted(run.picks) == [0, 2, 3]  # the zero-value element is never accepted

    def test_guarantee_against_exact(self):
        eta = 0.1
        obj = gen_coverage(10, 15, seed=5)
        run = threshold_greedy(counting_wrap(obj), range(10), 3, eta=eta)
        opt3 = opt_cardinality(obj, range(10), 3).opt_by_budget[3]
        assert obj.eval(run.picks) >= (1 - 1 / math.e - eta) * opt3 - 1e-9

    def test_query_budget(self):
        n, eta = 20, 0.1
        obj = gen_coverage(n, 30, seed=9)
        oracle = counting_wrap(obj)
        threshold_greedy(oracle, range(n), 5, eta=eta)
        cap = 10 * (n / eta) * math.log(n / eta)  # generous constant envelope
        assert oracle.stats().queries <= cap

    def test_eta_validated(self, triangle):
        for eta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                threshold_greedy(counting_wrap(triangle), range(3), 2, eta=eta)

    def test_all_zero_objective_selects_nothing(self):
        run = threshold_greedy(counting_wrap(Modular([0, 0, 0])), range(3), 2, eta=0.3)
        assert run.picks == []


class TestDensityGreedy:
    def test_density_beats_raw_value(self):
        # values (10, 6), costs (5, 2): density 2 vs 3 -> pick element 1, stop
        obj = Modular([10, 6])
        run = density_greedy(counting_wrap(obj), range(2), [5.0, 2.0],
                             stop_cost=2.0, keep_cap=6.0)
        assert run.picks == [1]
        assert run.real_cost == 2.0
        assert run.dummy_cost == 0.0

    def test_empty_pool_all_dummy(self, triangle):
        run = density_greedy(counting_wrap(triangle), (), [1, 1, 1],
                             stop_cost=4.0, keep_cap=6.0)
        assert run.picks == [] and run.dummy_cost == 4.0

    def test_oversized_items_skipped_then_padded(self):
        obj = Modular([5, 4])
        run = density_greedy(counting_wrap(obj), range(2), [10.0, 8.0],
                             stop_cost=3.0, keep_cap=3.0)
        assert run.picks == [] and run.dummy_cost == 3.0

    def test_keep_cap_skip_is_permanent(self):
        # element 0 has the best density but busts the cap; 1 and 2 fit
        obj = Modular([30, 4, 3])
        run = density_greedy(counting_wrap(obj), range(3), [10.0, 2.0, 2.0],
                             stop_cost=4.0, keep_cap=4.0)
        assert run.picks == [1, 2]

    def test_nonpositive_cost_rejected(self, triangle):
        with pytest.raises(ValueError):
            density_greedy(counting_wrap(triangle), range(3), [1.0, 0.0, 1.0],
                           stop_cost=1.0, keep_cap=2.0)

    def test_stop_above_keep_rejected(self, triangle):
        with pytest.raises(ValueError):
            density_greedy(counting_wrap(triangle), range(3), [1.0, 1.0, 1.0],
                           stop_cost=3.0, keep_cap=2.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 3.0), st.floats(1.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_cost_invariants_hold(self, seed, stop, slack):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        obj = Modular(rng.uniform(0, 4, size=n))
        costs = rng.uniform(0.2, 1.5, size=n)
        keep = stop * slack
        run = density_greedy(counting_wrap(obj), range(n), costs,
                             stop_cost=stop, keep_cap=keep)
        assert run.real_cost <= keep + 1e-9
        assert run.real_cost + run.dummy_cost >= min(stop, float(costs.sum())) - 1e-9
        if run.dummy_cost > 0:
            assert run.real_cost < stop  # dummies only pad a short pool

    def test_densities_nonincreasing_when_gains_nonnegative(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n = int(rng.integers(5, 12))
            obj = gen_coverage(n, 15, seed=int(rng.integers(2**32)))
            costs = rng.uniform(0.5, 2.0, size=n)
            run = density_greedy(counting_wrap(obj), range(n), costs,
                                 stop_cost=3.0, keep_cap=4.5)
            if all(g >= 0 for g in run.gains):
                assert all(a >= b - 1e-9 for a, b in
                           zip(run.densities, run.densities[1:]))


CYCLE6 = Cut(6, [(i, (i + 1) % 6) for i in range(6)])
FL5x8 = FacilityLocation(np.random.default_rng(0).uniform(size=(5, 8)))


class TestSizeChecks:
    """Sizes an engine cannot honour raise ``ValueError`` naming the
    argument, instead of a numpy error or a silently different run."""

    @pytest.mark.parametrize("width", [0, -1])
    def test_window_width_below_one(self, width):
        # width 0 raised numpy's IndexError; -1 ranked windows of all but
        # the last candidate (7 and 6 ids on this 5x8 FL)
        with pytest.raises(ValueError, match="width"):
            window_greedy(FL5x8, range(8), 2, width, lambda w: 0)

    def test_negative_rounds(self):
        # returned an empty run, where greedy raises for a negative size
        with pytest.raises(ValueError, match="rounds"):
            window_greedy(FL5x8, range(8), -1, 2, lambda w: 0)

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_choose_outside_the_window(self, index):
        # -1 took the window's last entry; 5 raised a raw IndexError
        with pytest.raises(ValueError, match="choose"):
            window_greedy(FL5x8, range(8), 2, 3, lambda w: index)

    def test_choose_inside_the_window_commits_that_entry(self):
        run, windows = window_greedy(FL5x8, range(8), 2, 3, lambda w: w - 1)
        assert run.picks == [windows[0][-1], windows[1][-1]]

    def test_stream_k_below_one(self):
        # k = 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="k must"):
            threshold_stream(CYCLE6, range(6), 0, 3, 0.5)

    def test_stream_pruner_negative_k(self):
        # a negative threshold kept every element: [0, 1, 2]
        with pytest.raises(ValueError, match="k must"):
            prune_threshold_stream(CYCLE6, range(6), -1, 3, 0.5)

    def test_stream_pruner_negative_p(self):
        # failed with "|P| = 0 exceeds cap -2"
        with pytest.raises(ValueError, match="p must"):
            prune_threshold_stream(CYCLE6, range(6), 2, -2, 0.5)

    def test_stream_p_zero_accepts_nothing(self):
        assert threshold_stream(CYCLE6, range(6), 2, 0, 0.5) == []


def test_disjoint_runs_hand_on_ascending_id_arrays():
    pools = []

    def engine(pool):
        pools.append(pool)
        return greedy(FL5x8, pool, 2)

    runs = disjoint_runs(engine, {7, 1, 3, 0, 5}, 3)
    assert sorted(pools[0]) == [0, 1, 3, 5, 7]  # the first pool as given, listed once
    for pool, before in zip(pools[1:], runs):
        assert pool.dtype.kind == "i" and (np.diff(pool) > 0).all()
        assert not set(pool.tolist()) & set(before.picks)
    assert sorted(e for run in runs for e in run.picks) == [0, 1, 3, 5, 7]
