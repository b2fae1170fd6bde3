import json
import math
import os
import pickle
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scan_families
from prunekit import exact
from prunekit.harness import (PRUNER_NAMES, containment_report, paired_bootstrap,
                              run_pruner, separation_study, speedup_probe, sweep)
from prunekit.instances import GenSpec, gen_coverage, gen_gnm, gen_interference
from prunekit.knapsack import KnapsackInstance, KnapsackPrunedSet, prune_sdg_density
from prunekit.objectives import Cut, Modular, value_table
from prunekit.prune import PrunedSet, prune_random, prune_seq_disjoint
from prunekit.objectives import OracleStats
from prunekit.selection import greedy


def full_universe(n):
    return PrunedSet("full_universe", {"n": n}, list(range(n)), {"kind": "flat"},
                     OracleStats())


class TestOneSweep:
    """An exact containment report enumerates N once, with P's profile read
    off that sweep, and never P on its own; it still counts both sweeps."""

    def sweeps(self, run):
        with mock.patch.object(exact, "opt_cardinality", wraps=exact.opt_cardinality) as spy:
            out = run()
        return [(list(call.args[1]), sorted(call.kwargs.get("inside", ()))) for call in
                spy.call_args_list], out

    def test_containment_report(self):
        obj = gen_interference(12, 20, seed=2)
        pruned = prune_seq_disjoint(obj, 12, 3, ell=2)
        calls, report = self.sweeps(lambda: containment_report(obj, pruned, 3))
        assert calls == [(list(range(12)), pruned.elements)]
        counts = [exact.cardinality_subset_count(u, 3) for u in (6, 12)]
        assert report.resources["eval_enumerated"] == sum(counts)

    def test_cli_eval(self, tmp_path):
        from prunekit.cli import main
        graph, pfile, rfile = (str(tmp_path / f) for f in ("g.txt", "p.json", "r.json"))
        assert main(["gen", "--family", "gnm", "--n", "14", "--m", "30", "--out", graph]) == 0
        assert main(["prune", "--graph", graph, "--algo", "seq_disjoint", "--ell", "2",
                     "--k", "3", "--out", pfile]) == 0
        calls, code = self.sweeps(lambda: main(["eval", "--graph", graph, "--pruned", pfile,
                                                "--k", "3", "--out", rfile]))
        assert code == 0
        with open(pfile) as fh:
            assert calls == [(list(range(14)), json.load(fh)["body"]["elements"])]


class TestContainmentReport:
    def test_identity_pruning_gives_alpha_one(self):
        obj = gen_interference(10, 14, seed=1)
        report = containment_report(obj, full_universe(10), 3)
        assert report.alphas == [1.0, 1.0, 1.0]
        assert report.reference == "exact"

    def test_timing_kept_out_of_the_serial_form(self):
        obj = gen_interference(10, 14, seed=1)
        report = containment_report(obj, full_universe(10), 3)
        assert set(report.timing) == {"prune_elapsed", "eval_elapsed"}
        assert "timing" not in report.to_dict()
        again = containment_report(obj, full_universe(10), 3)
        assert again.to_dict() == report.to_dict()

    @pytest.mark.parametrize("reference", ["exact", "greedy"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, reference, k):
        obj = gen_coverage(6, 8, seed=1)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            containment_report(obj, full_universe(6), k, reference=reference)

    def test_zero_denominator_convention(self):
        obj = Modular([0.0, 0.0, 0.0])
        report = containment_report(obj, prune_random(3, 2, seed=0), 2)
        assert report.alphas == [1.0, 1.0]

    def test_alpha_within_unit_interval_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(8, 15))
            obj = gen_interference(n, 15, seed=int(rng.integers(2**32)))
            pruned = prune_random(n, 5, seed=int(rng.integers(2**32)))
            report = containment_report(obj, pruned, 3)
            assert all(0.0 <= a <= 1.0 for a in report.alphas)

    def test_budgets_past_the_pruned_set_read_its_whole_optimum(self):
        # |P| = 2 < k = 5: OPT over P stops growing at |P|, and every budget
        # keeps its alpha
        obj = Cut(8, gen_gnm(8, 14, seed=1))
        pruned = prune_random(8, 2, seed=0)
        report = containment_report(obj, pruned, 5)
        inside = exact.opt_cardinality(obj, pruned.elements, 2)
        assert report.budgets == [1, 2, 3, 4, 5] and len(report.alphas) == 5
        assert report.best_inside == [inside.opt_by_budget[min(b, 2)] for b in report.budgets]
        assert report.best_inside_sets[-1] == list(inside.argmax_by_budget[2])
        assert report.denominators == exact.opt_cardinality(obj, range(8), 5).opt_by_budget[1:]
        assert report.alpha_at_k == report.alphas[-1] == 0.6

    def test_empty_pruned_set_and_budgets_past_n(self):
        # a path 0-1-2-3: OPT_k' over N is 2, then 3 from k' = 2 to k = 6 > n
        obj = Cut(4, [(0, 1), (1, 2), (2, 3)])
        report = containment_report(obj, prune_random(4, 0, seed=0), 6)
        assert report.budgets == [1, 2, 3, 4, 5, 6]
        assert report.best_inside == [0.0] * 6 and report.best_inside_sets == [[]] * 6
        assert report.denominators == [2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        assert report.alphas == [0.0] * 6

    def test_greedy_reference_can_exceed_one(self):
        # P = N with a non-monotone objective: best-in-P is the true optimum,
        # which can beat the greedy prefix reference
        obj = Cut(12, gen_gnm(12, 30, seed=3))
        report = containment_report(obj, full_universe(12), 4, reference="greedy")
        assert max(report.alphas) >= 1.0

    def test_round_trip_fidelity(self, tmp_path):
        obj = gen_interference(12, 16, seed=4)
        pruned = prune_seq_disjoint(obj, 12, 3, ell=2)
        before = containment_report(obj, pruned, 3)
        path = tmp_path / "p.json"
        pruned.save(path)
        after = containment_report(obj, PrunedSet.load(path), 3)
        assert before.alphas == after.alphas

    def test_greedy_reference_past_the_guard_reads_greedy_on_p(self, monkeypatch):
        # C(10, <= 3) = 176 subsets of P exceed the guard: best-in-P falls
        # back to greedy on P, with no witnesses and nothing enumerated
        monkeypatch.setenv(exact.GUARD_ENV, "100")
        obj = gen_coverage(16, 20, seed=5)
        pruned = prune_random(16, 10, seed=1)
        report = containment_report(obj, pruned, 3, reference="greedy")
        assert report.inside_exact is False
        assert report.best_inside_sets == [[], [], []]
        assert report.resources["eval_enumerated"] == 0
        on_p = greedy(obj, pruned.elements, 3)
        assert report.best_inside == [float(obj.eval(on_p.picks[:j])) for j in (1, 2, 3)]

    def test_exact_reference_guard(self, monkeypatch):
        monkeypatch.setenv(exact.GUARD_ENV, "500")
        obj = Modular(np.ones(40))
        with pytest.raises(exact.GuardExceeded):
            containment_report(obj, prune_random(40, 10, seed=0), 8)

    def test_invalid_reference(self, triangle):
        with pytest.raises(ValueError):
            containment_report(triangle, full_universe(3), 2, reference="oracle")


class TestRunPruner:
    def test_omega_conventions(self):
        obj = gen_interference(12, 16, seed=5)
        assert len(run_pruner("seq_disjoint", obj, 12, 3, omega=2).elements) <= 6
        assert len(run_pruner("std_greedy", obj, 12, 3, omega=2).elements) == 6
        assert len(run_pruner("random", obj, 12, 3, omega=2, seed=1).elements) == 6
        assert len(run_pruner("window_max", obj, 12, 3, omega=2).elements) <= 3 + 2 * 9
        assert run_pruner("fast_budget_range", obj, 12, 3, epsilon=0.2).algorithm \
            == "fast_budget_range"
        assert run_pruner("threshold_stream", obj, 12, 3, omega=2).algorithm \
            == "threshold_stream"

    def test_unknown_name(self, triangle):
        with pytest.raises(ValueError):
            run_pruner("magic", triangle, 3, 1, omega=1)


def _saved_and_loaded(pruned, cls):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pruned.json")
        pruned.save(path)
        return cls.load(path)


def _small_objective(family, n, seed):
    if family == "cut":
        return Cut(n, gen_gnm(n, min(2 * n, n * (n - 1) // 2), seed=seed))
    return (gen_interference if family == "interference" else gen_coverage)(n, 10, seed=seed)


class TestSaveLoadRoundTrip:
    """A saved pruned set loads back to the same dict, timing included."""

    @given(st.sampled_from(PRUNER_NAMES), st.sampled_from(["cut", "coverage", "interference"]),
           st.integers(1, 10), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_pruned_set(self, name, family, n, k, omega, seed):
        obj = _small_objective(family, n, seed)
        pruned = run_pruner(name, obj, n, k, omega=omega, epsilon=0.2, seed=seed)
        loaded = _saved_and_loaded(pruned, PrunedSet)
        assert loaded.to_dict(include_timing=True) == pruned.to_dict(include_timing=True)

    @given(st.sampled_from(["coverage", "interference"]), st.integers(1, 10),
           st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_knapsack_pruned_set(self, family, n, ell, seed):
        obj = _small_objective(family, n, seed)
        costs = np.random.default_rng(seed).uniform(0.05, 1.0, size=n).tolist()
        pruned = prune_sdg_density(obj, KnapsackInstance(costs, 1.0), ell=ell)
        loaded = _saved_and_loaded(pruned, KnapsackPrunedSet)
        assert loaded.to_dict(include_timing=True) == pruned.to_dict(include_timing=True)


class TestSweep:
    def test_single_cell(self):
        obj = gen_coverage(10, 15, seed=6)
        result = sweep([("inst", obj)], [{"algo": "std_greedy", "omega": 2}],
                       k=3, seeds=[0])
        assert len(result.rows) == 1
        assert result.aggregates[0]["cells"] == 1
        assert not result.errors

    def test_omega_grid_cells(self):
        obj = gen_coverage(10, 15, seed=7)
        algos = [{"algo": "random", "omega": w} for w in (2, 3, 5)]
        result = sweep([("inst", obj)], algos, k=2, seeds=[0, 1, 2])
        assert len(result.rows) == 9
        assert len(result.aggregates) == 3
        for agg in result.aggregates:
            assert agg["cells"] == 3

    def test_gen_spec_instances_and_errors_recorded(self):
        spec = {"family": "gnm", "params": {"n": 10, "m": 20}, "seed": 0}
        result = sweep([("g0", spec)],
                       [{"algo": "seq_disjoint", "omega": 2},
                        {"algo": "fast_budget_range"}],  # missing epsilon -> error
                       k=3, seeds=[0])
        assert len(result.rows) == 1
        assert len(result.errors) == 1
        assert "epsilon" in result.errors[0]["error"]

    def test_jobs_parallel_matches_serial(self):
        spec = {"family": "interference", "params": {"n": 10, "universe_m": 12}, "seed": 1}
        algos = [{"algo": "seq_disjoint", "omega": 2}, {"algo": "random", "omega": 2}]
        serial = sweep([("i1", spec)], algos, k=3, seeds=[0, 1])
        parallel = sweep([("i1", spec)], algos, k=3, seeds=[0, 1], jobs=2)
        assert serial.rows == parallel.rows

    def test_parallel_ships_instances_as_they_are(self):
        # every family, the serial-form-less table included, and a spec reach
        # the workers by pickling, with the values they had
        insts = sorted(scan_families(n=6, seed=4).items())
        for _, obj in insts:
            assert np.array_equal(value_table(pickle.loads(pickle.dumps(obj))),
                                  value_table(obj))
        spec = GenSpec("interference", {"n": 8, "universe_m": 10, "lam": 0.5}, seed=2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        insts.append(("spec", spec))
        algos = [{"algo": "seq_disjoint", "omega": 2}]
        serial = sweep(insts, algos, k=2, seeds=[0])
        parallel = sweep(insts, algos, k=2, seeds=[0], jobs=2)
        assert len(serial.rows) == len(insts) and not serial.errors
        assert parallel.rows == serial.rows and not parallel.errors

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [{"algo": "random", "omega": 2}], 2, [0])

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected_before_any_cell(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            sweep([("inst", gen_coverage(6, 8, seed=1))], [{"algo": "random", "omega": 2}],
                  k=k, seeds=[0])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected_before_any_cell(self, jobs):
        with mock.patch("prunekit.harness._sweep_cell_safe") as cell:
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                sweep([("inst", gen_coverage(6, 8, seed=1))],
                      [{"algo": "random", "omega": 2}], k=2, seeds=[0], jobs=jobs)
        cell.assert_not_called()

    @pytest.mark.parametrize("jobs,cells,workers", [(64, 3, 3), (2, 3, 2), (64, 1, None)])
    def test_pool_holds_at_most_one_worker_per_cell(self, jobs, cells, workers):
        # a spy in place of the pool: it records its size and maps in process
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        inst = ("inst", gen_coverage(6, 8, seed=1))
        algos = [{"algo": "random", "omega": 2}]
        with mock.patch("prunekit.harness.ProcessPoolExecutor", Pool):
            result = sweep([inst], algos, k=2, seeds=list(range(cells)), jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        assert result.rows == sweep([inst], algos, k=2, seeds=list(range(cells))).rows

    def test_gen_spec_instance_payload(self):
        spec = GenSpec("gnm", {"n": 10, "m": 20}, seed=4)
        result = sweep([("g", spec)], [{"algo": "std_greedy", "omega": 2}],
                       k=3, seeds=[0])
        assert len(result.rows) == 1 and not result.errors


class TestSeparation:
    def test_monotone_degenerate_no_separation(self):
        # no interference: monotone coverage, high and near-equal containment
        result = separation_study({"n": 12, "universe_m": 30,
                                   "interference_prob": 0.0},
                                  trials=100, k=3, omega=2, seed=1)
        assert result.sdg_contain_any >= 0.85
        assert result.greedy_contain_any >= 0.85
        assert abs(result.sdg_contain_any - result.greedy_contain_any) <= 0.10
        assert result.separation_rate <= 0.10

    def test_greedy_extraction_cannot_separate(self):
        # deterministic greedy re-extraction walks the shared trajectory
        result = separation_study({"n": 14, "universe_m": 30},
                                  trials=60, k=3, omega=2, seed=2)
        assert result.greedy_value_separations == 0

    def test_rates_are_probabilities(self):
        result = separation_study({"n": 12, "universe_m": 30},
                                  trials=50, k=3, omega=2, seed=3)
        for field in ("greedy_contain", "sdg_contain", "greedy_contain_any",
                      "sdg_contain_any", "separation_rate", "greedy_subopt"):
            assert 0.0 <= getattr(result, field) <= 1.0
        assert result.sdg_contain_any >= result.sdg_contain
        assert result.to_dict()["trials"] == 50

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_outside_one_to_n_is_rejected(self, k):
        with pytest.raises(ValueError, match="k must be in 1..n=4"):
            separation_study({"n": 4, "universe_m": 30}, trials=1, k=k, omega=2)


class TestBootstrap:
    def test_constant_diffs(self):
        ci = paired_bootstrap([0.092] * 20, resamples=500, seed=1)
        assert ci.lo == pytest.approx(0.092)
        assert ci.hi == pytest.approx(0.092)
        assert ci.mean == pytest.approx(0.092)
        assert ci.to_dict() == {"lo": ci.lo, "hi": ci.hi, "mean": ci.mean}

    def test_balanced_diffs_straddle_zero(self):
        ci = paired_bootstrap([1.0, -1.0] * 25, resamples=2000, seed=2)
        assert ci.lo < 0.0 < ci.hi

    def test_width_matches_normal_theory(self):
        rng = np.random.default_rng(3)
        diffs = rng.normal(0.092, 0.23, size=50)
        ci = paired_bootstrap(diffs, resamples=10000, seed=42)
        closed_form = 2 * 1.96 * np.std(diffs, ddof=1) / math.sqrt(50)
        width = ci.hi - ci.lo
        assert 0.7 * closed_form <= width <= 1.3 * closed_form

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            paired_bootstrap([])

    def test_no_resamples_rejected(self):
        with pytest.raises(ValueError, match="resamples must be >= 1, got 0"):
            paired_bootstrap([0.1, 0.2], resamples=0)


class TestSpeedupProbe:
    def test_identity_pruning_ratio_near_one(self):
        obj = Cut(14, gen_gnm(14, 40, seed=8))
        result = speedup_probe(obj, 14, 3, full_universe(14))
        assert result.alpha == 1.0
        assert 0.2 <= result.ratio <= 5.0

    def test_guard_capping_flagged(self, monkeypatch):
        monkeypatch.setenv(exact.GUARD_ENV, "5000")
        obj = Modular(np.ones(30))
        result = speedup_probe(obj, 30, 5, full_universe(30))
        assert result.guard_limited
        assert json.loads(json.dumps(result.to_dict())) == {
            "t_full": result.t_full, "t_pruned": result.t_pruned, "ratio": result.ratio,
            "alpha": result.alpha, "pruned_size": result.pruned_size, "guard_limited": True}

    @pytest.mark.parametrize("k", [0, -1])
    def test_budget_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            speedup_probe(Modular([1.0, 2.0, 3.0]), 3, k, full_universe(3))
