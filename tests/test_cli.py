import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import prunekit
from prunekit import exact
from prunekit.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_PARSE, main
from prunekit.instances import gen_interference, load_edge_list


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


def body_text(path):
    doc = read_doc(path)
    return json.dumps(doc["body"], sort_keys=True)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    assert main(["gen", "--family", "gnm", "--n", "14", "--m", "30",
                 "--seed", "3", "--out", str(path)]) == EXIT_OK
    return path


class TestGen:
    def test_gnm_negative_n_is_config_error(self, tmp_path, capsys):
        assert main(["gen", "--family", "gnm", "--n", "-1", "--m", "1",
                     "--out", str(tmp_path / "g.txt")]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["kind"] == "config_error"

    def test_gnm_writes_loadable_graph(self, graph_file):
        edges = load_edge_list(graph_file)
        assert len(edges) == 30
        header = graph_file.read_text().splitlines()[:3]
        assert any("config" in line for line in header)

    def test_interference_objective_file(self, tmp_path):
        out = tmp_path / "i.json"
        assert main(["gen", "--family", "interference", "--n", "10",
                     "--universe-m", "12", "--seed", "1", "--out", str(out)]) == EXIT_OK
        doc = read_doc(out)
        assert doc["body"]["variant"] == "interference_coverage"
        assert doc["header"]["config"]["universe_m"] == 12

    def test_planted_flags_invented_defaults(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["gen", "--family", "planted", "--n", "12",
                     "--communities", "3", "--seed", "0", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "invented_defaults" in text

    def test_missing_params_config_error(self, tmp_path):
        assert main(["gen", "--family", "gnm", "--out",
                     str(tmp_path / "x.txt")]) == EXIT_CONFIG

    def test_pinned_lam_echoed_in_header(self, tmp_path):
        outs = [tmp_path / "free.json", tmp_path / "pinned.json"]
        for out, extra in zip(outs, ([], ["--lam", "1.25"])):
            assert main(["gen", "--family", "interference", "--n", "10",
                         "--universe-m", "12", "--seed", "1", *extra,
                         "--out", str(out)]) == EXIT_OK
        free, pinned = (read_doc(out)["header"]["config"] for out in outs)
        assert "lam" not in free and pinned.pop("lam") == 1.25
        assert pinned == free
        assert read_doc(outs[1])["body"] == gen_interference(10, 12, 1, lam=1.25).to_dict()

    @pytest.mark.parametrize("family,flags", [("coverage", []), ("gnm", ["--m", "12"]),
                                              ("planted", ["--communities", "2"])])
    def test_lam_outside_interference_is_config_error(self, tmp_path, capsys, family, flags):
        out = tmp_path / "x.out"
        assert main(["gen", "--family", family, "--n", "8", *flags, "--lam", "1.0",
                     "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"record": "error", "kind": "config_error", "message":
                          f"--lam applies to the interference family, not {family}"}
        assert not out.exists()


class TestPruneEval:
    def test_pipeline(self, tmp_path, graph_file):
        pruned = tmp_path / "p.json"
        report = tmp_path / "r.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "seq_disjoint",
                     "--k", "4", "--omega", "2", "--out", str(pruned)]) == EXIT_OK
        assert main(["eval", "--graph", str(graph_file), "--pruned", str(pruned),
                     "--k", "4", "--reference", "exact", "--out", str(report)]) == EXIT_OK
        doc = read_doc(report)
        alphas = doc["body"]["report"]["alphas"]
        assert len(alphas) == 4 and all(0 <= a <= 1 for a in alphas)
        assert doc["header"]["config"]["reference"] == "exact"

    def test_epsilon_floor(self, tmp_path, graph_file):
        argv = ["prune", "--graph", str(graph_file), "--algo", "fast_budget_range",
                "--k", "3", "--out", str(tmp_path / "p.json"), "--epsilon"]
        t0 = time.process_time()
        assert main(argv + ["1e-9"]) == EXIT_CONFIG
        assert time.process_time() - t0 < 1.0
        assert main(argv + ["1e-3"]) == EXIT_OK

    def test_eval_full_universe_alpha_one(self, tmp_path, graph_file):
        report = tmp_path / "r.json"
        assert main(["eval", "--graph", str(graph_file), "--full", "--k", "3",
                     "--out", str(report)]) == EXIT_OK
        assert read_doc(report)["body"]["report"]["alphas"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_config_error(self, tmp_path, graph_file, capsys, k):
        report = tmp_path / "r.json"
        assert main(["eval", "--graph", str(graph_file), "--full", "--k", k,
                     "--out", str(report)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"] == f"k must be >= 1, got {k}"
        assert not report.exists()

    def test_reproducible_bodies(self, tmp_path, graph_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cmd = ["prune", "--graph", str(graph_file), "--algo", "window_rand",
               "--k", "3", "--omega", "2", "--seed", "11"]
        assert main(cmd + ["--out", str(a)]) == EXIT_OK
        assert main(cmd + ["--out", str(b)]) == EXIT_OK
        assert body_text(a) == body_text(b)

    def test_reproducible_eval_bodies(self, tmp_path, graph_file):
        pruned = tmp_path / "p.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "seq_disjoint",
                     "--k", "3", "--ell", "2", "--out", str(pruned)]) == EXIT_OK
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cmd = ["eval", "--graph", str(graph_file), "--pruned", str(pruned), "--k", "3",
               "--reference", "exact"]
        assert main(cmd + ["--out", str(a)]) == EXIT_OK
        assert main(cmd + ["--out", str(b)]) == EXIT_OK
        assert body_text(a) == body_text(b)
        timing = read_doc(a)["header"]["timing"]
        assert {"elapsed", "prune_elapsed", "eval_elapsed"} <= set(timing)
        assert not any(key.endswith("_elapsed")
                       for key in read_doc(a)["body"]["report"]["resources"])

    def test_config_echo(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        main(["prune", "--graph", str(graph_file), "--algo", "std_greedy",
              "--k", "3", "--omega", "3", "--out", str(out)])
        cfg = read_doc(out)["header"]["config"]
        assert cfg["algo"] == "std_greedy" and cfg["omega"] == 3
        assert cfg["objective"]["variant"] == "cut"

    def test_knapsack_pipeline(self, tmp_path, graph_file):
        costs = tmp_path / "c.csv"
        costs.write_text("".join(f"{e},{0.2 + 0.05 * (e % 4)}\n" for e in range(14)))
        pruned = tmp_path / "kp.json"
        report = tmp_path / "kr.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "sdg_density",
                     "--costs", str(costs), "--budget", "1.0", "--ell", "2",
                     "--out", str(pruned)]) == EXIT_OK
        assert main(["eval", "--graph", str(graph_file), "--pruned", str(pruned),
                     "--costs", str(costs), "--budget", "1.0", "--budgets-grid", "4",
                     "--out", str(report)]) == EXIT_OK
        body = read_doc(report)["body"]
        assert body["kind"] == "knapsack" and len(body["alphas"]) == 4

    def test_missing_objective_is_config_error(self, tmp_path):
        assert main(["prune", "--algo", "random", "--k", "2", "--omega", "2",
                     "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG


class TestKnapsackEval:
    """A knapsack eval extracts under the costs of its pruned file and sweeps
    the power set of N once when P is all of N."""

    def costs(self, tmp_path, name, lo, hi):
        path = tmp_path / name
        path.write_text("".join(f"{e},{lo + (hi - lo) * e / 13}\n" for e in range(14)))
        return path

    def prune(self, tmp_path, graph_file, costs, ell):
        pruned = tmp_path / "kp.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "sdg_density",
                     "--costs", str(costs), "--budget", "1.0", "--ell", str(ell),
                     "--out", str(pruned)]) == EXIT_OK
        return pruned

    def eval_argv(self, tmp_path, graph_file, costs, source, budget="1.0"):
        return ["eval", "--graph", str(graph_file), *source, "--costs", str(costs),
                "--budget", budget, "--budgets-grid", "4", "--out", str(tmp_path / "r.json")]

    def test_pruned_under_other_costs_is_config_error(self, tmp_path, graph_file, capsys):
        cheap = self.costs(tmp_path, "c1.csv", 0.01, 0.03)
        dear = self.costs(tmp_path, "c2.csv", 0.3, 0.6)
        pruned = self.prune(tmp_path, graph_file, cheap, ell=2)
        argv = self.eval_argv(tmp_path, graph_file, dear, ["--pruned", str(pruned)])
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "config_error"
        assert "kp.json" in record["message"] and "c2.csv" in record["message"]

    def test_a_smaller_budget_is_allowed(self, tmp_path, graph_file):
        cheap = self.costs(tmp_path, "c1.csv", 0.01, 0.03)
        pruned = self.prune(tmp_path, graph_file, cheap, ell=2)
        argv = self.eval_argv(tmp_path, graph_file, cheap, ["--pruned", str(pruned)],
                              budget="0.5")
        assert main(argv) == EXIT_OK
        assert max(read_doc(tmp_path / "r.json")["body"]["budgets"]) == 0.5

    @pytest.mark.parametrize("source, lo, hi, size, sweeps", [
        ("full", 0.3, 0.6, 14, 1), ("pruned", 0.01, 0.03, 14, 1), ("pruned", 0.3, 0.6, 6, 2),
    ], ids=["full", "p_is_n", "p_strict"])
    def test_power_set_of_n_swept_once(self, tmp_path, graph_file, monkeypatch,
                                       source, lo, hi, size, sweeps):
        costs = self.costs(tmp_path, "c.csv", lo, hi)
        args = (["--full"] if source == "full" else
                ["--pruned", str(self.prune(tmp_path, graph_file, costs, ell=1))])
        universes = []
        sweep = exact.opt_knapsack
        monkeypatch.setattr(exact, "opt_knapsack",
                            lambda obj, universe, *rest: universes.append(list(universe))
                            or sweep(obj, universe, *rest))
        assert main(self.eval_argv(tmp_path, graph_file, costs, args)) == EXIT_OK
        assert read_doc(tmp_path / "r.json")["body"]["pruned_size"] == size
        assert len(universes) == sweeps and universes[0] == list(range(14))


class TestObjectiveSources:
    def test_gen_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "interference",
                                    "params": {"n": 10, "universe_m": 12},
                                    "seed": 5}))
        out = tmp_path / "p.json"
        assert main(["prune", "--gen-spec", str(spec), "--algo", "seq_disjoint",
                     "--k", "3", "--ell", "2", "--out", str(out)]) == EXIT_OK
        assert len(read_doc(out)["body"]["elements"]) <= 6

    @pytest.mark.parametrize("wanted, code", [("coverage", EXIT_OK), ("auto", EXIT_OK),
                                              ("cut", EXIT_CONFIG)])
    def test_objective_flag_checks_the_gen_spec_variant(self, tmp_path, wanted, code):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "coverage",
                                    "params": {"n": 8, "universe_m": 12}}))
        assert main(["prune", "--gen-spec", str(spec), "--objective", wanted,
                     "--algo", "seq_disjoint", "--k", "2", "--ell", "2",
                     "--out", str(tmp_path / "p.json")]) == code

    @pytest.mark.parametrize("spec", [
        {"params": {"n": 5}, "seed": 1},
        [{"family": "gnm", "params": {"n": 5, "m": 4}}],
        {"family": "gnm", "params": {"m": 4}},
    ], ids=["no_family", "not_an_object", "no_params_n"])
    def test_malformed_gen_spec_is_parse_error(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["eval", "--gen-spec", str(path), "--full", "--k", "2",
                     "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["kind"] == "input_parse_error"

    @pytest.mark.parametrize("params", [{"n": 6, "m": 4, "bogus": 1}, {"n": 6}],
                             ids=["unknown_key", "missing_key"])
    def test_gen_spec_params_the_generator_does_not_take(self, tmp_path, capsys, params):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "gnm", "params": params}))
        assert main(["eval", "--gen-spec", str(path), "--full", "--k", "2",
                     "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["kind"] == "input_parse_error"

    def test_negative_penalty_size_is_parse_error(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        sim.write_text("1.0,0.4\n0.3,0.9\n")
        pen = tmp_path / "pen.csv"
        pen.write_text("0,0.0\n-1,0.05\n1,0.1\n")
        assert main(["prune", "--sim", str(sim), "--penalty", str(pen),
                     "--algo", "seq_disjoint", "--k", "1", "--ell", "2",
                     "--out", str(tmp_path / "p.json")]) == EXIT_PARSE
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "input_parse_error"
        assert record["message"].endswith("pen.csv:2: sizes must be >= 0")

    @pytest.mark.parametrize("source,text,message", [
        ("rel", "0,nan\n1,0.2\n", "rel.csv:1: score of id 0 must be finite, got nan"),
        ("penalty", "0,0.0\n1,nan\n2,0.3\n", "penalty.csv:2: theta of size 1 must be finite, got nan"),
    ])
    def test_nan_score_or_theta_is_parse_error(self, tmp_path, capsys, source, text, message):
        sim = tmp_path / "sim.csv"
        sim.write_text("1.0,0.4\n0.3,0.9\n")
        path = tmp_path / f"{source}.csv"
        path.write_text(text)
        assert main(["prune", "--sim", str(sim), f"--{source}", str(path), "--tau", "0.3",
                     "--algo", "std_greedy", "--k", "1", "--omega", "1",
                     "--out", str(tmp_path / "p.json")]) == EXIT_PARSE
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "input_parse_error"
        assert record["message"].endswith(message)

    @pytest.mark.parametrize("cost", ["nan", "inf", "0", "-1"])
    def test_bad_cost_is_parse_error_at_its_line(self, tmp_path, capsys, graph_file, cost):
        costs = tmp_path / "c.csv"
        costs.write_text("".join(f"{e},{cost if e == 2 else 0.1}\n" for e in range(14)))
        assert main(["prune", "--graph", str(graph_file), "--algo", "sdg_density",
                     "--costs", str(costs), "--budget", "1.0", "--ell", "2",
                     "--out", str(tmp_path / "p.json")]) == EXIT_PARSE
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "input_parse_error"
        assert "c.csv:3: cost of element 2 must be positive" in record["message"]

    def test_proxy_from_sim_and_penalty(self, tmp_path):
        sim = tmp_path / "sim.csv"
        sim.write_text("1.0,0.4,0.2\n0.3,0.9,0.1\n0.2,0.2,0.8\n")
        pen = tmp_path / "pen.csv"
        pen.write_text("0,0.0\n1,0.05\n2,0.15\n3,0.3\n")
        out = tmp_path / "p.json"
        assert main(["prune", "--sim", str(sim), "--penalty", str(pen),
                     "--algo", "seq_disjoint", "--k", "2", "--ell", "2",
                     "--out", str(out)]) == EXIT_OK
        assert read_doc(out)["header"]["config"]["objective"]["variant"] == "proxy"

    def test_rfl_from_sim_rel_tau(self, tmp_path):
        sim = tmp_path / "sim.csv"
        sim.write_text("1.0,0.4\n0.3,0.9\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("0,0.8\n1,0.2\n")
        out = tmp_path / "c.json"
        assert main(["check", "--sim", str(sim), "--rel", str(rel),
                     "--tau", "0.5", "--out", str(out)]) == EXIT_OK
        assert read_doc(out)["header"]["config"]["objective"]["variant"] \
            == "restricted_fl"

    def test_variant_mismatch_rejected(self, tmp_path, graph_file):
        assert main(["check", "--graph", str(graph_file), "--objective",
                     "coverage"]) == EXIT_CONFIG

    def test_coverage_file_source(self, tmp_path):
        cov = tmp_path / "cov.txt"
        cov.write_text("0: 1 2\n1: 2 3\n2: 4\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--coverage", str(cov), "--full", "--k", "2",
                     "--out", str(out)]) == EXIT_OK
        assert read_doc(out)["body"]["report"]["alphas"] == [1.0, 1.0]


class TestErrors:
    def test_malformed_graph_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot an edge\n")
        assert main(["check", "--graph", str(bad)]) == EXIT_PARSE

    def test_guard_exceeded_exit_code(self, tmp_path, graph_file, monkeypatch):
        monkeypatch.setenv("PRUNEKIT_GUARD", "10")
        assert main(["eval", "--graph", str(graph_file), "--full", "--k", "3",
                     "--out", str(tmp_path / "r.json")]) == EXIT_GUARD

    @pytest.mark.parametrize("grid", ["0.5,2.0", "nan,0.5"])
    def test_knapsack_grid_checked_before_the_guard(self, tmp_path, graph_file,
                                                     monkeypatch, grid):
        # budgets outside (0, B] are a config error before the guard or any
        # sweep over N
        monkeypatch.setenv("PRUNEKIT_GUARD", "10")
        costs = tmp_path / "c.csv"
        costs.write_text("".join(f"{e},0.3\n" for e in range(14)))
        assert main(["eval", "--graph", str(graph_file), "--full", "--costs", str(costs),
                     "--budget", "1.0", "--budgets", grid,
                     "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG

    def test_proxy_shift_beyond_the_guard(self, tmp_path, monkeypatch):
        # the shift enumerates the facility location's 2^12 subsets
        monkeypatch.setenv("PRUNEKIT_GUARD", "1000")
        sim = tmp_path / "sim.csv"
        sim.write_text("".join(",".join(f"{(3 * i + 7 * j) % 10 / 10 + 0.1:.1f}"
                                        for j in range(12)) + "\n" for i in range(3)))
        pen = tmp_path / "pen.csv"
        pen.write_text("".join(f"{s},{0.01 * s * s}\n" for s in range(13)))
        args = ["prune", "--sim", str(sim), "--penalty", str(pen),
                "--algo", "seq_disjoint", "--k", "2", "--ell", "2"]
        assert main([*args, "--out", str(tmp_path / "plain.json")]) == EXIT_OK
        assert main([*args, "--shift", "--out", str(tmp_path / "shifted.json")]) == EXIT_GUARD
        assert not (tmp_path / "shifted.json").exists()

    def test_unknown_flag_exit_two(self):
        assert main(["prune", "--nope"]) == EXIT_CONFIG

    def test_mismatched_pruned_kind(self, tmp_path, graph_file):
        pruned = tmp_path / "p.json"
        costs = tmp_path / "c.csv"
        costs.write_text("".join(f"{e},0.3\n" for e in range(14)))
        main(["prune", "--graph", str(graph_file), "--algo", "seq_disjoint",
              "--k", "3", "--omega", "2", "--out", str(pruned)])
        assert main(["eval", "--graph", str(graph_file), "--pruned", str(pruned),
                     "--costs", str(costs), "--budget", "1.0",
                     "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG


class TestMalformedPruned:
    """A broken --pruned file fails through the error record, never a
    traceback: missing or ill-typed keys are parse errors, ids outside the
    ground set config errors."""

    def edit(self, path, change):
        doc = read_doc(path)
        change(doc["body"])
        path.write_text(json.dumps(doc))

    def error_kind(self, capsys):
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["kind"]

    def cardinality(self, tmp_path, graph_file):
        pruned = tmp_path / "p.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "seq_disjoint",
                     "--k", "3", "--omega", "2", "--out", str(pruned)]) == EXIT_OK
        argv = ["eval", "--graph", str(graph_file), "--pruned", str(pruned), "--k", "3",
                "--out", str(tmp_path / "r.json")]
        return pruned, argv

    def knapsack(self, tmp_path, graph_file):
        pruned, costs = tmp_path / "kp.json", tmp_path / "c.csv"
        costs.write_text("".join(f"{e},0.3\n" for e in range(14)))
        src = ["--graph", str(graph_file), "--costs", str(costs), "--budget", "1.0"]
        assert main(["prune", *src, "--algo", "sdg_density", "--ell", "2",
                     "--out", str(pruned)]) == EXIT_OK
        return pruned, ["eval", *src, "--pruned", str(pruned), "--budgets-grid", "2",
                        "--out", str(tmp_path / "r.json")]

    @pytest.mark.parametrize("kind", ["cardinality", "knapsack"])
    @pytest.mark.parametrize("change", [
        lambda body: body.pop("stats"),
        lambda body: body.update(stats=[1, 2]),
        lambda body: body.update(elements="0 1 2"),
        lambda body: body.update(elements=[0, "1"]),
        lambda body: body.update(elements=[0, 1.5]),
    ], ids=["no_stats", "stats_list", "elements_string", "string_id", "float_id"])
    def test_malformed_body_is_parse_error(self, tmp_path, graph_file, capsys, kind, change):
        pruned, argv = getattr(self, kind)(tmp_path, graph_file)
        self.edit(pruned, change)
        assert main(argv) == EXIT_PARSE
        assert self.error_kind(capsys) == "input_parse_error"

    @pytest.mark.parametrize("kind", ["cardinality", "knapsack"])
    @pytest.mark.parametrize("bad_id", [99, -1, 14])
    def test_ids_outside_ground_set_are_config_error(self, tmp_path, graph_file, capsys,
                                                     kind, bad_id):
        pruned, argv = getattr(self, kind)(tmp_path, graph_file)
        self.edit(pruned, lambda body: body["elements"].__setitem__(-1, bad_id))
        assert main(argv) == EXIT_CONFIG
        assert self.error_kind(capsys) == "config_error"

    @pytest.mark.parametrize("cost", [0.0, -0.3, "0.3"])
    def test_knapsack_run_cost_not_positive_is_parse_error(self, tmp_path, graph_file,
                                                           capsys, cost):
        pruned, argv = self.knapsack(tmp_path, graph_file)
        self.edit(pruned, lambda body: body["runs"][0]["costs"].__setitem__(0, cost))
        assert main(argv) == EXIT_PARSE
        assert self.error_kind(capsys) == "input_parse_error"

    def test_knapsack_instance_size_mismatch_is_config_error(self, tmp_path, graph_file,
                                                             capsys):
        pruned, argv = self.knapsack(tmp_path, graph_file)
        self.edit(pruned, lambda body: body["instance"]["costs"].pop())
        assert main(argv) == EXIT_CONFIG
        assert self.error_kind(capsys) == "config_error"

    def test_cardinality_ground_set_size_mismatch_is_config_error(self, tmp_path, graph_file,
                                                                  capsys):
        # pruned on 14 vertices, evaluated on 20: every id fits, n does not
        pruned, argv = self.cardinality(tmp_path, graph_file)
        larger = tmp_path / "g20.txt"
        assert main(["gen", "--family", "gnm", "--n", "20", "--m", "40", "--seed", "3",
                     "--out", str(larger)]) == EXIT_OK
        argv[argv.index(str(graph_file))] = str(larger)
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "config_error"
        assert "pruned for 14 elements, the objective has n=20" in record["message"]

    def test_empty_body_without_n_evaluates(self, tmp_path, graph_file):
        # a k = 0 body names no ground-set size; every budget reads f(empty)
        pruned = tmp_path / "p0.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "seq_disjoint",
                     "--k", "0", "--omega", "2", "--out", str(pruned)]) == EXIT_OK
        assert "n" not in read_doc(pruned)["body"]["params"]
        assert main(["eval", "--graph", str(graph_file), "--pruned", str(pruned), "--k", "2",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        report = read_doc(tmp_path / "r.json")["body"]["report"]
        assert report["alphas"] == [0.0, 0.0] and report["best_inside_sets"] == [[], []]

    def fast_budget_range(self, tmp_path, graph_file):
        pruned = tmp_path / "f.json"
        assert main(["prune", "--graph", str(graph_file), "--algo", "fast_budget_range",
                     "--k", "3", "--epsilon", "0.2", "--out", str(pruned)]) == EXIT_OK
        return pruned, ["eval", "--graph", str(graph_file), "--pruned", str(pruned),
                        "--k", "3", "--out", str(tmp_path / "r.json")]

    @pytest.mark.parametrize("change", [
        lambda body: body.update(structure={"kind": "flat"}),
        lambda body: body["structure"].pop("picks"),
        lambda body: body.update(structure={"kind": "threshold_grid", "runs": {}}),
        lambda body: body["structure"].update(picks=[0, "1"]),
        lambda body: body["structure"].update(picks=[0, 1.5]),
    ], ids=["flat", "no_picks", "empty_grid", "string_id", "float_id"])
    def test_fast_budget_range_without_run_is_parse_error(self, tmp_path, graph_file,
                                                          capsys, change):
        pruned, argv = self.fast_budget_range(tmp_path, graph_file)
        self.edit(pruned, change)
        assert main(argv) == EXIT_PARSE
        assert self.error_kind(capsys) == "input_parse_error"

    def test_legacy_threshold_grid_file_evaluates(self, tmp_path, graph_file):
        pruned, argv = self.fast_budget_range(tmp_path, graph_file)
        assert main(argv) == EXIT_OK
        alphas = read_doc(tmp_path / "r.json")["body"]["report"]["alphas"]

        def to_grid(body):
            picks = body["structure"]["picks"]
            body["params"]["grid"] = [1, 2, 3]
            body["structure"] = {"kind": "threshold_grid",
                                 "runs": {str(q): picks[:q] for q in (1, 2, 3)}}
            body["cap"] = 6

        self.edit(pruned, to_grid)
        assert main(argv) == EXIT_OK
        assert read_doc(tmp_path / "r.json")["body"]["report"]["alphas"] == alphas

    def test_invalid_json_is_parse_error(self, tmp_path, graph_file, capsys):
        pruned, argv = self.cardinality(tmp_path, graph_file)
        pruned.write_text("{not json")
        assert main(argv) == EXIT_PARSE
        assert self.error_kind(capsys) == "input_parse_error"


PROXY = {"variant": "proxy", "sim": [[0.5, 0.2, 0.9], [0.1, 0.8, 0.3]],
         "penalty": {"theta": [0.0, 0.1, 0.2, 0.3]}, "shift": 0.0, "clamp": False}


class TestMalformedObjective:
    """A broken --objective-file fails through the error record, never a
    traceback: missing or ill-typed fields are parse errors, a value the
    family rejects (a negative or non-finite proxy shift, a NaN weight, an
    infinite interference lam) a config error."""

    def run(self, tmp_path, capsys, payload):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps(payload))
        code = main(["eval", "--objective-file", str(path), "--full", "--k", "2",
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err.strip().splitlines()
        return code, json.loads(err[-1])["kind"] if err else None

    def test_valid_proxy_evaluates(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, PROXY) == (EXIT_OK, None)

    @pytest.mark.parametrize("payload", [
        {key: val for key, val in PROXY.items() if key != "variant"},
        {**PROXY, "shift": "abc"},
        {"variant": "cut", "n": 3, "edges": [[0, 1], [1, 2, 0]]},
        {"variant": "coverage", "weights": None},
        {**PROXY, "penalty": [0.0, 0.1, 0.2, 0.3]},
        {**PROXY, "sim": [[0.5, 0.2], [0.1]]},
        [PROXY],
    ], ids=["no_variant", "string_shift", "three_element_edge", "no_covers",
            "penalty_list", "ragged_sim", "not_an_object"])
    def test_malformed_objective_is_parse_error(self, tmp_path, capsys, payload):
        assert self.run(tmp_path, capsys, payload) == (EXIT_PARSE, "input_parse_error")

    @pytest.mark.parametrize("shift", [-5, float("inf"), float("nan")])
    def test_bad_proxy_shift_is_config_error(self, tmp_path, capsys, shift):
        payload = {**PROXY, "shift": shift}
        assert self.run(tmp_path, capsys, payload) == (EXIT_CONFIG, "config_error")

    def test_nan_weight_is_config_error(self, tmp_path, capsys):
        payload = {"variant": "modular", "weights": [float("nan"), 1.0, 2.0]}
        assert self.run(tmp_path, capsys, payload) == (EXIT_CONFIG, "config_error")

    def test_infinite_interference_lam_is_config_error(self, tmp_path, capsys):
        payload = {"variant": "interference_coverage", "covers": [[0, 1], [1], [2]],
                   "intf": [[0, 1, 1.0]], "lam": float("inf")}
        assert self.run(tmp_path, capsys, payload) == (EXIT_CONFIG, "config_error")

    def test_universe_below_covered_items_is_config_error(self, tmp_path, capsys):
        payload = {"variant": "interference_coverage", "covers": [[0, 5], [1]],
                   "intf": [], "lam": 1.0, "m": 2}
        assert self.run(tmp_path, capsys, payload) == (EXIT_CONFIG, "config_error")


class TestCheck:
    def test_triangle_report(self, tmp_path, capsys):
        g = tmp_path / "tri.txt"
        g.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "check.json"
        assert main(["check", "--graph", str(g), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "submodular: pass" in printed
        assert "monotone: fail" in printed
        body = read_doc(out)["body"]
        assert body["submodular"]["ok"] and not body["monotone"]["ok"]
        assert body["submodular"]["exhaustive"]

    def test_exhaustive_proxy_check_over_13_elements(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        sim, pen = tmp_path / "sim.csv", tmp_path / "pen.csv"
        sim.write_text("".join(",".join(f"{v:.3f}" for v in row) + "\n"
                               for row in rng.random((5, 13))))
        pen.write_text("".join(f"{s},{0.01 * s * s}\n" for s in range(14)))
        out = tmp_path / "check.json"
        assert main(["check", "--sim", str(sim), "--penalty", str(pen), "--trials", "10",
                     "--exhaustive-limit", "13", "--out", str(out)]) == EXIT_OK
        assert "submodular: pass" in capsys.readouterr().out
        assert read_doc(out)["body"]["submodular"]["exhaustive"]

    def test_exhaustive_check_beyond_the_guard_exits_three_at_once(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.delenv("PRUNEKIT_GUARD", raising=False)  # 10^8 < 3^17
        g = tmp_path / "path17.txt"
        g.write_text("".join(f"{i} {i + 1}\n" for i in range(16)))
        t0 = time.process_time()
        assert main(["check", "--graph", str(g), "--exhaustive-limit", "24",
                     "--out", str(tmp_path / "check.json")]) == EXIT_GUARD
        assert time.process_time() - t0 < 1.0
        assert not (tmp_path / "check.json").exists()


class TestSweep:
    def test_inline_family_with_csv(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        csv_out = tmp_path / "table.csv"
        assert main(["sweep", "--family", "gnm", "--n", "12", "--m", "24",
                     "--instance-seeds", "0,1", "--algo", "seq_disjoint,random",
                     "--k", "3", "--omegas", "2,3", "--seeds", "0,1",
                     "--out", str(out), "--csv", str(csv_out)]) == EXIT_OK
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["record"] == "header"
        rows = [l for l in lines if l["record"] == "row"]
        aggs = [l for l in lines if l["record"] == "aggregate"]
        assert len(rows) == 2 * 2 * 2 * 2  # instances x algos x omegas x seeds
        assert len(aggs) == 4
        table = csv_out.read_text().splitlines()
        assert table[0].startswith("algorithm,omega=2,omega=3")
        assert any(line.startswith("seq_disjoint") for line in table)

    def test_gnm_without_m_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--family", "gnm", "--n", "10", "--algo", "random",
                     "--k", "2", "--omegas", "2", "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"record": "error", "kind": "config_error",
                          "message": "gnm needs --n and --m"}
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_config_error(self, tmp_path, graph_file, capsys, k):
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--graph", str(graph_file), "--algo", "random",
                     "--k", k, "--omegas", "2", "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"] == f"k must be >= 1, got {k}"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_config_error(self, tmp_path, graph_file, capsys, jobs):
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--graph", str(graph_file), "--algo", "random",
                     "--k", "2", "--omegas", "2", "--jobs", jobs, "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"] == f"jobs must be >= 1, got {jobs}"
        assert not out.exists()

    def test_jsonl_bodies_reproducible(self, tmp_path, graph_file):
        outs = [tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"]
        for out in outs:
            assert main(["sweep", "--graph", str(graph_file), "--algo", "random",
                         "--k", "3", "--omegas", "2", "--seeds", "0,1,2",
                         "--out", str(out)]) == EXIT_OK
        bodies = [out.read_text().splitlines()[1:] for out in outs]
        assert bodies[0] == bodies[1]


class TestRepeatedMain:
    def test_parse_error_then_sweep_match_a_fresh_process(self, tmp_path):
        # the sweep leaves --seeds and --instance-seeds at their defaults
        args = ["sweep", "--family", "gnm", "--n", "10", "--m", "20",
                "--algo", "seq_disjoint,random", "--k", "2", "--omegas", "2"]
        assert main(["sweep", "--no-such-flag"]) == EXIT_CONFIG
        outs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for out in outs:
            assert main([*args, "--out", str(out)]) == EXIT_OK
        fresh = tmp_path / "fresh.jsonl"
        src = str(Path(prunekit.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-m", "prunekit.cli", *args, "--out", str(fresh)],
                       check=True, capture_output=True, env={**os.environ, "PYTHONPATH": src})

        def without_time(path):
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            del header["generated_at"]
            return [header, *lines[1:]]

        assert without_time(outs[0]) == without_time(outs[1]) == without_time(fresh)


class TestSeparationCmd:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "sep.json"
        csv_out = tmp_path / "sep.csv"
        assert main(["separation", "--n", "10", "--k", "2", "--omega", "2",
                     "--trials", "20", "--seed", "1", "--out", str(out),
                     "--csv", str(csv_out)]) == EXIT_OK
        body = read_doc(out)["body"]
        assert body["trials"] == 20
        assert 0.0 <= body["sdg_contain"] <= 1.0
        lines = csv_out.read_text().splitlines()
        assert lines[0].startswith("n,k,omega,instances")
        assert lines[1].startswith("10,2,2,20")

    @pytest.mark.parametrize("k", ["0", "5"])
    def test_k_outside_one_to_n_is_config_error(self, tmp_path, capsys, k):
        out = tmp_path / "sep.json"
        assert main(["separation", "--n", "4", "--k", k, "--trials", "3",
                     "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "config_error"
        assert not out.exists()


class TestFileErrors:
    """A path that will not open is a config error, exit 2; undecodable
    bytes in an input file are a parse error, exit 4.  Neither ends in a
    traceback."""

    @pytest.fixture
    def files(self, tmp_path, graph_file):
        sim = tmp_path / "sim.csv"
        sim.write_text("1.0,0.4\n0.3,0.9\n")
        return {"graph": graph_file, "sim": sim, "missing": tmp_path / "missing",
                "dir": tmp_path, "no_dir": tmp_path / "no_dir" / "out"}

    @pytest.mark.parametrize("argv", [
        ["check", "--graph", "{missing}"],
        ["check", "--objective-file", "{missing}"],
        ["eval", "--graph", "{graph}", "--pruned", "{missing}", "--k", "2", "--out", "{no_dir}"],
        ["check", "--sim", "{missing}"],
        ["check", "--sim", "{sim}", "--penalty", "{missing}"],
        ["check", "--graph", "{dir}"],
        ["gen", "--family", "gnm", "--n", "6", "--m", "4", "--out", "{no_dir}"],
        ["separation", "--n", "6", "--k", "2", "--trials", "1",
         "--out", "{graph}.sep", "--csv", "{no_dir}"],
    ], ids=["missing_graph", "missing_objective_file", "missing_pruned", "missing_sim",
            "missing_penalty", "directory_input", "out_in_missing_dir",
            "csv_in_missing_dir"])
    def test_unopenable_path_is_config_error(self, files, capsys, argv):
        assert main([a.format(**files) for a in argv]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "config_error"

    @pytest.mark.parametrize("flag", ["--graph", "--objective-file", "--sim"])
    def test_undecodable_input_is_parse_error(self, tmp_path, capsys, flag):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["check", flag, str(path)]) == EXIT_PARSE
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["kind"] == "input_parse_error"


class TestStreamShuffle:
    def test_shuffle_changes_order_not_contract(self, tmp_path, graph_file):
        outs = []
        for flag in ([], ["--stream-shuffle"]):
            out = tmp_path / f"s{len(flag)}.json"
            assert main(["prune", "--graph", str(graph_file), "--algo",
                         "threshold_stream", "--k", "3", "--omega", "3",
                         "--seed", "5", "--out", str(out)] + flag) == EXIT_OK
            outs.append(read_doc(out)["body"]["elements"])
        assert all(len(e) <= 9 for e in outs)
