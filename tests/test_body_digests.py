"""Byte-identity guard: report bodies, pruned-set bodies and property
reports hash to pinned digests.

A change that is meant to keep behaviour (a refactor, a deletion, a faster
path) must leave these digests alone.  Timing lives only in headers, so a
body's digest is its JSON with sorted keys.  A change that is meant to move
a body updates the digest and says why.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from conftest import build_variants, supermodular_counterexample

from prunekit import knapsack
from prunekit.cli import EXIT_OK, main
from prunekit.instances import gen_coverage, gen_gnm, gen_interference
from prunekit.knapsack import KnapsackInstance, extract_budget_grid, prune_sdg_density
from prunekit.objectives import (Cut, TableObjective, check_monotone,
                                 check_submodular, objective_from_dict)


def digest(body) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def body(path):
    with open(path) as fh:
        return json.load(fh)["body"]


def run(*argv):
    assert main([str(a) for a in argv]) == EXIT_OK


@pytest.fixture
def cut_source(tmp_path):
    graph = tmp_path / "g.txt"
    run("gen", "--family", "gnm", "--n", 24, "--m", 72, "--seed", 11, "--out", graph)
    return ["--graph", graph]


@pytest.fixture
def coverage_source(tmp_path):
    obj = tmp_path / "cov.json"
    run("gen", "--family", "coverage", "--n", 14, "--universe-m", 20, "--seed", 3,
        "--out", obj)
    costs = tmp_path / "costs.csv"
    costs.write_text("".join(f"{e},{0.15 + 0.05 * ((7 * e) % 9)}\n" for e in range(14)))
    return ["--objective-file", obj], costs


def test_seq_disjoint_cut_bodies(tmp_path, cut_source):
    pruned, report = tmp_path / "p.json", tmp_path / "r.json"
    run("prune", *cut_source, "--algo", "seq_disjoint", "--ell", 2, "--k", 5, "--out", pruned)
    run("eval", *cut_source, "--pruned", pruned, "--k", 5, "--out", report)
    assert digest(body(pruned)) == PRUNED_CUT
    assert digest(body(report)) == REPORT_CUT


def test_sdg_density_coverage_bodies(tmp_path, coverage_source):
    source, costs = coverage_source
    pruned, report = tmp_path / "p.json", tmp_path / "r.json"
    run("prune", *source, "--algo", "sdg_density", "--costs", costs, "--budget", 1.0,
        "--ell", 2, "--out", pruned)
    run("eval", *source, "--pruned", pruned, "--costs", costs, "--budget", 1.0,
        "--budgets-grid", 6, "--out", report)
    assert digest(body(pruned)) == PRUNED_KNAPSACK
    assert digest(body(report)) == REPORT_KNAPSACK


PRUNER_ARGS = {
    "window_rand": ["--algo", "window_rand", "--k", 4, "--omega", 2, "--seed", 5],
    "window_max": ["--algo", "window_max", "--k", 4, "--omega", 2],
    "std_greedy": ["--algo", "std_greedy", "--k", 4, "--p", 9],
    "std_greedy_omega": ["--algo", "std_greedy", "--k", 3, "--omega", 2],
    "fast_budget_range": ["--algo", "fast_budget_range", "--k", 6, "--epsilon", 0.1],
    "threshold_stream": ["--algo", "threshold_stream", "--k", 4, "--omega", 2,
                         "--epsilon", 0.2],
    "threshold_stream_shuffled": ["--algo", "threshold_stream", "--k", 4, "--omega", 2,
                                  "--epsilon", 0.2, "--stream-shuffle", "--seed", 7],
    "random": ["--algo", "random", "--k", 4, "--omega", 2, "--seed", 5],
}


@pytest.mark.parametrize("name", sorted(PRUNER_ARGS))
def test_cut_pruner_bodies(tmp_path, cut_source, name):
    pruned = tmp_path / "p.json"
    run("prune", *cut_source, *PRUNER_ARGS[name], "--out", pruned)
    assert digest(body(pruned)) == PRUNED_BODIES[name]


def test_density_route_extractions():
    """The sets the density route extracts per budget, with exhaustive
    extraction switched off, on a monotone and a real-valued non-monotone
    objective."""
    budgets = np.linspace(0.1, 1.0, 10).tolist()
    got = {}
    for name, obj in (("coverage", gen_coverage(18, 24, seed=19)),
                      ("interference", gen_interference(18, 24, seed=4))):
        inst = KnapsackInstance(np.random.default_rng(19).uniform(0.05, 1.0, size=18), 1.0)
        pruned = prune_sdg_density(obj, inst, ell=3)
        with mock.patch.object(knapsack, "EXHAUSTIVE_CAP", 0):
            got[name] = digest(extract_budget_grid(pruned, obj, budgets))
    assert got == DENSITY_ROUTE


GNM_CASES = [(2, 1), (3, 3), (24, 72), (200, 19900), (1000, 5000), (5, 0)]


def test_gnm_edge_lists():
    """Edge lists keep their order and their Python ``int`` ends (JSON
    refuses numpy integers)."""
    got = [digest(gen_gnm(n, m, seed=n + m)) for n, m in GNM_CASES]
    assert got == GNM_EDGES


def test_sampled_submodularity_reports(coverage_source):
    checked = {
        "cut": Cut(24, gen_gnm(24, 72, seed=11)),
        "coverage": objective_from_dict(body(coverage_source[0][1])),
        "supermodular": supermodular_counterexample(6),  # 100+ violations
    }
    assert ({name: digest(check_submodular(obj, trials=200).to_dict())
             for name, obj in checked.items()} == CHECKS)


def full_digest(report) -> str:
    """A property report's digest with its violation list, in order."""
    return digest([report.checked, report.violations, report.max_violation])


def noisy_table(n, seed):
    """Real-valued, neither monotone nor submodular: pins the bits of every gap."""
    vals = np.random.default_rng(seed).normal(size=1 << n)
    return TableObjective(n, {frozenset(i for i in range(n) if m >> i & 1): v
                              for m, v in enumerate(vals)})


def late_violation(n=12):
    """A real-valued modular table whose value on the top half of the ids is
    raised by 1: every violation of either property involves that set, so
    none lies among the first few thousand nested pairs."""
    w = np.random.default_rng(5).uniform(0.01, 0.02, size=n)
    top = frozenset(range(n // 2, n))
    return TableObjective.from_function(
        n, lambda s: float(w[sorted(s)].sum()) + (1.0 if s == top else 0.0))


def test_exhaustive_check_reports():
    """Every family at n = 10; the monotone lists of cut, proxy and
    interference coverage hit the 100-entry cap."""
    got = {f"{check.__name__}:{name}": full_digest(check(obj, exhaustive=True))
           for name, obj in build_variants(n=10, seed=123).items()
           for check in (check_submodular, check_monotone)}
    assert got == EXHAUSTIVE_CHECKS


def test_real_valued_check_reports():
    obj = noisy_table(7, seed=21)
    got = {f"{check.__name__}:{mode}": full_digest(check(obj, **kwargs))
           for check in (check_submodular, check_monotone)
           for mode, kwargs in (("exhaustive", {"exhaustive": True}),
                                ("sampled", {"trials": 500, "seed": 3}))}
    assert got == REAL_VALUED_CHECKS


def test_late_violation_check_reports():
    obj = late_violation()
    got = {check.__name__: full_digest(check(obj, exhaustive=True))
           for check in (check_submodular, check_monotone)}
    assert got == LATE_CHECKS


PRUNED_CUT = "2702bec0454561d45fcc16796f48a59ae49eb51efa034d0a7bc915f827166bcc"
REPORT_CUT = "f9cdf65e0a7384f2b02f0dd5af1b0aab8b1eb5b36f398fe8e58b049b994a22a1"
PRUNED_KNAPSACK = "9ed6eb923d08aac92012e5983d2868d11858aaf56314f475356b2393b760963b"
REPORT_KNAPSACK = "7687016f1f77f7f43807a0e180c5f9bf8e82434c14a42a2644da2caabd18d3fb"
CHECKS = {
    "cut": "ad03688db81427bc41d1e33ec991fe4e5121e6daa9cfd214105c071511f73314",
    "coverage": "ad03688db81427bc41d1e33ec991fe4e5121e6daa9cfd214105c071511f73314",
    "supermodular": "4d27b4e4d0c833b387de41e3fae3d162580bba022e39aaaccd0535620e7970ce",
}
PASS_SUB = "14ad06f4cb24174394e9a2dcee4395b76d1b9f2731fdcce086679e319d0b8d19"
PASS_MONO = "a19ff9d4e584cb4e0ad5368b12f04d1605d4eb30d9fdeefa734f53c5a59c870e"
EXHAUSTIVE_CHECKS = {
    **{f"check_submodular:{name}": PASS_SUB
       for name in ("coverage", "weighted_coverage", "cut", "facility_location",
                    "restricted_fl", "proxy", "interference_coverage", "modular")},
    **{f"check_monotone:{name}": PASS_MONO
       for name in ("coverage", "weighted_coverage", "facility_location",
                    "restricted_fl", "modular")},
    "check_monotone:cut": "822141213857bbb1aad481e6862283f69b48689669cf6f05b3ea66253cdeb980",
    "check_monotone:proxy": "5b48cc2a09f4d132434812a7f2ecdfc1130a1e5f37cb3987ee0d269fb9bc9338",
    "check_monotone:interference_coverage":
        "e35f5e1d41d686ef1b50dbb011559711dbfc974c3d36a03c187c5cc24e1af814",
}
REAL_VALUED_CHECKS = {
    "check_submodular:exhaustive": "2b30f994c7b50a7197903623117619aa3d6a4094aaef8b68eed45790831056c2",
    "check_submodular:sampled": "7bd9e34e23a35d4069535cfef0374435e05834e6f39cbb5dcc6f661a2721cea0",
    "check_monotone:exhaustive": "a4f68f20dca8c22a116655359059387acd5cde06f5040eebd0a7eba62ab50e9b",
    "check_monotone:sampled": "c3f5a3d8780e5fd07fd5daa86ba43aaada6685ed52080ce9337c8c09fa732a7b",
}
LATE_CHECKS = {
    "check_submodular": "fe8ed3fecbcf8a4edb7d2aff2b718c4d27b6aa169ed88c4771a7df0119546eec",
    "check_monotone": "f8c976661fd2baa5932101a976f986a719d0ec7f3ce24e228c98e36490916863",
}
PRUNED_BODIES = {
    "window_rand": "bdd9f85634c9fff1e4404a30aa25ec60966c4c0d16513a085533ac337eba4968",
    "window_max": "22ff22d7336f194550036b2792b6a7a0e2c24d41b8732479edd72ff0fde7e0ca",
    "std_greedy": "296ca5517b45d66b9bcb4ea1a933aa3f0d519aecf4b299187f05c7db188a8ef5",
    "std_greedy_omega": "5a02b37ac19d90e37b4850d0e8fa68b7f5e0afb3ad1f420c9b0528d3018e0782",
    "fast_budget_range": "8f12bbb4ffe6e80a009ecab978a38dd7e57d4f9c65e7c38db8df476f040289be",
    "threshold_stream": "3d1155ee6241377b5fffaaac4a7bb333451b9b9a540e89ac3d3b02fd227390ec",
    "threshold_stream_shuffled":
        "8511f2e4432ba653569b2355f2e919bba9113c87ab5820d7045f1d2ed84ac5bc",
    "random": "e605526b9b7d3bcb0642a349e47e6b233e2f1e537b0f538f3b7f96dbc2ccf579",
}
DENSITY_ROUTE = {
    "coverage": "a59d32a7eab64bc3c39bd2f2b2f427724c8483c0916d903e422507e20f932aa0",
    "interference": "3617ad05b15d92fe3a3e444fa1f8072432249749ca21793bda1653011ee9fafd",
}
GNM_EDGES = [
    "4b206b21939b457eb85499fb9142a2b2ff32d29b25b2a70733887616d179d748",
    "7d7556132648a252e9ef78d0dc116a0e5005ddf237f4ef15799a489d31481595",
    "eb8943536c6106525c64b6b11de953ecad83c3176da3c0abe15c438f43577159",
    "0bed2055edd396a0642ed7cd9ba01894a49c9aa2461b3a6380b2d3ad970e7f92",
    "9cdcb9b60ba8c04da9566d2d77ab531876b403f4671aaddb7a4c42e421353742",
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
]
