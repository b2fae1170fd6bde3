"""Byte-identity guard: report bodies, pruned-set bodies and property
reports hash to pinned digests.

A change that is meant to keep behaviour (a refactor, a deletion, a faster
path) must leave these digests alone.  Timing lives only in headers, so a
body's digest is its JSON with sorted keys.  A change that is meant to move
a body updates the digest and says why.
"""

import hashlib
import json

import numpy as np
import pytest
from conftest import build_variants, supermodular_counterexample

from prunekit.cli import EXIT_OK, main
from prunekit.instances import gen_gnm
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
