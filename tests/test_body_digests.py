"""Byte-identity guard: report bodies, pruned-set bodies and property
reports hash to pinned digests.

A change that is meant to keep behaviour (a refactor, a deletion, a faster
path) must leave these digests alone.  Timing lives only in headers, so a
body's digest is its JSON with sorted keys.  A change that is meant to move
a body updates the digest and says why.
"""

import hashlib
import json

import pytest
from conftest import supermodular_counterexample

from prunekit.cli import EXIT_OK, main
from prunekit.instances import gen_gnm
from prunekit.objectives import Cut, check_submodular, objective_from_dict


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


PRUNED_CUT = "2702bec0454561d45fcc16796f48a59ae49eb51efa034d0a7bc915f827166bcc"
REPORT_CUT = "f9cdf65e0a7384f2b02f0dd5af1b0aab8b1eb5b36f398fe8e58b049b994a22a1"
PRUNED_KNAPSACK = "9ed6eb923d08aac92012e5983d2868d11858aaf56314f475356b2393b760963b"
REPORT_KNAPSACK = "7687016f1f77f7f43807a0e180c5f9bf8e82434c14a42a2644da2caabd18d3fb"
CHECKS = {
    "cut": "ad03688db81427bc41d1e33ec991fe4e5121e6daa9cfd214105c071511f73314",
    "coverage": "ad03688db81427bc41d1e33ec991fe4e5121e6daa9cfd214105c071511f73314",
    "supermodular": "4d27b4e4d0c833b387de41e3fae3d162580bba022e39aaaccd0535620e7970ce",
}
