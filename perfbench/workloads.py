"""The four benchmark workloads.

Each workload turns the seed into inputs (set-up) and a fixed rotation of
jobs.  A job is one op: a call through prunekit's public API, or a pair of
in-process ``prunekit.cli.main(argv)`` calls.  Its check function reads the
op's outputs, raises :class:`CheckFailed` on a wrong one and returns the
op's facts: exact counts and a digest of the result body.

Job costs do not depend on the seed, only on the sizes fixed here, so runs
with different seeds measure the same amount of work.  Every rotation has an
odd number of jobs, so the median job is one job rather than the mean of two.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from prunekit import cli, harness, instances, knapsack, objectives, prune, tolerances

TOL = objectives.REAL_TOL


class CheckFailed(AssertionError):
    """An op's output broke a stated property."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(body) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    """Jobs of one rotation plus what the run report adds for the workload."""

    jobs: list[Job]
    #: percentile of op latency reported as op_tail_ms: fixed per workload,
    #: so that a faster program (more ops) does not move the metric to another
    #: percentile, and chosen to fall inside one job's cluster of latencies.
    #: None when a run has too few ops for a tail: op_tail_ms is then the
    #: slowest job's mean latency
    tail_pct: int | None
    summary: Callable[[list[dict]], list[str]] = field(default=lambda facts: [])


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=count)]


# --------------------------------------------------------------------------
# prune_large: pruning jobs on large ground sets; no exact enumeration

K, ELL, EPS, OMEGA = 10, 4, 0.2, 2
#: ground-set size of the large instances; sdg_density runs on half of it
LARGE_N = 1000


def _pruned_facts(pruned) -> dict:
    return {"size": len(pruned.elements), "queries": pruned.stats.queries,
            "hits": pruned.stats.cache_hits, "digest": digest(pruned.to_dict())}


def _check_cap(pruned) -> None:
    expect(pruned.cap is None or len(pruned.elements) <= pruned.cap,
           f"|P| = {len(pruned.elements)} > cap {pruned.cap}")


def _seq_disjoint_job(name, obj, n) -> Job:
    def check(pruned):
        _check_cap(pruned)
        runs = pruned.structure["runs"]
        expect(len(runs) == ELL and all(len(r) == K for r in runs),
               f"run lengths {[len(r) for r in runs]} != {ELL} x {K}")
        expect(len({e for r in runs for e in r}) == ELL * K, "runs not disjoint")
        expect(pruned.stats.queries <= ELL * K * n,
               f"queries {pruned.stats.queries} > ell*k*n = {ELL * K * n}")
        return _pruned_facts(pruned)

    return Job(f"seq_disjoint/{name}",
               lambda: prune.prune_seq_disjoint(obj, n, K, ell=ELL), check)


def _fast_budget_job(name, obj, n) -> Job:
    def check(pruned):
        _check_cap(pruned)
        ceiling = 50 * (n / EPS) * math.log(n / EPS)
        expect(pruned.stats.queries <= ceiling,
               f"queries {pruned.stats.queries} > {ceiling:.0f}")
        for kp in range(1, K + 1):
            w = prune.witness(pruned, obj, kp)
            expect(len(w) <= kp, f"witness({kp}) has {len(w)} elements")
        return _pruned_facts(pruned)

    return Job(f"fast_budget_range/{name}",
               lambda: prune.prune_fast_budget_range(obj, n, K, EPS), check)


def _window_job(name, obj, n) -> Job:
    def check(pruned):
        _check_cap(pruned)
        expect(pruned.stats.queries <= K * n + 1,
               f"queries {pruned.stats.queries} > k*n+1 = {K * n + 1}")
        return _pruned_facts(pruned)

    return Job(f"window_max/{name}",
               lambda: prune.prune_window(obj, n, K, OMEGA, pick="argmax"), check)


def _sdg_density_job(name, obj, inst) -> Job:
    def check(pruned):
        B = inst.B
        expect(pruned.total_cost <= 3 * ELL * B + TOL,
               f"c(P) = {pruned.total_cost} > 3*ell*B")
        expect(all(r.real_cost <= 3 * B + TOL for r in pruned.runs), "run cost > 3B")
        return _pruned_facts(pruned)

    return Job(f"sdg_density/{name}",
               lambda: knapsack.prune_sdg_density(obj, inst, ell=ELL), check)


def prune_large(seed: int, workdir: str) -> Workload:
    s = _seeds(seed, 5)
    n, small = LARGE_N, LARGE_N // 2
    cut = objectives.Cut(n, instances.gen_gnm(n, 5 * n, seed=s[0]))
    cov = instances.gen_coverage(n, 500, seed=s[1])
    fl = objectives.FacilityLocation(np.random.default_rng(s[2]).uniform(size=(300, n)))
    cov_small = instances.gen_coverage(small, 500, seed=s[3])
    costs = np.random.default_rng(s[4]).uniform(0.02, 0.2, size=small)
    inst = knapsack.KnapsackInstance(costs, 1.0)
    jobs = [
        _fast_budget_job(f"coverage{n}", cov, n),
        _seq_disjoint_job(f"cut{n}", cut, n),
        _seq_disjoint_job(f"coverage{n}", cov, n),
        _seq_disjoint_job(f"facloc300x{n}", fl, n),
        _fast_budget_job(f"facloc300x{n}", fl, n),
        _window_job(f"cut{n}", cut, n),
        _sdg_density_job(f"coverage{small}", cov_small, inst),
    ]
    return Workload(jobs, tail_pct=None)


# --------------------------------------------------------------------------
# certify_card: CLI prune -> eval --reference exact on small instance files

def _run_cli(*argvs) -> list[int]:
    return [cli.main(list(argv)) for argv in argvs]


def _body(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["body"]


def _card_job(name, src, ell, k, workdir) -> Job:
    tag = f"{name}-ell{ell}"
    pfile = os.path.join(workdir, f"pruned-{tag}.json")
    rfile = os.path.join(workdir, f"report-{tag}.json")
    prune_argv = ["prune", *src, "--algo", "seq_disjoint", "--ell", str(ell), "--k", str(k),
                  "--out", pfile]
    eval_argv = ["eval", *src, "--pruned", pfile, "--k", str(k),
                 "--reference", "exact", "--out", rfile]

    def check(codes):
        expect(codes == [0, 0], f"exit codes {codes}")
        pruned, report = _body(pfile), _body(rfile)
        alphas = report["report"]["alphas"]
        expect(all(-TOL <= a <= 1 + TOL for a in alphas), f"alpha outside [0, 1]: {alphas}")
        bound = prune.sdg_bound(ell)
        expect(all(a >= bound - TOL for a in alphas),
               f"alpha {min(alphas):.4f} < sdg_bound({ell}) = {bound}")
        return {"size": len(pruned["elements"]), "queries": pruned["stats"]["queries"],
                "hits": pruned["stats"]["cache_hits"],
                "subsets": report["report"]["resources"]["eval_enumerated"],
                "digest": digest([pruned, _untimed(report)])}

    return Job(f"seq_disjoint/{tag}", lambda: _run_cli(prune_argv, eval_argv), check)


def _untimed(report: dict) -> dict:
    """The containment body without ``resources.*_elapsed``: prunekit puts
    the eval wall time in the body, so repeats would never digest equal."""
    resources = {k: v for k, v in report["report"]["resources"].items()
                 if not k.endswith("_elapsed")}
    return {**report, "report": {**report["report"], "resources": resources}}


def certify_card(seed: int, workdir: str) -> Workload:
    s = _seeds(seed, 4)
    graph = os.path.join(workdir, "cut24.txt")
    instances.save_edge_list(graph, instances.gen_gnm(24, 72, seed=s[0]))
    intf = os.path.join(workdir, "interference20.json")
    with open(intf, "w") as fh:
        json.dump(instances.gen_interference(20, 30, seed=s[1]).to_dict(), fh)
    sim = os.path.join(workdir, "facloc40x22.csv")
    np.savetxt(sim, np.random.default_rng(s[2]).uniform(size=(40, 22)), delimiter=",")
    covfile = os.path.join(workdir, "coverage22.txt")
    with open(covfile, "w") as fh:
        for e, cover in enumerate(instances.gen_coverage(22, 30, seed=s[3]).covers):
            fh.write(f"{e}: {' '.join(map(str, sorted(cover)))}\n")
    specs = [("cut24", ["--graph", graph], 6), ("interference20", ["--objective-file", intf], 6),
             ("facloc40x22", ["--sim", sim], 5), ("coverage22", ["--coverage", covfile], 5)]
    # seq_disjoint only: its |P| is exactly ell*k, so the exact enumeration
    # over P, and with it the op's cost, does not change with the seed;
    # window_rand's |P| does, and the cost with it by up to 35%.  ell = 3 on
    # coverage is left out to keep the rotation odd.
    jobs = [_card_job(name, src, ell, k, workdir)
            for name, src, k in specs
            for ell in ((2,) if name == "coverage22" else (2, 3))]
    return Workload(jobs, tail_pct=90)


# --------------------------------------------------------------------------
# certify_knapsack: criterion-5 recipe through CLI prune -> eval

KNAP_ELL, KNAP_EPS, KNAP_B, KNAP_GRID = 4, 0.25, 1.0, 8
_EXTRACT = knapsack.extract_budget_grid


def certify_knapsack(seed: int, workdir: str) -> Workload:
    s = _seeds(seed, 18)
    budgets = np.geomspace(0.1 * KNAP_B, KNAP_B, KNAP_GRID + 1)[1:]
    cost_cap = (KNAP_EPS / 8) * budgets.min()
    extracted: list[list[list[int]]] = []
    _capture_extractions(extracted)
    jobs = []
    for i, n in enumerate(range(10, 19)):
        family = "interference" if i % 2 else "coverage"
        obj = (instances.gen_interference(n, 30, seed=s[2 * i]) if i % 2
               else instances.gen_coverage(n, 30, seed=s[2 * i]))
        costs = np.random.default_rng(s[2 * i + 1]).uniform(0.2, 1.0, size=n) * cost_cap
        ofile = os.path.join(workdir, f"{family}{n}.json")
        cfile = os.path.join(workdir, f"costs{n}.csv")
        with open(ofile, "w") as fh:
            json.dump(obj.to_dict(), fh)
        with open(cfile, "w") as fh:
            fh.writelines(f"{e},{float(c)!r}\n" for e, c in enumerate(costs))
        jobs.append(_knapsack_job(f"{family}{n}", ofile, cfile, costs, workdir, extracted))
    return Workload(jobs, tail_pct=85)


def _capture_extractions(sink: list) -> None:
    """Keep the sets ``eval`` extracts, which its report body does not hold.

    Rebinds ``knapsack.extract_budget_grid`` (the CLI calls it through the
    module) with a pass-through that appends each result to ``sink``.
    """
    def capture(*args, **kwargs):
        out = _EXTRACT(*args, **kwargs)
        sink.append(out)
        return out

    knapsack.extract_budget_grid = capture


def _knapsack_job(name, ofile, cfile, costs, workdir, extracted) -> Job:
    pfile = os.path.join(workdir, f"pruned-{name}.json")
    rfile = os.path.join(workdir, f"report-{name}.json")
    src = ["--objective-file", ofile, "--costs", cfile, "--budget", str(KNAP_B)]
    prune_argv = ["prune", *src, "--algo", "sdg_density", "--ell", str(KNAP_ELL),
                  "--out", pfile]
    eval_argv = ["eval", *src, "--pruned", pfile, "--budgets-grid", str(KNAP_GRID),
                 "--out", rfile]

    def run():
        extracted.clear()
        return _run_cli(prune_argv, eval_argv)

    def check(codes):
        expect(codes == [0, 0], f"exit codes {codes}")
        pruned, report = _body(pfile), _body(rfile)
        expect(pruned["total_cost"] <= 3 * KNAP_ELL * KNAP_B + TOL,
               f"c(P) = {pruned['total_cost']} > 3*ell*B")
        expect(len(extracted) == 1, f"{len(extracted)} extractions captured")
        for b, sel, val, opt in zip(report["budgets"], extracted[0], report["values"],
                                    report["opt_by_budget"]):
            expect(sum(costs[e] for e in sel) <= b + TOL, f"set {sel} exceeds budget {b}")
            expect(val >= (0.5 - KNAP_EPS) * opt - TOL,
                   f"value {val} < (1/2 - eps) OPT = {(0.5 - KNAP_EPS) * opt}")
        return {"size": len(pruned["elements"]), "queries": pruned["stats"]["queries"],
                "hits": pruned["stats"]["cache_hits"], "digest": digest([pruned, report])}

    return Job(f"sdg_density/{name}", run, check)


# --------------------------------------------------------------------------
# separation: many tiny one-trial separation studies

SEP_JOBS = 201


def separation(seed: int, workdir: str) -> Workload:
    def job(i, s):
        def check(result):
            expect(result.mean_alpha_greedy <= 1 + TOL and result.mean_alpha_sdg <= 1 + TOL,
                   "best-in-P value above OPT")
            return {"greedy_contain": result.greedy_contain,
                    "sdg_contain": result.sdg_contain, "digest": digest(result.to_dict())}

        return Job(f"separation/{i}", lambda: harness.separation_study(
            {"n": 20, "universe_m": 30}, trials=1, k=3, omega=2, seed=s), check)

    def summary(facts):
        g = sum(f["greedy_contain"] for f in facts) / len(facts)
        sd = sum(f["sdg_contain"] for f in facts) / len(facts)
        return [f"containment over {len(facts)} instances (criterion-6 bands, reported "
                f"not gated): greedy {g:.3f} in {tolerances.SEPARATION_GREEDY_BAND}, "
                f"sdg {sd:.3f} in {tolerances.SEPARATION_SDG_BAND}"]

    return Workload([job(i, s) for i, s in enumerate(_seeds(seed, SEP_JOBS))],
                    tail_pct=95, summary=summary)


WORKLOADS = {
    "prune_large": prune_large,
    "certify_card": certify_card,
    "certify_knapsack": certify_knapsack,
    "separation": separation,
}
