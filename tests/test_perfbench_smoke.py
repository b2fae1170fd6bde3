"""The benchmark's workloads and tracer against the current library.

``perfbench/`` imports prunekit's public names and wraps its layer entry
points; a rename or deletion there would otherwise show up only as failed
benchmark ops.  Each workload's first job runs once at seed 1 under the
tracer and must pass the workload's own check, and each workload's whole
rotation, run once at the default and the held-out seed, must digest to the
round digest the benchmark records.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing, workloads  # noqa: E402
from prunekit import knapsack  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_job_runs_and_checks_under_the_tracer(name, tmp_path, monkeypatch):
    # certify_knapsack rebinds the extraction entry point to capture results
    monkeypatch.setattr(knapsack, "extract_budget_grid", knapsack.extract_budget_grid)
    job = workloads.WORKLOADS[name](1, str(tmp_path)).jobs[0]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        span = tracer.begin_op(0)
        result = job.run()
        tracer.end_op(span)
    finally:
        restore()
    facts = job.check(result)
    assert facts["digest"]
    spans = tracing.SpanTable(tracer)
    assert np.count_nonzero(spans.parent == 0) >= 1, "no layer span under the op"
    assert np.all(spans.dur >= 0)


#: ``round digest`` of each workload's first rotation, as ``perfbench/run.py``
#: prints it, at seeds 1 and 7919
ROUND_DIGESTS = {
    "certify_card": {1: "ed140b4fd55f1808", 7919: "27cc23fce559ab4a"},
    "certify_knapsack": {1: "32a7d1d7dd59869e", 7919: "4287baab7373db94"},
    "prune_large": {1: "175d30172b518056", 7919: "c8332d1d4d851d8f"},
    "separation": {1: "4f748f3581fd3ef9", 7919: "9622c114df71708e"},
}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", sorted(ROUND_DIGESTS))
def test_rotation_round_digest(name, seed, tmp_path, monkeypatch):
    monkeypatch.setattr(knapsack, "extract_budget_grid", knapsack.extract_budget_grid)
    jobs = workloads.WORKLOADS[name](seed, str(tmp_path)).jobs
    digests = [job.check(job.run())["digest"] for job in jobs]
    assert workloads.digest(digests) == ROUND_DIGESTS[name][seed]
