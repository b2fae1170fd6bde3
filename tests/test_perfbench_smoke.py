"""The benchmark's workloads and tracer against the current library.

``perfbench/`` imports prunekit's public names and wraps its layer entry
points; a rename or deletion there would otherwise show up only as failed
benchmark ops.  Each workload's first job runs once at seed 1 under the
tracer and must pass the workload's own check.
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
