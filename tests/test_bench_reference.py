"""The benchmark's frozen outputs: the first default-seed jobs of every
workload still hash to the digests in bench/reference.json, so a change to
a result shows up here and not only in a benchmark run."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
JOBS = 3


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run
    import workloads

    return run, workloads.WORKLOADS


@pytest.mark.parametrize("name", ["language_cli", "induce_confirm", "diet_ebwt"])
def test_default_seed_jobs_match_reference(bench, name):
    run, workloads = bench
    workload = workloads[name]
    reference = run._reference(workload)
    assert reference is not None, "reference.json was recorded for other params"
    pool = workload.setup(run.DEFAULT_SEED, workload.params)
    for i in range(JOBS):
        assert run._digest(workload.job(workload.params, pool[i])) == reference[i], i
