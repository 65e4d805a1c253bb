"""The benchmark's frozen outputs: every default-seed job of every
workload still hashes to its digest in bench/reference.json, so a change to
any result in a pool shows up here and not only in a benchmark run."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


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
    assert len(pool) == len(reference)
    for i, item in enumerate(pool):
        assert run._digest(workload.job(workload.params, item)) == reference[i], i
