#!/usr/bin/env python3
"""Self-test of the benchmark: every workload runs at a tiny size in both
modes, passes its output checks, and reports every metric that
BENCHMARK.json names.  The first default-seed pool items are also checked
against the frozen digests.

    python3 bench/selftest.py

Exits with 0 when all checks hold and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run

TINY = {
    "language_cli": {"pool": 4, "word_len": 1, "return_len": 4, "depth": 4},
    "induce_confirm": {"pool": 4, "word_len": (4, 6)},
    "diet_ebwt": {"pool": 6, "sizes": (20, 30, 40), "single_from": 30},
}
DIGESTS_CHECKED = 2


def main() -> int:
    run._import_library()
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in WORKLOADS.items():
        tiny = dataclasses.replace(workload, params=TINY[name])
        for trace, mode in ((0, run.end_to_end), (1, run.traced)):
            metrics, info, attempted, failed = mode(tiny, 2, 1.0)
            label = "%s --trace %d" % (name, trace)
            if attempted < 1 or failed:
                problems.append("%s: %d of %d jobs failed" % (label, failed, attempted))
            for metric, unit in wanted[trace].items():
                got = metrics.get(metric)
                if got is None or got["unit"] != unit:
                    problems.append("%s: metric %s missing or not in %s" % (label, metric, unit))
            print("%s: %d jobs, %d metrics" % (label, attempted, len(metrics)))
        pool = workload.setup(run.DEFAULT_SEED, workload.params)
        reference = run._reference(workload)
        for i in range(DIGESTS_CHECKED):
            if run._digest(workload.job(workload.params, pool[i])) != reference[i]:
                problems.append("%s: default-seed item %d differs from reference" % (name, i))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
