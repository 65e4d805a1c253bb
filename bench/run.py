#!/usr/bin/env python3
"""Seeded closed-loop benchmark for the ietbwt library and CLI.

    python3 bench/run.py --workload language_cli --seed 1 --seconds 30 --trace 0

One client issues jobs back to back for the given seconds, checks every
job's output, and prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run.  Metrics, workloads and the layer table are described in
bench/README.md.  The library is imported from the checkout's src/
directory; without it the benchmark exits with code 1 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_JOBS = 100  # so that ten or more samples lie beyond job_p90_ms
TRACED_SHARE = 2 / 3  # of a traced run's seconds; the rest runs untraced
MAX_TRACEBACKS = 3


def _import_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "ietbwt", "__init__.py")):
        sys.exit("bench: no library sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import ietbwt

    if not os.path.abspath(ietbwt.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported ietbwt from %s, not from %s" % (ietbwt.__file__, SRC))


def _digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _reference(workload) -> list | None:
    """Frozen digests of the default-seed pool, or None when this run is
    not the one they were recorded for."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[workload.name]
    if ref["params"] != json.loads(json.dumps(workload.params)):
        return None
    return ref["digests"]


def _loop(workload, pool, until: float, reference, failures: list,
          first: int = 0) -> list[float]:
    """Run jobs pool[first], pool[first + 1], ... (cycling) until the clock
    passes `until`; returns per-job wall seconds and appends failed job
    indices."""
    times = []
    i = first
    while True:
        item = pool[i % len(pool)]
        start = time.perf_counter()
        try:
            result, ok = workload.job(workload.params, item), True
        except Exception:  # a failed job is counted, never fatal
            ok = False
            if len(failures) < MAX_TRACEBACKS:
                print("job %d failed:" % i, file=sys.stderr)
                traceback.print_exc()
        end = time.perf_counter()
        times.append(end - start)
        # the digest is the benchmark's own check, so it stays out of the
        # job's time
        if ok and reference is not None and _digest(result) != reference[i % len(pool)]:
            ok = False
            print("job %d: output digest differs from the reference" % i,
                  file=sys.stderr)
        if not ok:
            failures.append(i)
        i += 1
        if end >= until:
            return times


def _setup_once(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports the library and builds the
    workload's inputs.  The child runs with -S: the benchmark needs only the
    standard library, and the site-packages start-up hooks of the host
    would add their own, noisy, time.  There is no timeout: with one, the
    wait polls in steps of up to 50 ms, which would round every sample."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-S", os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - start


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float):
    pool = workload.setup(seed, workload.params)
    setup_rss_mb = _rss_mb()
    reference = _reference(workload) if seed == DEFAULT_SEED else None
    failures: list[int] = []
    setups: list[float] = []
    times: list[float] = []
    # The set-up samples are spread over the run, one before each slice of
    # jobs: the host's speed shifts over seconds, and back-to-back samples
    # would all fall into one fast or slow phase.
    for _ in range(SETUP_REPEATS):
        setups.append(_setup_once(workload.name, seed))
        until = time.perf_counter() + seconds / SETUP_REPEATS
        times += _loop(workload, pool, until, reference, failures, len(times))
    if len(times) < MIN_JOBS:
        print("bench: only %d jobs; job_p90_ms rests on fewer than ten samples "
              "beyond it" % len(times), file=sys.stderr)
    peak_rss_mb = _rss_mb()
    metrics = {
        "jobs_per_s": _metric(len(times) / sum(times), "1/s"),
        "job_p50_ms": _metric(1000 * statistics.median(times), "ms"),
        "job_p90_ms": _metric(1000 * _percentile(times, 90), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    info = {"jobs": len(times), "few_jobs": len(times) < MIN_JOBS,
            "failed": len(failures), "ops_failed_frac": len(failures) / len(times),
            "digest_checked": reference is not None,
            "setup_peak_rss_mb": round(setup_rss_mb, 2),
            "job_rss_growth_mb": round(peak_rss_mb - setup_rss_mb, 2),
            **workload.describe(pool)}
    return metrics, info, len(times), len(failures)


# per-layer totals read from the job tracer; traced() divides each by the
# number of traced jobs
def _layer_metrics(tr) -> dict:
    c, incl = tr.calls, tr.incl
    step = ("induction.right_step", "induction.left_step", "induction.split")
    return {
        "exact.ops": tr.exact_ops,
        "exact.values": tr.exact_values,
        "exact.self_s": tr.exact_s,
        "iet.letter_at.calls": c["iet.letter_at"],
        "iet.letter_at.incl_s": incl["iet.letter_at"],
        "iet.apply.calls": c["iet.apply"],
        "iet.apply.incl_s": incl["iet.apply"],
        "iet.diet_action.incl_s": incl["iet.diet_action"],
        "coding.cylinders.calls": c["coding.cylinders"],
        "coding.cylinders.intervals": tr.counts["coding.cylinders.intervals"],
        "coding.cylinders.incl_s": incl["coding.cylinders"],
        "coding.language.incl_s": incl["coding.language"],
        "coding.left_return_words.calls": c["coding.left_return_words"],
        "coding.left_return_words.incl_s": incl["coding.left_return_words"],
        "induction.induce_to_cylinder.calls": c["induction.induce_to_cylinder"],
        "induction.induce_to_cylinder.incl_s": incl["induction.induce_to_cylinder"],
        "induction.induce_to_cylinder.self_s": tr.self_s["induction.induce_to_cylinder"],
        "induction.steps": tr.counts["induction.steps"],
        "induction.step.incl_s": sum(incl[s] for s in step),
        "induction.first_return_point.calls": c["induction.first_return_point"],
        "induction.first_return_point.incl_s": incl["induction.first_return_point"],
        "induction.walk_steps": tr.counts["induction.walk_steps"],
        "words.bwt.calls": c["words.bwt"],
        "words.bwt.letters": tr.counts["words.bwt.letters"],
        "words.bwt.incl_s": incl["words.bwt"],
        "words.ebwt.letters": tr.counts["words.ebwt.letters"],
        "words.ebwt.incl_s": incl["words.ebwt"],
        "words.lyndon_representative.incl_s": incl["words.lyndon_representative"],
        "extgraph.classify_language.incl_s": incl["extgraph.classify_language"],
        "extgraph.extension_graph.calls": c["extgraph.extension_graph"],
        "verify.self_s": tr.module_self("verify"),
        "cli.main.calls": c["cli.main"],
        "cli.main.self_s": tr.self_s["cli.main"],
    }


SHARES = ("coding.cylinders", "coding.left_return_words", "words.bwt",
          "words.ebwt", "words.lyndon_representative", "cli.main",
          "induction.induce_to_cylinder", "induction.first_return_point",
          "extgraph.classify_language", "iet.letter_at")


def traced(workload, seed: int, seconds: float):
    from tracer import Tracer

    setup_tr = Tracer()
    setup_tr.install()
    try:
        pool = workload.setup(seed, workload.params)
    finally:
        setup_tr.uninstall()
    reference = _reference(workload) if seed == DEFAULT_SEED else None
    failures: list[int] = []
    start = time.perf_counter()
    plain = _loop(workload, pool, start + seconds * (1 - TRACED_SHARE),
                  reference, failures)
    tr = Tracer()
    tr.install()
    try:
        traced_times = _loop(workload, pool, start + seconds, reference, failures)
    finally:
        tr.uninstall()
    m = min(len(plain), len(traced_times))
    jobs = len(traced_times)
    wall = sum(traced_times)
    metrics = {}
    for name, value in _layer_metrics(tr).items():
        unit = "s/job" if name.endswith("_s") else "count/job"
        metrics[name] = _metric(value / jobs, unit)
    metrics["coding.trajectory.incl_s"] = _metric(
        setup_tr.incl["coding.trajectory"], "s")
    metrics["trace.overhead_frac"] = _metric(
        sum(traced_times[:m]) / sum(plain[:m]), "ratio")
    shares = {n: round(tr.incl[n] / wall, 4) for n in SHARES if tr.incl[n]}
    shares["exact.self"] = round(tr.exact_s / wall, 4)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s.jsonl.gz" % workload.name)
    tr.dump(spans)
    attempted = len(plain) + jobs
    info = {"jobs": attempted, "traced_jobs": jobs, "failed": len(failures),
            "ops_failed_frac": len(failures) / attempted,
            "inclusive_share": shares, "spans": os.path.relpath(spans, ROOT)}
    return metrics, info, attempted, len(failures)


def write_reference() -> None:
    """Record the digest of every default-seed pool item (maintenance)."""
    from workloads import WORKLOADS

    out = {}
    for w in WORKLOADS.values():
        pool = w.setup(DEFAULT_SEED, w.params)
        out[w.name] = {"params": w.params,
                       "digests": [_digest(w.job(w.params, item)) for item in pool]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="language_cli")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (times set-up)")
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record the default-seed output digests")
    args = ap.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, workload.params)
        return 0
    run = traced if args.trace else end_to_end
    metrics, info, attempted, failed = run(workload, args.seed, args.seconds)
    print("workload: %s  seed: %d  seconds: %g  trace: %d"
          % (workload.name, args.seed, args.seconds, args.trace))
    for key, value in info.items():
        print("%s: %s" % (key, value))
    for name, m in metrics.items():
        print("%s: %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
