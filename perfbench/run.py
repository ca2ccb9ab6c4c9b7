"""tvlab benchmark: time user questions from generated input to a checked,
certified answer.

    python3 perfbench/run.py --workload vk_obstruction --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Load model: a closed loop with one client.  This process, with no threads,
answers the workload's seeded query list in order, one query at a time,
and repeats whole passes while another pass fits into --seconds.  Every
query builds its own objects through the tvlab CLI command functions.
Answers are checked after the timed passes.

Times are scaled to a reference speed.  The speed of a shared host drifts
by 10-30% from one second to the next, and a fixed pure-Python reference
kernel slows with it.  The kernel is timed before the first query and after
each query, and each query's time is multiplied by REF_NOMINAL_S over the
median of the four kernel times nearest to it, two before and two after.
That cancels most of the drift: over ten runs of each workload, the spread
of wall_s was 0.04-0.05 of its median, against 0.15-0.17 for the raw pass
time.  The raw times are kept in the record.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is one JSON object; a fuller record, with the environment, the
per-query times and (traced) the spans, is written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("dp_homology_z", "dp_homology_gf2", "vk_obstruction", "tverberg")
SETUP_PROBES = 9
TAIL_BEYOND = 10
E2E_UNITS = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
             "peak_rss_mb": "MiB", "setup_s": "s"}
TRACEMALLOC_NOTE = "tracemalloc sees only this process's Python allocations"
# Median reference_kernel() time on a 2-core Intel Xeon VM, Python 3.11.7.
REF_NOMINAL_S = 0.0145


def reference_kernel():
    """Fixed pure-Python work of the kinds tvlab does: exact rational
    elimination, integer dictionary updates, and sorting of tuples.  It
    never changes with tvlab, so its time measures the host's speed."""
    rng = random.Random(5)
    n = 9
    A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            if f:
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    counts = {}
    for i in range(15000):
        key = (i % 977, i % 13)
        counts[key] = counts.get(key, 0) + i
    cells = sorted(tuple(sorted((i * k) % 101 for k in range(1, 6))) for i in range(3000))
    return A[-1][-1], len(counts), cells[-1]


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scales(refs) -> list:
    """Scale factor of each timed item, where refs[i] and refs[i + 1] are
    the kernel times just before and just after item i."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i in range(len(refs) - 1)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, dest="setup_probe",
                   help=argparse.SUPPRESS)  # monotonic time the parent spawned us
    return p.parse_args(argv)


def new_workdir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))


def setup_probe(args) -> int:
    """Fresh process: imports and input generation, then report the time
    since the parent spawned us (CLOCK_MONOTONIC is system-wide)."""
    import workloads

    workdir = new_workdir()
    try:
        workloads.prepare(workloads.make_queries(args.workload, args.seed, workdir))
        elapsed = time.monotonic() - args.setup_probe
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(args):
    """(scaled, raw) setup times of SETUP_PROBES fresh processes."""
    samples, refs = [], [reference_time()]
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        refs.append(reference_time())
    return [f * t for f, t in zip(scales(refs), samples)], samples


def run_pass(queries, args, workdir, tracer=None):
    """Answer every query once; returns the pass record, with times scaled
    to the reference speed."""
    import workloads

    times, refs, results = [], [reference_time()], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            with tracer.query(q.qid) if tracer else nullcontext():
                code, text, retries = workloads.answer(q, workdir)
            err = None
        except Exception:  # a query that raises is counted as failed, never fatal
            code, text, retries, err = None, None, 0, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        results.append((code, text, retries, err))
        refs.append(reference_time())
    if tracer:
        tracer.counts["plmaps.notgeneric_retries"] += sum(r[2] for r in results)
    factors = scales(refs)
    scaled = [f * t for f, t in zip(factors, times)]
    return {"times": scaled, "raw_wall": sum(times), "raw_times": times,
            "refs": refs, "factors": factors, "results": results, "traced": tracer is not None}


def check_results(queries, passes, workdir):
    """Oracle verdicts for every answer; identical answers are checked once."""
    import workloads

    verdicts = {}
    failures = []
    for p in passes:
        for q, (code, text, retries, err) in zip(queries, p["results"]):
            if err is not None:
                failures.append({"qid": q.qid, "label": q.label, "reason": err})
                continue
            key = (q.qid, code, text, retries)
            if key not in verdicts:
                try:
                    verdicts[key] = workloads.check(q, code, text, retries, workdir)
                except Exception:  # a malformed report is a failed answer
                    verdicts[key] = "checker raised: " + traceback.format_exc(limit=3)
            if verdicts[key]:
                failures.append({"qid": q.qid, "label": q.label, "reason": verdicts[key]})
    return failures


def query_medians(passes) -> list:
    """Each query's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p["times"] for p in passes))]


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values beyond it; every query list is long enough."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND
    return s[k - 1], 100.0 * k / len(s)


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tvlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "ru_maxrss_unit": "KiB" if sys.platform.startswith("linux") else "bytes",
        "tracemalloc": TRACEMALLOC_NOTE,
        "load_model": "closed loop, one client, one process, no threads",
        "timer": "time.perf_counter, scaled to REF_NOMINAL_S = %s s per reference kernel" % REF_NOMINAL_S,
    }


def measure(queries, args, workdir, tracer):
    """Untraced passes, each followed by a traced one under --trace 1, while
    another cycle fits into --seconds; at least one cycle.

    Returns the passes and ru_maxrss after the first pass, so that the peak
    does not grow with the number of repeats.
    """
    from spans import layer_metrics

    passes = []
    maxrss = None
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        passes.append(run_pass(queries, args, workdir))
        if maxrss is None:
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                passes.append(run_pass(queries, args, workdir, tracer))
            finally:
                tracer.uninstall()
            factors = {q.qid: f for q, f in zip(queries, passes[-1]["factors"])}
            passes[-1]["layers"] = layer_metrics(tracer.spans, tracer.counts, factors)
            passes[-1]["spans"] = tracer.spans
        cycle = time.perf_counter() - cycle
        if time.perf_counter() - start + cycle > args.seconds:
            return passes, maxrss


def memory_probe(queries, args, workdir):
    """One more run of the largest query with tracemalloc on.

    Kept out of the traced passes, because tracemalloc slows Python
    allocation three to six times.
    """
    probe = max(queries, key=lambda q: (q.size, q.label))
    tracemalloc.start()
    try:
        probe_pass = run_pass([probe], args, workdir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return probe, probe_pass, peak


def run_workload(args) -> int:
    import workloads
    from spans import LAYER_METRICS, Tracer

    env = environment(args)
    setups, raw_setups = measure_setup(args)
    tracer = Tracer() if args.trace else None
    workdir = new_workdir()
    try:
        queries = workloads.make_queries(args.workload, args.seed, workdir)
        workloads.prepare(queries)
        passes, maxrss = measure(queries, args, workdir, tracer)
        peak_rss_mb = maxrss / 1024 if env["ru_maxrss_unit"] == "KiB" else maxrss / 2**20
        failures = check_results(queries, passes, workdir)
        attempted = len(queries) * len(passes)
        if tracer:
            probe, probe_pass, traced_peak = memory_probe(queries, args, workdir)
            failures += check_results([probe], [probe_pass], workdir)
            attempted += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    per_query = query_medians(plain)
    tail_s, tail_pct = tail(per_query)
    wall_s = sum(per_query)

    if tracer:
        traced = [p for p in passes if p["traced"]]
        metrics = {m: {"value": statistics.median(p["layers"][m] for p in traced), "unit": unit}
                   for m, (unit, _) in LAYER_METRICS.items()}
        metrics["process.tracemalloc_peak_mb"] = {"value": traced_peak / 2**20, "unit": "MiB"}
        metrics["trace.overhead_s"] = {
            "value": sum(query_medians(traced)) - wall_s, "unit": "s"}
    else:
        values = {"wall_s": wall_s, "query_p50_s": statistics.median(per_query),
                  "query_tail_s": tail_s, "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setups)}
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}

    notes = {
        "passes": len(plain),
        "queries": len(queries),
        "query_p50_s": "median of %d per-query medians" % len(queries),
        "query_tail_s": "p%.1f: %d of %d queries beyond it" % (tail_pct, TAIL_BEYOND, len(queries)),
        "setup_s": "median of %d fresh processes; unscaled: %s" % (len(setups), raw_setups),
        "raw_wall_s": "unscaled median pass time: %s" % statistics.median(p["raw_wall"] for p in plain),
        "scale": "median factor per pass: %s" % [round(statistics.median(p["factors"]), 3)
                                                 for p in passes],
        "peak_rss_mb": "ru_maxrss of this process after the first pass",
        "fail_frac": "%d/%d" % (len(failures), attempted),
    }
    if tracer:
        notes["tracemalloc_probe"] = "%s (query %d); %s" % (probe.label, probe.qid, TRACEMALLOC_NOTE)
        notes["untraced_wall_s"] = wall_s
    record = {
        "env": env, "notes": notes, "metrics": metrics, "failures": failures,
        "passes": [{k: p[k] for k in ("raw_wall", "traced", "raw_times", "refs")}
                   for p in passes],
        "queries": [{"qid": q.qid, "label": q.label, "median_s": t,
                     "retries": passes[0]["results"][q.qid][2]}
                    for q, t in zip(queries, per_query)],
    }
    if tracer:
        t0 = traced[-1]["spans"][0][1] if traced[-1]["spans"] else 0.0
        record["spans"] = [[n, s - t0, e - t0, parent, qid]
                           for n, s, e, parent, qid in traced[-1]["spans"]]
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=1))

    print("# env %s" % json.dumps(env, sort_keys=True))
    for key, value in notes.items():
        print("# %s: %s" % (key, value))
    for name, m in metrics.items():
        print("# %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    print("# fail_frac %.6f ratio; record written to %s" % (
        len(failures) / attempted, out_path.relative_to(ROOT)))
    for f in failures[:5]:
        print("# FAILED query %d (%s): %s" % (f["qid"], f["label"], f["reason"].strip()[:300]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print("## %s" % workload)
        for name, m in result["metrics"].items():
            print("%-16s %-36s %14.6f %s" % (workload, name, m["value"], m["unit"]))
        print("%-16s %-36s %14.6f ratio (%d/%d)" % (
            workload, "fail_frac", result["failed"] / result["attempted"],
            result["failed"], result["attempted"]))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][workload + "." + name] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "tvlab" / "cli.py").is_file():
        print("perfbench: no tvlab sources under %s; run from a full checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe is not None:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
