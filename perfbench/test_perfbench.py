"""Tests of the benchmark's own oracles, failure accounting and tracer.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import subprocess
from collections import Counter
import sys
from argparse import Namespace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tvlab import convexity, homology, obstruction, plmaps  # noqa: E402
from tvlab.complexes import full_simplex  # noqa: E402
from tvlab.deleted_product import deleted_product  # noqa: E402
from tvlab.errors import NotGeneric  # noqa: E402

ARGS = Namespace(seed=7)


def dp_query(qid, n, r, mod=None):
    argv = ["dp", "homology", "--n", str(n), "--r", str(r)] + (["--mod", str(mod)] if mod else [])
    q = workloads.Query(qid, "dp", "dp", 0, argv, {"n": n, "r": r, "mod": mod})
    workloads.prepare([q])
    return q


def small_vk_queries(tmp_path, seed=7):
    qs = [q for q in workloads.make_queries("vk_obstruction", seed, tmp_path)
          if q.info["domain"] != "delta7"]
    workloads.prepare(qs)
    return qs


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3), (5, 2), (5, 4), (6, 3)])
def test_f_vector_oracle_matches_enumeration(n, r):
    assert workloads.dp_f_vector(n, r) == deleted_product(full_simplex(n), r).f_vector()


def test_query_lists_are_seeded_and_long_enough(tmp_path):
    for d in "abcd":
        (tmp_path / d).mkdir()
    for w in run.WORKLOADS:
        a = workloads.make_queries(w, 3, tmp_path / "a")
        b = workloads.make_queries(w, 3, tmp_path / "b")
        assert [q.label for q in a] == [q.label for q in b]
        assert len(a) > run.TAIL_BEYOND + 10  # query_tail_s needs 10 queries beyond it
    assert [q.label for q in workloads.make_queries("vk_obstruction", 3, tmp_path / "c")] != \
        [q.label for q in workloads.make_queries("vk_obstruction", 4, tmp_path / "d")]


def test_correct_answers_pass_every_oracle(tmp_path):
    queries = [dp_query(0, 4, 2), dp_query(1, 5, 3, 3)] + small_vk_queries(tmp_path)[:6]
    for i, q in enumerate(queries):
        q.qid = i
    p = run.run_pass(queries, ARGS, tmp_path)
    assert run.check_results(queries, [p], tmp_path) == []


def test_planted_wrong_homology_is_counted(tmp_path, monkeypatch):
    real = homology.dp_homology

    def wrong(dp, coefficients="Z"):
        rep = real(dp, coefficients)
        rep.ranks[dp.dim] += 1
        return rep

    monkeypatch.setattr(homology, "dp_homology", wrong)
    queries = [dp_query(0, 4, 2), dp_query(1, 4, 3, 2)]
    p = run.run_pass(queries, ARGS, tmp_path)
    failures = run.check_results(queries, [p, p], tmp_path)
    assert len(failures) == 4
    assert all("homology" in f["reason"] for f in failures)


def test_raising_query_is_counted_not_swallowed(tmp_path, monkeypatch):
    def boom(points, r):
        raise RuntimeError("planted")

    monkeypatch.setattr(convexity, "tverberg_search", boom)
    queries = workloads.make_queries("tverberg", 1, tmp_path)[:12]
    for i, q in enumerate(queries):
        q.qid = i
    workloads.prepare(queries)
    p = run.run_pass(queries, ARGS, tmp_path)
    failures = run.check_results(queries, [p], tmp_path)
    searches = sum(q.kind == "tverberg" for q in queries)
    assert searches and len(failures) == searches
    assert all("planted" in f["reason"] for f in failures)


def test_planted_bad_certificate_fails_recheck(tmp_path):
    q = next(q for q in small_vk_queries(tmp_path) if q.info["domain"] == "delta5")
    code, text, attempt = workloads.answer(q, tmp_path)
    report = json.loads(text)
    assert report["verdict"] == "trivial"
    assert workloads.check(q, code, text, attempt, tmp_path) is None
    entry = report["certificate"]["values"][0]
    entry["value"] = int(entry["value"]) + 1
    reason = workloads.check(q, code, json.dumps(report), attempt, tmp_path)
    assert reason == "certificate fails delta c = v"


def test_wrong_verdict_and_bad_witness_fail(tmp_path):
    q = next(q for q in small_vk_queries(tmp_path) if q.info["domain"] == "delta6")
    code, text, attempt = workloads.answer(q, tmp_path)
    report = json.loads(text)
    assert workloads.check(q, code, text, attempt, tmp_path) is None
    report["verdict"] = "trivial"
    assert "verdict" in workloads.check(q, code, json.dumps(report), attempt, tmp_path)


def test_tverberg_oracles_catch_a_moved_witness(tmp_path):
    queries = workloads.make_queries("tverberg", 2, tmp_path)
    workloads.prepare(queries)
    hexagon = next(q for q in queries if "golden" in q.info)
    code, text, attempt = workloads.answer(hexagon, tmp_path)
    assert workloads.check(hexagon, code, text, attempt, tmp_path) is None
    report = json.loads(text)
    report["witness"] = ["1/2", "0"]
    assert workloads.check(hexagon, code, json.dumps(report), attempt, tmp_path)


def test_notgeneric_is_retried_with_the_next_attempt(tmp_path, monkeypatch):
    q = next(q for q in small_vk_queries(tmp_path) if q.info["domain"] == "delta5")
    real = plmaps.intersection_cocycle
    calls = []

    def flaky(f, r):
        calls.append(f)
        if len(calls) == 1:
            raise NotGeneric("planted")
        return real(f, r)

    monkeypatch.setattr(plmaps, "intersection_cocycle", flaky)
    code, text, attempt = workloads.answer(q, tmp_path)
    assert (code, attempt) == (0, 1)
    assert calls[0].images != calls[1].images
    assert workloads.check(q, code, text, attempt, tmp_path) is None


def test_tracer_wraps_from_imports_and_restores(tmp_path):
    orig_solve = obstruction.solve_integer_system
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert obstruction.solve_integer_system is not orig_solve
        assert homology.solve_integer_system is obstruction.solve_integer_system
        queries = [dp_query(0, 4, 3)] + small_vk_queries(tmp_path)[:3]
        for i, q in enumerate(queries):
            q.qid = i
        run.run_pass(queries, ARGS, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert obstruction.solve_integer_system is orig_solve
    m = spans.layer_metrics(tracer.spans, tracer.counts)
    assert m["homology.smith_diagonal_calls"] == 2
    assert m["deleted_product.cells"] == 390 + sum(
        deleted_product(plmaps.PLMap.from_json_file(q.argv[3]).domain, q.info["r"]).total_cells()
        for q in queries[1:])
    assert m["homology.solve_s"] > 0 and m["convexity.lp_calls"] == 0
    names = {s[0] for s in tracer.spans}
    assert "query" in names and "obstruction.is_null_cohomologous" in names
    assert all(s[3] >= 0 for s in tracer.spans if s[0] != "query")
    assert set(m) == set(spans.LAYER_METRICS)


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "spans.py", "workloads.py"):
        (bench / f).write_text((Path(run.__file__).parent / f).read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "tverberg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_times_are_scaled_by_the_nearest_kernel_times():
    nominal = run.REF_NOMINAL_S
    assert run.scales([nominal] * 4) == [1.0] * 3
    # the host runs at half speed around the last item only
    refs = [nominal] * 4 + [2 * nominal] * 3
    assert run.scales(refs)[:2] == [1.0, 1.0]
    assert run.scales(refs)[-1] == 0.5
    spans_ = [["query", 0.0, 2.0, -1, 0], ["homology.smith_diagonal", 0.5, 1.5, 0, 0]]
    m = spans.layer_metrics(spans_, Counter(), {0: 0.5})
    assert m["homology.smith_diagonal_s"] == 0.5
