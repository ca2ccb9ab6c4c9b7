"""The four benchmark workloads: seeded query lists, query execution through
the tvlab CLI command functions, and the correctness oracles.

Why each workload exists and which layer it isolates is written down in
README.md beside this file.  In short:

- ``dp_homology_z``: integral homology of deleted products of full
  simplices; the time is in ``deleted_product`` and
  ``homology.smith_diagonal``.
- ``dp_homology_gf2``: the same complexes over GF(2) and GF(3); the time is
  in the separate mod-p rank routine.
- ``vk_obstruction``: the van Kampen obstruction pipeline on generic
  PL maps; the time is in ``plmaps``/``linalg`` and the dense Smith normal
  form of ``obstruction``/``homology``.
- ``tverberg``: Tverberg partition search and Radon partitions; the time is
  in the exact simplex ``convexity.lp_feasible``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tvlab import cli, convexity, obstruction, plmaps  # noqa: E402
from tvlab.complexes import Complex, simplex_skeleton  # noqa: E402
from tvlab.deleted_product import deleted_product  # noqa: E402
from tvlab.errors import NotGeneric  # noqa: E402

# A generic PL map is redrawn at most this many times before the query fails.
MAX_RETRIES = 20

HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 0)]

# Each list is built from blocks of copies of one instance.  The median
# query falls in the middle of a block of like queries and the tail query
# (10 queries beyond it) inside the next block up, so neither metric sits on
# the boundary between two instance sizes, where run-to-run noise would
# reorder them.  One pass takes five to ten seconds on a shared 2-core
# machine, so that two to four passes fit in a 25 s run.  Left out on
# purpose, because every workload runs 22 times per check: Z-homology of
# Delta_7 with r = 2 (3-6 s alone), of Delta_6 with r = 3 (13 s) and of
# Delta_7 with r = 3 (349 s); GF(2)-homology of Delta_8 with r = 2 (3-4 s);
# Delta_8^(2) -> R^4 (29 s for the decision); Delta_8^(2) -> R^3 with r = 3
# (8-10 s, most of it a memory-bound dense SNF whose time alone varied by
# 35% between runs; the r = 3 path runs on the colored complex instead);
# Tverberg search at (d, r) = (2, 4), where one of five instances took
# 30.8 s.

# (n, r, mod or None, copies): deleted products of the n-simplex.
DP_Z = [(3, 3, None, 3), (4, 2, None, 4), (4, 4, None, 4), (4, 3, None, 4),
        (5, 2, None, 11),
        (6, 2, None, 12),
        (5, 5, None, 1), (5, 3, None, 1), (5, 4, None, 1)]
DP_GF = [(4, 3, 2, 5), (5, 2, 3, 5), (4, 2, 3, 5),
         (5, 5, 2, 11),
         (5, 4, 3, 12),
         (7, 2, 3, 1), (6, 3, 2, 1)]
# (domain, d, r, i, copies): generic PL maps, drawn as sample i, of
# 2-dimensional domains to R^d.
VK = [*(("delta5", 4, 2, i, 1) for i in range(13)),
      ("delta6", 4, 2, 0, 9),
      ("colored333", 3, 3, 0, 12),
      ("delta7", 4, 2, 0, 1)]
# (d, r, i, copies): Tverberg searches on point set i of a fixed random
# sample, and (d, copies) of Radon partitions.  With the HEXAGON golden
# instance, 14 fast queries sit below the searches.
#
# Inputs are fixed and the seed only orders the lists: moving the points or
# the vertex images by a seeded affine map keeps the partitions, r-fold
# points and verdicts, but changes the exact arithmetic.  That moved the
# time of one Tverberg search by about 20% (coefficient of variation over
# seeds), and the run-to-run spread of query_p50_s on vk_obstruction to
# 0.27, against 0.18 for wall_s.
TVERBERG = [(2, 3, 0, 11),
            (3, 3, 1, 12),
            (3, 3, 0, 1), (3, 3, 2, 1)]
RADON = [(2, 5), (3, 4), (4, 4)]


@dataclass
class Query:
    """One CLI command with generated inputs, and what its oracle needs."""

    qid: int
    kind: str            # "dp", "vk", "tverberg" or "radon"
    label: str           # instance class, e.g. "dp n=7 r=2 Z"
    size: int            # static size; the largest query is the memory probe
    argv: list
    info: dict = field(default_factory=dict)
    args: object = None  # parsed argv, filled in by prepare()


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def dp_f_vector(n: int, r: int) -> list:
    """f-vector of the r-fold deleted product of the n-simplex.

    Counted from the sizes of r ordered, pairwise disjoint, non-empty vertex
    sets alone, independently of the library's cell enumeration.
    """
    f = [0] * (n + 2 - r)

    def rec(left, parts, used, ways):
        if parts == 0:
            f[used - r] += ways
            return
        for size in range(1, left - parts + 2):
            rec(left - size, parts - 1, used + size, ways * comb(left, size))

    rec(n + 1, r, 0, 1)
    return f


def vk_domain(name: str) -> Complex:
    """The 2-skeleton of Delta_N ("deltaN"), or the colored complex
    [3]*[3]*[3] ("colored333"): one vertex from each of three color classes."""
    if name == "colored333":
        return Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                        for b in range(3, 6) for c in range(6, 9)])
    return simplex_skeleton(int(name[len("delta"):]), 2)


def _vk_map_path(workdir: Path, q: Query, attempt: int) -> Path:
    return workdir / ("map-%s-%d-%d-%d-%d.json" % (q.info["slot"] + (attempt,)))


def write_vk_map(workdir: Path, q: Query, attempt: int) -> str:
    """Write the PL map of one vk query attempt; returns its path."""
    K = vk_domain(q.info["domain"])
    d = q.info["d"]
    points = convexity.random_rational_points(K.num_vertices, d, repr(("vk", q.info["slot"], attempt)))
    f = plmaps.PLMap.build(K, d, points)
    return _write_json(_vk_map_path(workdir, q, attempt), f.to_json_dict())


def _points_query(workdir, kind, label, d, r, points, info, qid):
    path = _write_json(workdir / ("points-%d.json" % qid),
                       {"d": d, "points": [[str(x) for x in p] for p in points]})
    argv = (["tverberg", "search", "--points", path, "--r", str(r)]
            if kind == "tverberg" else ["radon", "--points", path])
    info = dict(info, d=d, r=r, points=[tuple(Fraction(x) for x in p) for p in points])
    return Query(qid, kind, label, len(points), argv, info)


def make_queries(workload: str, seed: int, workdir: Path) -> list:
    """The workload's query list, in the order this seed gives it, with the
    input files written."""
    rng = random.Random(repr(("order", workload, seed)))
    specs = []
    if workload in ("dp_homology_z", "dp_homology_gf2"):
        for n, r, mod, copies in (DP_Z if workload == "dp_homology_z" else DP_GF):
            specs += [("dp", n, r, mod)] * copies
    elif workload == "vk_obstruction":
        for domain, d, r, i, copies in VK:
            specs += [("vk", domain, d, r, (domain, d, r, i))] * copies
    elif workload == "tverberg":
        for d, r, i, copies in TVERBERG:
            specs += [("tverberg", d, r, i)] * copies
        for d, copies in RADON:
            specs += [("radon", d, 2, i) for i in range(copies)]
        specs.append(("hexagon",))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(specs)

    queries = []
    top_tuples = {}  # (domain, r) -> number of disjoint top-simplex r-tuples
    for qid, spec in enumerate(specs):
        kind = spec[0]
        if kind == "dp":
            _, n, r, mod = spec
            argv = ["dp", "homology", "--n", str(n), "--r", str(r)]
            argv += ["--mod", str(mod)] if mod else []
            label = "dp n=%d r=%d %s" % (n, r, "GF(%d)" % mod if mod else "Z")
            queries.append(Query(qid, kind, label, sum(dp_f_vector(n, r)), argv,
                                 {"n": n, "r": r, "mod": mod}))
        elif kind == "vk":
            _, domain, d, r, slot = spec
            if (domain, r) not in top_tuples:
                tops = vk_domain(domain).simplices_of_dim(2)
                top_tuples[domain, r] = len(plmaps.disjoint_tuples(tops, r))
            q = Query(qid, kind, "vk %s d=%d r=%d" % (domain, d, r), top_tuples[domain, r], [],
                      {"domain": domain, "d": d, "r": r, "slot": slot})
            q.argv = ["vk", "obstruction", "--map", write_vk_map(workdir, q, 0),
                      "--r", str(r), "--certificate"]
            queries.append(q)
        elif kind == "hexagon":
            queries.append(_points_query(workdir, "tverberg", "tverberg hexagon", 2, 3,
                                         HEXAGON, {"golden": ("0", "0")}, qid))
        else:
            _, d, r, i = spec
            n = (d + 1) * (r - 1) + 1 if kind == "tverberg" else d + 2
            points = convexity.random_rational_points(n, d, repr((kind, d, r, i)))
            label = "%s d=%d r=%d set %d" % (kind, d, r, i)
            queries.append(_points_query(workdir, kind, label, d, r, points, {}, qid))
    return queries


def prepare(queries: list) -> None:
    """Parse every query's argv with the tvlab CLI parser."""
    parser = cli.build_parser()
    for q in queries:
        q.args = parser.parse_args(q.argv)


def answer(q: Query, workdir: Path):
    """Run one query through its CLI command function.

    Returns (exit code, report text, NotGeneric retries).  A vk map that is
    not generic is redrawn with the next attempt seed inside the query, so
    the retry is paid for as a user would pay for it.
    """
    args = q.args
    attempt = 0
    while True:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = args.func(args)
            return code, buf.getvalue(), attempt
        except NotGeneric:
            if q.kind != "vk" or attempt >= MAX_RETRIES:
                raise
            attempt += 1
            args = cli.build_parser().parse_args(
                q.argv[:2] + ["--map", write_vk_map(workdir, q, attempt)] + q.argv[4:])


def _check_dp(q: Query, report: dict):
    n, r, mod = q.info["n"], q.info["r"], q.info["mod"]
    top = n + 1 - r
    chi = sum((-1) ** k * fk for k, fk in enumerate(dp_f_vector(n, r)))
    ranks = {0: 1, top: (-1) ** top * (chi - 1)}
    expected = {str(k): {"rank": ranks.get(k, 0), "torsion": []} for k in range(top + 1)}
    if report.get("coefficients") != ("GF(%d)" % mod if mod else "Z"):
        return "coefficients %r" % report.get("coefficients")
    if report.get("homology") != expected:
        return "homology %r, expected %r" % (report.get("homology"), expected)
    return None


def expected_verdict(domain: str, r: int) -> str:
    """The obstruction class does not depend on the generic map.

    r = 2: Delta_5^(2) lies in the 4-sphere boundary of Delta_5, so it embeds
    in R^4 and the class vanishes; Delta_N^(2) for N >= 6 contains the van
    Kampen-Flores complex Delta_6^(2), so the class is nonzero.  r = 3: the
    class of Delta_8^(2) -> R^3 vanishes (tvlab returns a certificate that
    re-verifies), so it vanishes on the colored subcomplex [3]*[3]*[3] too.
    """
    if domain == "delta5" or r == 3:
        return "trivial"
    return "nontrivial"


def _check_vk(q: Query, report: dict, attempt: int, workdir: Path):
    r = q.info["r"]
    verdict = report.get("verdict")
    expected = expected_verdict(q.info["domain"], r)
    if verdict != expected:
        return "verdict %r, expected %r" % (verdict, expected)
    if verdict == "nontrivial":
        witness = report.get("infeasibility") or {}
        if witness.get("kind") not in ("divisibility", "rank"):
            return "nontrivial verdict without an SNF witness"
        return None
    # re-check delta c = v through coboundary_matrix
    f = plmaps.PLMap.from_json_file(str(_vk_map_path(workdir, q, attempt)))
    dp = deleted_product(f.domain, r)
    v = obstruction.cocycle_from_table(dp, plmaps.intersection_cocycle(f, r))
    A, top_reps, facet_reps = obstruction.coboundary_matrix(dp, v.twist)
    cert = {tuple(tuple(s) for s in e["cell"]): int(e["value"])
            for e in report.get("certificate", {}).get("values", [])}
    if not set(cert) <= set(facet_reps):
        return "certificate names cells that are not facet orbit representatives"
    x = [cert.get(rep, 0) for rep in facet_reps]
    if A.mat_vec(x) != [v.values.get(rep, 0) for rep in top_reps]:
        return "certificate fails delta c = v"
    return None


def _check_partition(q: Query, report: dict):
    parts = [tuple(p) for p in report.get("parts", [])]
    if len(parts) != q.info["r"]:
        return "%d parts, expected %d" % (len(parts), q.info["r"])
    witness = tuple(Fraction(x) for x in report["witness"])
    certs = [[Fraction(c) for c in cert] for cert in report["certificates"]]
    if not convexity.TverbergPartition(parts, witness, certs).verify(q.info["points"]):
        return "partition certificate fails verify()"
    golden = q.info.get("golden")
    if golden is not None and tuple(report["witness"]) != golden:
        return "HEXAGON witness %r, expected %r" % (report["witness"], golden)
    return None


def check(q: Query, code, text: str, attempt: int, workdir: Path):
    """None when the answer is right, else a one-line reason."""
    if code != 0:
        return "exit code %r" % code
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return "report is not JSON: %s" % exc
    if q.kind == "dp":
        return _check_dp(q, report)
    if q.kind == "vk":
        return _check_vk(q, report, attempt, workdir)
    return _check_partition(q, report)
