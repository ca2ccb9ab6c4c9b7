"""End-to-end checks of the command-line interface: exit codes, JSON report
shapes, determinism of reports under a fixed configuration."""

import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

from tvlab import cli, convexity, homology, obstruction, plmaps
from tvlab import deleted_product as deleted_product_module
from tvlab.complexes import Complex, simplex_skeleton
from tvlab.convexity import random_rational_points
from tvlab.deleted_product import DeletedProductComplex, deleted_product

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    text = captured.out if code == 0 else captured.err
    return code, (json.loads(text) if text.strip() else None)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def k4_square_map(tmp_path):
    """K_4 drawn on the unit square: the two diagonals cross once."""
    k4 = simplex_skeleton(3, 1)
    data = {
        "complex": k4.to_json_dict(),
        "d": 2,
        "images": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    }
    return write_json(tmp_path / "k4.json", data)


def test_dp_stats_golden(capsys):
    code, rep = run_cli(capsys, ["dp", "stats", "--n", "2", "--r", "3"])
    assert code == 0
    assert rep["f_vector"] == [6]
    assert rep["dim"] == 0
    assert rep["total_cells"] == 6
    assert rep["empty"] is False
    assert rep["config"]["n"] == 2 and rep["config"]["r"] == 3


def test_dp_connectivity(capsys):
    code, rep = run_cli(capsys, ["dp", "connectivity", "--n", "4", "--r", "3"])
    assert code == 0
    assert rep["homological_connectivity"] == 1


def test_dp_homology_mod_p(capsys):
    code, rep = run_cli(capsys, ["dp", "homology", "--n", "3", "--r", "2", "--mod", "2"])
    assert code == 0
    assert rep["coefficients"] == "GF(2)"
    assert rep["homology"]["0"]["rank"] == 1
    assert rep["homology"]["2"]["rank"] == 1


def dp_f_vector(n, r):
    """f-vector of the r-fold deleted product of the n-simplex, counted from
    the sizes of r ordered, pairwise disjoint, non-empty vertex sets."""
    f = [0] * (n + 2 - r)
    for sizes in product(range(1, n + 2), repeat=r):
        used = sum(sizes)
        if used <= n + 1:
            f[used - r] += factorial(n + 1) // factorial(n + 1 - used) // prod(map(factorial, sizes))
    return f


@pytest.mark.parametrize("mod", ["2", "3"])
def test_dp_homology_delta8_mod_p_euler_oracle(capsys, mod):
    # the deleted product is a sphere: b_0 = 1, and the Euler characteristic
    # fixes the top Betti number, every other one being zero
    f = dp_f_vector(8, 2)
    top = len(f) - 1
    chi = sum((-1) ** k * fk for k, fk in enumerate(f))
    assert sum(f) == 18_660 and top == 7
    code, rep = run_cli(capsys, ["dp", "homology", "--n", "8", "--r", "2", "--mod", mod])
    assert code == 0 and rep["coefficients"] == "GF(%s)" % mod
    ranks = {0: 1, top: (-1) ** top * (chi - 1)}
    assert rep["homology"] == {str(k): {"rank": ranks.get(k, 0), "torsion": []}
                               for k in range(top + 1)}


def test_report_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = cli.run(["radon", "--random", "4", "--d", "2",
                        "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_radon_random_certified(capsys):
    code, rep = run_cli(capsys, ["radon", "--random", "5", "--d", "3"])
    assert code == 0
    assert rep["instances"] == 5 and rep["certified"] == 5


def test_radon_points_file(tmp_path, capsys):
    pts = write_json(tmp_path / "pts.json",
                     {"d": 1, "points": [["0"], ["1"], ["3"]]})
    code, rep = run_cli(capsys, ["radon", "--points", pts])
    assert code == 0
    assert sorted(len(p) for p in rep["parts"]) == [1, 2]


def test_tverberg_search(tmp_path, capsys):
    hexagon = [["2", "0"], ["1", "2"], ["-1", "2"], ["-2", "0"],
               ["-1", "-2"], ["1", "-2"], ["0", "0"]]
    pts = write_json(tmp_path / "hex.json", {"d": 2, "points": hexagon})
    code, rep = run_cli(capsys, ["tverberg", "search", "--points", pts, "--r", "3"])
    assert code == 0
    assert rep["witness"] == ["0", "0"]
    assert len(rep["parts"]) == 3


def test_plmap_cocycle_and_obstruction(tmp_path, capsys):
    path = k4_square_map(tmp_path)
    code, rep = run_cli(capsys, ["plmap", "cocycle", "--map", path, "--r", "2"])
    assert code == 0
    assert rep["is_zero"] is False
    nonzero = [e for e in rep["entries"] if e["value"]]
    assert len(nonzero) == 1
    assert nonzero[0]["tuple"] == [[0, 2], [1, 3]]
    assert abs(nonzero[0]["value"]) == 1

    code, rep = run_cli(capsys, ["vk", "obstruction", "--map", path,
                                 "--r", "2", "--certificate"])
    assert code == 0
    assert rep["verdict"] == "trivial"
    assert rep["certificate"]["values"]


def k5_pentagon_map(tmp_path):
    """K_5 drawn on a convex pentagon: its van Kampen obstruction is nonzero."""
    pentagon = [(0, 2), (2, 1), (1, -2), (-1, -2), (-2, 1)]
    f = plmaps.PLMap.build(simplex_skeleton(4, 1), 2, pentagon)
    return write_json(tmp_path / "k5.json", f.to_json_dict())


def test_witness_that_fails_its_recheck_exits_4(tmp_path, capsys, monkeypatch):
    argv = ["vk", "obstruction", "--map", k5_pentagon_map(tmp_path), "--r", "2"]
    code, rep = run_cli(capsys, argv)
    assert code == 0 and rep["verdict"] == "nontrivial"
    monkeypatch.setattr(homology, "_equation_combination", lambda u, log: {})
    code, rep = run_cli(capsys, argv)
    assert code == 4
    assert rep == {"error": "infeasibility witness failed re-verification", "kind": "invariant"}


def test_certificate_that_fails_its_recheck_exits_4(tmp_path, capsys, monkeypatch):
    argv = ["vk", "obstruction", "--map", k4_square_map(tmp_path), "--r", "2"]
    mat_vec = homology.IntMatrix.mat_vec
    monkeypatch.setattr(homology.IntMatrix, "mat_vec",
                        lambda A, x: [y + 1 for y in mat_vec(A, x)])
    code, rep = run_cli(capsys, argv)
    assert code == 4
    assert rep == {"error": "certificate failed re-verification", "kind": "invariant"}


def test_plmap_cocycle_fuzz_oracle(tmp_path, capsys):
    path = k4_square_map(tmp_path)
    code, rep = run_cli(capsys, ["plmap", "cocycle", "--map", path, "--r", "2",
                                 "--fuzz-oracle", "3"])
    assert code == 0
    assert rep["checked"] == rep["oracle_agreements"] == 3


def test_plmap_cocycle_fuzz_oracle_without_disjoint_tuples(tmp_path, capsys):
    # one edge has no pair of disjoint edges, so there is nothing to check
    path = write_json(tmp_path / "edge.json", {
        "complex": {"num_vertices": 2, "maximal_simplices": [[0, 1]]},
        "d": 2, "images": [["0", "0"], ["1", "0"]]})
    code, rep = run_cli(capsys, ["plmap", "cocycle", "--map", path, "--r", "2",
                                 "--fuzz-oracle", "3"])
    assert code == 0
    assert rep["checked"] == rep["oracle_agreements"] == 0


def test_plmap_cocycle_fuzz_oracle_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(plmaps, "coned_extension_oracle", lambda f, key, seed: None)
    code = cli.run(["plmap", "cocycle", "--map", k4_square_map(tmp_path), "--r", "2",
                    "--fuzz-oracle", "3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "the coned-extension oracle agreed in 0 of 3 checks", "kind": "invariant"}


@pytest.mark.parametrize("r", [2, 3])
def test_plmap_cocycle_fuzz_oracle_refuses_points_in_r0(tmp_path, capsys, r):
    # three points mapped to R^0 have an r-fold table (k = 0), but the
    # coned extension has nothing to cone over: exit 2, not an IndexError
    path = write_json(tmp_path / "points.json", {
        "complex": {"num_vertices": 3, "maximal_simplices": [[0], [1], [2]]},
        "d": 0, "images": [[], [], []]})
    code, rep = run_cli(capsys, ["plmap", "cocycle", "--map", path, "--r", str(r),
                                 "--fuzz-oracle", "2"])
    assert code == 2 and rep["kind"] == "input"
    for head in (["plmap", "cocycle"], ["plmap", "rfold"], ["vk", "obstruction"]):
        code, rep = run_cli(capsys, head + ["--map", path, "--r", str(r)])
        assert code == 0


@pytest.mark.parametrize("r", ["11", str(2**64)])
def test_vk_obstruction_on_points_in_r0_past_the_cap_exits_3(tmp_path, capsys, r):
    # a 0-dimensional map to R^0 admits every r (k = 0); past its three
    # vertices the deleted product is empty, but the decision lists Sigma_r
    path = write_json(tmp_path / "points.json", {
        "complex": {"num_vertices": 3, "maximal_simplices": [[0], [1], [2]]},
        "d": 0, "images": [[], [], []]})
    code, rep = run_cli(capsys, ["vk", "obstruction", "--map", path, "--r", r])
    assert (code, rep["kind"]) == (3, "cap")


@pytest.mark.parametrize("argv", [["radon", "--random", "0"],
                                  ["tverberg", "search", "--random", "0", "--r", "3"]],
                         ids=["radon", "tverberg"])
def test_random_zero_runs_no_instance(capsys, argv):
    code, rep = run_cli(capsys, argv)
    assert code == 0
    assert rep["instances"] == 0


def test_dp_homology_mod_large_prime(capsys):
    start = time.perf_counter()
    code, rep = run_cli(capsys, ["dp", "homology", "--n", "3", "--r", "2",
                                 "--mod", str(2**61 - 1)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert rep["coefficients"] == "GF(2305843009213693951)"


def test_vk_obstruction_lists_no_symmetric_group(tmp_path, capsys, monkeypatch):
    # three points mapped to R^0: the deleted product is empty, so no cell
    # bounds Sigma_10 (3.6 M elements, under the cell cap)
    groups = []
    real = obstruction.symmetric_group

    def symmetric_group(r):
        groups.append(real(r))
        return groups[-1]

    monkeypatch.setattr(obstruction, "symmetric_group", symmetric_group)
    path = write_json(tmp_path / "points-in-r0.json",
                      {"complex": {"num_vertices": 3, "maximal_simplices": [[0], [1], [2]]},
                       "d": 0, "images": [[], [], []]})
    code, rep = run_cli(capsys, ["vk", "obstruction", "--map", path, "--r", "10"])
    assert code == 0 and rep["verdict"] == "trivial"
    assert groups and all(G.degree == 10 and G._elements is None for G in groups)


def test_plmap_almost(tmp_path, capsys):
    path = k4_square_map(tmp_path)
    code, rep = run_cli(capsys, ["plmap", "almost", "--map", path, "--r", "2"])
    assert code == 0
    assert rep["almost_r_embedding"] is False


def test_sylow_report(capsys):
    code, rep = run_cli(capsys, ["sylow", "--r", "4", "--p", "2", "--elements"])
    assert code == 0
    assert rep["order"] == 8 and rep["alpha"] == 3
    assert rep["transitive"] is True
    assert len(rep["elements"]) == 8


def test_sylow_order_is_p_to_the_alpha(capsys):
    for r in range(1, 9):
        for p in (2, 3, 5, 7):
            code, rep = run_cli(capsys, ["sylow", "--r", str(r), "--p", str(p), "--elements"])
            assert code == 0
            assert rep["order"] == p ** rep["alpha"] == len(rep["elements"])


def refuse_to_list(monkeypatch):
    def elements(self):
        raise AssertionError("the group was enumerated")
    monkeypatch.setattr(cli.symgroup.PermGroup, "elements", elements)


def test_sylow_order_without_listing_the_group(capsys, monkeypatch):
    refuse_to_list(monkeypatch)
    code, rep = run_cli(capsys, ["sylow", "--r", "30", "--p", "2"])
    assert code == 0
    assert (rep["order"], rep["alpha"]) == (2 ** 26, 26)


def test_sylow_elements_over_the_cap_exit_3_before_listing(capsys, monkeypatch):
    refuse_to_list(monkeypatch)
    code, rep = run_cli(capsys, ["sylow", "--r", "30", "--p", "2", "--elements"])
    assert (code, rep["kind"]) == (3, "cap")
    monkeypatch.setenv("TVLAB_CELL_CAP", "100")
    code, rep = run_cli(capsys, ["sylow", "--r", "8", "--p", "2", "--elements"])
    assert (code, rep["kind"]) == (3, "cap")


def test_run_reuses_one_parser(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    for argv in (["sylow", "--r", "4", "--p", "2"], ["ozaydin", "report", "--r", "6"]):
        assert run_cli(capsys, argv)[0] == 0
    assert built == []


def test_ozaydin_report(capsys):
    code, rep = run_cli(capsys, ["ozaydin", "report", "--r", "6"])
    assert code == 0
    assert rep["relation_gcd"] == 1
    assert rep["is_prime_power"] is False
    assert rep["argument_applies"] is True
    assert [row["p"] for row in rep["rows"]] == [2, 3, 5]


def test_puzzle_path(capsys):
    code, rep = run_cli(capsys, ["puzzle", "--n", "3", "--r", "2",
                                 "--from", "[[0],[1]]", "--to", "[[2],[3]]"])
    assert code == 0
    assert rep["reachable"] is True
    assert rep["path"][0] == [[0], [1]] and rep["path"][-1] == [[2], [3]]
    assert rep["path_dims"] == [0, 1] * (len(rep["path"]) // 2) + [0]


def test_puzzle_between_the_two_orders_of_an_edge_is_unreachable(capsys):
    # the 2-fold deleted product of an edge is two points and no edge
    code, rep = run_cli(capsys, ["puzzle", "--n", "1", "--r", "2",
                                 "--from", "[[0],[1]]", "--to", "[[1],[0]]"])
    assert code == 0
    assert (rep["reachable"], rep["path"], rep["path_dims"]) == (False, [], [])


@pytest.mark.parametrize("mod", [None, "2"])
def test_empty_deleted_product_reports(capsys, mod):
    # 5 disjoint non-empty faces do not fit in the 4 vertices of Delta_3
    argv = ["--n", "3", "--r", "5"]
    code, rep = run_cli(capsys, ["dp", "stats"] + argv)
    assert (code, rep["empty"], rep["total_cells"]) == (0, True, 0)
    code, rep = run_cli(capsys, ["dp", "homology"] + argv + (["--mod", mod] if mod else []))
    assert (code, rep["homology"]) == (0, {})
    code, rep = run_cli(capsys, ["dp", "connectivity"] + argv)
    assert (code, rep["homological_connectivity"]) == (0, -2)


def test_construct_constraint_roundtrip(tmp_path, capsys):
    tri = {
        "complex": {"num_vertices": 3, "maximal_simplices": [[0, 1, 2]]},
        "d": 2,
        "images": [["0", "0"], ["1", "0"], ["0", "1"]],
    }
    path = write_json(tmp_path / "tri.json", tri)
    code, rep = run_cli(capsys, ["construct", "constraint", "--map", path,
                                 "--skeleton", "1"])
    assert code == 0
    assert rep["map"]["d"] == 3
    assert len(rep["vertex_faces"]) == 7
    heights = [row[-1] for row in rep["map"]["images"]]
    assert heights.count("0") == 6 and heights.count("1") == 1


def test_bad_points_file_exit_2(capsys):
    code, rep = run_cli(capsys, ["radon", "--points", "/nonexistent/pts.json"])
    assert code == 2
    assert rep["kind"] == "input"


def test_points_file_without_points_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "no-points.json", {"d": 2, "pts": [["0", "0"]]})
    code, rep = run_cli(capsys, ["radon", "--points", path])
    assert code == 2
    assert rep == {"error": 'points file needs a "points" list', "kind": "input"}


def run_module(*argv):
    """python -m tvlab.cli in a fresh process, with this tvlab on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "tvlab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_main_exits_with_the_run_code():
    done = run_module("dp", "stats", "--n", "2", "--r", "3")
    assert done.returncode == 0
    assert json.loads(done.stdout)["f_vector"] == [6]


def test_main_argparse_error_exits_2_without_traceback():
    done = run_module("dp", "stats", "--n", "2")
    assert done.returncode == 2
    assert "--r" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_malformed_map_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, rep = run_cli(capsys, ["plmap", "almost", "--map", str(path), "--r", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["dp", "homology", "--n", "-1", "--r", "2"],
    ["puzzle", "--n", "-1", "--r", "2", "--from", "[[0],[1]]", "--to", "[[1],[0]]"],
], ids=["dp-homology", "puzzle"])
def test_a_negative_n_is_refused_as_n(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err) == {"error": "need N >= 0, got N=-1", "kind": "input"}


@pytest.mark.parametrize("mod", ["0", "1", "4", "-3"])
def test_dp_homology_non_prime_mod_exit_2(capsys, mod):
    code = cli.run(["dp", "homology", "--n", "3", "--r", "2", "--mod", mod])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "input"


def test_bad_mod_rejected_before_any_cell_is_built(monkeypatch, capsys):
    def no_cells(*args, **kwargs):
        raise AssertionError("deleted_product called before the modulus was checked")

    monkeypatch.setattr(cli, "deleted_product", no_cells)
    code = cli.run(["dp", "homology", "--n", "7", "--r", "3", "--mod", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["kind"] == "input"


HEXAGON_MIXED = [["2", "0"], ["1", "2"], ["-1", "2"], ["-2", "0", "5"],
                 ["-1", "-2"], ["1", "-2"], ["0", "0"]]


@pytest.mark.parametrize("argv,points", [
    (["tverberg", "search", "--random", "2", "--r", "0"], None),
    (["tverberg", "search", "--random", "2", "--r", "1"], None),
    (["radon", "--points", "{points}"], []),
    (["radon", "--points", "{points}"], [["0", "0"], ["1"], ["0", "1"], ["1", "1"]]),
    (["radon", "--points", "{points}"], [1, 2, 3]),
    (["tverberg", "search", "--points", "{points}", "--r", "3"], HEXAGON_MIXED),
    (["tverberg", "search", "--r", "3"], None),
    (["radon"], None),
    (["sylow", "--r", "0", "--p", "2"], None),
    (["ozaydin", "report", "--r", "1"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "5", "--to", "[[2],[3]]"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "[5]", "--to", "[[2],[3]]"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "null", "--to", "[[2],[3]]"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2.0],[3]]"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]"], None),
    (["puzzle", "--n", "3", "--r", "2", "--from", "[" * 5000 + "]" * 5000, "--to", "[[2],[3]]"], None),
    (["radon", "--points", "{deep}"], None),
    (["vk", "obstruction", "--map", "{deep}", "--r", "2"], None),
    (["plmap", "almost", "--map", "{deep}", "--r", "2"], None),
    (["dp", "stats", "--complex", "{deep}", "--r", "2"], None),
    (["plmap", "almost", "--map", "{k4}", "--r", "0"], None),
    (["plmap", "almost", "--map", "{k4}", "--r", "1"], None),
    (["radon", "--random", "-1"], None),
    (["tverberg", "search", "--random", "-1", "--r", "3"], None),
    (["plmap", "cocycle", "--map", "{k4}", "--r", "2", "--fuzz-oracle", "-1"], None),
    (["vk", "obstruction", "--map", "{zero-den}", "--r", "2"], None),
    (["plmap", "rfold", "--map", "{zero-den}", "--r", "2"], None),
    (["dp", "stats", "--complex", "{negative-vertices}", "--r", "2"], None),
    (["plmap", "cocycle", "--map", "{d-2}", "--r", "2"], None),
    (["vk", "obstruction", "--map", "{d-2}", "--r", "2"], None),
    (["plmap", "almost", "--map", "{d-1}", "--r", "2"], None),
], ids=["tverberg-r0", "tverberg-r1", "radon-empty", "radon-ragged",
        "radon-not-points", "tverberg-mixed-dimension", "tverberg-no-points",
        "radon-no-points", "sylow-r0", "ozaydin-r1", "puzzle-from-int",
        "puzzle-from-flat", "puzzle-from-null", "puzzle-to-float",
        "puzzle-to-not-json", "puzzle-from-deep", "radon-points-deep",
        "vk-map-deep", "plmap-almost-map-deep", "dp-stats-complex-deep",
        "plmap-almost-r0", "plmap-almost-r1", "radon-random-negative",
        "tverberg-random-negative", "cocycle-fuzz-negative",
        "vk-map-zero-denominator", "plmap-rfold-map-zero-denominator",
        "dp-stats-negative-vertices", "plmap-cocycle-negative-d", "vk-negative-d",
        "plmap-almost-negative-d"])
def test_bad_input_exit_2(tmp_path, capsys, argv, points):
    if points is not None:
        path = write_json(tmp_path / "pts.json", {"d": 2, "points": points})
        argv = [path if a == "{points}" else a for a in argv]
    if "{k4}" in argv or "{zero-den}" in argv:
        k4 = k4_square_map(tmp_path)
        data = json.loads((tmp_path / "k4.json").read_text())
        data["images"][0] = ["1/0", "0"]
        zero_den = write_json(tmp_path / "zero-den.json", data)
        argv = [{"{k4}": k4, "{zero-den}": zero_den}.get(a, a) for a in argv]
    empty = {"num_vertices": 0, "maximal_simplices": []}
    files = {"{negative-vertices}": {"num_vertices": -3, "maximal_simplices": []},
             "{d-2}": {"complex": empty, "d": -2, "images": []},
             "{d-1}": {"complex": empty, "d": -1, "images": []}}
    argv = [write_json(tmp_path / "file.json", files[a]) if a in files else a for a in argv]
    if "{deep}" in argv:  # too deeply nested for the JSON decoder
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        argv = [str(deep) if a == "{deep}" else a for a in argv]
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize("argv", [
    ["dp", "stats", "--r", "3"],
    ["dp", "homology", "--r", "3"],
    ["dp", "connectivity", "--r", "3"],
    ["puzzle", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]]"],
])
def test_missing_complex_exit_2(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "input"


def run_argparse_error(capsys, argv):
    """The exit code of an argv that argparse rejects, and its stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("head", [
    ["dp", "stats", "--r", "2"],
    ["dp", "homology", "--r", "2"],
    ["dp", "connectivity", "--r", "2"],
    ["puzzle", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]]"],
], ids=lambda head: " ".join(head[:2]))
def test_n_and_complex_together_exit_2(tmp_path, capsys, head):
    path = write_json(tmp_path / "two.json", {"num_vertices": 4,
                                               "maximal_simplices": [[0, 1], [2, 3]]})
    code, captured = run_argparse_error(capsys, head + ["--n", "6", "--complex", path])
    assert code == 2 and captured.out == ""
    assert "not allowed with argument --n" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("head", [["radon"], ["tverberg", "search", "--r", "2"]],
                         ids=lambda head: head[0])
def test_points_and_random_together_exit_2(tmp_path, capsys, head):
    path = write_json(tmp_path / "p.json", {"d": 1, "points": [["0"], ["1"], ["2"]]})
    code, captured = run_argparse_error(capsys, head + ["--points", path, "--random", "2"])
    assert code == 2 and captured.out == ""
    assert "not allowed with argument --points" in captured.err
    assert "Traceback" not in captured.err


# every subcommand with a multiplicity --r, each reading a file that does not exist
WITH_R = [
    ["dp", "stats", "--complex", "missing.json"],
    ["dp", "homology", "--complex", "missing.json"],
    ["dp", "connectivity", "--complex", "missing.json"],
    ["tverberg", "search", "--points", "missing.json"],
    ["plmap", "rfold", "--map", "missing.json"],
    ["plmap", "cocycle", "--map", "missing.json"],
    ["plmap", "almost", "--map", "missing.json"],
    ["vk", "obstruction", "--map", "missing.json"],
    ["ozaydin", "report"],
    ["puzzle", "--complex", "missing.json", "--from", "[[0],[1]]", "--to", "[[2],[3]]"],
    ["construct", "join", "--map", "missing.json"],
]


@pytest.mark.parametrize("argv", [
    *(head + ["--r", "1"] for head in WITH_R),
    ["radon", "--points", "missing.json", "--random", "-1"],
    ["tverberg", "search", "--points", "missing.json", "--r", "3", "--random", "-1"],
    ["plmap", "cocycle", "--map", "missing.json", "--r", "2", "--fuzz-oracle", "-1"],
], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json") and a[0] != "["))
def test_arguments_checked_before_any_file_is_read(capsys, argv):
    code, rep = run_cli(capsys, argv)
    expected = "need r >= 2, got 1" if argv[-1] == "1" else "need a count >= 0, got -1"
    assert (code, rep) == (2, {"error": expected, "kind": "input"})


@pytest.mark.parametrize("head", WITH_R, ids=lambda head: " ".join(head[:2]))
def test_non_integer_r_is_an_argparse_error(capsys, head):
    with pytest.raises(SystemExit) as exc:
        cli.run(head + ["--r", "x"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --r" in err and "Traceback" not in err


def test_cap_exceeded_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("TVLAB_CELL_CAP", "10")
    code, rep = run_cli(capsys, ["dp", "stats", "--n", "4", "--r", "2"])
    assert code == 3
    assert rep["kind"] == "cap"


# name: (base, r, d), with r * dim(base) = (r - 1) * d, as a van Kampen map needs
CAP_BASES = {
    "skeleton": (simplex_skeleton(6, 1), 2, 2),
    "colored333": (Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                            for b in range(3, 6) for c in range(6, 9)]), 3, 3),
    "file": (Complex.from_maximal(12, [[0, 1, 5], [5, 9], [11], [2, 7], [3, 4, 6]]), 3, 3),
}


def refuse_to_list_cells(monkeypatch):
    def cells_by_dim(self):
        raise AssertionError("the cells of the deleted product were listed")
    monkeypatch.setattr(DeletedProductComplex, "cells_by_dim", property(cells_by_dim))


@pytest.mark.parametrize("name", sorted(CAP_BASES))
def test_cap_refuses_every_base_before_listing(tmp_path, capsys, monkeypatch, name):
    K, r, d = CAP_BASES[name]
    complex_path = write_json(tmp_path / "base.json", K.to_json_dict())
    map_path = write_json(tmp_path / "map.json", plmaps.PLMap.build(
        K, d, random_rational_points(K.num_vertices, d, repr(("cap", name)))).to_json_dict())
    base = ["--complex", complex_path, "--r", str(r)]
    total = deleted_product(K, r).total_cells()
    monkeypatch.setenv("TVLAB_CELL_CAP", str(total))
    assert run_cli(capsys, ["dp", "homology"] + base)[0] == 0  # listed, within the cap
    refuse_to_list_cells(monkeypatch)
    code, rep = run_cli(capsys, ["dp", "stats"] + base)
    assert (code, rep["total_cells"]) == (0, total)
    assert run_cli(capsys, ["vk", "obstruction", "--map", map_path, "--r", str(r)])[0] == 0
    monkeypatch.setenv("TVLAB_CELL_CAP", str(total - 1))
    # the running count is a lower bound on the total, so it passes total - 1 only at the total
    refusal = {"error": "cells of the deleted product, at least: %d, over the cell cap %d"
               % (total, total - 1), "kind": "cap"}
    cell = json.dumps([[v] for v in range(r)])
    for argv in (["dp", "stats"] + base, ["dp", "homology"] + base, ["dp", "connectivity"] + base,
                 ["puzzle", "--from", cell, "--to", cell] + base,
                 ["vk", "obstruction", "--map", map_path, "--r", str(r)]):
        assert run_cli(capsys, argv) == (3, refusal), argv


@pytest.mark.parametrize("command", ["homology", "connectivity"])
def test_a_dp_query_walks_the_cells_once(tmp_path, capsys, monkeypatch, command):
    """The one walk lists the cells with their keys and growth masks, and the
    matching, the Morse boundaries and the report walk no more."""
    walks = []

    def counted(*args):
        walks.append(args)
        return lister(*args)

    lister = deleted_product_module._disjoint
    monkeypatch.setattr(deleted_product_module, "_disjoint", counted)
    complex_path = write_json(tmp_path / "base.json", CAP_BASES["colored333"][0].to_json_dict())
    for base in (["--n", "5", "--r", "3"], ["--n", "5", "--r", "5"],
                 ["--complex", complex_path, "--r", "3"]):
        walks.clear()
        assert run_cli(capsys, ["dp", command] + base)[0] == 0
        assert len(walks) == 1, base


def test_cap_stops_the_count_of_a_large_base_within_a_few_prefixes(tmp_path, capsys, monkeypatch):
    # all 19,900 edges on 200 vertices: about 2 * 10^8 cells for r = 2, far past the cap,
    # though the 20,100 simplices are within it
    K = simplex_skeleton(199, 1)
    complex_path = write_json(tmp_path / "edges.json", K.to_json_dict())
    map_path = write_json(tmp_path / "map.json", plmaps.PLMap.build(
        K, 2, random_rational_points(K.num_vertices, 2, "edges")).to_json_dict())
    prefixes = []

    def counted_fits(*args):
        prefixes.append(args)
        assert len(prefixes) < 20, "the count went on past the cap"
        return fits(*args)

    fits = deleted_product_module._fits
    monkeypatch.setattr(deleted_product_module, "_fits", counted_fits)
    monkeypatch.setenv("TVLAB_CELL_CAP", "100000")
    refuse_to_list_cells(monkeypatch)
    for argv in (["dp", "stats"], ["dp", "homology"], ["dp", "connectivity"]):
        code, rep = run_cli(capsys, argv + ["--complex", complex_path, "--r", "2"])
        assert code == 3 and rep["kind"] == "cap", argv
        assert rep["error"].startswith("cells of the deleted product, at least: ")
        prefixes.clear()
    code, rep = run_cli(capsys, ["vk", "obstruction", "--map", map_path, "--r", "2"])
    assert code == 3 and rep["kind"] == "cap"


@pytest.mark.parametrize("r", ["2", "40"])
@pytest.mark.parametrize("argv", [
    ["dp", "stats"], ["dp", "homology"], ["dp", "connectivity"],
    ["puzzle", "--from", "[[0],[1]]", "--to", "[[2],[3]]"],
], ids=["stats", "homology", "connectivity", "puzzle"])
def test_cap_checked_before_the_base_simplex_is_built(monkeypatch, capsys, argv, r):
    def no_base(n):
        raise AssertionError("the %d-simplex was built before the cap was checked" % n)

    monkeypatch.setattr(cli, "full_simplex", no_base)
    code = cli.run(argv + ["--n", "30", "--r", r])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["kind"] == "cap"


def test_construct_join_checks_the_face_cap(tmp_path, capsys):
    tri = {"complex": {"num_vertices": 3, "maximal_simplices": [[0, 1, 2]]},
           "d": 2, "images": [["0", "0"], ["1", "0"], ["0", "1"]]}
    path = write_json(tmp_path / "tri.json", tri)
    for r in (str(2**64), "30"):
        code, rep = run_cli(capsys, ["construct", "join", "--map", path, "--r", r])
        assert code == 3 and rep["kind"] == "cap"


def test_jsonable_conventions():
    assert cli.report_text(Fraction(1, 3)) == '"1/3"'
    assert cli.report_text(2**53 + 1) == '"%d"' % (2**53 + 1)
    assert cli.report_text(-(2**53) - 1) == '"%d"' % (-(2**53) - 1)
    assert cli.report_text(2**52) == str(2**52)
    assert cli.report_text({1: (True, None)}) == '{\n  "1": [\n    true,\n    null\n  ]\n}'


def jsonable(obj):
    """The converter that reports went through before cli.report_text: a
    copy of the report, which json.dumps(..., sort_keys=True, indent=2)
    then wrote.  The oracle of the writer's bytes."""
    if isinstance(obj, Fraction):
        return convexity.rational_text(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if -cli.SAFE_INT < obj < cli.SAFE_INT else convexity.rational_text(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        return [jsonable(x) for x in obj]
    if hasattr(obj, "__dict__"):
        return jsonable(vars(obj))
    return str(obj)


Pair = namedtuple("Pair", "first second")


class Count(int):
    def __repr__(self):
        return "Count(%d)" % self


class Measure(float):
    def __repr__(self):
        return "Measure(%s)" % float.__repr__(self)


@dataclass
class Labelled:
    label: object
    value: object


if given is not None:
    HASHABLE = st.one_of(
        st.fractions(), st.integers(), st.integers(-2**80, 2**80),
        st.sampled_from([2**53 - 1, 2**53, -(2**53), 2**64]), st.booleans(), st.none(),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
        st.sampled_from(["\u00e9", "\u2203x", "\U0001d4b3", "\x00\x1f\n\t\"\\", "\ud800"]),
        st.builds(Count, st.integers(-2**60, 2**60)), st.builds(Measure, st.floats()),
        st.complex_numbers(max_magnitude=10))
    KEYS = st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "0", "True", "None"]),
                     st.booleans(), st.none(), st.fractions(max_denominator=3),
                     st.text(max_size=3))
    VALUES = st.recursive(HASHABLE, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(KEYS, inner, max_size=5),
        st.frozensets(HASHABLE, max_size=4), st.sets(HASHABLE, max_size=4),
        st.builds(Pair, inner, inner), st.builds(Labelled, inner, inner),
        st.just([]), st.just(()), st.just({}), st.just(set()), st.just(frozenset())),
        max_leaves=25)


EVERY_KIND = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, Measure(float("nan")),
               Measure(2.5)],
    "ints": [[1, 2**53 - 1], [1, 2**53], (-(2**53), 0), [Count(3), Count(2**60)], {5, -(2**64)}],
    "keys": {1: "int key", "1": "str key", Fraction(1, 2): 0, None: [], False: {}},
    "objects": [Pair(Fraction(-1, 3), ()), Labelled("\u2203\x00", frozenset()), 1j],
}


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_report_text_is_json_dumps_of_the_converted_report():
    @settings(max_examples=300)
    @given(VALUES)
    @example(EVERY_KIND)
    def check(obj):
        assert cli.report_text(obj) == json.dumps(jsonable(obj), sort_keys=True, indent=2)

    check()
    colliding = {1: "int key", "1": "str key", 2: Fraction(1, 2)}
    assert json.loads(cli.report_text(colliding)) == {"1": "str key", "2": "1/2"}


SHARED = (3, 1, 4)
MEMO_CASES = {
    "two depths": {"a": SHARED, "b": [SHARED, {"c": SHARED}], "d": [[SHARED]]},
    "twice in a list": [SHARED, SHARED, (SHARED, SHARED)],
    "equal, distinct": [tuple([5, 9]), tuple([5, 9]), [tuple([5, 9])]],
    "namedtuple": [Pair(1, 2), Pair(1, 2), {"p": Pair(1, 2)}, Pair(2 ** 53, True)],
    "bool": [(1, 1), (True, 1), (1, True), (True, 1), (1.0, 1)],
    "Count": [(Count(3), 4), (4, Count(3))],
    "2^53": [(2 ** 53, 1), (1, -(2 ** 53)), (2 ** 53 - 1, -(2 ** 53) + 1)],
    "list inside": [(1, [2, 3]), ([2, 3], 1), (1, (2, 3))],
}


@pytest.mark.parametrize("name", list(MEMO_CASES))
def test_a_tuple_written_from_the_memo_reads_as_json_dumps(name):
    """A tuple of ints met again, at the same or another depth, is written
    from the memo; a tuple that holds anything else is written in full."""
    obj = MEMO_CASES[name]
    for report in (obj, [obj, obj], {"x": obj, "y": [obj]}):
        assert cli.report_text(report) == json.dumps(jsonable(report), sort_keys=True, indent=2)


def test_an_answer_too_long_to_print_exits_3(tmp_path, capsys):
    # valid points whose Radon report holds a numerator past the
    # int-to-str digit limit: over a limit (3), not bad input (2); nothing
    # is printed and no --out file is created
    ones = "1" * 3000
    pts = write_json(tmp_path / "long.json",
                     {"points": [[ones + "/7"], ["-" + ones + "/11"], ["3/" + ones]]})
    out = tmp_path / "report.json"
    for extra in ([], ["--out", str(out)]):
        code = cli.run(["radon", "--points", pts, "--d", "1"] + extra)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "a number in the report has more than %d digits"
            % sys.get_int_max_str_digits(), "kind": "cap"}
    assert not out.exists()


def test_constraint_lift_too_long_to_print_exits_3(tmp_path, capsys):
    # images with 4,299-digit denominators read; their barycenter's does not print
    edge = {"complex": {"num_vertices": 2, "maximal_simplices": [[0, 1]]}, "d": 1,
            "images": [["1/%d" % (10**4299 - 1)], ["1/%d" % (10**4299 - 3)]]}
    path = write_json(tmp_path / "edge.json", edge)
    code = cli.run(["construct", "constraint", "--map", path, "--skeleton", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": "a number in the report has more than %d digits"
                                        % sys.get_int_max_str_digits(), "kind": "cap"}


def exponent_inputs(tmp_path, text):
    """A Radon points file and a map of an edge in R^1, with text as the
    first coordinate of each."""
    points = write_json(tmp_path / "points.json", {"points": [[text], ["0"], ["1"]]})
    edge = write_json(tmp_path / "edge.json", {
        "complex": {"num_vertices": 2, "maximal_simplices": [[0, 1]]}, "d": 1,
        "images": [[text], ["0"]]})
    return [["radon", "--points", points, "--d", "1"],
            ["construct", "join", "--map", edge, "--r", "2"]]


@pytest.mark.parametrize("text", ["1e9999999", "-1E-9999999", "1.5e+29999999", "0e9999999"])
def test_an_exponent_past_the_digit_limit_exits_3_at_once(tmp_path, capsys, text):
    # Fraction would build the power of ten first: 10^29999999 takes minutes
    for argv in exponent_inputs(tmp_path, text):
        start = time.perf_counter()
        code, rep = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert rep == {"error": "the power of ten in a coordinate has more than %d digits"
                       % sys.get_int_max_str_digits(), "kind": "cap"}, argv


def test_an_exponent_within_the_digit_limit_reads(tmp_path, capsys):
    radon, join = exponent_inputs(tmp_path, "1e4000")
    code, rep = run_cli(capsys, radon)
    assert code == 0 and rep["witness"] == ["1"]
    code, rep = run_cli(capsys, join)
    assert code == 0 and rep["map"]["images"][0] == [str(10**4000), "0"]


WIDE = {"num_vertices": 40, "maximal_simplices": [list(range(40))]}


@pytest.mark.parametrize("argv", [
    ["dp", "stats", "--complex", "{complex}"],
    ["plmap", "almost", "--map", "{map}"],
], ids=["dp-stats", "plmap-almost"])
def test_a_wide_simplex_in_a_file_exits_3_before_closing(tmp_path, capsys, argv):
    paths = {"{complex}": write_json(tmp_path / "wide.json", WIDE),
             "{map}": write_json(tmp_path / "wide-map.json",
                                 {"complex": WIDE, "d": 1, "images": [["0"]] * 40})}
    argv = [paths.get(a, a) for a in argv]
    code, rep = run_cli(capsys, argv + ["--r", "2"])
    assert (code, rep["kind"]) == (3, "cap")
    code, rep = run_cli(capsys, argv + ["--r", "1"])  # a bad r is refused before the file
    assert (code, rep["kind"]) == (2, "input")


def full_simplex_map(tmp_path, N):
    f = plmaps.PLMap.build(simplex_skeleton(N, N), N, [[int(i == j) for j in range(N)]
                                                        for i in range(N + 1)])
    return write_json(tmp_path / ("delta%d.json" % N), f.to_json_dict())


def test_constraint_lift_over_the_cap_exits_3_before_any_flag(tmp_path, capsys, monkeypatch):
    def no_flags(*args):
        raise AssertionError("a flag was built before the cap was checked")

    monkeypatch.setattr(plmaps, "permutations", no_flags)
    path = full_simplex_map(tmp_path, 8)  # 14,174,521 simplices in the subdivision
    code, rep = run_cli(capsys, ["construct", "constraint", "--map", path, "--skeleton", "2"])
    assert (code, rep["kind"]) == (3, "cap")
    monkeypatch.setenv("TVLAB_CELL_CAP", "148")  # the subdivided 3-simplex has 149
    path = full_simplex_map(tmp_path, 3)
    code, rep = run_cli(capsys, ["construct", "constraint", "--map", path, "--skeleton", "1"])
    assert (code, rep["kind"]) == (3, "cap")


def test_disjoint_tuples_over_the_cap_exit_3_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a tuple was solved before the cap was checked")

    monkeypatch.setattr(plmaps, "tuple_r_fold_point", no_solve)
    monkeypatch.setattr(plmaps.convexity, "hulls_intersect", no_solve)
    monkeypatch.setenv("TVLAB_CELL_CAP", "1000")
    K = simplex_skeleton(9, 2)  # 175 faces, 2,100 disjoint pairs of triangles
    f = plmaps.PLMap.build(K, 4, plmaps.convexity.random_rational_points(10, 4, "delta9"))
    path = write_json(tmp_path / "delta9-2.json", f.to_json_dict())
    for command in (["plmap", "cocycle"], ["plmap", "rfold"], ["plmap", "almost"],
                    ["vk", "obstruction"]):
        code, rep = run_cli(capsys, command + ["--map", path, "--r", "2"])
        assert (code, rep["kind"]) == (3, "cap"), command


def test_vk_obstruction_counts_cells_for_the_cap_before_any_solve(tmp_path, capsys,
                                                                  monkeypatch):
    # 70 disjoint pairs of triangles, under the cap, but 1,302 cells
    def no_solve(*args):
        raise AssertionError("a tuple was solved before the cells were counted")

    f = plmaps.PLMap.build(simplex_skeleton(6, 2), 4, random_rational_points(7, 4, "delta6"))
    path = write_json(tmp_path / "delta6-2.json", f.to_json_dict())
    argv = ["vk", "obstruction", "--map", path, "--r", "2"]
    monkeypatch.setattr(plmaps, "tuple_r_fold_point", no_solve)
    monkeypatch.setenv("TVLAB_CELL_CAP", "1301")
    refusal = "cells of the deleted product, at least: 1302, over the cell cap 1301"
    assert run_cli(capsys, argv) == (3, {"error": refusal, "kind": "cap"})
    # a dimension error still comes first, with exit 2
    code, rep = run_cli(capsys, ["vk", "obstruction", "--map", path, "--r", "3"])
    assert (code, rep["kind"]) == (2, "input")


@pytest.mark.parametrize("command", ["cocycle", "rfold", "almost"])
def test_plmap_lists_disjoint_tuples_up_to_the_cap(tmp_path, capsys, monkeypatch, command):
    K = simplex_skeleton(7, 2)  # 92 faces; 280 disjoint pairs of triangles, more of all faces
    f = plmaps.PLMap.build(K, 4, random_rational_points(8, 4, "cap boundary"))
    path = write_json(tmp_path / "delta7-2.json", f.to_json_dict())
    listed = K.simplices if command == "almost" else K.simplices_of_dim(2)
    count = len(plmaps.disjoint_tuples(listed, 2))
    argv = ["plmap", command, "--map", path, "--r", "2"]
    monkeypatch.setenv("TVLAB_CELL_CAP", str(count))
    assert run_cli(capsys, argv)[0] == 0
    monkeypatch.setenv("TVLAB_CELL_CAP", str(count - 1))
    refusal = "disjoint 2-tuples, at least: %d, over the cell cap %d" % (count, count - 1)
    assert run_cli(capsys, argv) == (3, {"error": refusal, "kind": "cap"})


def test_rfold_of_1100_points_in_r0(tmp_path, capsys):
    # 1100 isolated vertices sent to the one point of R^0 have one 1100-tuple, which
    # the recursion over sorted prefixes reached too deep to list
    f = plmaps.PLMap.build(Complex.from_maximal(1100, [[v] for v in range(1100)]), 0, [()] * 1100)
    path = write_json(tmp_path / "points.json", f.to_json_dict())
    code, rep = run_cli(capsys, ["plmap", "rfold", "--map", path, "--r", "1100"])
    assert (code, rep["count"]) == (0, 1)


def test_tverberg_search_with_a_thousand_parts(capsys):
    # one part per point of R^0: the partition walk's depth is r
    code, rep = run_cli(capsys, ["tverberg", "search", "--random", "1", "--r", "1000", "--d", "0"])
    assert (code, rep["found"]) == (0, 1)


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli.convexity, "tverberg_search", exhausted)
    code, rep = run_cli(capsys, ["tverberg", "search", "--random", "1", "--r", "2", "--d", "1"])
    assert (code, rep) == (3, {"error": "out of memory", "kind": "cap"})


def test_construct_constraint_on_delta5_is_fast(tmp_path, capsys):
    path = full_simplex_map(tmp_path, 5)
    start = time.perf_counter()
    code, rep = run_cli(capsys, ["construct", "constraint", "--map", path, "--skeleton", "2"])
    assert code == 0
    assert len(rep["map"]["complex"]["maximal_simplices"]) == 720  # 6! full flags
    assert time.perf_counter() - start < 1.0


def test_sylow_report_size_checked_before_the_group_is_built(capsys, monkeypatch):
    def no_group(r, p):
        raise AssertionError("the Sylow subgroup was built")

    monkeypatch.setattr(cli.symgroup, "sylow_tree_subgroup", no_group)
    code, rep = run_cli(capsys, ["sylow", "--r", "10000", "--p", "2"])
    assert (code, rep["kind"]) == (3, "cap")
    monkeypatch.setenv("TVLAB_CELL_CAP", "100")  # no generator, but 200 orbit points
    code, rep = run_cli(capsys, ["sylow", "--r", "200", "--p", "211"])
    assert (code, rep["kind"]) == (3, "cap")


def test_sylow_orbits_in_linear_time(capsys):
    start = time.perf_counter()
    code, rep = run_cli(capsys, ["sylow", "--r", "100000", "--p", "100003"])
    assert code == 0
    assert rep["generators"] == [] and len(rep["orbits"]) == 100000
    assert rep["orbits"][-1] == [99999]
    assert time.perf_counter() - start < 10.0


def test_ozaydin_report_without_building_a_group(capsys, monkeypatch):
    def no_group(r, p):
        raise AssertionError("a Sylow subgroup was built")

    monkeypatch.setattr(cli.symgroup, "sylow_tree_subgroup", no_group)
    start = time.perf_counter()
    code, rep = run_cli(capsys, ["ozaydin", "report", "--r", "3000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and len(rep["rows"]) == 430  # the primes up to 3000
    assert rep["relation_gcd"] == 1 and rep["argument_applies"] is True


def test_ozaydin_report_size_checked_before_any_row(capsys, monkeypatch):
    # 2^16383, the gcd at r = 2^14, has 4,932 digits; at r = 14,296 the
    # Sylow order 2^14287 is the first to pass 4,300
    for r, code in [(16384, 3), (14295, 0), (14296, 3), (10**30, 3)]:
        assert run_cli(capsys, ["ozaydin", "report", "--r", str(r)])[0] == code, r
    monkeypatch.setenv("TVLAB_CELL_CAP", "100")
    code, rep = run_cli(capsys, ["ozaydin", "report", "--r", "101"])
    assert (code, rep["kind"]) == (3, "cap")
    assert run_cli(capsys, ["ozaydin", "report", "--r", "100"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["radon", "--random", "1", "--d", "1000000"],
    ["tverberg", "search", "--random", "1", "--d", "10000", "--r", "1000"],
])
def test_random_points_over_the_cap_exit_3_before_drawing(capsys, monkeypatch, argv):
    def no_points(n, d, seed):
        raise AssertionError("random points were drawn")

    monkeypatch.setattr(cli.convexity, "random_rational_points", no_points)
    code, rep = run_cli(capsys, argv)
    assert (code, rep["kind"]) == (3, "cap")
    argv[argv.index("--random") + 1] = "0"
    assert run_cli(capsys, argv)[0] == 0
