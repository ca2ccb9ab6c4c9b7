"""End-to-end checks of the command-line interface: exit codes, JSON report
shapes, determinism of reports under a fixed configuration."""

import json
import time

import pytest

from tvlab import cli
from tvlab.complexes import simplex_skeleton


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


def test_malformed_map_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, rep = run_cli(capsys, ["plmap", "almost", "--map", str(path), "--r", "2"])
    assert code == 2


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
], ids=["tverberg-r0", "tverberg-r1", "radon-empty", "radon-ragged",
        "radon-not-points", "tverberg-mixed-dimension", "tverberg-no-points",
        "radon-no-points", "sylow-r0", "ozaydin-r1", "puzzle-from-int",
        "puzzle-from-flat", "puzzle-from-null", "puzzle-to-float",
        "puzzle-to-not-json", "puzzle-from-deep", "radon-points-deep",
        "vk-map-deep", "plmap-almost-map-deep", "dp-stats-complex-deep",
        "plmap-almost-r0", "plmap-almost-r1", "radon-random-negative",
        "tverberg-random-negative", "cocycle-fuzz-negative",
        "vk-map-zero-denominator", "plmap-rfold-map-zero-denominator"])
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


def test_cap_exceeded_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("TVLAB_CELL_CAP", "10")
    code, rep = run_cli(capsys, ["dp", "stats", "--n", "4", "--r", "2"])
    assert code == 3
    assert rep["kind"] == "cap"


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
    from fractions import Fraction

    assert cli.jsonable(Fraction(1, 3)) == "1/3"
    assert cli.jsonable(2**53 + 1) == str(2**53 + 1)
    assert cli.jsonable(-(2**53) - 1) == str(-(2**53) - 1)
    assert cli.jsonable(2**52) == 2**52
    assert cli.jsonable({1: (True, None)}) == {"1": [True, None]}
