"""Random argv for every subcommand: the CLI exits 0, 2, 3 or 4, never with
a traceback, and never accepts a multiplicity r < 2 (the --r of every
subcommand but sylow, construct join included: explicit examples run it
with r = 1, 0 and -5 on a valid map) or a negative count.
A Tverberg search with r = 3 on a valid but degenerate point set exits 0.

Integers are drawn small, zero, negative and huge.  Huge values go to the
arguments whose size is checked before any work: --n (the cell cap), the
--r of maps and of the deleted product, --skeleton, --mod and --p (the
primality test is quick: 2^61 - 1 is prime, and 10^30 is past the bound of
the deterministic test and rejected), the --r of construct join (the face
cap), the --r of sylow (the report's size against the cell cap), the --r of
ozaydin (the cell cap and the digits of the Sylow orders) and, with
--random, --d (the random coordinates against the cell cap).  Arguments
that only set how much work is done (--random, --fuzz-oracle, the --r of
tverberg) are drawn from small ranges, since a large value there is a long
but legitimate run.  Input files are valid,
missing, malformed, deeply nested, carry "1/0" and 1e400 as coordinates,
hold one 40-vertex simplex, whose 2^40 - 1 faces the face cap refuses
to close, or map three points to R^0, where the coned extension of
--fuzz-oracle has nothing to cone over and every r is admissible, so a
huge --r reaches the cap on Sigma_r (explicit examples run both on every
run).  The point files include degenerate sets: seven
copies of one point, seven collinear points in R^2 and five points in R^1;
explicit examples run tverberg search --r 3 on the first two, whose
separating-direction test meets ties and empty gaps.

The drawn combinations of subcommand, file, r and flags rarely reach a
success path, so further explicit examples (SUCCESSES) run construct join,
vk obstruction --certificate, plmap cocycle --fuzz-oracle and puzzle on
valid input, and must exit 0.

Past the draws: every integer argument and the JSON fields num_vertices, d
and a vertex id get integers of 4,299, 4,301 and 10,000 digits, around the
4,300-digit int-to-str limit; each exits with the code its case names, never
with a traceback.  One matrix feeds the same malformed points (the point
"12", true, 0.5, an object in place of a list) through every reader of
points, file or library call, and 2.5, "2" and true through every integer
field: each raises InputError, or exits 2 with "kind": "input".
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tvlab import cli, convexity
from tvlab.complexes import Complex, simplex_skeleton
from tvlab.errors import InputError
from tvlab.plmaps import PLMap

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

K4 = simplex_skeleton(3, 1).to_json_dict()
TRIANGLES = {"num_vertices": 9, "maximal_simplices": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}
TRIANGLE_IMAGES = [["2", "0", "0"], ["-1", "1", "0"], ["-1", "-1", "0"],
                   ["0", "2", "0"], ["0", "-1", "1"], ["0", "-1", "-1"],
                   ["1", "0", "2"], ["1", "0", "-1"], ["-2", "0", "-1"]]
SQUARE = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
HEXAGON = [["2", "0"], ["1", "2"], ["-1", "2"], ["-2", "0"],
           ["-1", "-2"], ["1", "-2"], ["0", "0"]]
WIDE = {"num_vertices": 40, "maximal_simplices": [list(range(40))]}

# file name -> contents (a JSON value, or raw text under "text:")
FILES = {
    "square.json": {"complex": K4, "d": 2, "images": SQUARE},
    "triangles.json": {"complex": TRIANGLES, "d": 3, "images": TRIANGLE_IMAGES},
    "simplex.json": {"complex": {"num_vertices": 3, "maximal_simplices": [[0, 1, 2]]},
                     "d": 2, "images": [["0", "0"], ["1", "0"], ["0", "1"]]},
    "touching.json": {"complex": {"num_vertices": 4, "maximal_simplices": [[0, 1], [2, 3]]},
                      "d": 2, "images": [["0", "0"], ["2", "2"], ["1", "1"], ["3", "0"]]},
    "zero-den.json": {"complex": K4, "d": 2, "images": [["1/0", "0"]] + SQUARE[1:]},
    "inf.json": "text:" + json.dumps({"complex": K4, "d": 2, "images": SQUARE})
                .replace('"1", "1"', '1e400, "1"'),
    "no-images.json": {"complex": K4, "d": 2},
    "bad-d.json": {"complex": K4, "d": "two", "images": SQUARE},
    "float-vertex.json": {"complex": {"num_vertices": 4, "maximal_simplices": [[0.5, 1]]},
                          "d": 2, "images": SQUARE},
    "points-in-r0.json": {"complex": {"num_vertices": 3, "maximal_simplices": [[0], [1], [2]]},
                          "d": 0, "images": [[], [], []]},
    "many-vertices.json": {"complex": {"num_vertices": 10**12, "maximal_simplices": [[0]]},
                           "d": 1, "images": [["0"]]},
    "k4.json": K4,
    # read as a complex and as a map: both hold the one 40-vertex simplex
    "wide-simplex.json": {**WIDE, "complex": WIDE, "d": 1, "images": [["0"]] * 40},
    "complex-zero-den.json": {"num_vertices": "1/0", "maximal_simplices": [[0]]},
    "hexagon.json": {"d": 2, "points": HEXAGON},
    "repeated.json": {"d": 2, "points": [["0", "0"]] * 7},
    "collinear.json": {"d": 2, "points": [[str(t), str(2 * t - 1)] for t in (3, -1, 0, 5, 2, -4, 1)]},
    "points-r1.json": {"d": 1, "points": [["3"], ["-1/2"], ["4"], ["1"], ["-5"]]},
    "points-zero-den.json": {"d": 2, "points": [["1/0", "0"]] + HEXAGON[1:]},
    "points-inf.json": "text:" + json.dumps({"d": 2, "points": HEXAGON})
                       .replace('"-2", "0"', '1e400, "0"'),
    "list.json": [1, 2, 3],
    "not-json.json": "text:{not json",
    "empty.json": "text:",
    "deep.json": "text:" + "[" * 5000 + "]" * 5000,
}
MAPS = ["square.json", "triangles.json", "simplex.json", "touching.json", "zero-den.json",
        "inf.json", "no-images.json", "bad-d.json", "float-vertex.json", "points-in-r0.json",
        "many-vertices.json", "wide-simplex.json", "list.json", "not-json.json", "empty.json",
        "deep.json", "missing.json"]
COMPLEXES = ["k4.json", "complex-zero-den.json", "float-vertex.json", "wide-simplex.json",
             "list.json", "not-json.json", "deep.json", "missing.json"]
POINTS = ["hexagon.json", "repeated.json", "collinear.json", "points-r1.json",
          "points-zero-den.json", "points-inf.json", "square.json", "list.json",
          "not-json.json", "empty.json", "missing.json"]
# valid but degenerate point sets of (d + 1) * 2 + 1 points: a search with r = 3 exits 0
DEGENERATE = ["repeated.json", "collinear.json", "points-r1.json"]
CELLS = ["[[0],[1]]", "[[2],[3]]", "[[0,1],[2]]", "[[0],[0]]", "[]", "[[1/0]]", "5",
         "null", "[[2.0],[3]]", "[" * 3000 + "]" * 3000]

# explicit examples on valid input, each of which must exit 0
SUCCESSES = [
    ["construct", "join", "--map", "{simplex.json}", "--r", "2"],
    ["vk", "obstruction", "--map", "{triangles.json}", "--r", "3", "--certificate"],
    ["plmap", "cocycle", "--map", "{triangles.json}", "--r", "3", "--fuzz-oracle", "2"],
    ["puzzle", "--n", "3", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]]"],
]

HUGE = st.sampled_from([2**64, -(2**64), 10**30, 2**61 - 1])
SMALL = st.integers(-3, 6)
ANY = st.one_of(SMALL, HUGE)
MULTIPLICITY = ("dp", "tverberg", "plmap", "vk", "ozaydin", "puzzle", "construct")


@st.composite
def argv(draw):
    """One command line: the subcommand, then its options in drawn order,
    each dropped now and then."""
    def file(names):
        return "{%s}" % draw(st.sampled_from(names))

    command = draw(st.sampled_from([
        "dp stats", "dp homology", "dp connectivity", "radon", "tverberg search",
        "plmap rfold", "plmap cocycle", "plmap almost", "vk obstruction", "sylow",
        "ozaydin report", "puzzle", "construct join", "construct constraint"]))
    head = command.split()[0]
    opts = {"--seed": draw(ANY)}
    if head in ("dp", "puzzle"):
        if draw(st.booleans()):
            opts["--n"] = draw(st.one_of(st.integers(-3, 5), HUGE))
        else:
            opts["--complex"] = file(COMPLEXES)
        opts["--r"] = draw(st.one_of(st.integers(-3, 4), HUGE))
    if command == "dp homology" and draw(st.booleans()):
        opts["--mod"] = draw(ANY)
    if head == "puzzle":
        opts["--from"] = draw(st.sampled_from(CELLS))
        opts["--to"] = draw(st.sampled_from(CELLS))
    if head in ("radon", "tverberg"):
        if draw(st.booleans()):
            opts["--random"] = draw(st.integers(-3, 2))
            opts["--d"] = draw(st.one_of(st.integers(-3, 2), HUGE))
        else:
            opts["--points"] = file(POINTS)
    if head == "tverberg":
        opts["--r"] = draw(st.integers(-3, 3))
    if head in ("plmap", "vk", "construct"):
        opts["--map"] = file(MAPS)
    if head in ("plmap", "vk") or command == "construct join":
        opts["--r"] = draw(ANY)
    if command == "plmap cocycle" and draw(st.booleans()):
        opts["--fuzz-oracle"] = draw(st.integers(-3, 3))
    if command == "construct constraint":
        opts["--skeleton"] = draw(ANY)
    if head == "sylow":
        opts["--r"] = draw(st.one_of(st.integers(-3, 8), HUGE))
        opts["--p"] = draw(ANY)
    if head == "ozaydin":
        opts["--r"] = draw(st.one_of(st.integers(-3, 9), HUGE))
    flags = []
    if head in ("vk", "sylow") and draw(st.booleans()):
        flags.append("--certificate" if head == "vk" else "--elements")
    items = draw(st.permutations(sorted(opts.items())))
    out = command.split()
    for key, value in items:
        if draw(st.integers(0, 15)):  # drop an option one time in 16
            out += [key, str(value)]
    return out + flags


def run_argv(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(args)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in FILES.items():
        text = content[5:] if isinstance(content, str) else json.dumps(content)
        (root / name).write_text(text)
    return {"{%s}" % name: str(root / name) for name in [*FILES, "missing.json"]}


def test_cli_fuzz_exit_codes(files):
    degenerate = [files["{%s}" % name] for name in DEGENERATE]

    @hypothesis.settings(max_examples=400)
    @hypothesis.given(argv())
    @hypothesis.example(["plmap", "cocycle", "--map", "{points-in-r0.json}", "--r", "2",
                         "--fuzz-oracle", "2"])
    @hypothesis.example(["vk", "obstruction", "--map", "{points-in-r0.json}", "--r", str(2**64)])
    @hypothesis.example(["tverberg", "search", "--points", "{repeated.json}", "--r", "3"])
    @hypothesis.example(["tverberg", "search", "--points", "{collinear.json}", "--r", "3"])
    @hypothesis.example(["construct", "join", "--map", "{simplex.json}", "--r", "1"])
    @hypothesis.example(["construct", "join", "--map", "{simplex.json}", "--r", "0"])
    @hypothesis.example(["construct", "join", "--map", "{simplex.json}", "--r", "-5"])
    def check(drawn):
        args = [files.get(a, a) for a in drawn]
        code, err = run_argv(args)
        assert code in (0, 2, 3, 4), (args, code, err)
        if drawn in SUCCESSES:
            assert code == 0, (args, code, err)
        assert "Traceback" not in err, (args, err)
        opts = dict(zip(args, args[1:]))
        for flag in ("--random", "--fuzz-oracle"):
            if flag in opts and int(opts[flag]) < 0:
                assert code == 2, (args, code)
        if args[0] in MULTIPLICITY and "--r" in opts and int(opts["--r"]) < 2:
            assert code == 2, (args, code)
        if (args[0] == "tverberg" and "--random" not in opts and opts.get("--r") == "3"
                and opts.get("--points") in degenerate):
            assert code == 0, (args, code, err)

    for example in SUCCESSES:
        check = hypothesis.example(example)(check)
    check()


def digits(k):
    """A k-digit decimal, written out without an int-to-str conversion,
    which refuses more than 4,300 digits."""
    return "1" + "0" * (k - 2) + "7"


# every integer argument, "{N}" marking it, with the exit code expected when N
# has 4,299 digits (just under the int-to-str limit); past the limit, argparse
# cannot read N and every case exits 2.  A few have an exact answer at 4,299
# digits: no r-fold deleted product of a tetrahedron and no r-fold point of a
# triangle's map exist for so large an r, and a seed is only a seed.
INTEGER_ARGUMENTS = [
    (["dp", "stats", "--n", "{N}", "--r", "2"], 3),
    (["dp", "stats", "--n", "3", "--r", "{N}"], 0),
    (["dp", "homology", "--n", "3", "--r", "{N}"], 0),
    (["dp", "homology", "--n", "3", "--r", "2", "--mod", "{N}"], 2),
    (["dp", "connectivity", "--n", "{N}", "--r", "2"], 3),
    (["radon", "--random", "1", "--d", "{N}"], 3),
    (["radon", "--random", "1", "--d", "-{N}"], 2),
    (["tverberg", "search", "--random", "1", "--d", "{N}", "--r", "2"], 3),
    (["tverberg", "search", "--random", "1", "--r", "{N}"], 3),
    (["plmap", "rfold", "--map", "{simplex.json}", "--r", "{N}"], 2),
    (["plmap", "cocycle", "--map", "{simplex.json}", "--r", "{N}"], 2),
    (["plmap", "almost", "--map", "{simplex.json}", "--r", "{N}"], 0),
    (["vk", "obstruction", "--map", "{simplex.json}", "--r", "{N}"], 2),
    (["sylow", "--r", "{N}", "--p", "2"], 3),
    (["sylow", "--r", "5", "--p", "{N}"], 2),
    (["ozaydin", "report", "--r", "{N}"], 3),
    (["puzzle", "--n", "{N}", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]]"], 3),
    (["puzzle", "--n", "3", "--r", "{N}", "--from", "[[0],[1]]", "--to", "[[2],[3]]"], 2),
    (["construct", "join", "--map", "{simplex.json}", "--r", "{N}"], 3),
    (["construct", "constraint", "--map", "{simplex.json}", "--skeleton", "{N}"], 2),
    (["dp", "stats", "--n", "3", "--r", "2", "--seed", "{N}"], 0),
    (["radon", "--random", "1", "--seed", "{N}"], 0),
]


@pytest.mark.parametrize("k", [4299, 4301, 10000])
@pytest.mark.parametrize("template,code_at_4299", INTEGER_ARGUMENTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_integer_arguments_of_4300_digits(files, k, template, code_at_4299):
    argv = [files.get(a, a).replace("{N}", digits(k)) for a in template]
    code, err = run_argv(argv)
    assert code == (code_at_4299 if k == 4299 else 2), (template, k, code, err[:200])
    assert "Traceback" not in err


# JSON files with the integer N as num_vertices, d or a vertex id; the code
# expected when N has 4,299 digits (a complex on that many vertices with one
# edge has a deleted product); past the limit the JSON decoder refuses N
JSON_INTEGERS = [
    (["dp", "stats", "--r", "2", "--complex"],
     '{"num_vertices": N, "maximal_simplices": [[0, 1]]}', 0),
    (["dp", "stats", "--r", "2", "--complex"],
     '{"num_vertices": 4, "maximal_simplices": [[0, N]]}', 2),
    (["plmap", "almost", "--r", "2", "--map"],
     '{"complex": {"num_vertices": N, "maximal_simplices": [[0]]}, "d": 1, "images": [["0"]]}', 2),
    (["plmap", "almost", "--r", "2", "--map"],
     '{"complex": {"num_vertices": 3, "maximal_simplices": [[0, N]]}, "d": 1,'
     ' "images": [["0"], ["1"], ["2"]]}', 2),
    (["vk", "obstruction", "--r", "2", "--map"],
     '{"complex": {"num_vertices": 3, "maximal_simplices": [[0, 1, 2]]}, "d": N,'
     ' "images": [["0"], ["1"], ["2"]]}', 2),
    (["radon", "--points"], '{"d": N, "points": [["0"], ["1"], ["2"]]}', 2),
]


@pytest.mark.parametrize("k", [4299, 4301, 10000])
@pytest.mark.parametrize("head,text,code_at_4299", JSON_INTEGERS)
def test_json_integers_of_4300_digits(tmp_path, k, head, text, code_at_4299):
    path = tmp_path / "huge.json"
    path.write_text(text.replace("N", digits(k)))
    code, err = run_argv(head + [str(path)])
    assert code == (code_at_4299 if k == 4299 else 2), (head, k, code, err[:200])
    assert "Traceback" not in err


# one malformed value per entry, each in a list of four points in R^2
BAD_POINTS = {
    "string point": ["12", "34", "56", "78"],
    "bool point": [True, [0, 1], [1, 0], [1, 1]],
    "bool coordinates": [[True, False], [0, 1], [1, 0], [1, 1]],
    "float coordinate": [[0.5, 0], [0, 1], [1, 0], [1, 1]],
    "object point": [{"0": 1, "1": 2}, [0, 1], [1, 0], [1, 1]],
    "object list": {"00": 1, "22": 2, "11": 3, "30": 4},
}
TWO_EDGES = {"num_vertices": 4, "maximal_simplices": [[0, 1], [2, 3]]}


def library(reader):
    def read(tmp_path, points):
        with pytest.raises(InputError):
            reader(points)
    return read


def through_cli(head, file_for):
    def read(tmp_path, points):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(file_for(points)))
        code, err = run_argv(head + [str(path)])
        assert (code, json.loads(err)["kind"]) == (2, "input"), err
    return read


READERS = {
    "points file": through_cli(["radon", "--points"], lambda pts: {"d": 2, "points": pts}),
    "map images": through_cli(["plmap", "almost", "--r", "2", "--map"],
                              lambda pts: {"complex": TWO_EDGES, "d": 2, "images": pts}),
    "as_points": library(convexity.as_points),
    "hulls_intersect, first group": library(lambda pts: convexity.hulls_intersect([pts, [(0, 0)]])),
    "hulls_intersect, other group": library(lambda pts: convexity.hulls_intersect([[(0, 0)], pts])),
    "PLMap.build": library(lambda pts: PLMap.build(Complex.from_json_dict(TWO_EDGES), 2, pts)),
}


@pytest.mark.parametrize("bad", BAD_POINTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_the_same_bad_points(tmp_path, reader, bad):
    READERS[reader](tmp_path, BAD_POINTS[bad])


def complex_file(value):
    return {**TWO_EDGES, "num_vertices": value}


def map_file(field, value):
    data = {"complex": TWO_EDGES, "d": 2, "images": [[0, 0], [2, 2], [1, 1], [3, 0]]}
    if field == "d":
        return {**data, "d": value}
    return {**data, "complex": complex_file(value)}


INTEGER_FIELDS = {
    "complex num_vertices": (["dp", "stats", "--r", "2", "--complex"], complex_file),
    "map num_vertices": (["plmap", "almost", "--r", "2", "--map"],
                         lambda value: map_file("num_vertices", value)),
    "map d": (["plmap", "almost", "--r", "2", "--map"], lambda value: map_file("d", value)),
    "points file d": (["radon", "--points"],
                      lambda value: {"d": value, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}),
}


@pytest.mark.parametrize("value", [2.5, "2", True], ids=repr)
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_non_integers(tmp_path, field, value):
    head, file_for = INTEGER_FIELDS[field]
    through_cli(head, file_for)(tmp_path, value)
    data = file_for(value)
    if field.startswith("complex"):
        with pytest.raises(InputError):
            Complex.from_json_dict(data)
    elif field.startswith("map"):
        with pytest.raises(InputError):
            PLMap.from_json_dict(data)
