"""Every name a module of tvlab imports is used in that module.

A deletion that leaves an import behind fails here.  A name counts as used
when the module loads it anywhere, annotations included, string
annotations such as "IntMatrix" too.

Two policies have one owner each, and a copy elsewhere fails here too:
CapExceeded is raised by the cell-cap gate and the digit gate only, and lcm
is taken only by the one rational-to-integer scaling.  The error classes
are one per CLI outcome, and every raise names one of them or a builtin.
The obstruction module enumerates its orbits from the base and reads no
cell list of the deleted product, and the deleted product's facet walk
finds its rows by cell keys, not by nested-tuple facets; its matching and
its keys read no cell, but what the walk that lists them keyed and masked,
and no declared vertex count, only the vertices that the base uses.  The
puzzle walk lists no cell and builds no deleted product: it calls no lister
and no cell_boundary, and the puzzle command counts no product.  One
separation test, in convexity, serves the Tverberg search and plmaps alike.
The sparse row layout of IntMatrix is read in homology only.  No call takes
a size that its other arguments fix.
"""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tvlab"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the source never uses."""
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import json.decoder\n"
              "from math import comb, gcd as g\n"
              "from fractions import Fraction\n"
              "def f(x) -> \"Fraction\":\n"
              "    \"\"\"g\"\"\"\n"
              "    return comb(x, 2), json\n")
    assert unused_imports(source) == [(2, "os"), (4, "g")]


def calls_of(path, name) -> int:
    """How many calls of name, bare or as an attribute, the module makes."""
    return sum(isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(path.read_text())))


def test_cap_exceeded_is_raised_by_the_gate_only():
    """The cell-cap gate and the digit gate in complexes.py are the only
    places that construct CapExceeded."""
    made = {p.name: calls_of(p, "CapExceeded") for p in SRC.glob("*.py")}
    assert {k: v for k, v in made.items() if v} == {"complexes.py": 2}


ERROR_CLASSES = {"TvlabError", "InputError", "CapExceeded", "SearchInvariantViolated",
                 "NotGeneric"}


def test_one_error_class_per_cli_outcome():
    """errors.py defines exactly the five classes, and every raise in
    src/tvlab names one of them or a builtin exception (a bare raise re-raises)."""
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {n.name for n in tree.body if isinstance(n, ast.ClassDef)} == ERROR_CLASSES
    allowed = ERROR_CLASSES | {name for name, value in vars(builtins).items()
                               if isinstance(value, type) and issubclass(value, BaseException)}
    raised = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, node.lineno, getattr(exc, "id", ast.unparse(exc))))
    assert raised and [r for r in raised if r[2] not in allowed] == []


def test_lcm_scaling_lives_in_linalg_only():
    """linalg.clear_denominators is the one rational-to-integer scaling."""
    made = {p.name: calls_of(p, "lcm") for p in SRC.glob("*.py")}
    assert {k: v for k, v in made.items() if v} == {"linalg.py": 1}


def test_obstruction_reads_no_cell_list():
    """obstruction.py never loads the attribute cells_by_dim: its orbits come
    from the sorted disjoint tuples of the base and the left cosets."""
    tree = ast.parse((SRC / "obstruction.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cells_by_dim"] == []


def test_boundary_matrix_builds_no_tuple_facet():
    """DeletedProductComplex.boundary_matrix, the facet walk _facets that it
    shares with the Morse boundary, and the cell keys they read never call
    cell_boundary: each facet's row comes from its cell's key."""
    tree = ast.parse((SRC / "deleted_product.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "DeletedProductComplex"]
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert [node.lineno for name in ("boundary_matrix", "_facets", "_keys")
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Attribute) and node.attr == "cell_boundary"] == []


def test_the_matching_and_the_keys_iterate_no_cell():
    """The walk that lists the cells keys each one and masks its growth, so
    DeletedProductComplex.element_matching and _keys never load cells_by_dim,
    and none of their loops iterates a cell list or a cell's factors."""
    tree = ast.parse((SRC / "deleted_product.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "DeletedProductComplex"]
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)
               and node.name in ("element_matching", "_keys")]
    loops = [node.iter for fn in methods for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert len(methods) == 2 and loops
    assert [node.lineno for fn in methods for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "cells_by_dim"] == []
    assert [ast.unparse(it) for it in loops for node in ast.walk(it)
            if getattr(node, "id", None) in ("cells", "cell")] == []


def deleted_product_functions(*names) -> dict:
    """{name: node} of the named functions and DeletedProductComplex methods of deleted_product.py."""
    tree = ast.parse((SRC / "deleted_product.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "DeletedProductComplex"]
    return {node.name: node for node in tree.body + cls.body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def called_names(fn) -> set:
    """The names that fn calls, bare or as an attribute."""
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_puzzle_lists_no_cell():
    """puzzle_reachable steps from each 0-cell along the base's edges: it
    calls neither lister nor cell_boundary, and loads no cells_by_dim; the
    puzzle command builds and counts no deleted product."""
    [fn] = deleted_product_functions("puzzle_reachable").values()
    calls = called_names(fn)
    assert calls and calls.isdisjoint({"_disjoint", "disjoint_tuples", "cell_boundary"})
    assert [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "cells_by_dim"] == []
    [cmd] = [node for node in ast.parse((SRC / "cli.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == "cmd_puzzle"]
    assert "puzzle_reachable" in called_names(cmd)
    assert called_names(cmd).isdisjoint({"deleted_product", "load_product", "DeletedProductComplex",
                                         "check_full_simplex_cap"})


def test_the_keys_and_the_matching_read_no_declared_vertex_count():
    """_keys takes a power per vertex rank, and element_matching walks and
    buckets the ranks, so neither loads num_vertices nor takes the largest
    id: a base declared on many unused ids, or using large ones, costs
    nothing more."""
    methods = deleted_product_functions("_keys", "element_matching")
    assert len(methods) == 2
    assert [(name, node.lineno) for name, fn in methods.items() for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "num_vertices"] == []
    assert [name for name, fn in methods.items() if "max" in called_names(fn)] == []


def test_one_separation_test_in_convexity():
    """convexity.separated is the one separation test and convexity.py the
    only module that reads the test directions.  plmaps.py calls the shared
    test, and no plmaps function takes a min or a max but default_apexes,
    for its spread, and constraint_lift, for its heights."""
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert {name for name, tree in trees.items() for node in ast.walk(tree)
            if "_directions" in (getattr(node, "id", None), getattr(node, "attr", None))
            } == {"convexity.py"}
    assert [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "separat" in node.name
            ] == [("convexity.py", "separated")]
    assert calls_of(SRC / "plmaps.py", "separated") == 2
    assert [fn.name for fn in ast.walk(trees["plmaps.py"]) if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("min", "max")
                    for node in ast.walk(fn))] == ["default_apexes", "constraint_lift"]


def test_row_layout_is_read_in_homology_only():
    """homology.py is the only module that loads the attribute entries, the
    rows of an IntMatrix: obstruction.py hands its rows to the IntMatrix
    constructor and reads nothing back."""
    loads = {p.name for p in SRC.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "entries"
             and isinstance(node.ctx, ast.Load)}
    assert loads == {"homology.py"}


# Each call reads r, n or d off another argument: an r-tuple's length, a
# group's degree, a matrix's column count or a point's dimension.  By name
# alone this is not a lint: disjoint_tuples(simplices, r, dim) takes a pool
# of simplices, and there r is an input.
SIZED_BY_THEIR_ARGUMENTS = {
    "plmaps.tuple_r_fold_point": ["f", "simplices"],
    "plmaps.default_apexes": ["f", "simplices", "seed"],
    "plmaps.coned_extension_oracle": ["f", "simplices", "seed"],
    "plmaps.positive_normal_frame": ["points"],
    "convexity.projections": ["points"],
    "homology.smith_diagonal": ["columns", "m"],
    "obstruction.coset_representatives": ["G"],
    "obstruction.transfer": ["x"],
}


def test_no_call_takes_a_size_its_arguments_fix():
    def parameters(call):
        module, name = call.split(".")
        return list(inspect.signature(getattr(importlib.import_module("tvlab." + module),
                                              name)).parameters)

    assert {call: parameters(call) for call in SIZED_BY_THEIR_ARGUMENTS} == SIZED_BY_THEIR_ARGUMENTS
