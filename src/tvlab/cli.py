"""Command-line interface: JSON reports over the library operations.

A report is the library's objects written by report_text, with the invoked
configuration (including the seed) embedded; its bytes are those of
json.dumps(..., sort_keys=True, indent=2) on the converted report, and a
fixed configuration always produces byte-identical output.  The parser
checks every multiplicity --r (>= 2, except the --r of sylow) and every
repetition count (>= 0) before any file is read.  Exit codes: 0 success, 2
malformed input, 3 cell cap, digit limit or memory exceeded, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as quote

from . import convexity, homology, obstruction, plmaps, symgroup
from .complexes import (Complex, check_cap, check_simplex_faces, configured_cell_cap, full_simplex,
                        integer)
from .deleted_product import (cell_dim, check_full_simplex_cap, deleted_product,
                              puzzle_reachable)
from .errors import CapExceeded, InputError, SearchInvariantViolated, TvlabError, read_json

SAFE_INT = 2**53
_KINDS = (Fraction, bool, type(None), str, float, int, dict, list, tuple, frozenset, set)
_EXACT = frozenset(_KINDS)
_LISTS = frozenset((list, tuple, frozenset, set))


def report_text(obj) -> str:
    """The JSON text of a report, in one walk that converts as it writes: a
    Fraction or an int outside +-2^53 as a string (convexity.rational_text,
    which raises CapExceeded on a number too long to print), dict keys
    through str, tuples and sets as lists, an object with __dict__ as
    vars(obj), anything else as str(obj).  The bytes are those of
    json.dumps(..., sort_keys=True, indent=2) on the converted report.  A
    tuple of ints inside +-2^53 is written once per object and indent: its
    text is memoized by (id, pad) for the call, the memo holding the tuple
    so that its id is not reused, and each later visit is one dict probe."""
    out = []
    _write(obj, out, "\n", {})
    return "".join(out)


def _write(obj, out, pad, memo):
    """Append the text of obj to out; pad is the newline and indent of its
    line, and memo maps (id, pad) of a tuple of ints to (the tuple, its text)."""
    kind = type(obj)
    if kind not in _EXACT:  # a subclass, such as a namedtuple: the first kind it is
        kind = next((k for k in _KINDS if isinstance(obj, k)), object)
    if kind is int and -SAFE_INT < obj < SAFE_INT:
        out.append(int.__repr__(obj))
    elif kind in _LISTS:
        seen = memo.get((id(obj), pad)) if kind is tuple else None
        inner = pad + "  "
        if seen is not None:
            out.append(seen[1])
        elif not obj:
            out.append("[]")
        elif all(type(x) is int and -SAFE_INT < x < SAFE_INT for x in obj):  # one join
            text = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
            out.append(text)
            if kind is tuple:
                memo[id(obj), pad] = obj, text
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write(x, out, inner, memo)
                sep = "," + inner
            out.append(pad + "]")
    elif kind is dict:
        items = {str(k): v for k, v in obj.items()}  # a later duplicate key wins
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + quote(key) + ": ")
            _write(items[key], out, inner, memo)
            sep = "," + inner
        out.append(pad + "}" if items else "{}")
    elif kind is str:
        out.append(quote(obj))
    elif kind is Fraction or kind is int:
        out.append(quote(convexity.rational_text(obj)))
    elif kind is not object:  # bool, None or float: NaN and Infinity as json writes them
        out.append(json.dumps(obj))
    elif hasattr(obj, "__dict__"):
        _write(vars(obj), out, pad, memo)
    else:
        out.append(quote(str(obj)))


def emit(report, args) -> int:
    """Write the report, with the configuration of args, to args.out or
    stdout; returns the exit code 0.  The whole text is built first, so a
    number too long to print leaves no output and no file."""
    text = report_text({**report, "config": config_of(args)})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def multiplicity(text) -> int:
    """A --r: an integer r >= 2, checked while the arguments are parsed."""
    r = int(text)
    if r < 2:
        raise InputError("need r >= 2, got %d" % r)
    return r


def count(text) -> int:
    """A repetition count: an integer >= 0, checked while the arguments are parsed."""
    n = int(text)
    if n < 0:
        raise InputError("need a count >= 0, got %d" % n)
    return n


def load_complex(args) -> Complex:
    if args.complex:
        return Complex.from_json_file(args.complex)
    if args.n is None:
        raise InputError("give the complex as --n or --complex")
    check_simplex_faces(args.n)  # before the 2^(n+1)-1 faces exist
    return full_simplex(args.n)


def load_product(args):
    """The deleted product of the base of load_complex; an --n simplex's is
    counted against the cap before its faces exist."""
    if args.n is not None:
        check_full_simplex_cap(args.n, args.r)
    return deleted_product(load_complex(args), args.r)


def parse_cell(text) -> tuple:
    """A cell given as JSON, a list of lists of integer vertex ids."""
    cell = read_json("cell", text=text)
    if not (isinstance(cell, list) and all(isinstance(s, list) for s in cell)):
        raise InputError("a cell is a list of integer lists, got %s" % text)
    return tuple(tuple(integer(v, "a vertex id") for v in s) for s in cell)


def load_points(path):
    """The points of a points file, read by convexity.as_points, in R^d if it gives "d"."""
    if path is None:
        raise InputError("give the points as --points or --random")
    data = read_json("points %s" % path, path)
    if not isinstance(data, dict) or "points" not in data:
        raise InputError("points file needs a \"points\" list")
    return convexity.as_points(data["points"], integer(data["d"], "d") if "d" in data else None)


def random_points(n, d, seed):
    """convexity.random_rational_points, refused with CapExceeded before the
    first draw when its n*d coordinates exceed the cell cap."""
    check_cap(max(n, 0) * max(d, 0), "coordinates of %d random points in R^%d" % (n, d))
    return convexity.random_rational_points(n, d, seed)


def config_of(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def cmd_dp_stats(args):
    dp = load_product(args)
    return emit({
        "f_vector": dp.f_vector(),
        "dim": dp.dim,
        "empty": dp.is_empty,
        "total_cells": dp.total_cells(),
        "cell_cap": configured_cell_cap(),
    }, args)


def cmd_dp_homology(args):
    coefficients = args.mod if args.mod is not None else "Z"
    homology.coefficient_tag(coefficients)  # reject a bad modulus before any cell is built
    rep = homology.dp_homology(load_product(args), coefficients)
    table = {d: {"rank": rep.ranks[d], "torsion": rep.torsion.get(d, [])} for d in rep.ranks}
    return emit({"coefficients": rep.coefficients, "homology": table}, args)


def cmd_dp_connectivity(args):
    dp = load_product(args)
    return emit({"homological_connectivity": homology.homological_connectivity(dp)}, args)


def cmd_radon(args):
    if args.random is not None:
        for i in range(args.random):
            pts = random_points(args.d + 2, args.d, (args.seed, i).__repr__())
            convexity.radon_partition(pts)  # raises SearchInvariantViolated unless verified
        return emit({"instances": args.random, "certified": args.random}, args)
    return emit(vars(convexity.radon_partition(load_points(args.points))), args)


def cmd_tverberg(args):
    if args.random is not None:
        npts = (args.d + 1) * (args.r - 1) + 1
        for i in range(args.random):
            pts = random_points(npts, args.d, (args.seed, i).__repr__())
            convexity.tverberg_search(pts, args.r)  # raises unless a partition is found
        return emit({"instances": args.random, "found": args.random}, args)
    return emit(vars(convexity.tverberg_search(load_points(args.points), args.r)), args)


def cmd_plmap_rfold(args):
    points = plmaps.global_r_fold_points(plmaps.PLMap.from_json_file(args.map), args.r)
    return emit({"count": len(points), "points": points}, args)


def cmd_plmap_cocycle(args):
    f = plmaps.PLMap.from_json_file(args.map)
    table = plmaps.intersection_cocycle(f, args.r)
    if args.fuzz_oracle:
        keys = [key for key, v in table.items() if v] or sorted(table)
        checked = args.fuzz_oracle if keys else 0  # no disjoint tuple: nothing to check
        agreements = 0
        for i in range(checked):
            key = keys[i % len(keys)]
            seed = (args.seed, i).__repr__()
            agreements += plmaps.coned_extension_oracle(f, key, seed=seed) == table[key]
        if agreements != checked:
            raise SearchInvariantViolated("the coned-extension oracle agreed in %d of %d checks"
                                          % (agreements, checked))
        return emit({"checked": checked, "oracle_agreements": agreements}, args)
    return emit({
        "entries": [{"tuple": key, "value": v} for key, v in sorted(table.items())],
        "is_zero": not any(table.values()),
    }, args)


def cmd_plmap_almost(args):
    f = plmaps.PLMap.from_json_file(args.map)
    return emit({"almost_r_embedding": plmaps.is_almost_r_embedding(f, args.r)}, args)


def cmd_vk_obstruction(args):
    f = plmaps.PLMap.from_json_file(args.map)
    plmaps.split_dimensions(f.domain.dim, f.ambient_dim, args.r)
    dp = deleted_product(f.domain, args.r)  # counted for the cap before any tuple is solved
    table = plmaps.intersection_cocycle(f, args.r)
    v = obstruction.cocycle_from_table(dp, table)
    res = obstruction.is_null_cohomologous(v)
    report = {"verdict": "trivial" if res.trivial else "nontrivial"}
    if args.certificate:
        if res.trivial:
            report["certificate"] = {
                "values": [{"cell": rep, "value": val}
                           for rep, val in sorted(res.certificate.values.items())]
            }
        else:
            report["infeasibility"] = res.infeasibility
    return emit(report, args)


def cmd_sylow(args):
    alpha = symgroup.p_order_in_factorial(args.r, args.p)
    # alpha generators and the orbits, r points each
    check_cap(args.r * (alpha + 1), "points the report would list")
    G = symgroup.sylow_tree_subgroup(args.r, args.p)
    report = {
        "order": G.order(),
        "alpha": alpha,
        "generators": G.generators,
        "transitive": symgroup.is_transitive(G),
        "orbits": G.orbits(),
    }
    if args.elements:
        check_cap(G.order(), "elements of the group")
        report["elements"] = sorted(G.elements())
    return emit(report, args)


def cmd_ozaydin(args):
    return emit(vars(obstruction.ozaydin_report(args.r)), args)


def cmd_puzzle(args):
    start, goal = parse_cell(getattr(args, "from")), parse_cell(args.to)
    ok, path = puzzle_reachable(load_complex(args), args.r, start, goal)
    return emit({"reachable": ok, "path": path, "path_dims": [cell_dim(c) for c in path]}, args)


def cmd_construct_join(args):
    out = plmaps.join_extension(plmaps.PLMap.from_json_file(args.map), args.r)
    return emit({"map": out.to_json_dict()}, args)


def cmd_construct_constraint(args):
    lift = plmaps.constraint_lift(plmaps.PLMap.from_json_file(args.map), args.skeleton)
    return emit({"map": lift.map.to_json_dict(), "vertex_faces": lift.vertex_faces}, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tvlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, fn):
        """The subcommand parser of fn, with the options every command takes."""
        p = parent.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report to a file")
        p.set_defaults(func=fn)
        return p

    dp = sub.add_parser("dp").add_subparsers(dest="subcommand", required=True)
    for name, fn in (("stats", cmd_dp_stats), ("homology", cmd_dp_homology),
                     ("connectivity", cmd_dp_connectivity)):
        p = command(dp, name, fn)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--n", type=int)
        source.add_argument("--complex")
        p.add_argument("--r", type=multiplicity, required=True)
        if name == "homology":
            p.add_argument("--mod", type=int)

    p = command(sub, "radon", cmd_radon)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--points")
    source.add_argument("--random", type=count)
    p.add_argument("--d", type=int, default=2)

    tv = sub.add_parser("tverberg").add_subparsers(dest="subcommand", required=True)
    p = command(tv, "search", cmd_tverberg)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--points")
    source.add_argument("--random", type=count)
    p.add_argument("--r", type=multiplicity, required=True)
    p.add_argument("--d", type=int, default=2)

    pl = sub.add_parser("plmap").add_subparsers(dest="subcommand", required=True)
    for name, fn in (("rfold", cmd_plmap_rfold), ("cocycle", cmd_plmap_cocycle),
                     ("almost", cmd_plmap_almost)):
        p = command(pl, name, fn)
        p.add_argument("--map", required=True)
        p.add_argument("--r", type=multiplicity, required=True)
        if name == "cocycle":
            p.add_argument("--fuzz-oracle", type=count, dest="fuzz_oracle")

    vk = sub.add_parser("vk").add_subparsers(dest="subcommand", required=True)
    p = command(vk, "obstruction", cmd_vk_obstruction)
    p.add_argument("--map", required=True)
    p.add_argument("--r", type=multiplicity, required=True)
    p.add_argument("--certificate", action="store_true")

    p = command(sub, "sylow", cmd_sylow)
    p.add_argument("--r", type=int, required=True)  # r = 1 is valid: the trivial group
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--elements", action="store_true")

    oz = sub.add_parser("ozaydin").add_subparsers(dest="subcommand", required=True)
    command(oz, "report", cmd_ozaydin).add_argument("--r", type=multiplicity, required=True)

    p = command(sub, "puzzle", cmd_puzzle)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--n", type=int)
    source.add_argument("--complex")
    p.add_argument("--r", type=multiplicity, required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)

    con = sub.add_parser("construct").add_subparsers(dest="subcommand", required=True)
    p = command(con, "join", cmd_construct_join)
    p.add_argument("--map", required=True)
    p.add_argument("--r", type=multiplicity, required=True)
    p = command(con, "constraint", cmd_construct_constraint)
    p.add_argument("--map", required=True)
    p.add_argument("--skeleton", type=int, required=True)

    return parser


_shared_parser = cache(build_parser)  # built once per process, reused by every run


def run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (CapExceeded, MemoryError) as exc:  # a limit, refused before the work or met during it
        print(json.dumps({"error": str(exc) or "out of memory", "kind": "cap"}), file=sys.stderr)
        return 3
    except SearchInvariantViolated as exc:
        print(json.dumps({"error": str(exc), "kind": "invariant"}), file=sys.stderr)
        return 4
    except (TvlabError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
