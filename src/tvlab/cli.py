"""Command-line interface: JSON reports over the library operations.

Every report embeds the invoked configuration (including the seed), and a
fixed configuration always produces byte-identical output.  Exit codes:
0 success, 2 malformed input, 3 cell cap exceeded, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import convexity, homology, obstruction, plmaps, symgroup
from .complexes import Complex, full_simplex
from .deleted_product import (cell_dim, check_full_simplex_cap,
                              configured_cell_cap, deleted_product,
                              puzzle_reachable)
from .errors import (CapExceeded, InputError, InvalidMultiplicity,
                     SearchInvariantViolated, TvlabError, read_json)

SAFE_INT = 2**53


def jsonable(obj):
    """Recursively convert values to the JSON interchange conventions."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if -SAFE_INT < obj < SAFE_INT else str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        return [jsonable(x) for x in obj]
    if hasattr(obj, "__dict__"):
        return jsonable(vars(obj))
    return str(obj)


def emit(report, config, out=None):
    report = dict(report)
    report["config"] = config
    text = json.dumps(jsonable(report), sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def load_complex(args) -> Complex:
    if getattr(args, "complex", None):
        return Complex.from_json_file(args.complex)
    if args.n is None:
        raise InputError("give the complex as --n or --complex")
    check_full_simplex_cap(args.n, args.r)  # before the 2^(n+1)-1 faces exist
    return full_simplex(args.n)


def parse_cell(text) -> tuple:
    """A cell given as JSON, a list of lists of integer vertex ids."""
    cell = read_json("cell", text=text)
    if not (isinstance(cell, list) and all(
            isinstance(s, list) and all(type(v) is int for v in s) for s in cell)):
        raise InputError("a cell is a list of integer lists, got %s" % text)
    return tuple(tuple(s) for s in cell)


def load_points(path):
    if path is None:
        raise InputError("give the points as --points or --random")
    data = read_json("points %s" % path, path)
    if not isinstance(data, dict) or "points" not in data:
        raise InputError("points file needs a \"points\" list")
    return data["points"]


def check_count(value, flag):
    """Reject a negative repetition count."""
    if value is not None and value < 0:
        raise InputError("%s needs a count >= 0, got %d" % (flag, value))


def config_of(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def cmd_dp_stats(args):
    K = load_complex(args)
    dp = deleted_product(K, args.r)
    emit({
        "f_vector": dp.f_vector(),
        "dim": dp.dim,
        "empty": dp.is_empty,
        "total_cells": dp.total_cells(),
        "cell_cap": configured_cell_cap(),
    }, config_of(args), args.out)
    return 0


def cmd_dp_homology(args):
    coefficients = args.mod if args.mod is not None else "Z"
    homology.coefficient_tag(coefficients)  # reject a bad modulus before any cell is built
    dp = deleted_product(load_complex(args), args.r)
    rep = homology.dp_homology(dp, coefficients)
    table = {
        str(d): {"rank": rep.ranks[d], "torsion": rep.torsion.get(d, [])}
        for d in sorted(rep.ranks)
    }
    emit({"coefficients": rep.coefficients, "homology": table}, config_of(args), args.out)
    return 0


def cmd_dp_connectivity(args):
    K = load_complex(args)
    dp = deleted_product(K, args.r)
    emit({"homological_connectivity": homology.homological_connectivity(dp)},
         config_of(args), args.out)
    return 0


def partition_report(part):
    return {
        "parts": [list(p) for p in part.parts],
        "witness": list(part.witness),
        "certificates": [list(c) for c in part.certificates],
    }


def cmd_radon(args):
    cfg = config_of(args)
    check_count(args.random, "--random")
    if args.random is not None:
        for i in range(args.random):
            pts = convexity.random_rational_points(args.d + 2, args.d, (args.seed, i).__repr__())
            convexity.radon_partition(pts)  # raises SearchInvariantViolated unless verified
        emit({"instances": args.random, "certified": args.random}, cfg, args.out)
        return 0
    pts = load_points(args.points)
    emit(partition_report(convexity.radon_partition(pts)), cfg, args.out)
    return 0


def cmd_tverberg(args):
    cfg = config_of(args)
    check_count(args.random, "--random")
    if args.r < 2:
        raise InvalidMultiplicity("a Tverberg partition needs r >= 2 parts, got %d" % args.r)
    if args.random is not None:
        npts = (args.d + 1) * (args.r - 1) + 1
        found = 0
        for i in range(args.random):
            pts = convexity.random_rational_points(npts, args.d, (args.seed, i).__repr__())
            convexity.tverberg_search(pts, args.r)
            found += 1
        emit({"instances": args.random, "found": found}, cfg, args.out)
        return 0
    pts = load_points(args.points)
    emit(partition_report(convexity.tverberg_search(pts, args.r)), cfg, args.out)
    return 0


def cmd_plmap_rfold(args):
    f = plmaps.PLMap.from_json_file(args.map)
    points = plmaps.global_r_fold_points(f, args.r)
    emit({
        "count": len(points),
        "points": [{
            "simplices": [list(s) for s in p.simplices],
            "barycentric": [list(b) for b in p.barycentric],
            "ambient": list(p.ambient),
            "sign": p.sign,
        } for p in points],
    }, config_of(args), args.out)
    return 0


def cmd_plmap_cocycle(args):
    check_count(args.fuzz_oracle, "--fuzz-oracle")
    f = plmaps.PLMap.from_json_file(args.map)
    cfg = config_of(args)
    table = plmaps.intersection_cocycle(f, args.r)
    if args.fuzz_oracle:
        keys = [key for key, v in table.items() if v] or sorted(table)
        checked = 0
        agreements = 0
        for i in range(args.fuzz_oracle if keys else 0):  # no disjoint tuple: nothing to check
            key = keys[i % len(keys)]
            o = plmaps.coned_extension_oracle(f, key, args.r, seed=(args.seed, i).__repr__())
            checked += 1
            if o == table[key]:
                agreements += 1
        emit({"checked": checked, "oracle_agreements": agreements}, cfg, args.out)
        return 0 if checked == agreements else 4
    emit({
        "entries": [{"tuple": [list(s) for s in key], "value": v}
                    for key, v in sorted(table.items())],
        "is_zero": not any(table.values()),
    }, cfg, args.out)
    return 0


def cmd_plmap_almost(args):
    f = plmaps.PLMap.from_json_file(args.map)
    emit({"almost_r_embedding": plmaps.is_almost_r_embedding(f, args.r)},
         config_of(args), args.out)
    return 0


def cmd_vk_obstruction(args):
    f = plmaps.PLMap.from_json_file(args.map)
    table = plmaps.intersection_cocycle(f, args.r)
    dp = deleted_product(f.domain, args.r)
    v = obstruction.cocycle_from_table(dp, table)
    res = obstruction.is_null_cohomologous(v, dp)
    report = {"verdict": "trivial" if res.trivial else "nontrivial"}
    if args.certificate:
        if res.trivial:
            report["certificate"] = {
                "values": [{"cell": [list(s) for s in rep], "value": val}
                           for rep, val in sorted(res.certificate.values.items())]
            }
        else:
            report["infeasibility"] = res.infeasibility
    emit(report, config_of(args), args.out)
    return 0


def cmd_sylow(args):
    G = symgroup.sylow_tree_subgroup(args.r, args.p)
    alpha = symgroup.p_order_in_factorial(args.r, args.p)
    order = args.p ** alpha  # Legendre's formula, without listing the group
    report = {
        "order": order,
        "alpha": alpha,
        "generators": [list(g) for g in G.generators],
        "transitive": symgroup.is_transitive(G),
        "orbits": [list(o) for o in G.orbits()],
    }
    if args.elements:
        if order > configured_cell_cap():
            raise CapExceeded("the group has %d elements (cap %d)" % (order, configured_cell_cap()))
        report["elements"] = sorted([list(g) for g in G.elements()])
    emit(report, config_of(args), args.out)
    return 0


def cmd_ozaydin(args):
    rep = obstruction.ozaydin_report(args.r)
    emit({
        "r": rep.r,
        "rows": rep.rows,
        "relation_gcd": rep.relation_gcd,
        "is_prime_power": rep.is_prime_power,
        "argument_applies": rep.argument_applies,
    }, config_of(args), args.out)
    return 0


def cmd_puzzle(args):
    start, goal = parse_cell(getattr(args, "from")), parse_cell(args.to)
    dp = deleted_product(load_complex(args), args.r)
    ok, path = puzzle_reachable(dp, start, goal)
    emit({
        "reachable": ok,
        "path": [[list(s) for s in cell] for cell in path],
        "path_dims": [cell_dim(cell) for cell in path],
    }, config_of(args), args.out)
    return 0


def cmd_construct_join(args):
    f = plmaps.PLMap.from_json_file(args.map)
    out = plmaps.join_extension(f, args.r)
    emit({"map": out.to_json_dict()}, config_of(args), args.out)
    return 0


def cmd_construct_constraint(args):
    f = plmaps.PLMap.from_json_file(args.map)
    lift = plmaps.constraint_lift(f, args.skeleton)
    emit({
        "map": lift.map.to_json_dict(),
        "vertex_faces": [list(t) for t in lift.vertex_faces],
    }, config_of(args), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tvlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report to a file")

    dp = sub.add_parser("dp").add_subparsers(dest="subcommand", required=True)
    for name, fn in (("stats", cmd_dp_stats), ("homology", cmd_dp_homology),
                     ("connectivity", cmd_dp_connectivity)):
        p = dp.add_parser(name)
        p.add_argument("--n", type=int)
        p.add_argument("--complex")
        p.add_argument("--r", type=int, required=True)
        if name == "homology":
            p.add_argument("--mod", type=int)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("radon")
    p.add_argument("--points")
    p.add_argument("--random", type=int)
    p.add_argument("--d", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_radon)

    tv = sub.add_parser("tverberg").add_subparsers(dest="subcommand", required=True)
    p = tv.add_parser("search")
    p.add_argument("--points")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--random", type=int)
    p.add_argument("--d", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_tverberg)

    pl = sub.add_parser("plmap").add_subparsers(dest="subcommand", required=True)
    for name, fn in (("rfold", cmd_plmap_rfold), ("cocycle", cmd_plmap_cocycle),
                     ("almost", cmd_plmap_almost)):
        p = pl.add_parser(name)
        p.add_argument("--map", required=True)
        p.add_argument("--r", type=int, required=True)
        if name == "cocycle":
            p.add_argument("--fuzz-oracle", type=int, dest="fuzz_oracle")
        common(p)
        p.set_defaults(func=fn)

    vk = sub.add_parser("vk").add_subparsers(dest="subcommand", required=True)
    p = vk.add_parser("obstruction")
    p.add_argument("--map", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--certificate", action="store_true")
    common(p)
    p.set_defaults(func=cmd_vk_obstruction)

    p = sub.add_parser("sylow")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--elements", action="store_true")
    common(p)
    p.set_defaults(func=cmd_sylow)

    oz = sub.add_parser("ozaydin").add_subparsers(dest="subcommand", required=True)
    p = oz.add_parser("report")
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_ozaydin)

    p = sub.add_parser("puzzle")
    p.add_argument("--n", type=int)
    p.add_argument("--complex")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    common(p)
    p.set_defaults(func=cmd_puzzle)

    con = sub.add_parser("construct").add_subparsers(dest="subcommand", required=True)
    p = con.add_parser("join")
    p.add_argument("--map", required=True)
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_construct_join)
    p = con.add_parser("constraint")
    p.add_argument("--map", required=True)
    p.add_argument("--skeleton", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_construct_constraint)

    return parser


_shared_parser = cache(build_parser)  # built once per process, reused by every run


def run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except CapExceeded as exc:
        print(json.dumps({"error": str(exc), "kind": "cap"}), file=sys.stderr)
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
