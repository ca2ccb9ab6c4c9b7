"""Byte-identical van Kampen reports on fixed seeded maps.

The maps are the 48 of the vk_obstruction benchmark workload (its 16 slots,
attempts 0-2, each drawn with the seed repr(("vk", slot, attempt)), as
perfbench/workloads.py write_vk_map draws them) and 23 extra maps: 12
K_5 -> R^2, 4 K_{3,3} -> R^2, 4 Delta_6^(2) -> R^4 and 3 colored333 -> R^3
with r = 3, drawn with the seeds repr(("extra", name, i)).  On each map,
"vk obstruction --certificate", "plmap cocycle" and "plmap rfold" run
in-process; one sha256 per (command, domain) covers the argv, exit code,
stdout and stderr of its runs.  The file names are relative, so the paths
quoted in the reports do not depend on where the test runs.

Every other command is pinned the same way over a fixed argv list
(EVERY_COMMAND): dp stats, homology (Z, GF(2), GF(3)) and connectivity on
Delta_n for n <= 5 and r = 2-4 and on two complex files, homology over
GF(2) and GF(3) on Delta_8 with r = 2 (one sha256 each), radon, tverberg
search, sylow --elements, ozaydin report, puzzle, construct and plmap almost,
with one sha256 per command; the --out run's digest also covers the file it
writes.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from tvlab import cli
from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab.convexity import random_rational_points
from tvlab.deleted_product import DeletedProductComplex
from tvlab.plmaps import PLMap

# the vk_obstruction slots (domain, d, r, i)
VK_SLOTS = [*(("delta5", 4, 2, i) for i in range(13)),
            ("delta6", 4, 2, 0), ("colored333", 3, 3, 0), ("delta7", 4, 2, 0)]
# (domain, d, r, number of maps)
EXTRA = [("k5", 2, 2, 12), ("k33", 2, 2, 4), ("delta6", 4, 2, 4), ("colored333", 3, 3, 3)]
COMMANDS = {
    "vk obstruction": ["vk", "obstruction", "--certificate"],
    "plmap cocycle": ["plmap", "cocycle"],
    "plmap rfold": ["plmap", "rfold"],
}

# one digest per (command, domain): a change of any report changes one
DIGESTS = {
    "plmap cocycle / colored333": "28cfbe3cde4725b0993110313f23b0e92b1df68b27a263cc46aa4b2aade055d2",
    "plmap cocycle / delta5": "432438b3339c4d03c24eb9b276ca9ea3b01ab6716e01cdcda6604b4a8c54790c",
    "plmap cocycle / delta6": "c1a30279d8d14b91d324f208046743fa7c7ed1113e097dfc45ed1a2acc59e4a3",
    "plmap cocycle / delta7": "aaafd3454638bb1a6f094101204af2709f34fc99af6ad9cf96b978a054cfd1c9",
    "plmap cocycle / k33": "7ce6b11597768cf29dc969e8b83be136f8841ea60fb603199c2e89f2a284c8fd",
    "plmap cocycle / k5": "437ca50648a3fbd773c9c8afa2dba709369b9e7f17c0f3de9572a91739841727",
    "plmap rfold / colored333": "242b14c887e3f12e6ec135ee0c85c09cfb73efaae7ab6da74d51ed1a412e7c7f",
    "plmap rfold / delta5": "d66f6bd2bb3a7aa7d9d50b2e0d0d980c57913ded5f049974717fdb5e45527b36",
    "plmap rfold / delta6": "6fd486dbdf054cf5c497a8a054b0000e3b93216e73e8ff7c3fdd12ad9ebf7438",
    "plmap rfold / delta7": "fd366396450c7ef41ff2e5bdc1ee0042a79e8f0375f92a507f4933a932e38a13",
    "plmap rfold / k33": "0566ad9d3883671f3f92c23e2c87f11167c99844447fdf74920b4919185b673e",
    "plmap rfold / k5": "9db92915fd38d635b0ad827def3084bf88140cfceb3f1f2a92d787b6077eb6fa",
    "vk obstruction / colored333": "f06f3aa1aa8f165d8194e2f13ad7dc703432eed2e2250acacc2f5b84b0bdc0aa",
    "vk obstruction / delta5": "215d2b2b0285cbbdb3970afd189b3140d145ebc5877d130e37ee622c4fa4ba04",
    "vk obstruction / delta6": "9314a7de47237a6d443b45443e8913100d279ba05433f93b56d694f73ac4d821",
    "vk obstruction / delta7": "8bf8984b66d42ed77e5b44e4fbee71bd61b59818f53739b77bc81ae33ee99632",
    "vk obstruction / k33": "73dc1a4cd45aad1c55f592ca0c5b33a0f087631793ab70dd4a3b73d59840f663",
    "vk obstruction / k5": "4df405c542df2085e222eb313a90d60379c9aaff52ed95c1264ee3131e80080d",
}


def domain(name):
    if name == "k5":
        return simplex_skeleton(4, 1)
    if name == "k33":
        return Complex.from_maximal(6, [(a, b) for a in range(3) for b in range(3, 6)])
    if name == "colored333":
        return Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                        for b in range(3, 6) for c in range(6, 9)])
    return simplex_skeleton(int(name[len("delta"):]), 2)


def write_maps():
    """[(domain, r, file name)] for the 71 maps, written to the working directory."""
    specs = [(dom, d, r, "map-%s-%d-%d-%d-%d.json" % (dom, d, r, i, attempt),
              repr(("vk", (dom, d, r, i), attempt)))
             for dom, d, r, i in VK_SLOTS for attempt in range(3)]
    specs += [(dom, d, r, "extra-%s-%d.json" % (dom, i), repr(("extra", dom, i)))
              for dom, d, r, count in EXTRA for i in range(count)]
    maps = []
    for dom, d, r, name, seed in specs:
        K = domain(dom)
        f = PLMap.build(K, d, random_rational_points(K.num_vertices, d, seed))
        with open(name, "w") as fh:
            json.dump(f.to_json_dict(), fh)
        maps.append((dom, r, name))
    return maps


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def report_digests(commands=COMMANDS):
    """{"command / domain": sha256} over the runs on the maps in the working directory."""
    hashes = {}
    for dom, r, name in write_maps():
        for command, head in commands.items():
            argv = head + ["--map", name, "--r", str(r)]
            h = hashes.setdefault("%s / %s" % (command, dom), hashlib.sha256())
            h.update(repr((argv,) + run(argv)).encode())
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def test_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digests() == DIGESTS


HEXAGON = [["2", "0"], ["1", "2"], ["-1", "2"], ["-2", "0"],
           ["-1", "-2"], ["1", "-2"], ["0", "0"]]
SQUARE = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]


def write_inputs():
    """The point, complex and map files that EVERY_COMMAND reads."""
    seeded = random_rational_points(9, 3, repr(("golden", 3, 3)))
    files = {
        "hexagon.json": {"d": 2, "points": HEXAGON},
        "square.json": {"d": 2, "points": SQUARE},
        "tverberg33.json": {"d": 3, "points": [[str(x) for x in p] for p in seeded]},
        "k33.json": domain("k33").to_json_dict(),
        "colored333.json": domain("colored333").to_json_dict(),
        "k4-square.json": PLMap.build(simplex_skeleton(3, 1), 2, SQUARE).to_json_dict(),
        "delta2.json": PLMap.build(full_simplex(2), 2, SQUARE[:3]).to_json_dict(),
        "delta3.json": PLMap.build(full_simplex(3), 3, random_rational_points(
            4, 3, repr(("golden", "delta3")))).to_json_dict(),
        "colored333-map.json": PLMap.build(domain("colored333"), 3, random_rational_points(
            9, 3, repr(("extra", "colored333", 0)))).to_json_dict(),
    }
    for name, data in files.items():
        with open(name, "w") as fh:
            json.dump(data, fh)


def every_command():
    """[(command, argv)] over the files of write_inputs."""
    runs = []
    for n in range(6):
        for r in (2, 3, 4):
            delta = ["--n", str(n), "--r", str(r)]
            runs += [("dp stats", ["dp", "stats"] + delta),
                     ("dp homology", ["dp", "homology"] + delta),
                     ("dp homology", ["dp", "homology"] + delta + ["--mod", "2"]),
                     ("dp homology", ["dp", "homology"] + delta + ["--mod", "3"]),
                     ("dp connectivity", ["dp", "connectivity"] + delta)]
    for name in ("k33.json", "colored333.json"):
        for r in (2, 3):
            runs.append(("dp homology", ["dp", "homology", "--complex", name, "--r", str(r)]))
    runs += [("dp homology Delta_8 GF(%s)" % p, ["dp", "homology", "--n", "8", "--r", "2", "--mod", p])
             for p in ("2", "3")]
    runs += [
        ("radon", ["radon", "--points", "square.json"]),
        ("radon", ["radon", "--random", "5", "--d", "3"]),
        ("tverberg search", ["tverberg", "search", "--points", "hexagon.json", "--r", "3"]),
        ("tverberg search", ["tverberg", "search", "--points", "tverberg33.json", "--r", "3"]),
        ("tverberg search", ["tverberg", "search", "--random", "3", "--r", "3", "--seed", "7"]),
    ]
    runs += [("sylow", ["sylow", "--r", str(r), "--p", str(p), "--elements"])
             for r in range(1, 13) for p in (2, 3, 5)]
    runs += [("ozaydin report", ["ozaydin", "report", "--r", str(r)]) for r in range(2, 13)]
    runs += [
        ("puzzle", ["puzzle", "--n", "3", "--r", "2", "--from", "[[0],[1]]", "--to", "[[2],[3]]"]),
        ("puzzle", ["puzzle", "--complex", "k33.json", "--r", "2",
                    "--from", "[[0],[3]]", "--to", "[[2],[5]]"]),
        ("construct join", ["construct", "join", "--map", "delta2.json", "--r", "2"]),
        ("construct join", ["construct", "join", "--map", "delta2.json", "--r", "3"]),
        ("construct constraint", ["construct", "constraint", "--map", "delta3.json",
                                  "--skeleton", "1"]),
        ("plmap almost", ["plmap", "almost", "--map", "k4-square.json", "--r", "2"]),
        ("plmap almost", ["plmap", "almost", "--map", "colored333-map.json", "--r", "3"]),
        ("--out", ["tverberg", "search", "--points", "hexagon.json", "--r", "3",
                   "--out", "report.json"]),
    ]
    return runs


# one digest per command: a change of any report changes one
EVERY_COMMAND_DIGESTS = {
    "--out": "0ef8bd8a38cd563d7f1a8d32eee09790c77ec2b2a31a230b42c0e9d799754862",
    "construct constraint": "6aa8187f7eea60d294f52317ef0c383687b6225df2054e5e89957dfb5bfc33fe",
    "construct join": "bfdf13eba98afc99bed2d0f0579bed7ad1a545d9c5e628e5636645adef4ccbfa",
    "dp connectivity": "6133f4820c206fd9c2c320d95fba35099024e68527e7b0e13966aafc865aef05",
    "dp homology": "63bca5ef40057c05cf40962dd851ee98f95d8c07277d32a7cf48d0a9ea50d757",
    "dp homology Delta_8 GF(2)": "abbdbd8ab7c6c2c196fd1a1fb7c467791ffa8a9da5b92aa11e4cc6825aefe77a",
    "dp homology Delta_8 GF(3)": "33b14a12bede536f54706b4eaca0d006fe4abe10f462c9aac0c7b67a307a2a30",
    "dp stats": "6d6e88049611496a980b8633eb234707c656c84ebc2390a24414cc1904f0d6c2",
    "ozaydin report": "b7c5ec4fedf64e81f7b004ce5d730200bdb1cbf06d3efc39f2ffb4725832cd12",
    "plmap almost": "476f9d367d7c2898777079b5e4a328493a1c242c91bff435008b7012fc1642b4",
    "puzzle": "eb2b5fbd0e52b9f525aa70ac17c13a3f06abea83208c73539f0abaeed38c6c17",
    "radon": "91bcc3ab30fc35e6f64fbefa5e1b3cfcf37876c30a1f3999167782160f73f434",
    "sylow": "33f42d9b0d0b821f2b35f195ca4343934cbfbb0d02220072f5c80d0bcdd61291",
    "tverberg search": "f0333904d4509deae090ccad11b078ee825b8112831e7d6f8147c1b4d0744471",
}


def every_command_digests(only=None):
    """{command: sha256} over the runs of every_command (of the command only,
    if given) in the working directory."""
    write_inputs()
    hashes = {}
    for command, argv in every_command():
        if only is not None and command != only:
            continue
        h = hashes.setdefault(command, hashlib.sha256())
        h.update(repr((argv,) + run(argv)).encode())
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1]) as fh:
                h.update(fh.read().encode())
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def test_every_command_report_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert every_command_digests() == EVERY_COMMAND_DIGESTS


def test_vk_obstruction_and_dp_stats_list_no_cell(tmp_path, monkeypatch):
    """The decision reads the orbits and dp stats the counts: with the cell
    listing refused, both give the same bytes."""
    def cells_by_dim(self):
        raise AssertionError("the cells of the deleted product were listed")

    monkeypatch.setattr(DeletedProductComplex, "cells_by_dim", property(cells_by_dim))
    monkeypatch.chdir(tmp_path)
    vk = {"vk obstruction": COMMANDS["vk obstruction"]}
    assert report_digests(vk) == {k: v for k, v in DIGESTS.items() if k.startswith("vk ")}
    assert every_command_digests("dp stats") == {"dp stats": EVERY_COMMAND_DIGESTS["dp stats"]}
