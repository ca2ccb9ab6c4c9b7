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
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from tvlab import cli
from tvlab.complexes import Complex, simplex_skeleton
from tvlab.convexity import random_rational_points
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


def report_digests():
    """{"command / domain": sha256} over the runs on the maps in the working directory."""
    hashes = {}
    for dom, r, name in write_maps():
        for command, head in COMMANDS.items():
            argv = head + ["--map", name, "--r", str(r)]
            h = hashes.setdefault("%s / %s" % (command, dom), hashlib.sha256())
            h.update(repr((argv,) + run(argv)).encode())
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def test_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digests() == DIGESTS
