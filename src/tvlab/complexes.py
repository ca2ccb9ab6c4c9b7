"""Finite abstract simplicial complexes: simplices and their skeleta.

A simplex is a tuple of strictly increasing non-negative vertex ids.  A
complex stores the full face-closed set of its simplices; maximal-simplex
input is closed under faces on ingestion.  The increasing vertex order of a
simplex is its +1 orientation, which removes orientation ambiguity from all
downstream sign computations (the signed facets of deleted-product cells
are in tvlab.deleted_product).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import CapExceeded, InputError, read_json

Simplex = tuple  # tuple[int, ...], strictly increasing

DEFAULT_CELL_CAP = 5 * 10**6


def configured_cell_cap() -> int:
    raw = os.environ.get("TVLAB_CELL_CAP")
    return int(raw) if raw else DEFAULT_CELL_CAP


def check_cap(count: int, what: str) -> None:
    """The one cell-cap gate: raise CapExceeded, naming what was counted,
    the count and the cap, when count exceeds the cell cap.  A caller that
    stops counting early passes the partial count and says so in what."""
    cap = configured_cell_cap()
    if count > cap:
        if count >= 2 ** 9999:  # past the int-to-str digit limit: named by its bit length
            count = "at least 2^%d" % (count.bit_length() - 1)
        raise CapExceeded("%s: %s, over the cell cap %d" % (what, count, cap))


def check_digits(n: int, what: str) -> None:
    """The one digit gate: raise CapExceeded, naming what n is, when n has
    more decimal digits than int-to-str conversion allows."""
    limit = sys.get_int_max_str_digits()
    # a digit takes more than 3 bits: a shorter n is below 10^limit
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
        raise CapExceeded("%s has more than %d digits" % (what, limit))


def check_simplex_faces(N: int) -> None:
    """Raise CapExceeded, before anything is built, when the N-simplex's
    2^(N+1)-1 faces exceed the cell cap."""
    bits = configured_cell_cap().bit_length()
    # past the bit length of the cap, 2^(N+1)-1 > cap without computing it
    if N + 1 > bits:
        check_cap(2 ** bits, "faces of the %d-simplex, at least" % N)
    check_cap(2 ** (N + 1) - 1, "faces of the %d-simplex" % N)


def integer(value, what: str) -> int:
    """value, when it is an int and not a bool; InputError otherwise."""
    if type(value) is not int:
        raise InputError("%s must be an integer, got %s" % (what, type(value).__name__))
    return value


def make_simplex(vertices: Iterable[int]) -> Simplex:
    s = tuple(integer(v, "a vertex id") for v in vertices)
    if not s:
        raise InputError("simplex must be non-empty")
    if any(v < 0 for v in s):
        raise InputError("vertex ids must be non-negative")
    if any(a >= b for a, b in zip(s, s[1:])):
        raise InputError("vertices must be strictly increasing: %r" % (s,))
    return s


@dataclass(frozen=True)
class Complex:
    """Face-closed finite simplicial complex on vertices 0..num_vertices-1."""

    num_vertices: int
    simplices: frozenset

    def __post_init__(self):
        if self.num_vertices < 0:
            raise InputError("need num_vertices >= 0, got %d" % self.num_vertices)
        for s in self.simplices:
            if s and s[-1] >= self.num_vertices:
                raise InputError("vertex id %d out of range" % s[-1])

    @classmethod
    def from_maximal(cls, num_vertices: int, maximal: Iterable[Iterable[int]]) -> "Complex":
        """Close the given simplices under faces, within the cell cap, read once."""
        closed, cap = set(), configured_cell_cap()
        for m in maximal:
            s = make_simplex(sorted(m))
            if s[-1] >= num_vertices:
                raise InputError("vertex id %d out of range" % s[-1])
            if 2 ** len(s) - 1 > cap:  # its faces alone pass the cap
                check_simplex_faces(len(s) - 1)
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
            if len(closed) > cap:
                check_cap(len(closed), "faces of the complex")
        return cls(num_vertices, frozenset(closed))

    @property
    def dim(self) -> int:
        return max(map(len, self.simplices), default=0) - 1

    def simplices_of_dim(self, k: int) -> list:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def maximal_simplices(self) -> list:
        """The faces that are no face's facet, sorted."""
        facets = {s[:j] + s[j + 1:] for s in self.simplices if len(s) > 1 for j in range(len(s))}
        return sorted(self.simplices - facets)

    def is_full_simplex(self) -> bool:
        """True iff every non-empty set of vertices is a simplex."""
        n = len(self.simplices)
        # the bit length test keeps 2^num_vertices small
        return n.bit_length() == self.num_vertices and n == 2 ** self.num_vertices - 1

    def to_json_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "maximal_simplices": [list(s) for s in self.maximal_simplices()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Complex":
        try:
            return cls.from_maximal(integer(data["num_vertices"], "num_vertices"),
                                    data["maximal_simplices"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("bad complex JSON: %s" % exc) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "Complex":
        return cls.from_json_dict(read_json("complex %s" % path, path))


def full_simplex(N: int) -> Complex:
    """The N-dimensional simplex with all its faces."""
    if N < 0:
        raise InputError("need N >= 0, got N=%d" % N)
    return simplex_skeleton(N, N)


def simplex_skeleton(N: int, s: int) -> Complex:
    """All faces of the N-simplex of dimension at most s."""
    if s < 0 or s > N:
        raise InputError("need 0 <= s <= N, got s=%d N=%d" % (s, N))
    verts = range(N + 1)
    faces = set()
    for k in range(1, s + 2):
        faces.update(combinations(verts, k))
    return Complex(N + 1, frozenset(faces))
