"""Exception types shared across the toolkit, and the one reader of JSON
input, which reports every way the input can fail to decode as InputError."""

import json


class TvlabError(Exception):
    """Base class for all library errors."""


class InputError(TvlabError):
    """Malformed input file or argument (CLI exit code 2)."""


class InvalidSkeleton(TvlabError):
    """Skeleton dimension outside [0, N]."""


class InvalidMultiplicity(TvlabError):
    """Deleted product multiplicity r must be at least 2."""


class CapExceeded(TvlabError):
    """Cell-count guardrail tripped during deleted-product construction."""


class UnknownCell(TvlabError):
    """A cell referenced by the caller is not part of the complex."""


class NotAChainComplex(TvlabError):
    """Consecutive boundary matrices do not compose to zero."""


class EmptyComplex(TvlabError):
    """Operation requires a non-empty complex."""


class ShapeError(TvlabError):
    """Matrix/vector dimensions are incompatible."""


class WrongCardinality(TvlabError):
    """Point count does not match the required (d+1)(r-1)+1 or d+2."""


class SearchInvariantViolated(TvlabError):
    """A certificate or witness failed its own re-verification, or an
    exhaustive search found nothing; indicates a bug (CLI exit code 4)."""


class NotGeneric(TvlabError):
    """PL map fails general position; caller should perturb and retry."""


class NotPrime(TvlabError):
    """Argument expected to be prime."""


class NoSplit(TvlabError):
    """Transitive group admits no invariant block split."""


class DiagonalInput(TvlabError):
    """All input points coincide; projection away from diagonal undefined."""


class NotEquivariant(TvlabError):
    """Cochain table values contradict twisted equivariance on an orbit."""


class DegreeError(TvlabError):
    """Cochain degree does not match the expected degree."""


def read_json(what: str, path=None, text=None):
    """Decode JSON given as text, or else read from the file at path.

    An unreadable file, malformed JSON and JSON nested too deeply for the
    decoder all raise InputError, naming what was being read.
    """
    try:
        if text is None:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except RecursionError:
        raise InputError("cannot read %s: nested too deeply" % what) from None
    except (OSError, ValueError) as exc:
        raise InputError("cannot read %s: %s" % (what, exc)) from exc
