"""Exception types shared across the toolkit, and the one reader of JSON
input, which reports every way the input can fail to decode as InputError."""

import json


class TvlabError(Exception):
    """Base class of the library's errors (CLI exit 2 unless a subclass says otherwise)."""


class InputError(TvlabError):
    """Malformed or out-of-range input, file or argument (CLI exit 2)."""


class CapExceeded(TvlabError):
    """The cell cap or the int-to-str digit limit, refused before the work (CLI exit 3)."""


class SearchInvariantViolated(TvlabError):
    """A certificate or witness failed its own re-verification, or an
    exhaustive search found nothing; indicates a bug (CLI exit 4)."""


class NotGeneric(TvlabError):
    """PL map fails general position; the caller perturbs and retries (CLI exit 2)."""


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
