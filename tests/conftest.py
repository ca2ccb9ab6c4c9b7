"""Suite-wide test settings: one deterministic hypothesis profile, so that
every run of the suite draws the same examples and no example database is
read or written."""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a test extra; the tests that need it skip
    settings = None

if settings is not None:
    settings.register_profile("tvlab", derandomize=True, deadline=None, database=None)
    settings.load_profile("tvlab")
