"""Suite-wide settings.

The property tests run a fixed, derandomized set of hypothesis examples, so
every run checks the same inputs and takes a bounded time; no example
database is written.
"""

try:
    from hypothesis import settings
except ImportError:  # the property test modules skip themselves
    settings = None

if settings is not None:
    settings.register_profile("subsel", derandomize=True, deadline=None, max_examples=150,
                              database=None)
    settings.load_profile("subsel")
