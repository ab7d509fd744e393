"""Suite-wide settings and the robust measures' replay oracle.

The property tests run a fixed, derandomized set of hypothesis examples, so
every run checks the same inputs and takes a bounded time; no example
database is written.
"""

import numpy as np

try:
    from hypothesis import settings
except ImportError:  # the property test modules skip themselves
    settings = None

if settings is not None:
    settings.register_profile("subsel", derandomize=True, deadline=None, max_examples=150,
                              database=None)
    settings.load_profile("subsel")


class CountedMeasure:
    """A design measure of n grid points held as its counts: the weight of a grid point is its count / n,
    one correctly rounded quotient, so the tests rebuild a robust run's weights from its chosen points."""

    def __init__(self, n_grid: int, initial_indices) -> None:
        self.counts = np.zeros(n_grid)
        self.counts[initial_indices] = 1.0
        self.n = len(initial_indices)

    @property
    def weights(self) -> np.ndarray:
        return self.counts / self.n

    def add(self, index: int) -> np.ndarray:
        """Count one more point at grid point `index`; the weights after it."""
        self.counts[index] += 1.0
        self.n += 1
        return self.weights
