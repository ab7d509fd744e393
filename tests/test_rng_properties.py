"""Batched integer draws of the counter RNG equal its scalar draws.

`randbelow_many` draws one word per bound at once and falls back to
`randbelow` per bound when any word lands in a rejection zone; both paths
must give the values and the final counter of the sequential calls.
`sample_indices` draws its Fisher-Yates bounds through it, and the scalar
loop it replaced is kept here as its oracle.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.errors import InvalidInputError
from subsel.rng import CounterRng

SEEDS = st.integers(0, 2**64 - 1)
BOUNDS = st.one_of(
    st.integers(1, 50),
    st.integers(1, 2**64 - 1),
    st.integers(2**63, 2**64 - 1),  # from 2**63 + 1 about half of all words are rejected
)


def scalar_draws(seed: int, counter: int, bounds) -> tuple[list, int]:
    rng = CounterRng(seed)
    rng.u64_array(counter)
    return [rng.randbelow(b) for b in bounds], rng.counter


def scalar_sample_indices(rng: CounterRng, n_pop: int, k: int) -> np.ndarray:
    arr = np.arange(n_pop, dtype=np.int64)
    for i in range(k):
        j = i + rng.randbelow(n_pop - i)
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:k].copy()


@given(seed=SEEDS, counter=st.integers(0, 5), bounds=st.lists(BOUNDS, max_size=40))
def test_randbelow_many_equals_sequential_randbelow(seed, counter, bounds):
    want, want_counter = scalar_draws(seed, counter, bounds)
    rng = CounterRng(seed)
    rng.u64_array(counter)
    got = rng.randbelow_many(np.array(bounds, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(bounds),)
    assert got.tolist() == want
    assert rng.counter == want_counter


def test_randbelow_many_edge_bounds():
    rng = CounterRng(3)
    assert rng.randbelow_many([]).tolist() == [] and rng.counter == 0
    assert rng.randbelow_many([1, 1, 1]).tolist() == [0, 0, 0] and rng.counter == 3
    # the top of the range: 2**63 and 2**64 - 1 reject almost nothing here,
    # 2**63 + 1 rejects about half of all words, so the fallback path runs
    for bound, rejected in ((2**63, False), (2**63 + 1, True), (2**64 - 1, False)):
        bounds = [bound] * 30
        want, want_counter = scalar_draws(11, 0, bounds)
        assert (want_counter > 30) == rejected
        rng = CounterRng(11)
        assert rng.randbelow_many(np.array(bounds, dtype=np.uint64)).tolist() == want
        assert rng.counter == want_counter


def test_randbelow_many_rejects_bad_bounds():
    for bounds in ([0], [3, -1], np.array([2.0])):
        with pytest.raises(InvalidInputError):
            CounterRng(0).randbelow_many(bounds)


@given(seed=SEEDS, counter=st.integers(0, 3), n_pop=st.integers(0, 300), frac=st.floats(0.0, 1.0))
def test_sample_indices_equals_the_scalar_loop(seed, counter, n_pop, frac):
    k = int(frac * n_pop)
    old, new = CounterRng(seed), CounterRng(seed)
    old.u64_array(counter)
    new.u64_array(counter)
    assert new.sample_indices(n_pop, k).tolist() == scalar_sample_indices(old, n_pop, k).tolist()
    assert new.counter == old.counter
