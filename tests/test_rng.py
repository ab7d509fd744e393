"""Counter RNG: reference vectors, stream laws, and distribution checks."""

import numpy as np
import pytest
from scipy import stats

from subsel.rng import CounterRng, inverse_normal_cdf, mix64

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def reference_mix(v: int) -> int:
    # scalar restatement of the output function, kept independent of rng.py internals
    v &= MASK
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & MASK
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & MASK
    v ^= v >> 31
    return v


def reference_stream(seed: int, n: int) -> list:
    return [reference_mix((seed + (i + 1) * GAMMA) & MASK) for i in range(n)]


def test_known_vectors_seed_zero():
    # published outputs of this generator for seed 0
    rng = CounterRng(0)
    got = [rng.u64() for _ in range(3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_matches_reference_stream_many_seeds():
    for seed in (0, 1, 42, 2**63, 2**64 - 1, 987654321):
        rng = CounterRng(seed)
        got = [rng.u64() for _ in range(50)]
        assert got == reference_stream(seed, 50)


def test_vectorized_stream_equals_scalar():
    rng_a = CounterRng(7)
    rng_b = CounterRng(7)
    block = rng_b.u64_array(257)
    singles = np.array([rng_a.u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(block, singles)
    # and the two generators stay in sync afterwards
    assert rng_a.u64() == rng_b.u64()


def test_counter_advances_by_draw_count():
    rng = CounterRng(3)
    assert rng.counter == 0
    rng.u64()
    rng.u64_array(10)
    rng.uniform(5)
    assert rng.counter == 16


def test_mix64_matches_reference():
    for v in (0, 1, GAMMA, 2**64 - 1, 0xDEADBEEFCAFEBABE):
        assert mix64(v) == reference_mix(v)


def test_uniform_in_unit_interval():
    u = CounterRng(11).uniform(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_uniform_deterministic():
    assert np.array_equal(CounterRng(5).uniform(64), CounterRng(5).uniform(64))
    assert not np.array_equal(CounterRng(5).uniform(64), CounterRng(6).uniform(64))


def test_inverse_normal_cdf_against_scipy():
    p = np.concatenate([
        np.array([1e-12, 1e-9, 1e-6, 0.02425, 0.024251]),
        np.linspace(0.001, 0.999, 397),
        np.array([1 - 1e-6, 1 - 1e-9]),
    ])
    ours = np.array([inverse_normal_cdf(v) for v in p])
    ref = stats.norm.ppf(p)
    assert np.allclose(ours, ref, rtol=1e-8, atol=1e-8)


def test_inverse_normal_cdf_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)


def test_normal_moments_and_transform():
    x = CounterRng(13).normal(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    y = CounterRng(13).normal(100, mean=3.0, sd=0.5)
    base = CounterRng(13).normal(100)
    assert np.allclose(y, 3.0 + 0.5 * base)


def test_randbelow_bounds_and_determinism():
    rng = CounterRng(21)
    draws = [rng.randbelow(17) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 16
    rng2 = CounterRng(21)
    assert draws[:50] == [rng2.randbelow(17) for _ in range(50)]
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_sample_indices_distinct_and_in_range():
    rng = CounterRng(31)
    for n_pop, k in ((10, 10), (100, 7), (5000, 500), (3, 1)):
        idx = rng.sample_indices(n_pop, k)
        assert len(idx) == k
        assert len(set(int(i) for i in idx)) == k
        assert all(0 <= int(i) < n_pop for i in idx)
    with pytest.raises(ValueError):
        rng.sample_indices(5, 6)
