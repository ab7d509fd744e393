"""Properties of the incremental parts of the sequential loop.

* The column-major distance pass gives the bytes of numpy's row sum
  ((c - p)**2).sum(axis=1) on the N x d rows it replaced.
* The queued nearest-row transfer returns exactly the rows of the full scan
  it replaces, lowest row index first among equal distances.  Both read the
  column-major pass, so this does not check the pass itself.
* A logistic fit warm-started near the optimum and a cold fit from 0 reach
  the same estimate, to 1e-10 of its max-norm.
* The stratified start's sort-based quantiles equal np.quantile's, and the
  start itself, which draws all its round-robin words at once, picks the
  rows of the round-robin loop with scalar draws that it replaced.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given
from hypothesis import strategies as st

from subsel import select_sequential
from subsel.errors import SeparationError, SingularMatrixError
from subsel.estimation import fit_logistic, sigmoid
from subsel.rng import CounterRng
from subsel.select_sequential import _linear_quantiles, _NearestRows, _sq_dists, _stratified_init

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    d=st.integers(1, 10),
    n=st.integers(1, 500),
    data=st.data(),
)
def test_column_major_distances_equal_the_row_sum(d, n, data):
    # arbitrary finite floats, signed zeros included; large ones overflow to inf alike
    values = data.draw(st.lists(FINITE, min_size=n * d, max_size=n * d), label="coords")
    rows = np.array(values, dtype=float).reshape(n, d)
    point = np.array(data.draw(st.lists(FINITE, min_size=d, max_size=d), label="point"), dtype=float)
    with np.errstate(over="ignore"):
        want = ((rows - point) ** 2).sum(axis=1)
        got = _sq_dists(np.ascontiguousarray(rows.T), point)
    assert got.tobytes() == want.tobytes()


def test_column_major_distances_keep_numpys_unrolled_row_sum_from_d_8():
    # numpy unrolls a row sum of 8 or more terms, which a sum in order does not
    # reproduce on these rows; the drawn floats above seldom tell the two apart
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(2000, 8)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 8))
    want = (rows**2).sum(axis=1)
    assert _sq_dists(np.ascontiguousarray(rows.T), np.zeros(8)).tobytes() == want.tobytes()
    in_order = rows[:, 0] ** 2
    for j in range(1, 8):
        in_order = in_order + rows[:, j] ** 2
    assert in_order.tobytes() != want.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    dim=st.integers(1, 3),
    levels=st.integers(1, 4),
    n_points=st.integers(1, 4),
    n_init=st.integers(0, 20),
    budget=st.sampled_from([0, 5, 40, 10**6]),
    prefix=st.sampled_from([1, 3, 256]),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=60),
)
# a prefix grown and then dropped for a scan within one `take` once stayed counted in `stored`
@example(seed=63, n=8, dim=2, levels=2, n_points=1, n_init=0, budget=5, prefix=1, picks=[(0, 2)])
def test_queued_transfer_equals_the_scan(seed, n, dim, levels, n_points, n_init, budget, prefix, picks):
    # coordinates on a few integer levels force exact distance ties
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, levels, size=(n, dim)).astype(float)
    points = rng.integers(0, levels + 1, size=(n_points, dim)).astype(float)
    nearest = _NearestRows(np.ascontiguousarray(coords.T), points)
    in_sel = np.zeros(n, dtype=bool)
    in_sel[rng.choice(n, size=min(n_init, n - 1), replace=False)] = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(select_sequential, "_QUEUE_BUDGET", budget)
        patch.setattr(select_sequential, "_QUEUE_PREFIX", prefix)
        for g, m in picks:
            g %= n_points
            m = min(m, int(n - in_sel.sum()))
            if m == 0:
                break
            want = nearest.scan(g, m, in_sel)
            got = nearest.take(g, m, in_sel)
            assert got.tolist() == want.tolist()
            in_sel[got] = True
    assert nearest.stored <= budget
    assert sum(order.size for order, _ in nearest.queues.values()) == nearest.stored


def test_queue_serves_a_point_chosen_again_and_respects_the_budget(monkeypatch):
    coords = np.array([[0.0], [1.0], [1.0], [-1.0], [2.0], [0.0]])
    points = np.array([[0.0], [1.5]])
    monkeypatch.setattr(select_sequential, "_QUEUE_PREFIX", 1)
    nearest = _NearestRows(coords.T.copy(), points)
    in_sel = np.zeros(6, dtype=bool)
    taken = []
    for g, m in ((0, 2), (1, 2), (0, 1), (0, 1)):
        rows = nearest.take(g, m, in_sel)
        in_sel[rows] = True
        taken.append(rows.tolist())
    # rows 1, 2 and 4 tie at distance 0.25 from point 1, which takes the two
    # lowest; point 0 comes back after its stored prefix [0, 5] is used up
    assert taken == [[0, 5], [1, 2], [3], [4]]
    monkeypatch.setattr(select_sequential, "_QUEUE_BUDGET", 0)
    scanned = _NearestRows(coords.T.copy(), points)
    assert scanned.take(0, 2, np.zeros(6, dtype=bool)).tolist() == [0, 5]
    assert scanned.queues == {} and scanned.stored == 0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2000, 6000),
    k=st.integers(1, 4),
    shift=st.floats(-2.0, 2.0),
)
def test_warm_and_cold_logistic_fits_agree(seed, n, k, shift):
    # Sizes are those the sequential loop refits.  A fit that stops on the
    # absolute gradient test |g| < 1e-8 may sit about 1e-8 / lambda_min(H)
    # from the optimum, which on a few hundred rows is up to 1e-9 of |theta|.
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    theta = np.concatenate([[shift], rng.uniform(-1.0, 1.0, size=k - 1)])
    y = (rng.uniform(size=n) < sigmoid(x @ theta)).astype(float)
    assume(0 < y.sum() < n)
    try:
        cold = fit_logistic(x, y)
    except (SeparationError, SingularMatrixError):
        assume(False)
    assume(np.max(np.abs(cold.theta)) < 10.0)  # far from quasi-separation
    start = cold.theta + rng.uniform(-0.5, 0.5, size=k)
    warm = fit_logistic(x, y, theta0=start)
    assert cold.converged and warm.converged
    scale = np.max(np.abs(cold.theta))
    assert np.max(np.abs(warm.theta - cold.theta)) <= 1e-10 * max(scale, 1.0)


def sample_values(seed: int, n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "rounded":  # rounding small negatives gives -0.0 next to 0.0
        return np.round(rng.normal(scale=0.3, size=n), 1)
    return rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    kind=st.sampled_from(["spread", "ties", "rounded"]),
    n_bins=st.integers(1, 40),
)
def test_linear_quantiles_equal_np_quantile(seed, n, kind, n_bins):
    values = sample_values(seed, n, kind)
    want = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    got = _linear_quantiles(values, n_bins)
    # equal as floats; only the sign of a zero may differ, which
    # searchsorted, the edges' one use, does not see
    assert np.array_equal(got, want)
    probe = np.concatenate([values, got, want, [-np.inf, np.inf]])
    for side in ("left", "right"):
        assert np.array_equal(np.searchsorted(got[1:-1], probe, side=side),
                              np.searchsorted(want[1:-1], probe, side=side))


def scalar_stratified_init(rng, values, edge_pool, n_init, n_quantiles):
    picked = []
    if edge_pool.size:
        edges = np.quantile(values[edge_pool], np.linspace(0.0, 1.0, n_quantiles + 1))
        bins = np.searchsorted(edges[1:-1], values, side="right")
        members = [list(np.flatnonzero(bins == b)) for b in range(n_quantiles)]
        while len(picked) < n_init and any(members):
            for b in range(n_quantiles):
                if len(picked) >= n_init:
                    break
                if members[b]:
                    at = rng.randbelow(len(members[b]))
                    picked.append(int(members[b].pop(at)))
    if len(picked) < n_init:
        rest = np.setdiff1d(np.arange(values.size), np.asarray(picked, dtype=int))
        fill = rng.sample_indices(rest.size, n_init - len(picked))
        picked.extend(int(rest[i]) for i in fill)
    return picked


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    kind=st.sampled_from(["spread", "ties", "rounded"]),
    n_bins=st.integers(1, 40),
    init_frac=st.floats(0.0, 1.0),
    pool=st.sampled_from(["all", "some"]),
)
def test_stratified_init_equals_the_scalar_round_robin(seed, n, kind, n_bins, init_frac, pool):
    # `_initial_indices` never passes an empty edge pool
    values = sample_values(seed, n, kind)
    n_init = int(init_frac * n)
    edge_pool = {"all": np.arange(n), "some": np.arange(0, n, 7)}[pool]
    old, new = CounterRng(seed), CounterRng(seed)
    want = scalar_stratified_init(old, values, edge_pool, n_init, n_bins)
    got = _stratified_init(new, values, edge_pool, n_init, n_bins)
    assert got == want and all(type(i) is int for i in got)
    assert new.counter == old.counter
