"""The robust kernel behind run_wiens and wiens_losses, tested as properties.

The oracle for the direction scores is the earlier three-einsum form of
run_wiens's gradient, T = (1 - nu) q'R^-1 q + nu (q'Jq - xi q'Kq), written
out here from scratch.
"""

import hashlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from subsel.criteria import RobustContext, _robust_kernel, top_eigenpair, wiens_losses
from subsel.errors import SingularMatrixError
from subsel.rng import CounterRng
from subsel.select_robust import _direction_scores, run_wiens


def oracle_scores(q: np.ndarray, xi: np.ndarray, nu: float) -> np.ndarray:
    p = q.shape[1]
    r = (q * xi[:, None]).T @ q
    r_eigs, r_vecs = np.linalg.eigh((r + r.T) / 2.0)
    rinv = (r_vecs / r_eigs) @ r_vecs.T
    root = (r_vecs * np.sqrt(r_eigs)) @ r_vecs.T
    inv_root = (r_vecs / np.sqrt(r_eigs)) @ r_vecs.T
    b2 = (q * (xi * xi)[:, None]).T @ q
    u = rinv @ b2 @ rinv
    lam, z = top_eigenpair(root @ (u - np.eye(p)) @ root)
    v = root @ z
    w = inv_root @ z
    j = lam * (rinv + np.outer(w, w)) + np.outer(w, v) + np.outer(v, w)
    kk = 2.0 * np.outer(w, w)
    t_var = np.einsum("gi,ij,gj->g", q, rinv, q)
    t_bias = np.einsum("gi,ij,gj->g", q, j, q) - xi * np.einsum("gi,ij,gj->g", q, kk, q)
    return (1.0 - nu) * t_var + nu * t_bias


def random_grid_ctx(seed: int, n_grid: int, p: int, nu: float) -> RobustContext:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_grid, 2))
    cols = [np.ones(n_grid), pts[:, 0], pts[:, 1], pts[:, 0] * pts[:, 1], pts[:, 0] ** 2]
    return RobustContext.from_f_matrix(np.column_stack(cols[:p]), nu, points=pts)


def simplex_weights(seed: int, n_grid: int, support: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xi = np.zeros(n_grid)
    at = rng.choice(n_grid, size=support, replace=False)
    xi[at] = rng.exponential(size=support)
    return xi / xi.sum()


nus = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(1, 60),
    nu=nus,
    data=st.data(),
)
def test_quadratic_form_matches_three_einsum_oracle(seed, p, extra, nu, data):
    n_grid = p + extra
    support = data.draw(st.integers(p, n_grid), label="support")
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    xi = simplex_weights(seed + 1, n_grid, support)
    try:
        parts = _robust_kernel(ctx.q_matrix, xi)
    except SingularMatrixError:
        assume(False)
    got = _direction_scores(ctx.q_matrix, xi, nu, parts)
    want = oracle_scores(ctx.q_matrix, xi, nu)
    tol = 1e-12 * float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= tol
    top_two = np.sort(want)[-2:]
    if top_two[1] - top_two[0] > tol:
        assert int(np.argmax(got)) == int(np.argmax(want))


def replay(ctx: RobustContext, traj, seed: int, n_init: int):
    """The weight path of a run, rebuilt from its chosen indices."""
    init = np.sort(CounterRng(seed).sample_indices(ctx.n_grid, n_init))
    assert np.array_equal(traj.initial_indices, init)
    xi = np.zeros(ctx.n_grid)
    xi[init] = 1.0 / n_init
    n = n_init
    for step in traj.steps:
        e = np.zeros(ctx.n_grid)
        e[step.chosen_index] = 1.0
        xi = (n * xi + e) / (n + 1.0)
        n += 1
        yield step, xi


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 4),
    extra=st.integers(2, 40),
    nu=nus,
    data=st.data(),
)
def test_run_wiens_weights_stay_on_the_simplex(seed, p, extra, nu, data):
    n_grid = p + extra
    n_init = data.draw(st.integers(p, n_grid), label="n_init")
    n_target = n_init + data.draw(st.integers(1, 60), label="iterations")
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    try:
        measure, traj = run_wiens(ctx, n_init=n_init, n_target=n_target, seed=seed)
    except SingularMatrixError:
        assume(False)
    assert len(traj.steps) == n_target - n_init
    assert np.all(measure.weights >= 0.0)
    assert abs(float(measure.weights.sum()) - 1.0) <= 1e-12
    xi = None
    for step, xi in replay(ctx, traj, seed, n_init):
        assert np.all(xi >= 0.0)
        assert abs(float(xi.sum()) - 1.0) <= 1e-12
        assert step.support_size == np.count_nonzero(xi)
        assert hashlib.sha256(xi.tobytes()).hexdigest() == step.weights_sha256
    assert np.array_equal(xi, measure.weights)
    assert wiens_losses(ctx, measure.weights)[1].value == traj.final_dnu


def test_final_dnu_is_wiens_losses_of_the_measure_bit_for_bit():
    axis = np.linspace(-1.0, 1.0, 21)
    ctx = RobustContext.from_f_matrix(np.column_stack([np.ones(21), axis]), 0.5, points=axis[:, None])
    for seed in range(5):
        measure, traj = run_wiens(ctx, n_init=3, n_target=203, seed=seed)
        _, d_val = wiens_losses(ctx, measure.weights)
        assert d_val.value == traj.final_dnu
        assert wiens_losses(ctx, measure)[1].value == traj.final_dnu


def test_support_size_is_reported_per_step():
    axis = np.linspace(-1.0, 1.0, 21)
    ctx = RobustContext.from_f_matrix(np.column_stack([np.ones(21), axis]), 0.5, points=axis[:, None])
    measure, traj = run_wiens(ctx, n_init=3, n_target=53, seed=0)
    sizes = [s.support_size for s in traj.steps]
    assert sizes[0] in (3, 4)
    assert sizes == sorted(sizes)
    assert sizes[-1] == np.count_nonzero(measure.weights)
    assert traj.to_json_dict()["steps"][-1]["support_size"] == sizes[-1]


def test_robust_gram_matrix_below_the_eigenvalue_floor_is_singular():
    # weights on fewer than p grid points leave R rank-deficient
    axis = np.linspace(-1.0, 1.0, 9)
    f = np.column_stack([np.ones(9), axis, axis**2])
    ctx = RobustContext.from_f_matrix(f, 0.5)
    w = np.zeros(9)
    w[[0, 8]] = 0.5
    with pytest.raises(SingularMatrixError) as info:
        wiens_losses(ctx, w)
    assert info.value.smallest_eigenvalue < 1e-12
