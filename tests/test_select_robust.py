"""Vertex-direction robust design iteration."""

import hashlib

import numpy as np
import pytest

from subsel.criteria import RobustContext, wiens_losses
from subsel.errors import InvalidInputError, SingularMatrixError
from subsel.rng import CounterRng
from subsel.select_robust import run_wiens


def ctx_on_line(nu: float, n_grid: int = 21) -> RobustContext:
    axis = np.linspace(-1.0, 1.0, n_grid)
    f = np.column_stack([np.ones(n_grid), axis])
    return RobustContext.from_f_matrix(f, nu, points=axis[:, None])


def test_returns_simplex_measure_on_the_grid():
    ctx = ctx_on_line(0.5)
    measure, traj = run_wiens(ctx, n_init=3, n_target=53, seed=0)
    assert measure.weights.size == ctx.n_grid
    assert np.all(measure.weights >= 0.0)
    assert abs(measure.weights.sum() - 1.0) < 1e-12
    assert np.array_equal(measure.x_points, ctx.points)
    assert len(traj.steps) == 50


def test_replayed_weight_evolution_stays_on_simplex():
    # reconstruct the weight path from the recorded choices and confirm both
    # the per-step hashes the trace writes and the simplex invariant at every iteration
    ctx = ctx_on_line(0.5)
    n_init, n_target, seed = 3, 103, 7
    measure, traj = run_wiens(ctx, n_init, n_target, seed=seed)
    hashes = [step["weights_sha256"] for step in traj.to_json_dict()["steps"]]
    rng = CounterRng(seed)
    init = np.sort(rng.sample_indices(ctx.n_grid, n_init))
    assert np.array_equal(traj.initial_indices, init)
    xi = np.zeros(ctx.n_grid)
    xi[init] = 1.0 / n_init
    n = n_init
    for step, digest in zip(traj.steps, hashes, strict=True):
        e = np.zeros(ctx.n_grid)
        e[step.chosen_index] = 1.0
        xi = (n * xi + e) / (n + 1.0)
        n += 1
        assert abs(xi.sum() - 1.0) <= 1e-12
        assert np.all(xi >= 0.0)
        assert hashlib.sha256(xi.tobytes()).hexdigest() == digest
    assert np.array_equal(xi, measure.weights)


def test_loss_improves_from_the_initial_measure():
    for seed in range(5):
        ctx = ctx_on_line(0.5)
        measure, traj = run_wiens(ctx, n_init=3, n_target=203, seed=seed)
        assert traj.final_dnu <= traj.steps[0].dnu + 1e-9
        # the reported final loss is the loss of the returned measure
        _, d_val = wiens_losses(ctx, measure.weights)
        assert d_val.value == pytest.approx(traj.final_dnu, rel=1e-12)


def test_anchor_value_is_stable():
    ctx = ctx_on_line(0.5)
    _, traj = run_wiens(ctx, n_init=3, n_target=203, seed=0)
    assert traj.final_dnu == pytest.approx(10.269422271603394, rel=1e-9)
    assert traj.steps[0].dnu == pytest.approx(14.989277726535423, rel=1e-9)


def test_same_seed_replays_exactly():
    ctx = ctx_on_line(0.3)
    a, ta = run_wiens(ctx, n_init=4, n_target=104, seed=11)
    b, tb = run_wiens(ctx, n_init=4, n_target=104, seed=11)
    assert np.array_equal(a.weights, b.weights)
    assert ta.to_json_dict() == tb.to_json_dict()
    c, _ = run_wiens(ctx, n_init=4, n_target=104, seed=12)
    assert not np.array_equal(a.weights, c.weights)


def test_small_nu_concentrates_on_extreme_points():
    # with nu near 0 the loss is dominated by the determinant term, whose
    # grid optimum puts half the mass on each end of the interval
    axis = np.linspace(-1.0, 1.0, 5)
    f = np.column_stack([np.ones(5), axis])
    ctx = RobustContext.from_f_matrix(f, 0.01, points=axis[:, None])
    measure, _ = run_wiens(ctx, n_init=2, n_target=502, seed=1)
    assert measure.weights[0] + measure.weights[-1] > 0.9


def test_endpoint_nu_values_are_rejected():
    for nu in (0.0, 1.0):
        ctx = ctx_on_line(nu)
        with pytest.raises(InvalidInputError):
            run_wiens(ctx, n_init=3, n_target=10)


def test_context_without_points_is_rejected():
    axis = np.linspace(-1.0, 1.0, 9)
    f = np.column_stack([np.ones(9), axis])
    ctx = RobustContext.from_f_matrix(f, 0.5)
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=3, n_target=10)


def test_parameter_validation():
    ctx = ctx_on_line(0.5)
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=0, n_target=10)
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=30, n_target=40)  # exceeds grid size
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=5, n_target=5)
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=3, n_target=10, stop="bogus")
    with pytest.raises(InvalidInputError):
        run_wiens(ctx, n_init=3, n_target=10, stop_epsilon=-0.1)


def test_rank_deficient_start_raises():
    # a single support point cannot carry a 2-parameter gram matrix
    ctx = ctx_on_line(0.5)
    with pytest.raises(SingularMatrixError):
        run_wiens(ctx, n_init=1, n_target=10, seed=0)


def test_trailing_window_stop():
    ctx = ctx_on_line(0.5)
    _, traj = run_wiens(
        ctx, n_init=3, n_target=5003, seed=3,
        stop="dnu_gain_below", stop_epsilon=1.0, stop_window=10,
    )
    assert traj.stop_reason == "dnu_gain_below"
    assert len(traj.steps) == 11  # fires at the first comparable window


def test_dnu_csv_layout(tmp_path):
    ctx = ctx_on_line(0.5)
    _, traj = run_wiens(ctx, n_init=3, n_target=13, seed=5)
    path = tmp_path / "dnu.csv"
    traj.write_dnu_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,chosen_index,dnu,lambda_max"
    assert len(lines) == 1 + len(traj.steps)
    cells = lines[1].split(",")
    assert int(cells[0]) == 1
    assert float(cells[2]) == pytest.approx(traj.steps[0].dnu)


def test_confounder_axes_split_into_z_points():
    axis = np.linspace(-1.0, 1.0, 5)
    zax = np.array([-1.0, 1.0])
    pts = np.array([[x, z] for x in axis for z in zax])
    f = np.column_stack([np.ones(pts.shape[0]), pts[:, 0]])
    ctx = RobustContext.from_f_matrix(f, 0.5, points=pts, z_dim=1)
    measure, _ = run_wiens(ctx, n_init=3, n_target=23, seed=9)
    assert measure.x_points.shape == (10, 1)
    assert measure.z_points.shape == (10, 1)
    assert np.array_equal(measure.z_points[:, 0], pts[:, 1])
