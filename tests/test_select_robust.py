"""Vertex-direction robust design iteration."""

import hashlib

import numpy as np
import pytest

from conftest import CountedMeasure
from subsel.criteria import RobustContext, wiens_losses
from subsel.errors import InvalidInputError, SingularMatrixError
from subsel.ingest_sim import build_grid
from subsel.model_core import CandidateGrid, model_spec_from_config
from subsel.rng import CounterRng
from subsel.select_robust import run_wiens
from test_golden import SEQDES_GRID, SEQDES_MODEL


def ctx_on_line(nu: float, n_grid: int = 21) -> RobustContext:
    axis = np.linspace(-1.0, 1.0, n_grid)
    f = np.column_stack([np.ones(n_grid), axis])
    return RobustContext(f, nu, grid=CandidateGrid(axis[:, None]))


def test_returns_simplex_measure_on_the_grid():
    ctx = ctx_on_line(0.5)
    measure, traj = run_wiens(ctx, n_init=3, n_target=53, seed=0)
    assert measure.weights.size == ctx.n_grid
    assert np.all(measure.weights >= 0.0)
    assert abs(measure.weights.sum() - 1.0) < 1e-12
    assert np.array_equal(measure.x_points, ctx.grid.points)
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
    path = CountedMeasure(ctx.n_grid, init)
    xi = None
    for step, digest in zip(traj.steps, hashes, strict=True):
        xi = path.add(step.chosen_index)
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
    ctx = RobustContext(f, 0.01, grid=CandidateGrid(axis[:, None]))
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
    with pytest.raises(TypeError, match="grid"):  # the grid is required at construction
        RobustContext(f, 0.5)


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
    # a single support point cannot carry a 2-parameter gram matrix, whatever the draw
    ctx = ctx_on_line(0.5)
    with pytest.raises(InvalidInputError, match="below the 2 basis terms"):
        run_wiens(ctx, n_init=1, n_target=10, seed=0)


def ctx_on_two_lines() -> RobustContext:
    # f = (1, x, z) on {-1, -.5, 0, .5, 1} x {-1, 1}: four points on one z level are singular
    grid = CandidateGrid.from_axes({"x": np.linspace(-1.0, 1.0, 5), "z": np.array([-1.0, 1.0])}, z_dim=1)
    return RobustContext(np.column_stack([np.ones(grid.n_points), grid.points]), 0.5, grid)


def test_singular_random_start_is_redrawn_from_the_same_stream():
    ctx = ctx_on_two_lines()
    first, second = (np.sort(draw) for draw in _draws(0, ctx.n_grid, 4, 2))
    assert np.unique(ctx.grid.points[first, 1]).size == 1  # seed 0 first draws four points on one line
    _, traj = run_wiens(ctx, n_init=4, n_target=20, seed=0)
    assert traj.initial_indices.tolist() == second.tolist()
    # a regular first draw is kept
    _, traj = run_wiens(ctx, n_init=4, n_target=20, seed=1)
    assert traj.initial_indices.tolist() == np.sort(_draws(1, ctx.n_grid, 4, 1)[0]).tolist()


def test_start_draws_stop_after_a_bounded_count():
    # one point off x = 0: a start of two points is regular only when it holds that point
    axis = np.zeros(5000)
    axis[-1] = 1.0
    ctx = RobustContext(np.column_stack([np.ones(axis.size), axis]), 0.5, CandidateGrid(axis[:, None]))
    assert not any(axis.size - 1 in draw for draw in _draws(0, axis.size, 2, 100))
    with pytest.raises(SingularMatrixError, match="no regular start in 100 random draws"):
        run_wiens(ctx, n_init=2, n_target=10, seed=0)


def _draws(seed: int, n_grid: int, n_init: int, count: int) -> list[np.ndarray]:
    rng = CounterRng(seed)
    return [rng.sample_indices(n_grid, n_init) for _ in range(count)]


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
    ctx = RobustContext(f, 0.5, grid=CandidateGrid(pts, z_dim=1))
    measure, _ = run_wiens(ctx, n_init=3, n_target=23, seed=9)
    assert measure.x_points.shape == (10, 1)
    assert measure.z_points.shape == (10, 1)
    assert np.array_equal(measure.z_points[:, 0], pts[:, 1])


def test_ties_between_identical_grid_rows_go_to_the_lowest_index():
    # the golden `subsel robust` run: its basis reads x alone, so the 11 grid points of an x level share one
    # F row, and in 30 of the 31 x levels their Q rows are equal in bits (QR leaves the first level's rows
    # ulps apart); among points with Q rows and counts equal in bits the step must pick the lowest index
    grid = build_grid(SEQDES_GRID["axes"], z_axes=SEQDES_GRID["z_axes"])
    ctx = RobustContext.from_grid(model_spec_from_config(SEQDES_MODEL), grid, 0.5)
    _, traj = run_wiens(ctx, n_init=ctx.p + 1, n_target=ctx.p + 301, seed=4)
    bits = np.ascontiguousarray(ctx.q_matrix).view(np.int64)
    path = CountedMeasure(ctx.n_grid, traj.initial_indices)
    ties = 0
    for step in traj.steps:
        c = step.chosen_index
        tied = np.all(bits == bits[c], axis=1) & (path.counts == path.counts[c])
        assert not tied[:c].any(), f"iteration {step.iteration} picks {c} over {np.flatnonzero(tied[:c])}"
        ties += bool(tied[c + 1:].any())
        path.add(c)
    assert ties > 0
