"""CSV ingestion, standardization, grids, and the data simulators."""

import numpy as np
import pytest
import scipy.integrate

from subsel.errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyDatasetError,
    InvalidInputError,
    ParseError,
)
from subsel.estimation import sigmoid
from subsel.ingest_sim import (
    Dataset,
    build_grid,
    curve_mean,
    default_analogue_grid,
    default_analogue_theta,
    grid_from_data,
    load_csv,
    simulate_example2,
    simulate_example3,
    simulate_mortgage_analogue,
    solve_intercept,
    standardize,
    wave_mean,
    write_csv,
    write_rows,
)


# ---------------------------------------------------------------------------
# CSV


CSV_BODY = "a,b,y\n1.0,2.0,0.5\n3.0,4.0,1.5\n5.0,6.0,2.5\n"


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_BODY)
    data = load_csv(path, response_column="y")
    assert data.feature_names == ("a", "b")
    assert data.response_name == "y"
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(data.response, [0.5, 1.5, 2.5])
    out = tmp_path / "copy.csv"
    write_csv(data, out)
    again = load_csv(out, response_column="y")
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.response, data.response)


def test_write_csv_formats_floats_for_exact_roundtrip(tmp_path):
    vals = np.array([[0.1 + 0.2], [1.0 / 3.0]])
    data = Dataset(feature_names=("x",), features=vals)
    path = tmp_path / "x.csv"
    write_csv(data, path)
    again = load_csv(path)
    assert np.array_equal(again.features, vals)  # bitwise, not approximate


def test_write_rows_spells_numpy_cells_as_python_ones(tmp_path):
    path = tmp_path / "rows.csv"
    rows = iter([(0.1 + 0.2, np.float64(0.1 + 0.2), 7, np.int64(7), ""),
                 (-1e-300, np.float64(-1e-300), -3, np.int64(-3), "")])
    write_rows(path, ("a", "b", "c", "d", "e"), rows)
    assert path.read_text() == "a,b,c,d,e\n0.30000000000000004,0.30000000000000004,7,7,\n-1e-300,-1e-300,-3,-3,\n"


def test_load_csv_selects_and_orders_columns(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("z,y,b,a\n9.0,0.0,2.0,1.0\n8.0,1.0,4.0,3.0\n")
    data = load_csv(path, response_column="y", feature_columns=["a", "b"],
                    confounder_columns=["z"])
    assert data.feature_names == ("a", "b")
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    assert data.confounder_names == ("z",)
    assert np.array_equal(data.confounders, [[9.0], [8.0]])


def test_load_csv_lenient_drops_and_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1.0,2.0\noops,3.0\n4.0,\n5.0,6.0\n")
    data = load_csv(path, response_column="y")
    assert data.n_dropped == 2
    assert np.array_equal(data.features[:, 0], [1.0, 5.0])


def test_load_csv_strict_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1.0,2.0\noops,3.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, response_column="y", strict=True)
    assert exc.value.row == 3  # header is line 1
    assert exc.value.column == "a"


def test_load_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a,y\ninf,1.0\n2.0,3.0\n")
    data = load_csv(path, response_column="y")
    assert data.n_dropped == 1
    with pytest.raises(ParseError):
        load_csv(path, response_column="y", strict=True)


def test_load_csv_error_taxonomy(tmp_path):
    missing = tmp_path / "m.csv"
    missing.write_text("a,y\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        load_csv(missing, response_column="nope")
    with pytest.raises(ConfigError):
        load_csv(missing, response_column="y", feature_columns=["y"])
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_csv(empty)
    headers_only = tmp_path / "h.csv"
    headers_only.write_text("a,y\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(headers_only, response_column="y")


def test_blank_lines_are_skipped_silently(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,y\n1.0,2.0\n\n3.0,4.0\n")
    data = load_csv(path, response_column="y")
    assert data.n_rows == 2
    assert data.n_dropped == 0


# ---------------------------------------------------------------------------
# standardization


def test_standardize_moments_and_inverse():
    rng = np.random.default_rng(3)
    feats = rng.normal(5.0, 3.0, size=(40, 2))
    data = Dataset(feature_names=("a", "b"), features=feats,
                   response=np.arange(40.0), response_name="y")
    out = standardize(data)
    assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.features.std(axis=0, ddof=1), 1.0, atol=1e-12)
    inverted = out.features * feats.std(axis=0, ddof=1) + feats.mean(axis=0)
    assert np.allclose(inverted, feats, atol=1e-10)
    assert np.array_equal(out.response, data.response)


def test_standardize_rejects_constant_column():
    feats = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    data = Dataset(feature_names=("a", "b"), features=feats)
    with pytest.raises(DegenerateColumnError) as exc:
        standardize(data)
    assert "'b'" in str(exc.value)


# ---------------------------------------------------------------------------
# grids


def test_build_grid_row_major_order():
    grid = build_grid({"u": [0.0, 1.0], "v": [10.0, 20.0, 30.0]})
    assert grid.n_points == 6
    # trailing axis varies fastest
    assert np.array_equal(grid.points[0], [0.0, 10.0])
    assert np.array_equal(grid.points[1], [0.0, 20.0])
    assert np.array_equal(grid.points[3], [1.0, 10.0])


def test_build_grid_z_axes_must_trail():
    with pytest.raises(ConfigError):
        build_grid({"z": [0.0, 1.0], "x": [0.0, 1.0]}, z_axes=["z"])
    grid = build_grid({"x": [0.0, 1.0], "z": [0.0, 1.0]}, z_axes=["z"])
    assert grid.z_dim == 1
    with pytest.raises(ConfigError):
        build_grid({}, z_axes=None)
    with pytest.raises(ConfigError):
        build_grid({"x": [0.0, 1.0]}, z_axes=["w"])


def test_default_analogue_grid_shape():
    grid = default_analogue_grid()
    assert grid.n_points == 9 * 5 * 7 * 7  # 2205
    assert grid.dim == 4
    assert grid.z_dim == 0
    assert np.array_equal(grid.points.min(axis=0), [-4.0, -2.0, -2.0, -2.0])
    assert np.array_equal(grid.points.max(axis=0), [4.0, 2.0, 4.0, 4.0])


def test_grid_from_data_spans_observed_range():
    feats = np.array([[0.0, -2.0], [10.0, 6.0], [5.0, 1.0]])
    conf = np.array([[3.0], [9.0], [6.0]])
    data = Dataset(feature_names=("a", "b"), features=feats,
                   confounders=conf, confounder_names=("z",))
    grid = grid_from_data(data, n_levels=5)
    assert grid.n_points == 5 * 5 * 5
    assert grid.z_dim == 1
    assert grid.names == ("a", "b", "z")
    assert np.array_equal(grid.points.min(axis=0), [0.0, -2.0, 3.0])
    assert np.array_equal(grid.points.max(axis=0), [10.0, 6.0, 9.0])
    with pytest.raises(ConfigError):
        grid_from_data(data, n_levels=1)


# ---------------------------------------------------------------------------
# simulators


def test_curve_and_wave_means():
    assert curve_mean(0.0, 0.0) == pytest.approx(-5.0 / 3.0)
    assert curve_mean(1.0, 9.0) == pytest.approx(-0.5 - 5.0 / 3.0 + 0.35 * np.sin(1.0) + 1.0)
    assert wave_mean(0.0, 0.0) == pytest.approx(1.0)
    assert wave_mean(np.pi, 9.0) == pytest.approx(np.pi - 1.0 + 1.0)


def test_simulate_example2_structure_and_replay():
    a = simulate_example2(105, seed=4)
    b = simulate_example2(105, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.response, b.response)
    c = simulate_example2(105, seed=5)
    assert not np.array_equal(a.response, c.response)
    assert a.feature_names == ("x",)
    assert a.confounder_names == ("z",)
    assert a.n_rows == 105
    # x centered near 2, z near 0
    big = simulate_example2(20000, seed=6)
    assert abs(big.features.mean() - 2.0) < 0.05
    assert abs(big.confounders.mean()) < 0.05
    # the response is the mean surface plus noise of the stated scale
    resid = big.response - curve_mean(big.features[:, 0], big.confounders[:, 0])
    assert abs(resid.mean()) < 0.05
    assert abs(resid.std() - 1.0) < 0.05


def test_simulate_example3_integer_support():
    data = simulate_example3(seed=8)
    x = data.features[:, 0]
    assert data.n_rows == 105
    assert np.array_equal(x, np.round(x))
    assert x.min() >= -100 and x.max() <= 100
    assert np.unique(x).size == 105  # without replacement
    again = simulate_example3(seed=8)
    assert np.array_equal(data.response, again.response)
    with pytest.raises(InvalidInputError):
        simulate_example3(n=202)
    every = simulate_example3(seed=9, n=201)
    assert sorted(every.features[:, 0]) == [float(v) for v in range(-100, 101)]


def test_solve_intercept_hits_target_rate():
    slopes = (1.0, -0.5, 0.3, 2.0)
    for target in (1031e-6, 0.01, 0.2):
        t0 = solve_intercept(slopes, target)
        # independent quadrature: b'X ~ N(0, ||b||^2)
        norm = float(np.linalg.norm(slopes))
        val, _ = scipy.integrate.quad(
            lambda t: sigmoid(t0 + norm * t) * np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi),
            -12.0, 12.0,
        )
        assert val == pytest.approx(target, rel=1e-6)
    with pytest.raises(InvalidInputError):
        solve_intercept(slopes, 0.0)
    with pytest.raises(InvalidInputError):
        solve_intercept(slopes, 1.0)


def test_default_analogue_theta_is_stable():
    theta = default_analogue_theta()
    assert theta.shape == (5,)
    assert np.array_equal(theta[1:], [1.0, -0.5, 0.3, 2.0])
    t0_again = default_analogue_theta()[0]
    assert theta[0] == t0_again
    assert -12.0 < theta[0] < -4.0  # rare-event intercept is strongly negative


def test_simulate_mortgage_analogue_rate_and_replay():
    n = 200_000
    data = simulate_mortgage_analogue(n, seed=10)
    assert data.feature_names == ("creditscore", "houseAge", "yearsemploy", "ccDebt")
    assert set(np.unique(data.response)) <= {0.0, 1.0}
    rate = data.response.mean()
    # expect about 1031 per million; allow 4 binomial sds
    expect = 1031e-6
    sd = np.sqrt(expect * (1 - expect) / n)
    assert abs(rate - expect) < 4 * sd
    again = simulate_mortgage_analogue(n, seed=10)
    assert np.array_equal(data.response, again.response)
    with pytest.raises(InvalidInputError):
        simulate_mortgage_analogue(0)
    with pytest.raises(InvalidInputError):
        simulate_mortgage_analogue(10, theta=[1.0, 2.0])


def test_simulate_mortgage_analogue_custom_theta_shifts_rate():
    theta = np.array([-2.0, 1.0, -0.5, 0.3, 2.0])
    data = simulate_mortgage_analogue(50_000, theta=theta, seed=11)
    assert data.response.mean() > 0.05  # far above the rare-event default
