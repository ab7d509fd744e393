"""Model rows, design measures, grids, and information matrices."""

import numpy as np
import pytest

from subsel.errors import ConfigError, InvalidInputError
from subsel.model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    ModelSpec,
    eval_row,
    information_matrix,
    information_matrix_from_selection,
    model_matrix,
    model_spec_from_config,
    polynomial_basis,
    trig_basis,
    uniform_design,
)


def line_spec() -> ModelSpec:
    fn, p = polynomial_basis(degree=1, intercept=True, dim=1)
    return ModelSpec(f_basis=fn, p=p)


def full_spec() -> ModelSpec:
    # mean (1, x), neglected sin(x^2) term, confounder z/9
    f_fn, p = polynomial_basis(degree=1, intercept=True, dim=1)
    h_fn, m = trig_basis("sin", (1.0, 0.0, 0.0))
    g_fn, q = polynomial_basis(degree=1, intercept=False, dim=1, scale=1.0 / 9.0)
    return ModelSpec(f_basis=f_fn, p=p, h_basis=h_fn, m=m, g_basis=g_fn, q=q)


def test_eval_row_blocks():
    spec = full_spec()
    row = eval_row(spec, np.array([2.0]), np.array([3.0]))
    assert np.allclose(row, [1.0, 2.0, np.sin(4.0), 3.0 / 9.0])
    assert spec.k_total == 4


def test_eval_row_no_extras():
    spec = line_spec()
    assert np.allclose(eval_row(spec, np.array([0.0]), None), [1.0, 0.0])


def test_eval_row_checks_z_against_q():
    with pytest.raises(InvalidInputError, match=r"^model has no confounder terms but z was supplied$"):
        eval_row(line_spec(), np.array([0.0]), np.array([1.0]))
    with pytest.raises(InvalidInputError, match=r"^model has confounder terms: z is required$"):
        eval_row(full_spec(), np.array([0.0]))

    def boom(x):
        raise ZeroDivisionError("no")

    # the arguments are checked before any basis is evaluated
    failing = ModelSpec(f_basis=boom, p=1, g_basis=full_spec().g_basis, q=1)
    with pytest.raises(InvalidInputError, match=r"^model has confounder terms: z is required$"):
        eval_row(failing, np.array([0.0]))


def test_eval_row_is_a_model_matrix_row_with_a_per_point_block():
    spec = full_spec()
    mixed = ModelSpec(f_basis=spec.f_basis, p=spec.p, h_basis=spec.h_basis, m=spec.m,
                      g_basis=lambda z: np.array([z[0] / 9.0]), q=spec.q)
    xs = np.array([[-1.5], [0.25], [2.0]])
    zs = np.array([[3.0], [-7.0], [0.5]])
    rows = model_matrix(mixed, xs, zs)
    for i in range(xs.shape[0]):
        assert eval_row(mixed, xs[i], zs[i]).tobytes() == rows[i].tobytes()


@pytest.mark.parametrize("spec, x_points, z_points, message", [
    (line_spec(), 3.0, None, r"^x_points must be a 1-D or 2-D array of points$"),
    (line_spec(), np.zeros((2, 1, 1)), None, r"^x_points must be a 1-D or 2-D array of points$"),
    (full_spec(), [[0.0], [1.0]], None, r"^model has confounder terms: z_points is required$"),
    (full_spec(), [[0.0], [1.0]], 3.0, r"^x_points and z_points must have matching row counts$"),
    (full_spec(), [[0.0], [1.0]], [[1.0]], r"^x_points and z_points must have matching row counts$"),
])
def test_model_matrix_rejects_bad_points(spec, x_points, z_points, message):
    with pytest.raises(InvalidInputError, match=message):
        model_matrix(spec, x_points, z_points)


def test_model_spec_validation():
    fn, p = polynomial_basis(1, True, 1)
    with pytest.raises(InvalidInputError):
        ModelSpec(f_basis=fn, p=p, m=1)  # m > 0 without h_basis
    with pytest.raises(InvalidInputError):
        ModelSpec(f_basis=fn, p=0)


def test_design_measure_merges_duplicates_and_validates():
    d = DesignMeasure([[1.0], [1.0], [-1.0]], [0.25, 0.25, 0.5])
    assert d.x_points.shape == (2, 1)
    i1 = int(np.flatnonzero(d.x_points[:, 0] == 1.0)[0])
    assert d.weights[i1] == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        DesignMeasure([[0.0], [1.0]], [0.7, 0.2])  # weights do not sum to 1
    with pytest.raises(InvalidInputError):
        DesignMeasure([[0.0], [1.0]], [1.2, -0.2])  # negative weight


def test_design_measure_read_only():
    d = uniform_design([[-1.0], [1.0]])
    with pytest.raises(ValueError):
        d.weights[0] = 0.9


def test_information_matrix_uniform_pm1_is_identity():
    m = information_matrix(line_spec(), uniform_design([[-1.0], [1.0]]))
    assert np.allclose(m.full, np.eye(2), atol=1e-14)


def test_information_matrix_brute_force_oracle():
    # oracle: accumulate w * r r' row by row in plain python
    spec = full_spec()
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        xs = rng.normal(size=(n, 1))
        zs = rng.normal(size=(n, 1))
        w = rng.random(n)
        w /= w.sum()
        d = DesignMeasure(xs, w, zs)
        expect = np.zeros((4, 4))
        for xp, zp, wp in zip(d.x_points, d.z_points, d.weights):
            r = eval_row(spec, xp, zp)
            expect += wp * np.outer(r, r)
        got = information_matrix(spec, d).full
        assert np.allclose(got, expect, atol=1e-12)


def test_information_matrix_blocks():
    spec = full_spec()
    d = DesignMeasure([[0.5], [-2.0]], [0.5, 0.5], [[1.0], [2.0]])
    m = information_matrix(spec, d)
    assert m.m11.shape == (2, 2)
    assert m.m22.shape == (1, 1)
    assert m.m33.shape == (1, 1)
    assert np.allclose(m.m12, m.m21.T)
    assert np.allclose(m.full[:2, :2], m.m11)
    assert np.allclose(m.full[2:3, 3:4], m.m23)


def test_selection_matrix_matches_weighted_measure():
    # selection-based unnormalized matrix = n_d/sigma^2 * measure-based matrix
    spec = line_spec()
    rng = np.random.default_rng(3)
    data = rng.normal(size=(50, 1))
    idx = np.array([4, 9, 17, 30])
    sigma = 1.7
    m_sel = information_matrix_from_selection(spec, data, idx, sigma=sigma)
    d = uniform_design(data[idx])
    m_meas = information_matrix(spec, d)
    assert np.allclose(m_sel.full, idx.size / sigma**2 * m_meas.full, atol=1e-10)


def test_selection_validates_indices():
    spec = line_spec()
    data = np.zeros((10, 1))
    with pytest.raises(InvalidInputError):
        information_matrix_from_selection(spec, data, [1, 1, 2])
    with pytest.raises(InvalidInputError):
        information_matrix_from_selection(spec, data, [0, 99])


def test_grid_from_axes_row_major_order():
    g = CandidateGrid.from_axes({"a": [0.0, 1.0], "b": [10.0, 20.0, 30.0]})
    assert g.n_points == 6
    assert np.allclose(g.points[0], [0.0, 10.0])
    assert np.allclose(g.points[1], [0.0, 20.0])
    assert np.allclose(g.points[3], [1.0, 10.0])
    assert g.names == ("a", "b")
    with pytest.raises(ConfigError):
        CandidateGrid.from_axes({"a": [1.0, 1.0]})  # not strictly increasing


def test_grid_z_split():
    g = CandidateGrid.from_axes({"x": [0.0, 1.0], "z": [5.0, 6.0]}, z_dim=1)
    assert g.x_part().shape == (4, 1)
    assert g.z_part().shape == (4, 1)
    b = g.bounds()
    assert np.allclose(b[:, 0], [0.0, 5.0])
    assert np.allclose(b[:, 1], [1.0, 6.0])


def test_single_point_design_is_singular_but_valid():
    spec = line_spec()
    m = information_matrix(spec, uniform_design([[2.0]]))
    assert np.linalg.matrix_rank(m.full) == 1


def test_bias_spec_ratio():
    b = BiasSpec(psi=np.array([1.0]), phi=np.array([]), sigma=2.0, n_total=50)
    assert b.ratio == pytest.approx(25.0)
    with pytest.raises(InvalidInputError):
        BiasSpec(psi=np.array([1.0]), phi=np.array([]), sigma=0.0, n_total=50)


def test_polynomial_basis_degrees():
    fn, n = polynomial_basis(degree=3, intercept=False, dim=1)
    assert n == 3
    assert np.allclose(fn(np.array([2.0])), [2.0, 4.0, 8.0])
    fn2, n2 = polynomial_basis(degree=1, intercept=True, dim=3, scale=2.0)
    assert n2 == 4
    assert np.allclose(fn2(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 4.0, 6.0])
    with pytest.raises(ConfigError):
        polynomial_basis(degree=4)
    with pytest.raises(ConfigError):
        polynomial_basis(degree=2, dim=2)


def test_trig_basis_quadratic_argument():
    fn, n = trig_basis("cos", (2.0, 1.0, -0.5), amplitude=3.0)
    assert n == 1
    x = np.array([1.5])
    assert np.allclose(fn(x), [3.0 * np.cos(2.0 * 2.25 + 1.5 - 0.5)])


def test_model_spec_from_config_round_trip():
    cfg = {
        "f": {"family": "poly", "degree": 1, "intercept": True},
        "h": {"family": "trig", "kind": "sin", "coeffs": [1.0, 0.0, 0.0]},
        "g": {"family": "poly", "degree": 1, "intercept": False, "scale": 1.0 / 9.0},
    }
    spec = model_spec_from_config(cfg)
    assert (spec.p, spec.m, spec.q) == (2, 1, 1)
    row = eval_row(spec, np.array([2.0]), np.array([9.0]))
    assert np.allclose(row, [1.0, 2.0, np.sin(4.0), 1.0])
    with pytest.raises(ConfigError):
        model_spec_from_config({"h": {"family": "poly"}})


def test_model_matrix_stacks_rows():
    spec = full_spec()
    xs = np.array([[0.0], [1.0]])
    zs = np.array([[9.0], [18.0]])
    mat = model_matrix(spec, xs, zs)
    assert mat.shape == (2, 4)
    assert np.allclose(mat[0], [1.0, 0.0, 0.0, 1.0])
    assert np.allclose(mat[1], [1.0, 1.0, np.sin(1.0), 2.0])
