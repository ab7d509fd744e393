"""Design criteria, optimality checks, robust losses, bias-aware losses."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from subsel.criteria import (
    RobustContext,
    a_criterion,
    d_criterion,
    design_weights_on_grid,
    det_r_bias,
    det_r_conf,
    get_check,
    i_criterion,
    top_eigenpair,
    trace_r,
    variance_profile,
    wiens_losses,
)
from subsel.errors import ConfigError, InvalidInputError, SingularMatrixError
from subsel.model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    InformationMatrix,
    ModelSpec,
    information_matrix,
    json_ready,
    model_matrix,
    polynomial_basis,
    uniform_design,
)
from subsel.rng import CounterRng


def line_spec() -> ModelSpec:
    f, p = polynomial_basis(degree=1)
    return ModelSpec(f_basis=f, p=p)


def contaminated_spec() -> ModelSpec:
    f, p = polynomial_basis(degree=1)
    return ModelSpec(f_basis=f, p=p, h_basis=lambda x: x[:, :1] ** 2, m=1)


def random_partitioned_spec(rng: CounterRng):
    """Random (p, m, q) model with monomial bases, all dims <= 3."""
    p = 1 + rng.randbelow(3)
    m = rng.randbelow(3)
    q = 1 + rng.randbelow(2)

    def monomials(k, start):
        return lambda v: v[:, :1] ** np.arange(start, start + k)

    return (
        ModelSpec(
            f_basis=monomials(p, 0),
            p=p,
            h_basis=monomials(m, p) if m else None,
            m=m,
            g_basis=lambda z: z[:, :1] ** np.arange(1, q + 1),
            q=q,
        ),
        p,
        m,
        q,
    )


def random_design(rng: CounterRng, spec: ModelSpec, n_pts: int = 6) -> DesignMeasure:
    x = 0.2 + rng.uniform(n_pts)  # bounded away from 0 keeps monomials well conditioned
    w = 0.1 + rng.uniform(n_pts)
    z = 0.3 + rng.uniform(n_pts) if spec.q else None
    return DesignMeasure(points=x[:, None], weights=w / w.sum(),
                         z_points=None if z is None else z[:, None])


# ---------------------------------------------------------------------------
# classical criteria


def variance_function(spec: ModelSpec, design: DesignMeasure, x, z=None) -> float:
    """d((x, z), xi) = row' M(xi)^-1 row over the full (f, h, g) row, one point at a time: the
    scalar oracle of variance_profile."""
    row = model_matrix(spec, [x], None if z is None else [z])[0]
    return float(row @ np.linalg.solve(information_matrix(spec, design).full, row))


def test_variance_function_uniform_endpoints():
    design = uniform_design([[-1.0], [1.0]])
    spec = line_spec()
    assert variance_function(spec, design, [0.5]) == pytest.approx(1.25)
    assert variance_function(spec, design, [1.0]) == pytest.approx(2.0)


def test_d_a_i_values_on_identity_information():
    spec = line_spec()
    design = uniform_design([[-1.0], [1.0]])
    m = information_matrix(spec, design)
    assert d_criterion(m).value == pytest.approx(0.0)  # log det I
    assert d_criterion(m).meta["det"] == pytest.approx(1.0)
    assert json_ready(d_criterion(m))["meta"]["singular"] is False  # a JSON boolean, not 0
    assert a_criterion(m).value == pytest.approx(2.0)
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 21)})
    # sum over the grid of 1 + x^2: 21 + 2 * (0.1^2 + ... + 1.0^2) = 28.7
    assert i_criterion(spec, design, grid).value == pytest.approx(28.7)


def test_d_criterion_det_beyond_float_range_is_null():
    m = InformationMatrix(full=np.eye(4) * 1e200, p=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(log det) overflowing must not warn
        val = d_criterion(m)
    assert val.value == pytest.approx(4 * 200 * np.log(10.0))
    assert val.meta == {"det": None, "singular": False}
    json.dumps(json_ready(val), allow_nan=False)  # strict JSON: no Infinity


def test_d_criterion_singular_is_minus_inf():
    spec = line_spec()
    design = DesignMeasure(points=[[0.5]], weights=[1.0])
    val = d_criterion(information_matrix(spec, design))
    assert val.value == float("-inf")
    assert val.meta["singular"]
    assert json_ready(val)["meta"]["singular"] is True
    with pytest.raises(SingularMatrixError):
        a_criterion(information_matrix(spec, design))


def test_json_ready_writes_every_non_finite_float_as_null():
    obj = {"a": float("nan"), "b": np.array([1.0, np.inf, -np.inf]), "c": np.float64("nan"),
           "d": [2.5, (np.array([[np.nan]]),)], "e": np.array([1, 2]), "f": True}
    assert json_ready(obj) == {"a": None, "b": [1.0, None, None], "c": None, "d": [2.5, [[[None]]]],
                               "e": [1, 2], "f": True}


def test_support_average_of_variance_equals_rank():
    # sum_i w_i d(x_i) = k for any nonsingular measure
    rng = CounterRng(3)
    spec, p, m, q = random_partitioned_spec(rng)
    design = random_design(rng, spec)
    total = sum(
        float(design.weights[i])
        * variance_function(spec, design, design.x_points[i],
                            None if design.z_points is None else design.z_points[i])
        for i in range(design.weights.size)
    )
    assert total == pytest.approx(p + m + q, rel=1e-9)


# ---------------------------------------------------------------------------
# equivalence-theorem verdicts


def test_get_check_optimal_endpoints():
    spec = line_spec()
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 201)})
    verdict = get_check(spec, uniform_design([[-1.0], [1.0]]), grid)
    assert verdict.is_optimal
    assert verdict.max_variance == pytest.approx(2.0, abs=1e-9)
    assert verdict.bound == 2.0
    assert abs(verdict.worst_point[0]) == pytest.approx(1.0)


def test_get_check_rejects_interior_support():
    spec = line_spec()
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 201)})
    verdict = get_check(spec, uniform_design([[-0.5], [0.5]]), grid)
    assert not verdict.is_optimal
    # d(x) = 1 + x^2 / 0.25 peaks at 5 on the boundary
    assert verdict.max_variance == pytest.approx(5.0, abs=1e-9)
    assert abs(verdict.worst_point[0]) == pytest.approx(1.0)


def test_get_check_agrees_with_exhaustive_two_point_search():
    # oracle: among all equal-weight grid-point pairs, the endpoint pair is
    # the unique det maximizer, so only it passes the check
    spec = line_spec()
    axis = np.linspace(-1, 1, 11)
    grid = CandidateGrid.from_axes({"x": axis})
    best, best_det = None, -1.0
    for i in range(axis.size):
        for j in range(i + 1, axis.size):
            det = float(np.linalg.det(
                information_matrix(spec, uniform_design([[axis[i]], [axis[j]]])).full))
            if det > best_det:
                best, best_det = (i, j), det
    assert best == (0, axis.size - 1)
    for i in range(axis.size):
        for j in range(i + 1, axis.size):
            verdict = get_check(spec, uniform_design([[axis[i]], [axis[j]]]), grid)
            assert verdict.is_optimal == ((i, j) == best)


def test_get_check_validates_inputs():
    spec = line_spec()
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 5)})
    design = uniform_design([[-1.0], [1.0]])
    with pytest.raises(InvalidInputError):
        get_check(spec, design, grid, tol=0.0)
    with pytest.raises(InvalidInputError):
        get_check(spec, design, grid, k_eff=0)


# ---------------------------------------------------------------------------
# robust losses


def small_ctx(nu: float, n_grid: int = 7) -> RobustContext:
    axis = np.linspace(-1, 1, n_grid)
    f = np.column_stack([np.ones(n_grid), axis])
    return RobustContext(f, nu, grid=CandidateGrid(axis[:, None]))


def oracle_losses(ctx: RobustContext, w: np.ndarray) -> tuple[float, float]:
    """Direct dense-matrix evaluation of both robust losses."""
    q = ctx.q_matrix
    p = ctx.p
    r = q.T @ np.diag(w) @ q
    rinv = np.linalg.inv(r)
    u = rinv @ q.T @ np.diag(w**2) @ q @ rinv
    i_val = (1 - ctx.nu) * np.trace(rinv) + ctx.nu * np.linalg.eigvalsh(u)[-1]
    root = scipy.linalg.sqrtm(r).real
    lam = np.linalg.eigvalsh(root @ (u - np.eye(p)) @ root)[-1]
    d_val = ((1 - ctx.nu + ctx.nu * lam) / np.linalg.det(r)) ** (1.0 / p)
    return float(i_val), float(d_val)


def test_wiens_losses_match_direct_formula():
    rng = CounterRng(11)
    for nu in (0.0, 0.25, 0.5, 1.0):
        ctx = small_ctx(nu)
        for _ in range(5):
            w = 0.05 + rng.uniform(ctx.n_grid)
            w = w / w.sum()
            i_val, d_val = wiens_losses(ctx, w)
            oi, od = oracle_losses(ctx, w)
            assert i_val.value == pytest.approx(oi, rel=1e-10)
            assert d_val.value == pytest.approx(od, rel=1e-10)
            assert i_val.name == "Inu" and d_val.name == "Dnu"
            vec = i_val.meta["eigenvector"]
            assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_wiens_nu_zero_reduces_to_classical():
    spec = line_spec()
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 21)})
    ctx = RobustContext.from_grid(spec, grid, nu=0.0)
    design = uniform_design([[-1.0], [1.0]])
    i_val, d_val = wiens_losses(ctx, design)
    assert i_val.value == pytest.approx(i_criterion(spec, design, grid).value, rel=1e-12)
    f = model_matrix(spec, grid.x_part())
    m = information_matrix(spec, design)
    expect_d = (np.linalg.det(f.T @ f) / np.linalg.det(m.full)) ** 0.5
    assert d_val.value == pytest.approx(expect_d, rel=1e-12)


def test_wiens_meta_eigenvector_solves_eigenproblem():
    ctx = small_ctx(0.5)
    w = np.full(ctx.n_grid, 1.0 / ctx.n_grid)
    i_val, _ = wiens_losses(ctx, w)
    q = ctx.q_matrix
    r = q.T @ np.diag(w) @ q
    rinv = np.linalg.inv(r)
    u = rinv @ q.T @ np.diag(w**2) @ q @ rinv
    vec = i_val.meta["eigenvector"]
    lam = i_val.meta["lambda_max"]
    assert np.allclose(u @ vec, lam * vec, atol=1e-10)


def test_robust_context_validation():
    with pytest.raises(InvalidInputError):
        small_ctx(1.5)
    with pytest.raises(InvalidInputError):
        RobustContext(np.ones((2, 3)), nu=0.5, grid=CandidateGrid(np.arange(2.0)))
    with pytest.raises(InvalidInputError, match="2-D array"):
        RobustContext(np.ones(5), nu=0.5, grid=CandidateGrid(np.arange(5.0)))
    # a basis of rank below p: (1, x, 2x), and the full rows of f = h = (1, x)
    axis = np.arange(5.0)
    with pytest.raises(InvalidInputError, match="rank 2"):
        RobustContext(np.column_stack([np.ones(5), axis, 2.0 * axis]), nu=0.5, grid=CandidateGrid(axis))
    f, p = polynomial_basis(degree=1)
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 11)})
    with pytest.raises(InvalidInputError, match="rank 2"):
        RobustContext.from_grid(ModelSpec(f_basis=f, p=p, h_basis=f, m=p), grid, 0.5, full_rows=True)


def test_robust_context_takes_a_checked_grid_of_one_point_per_row():
    axis = np.linspace(-1.0, 1.0, 7)
    f = np.column_stack([np.ones(7), axis])
    with_nan = axis.copy()
    with_nan[3] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        RobustContext(f, 0.5, grid=CandidateGrid(with_nan))
    with pytest.raises(InvalidInputError, match="one point per row"):
        RobustContext(f, 0.5, grid=CandidateGrid(axis[:6]))
    grid = CandidateGrid(np.column_stack([axis, axis[::-1]]), z_dim=1)
    assert RobustContext(f, 0.5, grid=grid).grid is grid


def test_robust_weight_validation():
    ctx = small_ctx(0.5)
    with pytest.raises(InvalidInputError):
        wiens_losses(ctx, np.full(3, 1 / 3))
    bad = np.full(ctx.n_grid, 1.0 / ctx.n_grid)
    bad[0] = -bad[0]
    with pytest.raises(InvalidInputError):
        wiens_losses(ctx, bad)
    with pytest.raises(InvalidInputError):
        wiens_losses(ctx, np.full(ctx.n_grid, 0.5))  # sums to 3.5


def test_robust_weights_reject_nan():
    # NaN passes both `w < 0` and the sum test; it must not reach the kernel
    ctx = small_ctx(0.5)
    w = np.full(ctx.n_grid, 1.0 / ctx.n_grid)
    w[1] = np.nan
    with pytest.raises(InvalidInputError):
        wiens_losses(ctx, w)


def test_design_weights_on_grid_roundtrip():
    ctx = small_ctx(0.5)
    design = DesignMeasure(points=[[-1.0], [1.0]], weights=[0.25, 0.75])
    w = design_weights_on_grid(ctx, design)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.25)
    assert w[-1] == pytest.approx(0.75)
    off_grid = DesignMeasure(points=[[0.123]], weights=[1.0])
    with pytest.raises(ConfigError):
        design_weights_on_grid(ctx, off_grid)


def test_top_eigenpair_deterministic_under_ties():
    lam, vec = top_eigenpair(np.eye(3))
    assert lam == pytest.approx(1.0)
    lam2, vec2 = top_eigenpair(np.eye(3))
    assert np.array_equal(vec, vec2)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    # first significant component is normalized positive
    nz = vec[np.abs(vec) > 1e-12]
    assert nz[0] > 0


# ---------------------------------------------------------------------------
# bias-aware criteria


def random_bias(rng: CounterRng, spec: ModelSpec) -> BiasSpec:
    return BiasSpec(
        psi=rng.normal(spec.m) if spec.m else np.zeros(0),
        phi=rng.normal(spec.q) if spec.q else np.zeros(0),
        sigma=0.5 + rng.uniform(1)[0],
        n_total=10 + rng.randbelow(90),
    )


def test_trace_r_matches_dense_mse_matrix():
    # oracle: tr(M11^-1 + ratio^2 b b') with b = M11^-1 (M12 psi + M13 phi)
    rng = CounterRng(7)
    for _ in range(100):
        spec, p, m, q = random_partitioned_spec(rng)
        design = random_design(rng, spec)
        bias = random_bias(rng, spec)
        mat = information_matrix(spec, design)
        m11_inv = np.linalg.inv(mat.m11)
        drift = mat.m12 @ bias.psi if m else np.zeros(p)
        drift = drift + (mat.m13 @ bias.phi if q else np.zeros(p))
        b = m11_inv @ drift
        dense = m11_inv + bias.ratio**2 * np.outer(b, b)
        got = trace_r(mat, bias)
        assert got.value == pytest.approx(float(np.trace(dense)), rel=1e-10)


def test_trace_r_variant_differs_by_cross_term():
    rng = CounterRng(13)
    for _ in range(20):
        spec, p, m, q = random_partitioned_spec(rng)
        design = random_design(rng, spec)
        bias = random_bias(rng, spec)
        mat = information_matrix(spec, design)
        full = trace_r(mat, bias)
        variant = trace_r(mat, bias, cross_term_coefficient=1.0)
        gap = bias.ratio**2 * full.meta["tr_S4"]
        assert full.value - variant.value == pytest.approx(gap, rel=1e-9, abs=1e-12)
    with pytest.raises(InvalidInputError):
        trace_r(mat, bias, cross_term_coefficient=0.5)


def test_det_r_bias_matches_determinant_lemma():
    # det(M11^-1 + ratio^2 bb') with b = M11^-1 M12 psi equals the
    # closed form det(M11^-1) (1 + ratio^2 psi' M21 M11^-1 M12 psi)
    rng = CounterRng(19)
    for _ in range(50):
        spec, p, m, q = random_partitioned_spec(rng)
        if m == 0:
            continue
        design = random_design(rng, spec)
        bias = random_bias(rng, spec)
        mat = information_matrix(spec, design)
        m11_inv = np.linalg.inv(mat.m11)
        b = m11_inv @ (mat.m12 @ bias.psi)
        dense = float(np.linalg.det(m11_inv + bias.ratio**2 * np.outer(b, b)))
        assert det_r_bias(mat, bias).value == pytest.approx(dense, rel=1e-9)


def test_det_r_conf_uses_confounder_block():
    rng = CounterRng(23)
    spec, p, m, q = random_partitioned_spec(rng)
    design = random_design(rng, spec)
    bias = random_bias(rng, spec)
    mat = information_matrix(spec, design)
    m11_inv = np.linalg.inv(mat.m11)
    v = mat.m13 @ bias.phi
    expect = float(np.linalg.det(m11_inv)) * (1.0 + bias.ratio**2 * float(v @ m11_inv @ v))
    assert det_r_conf(mat, bias).value == pytest.approx(expect, rel=1e-10)


def test_bias_mismatched_dimensions_raise():
    spec = contaminated_spec()
    design = uniform_design([[-1.0], [1.0]])
    mat = information_matrix(spec, design)
    with pytest.raises(InvalidInputError):
        trace_r(mat, BiasSpec(psi=[1.0, 2.0], phi=[], sigma=1.0, n_total=10))


def confounded_spec() -> ModelSpec:
    f, p = polynomial_basis(degree=1)
    return ModelSpec(f_basis=f, p=p, g_basis=lambda z: z[:, :1], q=1)


def test_variance_profile_vectorization_matches_scalar():
    spec = confounded_spec()
    design = DesignMeasure(points=[[-1.0], [0.5], [1.0]], weights=[0.4, 0.2, 0.4],
                           z_points=[[1.0], [-1.0], [0.5]])
    grid = CandidateGrid.from_axes({"x": np.linspace(-1, 1, 5), "z": np.array([-1.0, 1.0])}, z_dim=1)
    prof = variance_profile(spec, design, grid)
    for i in range(grid.n_points):
        d = variance_function(spec, design, grid.x_part()[i], grid.z_part()[i])
        assert prof[i] == pytest.approx(d, rel=1e-12)
