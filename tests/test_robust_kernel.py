"""The robust kernel behind run_wiens and wiens_losses, tested as properties.

The oracle for the direction scores is the earlier three-einsum form of
run_wiens's gradient, T = (1 - nu) q'R^-1 q + nu (q'Jq - xi q'Kq), and the
oracle for the kernel, which sums over the support of the weights, is the
earlier kernel that sums over every grid row; both are written out here
from scratch.  The scores' oracle takes lambda and z of the sandwich
R^-1/2 Q'D(xi^2)Q R^-1/2 - R as that triple product; the kernel's oracle
forms it as the kernel does, Y'Y - R with Y = D(xi)Q R^-1/2, but over every
grid row, so that it checks the support sums alone (the two forms differ by
rounding that grows with cond(R)).  The form R^1/2 (U - I) R^1/2 with
U = R^-1 Q'D(xi^2)Q R^-1 is the same matrix in exact arithmetic, but U's
rounding grows with cond(R)^2, so it would miss the 1e-12 tolerances on
ill-conditioned supports; the 50-digit test pins such a case.
"""

import hashlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import CountedMeasure
from subsel.criteria import RobustContext, _b2, _robust_kernel, top_eigenpair, wiens_losses
from subsel.errors import SingularMatrixError
from subsel.model_core import CandidateGrid
from subsel.rng import CounterRng
from subsel.select_robust import _direction_scores, _pairwise_columns, run_wiens


def oracle_scores(q: np.ndarray, xi: np.ndarray, nu: float) -> np.ndarray:
    r = (q * xi[:, None]).T @ q
    r_eigs, r_vecs = np.linalg.eigh((r + r.T) / 2.0)
    rinv = (r_vecs / r_eigs) @ r_vecs.T
    root = (r_vecs * np.sqrt(r_eigs)) @ r_vecs.T
    inv_root = (r_vecs / np.sqrt(r_eigs)) @ r_vecs.T
    b2 = (q * (xi * xi)[:, None]).T @ q
    lam, z = top_eigenpair(inv_root @ b2 @ inv_root - r)
    v = root @ z
    w = inv_root @ z
    j = lam * (rinv + np.outer(w, w)) + np.outer(w, v) + np.outer(v, w)
    kk = 2.0 * np.outer(w, w)
    t_var = np.einsum("gi,ij,gj->g", q, rinv, q)
    t_bias = np.einsum("gi,ij,gj->g", q, j, q) - xi * np.einsum("gi,ij,gj->g", q, kk, q)
    return (1.0 - nu) * t_var + nu * t_bias


def full_grid_kernel(q: np.ndarray, xi: np.ndarray, nu: float):
    """(R, Q'D(xi^2)Q, lambda, Dnu) with every sum over all grid rows."""
    p = q.shape[1]
    r = (q * xi[:, None]).T @ q
    r_eigs, r_vecs = np.linalg.eigh((r + r.T) / 2.0)
    if r_eigs[0] < 1e-12:
        raise SingularMatrixError("singular", smallest_eigenvalue=float(r_eigs[0]))
    inv_root = (r_vecs / np.sqrt(r_eigs)) @ r_vecs.T
    b2 = (q * (xi * xi)[:, None]).T @ q
    y = (q * xi[:, None]) @ inv_root
    lam, _ = top_eigenpair(y.T @ y - r)
    dnu = ((1.0 - nu + nu * lam) / float(np.prod(r_eigs))) ** (1.0 / p)
    return r, b2, lam, dnu


def random_grid_ctx(seed: int, n_grid: int, p: int, nu: float) -> RobustContext:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_grid, 2))
    cols = [np.ones(n_grid), pts[:, 0], pts[:, 1], pts[:, 0] * pts[:, 1], pts[:, 0] ** 2]
    return RobustContext(np.column_stack(cols[:p]), nu, grid=CandidateGrid(pts))


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
    at = np.flatnonzero(xi)
    q_s = ctx.q_matrix[at]
    try:
        parts = _robust_kernel(q_s, xi[at])
    except SingularMatrixError:
        assume(False)
    got = _direction_scores(_pairwise_columns(ctx.q_matrix), q_s, xi[at], at, nu, parts)
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
    path = CountedMeasure(ctx.n_grid, init)
    for step in traj.steps:
        yield step, path.add(step.chosen_index)


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
    hashes = [step["weights_sha256"] for step in traj.to_json_dict()["steps"]]
    xi = None
    for (step, xi), digest in zip(replay(ctx, traj, seed, n_init), hashes, strict=True):
        assert np.all(xi >= 0.0)
        assert abs(float(xi.sum()) - 1.0) <= 1e-12
        assert step.support_size == np.count_nonzero(xi)
        assert hashlib.sha256(xi.tobytes()).hexdigest() == digest
    assert np.array_equal(xi, measure.weights)
    assert wiens_losses(ctx, measure.weights)[1].value == traj.final_dnu


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 4),
    extra=st.integers(2, 40),
    nu=nus,
    data=st.data(),
)
def test_every_step_reports_wiens_losses_of_the_measure_before_it_bit_for_bit(seed, p, extra, nu, data):
    n_grid = p + extra
    n_init = data.draw(st.integers(p, n_grid), label="n_init")
    n_target = n_init + data.draw(st.integers(1, 40), label="iterations")
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    try:
        _, traj = run_wiens(ctx, n_init=n_init, n_target=n_target, seed=seed)
    except SingularMatrixError:
        assume(False)
    before = np.zeros(n_grid)
    before[traj.initial_indices] = 1.0 / n_init
    for step, after in replay(ctx, traj, seed, n_init):
        d_val = wiens_losses(ctx, before)[1]
        assert (step.dnu, step.lambda_max) == (d_val.value, d_val.meta["lambda_max"])
        before = after
    assert wiens_losses(ctx, before)[1].value == traj.final_dnu


def test_final_dnu_is_wiens_losses_of_the_measure_bit_for_bit():
    axis = np.linspace(-1.0, 1.0, 21)
    ctx = RobustContext(np.column_stack([np.ones(21), axis]), 0.5, grid=CandidateGrid(axis[:, None]))
    for seed in range(5):
        measure, traj = run_wiens(ctx, n_init=3, n_target=203, seed=seed)
        _, d_val = wiens_losses(ctx, measure.weights)
        assert d_val.value == traj.final_dnu
        assert wiens_losses(ctx, measure)[1].value == traj.final_dnu


def test_support_size_is_reported_per_step():
    axis = np.linspace(-1.0, 1.0, 21)
    ctx = RobustContext(np.column_stack([np.ones(21), axis]), 0.5, grid=CandidateGrid(axis[:, None]))
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
    ctx = RobustContext(f, 0.5, grid=CandidateGrid(axis))
    w = np.zeros(9)
    w[[0, 8]] = 0.5
    with pytest.raises(SingularMatrixError) as info:
        wiens_losses(ctx, w)
    assert info.value.smallest_eigenvalue < 1e-12


def test_non_finite_gram_matrix_is_singular():
    # a row of 1e200 overflows R to inf, whose eigenvalues come back NaN and would pass `< EIG_FLOOR`
    q = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1e200]])
    with np.errstate(over="ignore"), pytest.raises(SingularMatrixError, match="non-finite eigenvalue"):
        _robust_kernel(q, np.array([0.4, 0.4, 0.2]))


def assert_close(got, want, rel: float = 1e-12) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rel * max(float(np.max(np.abs(want))), 1e-300)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(1, 200),
    nu=nus,
    data=st.data(),
)
def test_support_kernel_matches_the_full_grid_kernel(seed, p, extra, nu, data):
    n_grid = p + extra
    support = data.draw(st.integers(p, min(n_grid, 2 * p + 3)), label="support")
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    xi = simplex_weights(seed + 1, n_grid, support)
    at = np.flatnonzero(xi)
    try:
        r, b2, lam, dnu = full_grid_kernel(ctx.q_matrix, xi, nu)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            _robust_kernel(ctx.q_matrix[at], xi[at])
        return
    parts = _robust_kernel(ctx.q_matrix[at], xi[at])
    assert_close(parts.gram.r, r)
    assert_close(_b2(ctx.q_matrix[at], xi[at]), b2)
    assert_close(parts.lam, lam)
    assert_close(parts.dnu(nu), dnu)


def exact_kernel(q: np.ndarray, xi: np.ndarray, nu: float) -> tuple[float, float, float]:
    """(lambda, Dnu, cond(R)) in 50-digit arithmetic from the float rows and weights."""
    mp = pytest.importorskip("mpmath")
    p = q.shape[1]
    with mp.workdps(50):
        r, b2 = mp.zeros(p), mp.zeros(p)
        for row, w in zip(q.tolist(), xi.tolist()):
            v = mp.matrix(row)
            r += w * (v * v.T)
            b2 += mp.mpf(w) ** 2 * (v * v.T)
        r_eigs, r_vecs = mp.eigsy(r)
        inv_root = r_vecs * mp.diag([1 / mp.sqrt(e) for e in r_eigs]) * r_vecs.T
        lam = max(mp.eigsy(inv_root * b2 * inv_root - r, eigvals_only=True))
        dnu = ((1 - mp.mpf(nu) + nu * lam) / mp.det(r)) ** (mp.mpf(1) / p)
        return float(lam), float(dnu), float(max(r_eigs) / min(r_eigs))


# (seed, p, extra, support) draws of random_grid_ctx and simplex_weights with cond(R) of 1e6 and 4e7,
# where the form R^1/2 (U - I) R^1/2 is off the 50-digit lambda by 1.1 and 3.1 times the bound
@pytest.mark.parametrize("seed, p, extra, support", [(1, 3, 8, 3), (15, 3, 8, 3)])
def test_kernel_lambda_and_dnu_within_p2_cond_eps_of_50_digits(seed, p, extra, support):
    nu = 0.5
    ctx = random_grid_ctx(seed, p + extra, p, nu)
    xi = simplex_weights(seed + 1, p + extra, support)
    at = np.flatnonzero(xi)
    parts = _robust_kernel(ctx.q_matrix[at], xi[at])
    lam, dnu, cond = exact_kernel(ctx.q_matrix[at], xi[at], nu)
    assert cond > 1e6
    bound = p * p * cond * np.finfo(float).eps
    assert abs(parts.lam - lam) <= bound * abs(lam)
    assert abs(parts.dnu(nu) - dnu) <= bound * dnu


def oracle_path(ctx: RobustContext, n_init: int, n_target: int, seed: int):
    """run_wiens's steps from the full-grid oracle scores: per step the chosen
    index, the support size, the weights after the step, and whether the top
    two scores are further apart than the scores' tolerance."""
    q = ctx.q_matrix
    path = CountedMeasure(ctx.n_grid, np.sort(CounterRng(seed).sample_indices(ctx.n_grid, n_init)))
    for _ in range(n_target - n_init):
        scores = oracle_scores(q, path.weights, ctx.nu)
        top_two = np.sort(scores)[-2:]
        decisive = top_two[1] - top_two[0] > 1e-12 * float(np.max(np.abs(scores)))
        best = int(np.argmax(scores))
        xi = path.add(best)
        yield best, int(np.count_nonzero(xi)), xi, decisive


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 4),
    extra=st.integers(2, 80),
    nu=nus,
    data=st.data(),
)
def test_run_wiens_follows_the_full_grid_oracle(seed, p, extra, nu, data):
    n_grid = p + extra
    n_init = data.draw(st.integers(p, min(n_grid, 2 * p)), label="n_init")
    n_target = n_init + data.draw(st.integers(1, 80), label="iterations")
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    try:
        measure, traj = run_wiens(ctx, n_init=n_init, n_target=n_target, seed=seed)
    except SingularMatrixError:
        assume(False)
    hashes = [step["weights_sha256"] for step in traj.to_json_dict()["steps"]]
    xi = None
    path = zip(traj.steps, hashes, oracle_path(ctx, n_init, n_target, seed), strict=True)
    for step, digest, (best, size, xi, decisive) in path:
        if not decisive:
            return  # a near-tie: either choice is right, and the paths may part here
        assert step.chosen_index == best
        assert step.support_size == size
        assert hashlib.sha256(xi.tobytes()).hexdigest() == digest
    assert np.array_equal(measure.weights, xi)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(10, 300),
    nu=nus,
    data=st.data(),
)
def test_equal_grid_rows_score_exactly_equal(seed, p, extra, nu, data):
    # ties go to the lowest index only if equal rows get equal scores, also
    # rows in the last, partial block of a BLAS kernel
    n_grid = p + extra
    ctx = random_grid_ctx(seed, n_grid, p, nu)
    xi = np.zeros(n_grid)
    xi[: 2 * p] = 1.0 / (2 * p)
    copies = data.draw(st.lists(st.integers(2 * p, n_grid - 2), max_size=6), label="copies")
    q = ctx.q_matrix.copy()
    q[copies + [n_grid - 1]] = q[-2]
    at = np.flatnonzero(xi)
    try:
        parts = _robust_kernel(q[at], xi[at])
    except SingularMatrixError:
        assume(False)
    scores = _direction_scores(_pairwise_columns(q), q[at], xi[at], at, nu, parts)
    assert np.all(scores[copies + [n_grid - 1]] == scores[-2])


def tie_loop_top_eigenpair(sym: np.ndarray, tie_tol: float = 1e-10):
    """The earlier top_eigenpair: every tied column keyed by its rounded |v|, then a loop over
    the components for the sign."""
    eigvals, eigvecs = np.linalg.eigh((sym + sym.T) / 2.0)
    lam = float(eigvals[-1])
    thresh = tie_tol * max(1.0, abs(lam))
    tied = [i for i in range(eigvals.size) if abs(eigvals[i] - lam) <= thresh]
    best = None
    for i in tied:
        key = tuple(np.round(np.abs(eigvecs[:, i]), 12))
        if best is None or key > best[0]:
            best = (key, i)
    vec = eigvecs[:, best[1]].copy()
    for comp in vec:
        if abs(comp) > 1e-12:
            if comp < 0:
                vec = -vec
            break
    return lam, vec


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices, many with a top eigenvalue tied exactly or within the tie tolerance,
    some with leading zero components in their eigenvectors."""
    p = draw(st.integers(1, 6), label="p")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "tied", "diagonal", "blocks"]), label="kind")
    if kind == "random":
        a = rng.normal(size=(p, p))
        return a + a.T
    top = draw(st.sampled_from([1.0, -0.5, 0.0, 1e-13, 3e5]), label="top")
    ties = draw(st.integers(1, p), label="ties")
    vals = np.concatenate([np.full(ties, top), top - rng.uniform(0.1, 2.0, p - ties)])
    vals[:ties] += draw(st.sampled_from([0.0, 1e-14, 1e-11]), label="jitter") * np.arange(ties)
    if kind == "diagonal":
        return np.diag(rng.permutation(vals))
    basis = np.linalg.qr(rng.normal(size=(p, p)))[0]
    if kind == "blocks":  # the leading coordinates fall outside the top eigenspace
        basis[:, :ties] = np.eye(p)[:, p - ties:] * rng.choice([-1.0, 1.0], ties)
        basis[:, ties:] = np.eye(p)[:, : p - ties]
    return (basis * vals) @ basis.T


@given(sym=symmetric_matrices())
def test_top_eigenpair_is_bit_identical_to_the_tie_loop(sym):
    lam, vec = top_eigenpair(sym)
    want_lam, want_vec = tie_loop_top_eigenpair(sym)
    assert np.float64(lam).tobytes() == np.float64(want_lam).tobytes()
    assert vec.tobytes() == want_vec.tobytes()

