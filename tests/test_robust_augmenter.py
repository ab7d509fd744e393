"""The sequential Dnu/Inu candidate scores, tested against a per-candidate oracle.

The oracle is the earlier form of `_RobustAugmenter.candidate_values`: every
augmented R_g and B_g is built in full, decomposed with its own eigh, and a
candidate whose smallest eigenvalue is at most 1e-14 scores inf.

Both forms lose about cond(A) * eps of relative accuracy on a near-singular
current measure A = Q'D(xi)Q (checked against 50-digit arithmetic: on the
worst of 3000 random cases, cond(A) = 2.2e6, each was off by 4-9e-11), so
the rank-one form is taken to lie within rel = 1e-12 of the exact score
where cond(A) <= 1e3 and within rel = 1e-15 cond(A) beyond, relative to the
size of the terms the score is summed from.  An Inu score sums non-negative
terms, so its size is its value.  The p-th power of a Dnu score,
(1 - nu + nu lambda_max(H)) / det R with H = R^-1/2 B R^-1/2 - R, can
cancel to an exact zero; its size is
(|1 - nu| + nu (|R^-1/2 B R^-1/2|_2 + |R|_2)) / det R.

The oracle is a rounded computation too.  Its Inu scores form every
R_g^-1 B_g R_g^-1 in full from B1 = Q'D(xi^2)Q, whose rounding a relative
perturbation bound amplifies by up to cond(B1); at nu = 1 with exactly p
support points cond(B1) reaches 1e9 where cond(A) is 1e5.  Against
50-digit arithmetic over 1000 random draws (half at nu = 1, half with
exactly p support points) the oracle's Inu scores were off by up to 115
times rel and within 0.23 of 1e-15 (cond(A) + nu cond(B1)), so the oracle
carries an error term of its own, 1e-15 nu cond(B1) beyond rel, and the
Inu comparison allows the sum of the two.  Its Dnu scores keep rel.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.criteria import RobustContext
from subsel.ingest_sim import simulate_example2
from subsel.model_core import CandidateGrid, model_spec_from_config
from subsel.select_sequential import SeqConfig, _RobustAugmenter, run_sequential


def oracle_values(q: np.ndarray, xi: np.ndarray, n: int, nu: float, kind: str) -> np.ndarray:
    p = q.shape[1]
    outer = np.einsum("gi,gj->gij", q, q)
    a1 = (q * xi[:, None]).T @ q
    b1 = (q * (xi * xi)[:, None]).T @ q
    denom = n + 1.0
    r_all = (n * a1[None, :, :] + outer) / denom
    b_all = (n * n * b1[None, :, :] + (2.0 * n * xi + 1.0)[:, None, None] * outer) / (denom * denom)
    eigvals, eigvecs = np.linalg.eigh(r_all)
    bad = eigvals[:, 0] <= 1e-14
    safe = np.where(bad[:, None], 1.0, eigvals)
    if kind == "Inu":
        rinv = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / safe, eigvecs)
        u = np.einsum("gij,gjk,gkl->gil", rinv, b_all, rinv)
        lam = np.linalg.eigvalsh(u)[:, -1]
        vals = (1.0 - nu) * np.trace(rinv, axis1=1, axis2=2) + nu * lam
    else:
        inv_root = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / np.sqrt(safe), eigvecs)
        h = np.einsum("gij,gjk,gkl->gil", inv_root, b_all, inv_root) - r_all
        lam = np.linalg.eigvalsh(h)[:, -1]
        base = (1.0 - nu + nu * lam) / np.prod(safe, axis=1)
        return np.power(base, 1.0 / p, out=np.full_like(base, np.inf), where=~bad)
    return np.where(bad, np.inf, vals)


def dnu_power_size(q: np.ndarray, xi: np.ndarray, n: int, nu: float) -> np.ndarray:
    """The size of the terms of each Dnu score's p-th power (module docstring), built as in the oracle."""
    outer = np.einsum("gi,gj->gij", q, q)
    denom = n + 1.0
    r_all = (n * ((q * xi[:, None]).T @ q)[None, :, :] + outer) / denom
    b_all = (n * n * ((q * (xi * xi)[:, None]).T @ q)[None, :, :]
             + (2.0 * n * xi + 1.0)[:, None, None] * outer) / (denom * denom)
    eigvals, eigvecs = np.linalg.eigh(r_all)
    inv_root = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / np.sqrt(eigvals), eigvecs)
    sandwich = np.einsum("gij,gjk,gkl->gil", inv_root, b_all, inv_root)
    norms = np.linalg.eigvalsh(sandwich)[:, -1] + eigvals[:, -1]  # both matrices are PSD
    return (abs(1.0 - nu) + nu * norms) / np.prod(eigvals, axis=1)


def robust_augmenter(rows: np.ndarray, nu: float, kind: str) -> _RobustAugmenter:
    return _RobustAugmenter(RobustContext(rows, nu, CandidateGrid(rows)), kind)


def random_rows(seed: int, n_grid: int, p: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n_grid, p))


def simplex_weights(seed: int, n_grid: int, support: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xi = np.zeros(n_grid)
    at = rng.choice(n_grid, size=support, replace=False)
    xi[at] = rng.exponential(size=support)
    return xi / xi.sum()


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(1, 60),
    n=st.integers(1, 200),
    nu=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(["Dnu", "Inu"]),
    data=st.data(),
)
def test_rank_one_scores_match_per_candidate_oracle(seed, p, extra, n, nu, kind, data):
    n_grid = p + extra
    support = data.draw(st.integers(p, n_grid), label="support")
    check_rank_one_scores(seed, p, n_grid, n, nu, kind, support)


def test_rank_one_dnu_score_at_an_exact_zero():
    # p = 1, xi on grid point 0, n = 1: adding point 1 gives R = 1/2 and
    # R^-1/2 B R^-1/2 - R = (1/4)/(1/2) - 1/2 = 0, so at nu = 1 the score is
    # 0 in exact arithmetic; both forms return a rounding-level value
    # (5.6e-16 and 4.4e-16), which a comparison relative to the value fails
    want = check_rank_one_scores(seed=0, p=1, n_grid=2, n=1, nu=1.0, kind="Dnu", support=1)
    assert 0.0 <= want[1] < 1e-15


def check_rank_one_scores(seed, p, n_grid, n, nu, kind, support) -> np.ndarray:
    """Assert the rank-one scores equal the oracle's within rel (module docstring); return the oracle's."""
    aug = robust_augmenter(random_rows(seed, n_grid, p), nu, kind)
    xi = simplex_weights(seed + 1, n_grid, support)
    got = aug.candidate_values(xi, n)
    want = oracle_values(aug.q, xi, n, nu, kind)
    assert np.all(np.isfinite(want))
    rel = score_rel(aug.q, xi)
    if kind == "Dnu":  # compared as p-th powers, which have no power's infinite slope at 0
        got_v, want_v, size = got**p, want**p, dnu_power_size(aug.q, xi, n, nu)
    else:
        got_v, want_v, size = got, want, np.abs(want)
    assert np.all(np.abs(got_v - want_v) <= (rel + oracle_extra_rel(aug.q, xi, nu, kind)) * size)
    low, runner_up = np.argsort(want_v, kind="stable")[:2]
    if want_v[runner_up] - want_v[low] > rel * (size[low] + size[runner_up]):
        assert int(np.argmin(got)) == int(np.argmin(want))
    return want


def score_rel(q: np.ndarray, xi: np.ndarray) -> float:
    """The relative error term of the rank-one form's scores (module docstring)."""
    return max(1e-12, 1e-15 * np.linalg.cond((q * xi[:, None]).T @ q))


def oracle_extra_rel(q: np.ndarray, xi: np.ndarray, nu: float, kind: str) -> float:
    """The oracle's own error term beyond score_rel (module docstring)."""
    if kind == "Dnu":
        return 0.0
    return 1e-15 * nu * np.linalg.cond((q * (xi * xi)[:, None]).T @ q)


def exact_inu_scores(q: np.ndarray, xi: np.ndarray, n: int, nu: float) -> np.ndarray:
    """Every candidate's Inu score in 50-digit arithmetic from the float inputs, rounded to floats."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        rows = [mp.matrix([mp.mpf(float(v)) for v in row]) for row in q]
        a1 = mp.zeros(q.shape[1])
        b1 = mp.zeros(q.shape[1])
        for row, w in zip(rows, xi.tolist()):
            a1 += mp.mpf(w) * (row * row.T)
            b1 += mp.mpf(w) ** 2 * (row * row.T)
        scores = []
        for row, w in zip(rows, xi.tolist()):
            outer = row * row.T
            r_inv = mp.inverse((n * a1 + outer) / (n + 1))
            b_g = (n * n * b1 + (2 * n * mp.mpf(w) + 1) * outer) / (n + 1) ** 2
            lam = max(mp.eigsy(r_inv * b_g * r_inv, eigvals_only=True))
            scores.append((1 - mp.mpf(nu)) * sum(r_inv[i, i] for i in range(q.shape[1])) + mp.mpf(nu) * lam)
        return np.array([float(v) for v in scores])


# Draws at nu = 1 with exactly p support points whose oracle Inu scores are
# off the 50-digit ones by 3.5, 2.3, 4.2 and 115 times rel, which the
# comparison failed before the oracle had an error term of its own.
PINNED_INU_DRAWS = [(66316748, 4, 40, 11), (2621836399, 5, 41, 92), (3622119533, 3, 8, 184),
                    (3920970167, 2, 30, 119)]  # the last: cond(B1) = 1.6e9 against cond(A) = 1.2e5

# `_RobustAugmenter` scores Inu through W = A^-1/2, which loses more than
# rel when cond(B1) far exceeds cond(A): these two draws are off the 50-digit
# scores by 1.2 and 637 times rel (a FOUND line in CHANGES.md).
RANK_ONE_INU_BEYOND_REL = pytest.mark.xfail(
    strict=True, reason="rank-one Inu scores through W = A^-1/2 lose accuracy when cond(B1) >> cond(A)")


def pinned_inu_draw(seed: int, p: int, n_grid: int) -> tuple[_RobustAugmenter, np.ndarray]:
    return robust_augmenter(random_rows(seed, n_grid, p), 1.0, "Inu"), simplex_weights(seed + 1, n_grid, p)


@pytest.mark.parametrize("seed, p, n_grid, n", PINNED_INU_DRAWS)
def test_oracle_inu_scores_within_their_error_term_of_50_digits(seed, p, n_grid, n):
    aug, xi = pinned_inu_draw(seed, p, n_grid)
    exact = exact_inu_scores(aug.q, xi, n, 1.0)
    allowed = (score_rel(aug.q, xi) + oracle_extra_rel(aug.q, xi, 1.0, "Inu")) * exact
    assert np.all(np.abs(oracle_values(aug.q, xi, n, 1.0, "Inu") - exact) <= allowed)
    check_rank_one_scores(seed, p, n_grid, n, nu=1.0, kind="Inu", support=p)


@pytest.mark.parametrize("seed, p, n_grid, n", [
    draw if draw[0] not in (2621836399, 3920970167) else pytest.param(*draw, marks=RANK_ONE_INU_BEYOND_REL)
    for draw in PINNED_INU_DRAWS
])
def test_rank_one_inu_scores_within_rel_of_50_digits(seed, p, n_grid, n):
    aug, xi = pinned_inu_draw(seed, p, n_grid)
    exact = exact_inu_scores(aug.q, xi, n, 1.0)
    assert np.all(np.abs(aug.candidate_values(xi, n) - exact) <= score_rel(aug.q, xi) * exact)


@pytest.mark.parametrize("kind", ["Dnu", "Inu"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_singular_base_scores_equal_the_oracle(kind, p):
    # xi on p - 1 grid points: the current measure is singular, so the
    # rank-one form cannot run; adding a support point again leaves R_g
    # singular (inf), adding any other point makes it regular (finite)
    n_grid = 4 * p
    aug = robust_augmenter(random_rows(p, n_grid, p), 0.5, kind)
    support = np.arange(p - 1) * 3
    xi = np.zeros(n_grid)
    xi[support] = np.arange(1.0, p) / np.arange(1.0, p).sum()
    n = 7
    got = aug.candidate_values(xi, n)
    want = oracle_values(aug.q, xi, n, 0.5, kind)
    inf = np.isinf(want)
    assert np.array_equal(np.flatnonzero(inf), support)
    assert np.array_equal(np.isinf(got), inf)
    assert np.array_equal(got[~inf], want[~inf])


def _assert_best_is_argmin(aug: _RobustAugmenter, xi: np.ndarray, n: int) -> None:
    vals = aug.candidate_values(xi, n)
    want = int(np.argmin(vals))
    got, value = aug.best(xi, n)
    assert got == want
    assert np.float64(value).tobytes() == vals[want].tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(1, 60),
    n=st.integers(1, 200),
    nu=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    rows=st.sampled_from(["normal", "duplicated", "collinear"]),
    zero_row=st.booleans(),
    measure=st.sampled_from(["random", "uniform", "singular"]),
    spread=st.floats(min_value=0.0, max_value=4.0),
)
def test_pruned_dnu_choice_equals_the_full_argmin(seed, p, extra, n, nu, rows, zero_row, measure, spread):
    """`best` decomposes only the Dnu candidates its bound keeps, and must
    still return exactly the argmin of `candidate_values` and its bytes:
    ties to the lowest index (duplicated rows score alike), near-collinear
    rows, a zero row (u = 0), weights spread over 10^spread, and a singular
    measure, where both read `_singular_base_values`.  Every drawn grid has
    rank p, as `RobustContext` requires."""
    rng = np.random.default_rng(seed)
    n_grid = p + extra
    if rows == "duplicated":
        base = rng.normal(size=(max(p, n_grid // 2), p))
        grid_rows = np.vstack([base, base[rng.integers(0, base.shape[0], size=n_grid)]])
        grid_rows = grid_rows[rng.permutation(grid_rows.shape[0])]
    elif rows == "collinear":
        grid_rows = np.outer(rng.normal(size=n_grid), rng.normal(size=p))
        grid_rows += 1e-6 * rng.normal(size=(n_grid, p))
    else:
        grid_rows = rng.normal(size=(n_grid, p))
    if zero_row or (measure == "singular" and p == 1):  # inserted, so the grid keeps rank p
        grid_rows = np.insert(grid_rows, rng.integers(0, grid_rows.shape[0] + 1), 0.0, axis=0)
    n_grid = grid_rows.shape[0]
    aug = robust_augmenter(grid_rows, nu, "Dnu")
    if measure == "uniform":
        xi = np.full(n_grid, 1.0 / n_grid)
    else:
        if measure == "random":
            at = rng.choice(n_grid, size=int(rng.integers(p, n_grid + 1)), replace=False)
        elif p > 1:  # fewer than p support points
            at = rng.choice(n_grid, size=p - 1, replace=False)
        else:  # all mass on the zero row
            at = np.flatnonzero(~grid_rows.any(axis=1))[:1]
        xi = np.zeros(n_grid)
        xi[at] = rng.exponential(size=at.size) * 10.0 ** rng.uniform(0.0, spread, size=at.size)
        xi /= xi.sum()
    if measure == "singular":
        assert aug.best(xi, n)[0] == int(np.argmin(aug._singular_base_values(xi, n)))
    _assert_best_is_argmin(aug, xi, n)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    extra=st.integers(1, 40),
    n=st.integers(1, 200),
)
def test_pruned_dnu_choice_where_the_bounds_are_tight(seed, p, extra, n):
    # xi uniform on the whole grid makes A and C multiples of the identity
    # (Q is orthonormal), so C - A = 0 up to rounding and x is parallel to u:
    # the lower bound equals lambda_max in exact arithmetic and only the
    # rounding margins keep the minimum; at nu = 1 the score moves with
    # lambda in full
    n_grid = p + extra
    aug = robust_augmenter(np.random.default_rng(seed).normal(size=(n_grid, p)), 1.0, "Dnu")
    _assert_best_is_argmin(aug, np.full(n_grid, 1.0 / n_grid), n)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 5),
    extra=st.integers(0, 2),
    n_grid=st.integers(6, 60),
    n=st.integers(1, 200),
    nu=st.floats(min_value=0.0, max_value=1.0),
    decades=st.floats(min_value=8.0, max_value=13.0),
)
def test_pruned_dnu_choice_on_ill_conditioned_measures(seed, p, extra, n_grid, n, nu, decades):
    # p - 1 support points of weight about 1 and 1 to 3 of weight about
    # 10^-decades: cond(A) runs from about 1e7 past the kernel's limit of
    # 1e12, beyond which both forms take the singular path
    rng = np.random.default_rng(seed)
    n_grid = max(n_grid, p + extra)
    aug = robust_augmenter(rng.normal(size=(n_grid, p)), nu, "Dnu")
    at = rng.choice(n_grid, size=p + extra, replace=False)
    xi = np.zeros(n_grid)
    xi[at] = 10.0 ** -rng.uniform(0.0, 0.5, size=at.size)
    xi[at[p - 1:]] *= 10.0 ** -decades
    _assert_best_is_argmin(aug, xi / xi.sum(), n)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    extra=st.integers(1, 40),
    n=st.integers(1, 200),
    nu=st.sampled_from([0.5, 1.0]),
    wobble=st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]),
)
def test_pruned_dnu_choice_where_the_bound_terms_cancel(seed, p, extra, n, nu, wobble):
    # xi uniform on the grid up to a relative wobble makes C - A of the order
    # of the wobble, so the bound's u'Cu - u'Au cancels to the wobble's size,
    # down to rounding, and so do k's beta^2 u'Cu and gamma^2 u'Au where
    # t = sqrt(1 + |u|^2/n) is near 1
    rng = np.random.default_rng(seed)
    n_grid = p + extra
    aug = robust_augmenter(rng.normal(size=(n_grid, p)), nu, "Dnu")
    xi = 1.0 + wobble * rng.uniform(-1.0, 1.0, size=n_grid)
    _assert_best_is_argmin(aug, xi / xi.sum(), n)


def kept_counts(monkeypatch) -> list[int]:
    """The number of candidates `_dnu_kept` keeps, one entry per call from now on."""
    kept = []
    keep = _RobustAugmenter._dnu_kept

    def counted(self, *args):
        idx, powers = keep(self, *args)
        kept.append(idx.size)
        return idx, powers

    monkeypatch.setattr(_RobustAugmenter, "_dnu_kept", counted)
    return kept


def test_bound_keeps_few_candidates_on_the_golden_grid_case(monkeypatch):
    """A margin that is too wide leaves `best` exact but quietly turns the
    pruning off.  On the case of the golden `seqdes_dnu_grid.json`, 20000
    rows on a 50 x 50 grid, the bound keeps at most 10 of the 2500
    candidates at every step (1 to 6 when this was written)."""
    golden = pytest.importorskip("test_golden")
    kept = kept_counts(monkeypatch)
    grid = CandidateGrid.from_axes({name: np.array(v) for name, v in golden.DNU_GRID["axes"].items()}, z_dim=1)
    cfg = SeqConfig(n_init=10, n_target=60, utility="Dnu", nu=0.5, family="linear", seed=21)
    selection, _ = run_sequential(simulate_example2(20000, seed=21), grid,
                                  model_spec_from_config(golden.DNU_GRID_MODEL), cfg)
    recorded = json.loads((golden.GOLDEN / "seqdes_dnu_grid.json").read_text())["selection"]["indices"]
    assert selection.indices.tolist() == recorded
    assert len(kept) == 50 and max(kept) <= 10


@pytest.mark.parametrize("p", [1, 2])
def test_pruned_dnu_choice_with_u_below_the_smallest_normal(p):
    # the last grid row scaled to 1e-159..1e-162, so |u|^2 is subnormal and
    # u'Cu, u'Au keep a few bits: the Rayleigh quotient of u/|u| reads far
    # from lambda_max and can rule the row out, though at nu = 1 and n = 1
    # that row, which leaves the measure's shape as it is, mostly scores
    # lowest; `_dnu_kept` keeps every row whose |u|^2 is below the smallest
    # normal float (without that rule 24 of the 310 cases at p = 1 and 2 at
    # p = 2 fail)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(p + 6, p))
        xi = rng.exponential(size=p + 6)
        xi[-1] = 0.0
        for decades in np.linspace(159.0, 162.0, 31):
            tiny = rows.copy()
            tiny[-1] *= 10.0 ** -decades
            _assert_best_is_argmin(robust_augmenter(tiny, 1.0, "Dnu"), xi / xi.sum(), 1)


def uniform_but_last(seed: int, p: int, n_grid: int = 100) -> tuple[_RobustAugmenter, np.ndarray]:
    """Dnu at nu = 1 on n_grid normal rows, with xi uniform on all grid points but the last: with
    n = n_grid - 1, adding the last point makes the measure uniform on the grid, whose lambda_max is 0,
    so that candidate's bound lies a margin below 0 and its exact p-th power rounds about 0."""
    aug = robust_augmenter(np.random.default_rng(seed).normal(size=(n_grid, p)), 1.0, "Dnu")
    xi = np.full(n_grid, 1.0 / (n_grid - 1))
    xi[-1] = 0.0
    return aug, xi


def test_negative_dnu_bounds_leave_the_cut_finite(monkeypatch):
    # the candidates with a negative bound are decomposed whatever the cut,
    # and so is the one with the smallest non-negative bound; the cut is the
    # smallest non-negative exact power among them, and 2 of 100 are kept.
    # With the cut candidate taken over the negative bound too, its power
    # rounds below 0 on some seeds (p = 1: 0-2), the cut is inf and all 100
    # are decomposed; cut at the smallest non-negative bound's power alone,
    # which lies far above the best power of about 1e-11, 2 to 39 were kept
    # at p = 2, 3 and 5.  The answer is the same either way
    kept = kept_counts(monkeypatch)
    for p in (1, 2, 3, 5):
        for seed in range(10):
            _assert_best_is_argmin(*uniform_but_last(seed, p), 99)
    assert kept == [2] * 40


@pytest.mark.parametrize("p", [1, 2, 5])
def test_dnu_scores_that_round_below_zero_read_zero(p):
    # lambda_max(R^-1/2 B R^-1/2 - R) >= 0: for v an eigenvector of R,
    # Cauchy-Schwarz gives v'R^-1/2 B R^-1/2 v >= (v'v)^2/(v'R^-1 v) = v'R v.
    # So a negative p-th power is rounding, and its root reads 0, not NaN
    # (p = 2, 5) or a negative value (p = 1); on these seeds some did round
    # below 0, and `best` is still the argmin, ties to the lowest index
    best = []
    for seed in range(10):
        aug, xi = uniform_but_last(seed, p)
        assert np.all(aug.candidate_values(xi, 99) >= 0.0)
        _assert_best_is_argmin(aug, xi, 99)
        best.append(aug.best(xi, 99)[1])
    assert 0.0 in best


def harmonic_rows(n_grid: int, p: int, phase: float) -> np.ndarray:
    """Rows (1/sqrt 2, cos t, sin t, cos 2t, sin 2t, ...) at n_grid equally spaced angles t: orthogonal
    columns of equal norm, and for odd p rows of equal norm."""
    angle = 2.0 * np.pi * (np.arange(n_grid) + phase) / n_grid
    cols = [np.full(n_grid, np.sqrt(0.5))]
    for k in range(1, p // 2 + 1):
        cols += [np.cos(k * angle), np.sin(k * angle)]
    return np.column_stack(cols[:p])


@pytest.mark.parametrize("p", [3, 5])
def test_pruned_dnu_cut_covers_the_rounding_of_t2(p):
    # rows of equal norm and xi uniform: every |u|^2 is equal up to rounding,
    # and at nu = 0 or 1e-6 the p-th powers 1/(det0 t^2) tie up to an ulp.
    # A power an ulp above the smallest can have the same p-th root, and the
    # full argmin then picks it where its index is lower, so the cut is the
    # smallest exact power times (1 + _BOUND_MARGIN)^p (without that factor
    # 11 of these 54 cases fail at p = 3 and 23 at p = 5, each on a tie of
    # the roots)
    for n_grid in (13, 24, 37):
        for phase in (0.0, 0.1, 0.37):
            rows = harmonic_rows(n_grid, p, phase)
            for nu in (0.0, 1e-6):
                aug = robust_augmenter(rows, nu, "Dnu")
                for n in (1, 7, 50):
                    _assert_best_is_argmin(aug, np.full(n_grid, 1.0 / n_grid), n)
