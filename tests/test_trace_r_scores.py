"""The sequential traceR candidate scores, tested against the eigh form.

The oracle is the earlier form of `_trace_r_scores`, `_trace_r_candidates`
below: every augmented M_g = M11 + a_g f_g f_g' is decomposed with its own
eigh, and a candidate whose smallest eigenvalue is at most 1e-14 scores inf.

Neither form is accurate to a few ulps of the value.  The rank-one form
subtracts a_g|b_g|^2/den_g from tr M11^-1 and the Sherman-Morrison correction
from r_g = M11^-1 z_g, the eigh form sums S2 + S3 + 2 S4 where psi and phi
terms may cancel, and both form z_g from sums of signed terms.  Checked
against 50-digit mpmath on 9000 random instances (54000 candidates, p, m,
q <= 3, cond(M11) up to 1e12), each form stayed within 4.3 eps cond S_g of
the exact value, where cond is cond(M11) for the rank-one form and cond(M_g)
for the eigh form, and the scale S_g (`_scale`) bounds the magnitude of every
term either form adds.  So the two must agree within
`_TOL` eps (cond(M11) + cond(M_g)) S_g, and pick the same candidate wherever
the lowest value leads every other one by more than both tolerances.  A
tolerance relative to the value alone fails: on 3000 random cases the forms
differed by up to 7.6e-12 of it at cond(M11) < 100.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subsel.errors import SingularMatrixError
from subsel.model_core import BiasSpec
from subsel.select_sequential import _trace_r_scores

EPS = np.finfo(float).eps
_TOL = 16.0


def _trace_r_candidates(m_full: np.ndarray, rows_grid: np.ndarray, c_grid: np.ndarray,
                        w_new: float, spec, bias: BiasSpec) -> np.ndarray:
    """Bias-aware trace of every one-point augmentation (batched)."""
    p, m_dim, q_dim = spec.p, spec.m, spec.q
    f = rows_grid[:, :p]
    a = w_new * c_grid
    m11 = m_full[:p, :p]
    m11_all = m11[None, :, :] + a[:, None, None] * np.einsum("gi,gj->gij", f, f)
    eigvals, eigvecs = np.linalg.eigh(m11_all)
    bad = eigvals[:, 0] <= 1e-14
    safe = np.where(bad[:, None], 1.0, eigvals)
    inv_all = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / safe, eigvecs)
    a2_all = np.einsum("gij,gjk->gik", inv_all, inv_all)
    tr_inv = np.trace(inv_all, axis1=1, axis2=2)

    if m_dim:
        h = rows_grid[:, p : p + m_dim]
        u0 = m_full[:p, p : p + m_dim] @ bias.psi
        u_all = u0[None, :] + (a * (h @ bias.psi))[:, None] * f
    else:
        u_all = np.zeros((rows_grid.shape[0], p))
    if q_dim:
        g = rows_grid[:, p + m_dim :]
        v0 = m_full[:p, p + m_dim :] @ bias.phi
        v_all = v0[None, :] + (a * (g @ bias.phi))[:, None] * f
    else:
        v_all = np.zeros((rows_grid.shape[0], p))

    s2 = np.einsum("gi,gij,gj->g", u_all, a2_all, u_all)
    s3 = np.einsum("gi,gij,gj->g", v_all, a2_all, v_all)
    s4 = np.einsum("gi,gij,gj->g", v_all, a2_all, u_all)
    vals = tr_inv + bias.ratio**2 * (s2 + s3 + 2.0 * s4)
    return np.where(bad, np.inf, vals)


def _instance(seed: int, p: int, m: int, q: int, extra: int, n_grid: int, spread: float,
              collinear: bool):
    """A working matrix from `p + m + q + extra` random rows whose columns span
    10^+-spread, optionally with nearly collinear first two f columns; grid
    rows, weights c_g in [0, 1) and a bias with random psi, phi and ratio."""
    rng = np.random.default_rng(seed)
    k = p + m + q
    x = rng.normal(size=(k + extra, k)) * 10.0 ** rng.uniform(-spread, spread, size=k)
    if collinear and p > 1:
        x[:, 1] = x[:, 0] * rng.normal() + 10.0 ** rng.uniform(-4, -1) * rng.normal(size=k + extra)
    m_full = x.T @ x / (k + extra)
    rows = rng.normal(size=(n_grid, k)) * 10.0 ** rng.uniform(-1, 1, size=k)
    bias = BiasSpec(psi=rng.normal(size=m), phi=rng.normal(size=q),
                    sigma=10.0 ** rng.uniform(-1, 1), n_total=int(rng.integers(1, 1000)))
    return m_full, rows, rng.uniform(size=n_grid), bias


def _scale(m_full: np.ndarray, rows: np.ndarray, a: np.ndarray, p: int, bias: BiasSpec) -> np.ndarray:
    """S_g = tr B + a_g|b_g|^2/den_g + (n/sigma)^2 (|B| |z^_g| + a_g|b_g||f_g.r_g|/den_g)^2.

    B = M11^-1, b_g = B f_g, den_g = 1 + a_g f_g.b_g, r_g = B z_g, and z^_g is
    z_g with every coefficient, matrix entry and row entry by its absolute value.
    """
    m11 = m_full[:p, :p]
    minv = np.linalg.inv(m11)
    f = rows[:, :p]
    b = f @ minv
    den = 1.0 + a * np.einsum("gi,gi->g", b, f)
    coef = np.concatenate([bias.psi, bias.phi])
    r = minv @ (m_full[:p, p:] @ coef) + (a * (rows[:, p:] @ coef))[:, None] * b
    corr = np.abs(a * np.einsum("gi,gi->g", f, r) / den) * np.linalg.norm(b, axis=1)
    z_abs = (np.abs(m_full[:p, p:]) @ np.abs(coef))[None, :] + \
        (a * (np.abs(rows[:, p:]) @ np.abs(coef)))[:, None] * np.abs(f)
    norm_b = 1.0 / np.linalg.eigvalsh(m11)[0]
    bias_scale = norm_b * np.linalg.norm(z_abs, axis=1) + corr
    return np.trace(minv) + a * np.einsum("gi,gi->g", b, b) / den + bias.ratio**2 * bias_scale**2


def _conds(m_full: np.ndarray, rows: np.ndarray, a: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """cond(M11) and cond(M_g) of every candidate."""
    m11 = m_full[:p, :p]
    f = rows[:, :p]
    return float(np.linalg.cond(m11)), np.linalg.cond(m11 + a[:, None, None] * np.einsum("gi,gj->gij", f, f))


instances = dict(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    m=st.integers(0, 3),
    q=st.integers(0, 3),
    extra=st.integers(1, 30),
    spread=st.floats(min_value=0.0, max_value=2.0),
    collinear=st.booleans(),
    log_w=st.floats(min_value=-3.0, max_value=1.0),
)


@given(n_grid=st.integers(1, 40), **instances)
def test_rank_one_scores_match_the_eigh_form(seed, p, m, q, extra, n_grid, spread, collinear, log_w):
    m_full, rows, c_grid, bias = _instance(seed, p, m, q, extra, n_grid, spread, collinear)
    w_new = 10.0**log_w
    a = w_new * c_grid
    want = _trace_r_candidates(m_full, rows, c_grid, w_new, SimpleNamespace(p=p, m=m, q=q), bias)
    cond11, cond_g = _conds(m_full, rows, a, p)
    try:
        got = _trace_r_scores(m_full, rows, a, p, bias)
    except SingularMatrixError:
        assert cond11 > 1e11  # the COND_LIMIT rule, up to rounding of cond
        return
    assume(np.all(np.isfinite(want)))  # the oracle's 1e-14 cut, on a tiny-scale M11
    tol = _TOL * EPS * (cond11 + cond_g) * _scale(m_full, rows, a, p, bias)
    assert np.all(np.abs(got - want) <= tol)
    best = int(np.argmin(want))
    others = np.arange(n_grid) != best
    if np.all(want[others] - want[best] > tol[others] + tol[best]):
        assert int(np.argmin(got)) == best


@settings(max_examples=25, deadline=None)
@given(n_grid=st.integers(1, 6), **instances)
def test_both_forms_within_their_bound_of_50_digit_values(seed, p, m, q, extra, n_grid, spread,
                                                         collinear, log_w):
    mp = pytest.importorskip("mpmath")
    m_full, rows, c_grid, bias = _instance(seed, p, m, q, extra, n_grid, spread, collinear)
    w_new = 10.0**log_w
    a = w_new * c_grid
    cond11, cond_g = _conds(m_full, rows, a, p)
    assume(cond11 < 1e11)
    want = _trace_r_candidates(m_full, rows, c_grid, w_new, SimpleNamespace(p=p, m=m, q=q), bias)
    assume(np.all(np.isfinite(want)))
    got = _trace_r_scores(m_full, rows, a, p, bias)

    coef = [mp.mpf(v) for v in np.concatenate([bias.psi, bias.phi])]
    exact = []
    with mp.workdps(50):
        m11 = mp.matrix(m_full[:p, :p].tolist())
        z0 = [mp.fsum(mp.mpf(m_full[i, p + j]) * coef[j] for j in range(len(coef))) for i in range(p)]
        for g in range(n_grid):
            f = [mp.mpf(v) for v in rows[g, :p]]
            ag = mp.mpf(a[g])
            inv = (m11 + ag * mp.matrix(f) * mp.matrix(f).T) ** -1
            e = mp.fsum(mp.mpf(rows[g, p + j]) * coef[j] for j in range(len(coef)))
            y = inv * mp.matrix([z0[i] + ag * e * f[i] for i in range(p)])
            exact.append(float(mp.fsum(inv[i, i] for i in range(p))
                               + mp.mpf(bias.ratio) ** 2 * mp.fsum(v * v for v in y)))
    exact = np.array(exact)
    scale = _scale(m_full, rows, a, p, bias)
    assert np.all(np.abs(got - exact) <= _TOL / 2 * EPS * cond11 * scale)
    assert np.all(np.abs(want - exact) <= _TOL / 2 * EPS * cond_g * scale)


def test_singular_m11_raises():
    # the first two f columns are equal, so M11 is singular; each candidate
    # with f_g not parallel to them makes its own M_g regular, and the eigh
    # form scored those finite, while the rank-one form needs M11^-1
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 4))
    x[:, 1] = x[:, 0]
    m_full = x.T @ x / 12
    bias = BiasSpec(psi=[0.5], phi=[], sigma=1.0, n_total=100)
    rows = rng.normal(size=(9, 4))
    with pytest.raises(SingularMatrixError):
        _trace_r_scores(m_full, rows, np.full(9, 0.1), 3, bias)
