"""Sequential design-guided subsampling.

Starting from a seeded initial subsample, each iteration scores every
candidate grid point by the improvement a one-point design augmentation
would bring under the configured utility, transfers the nearest
not-yet-selected data rows to the best candidate, refits the working model,
and counts the new rows into the scorer's state.  For a 0/1 response the fit
is logistic and all information matrices carry the pi(1-pi) weights of the
current fit; otherwise the fit is least squares and weights are 1.

The utility is read once, before the loop, to pick its scorer
(`_pick_scorer`); each returns the (grid index, value) of its best
candidate, ties to the lowest grid index.  ``D`` maximizes det(M + w c r r'),
``A`` minimizes the trace of its inverse and ``traceR`` (which needs a
BiasSpec) the bias-aware trace.  These three read the working information
matrix M of the selection, built from full rows r (f, h and g blocks), and
each candidate's weight c, pi(1-pi) at the current fit or 1.  They invert
one matrix per step (M, or for traceR its M11 block; the logistic refit
supplies M's inverse) and score every candidate as a rank-one update of
that inverse; a singular or ill-conditioned matrix raises
SingularMatrixError.  ``Inu`` and ``Dnu`` minimize a robust loss of the grid
measure xi of the selection, in which each selected row counts at its
nearest grid cell, over the `criteria.RobustContext` of the grid's full
rows; grid rows of rank below their length raise InvalidInputError before
the initial fit.

Consecutive selections differ by one batch, so the loop reuses work:

* each logistic refit starts from the previous estimate, and falls back to a
  cold start from 0 when that fit raises or ends unconverged; a sample with
  one response label has no MLE and is always fitted cold;
* the selected rows of a logistic model also live in one
  `estimation.LogisticRows` holder, to which each step appends its rows: a
  refit starting at the previous fit's estimate starts from that fit's sums
  plus the new rows' terms, and each Newton iterate is one fused pass over
  the selection.  The fit's eigendecomposition of X'WX gives the D and A
  utilities the inverse and log det of the working information matrix;
* the nearest-row transfer keeps, for each grid point chosen, the leading
  part of the order of all rows by distance and a cursor into it (see
  `_NearestRows`);
* the selected model rows and responses live in preallocated buffers, so
  refits and the working information matrix read a prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .criteria import RobustContext, _b2, _eigh, _robust_gram, _sym_inverse
from .errors import (
    EIG_FLOOR,
    DegenerateColumnError,
    InvalidInputError,
    SeparationError,
    SingularMatrixError,
)
from .estimation import FitResult, LogisticRows, _logistic_terms, fit_logistic, fit_ols
from .ingest_sim import write_rows
from .model_core import (
    BiasSpec,
    CandidateGrid,
    ModelSpec,
    SubsampleSelection,
    data_columns,
    model_matrix,
)
from .rng import CounterRng

UTILITIES = ("D", "A", "Inu", "Dnu", "traceR")
FAMILIES = ("auto", "linear", "logistic")
STRATEGIES = ("random", "stratified", "dope")
STOP_RULES = ("n_reached", "utility_gain_below")
DISTANCES = ("euclidean", "scaled")


@dataclass(frozen=True)
class SeqConfig:
    """Configuration for :func:`run_sequential`."""

    n_init: int
    n_target: int
    batch_size: int = 1
    utility: str = "D"
    nu: float | None = None
    bias: BiasSpec | None = None
    family: str = "auto"
    distance: str = "euclidean"
    init_strategy: str = "random"
    init_column: str | None = None
    init_quantiles: int = 10
    init_label: float = 1.0
    seed: int = 0
    stop_rule: str = "n_reached"
    stop_epsilon: float = 0.0

    def __post_init__(self):
        if self.n_init < 1:
            raise InvalidInputError("n_init must be at least 1")
        if self.n_target < self.n_init:
            raise InvalidInputError("n_target must be at least n_init")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be at least 1")
        if self.n_target > self.n_init and self.batch_size > self.n_target - self.n_init:
            raise InvalidInputError("batch_size cannot exceed n_target - n_init")
        if self.utility not in UTILITIES:
            raise InvalidInputError(f"utility must be one of {UTILITIES}")
        if self.utility in ("Inu", "Dnu"):
            if self.nu is None or not 0.0 <= self.nu <= 1.0:
                raise InvalidInputError("Inu/Dnu utilities need nu in [0, 1]")
        elif self.nu is not None:
            raise InvalidInputError(f"nu is read by the Inu and Dnu utilities only, not by {self.utility}")
        if self.utility == "traceR" and self.bias is None:
            raise InvalidInputError("traceR utility needs a BiasSpec")
        if self.utility != "traceR" and self.bias is not None:
            raise InvalidInputError(f"a BiasSpec is read by the traceR utility only, not by {self.utility}")
        if self.family not in FAMILIES:
            raise InvalidInputError(f"family must be one of {FAMILIES}")
        if self.distance not in DISTANCES:
            raise InvalidInputError(f"distance must be one of {DISTANCES}")
        if self.init_strategy not in STRATEGIES:
            raise InvalidInputError(f"init_strategy must be one of {STRATEGIES}")
        if self.init_strategy == "stratified":
            if self.init_column is None:
                raise InvalidInputError("stratified init needs init_column")
            if self.init_quantiles < 1:
                raise InvalidInputError("init_quantiles must be at least 1")
        if self.stop_rule not in STOP_RULES:
            raise InvalidInputError(f"stop_rule must be one of {STOP_RULES}")
        if self.stop_epsilon < 0.0:
            raise InvalidInputError("stop_epsilon must be non-negative")


@dataclass(frozen=True)
class SeqStep:
    """One augmentation step of the loop.

    `newton_iters` and `converged` describe the refit the step kept (an OLS
    refit counts one iteration); `warm` says whether that refit continued
    from the previous fit.  A refit that raised keeps the previous fit and
    records 0 iterations, converged=False and warm=False.
    """

    iteration: int
    grid_index: int
    grid_point: np.ndarray
    data_indices: np.ndarray
    utility: float
    theta: np.ndarray
    n_selected: int
    newton_iters: int
    converged: bool
    warm: bool


@dataclass
class SeqTrace:
    """Initial sample, per-iteration steps, final fit, and the stop reason."""

    initial_indices: np.ndarray
    initial_theta: np.ndarray
    steps: list[SeqStep] = field(default_factory=list)
    final_fit: FitResult | None = None
    stop_reason: str = "n_reached"

    def write_theta_csv(self, path) -> None:
        """Rows (iteration, n_selected, theta...): the initial fit as iteration 0, then each step."""
        header = ["iteration", "n_selected", *(f"theta_{j}" for j in range(len(self.initial_theta)))]
        first = [(0, len(self.initial_indices), *self.initial_theta)]
        write_rows(path, header, first + [(s.iteration, s.n_selected, *s.theta) for s in self.steps])


# ---------------------------------------------------------------------------
# initial sampling strategies


def _linear_quantiles(values: np.ndarray, n_bins: int) -> np.ndarray:
    """np.quantile(values, linspace(0, 1, n_bins + 1)) for finite values, up
    to the sign of a zero, without np.quantile's import of numpy.ma."""
    s = np.sort(values)
    virtual = (s.size - 1) * np.linspace(0.0, 1.0, n_bins + 1)
    lo = np.minimum(np.floor(virtual), s.size - 1)
    t = virtual - lo
    a, b = s[lo.astype(np.intp)], s[np.minimum(lo + 1, s.size - 1).astype(np.intp)]
    # numpy's two-sided lerp
    return np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)


def _stratified_init(rng: CounterRng, values: np.ndarray, edge_pool: np.ndarray,
                     n_init: int, n_quantiles: int) -> list[int]:
    """Round-robin across quantile bins of `values`.

    Bin edges come from the `edge_pool` rows, at least one (e.g. the
    rare-label rows of a binary response, so strata concentrate where the
    response varies), but membership and sampling run over every row: the
    selection depends on the covariate only, which keeps downstream
    estimates free of selection bias.
    """
    edges = _linear_quantiles(values[edge_pool], n_quantiles)
    bins = np.searchsorted(edges[1:-1], values, side="right")
    members = [np.flatnonzero(bins == b).tolist() for b in range(n_quantiles)]
    # round r visits, in bin order, every bin with more than r members and
    # draws below its remaining size; neither depends on the draws.  The
    # rounds visit sum_b min(size_b, n_init) >= n_init rows, as n_init <= N
    sizes = np.array([len(m) for m in members])
    visit_round, visit_bin = np.nonzero(sizes > np.arange(min(n_init, sizes.max()))[:, None])
    visit_round, visit_bin = visit_round[:n_init], visit_bin[:n_init]
    draws = rng.randbelow_many(sizes[visit_bin] - visit_round)
    return [members[b].pop(at) for b, at in zip(visit_bin.tolist(), draws.tolist())]


def _initial_indices(rng: CounterRng, cfg: SeqConfig, coords: np.ndarray,
                     y: np.ndarray, feature_names, family: str) -> tuple[list[int], list[int]]:
    """Initial retained rows, and the further rows that train only the first estimate.

    The second list is empty but for the dope strategy: the rows whose
    response equals the label (ascending) enrich the first fit so that its
    estimate is informed, while the retained subset stays response-blind.
    Retaining rows for their own response would bias every later estimate
    (their score terms no longer average to zero); for the same reason the
    stratified strategy takes only its bin edges from the labeled rows.
    """
    n = coords.shape[0]
    if cfg.init_strategy == "random":
        return [int(i) for i in rng.sample_indices(n, cfg.n_init)], []
    if cfg.init_strategy == "dope":
        retained = [int(i) for i in rng.sample_indices(n, cfg.n_init)]
        return retained, sorted(set(np.flatnonzero(y == cfg.init_label).tolist()) - set(retained))
    # stratified
    names = list(feature_names or ())
    if cfg.init_column not in names:
        raise InvalidInputError(f"unknown init_column {cfg.init_column!r}")
    col = names.index(cfg.init_column)
    # for a binary response, focus the bins where the rare label lives
    edge_pool = np.flatnonzero(y == 1.0) if family == "logistic" else np.arange(n)
    if edge_pool.size == 0:
        edge_pool = np.arange(n)
    return _stratified_init(rng, coords[:, col], edge_pool, cfg.n_init, cfg.init_quantiles), []


# ---------------------------------------------------------------------------
# candidate scoring


# Relative rounding margin of the Dnu lower bound (see _RobustAugmenter._dnu_kept).
_BOUND_MARGIN = 32.0 * np.finfo(float).eps


def _plus_outer(base: np.ndarray, x: np.ndarray, u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """base + x u' + u x' + k u u' for every row of x, u and k."""
    xu = x[:, :, None] * u[:, None, :]
    return base + xu + np.swapaxes(xu, 1, 2) + k[:, None, None] * (u[:, :, None] * u[:, None, :])


class _RobustAugmenter:
    """Batched robust-loss evaluation of one-point measure augmentations.

    With n the selection size, c = n/(n+1), A = Q'D(xi)Q, B1 = Q'D(xi^2)Q and
    b_g = (2 n xi_g + 1)/n^2, adding grid row q_g gives the rank-one updates
    R_g = c (A + q_g q_g'/n) and B_g = c^2 (B1 + b_g q_g q_g'), read from the
    gram part of the robust kernel (`criteria._robust_gram`).  With W = A^-1/2,
    C = W B1 W, u = W q_g, a = 1/n, t = sqrt(1 + a|u|^2), P = I + beta u u'
    and beta = -a/(t (1 + t)), (W P)(W P)' = c R_g^-1 and P u = u/t, so

    * det R_g = c^p det A t^2;
    * Dnu: lambda_max(R^-1/2 B R^-1/2 - R) is the top eigenvalue of
      c (G - P^-1 A P^-1), G = P C P + (b_g/t^2) u u',
      P^-1 = I + gamma u u', gamma = a/(1 + t);
    * Inu: R_g^-1 B_g R_g^-1 = (P W)' G (P W), tr R_g^-1 = |P W|_F^2 / c.

    G and P^-1 A P^-1 are a fixed matrix plus outer products of per-candidate
    vectors, so `candidate_values` costs one batched eigvalsh per step.  P W
    is formed explicitly: the expanded Sherman-Morrison trace cancels when A
    is near-singular.

    Each per-candidate term (|u|^2, t^2, t, beta, u'Cu, k, and for Dnu gamma
    and u'Au) is computed once per step, for every candidate.  Only the
    smallest Dnu score is used, so `best` decomposes only the candidates that
    a cheap lower bound, read from the same terms, cannot rule out
    (`_dnu_kept`): first those kept whatever the cut, then those whose bound
    is at most the smallest exact score among the first.  They go through the
    same eigvalsh as in `candidate_values`, so `best` returns the argmin of
    `candidate_values` and its value, bit for bit.  Inu is scored in full.
    lambda_max(R^-1/2 B R^-1/2 - R) >= 0 (for v an eigenvector of R,
    v'R^-1/2 B R^-1/2 v >= (v'v)^2/(v'R^-1 v) = v'R v), so a Dnu p-th power
    that rounds below 0 reads 0.

    A singular current measure (smallest eigenvalue below the kernel's
    `errors.EIG_FLOOR`, e.g. fewer than p support points) has no W; then
    every R_g is decomposed on its own, and a candidate whose smallest
    eigenvalue is below the same floor scores inf.
    """

    def __init__(self, ctx: RobustContext, kind: str):
        self.q = ctx.q_matrix
        self.nu = ctx.nu
        self.kind = kind
        self.p = ctx.p

    def candidate_values(self, xi: np.ndarray, n: int) -> np.ndarray:
        """The score of every candidate."""
        return self._scores(xi, n, prune=False)[1]

    def best(self, xi: np.ndarray, n: int) -> tuple[int, float]:
        """(index, value) of the smallest score, ties to the lowest index."""
        idx, vals = self._scores(xi, n, prune=self.kind == "Dnu")
        at = int(np.argmin(vals))
        return int(idx[at]), float(vals[at])

    def _scores(self, xi: np.ndarray, n: int, prune: bool) -> tuple[np.ndarray, np.ndarray]:
        """(candidate indices, their scores): every candidate, or with `prune`
        (Dnu only) the candidates `_dnu_kept` keeps, in ascending order."""
        idx = np.arange(self.q.shape[0])
        try:
            support = np.flatnonzero(xi)
            q_s, xi_s = self.q[support], xi[support]
            gram = _robust_gram(q_s, xi_s)
        except SingularMatrixError:
            return idx, self._singular_base_values(xi, n)
        p, nu, a, c = self.p, self.nu, 1.0 / n, n / (n + 1.0)
        w = gram.inv_root
        c_mat = w @ _b2(q_s, xi_s) @ w
        u = self.q @ w
        cu = u @ c_mat
        uu, ucu = np.einsum("gi,gi->g", u, u), np.einsum("gi,gi->g", cu, u)
        t2 = 1.0 + a * uu
        t = np.sqrt(t2)
        beta = -a / (t * (1.0 + t))
        k = beta * beta * ucu + (2.0 * n * xi + 1.0) * (a * a) / t2
        if self.kind == "Inu":
            x = beta[:, None] * cu
            pw = w + beta[:, None, None] * (u[:, :, None] * (u @ w)[:, None, :])
            lam = np.linalg.eigvalsh(np.swapaxes(pw, 1, 2) @ (_plus_outer(c_mat, x, u, k) @ pw))[:, -1]
            trace = np.einsum("gij,gij->g", pw, pw) * ((n + 1.0) / n)
            return idx, (1.0 - nu) * trace + nu * lam
        # G - P^-1 A P^-1 = _plus_outer(C - A, x, u, k - gamma^2 u'Au) with x = beta C u - gamma A u
        base, au, den = c_mat - gram.r, u @ gram.r, c**p * np.prod(gram.r_eigs) * t2
        gamma = a / (1.0 + t)
        uau = np.einsum("gi,gi->g", au, u)
        k -= gamma * gamma * uau

        def powers(at):
            """The p-th powers of the Dnu scores of the candidates `at`."""
            x = beta[at, None] * cu[at] - gamma[at, None] * au[at]
            lam = np.linalg.eigvalsh(_plus_outer(base, x, u[at], k[at]))[:, -1]
            return (1.0 - nu + nu * (c * lam)) / den[at]

        if prune:
            idx, vals = self._dnu_kept(u, uu, ucu, uau, beta, gamma, k, den, c_mat, gram.r, base, xi, n, powers)
        else:
            vals = powers(idx)
        return idx, np.maximum(vals, 0.0) ** (1.0 / p)  # the power is >= 0 but for rounding

    def _dnu_kept(self, u: np.ndarray, uu: np.ndarray, ucu: np.ndarray, uau: np.ndarray, beta: np.ndarray,
                  gamma: np.ndarray, k: np.ndarray, den: np.ndarray, c_mat: np.ndarray, r: np.ndarray,
                  base: np.ndarray, xi: np.ndarray, n: int, powers) -> tuple[np.ndarray, np.ndarray]:
        """The candidates, ascending, that a lower bound cannot rule out of the smallest Dnu score,
        and their `powers`, each decomposed once.

        With A = R, a p-th power score (1 - nu + nu c lambda) / (det0 t^2) is nondecreasing in
        lambda = lambda_max(M), M = base + x u' + u x' + k u u', base = C - A, x = beta C u - gamma A u;
        the bound reads the scores' |u|^2, u'Cu, u'Au, beta, gamma, k and det0 t^2, and so u.x, and
        one product of u with v, C v and A v, (l1, v) the top eigenpair of base, gives v.u and v.x.
        With tau = k |u|^2 + 2 u.x, lambda is at least the larger Rayleigh quotient of v and of u/|u|,
        l1 + 2 (v.x)(v.u) + k (v.u)^2 and u'base u/|u|^2 + tau.  As 0 < -beta, gamma <= a/2,
        |x| <= s |u| for s = a (|C| + |A|)/2 (Frobenius norms), and the bound is lowered by
        rel (|C| + |A| + (2 s + k_max) |u|^2 + a s |u|^4), rel = _BOUND_MARGIN p^2, k_max the largest
        (2 n xi + 1) a^2, for the rounding of the products, of M and of its eigvalsh.  The candidates
        kept whatever the cut are decomposed first: every one whose bound is negative (no p-th root)
        or NaN or whose |u|^2 is below the smallest normal float, and the one with the smallest
        non-negative bound.  The cut is the smallest non-negative exact p-th power among them, times
        (1 + _BOUND_MARGIN)^p for the rounding of the p-th root; the rest are kept where their bound
        is at most the cut.
        """
        p, nu, a, c = self.p, self.nu, 1.0 / n, n / (n + 1.0)
        eigs, vecs = _eigh(base)
        l1, v = eigs[-1], vecs[:, -1]
        vu, cvu, avu = (u @ np.column_stack((v, c_mat @ v, r @ v))).T
        tau = k * uu + 2.0 * (beta * ucu - gamma * uau)
        norms = np.linalg.norm(c_mat) + np.linalg.norm(r)
        s_max, rel = 0.5 * a * norms, _BOUND_MARGIN * p * p
        margin = rel * (norms + (2.0 * s_max + (2.0 * n * xi.max() + 1.0) * a * a + a * s_max * uu) * uu)
        with np.errstate(divide="ignore", invalid="ignore"):  # |u| = 0: NaN, kept below
            lower = np.maximum(l1 + (k * vu + 2.0 * (beta * cvu - gamma * avu)) * vu, (ucu - uau) / uu + tau)
        lo = (nu * c * (lower - margin) + (1.0 - nu)) / den
        always = ~(lo >= 0.0) | (uu < np.finfo(float).tiny)
        always[np.argmin(np.where(lo >= 0.0, lo, np.inf))] = True
        first = np.flatnonzero(always)
        top = powers(first)
        cut = np.min(top, initial=np.inf, where=top >= 0.0) * (1.0 + _BOUND_MARGIN) ** p
        rest = np.flatnonzero((lo <= cut) & ~always)
        idx = np.concatenate((first, rest))
        order = np.argsort(idx)
        return idx[order], np.concatenate((top, powers(rest)))[order]

    def _singular_base_values(self, xi: np.ndarray, n: int) -> np.ndarray:
        """Per-candidate decomposition of every R_g (singular current measure)."""
        q, p, nu = self.q, self.p, self.nu
        outer = np.einsum("gi,gj->gij", q, q)
        a1 = (q * xi[:, None]).T @ q
        b1 = (q * (xi * xi)[:, None]).T @ q
        denom = n + 1.0
        r_all = (n * a1[None, :, :] + outer) / denom
        b_all = (n * n * b1[None, :, :] + (2.0 * n * xi + 1.0)[:, None, None] * outer) / (denom * denom)
        eigvals, eigvecs = np.linalg.eigh(r_all)
        bad = eigvals[:, 0] < EIG_FLOOR
        safe = np.where(bad[:, None], 1.0, eigvals)
        if self.kind == "Inu":
            rinv = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / safe, eigvecs)
            u = np.einsum("gij,gjk,gkl->gil", rinv, b_all, rinv)
            lam = np.linalg.eigvalsh(u)[:, -1]
            return np.where(bad, np.inf, (1.0 - nu) * np.trace(rinv, axis1=1, axis2=2) + nu * lam)
        inv_root = np.einsum("gij,gj,gkj->gik", eigvecs, 1.0 / np.sqrt(safe), eigvecs)
        h = np.einsum("gij,gjk,gkl->gil", inv_root, b_all, inv_root) - r_all
        lam = np.linalg.eigvalsh(h)[:, -1]
        # the root only where R_g is regular (a singular one can have det < 0), of a power >= 0 but for rounding
        base = np.maximum((1.0 - nu + nu * lam) / np.prod(safe, axis=1), 0.0)
        return np.power(base, 1.0 / p, out=np.full_like(base, np.inf), where=~bad)


def _sherman_morrison(minv: np.ndarray, rows: np.ndarray, a: np.ndarray):
    """(b, den, tr) of every one-point augmentation M + a_g r_g r_g', from minv = M^-1.

    b_g = M^-1 r_g and den_g = 1 + a_g r_g'b_g, so that the augmented inverse is
    M^-1 - a_g b_g b_g'/den_g and its trace tr_g = tr M^-1 - a_g |b_g|^2 / den_g.
    """
    b = rows @ minv
    den = 1.0 + a * np.einsum("gk,gk->g", b, rows)
    return b, den, np.trace(minv) - (a * np.einsum("gk,gk->g", b, b)) / den


def _trace_r_scores(m_full: np.ndarray, rows_grid: np.ndarray, a: np.ndarray, p: int,
                    bias: BiasSpec) -> np.ndarray:
    """Bias-aware trace of every one-point augmentation M_g = M11 + a_g f_g f_g'.

    The bias terms S2 + S3 + 2 S4 of `criteria.trace_r` sum to |M_g^-1 z_g|^2
    with z_g = M12 psi + M13 phi + a_g (h_g'psi + g_g'phi) f_g.  With B = M11^-1
    and (b, den) from `_sherman_morrison`, r_g = B z_g gives
    M_g^-1 z_g = r_g - a_g b_g (f_g.r_g)/den_g: one p-vector per candidate.
    Raises SingularMatrixError when M11 is singular or ill-conditioned.
    """
    minv, _ = _sym_inverse(m_full[:p, :p], "M11 block of the working information matrix")
    f = rows_grid[:, :p]
    b, den, tr = _sherman_morrison(minv, f, a)
    coef = np.concatenate([bias.psi, bias.phi])
    r = minv @ (m_full[:p, p:] @ coef) + (a * (rows_grid[:, p:] @ coef))[:, None] * b
    mz = r - (a * np.einsum("gi,gi->g", f, r) / den)[:, None] * b
    return tr + bias.ratio**2 * np.einsum("gi,gi->g", mz, mz)


def _lowest(scores: np.ndarray) -> tuple[int, float]:
    g = int(np.argmin(scores))
    return g, float(scores[g])


def _inverse(info) -> tuple[np.ndarray, float]:
    """(M^-1, log det M) of info = (M, M^-1, log det M), inverting M when the refit gave no inverse."""
    if info[1] is None:
        return _sym_inverse(info[0], "working information matrix")[0], np.linalg.slogdet(info[0])[1]
    return info[1], info[2]


def _d_best(info, rows: np.ndarray, c: np.ndarray, n: int) -> tuple[int, float]:
    """D: the largest log det(M + c_g r_g r_g'/(n + 1)), through the variance r_g'M^-1 r_g."""
    m_inv, m_logdet = _inverse(info)
    gain = c * np.einsum("gk,gk->g", rows @ m_inv, rows)
    g = int(np.argmax(gain))
    return g, float(m_logdet + np.log1p((1.0 / (n + 1.0)) * gain[g]))


def _a_best(info, rows: np.ndarray, c: np.ndarray, n: int) -> tuple[int, float]:
    """A: the smallest trace of (M + c_g r_g r_g'/(n + 1))^-1."""
    return _lowest(_sherman_morrison(_inverse(info)[0], rows, (1.0 / (n + 1.0)) * c)[2])


def _trace_r_best(bias: BiasSpec, p: int, info, rows: np.ndarray, c: np.ndarray, n: int) -> tuple[int, float]:
    """traceR: the smallest bias-aware trace, on the unnormalized selection matrix n M / sigma^2."""
    s2 = bias.sigma ** 2
    return _lowest(_trace_r_scores(info[0] * n / s2, rows, c / s2, p, bias))


def _pick_scorer(cfg: SeqConfig, p: int, grid: CandidateGrid, rows_grid: np.ndarray, grid_s: np.ndarray,
                 logistic: bool):
    """(best, count) of cfg.utility: the one place the loop's utility is chosen.

    best(info, theta, n) is the (grid index, value) of the best one-point
    augmentation of the n selected rows; count(cols) adds the rows whose
    matching coordinates are the columns of `cols` to the scorer's state.
    Inu and Dnu count each selected row at its nearest grid cell, exactly in
    float64, and score counts / n: equal Q rows with equal counts tie in bits.
    """
    if cfg.utility in ("Inu", "Dnu"):
        augmenter = _RobustAugmenter(RobustContext(rows_grid, cfg.nu, grid), cfg.utility)
        counts = np.zeros(grid_s.shape[0])
        grid_cols = np.ascontiguousarray(grid_s.T)

        def count(cols: np.ndarray) -> None:
            for col in cols.T:
                counts[int(np.argmin(_sq_dists(grid_cols, col)))] += 1.0

        return (lambda info, theta, n: augmenter.best(counts / n, n)), count
    score = {"D": _d_best, "A": _a_best, "traceR": partial(_trace_r_best, cfg.bias, p)}[cfg.utility]
    ones = np.ones(rows_grid.shape[0])

    def best(info, theta: np.ndarray, n: int) -> tuple[int, float]:
        return score(info, rows_grid, _logistic_terms(rows_grid @ theta)[2] if logistic else ones, n)

    return best, lambda cols: None


# ---------------------------------------------------------------------------
# nearest-row transfer

# Entries the stored nearest-row orders may hold in all (32 MB as int32);
# past it a transfer scans every row instead.
_QUEUE_BUDGET = 8_000_000
# Length of the first stored prefix of a grid point's order; it grows 4-fold
# whenever the rows it holds are all selected.
_QUEUE_PREFIX = 256


def _sq_dists(cols: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distances of the columns of the d x N array `cols` to `point`.

    The bytes of ((c - point)**2).sum(axis=1) on the N x d rows c: numpy adds up to 7 terms of a row
    in order, as this pass does one coordinate at a time; for d >= 8 it unrolls the sum, so rows are
    summed as rows."""
    d = cols.shape[0]
    if d >= 8:
        return (np.subtract(cols.T, point, order="C") ** 2).sum(axis=1)
    dist = cols[0] - point[0]
    dist *= dist
    term = np.empty_like(dist)
    for j in range(1, d):
        np.subtract(cols[j], point[j], out=term)
        term *= term
        dist += term
    return dist


class _NearestRows:
    """The nearest not-yet-selected data rows to a grid point.

    The rows' coordinates are the columns of a contiguous d x N array, so each
    distance pass (`_sq_dists`) runs over contiguous N-vectors.  `scan`
    computes the squared distances of every row to the point, masks the
    selected rows and takes the lowest ones, ties to the lowest row index.
    `take` returns the same rows from a queue: the first time a point is
    chosen it stores a prefix of the stable argsort of those distances (every
    row at most as far as the `_QUEUE_PREFIX`-th nearest, found with one partition)
    and a cursor, and every later choice takes the next entries not yet
    selected, growing the prefix 4-fold when it runs out.  Entries before the
    cursor are all selected and rows beyond the prefix are farther than all in
    it, so the result is exact.  Once the stored prefixes would exceed
    `_QUEUE_BUDGET` entries, `take` scans.
    """

    def __init__(self, cols: np.ndarray, points: np.ndarray):
        self.cols = cols
        self.points = points
        self.stored = 0
        self.queues: dict[int, tuple[np.ndarray, int]] = {}  # grid index -> (order prefix, cursor)
        self.dtype = np.int32 if cols.shape[1] < 2**31 else np.int64

    def _dist(self, g: int) -> np.ndarray:
        return _sq_dists(self.cols, self.points[g])

    def _prefix(self, g: int, size: int) -> np.ndarray:
        """At least `size` leading entries of the stable argsort of the distances."""
        dist = self._dist(g)
        if size < dist.size:
            rows = np.flatnonzero(dist <= np.partition(dist, size - 1)[size - 1])
            return rows[np.argsort(dist[rows], kind="stable")].astype(self.dtype)
        return np.argsort(dist, kind="stable").astype(self.dtype)

    def scan(self, g: int, m: int, in_sel: np.ndarray) -> np.ndarray:
        dist = self._dist(g)
        dist[in_sel] = np.inf
        if m == 1:
            return np.array([np.argmin(dist)])
        return np.argsort(dist, kind="stable")[:m]

    def take(self, g: int, m: int, in_sel: np.ndarray) -> np.ndarray:
        """The m rows `scan` returns; at least m rows must be unselected."""
        order, pos = self.queues.get(g, (np.empty(0, dtype=self.dtype), 0))
        held = order.size
        free = np.flatnonzero(~in_sel[order[pos:]])[:m]
        while free.size < m and order.size < in_sel.size:
            order = self._prefix(g, max(_QUEUE_PREFIX, 4 * order.size))
            if self.stored + order.size - held > _QUEUE_BUDGET:
                return self.scan(g, m, in_sel)
            free = np.flatnonzero(~in_sel[order[pos:]])[:m]
        self.stored += order.size - held
        self.queues[g] = (order, pos + int(free[-1]) + 1)
        return order[pos + free]


# ---------------------------------------------------------------------------
# main loop


def run_sequential(data, grid: CandidateGrid, spec: ModelSpec, cfg: SeqConfig):
    """Run the sequential selection; returns (SubsampleSelection, SeqTrace)."""
    feats, confs = data_columns(data)
    n_rows = feats.shape[0]
    y = getattr(data, "response", None)
    if y is None:
        raise InvalidInputError("sequential selection needs a response column")
    y = np.asarray(y, dtype=float).ravel()
    if cfg.n_target > n_rows:
        raise InvalidInputError(f"n_target {cfg.n_target} exceeds the {n_rows} data rows")
    if cfg.n_init < spec.k_total:
        raise InvalidInputError(f"n_init {cfg.n_init} is below the model's {spec.k_total} terms")
    if cfg.bias is not None and (cfg.bias.psi.size != spec.m or cfg.bias.phi.size != spec.q):
        raise InvalidInputError(
            f"bias needs {spec.m} psi and {spec.q} phi coefficients (one per h and g term), "
            f"got {cfg.bias.psi.size} and {cfg.bias.phi.size}"
        )

    # matching space: covariates plus confounder coords when the grid has them
    if grid.z_dim > 0:
        if confs is None or confs.shape[1] != grid.z_dim:
            raise InvalidInputError("grid has z axes but data has no matching confounder columns")
        coords = np.hstack([feats, confs])
    else:
        coords = feats
    if coords.shape[1] != grid.dim:
        raise InvalidInputError(
            f"grid dimension {grid.dim} does not match data dimension {coords.shape[1]}"
        )

    scale = coords.std(axis=0, ddof=1) if cfg.distance == "scaled" else np.ones(coords.shape[1])
    flat = np.flatnonzero(scale <= 0.0)
    if flat.size:
        raise DegenerateColumnError(f"constant column {int(flat[0])} cannot be distance-scaled")
    cols_s = np.array(coords.T, order="C")  # the scaled coordinates, column-major (see _NearestRows)
    cols_s /= scale[:, None]
    grid_s = grid.points / scale

    family = cfg.family
    if family == "auto":
        family = "logistic" if np.all((y == 0.0) | (y == 1.0)) else "linear"

    rows_data = model_matrix(spec, feats, confs if spec.q > 0 else None)
    rows_grid = model_matrix(spec, grid.x_part(), grid.z_part())
    k = spec.k_total
    score, count = _pick_scorer(cfg, spec.p, grid, rows_grid, grid_s, family == "logistic")

    rng = CounterRng(cfg.seed)
    names = getattr(data, "feature_names", None)
    selected, extra_fit = _initial_indices(rng, cfg, feats, y, names, family)
    in_sel = np.zeros(n_rows, dtype=bool)
    in_sel[selected] = True

    # initial fit, doubling the sample on singular/separated failures
    fitter = fit_logistic if family == "logistic" else fit_ols
    while True:
        fit_idx = selected + extra_fit
        try:
            fit = fitter(rows_data[fit_idx], y[fit_idx])
            break
        except (SingularMatrixError, SeparationError):
            if len(selected) >= cfg.n_target:
                raise
            want = min(len(selected), cfg.n_target - len(selected))
            rest = np.flatnonzero(~in_sel)
            more = rng.sample_indices(rest.size, want)
            for i in more:
                selected.append(int(rest[i]))
                in_sel[rest[i]] = True

    # the selection in order, with its model rows and responses, in
    # preallocated buffers whose first n_sel entries are filled
    n_sel = len(selected)
    sel_idx = np.empty(cfg.n_target, dtype=np.int64)
    sel_rows = np.empty((cfg.n_target, k))
    sel_y = np.empty(cfg.n_target)
    sel_idx[:n_sel] = selected
    sel_rows[:n_sel] = rows_data[selected]
    sel_y[:n_sel] = y[selected]
    # the same rows for the logistic refits, which keep their sums in it
    held = LogisticRows(k, cfg.n_target) if family == "logistic" else None
    if held is not None:
        held.append(sel_rows[:n_sel], sel_y[:n_sel])

    def refit(theta0: np.ndarray) -> tuple[FitResult, bool]:
        """Fit of the current selection, and whether it continued from theta0
        (see the module docstring: a one-label sample has no MLE, so its start
        point would pick the answer)."""
        ys = sel_y[:n_sel]
        if family != "logistic":
            return fit_ols(sel_rows[:n_sel], ys), False
        if ys.min() < ys.max():
            try:
                warm = fit_logistic(held, theta0=theta0)
            except (SingularMatrixError, SeparationError):
                warm = None
            if warm is not None and warm.converged:
                return warm, True
        return fit_logistic(held), False

    def working_info(theta: np.ndarray, fit: FitResult | None = None):
        """(M, M^-1, log det M) of the working information matrix M of the
        selection at theta.  The inverse and log det come from `fit` when it
        is a logistic refit of exactly these rows, and are None otherwise."""
        if fit is not None and fit.covariance is not None:
            return (fit.information / n_sel, n_sel * fit.covariance,
                    fit.information_logdet - k * np.log(n_sel))
        if family == "logistic":
            info = held.evaluate(theta)[2]
        else:
            xs = sel_rows[:n_sel]
            info = xs.T @ xs
        mat = info / n_sel
        return (mat + mat.T) / 2.0, None, None

    info = working_info(fit.theta)
    count(cols_s[:, selected])

    trace = SeqTrace(
        initial_indices=sel_idx[:n_sel].astype(int),
        initial_theta=fit.theta.copy(),
    )
    nearest = _NearestRows(cols_s, grid_s)
    fit_failures = 0

    while n_sel < cfg.n_target:
        n_c = n_sel
        best, util_val = score(info, fit.theta, n_c)

        # transfer the nearest unsampled data rows to the selection; n_target
        # <= n_rows leaves at least m_eff of them
        m_eff = min(cfg.batch_size, cfg.n_target - n_c)
        added = nearest.take(best, m_eff, in_sel)
        in_sel[added] = True
        n_sel = n_c + m_eff
        sel_idx[n_c:n_sel] = added
        sel_rows[n_c:n_sel] = rows_data[added]
        sel_y[n_c:n_sel] = y[added]
        if held is not None:
            held.append(sel_rows[n_c:n_sel], sel_y[n_c:n_sel])

        try:
            fit, warm = refit(fit.theta)
            newton_iters, converged = fit.iterations, fit.converged
            info = working_info(fit.theta, fit)
        except (SingularMatrixError, SeparationError):
            # keep the previous fit (its information on the new rows); the
            # step records a refit that failed
            fit_failures += 1
            warm, newton_iters, converged = False, 0, False
            info = working_info(fit.theta)
        count(cols_s[:, added])

        trace.steps.append(
            SeqStep(
                iteration=len(trace.steps) + 1,
                grid_index=best,
                grid_point=grid.points[best].copy(),
                data_indices=added.astype(int),
                utility=util_val,
                theta=fit.theta.copy(),
                n_selected=n_sel,
                newton_iters=newton_iters,
                converged=converged,
                warm=warm,
            )
        )

        if cfg.stop_rule == "utility_gain_below" and len(trace.steps) > 1:
            if abs(util_val - trace.steps[-2].utility) < cfg.stop_epsilon:
                trace.stop_reason = "utility_gain_below"
                break

    trace.final_fit = fit
    checksum = hashlib.sha256(sel_idx[:n_sel].tobytes()).hexdigest()
    selection = SubsampleSelection(
        indices=sel_idx[:n_sel].astype(int),
        algorithm="sequential",
        provenance={
            "utility": cfg.utility,
            "family": family,
            "n_init": cfg.n_init,
            "n_target": cfg.n_target,
            "batch_size": cfg.batch_size,
            "init_strategy": cfg.init_strategy,
            "seed": cfg.seed,
            "stop_reason": trace.stop_reason,
            "fit_failures": fit_failures,
            "indices_sha256": checksum,
        },
    )
    return selection, trace
