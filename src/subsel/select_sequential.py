"""Sequential design-guided subsampling.

Starting from a seeded initial subsample, each iteration scores every
candidate grid point by the improvement a one-point design augmentation
would bring under the configured utility, picks the best candidate (ties to
the lowest grid index), transfers the nearest not-yet-selected data rows to
the selection, and refits the working model.  For a 0/1 response the fit is
logistic and all information matrices carry the pi(1-pi) weights of the
current fit; otherwise the fit is least squares and weights are 1.

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

Utilities:

* ``D``      maximize det(M + w c row row') via the variance function,
* ``A``      minimize trace of the inverse of the augmented matrix,
* ``Inu``/``Dnu``  minimize the robust loss of the augmented grid measure,
* ``traceR`` minimize the bias-aware trace criterion (needs a BiasSpec).

D, A and traceR invert one matrix per step (the full working matrix, or for
traceR its M11 block) and score every candidate as a rank-one update of
that inverse (Sherman-Morrison); a singular or ill-conditioned matrix
raises SingularMatrixError.  The inverse comes from the logistic refit of
the step before, or else from `criteria._sym_inverse`.

The working regression inside the loop uses the full evaluated row (f, h, g
blocks concatenated), so augmentation always sees the full information
matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .criteria import _robust_kernel, _sym_inverse
from .errors import (
    EIG_FLOOR,
    DegenerateColumnError,
    ExhaustionError,
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
    json_ready,
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
    init_column: int | str | None = None
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
        if self.utility == "traceR" and self.bias is None:
            raise InvalidInputError("traceR utility needs a BiasSpec")
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

    def to_json_dict(self) -> dict:
        return json_ready(vars(self))


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

    def to_json_dict(self) -> dict:
        return json_ready(vars(self))


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

    Bin edges come from the `edge_pool` rows (e.g. the rare-label rows of a
    binary response, so strata concentrate where the response varies), but
    membership and sampling run over every row: the selection depends on the
    covariate only, which keeps downstream estimates free of selection bias.
    """
    picked: list[int] = []
    if edge_pool.size:
        edges = _linear_quantiles(values[edge_pool], n_quantiles)
        bins = np.searchsorted(edges[1:-1], values, side="right")
        members = [np.flatnonzero(bins == b).tolist() for b in range(n_quantiles)]
        # round r visits, in bin order, every bin with more than r members and
        # draws below its remaining size; neither depends on the draws
        sizes = np.array([len(m) for m in members])
        visit_round, visit_bin = np.nonzero(sizes > np.arange(min(n_init, sizes.max()))[:, None])
        visit_round, visit_bin = visit_round[:n_init], visit_bin[:n_init]
        draws = rng.randbelow_many(sizes[visit_bin] - visit_round)
        picked = [members[b].pop(at) for b, at in zip(visit_bin.tolist(), draws.tolist())]
    if len(picked) < n_init:
        free = np.ones(values.size, dtype=bool)
        free[picked] = False
        rest = np.flatnonzero(free)
        fill = rng.sample_indices(rest.size, n_init - len(picked))
        picked.extend(int(rest[i]) for i in fill)
    return picked


def _initial_indices(rng: CounterRng, cfg: SeqConfig, coords: np.ndarray,
                     y: np.ndarray, feature_names, family: str) -> tuple[list[int], list[int]]:
    """Initial retained rows and the rows used to train the first estimate.

    Both lists are usually identical.  The dope strategy differs: rows whose
    response equals the label enrich the training list so the first estimate
    is informed, but the retained subset stays response-blind.  Retaining
    rows because of their own response would bias every later estimate (the
    forced rows' score terms no longer average to zero), which is also why
    the stratified strategy takes only its bin edges from the labeled rows.
    """
    n = coords.shape[0]
    if cfg.init_strategy == "random":
        retained = [int(i) for i in rng.sample_indices(n, cfg.n_init)]
        return retained, retained
    if cfg.init_strategy == "dope":
        retained = [int(i) for i in rng.sample_indices(n, cfg.n_init)]
        doped = np.flatnonzero(y == cfg.init_label)
        fit_rows = sorted(set(retained).union(int(i) for i in doped))
        return retained, fit_rows
    # stratified
    col = cfg.init_column
    if isinstance(col, str):
        if feature_names is None or col not in feature_names:
            raise InvalidInputError(f"unknown init_column {col!r}")
        col = list(feature_names).index(col)
    col = int(col)
    if not 0 <= col < coords.shape[1]:
        raise InvalidInputError("init_column is out of range")
    # for a binary response, focus the bins where the rare label lives
    edge_pool = np.flatnonzero(y == 1.0) if family == "logistic" else np.arange(n)
    if edge_pool.size == 0:
        edge_pool = np.arange(n)
    retained = _stratified_init(rng, coords[:, col], edge_pool, cfg.n_init, cfg.init_quantiles)
    return retained, retained


# ---------------------------------------------------------------------------
# candidate scoring


# Relative rounding margin of the Dnu eigenvalue bounds (see _dnu_keep).
_BOUND_MARGIN = 32.0 * np.finfo(float).eps


def _plus_outer(base: np.ndarray, x: np.ndarray, u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """base + x u' + u x' + k u u' for every row of x, u and k."""
    xu = x[:, :, None] * u[:, None, :]
    return base + xu + np.swapaxes(xu, 1, 2) + k[:, None, None] * (u[:, :, None] * u[:, None, :])


def _dnu_keep(base: np.ndarray, x: np.ndarray, u: np.ndarray, k: np.ndarray, score) -> np.ndarray:
    """Mask of the candidates that eigenvalue bounds cannot rule out of the smallest score.

    The score of candidate g is score(lambda_max(M_g)), nondecreasing in
    lambda, with M_g = `_plus_outer(base, x, u, k)` row g.  With (l1, v) the
    top eigenpair of base and tau = k|u|^2 + 2 u.x, O(p) work per candidate
    bounds lambda_max(M_g):

    * below by the larger Rayleigh quotient of v and of u/|u|:
      l1 + 2 (v.x)(v.u) + k (v.u)^2 and u'base u/|u|^2 + tau;
    * above by Weyl's inequality, l1 plus the top eigenvalue of the rank-two
      update, tau/2 + sqrt(tau^2/4 + |u|^2 |x|^2 - (u.x)^2); the root is
      taken as hypot(tau/2, |u| |r|) with r = x - (u.x/|u|^2) u, which
      avoids the cancellation of the difference.

    Both bounds are widened by _BOUND_MARGIN p (||base|| + 2|u||x| + |k||u|^2),
    which covers the rounding of forming M_g and of its eigvalsh, and the
    smallest upper-bound score by the relative _BOUND_MARGIN, which covers
    the rounding of the score's power.  A candidate is kept when its
    lower-bound score is at most the smallest upper-bound score, when a
    bound's score is not finite (NaN for a negative power base), or when
    u = 0.
    """
    eigs, vecs = np.linalg.eigh(base)
    l1, v = eigs[-1], vecs[:, -1]
    uu = np.einsum("gi,gi->g", u, u)
    ux = np.einsum("gi,gi->g", u, x)
    tau = k * uu + 2.0 * ux
    vu, vx = u @ v, x @ v
    safe = np.where(uu > 0.0, uu, 1.0)
    lower = np.maximum(l1 + 2.0 * vx * vu + k * vu * vu, np.einsum("gi,gi->g", u @ base, u) / safe + tau)
    r = x - (ux / safe)[:, None] * u
    upper = l1 + 0.5 * tau + np.hypot(0.5 * tau, np.sqrt(uu * np.einsum("gi,gi->g", r, r)))
    margin = _BOUND_MARGIN * base.shape[0] * (
        np.abs(eigs).max() + 2.0 * np.sqrt(uu * np.einsum("gi,gi->g", x, x)) + np.abs(k) * uu)
    with np.errstate(invalid="ignore"):  # a negative power base gives NaN: kept below
        lo, hi = score(lower - margin), score(upper + margin)
    finite = np.isfinite(lo) & np.isfinite(hi)
    cut = np.min(hi, where=finite, initial=np.inf) * (1.0 + _BOUND_MARGIN)
    return ~(lo > cut) | ~finite | (uu == 0.0)


class _RobustAugmenter:
    """Batched robust-loss evaluation of one-point measure augmentations.

    With n the selection size, c = n/(n+1), A = Q'D(xi)Q, B1 = Q'D(xi^2)Q and
    b_g = (2 n xi_g + 1)/n^2, adding grid row q_g gives the rank-one updates
    R_g = c (A + q_g q_g'/n) and B_g = c^2 (B1 + b_g q_g q_g').
    `criteria._robust_kernel` evaluates A once per step.  With W = A^-1/2,
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

    Only the smallest Dnu score is used, so `best` decomposes only the
    candidates that cheap eigenvalue bounds cannot rule out (`_dnu_keep`:
    Rayleigh quotients below, Weyl's inequality above, both widened by a
    rounding margin of a few tens of eps times the matrices' scale).  Each
    kept candidate goes through the same eigvalsh as in `candidate_values`,
    so `best` returns the argmin of `candidate_values` and its value, bit
    for bit.  Inu is scored in full.

    A singular current measure (smallest eigenvalue below the kernel's
    `errors.EIG_FLOOR`, e.g. fewer than p support points) has no W; then
    every R_g is decomposed on its own, and a candidate whose smallest
    eigenvalue is below the same floor scores inf.
    """

    def __init__(self, rows_grid: np.ndarray, nu: float, kind: str):
        self.q, _ = np.linalg.qr(rows_grid)
        self.nu = nu
        self.kind = kind
        self.p = self.q.shape[1]
        self.outer = None  # q_g q_g' per candidate, built for a singular base only

    def candidate_values(self, xi: np.ndarray, n: int) -> np.ndarray:
        """The score of every candidate."""
        return self._scores(xi, n, prune=False)[1]

    def best(self, xi: np.ndarray, n: int) -> tuple[int, float]:
        """(index, value) of the smallest score, ties to the lowest index."""
        idx, vals = self._scores(xi, n, prune=True)
        at = int(np.argmin(vals))
        return int(idx[at]), float(vals[at])

    def _scores(self, xi: np.ndarray, n: int, prune: bool) -> tuple[np.ndarray, np.ndarray]:
        """(candidate indices, their scores): every candidate, or with `prune`
        the Dnu candidates the bounds keep, in ascending order."""
        idx = np.arange(self.q.shape[0])
        try:
            support = np.flatnonzero(xi)
            parts = _robust_kernel(self.q[support], xi[support])
        except SingularMatrixError:
            return idx, self._singular_base_values(xi, n)
        q, p, nu = self.q, self.p, self.nu
        a = 1.0 / n
        w = parts.inv_root
        c_mat = w @ parts.b2 @ w
        u = q @ w
        t2 = 1.0 + a * np.einsum("gi,gi->g", u, u)
        t = np.sqrt(t2)
        beta = -a / (t * (1.0 + t))
        cu = u @ c_mat

        # G = _plus_outer(C, x, u, k)
        x = beta[:, None] * cu
        k = beta * beta * np.einsum("gi,gi->g", cu, u) + (2.0 * n * xi + 1.0) * (a * a) / t2
        if self.kind == "Inu":
            pw = w + beta[:, None, None] * (u[:, :, None] * (u @ w)[:, None, :])
            lam = np.linalg.eigvalsh(np.swapaxes(pw, 1, 2) @ (_plus_outer(c_mat, x, u, k) @ pw))[:, -1]
            trace = np.einsum("gij,gij->g", pw, pw) * ((n + 1.0) / n)
            return idx, (1.0 - nu) * trace + nu * lam
        # G - P^-1 A P^-1 = _plus_outer(C - A, x, u, k) after these updates
        gamma = a / (1.0 + t)
        au = u @ parts.r
        x -= gamma[:, None] * au
        k -= gamma * gamma * np.einsum("gi,gi->g", au, u)
        c = n / (n + 1.0)
        base = c_mat - parts.r
        det_r = c**p * np.prod(parts.r_eigs) * t2

        def score(lam, at=slice(None)):  # the Dnu score of candidates `at` with lambda_max(M_g) = lam
            return ((1.0 - nu + nu * (c * lam)) / det_r[at]) ** (1.0 / p)

        if prune:
            idx = np.flatnonzero(_dnu_keep(base, x, u, k, score))
        return idx, score(np.linalg.eigvalsh(_plus_outer(base, x[idx], u[idx], k[idx]))[:, -1], idx)

    def _singular_base_values(self, xi: np.ndarray, n: int) -> np.ndarray:
        """Per-candidate decomposition of every R_g (singular current measure)."""
        q, p, nu = self.q, self.p, self.nu
        if self.outer is None:
            self.outer = np.einsum("gi,gj->gij", q, q)
        a1 = (q * xi[:, None]).T @ q
        b1 = (q * (xi * xi)[:, None]).T @ q
        denom = n + 1.0
        r_all = (n * a1[None, :, :] + self.outer) / denom
        b_all = (n * n * b1[None, :, :] + (2.0 * n * xi + 1.0)[:, None, None] * self.outer) / (denom * denom)
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
        # the power only where R_g is regular: a singular one can have det < 0
        base = (1.0 - nu + nu * lam) / np.prod(safe, axis=1)
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


# ---------------------------------------------------------------------------
# nearest-row transfer

# Entries the stored nearest-row orders may hold in all (32 MB as int32);
# past it a transfer scans every row instead.
_QUEUE_BUDGET = 8_000_000
# Length of the first stored prefix of a grid point's order; it grows 4-fold
# whenever the rows it holds are all selected.
_QUEUE_PREFIX = 256


class _NearestRows:
    """The nearest not-yet-selected data rows to a grid point.

    `scan` computes the squared distances of every row to the point, masks
    the selected rows and takes the lowest ones, ties to the lowest row
    index.  `take` returns the same rows from a queue: the first time a
    point is chosen it stores a prefix of the stable argsort of those
    distances (every row at most as far as the `prefix`-th nearest, found
    with one partition) and a cursor, and every later choice takes the next
    entries not yet selected, growing the prefix 4-fold when it runs out.
    Entries before the cursor are all selected and rows beyond the prefix
    are farther than all in it, so the result is exact.  Once the stored
    prefixes would exceed `budget` entries, `take` scans.
    """

    def __init__(self, coords: np.ndarray, points: np.ndarray, budget: int = _QUEUE_BUDGET,
                 prefix: int = _QUEUE_PREFIX):
        self.coords = coords
        self.points = points
        self.budget = budget
        self.prefix = prefix
        self.stored = 0
        self.queues: dict[int, tuple[np.ndarray, int]] = {}  # grid index -> (order prefix, cursor)
        self.dtype = np.int32 if coords.shape[0] < 2**31 else np.int64

    def _dist(self, g: int) -> np.ndarray:
        return ((self.coords - self.points[g]) ** 2).sum(axis=1)

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
        free = np.flatnonzero(~in_sel[order[pos:]])[:m]
        while free.size < m and order.size < in_sel.size:
            grown = self._prefix(g, max(self.prefix, 4 * order.size))
            if self.stored + grown.size - order.size > self.budget:
                return self.scan(g, m, in_sel)
            self.stored += grown.size - order.size
            order = grown
            free = np.flatnonzero(~in_sel[order[pos:]])[:m]
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

    if cfg.distance == "scaled":
        sd = coords.std(axis=0, ddof=1)
        flat = np.flatnonzero(sd <= 0.0)
        if flat.size:
            raise DegenerateColumnError(f"constant column {int(flat[0])} cannot be distance-scaled")
        scale = sd
    else:
        scale = np.ones(coords.shape[1])
    coords_s = coords / scale
    grid_s = grid.points / scale

    family = cfg.family
    if family == "auto":
        family = "logistic" if np.all((y == 0.0) | (y == 1.0)) else "linear"

    rows_data = model_matrix(spec, feats, confs if spec.q > 0 else None)
    rows_grid = model_matrix(spec, grid.x_part(), grid.z_part())
    k = spec.k_total

    rng = CounterRng(cfg.seed)
    names = getattr(data, "feature_names", None)
    selected, init_fit_rows = _initial_indices(rng, cfg, feats, y, names, family)
    # training-only enrichment rows (dope): inform the first estimate without
    # entering the retained subset
    extra_fit = sorted(set(init_fit_rows) - set(selected))
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
        """Fit of the current selection, and whether it was warm-started.

        A logistic refit continues from theta0; it falls back to a cold
        start from 0 when that fit raises or ends unconverged.  A one-label
        sample has no MLE, so the start point would pick the answer: it is
        always fitted cold.
        """
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

    m_emp, m_inv, m_logdet = working_info(fit.theta)
    robust = None
    xi = None
    if cfg.utility in ("Inu", "Dnu"):
        robust = _RobustAugmenter(rows_grid, cfg.nu, cfg.utility)
        xi = np.zeros(grid.n_points)
        for i in selected:
            g = int(np.argmin(((grid_s - coords_s[i]) ** 2).sum(axis=1)))
            xi[g] += 1.0
        xi /= n_sel

    trace = SeqTrace(
        initial_indices=sel_idx[:n_sel].astype(int),
        initial_theta=fit.theta.copy(),
    )
    nearest = _NearestRows(coords_s, grid_s)
    fit_failures = 0
    prev_utility = None
    stop_reason = "n_reached"
    iteration = 0

    while n_sel < cfg.n_target:
        iteration += 1
        n_c = n_sel
        w_new = 1.0 / (n_c + 1.0)
        if family == "logistic":
            c_grid = _logistic_terms(rows_grid @ fit.theta)[2]
        else:
            c_grid = np.ones(grid.n_points)
        if cfg.utility in ("D", "A") and m_inv is None:
            m_inv, _ = _sym_inverse(m_emp, "working information matrix")
            m_logdet = np.linalg.slogdet(m_emp)[1]

        if cfg.utility == "D":
            gain = c_grid * np.einsum("gk,gk->g", rows_grid @ m_inv, rows_grid)
            best = int(np.argmax(gain))
            util_val = float(m_logdet + np.log1p(w_new * gain[best]))
        elif cfg.utility in ("A", "traceR"):
            if cfg.utility == "A":
                scores = _sherman_morrison(m_inv, rows_grid, w_new * c_grid)[2]
            else:
                # the criterion lives on the unnormalized selection matrix / sigma^2
                s2 = cfg.bias.sigma ** 2
                scores = _trace_r_scores(m_emp * n_c / s2, rows_grid, c_grid / s2, spec.p, cfg.bias)
            best = int(np.argmin(scores))
            util_val = float(scores[best])
        else:
            best, util_val = robust.best(xi, n_c)

        # transfer the nearest unsampled data rows to the selection
        m_eff = min(cfg.batch_size, cfg.n_target - n_c)
        avail = int(n_rows - n_c)
        if avail < m_eff:
            raise ExhaustionError(
                f"only {avail} selectable rows remain, need {m_eff}", iteration=iteration
            )
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
            m_emp, m_inv, m_logdet = working_info(fit.theta, fit)
        except (SingularMatrixError, SeparationError):
            # keep the previous fit (its information on the new rows); the
            # step records a refit that failed
            fit_failures += 1
            warm, newton_iters, converged = False, 0, False
            m_emp, m_inv, m_logdet = working_info(fit.theta)
        if xi is not None:
            xi = xi * n_c
            for i in added:
                g = int(np.argmin(((grid_s - coords_s[i]) ** 2).sum(axis=1)))
                xi[g] += 1.0
            xi /= n_sel

        trace.steps.append(
            SeqStep(
                iteration=iteration,
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

        if cfg.stop_rule == "utility_gain_below" and prev_utility is not None:
            if abs(util_val - prev_utility) < cfg.stop_epsilon:
                stop_reason = "utility_gain_below"
                break
        prev_utility = util_val

    trace.final_fit = fit
    trace.stop_reason = stop_reason
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
            "stop_reason": stop_reason,
            "fit_failures": fit_failures,
            "indices_sha256": checksum,
        },
    )
    return selection, trace
