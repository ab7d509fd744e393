"""Design criteria: classical optimality values, optimality verification,
minimax-robust losses, and bias/confounder-aware variants.

Conventions used throughout:

* The variance function of a measure xi at a candidate point is
  d(x, z) = row' M(xi)^-1 row with row = (f(x), h(x), g(z)).
* A measure supported on k_eff informative directions is optimal exactly
  when max over the grid of d equals k_eff; the check is two-sided because
  the weighted average of d over the support always equals the rank.
* Matrices that must be inverted go through a guarded symmetric eigensolve:
  condition number above 1e12 (or a non-positive eigenvalue) raises
  SingularMatrixError carrying the smallest eigenvalue; the robust gram
  matrix R = Q'D(xi)Q raises when that eigenvalue is below 1e-12.  Nothing
  is ever silently regularized; a fudged inverse would corrupt optimality
  verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EIG_FLOOR, ConfigError, InvalidInputError, SingularMatrixError, check_conditioning
from .model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    InformationMatrix,
    ModelSpec,
    as_columns,
    information_matrix,
    model_matrix,
)

_RANK_TOL = 1e-9
_TIE_TOL = 1e-10
_MONTEPIEDRA_TOL = 1e-9

CRITERION_NAMES = ("D", "I", "A", "Inu", "Dnu", "traceR", "detR_bias", "detR_conf")


@dataclass(frozen=True)
class CriterionValue:
    """A named criterion value plus its diagnostics (`meta`, any value `json_ready` takes)."""

    name: str
    value: float
    meta: dict

    def __post_init__(self):
        if self.name not in CRITERION_NAMES:
            raise InvalidInputError(f"unknown criterion {self.name!r}")


def _sym_inverse(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of a symmetric PSD matrix with a hard condition guard.

    Returns (inverse, eigenvalues ascending).  Raises SingularMatrixError
    when the smallest eigenvalue is non-positive or cond exceeds COND_LIMIT
    (`check_conditioning`).
    """
    sym = (mat + mat.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    check_conditioning(eigvals, what)
    inv = (eigvecs / eigvals) @ eigvecs.T
    return (inv + inv.T) / 2.0, eigvals


def effective_rank(m: InformationMatrix) -> int:
    """Count of eigenvalues above _RANK_TOL * ||M||_2 (the default k_eff)."""
    eigs = np.linalg.eigvalsh(m.full)
    scale = max(float(eigs[-1]), 0.0)
    if scale == 0.0:
        return 0
    return int(np.sum(eigs > _RANK_TOL * scale))


# ---------------------------------------------------------------------------
# classical values


def variance_profile(spec: ModelSpec, design: DesignMeasure, grid: CandidateGrid) -> np.ndarray:
    """Variance function evaluated at every grid point (vectorized)."""
    m = information_matrix(spec, design)
    minv, _ = _sym_inverse(m.full, "information matrix")
    rows = model_matrix(spec, grid.x_part(), grid.z_part())
    return np.einsum("ij,jk,ik->i", rows, minv, rows)


def d_criterion(m: InformationMatrix) -> CriterionValue:
    """log det M, with value -inf (and meta flag) for singular M.

    meta's det is None when exp(log det) overflows a float (log det above
    about 709.78), so the record stays strict JSON.
    """
    sign, logdet = np.linalg.slogdet(m.full)
    if sign <= 0.0 or not np.isfinite(logdet):
        return CriterionValue("D", float("-inf"), {"det": 0.0, "singular": True})
    return CriterionValue("D", float(logdet), {"det": exp_or_none(logdet), "singular": False})


def exp_or_none(log_value: float) -> float | None:
    """exp(log_value), or None when it overflows a float, so a record holding it stays strict JSON."""
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    return value if math.isfinite(value) else None


def a_criterion(m: InformationMatrix) -> CriterionValue:
    """Trace of the inverse of the full information matrix."""
    minv, eigvals = _sym_inverse(m.full, "information matrix")
    return CriterionValue("A", float(np.trace(minv)), {"smallest_eigenvalue": float(eigvals[0])})


def i_criterion(spec: ModelSpec, design: DesignMeasure, grid: CandidateGrid) -> CriterionValue:
    """Total prediction variance over the candidate grid (sum of d values)."""
    prof = variance_profile(spec, design, grid)
    total = float(prof.sum())
    return CriterionValue("I", total, {"mean": total / grid.n_points, "n_grid": grid.n_points})


# ---------------------------------------------------------------------------
# optimality verification


@dataclass(frozen=True)
class GetVerdict:
    """Outcome of the equivalence-theorem check for a candidate measure."""

    is_optimal: bool
    max_variance: float
    bound: float
    worst_point: np.ndarray
    tolerance: float


def get_check(
    spec: ModelSpec,
    design: DesignMeasure,
    grid: CandidateGrid,
    k_eff: int | None = None,
    tol: float = 1e-6,
) -> GetVerdict:
    """Two-sided D-optimality check via the variance function.

    The measure is optimal on the grid exactly when the max of d over the
    grid equals k_eff; max < k_eff - tol is reported as non-optimal as well
    because it signals an inconsistent k_eff (the support average of d is
    always the matrix rank).  Ties on the argmax break to the lowest index.
    """
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    m = information_matrix(spec, design)
    if k_eff is None:
        k_eff = effective_rank(m)
    if k_eff < 1:
        raise InvalidInputError("k_eff must be at least 1")
    prof = variance_profile(spec, design, grid)
    worst = int(np.argmax(prof))
    max_d = float(prof[worst])
    ok = (max_d <= k_eff + tol) and (max_d >= k_eff - tol)
    return GetVerdict(
        is_optimal=bool(ok),
        max_variance=max_d,
        bound=float(k_eff),
        worst_point=grid.points[worst].copy(),
        tolerance=float(tol),
    )


# ---------------------------------------------------------------------------
# minimax-robust losses on a discrete grid


@dataclass(frozen=True)
class RobustContext:
    """Grid-level context for the robust losses.

    f_matrix holds the regression-basis rows over the grid (N x p, N > p);
    q_matrix, derived from it, is its orthonormal basis from the reduced QR.
    F must have rank p, counted from the singular values of QR's R factor
    (which are F's) with np.linalg.matrix_rank's default tolerance, so that
    Q spans the regression space.  nu in [0, 1] mixes variance (nu=0)
    against worst-case bias (nu=1).  grid is the candidate grid the rows
    were evaluated on, one point per row of F.
    """

    f_matrix: np.ndarray
    nu: float
    grid: CandidateGrid
    q_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        f = np.asarray(self.f_matrix, dtype=float)
        if f.ndim != 2:
            raise InvalidInputError("f_matrix must be a 2-D array")
        if f.shape[0] <= f.shape[1]:
            raise InvalidInputError("grid must have more points than basis terms")
        if not 0.0 <= self.nu <= 1.0:
            raise InvalidInputError("nu must lie in [0, 1]")
        if self.grid.n_points != f.shape[0]:
            raise InvalidInputError("the grid must have one point per row of f_matrix")
        qm, r = np.linalg.qr(f)
        rank = int(np.linalg.matrix_rank(r))
        if rank < f.shape[1]:
            raise InvalidInputError(f"f_matrix has rank {rank} over the grid, below its {f.shape[1]} basis terms")
        f.setflags(write=False)
        qm.setflags(write=False)
        object.__setattr__(self, "f_matrix", f)
        object.__setattr__(self, "q_matrix", qm)

    @property
    def n_grid(self) -> int:
        return self.f_matrix.shape[0]

    @property
    def p(self) -> int:
        return self.f_matrix.shape[1]

    @staticmethod
    def from_grid(spec: ModelSpec, grid: CandidateGrid, nu: float, full_rows: bool = False) -> "RobustContext":
        """Context over a candidate grid.

        By default only the f-block defines the regression; full_rows=True
        uses the whole (f, h, g) row as the regression basis instead.
        """
        rows = model_matrix(spec, grid.x_part(), grid.z_part())
        if not full_rows:
            rows = rows[:, : spec.p]
        return RobustContext(rows, nu, grid=grid)


def design_weights_on_grid(ctx: RobustContext, design: DesignMeasure) -> np.ndarray:
    """Express a measure as a weight vector over the context's grid points.

    Every design point (with its z part, if any) must match a grid point
    exactly; unmatched points raise ConfigError.
    """
    pts = ctx.grid.points
    lookup = {tuple(row): i for i, row in enumerate(pts)}
    w = np.zeros(pts.shape[0])
    d_pts = design.x_points
    if design.z_points is not None:
        d_pts = np.hstack([design.x_points, design.z_points])
    if d_pts.shape[1] != pts.shape[1]:
        raise InvalidInputError("design and grid dimensions differ")
    for i in range(d_pts.shape[0]):
        at = lookup.get(tuple(d_pts[i]))
        if at is None:
            raise ConfigError(f"design point {d_pts[i].tolist()} is not a grid point")
        w[at] += design.weights[i]
    return w


def top_eigenpair(sym: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a deterministically chosen unit eigenvector.

    When the top eigenvalue has multiplicity > 1 within _TIE_TOL, the vector
    is the lexicographically largest |v| among the tied columns, then
    sign-normalized so its first non-negligible component is positive.
    """
    eigvals, eigvecs = np.linalg.eigh((sym + sym.T) / 2.0)
    vals = eigvals.tolist()
    lam = vals[-1]
    thresh = _TIE_TOL * max(1.0, abs(lam))
    tied = [i for i, e in enumerate(vals) if abs(e - lam) <= thresh]
    # a single top column is taken as it is; among ties max keeps the first of the largest keys
    best = tied[0] if len(tied) == 1 else max(tied, key=lambda i: tuple(np.round(np.abs(eigvecs[:, i]), 12)))
    vec = eigvecs[:, best].copy()
    if next((c for c in vec.tolist() if abs(c) > 1e-12), 0.0) < 0:
        vec = -vec
    return lam, vec


class _RobustGram(NamedTuple):
    """R = Q'D(xi)Q and what the sequential one-point augmentations and the loss part read of it."""

    r: np.ndarray  # R
    r_eigs: np.ndarray  # eigenvalues of R, ascending, and their eigenvectors
    r_vecs: np.ndarray
    inv_root: np.ndarray  # R^-1/2
    b2: np.ndarray  # Q'D(xi^2)Q


class _RobustParts(NamedTuple):
    """What the robust losses and their gradient read of R: its gram part and the loss part.

    The loss part is the top eigenpair (lam, z) of the sandwich R^-1/2 B R^-1/2 - R, B = Q'D(xi^2)Q,
    which equals R^1/2 (U - I) R^1/2 for U = R^-1 B R^-1 but is formed without U, whose eigenproblem
    would square cond(R)."""

    gram: _RobustGram
    rinv: np.ndarray  # R^-1
    lam: float  # top eigenpair (lam, z) of R^-1/2 B R^-1/2 - R
    z: np.ndarray

    def dnu(self, nu: float) -> float:
        det_r = math.prod(self.gram.r_eigs.tolist())  # the same left-to-right product as np.prod
        return float(((1.0 - nu + nu * self.lam) / det_r) ** (1.0 / self.gram.r_eigs.size))


def _robust_gram(q: np.ndarray, xi: np.ndarray, iteration: int | None = None) -> _RobustGram:
    """The one evaluation of R, its eigendecomposition, R^-1/2 and Q'D(xi^2)Q, summed over the support:
    `q` and `xi` are its rows and positive weights in ascending grid order.  Raises SingularMatrixError
    when the smallest eigenvalue of R is below EIG_FLOOR; for orthonormal Q and simplex weights
    lambda_max(R) <= 1, so this rejects every R whose condition number exceeds COND_LIMIT."""
    r = (q * xi[:, None]).T @ q
    r_eigs, r_vecs = np.linalg.eigh((r + r.T) / 2.0)
    smallest = float(r_eigs[0])
    if smallest < EIG_FLOOR:
        where = "" if iteration is None else f" at iteration {iteration}"
        raise SingularMatrixError(f"weighted gram matrix R is singular{where} (smallest eigenvalue {smallest:.6e})",
                                  smallest_eigenvalue=smallest, iteration=iteration)
    inv_root = (r_vecs / np.sqrt(r_eigs)) @ r_vecs.T
    b2 = (q * (xi * xi)[:, None]).T @ q
    return _RobustGram(r, r_eigs, r_vecs, inv_root, b2)


def _robust_kernel(q: np.ndarray, xi: np.ndarray, iteration: int | None = None) -> _RobustParts:
    """The one evaluation of R and its functions behind every robust loss: the gram part `_robust_gram`
    (same arguments and errors), then R^-1 and the top eigenpair of R^-1/2 Q'D(xi^2)Q R^-1/2 - R, the
    sandwich form of R^1/2 (U - I) R^1/2."""
    g = _robust_gram(q, xi, iteration)
    rinv = (g.r_vecs / g.r_eigs) @ g.r_vecs.T
    lam, z = top_eigenpair(g.inv_root @ g.b2 @ g.inv_root - g.r)
    return _RobustParts(g, rinv, lam, z)


def wiens_losses(ctx: RobustContext, design) -> tuple[CriterionValue, CriterionValue]:
    """Robust I- and D-loss of a measure on the context grid.

    With R = Q'D(xi)Q, B = Q'D^2Q and U = R^-1 B R^-1:

        Inu = (1 - nu) tr(R^-1) + nu lambda_max(U)
        Dnu = ((1 - nu + nu lambda_max(R^-1/2 B R^-1/2 - R)) / det R)^(1/p)

    R^-1/2 B R^-1/2 - R equals R^1/2 (U - I) R^1/2 and is formed without U,
    which only Inu reads.

    `design` may be a DesignMeasure supported on the grid or a bare weight
    vector.  At nu = 0 both reduce to the classical I/D values of the
    induced measure (total prediction variance over the grid; a normalized
    determinant ratio).  The Dnu value is the one run_wiens reports for the
    same weights, bit for bit.
    """
    if isinstance(design, DesignMeasure):
        weights = design_weights_on_grid(ctx, design)
    else:
        weights = design
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != ctx.n_grid:
        raise InvalidInputError("weight vector length does not match the grid")
    if not np.all(w >= 0.0):  # also rejects NaN, which passes `w < 0` and the sum test
        raise InvalidInputError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InvalidInputError("weights must sum to 1 within 1e-12")
    support = np.flatnonzero(w)
    parts = _robust_kernel(ctx.q_matrix[support], w[support])
    nu = ctx.nu

    lam_u, vec_u = top_eigenpair(parts.rinv @ parts.gram.b2 @ parts.rinv)
    trace_rinv = float(np.trace(parts.rinv))
    i_val = (1.0 - nu) * trace_rinv + nu * lam_u

    meta_i = {"lambda_max": lam_u, "eigenvector": vec_u, "trace_Rinv": trace_rinv, "nu": nu}
    meta_d = {"lambda_max": parts.lam, "eigenvector": parts.z, "det_R": float(np.prod(parts.gram.r_eigs)), "nu": nu}
    return (
        CriterionValue("Inu", float(i_val), meta_i),
        CriterionValue("Dnu", parts.dnu(nu), meta_d),
    )


# ---------------------------------------------------------------------------
# bias-aware criteria


def _bias_blocks(m: InformationMatrix, bias: BiasSpec):
    if bias.psi.size != m.m:
        raise InvalidInputError(
            f"psi has length {bias.psi.size} but the model has m = {m.m}"
        )
    if bias.phi.size != m.q:
        raise InvalidInputError(
            f"phi has length {bias.phi.size} but the model has q = {m.q}"
        )
    m11_inv, eigs = _sym_inverse(m.m11, "M11 block")
    return m11_inv, eigs


def trace_r(m: InformationMatrix, bias: BiasSpec, cross_term_coefficient: float = 2.0) -> CriterionValue:
    """Trace of the scaled MSE matrix of the regression estimate.

    tr R = tr(M11^-1) + (n/sigma)^2 (tr S2 + tr S3 + c tr S4) with

        S2 = psi' M21 M11^-2 M12 psi       (contamination square)
        S3 = phi' M31 M11^-2 M13 phi       (confounder square)
        S4 = phi' M31 M11^-2 M12 psi       (cross term)

    The cross term enters twice (c = 2, the default, which follows from
    expanding the squared bias); c = 1 reproduces a display variant that
    counts it once and is kept only for comparison.
    """
    if cross_term_coefficient not in (1.0, 2.0):
        raise InvalidInputError("cross_term_coefficient must be 1.0 or 2.0")
    m11_inv, _ = _bias_blocks(m, bias)
    a2 = m11_inv @ m11_inv
    u = m.m12 @ bias.psi if m.m else np.zeros(m.p)
    v = m.m13 @ bias.phi if m.q else np.zeros(m.p)
    s2 = float(u @ a2 @ u)
    s3 = float(v @ a2 @ v)
    s4 = float(v @ a2 @ u)
    ratio2 = bias.ratio**2
    value = float(np.trace(m11_inv)) + ratio2 * (s2 + s3 + cross_term_coefficient * s4)
    return CriterionValue(
        "traceR",
        value,
        {
            "trace_m11_inv": float(np.trace(m11_inv)),
            "tr_S2": s2,
            "tr_S3": s3,
            "tr_S4": s4,
            "cross_term_coefficient": cross_term_coefficient,
        },
    )


def _det_r(m: InformationMatrix, bias: BiasSpec, cross, coef, name: str, key: str) -> CriterionValue:
    """det(M11^-1) (1 + (n/sigma)^2 c' cross' M11^-1 cross c) for one off-diagonal block."""
    m11_inv, eigs = _bias_blocks(m, bias)
    u = cross @ coef
    pen = float(u @ m11_inv @ u)
    det_inv = float(np.prod(1.0 / eigs))
    value = det_inv * (1.0 + bias.ratio**2 * pen)
    return CriterionValue(name, value, {"det_m11_inv": det_inv, key: pen})


def det_r_bias(m: InformationMatrix, bias: BiasSpec) -> CriterionValue:
    """det(M11^-1) (1 + (n/sigma)^2 psi' M21 M11^-1 M12 psi)."""
    return _det_r(m, bias, m.m12, bias.psi, "detR_bias", "bias_penalty")


def det_r_conf(m: InformationMatrix, bias: BiasSpec) -> CriterionValue:
    """det(M11^-1) (1 + (n/sigma)^2 phi' M31 M11^-1 M13 phi)."""
    return _det_r(m, bias, m.m13, bias.phi, "detR_conf", "confounder_penalty")


@dataclass(frozen=True)
class BiasConstrainedVerdict:
    """Outcome of the bias-constrained optimality condition."""

    ok: bool
    worst_point: np.ndarray
    max_lhs: float
    bound: float


def montepiedra_check(
    spec: ModelSpec,
    design: DesignMeasure,
    bias: BiasSpec,
    budget: float,
    lambda_star: float,
    grid: CandidateGrid,
) -> BiasConstrainedVerdict:
    """Check the bias-constrained D-optimality condition over a grid.

    With d1(x) = f' M11^-1 f, r(x) = (n/sigma) psi' h(x),
    c(x) = sum_j w_j f(x)' M11^-1 f(x_j), and d2(x) = c(x)^2 - 2 c(x) r(x),
    the design satisfies the condition when

        d1(x) + lambda_star * d2(x) <= p - lambda_star * budget

    for every grid point x, within _MONTEPIEDRA_TOL.  Returns the verdict plus the worst point
    (argmax of the left side; ties break to the lowest index).
    """
    if lambda_star < 0.0:
        raise InvalidInputError("lambda_star must be non-negative")
    m = information_matrix(spec, design)
    m11_inv, _ = _bias_blocks(m, bias)

    # only the f and h blocks are needed, and the grid may carry no z part
    fh_spec = ModelSpec(f_basis=spec.f_basis, p=spec.p, h_basis=spec.h_basis, m=spec.m)
    rows = model_matrix(fh_spec, grid.x_part())
    rows_f = np.ascontiguousarray(rows[:, : spec.p])
    rows_h = np.ascontiguousarray(rows[:, spec.p :])

    d1 = np.einsum("ij,jk,ik->i", rows_f, m11_inv, rows_f)
    # c(x) is linear in the design's weighted f average
    f_design = model_matrix(spec, design.x_points, design.z_points)[:, : spec.p]
    fbar = design.weights @ f_design
    c = rows_f @ (m11_inv @ fbar)
    r = bias.ratio * (rows_h @ bias.psi) if spec.m else np.zeros(grid.n_points)
    lhs = d1 + lambda_star * (c * c - 2.0 * c * r)
    bound = spec.p - lambda_star * budget
    worst = int(np.argmax(lhs))
    ok = bool(lhs[worst] <= bound + _MONTEPIEDRA_TOL)
    return BiasConstrainedVerdict(
        ok=ok, worst_point=grid.points[worst].copy(), max_lhs=float(lhs[worst]), bound=float(bound)
    )


# ---------------------------------------------------------------------------
# confounder game


def _confounder_bilinear(spec: ModelSpec, x_points: np.ndarray, z_points: np.ndarray, phi: np.ndarray) -> float:
    n = x_points.shape[0]
    rows = model_matrix(spec, x_points, z_points)
    f = rows[:, : spec.p]
    g = rows[:, spec.p + spec.m :]
    m11 = f.T @ f / n
    m11_inv, _ = _sym_inverse(m11, "empirical M11")
    u = g @ np.asarray(phi, dtype=float)
    t = f.T @ u / n
    return float(t @ m11_inv @ m11_inv @ t)


def confounder_loss(spec: ModelSpec, data_points, assignment, bias: BiasSpec) -> float:
    """Squared bias pushed into the regression estimate by one confounder
    assignment: phi' G'F M11^-2 F'G phi over the empirical measure."""
    if spec.q == 0:
        raise InvalidInputError("model has no confounder terms")
    xs = as_columns(data_points)
    zs = as_columns(assignment)
    if zs.shape[0] != xs.shape[0]:
        raise InvalidInputError("assignment must give one z per data point")
    if bias.phi.size != spec.q:
        raise InvalidInputError("phi length does not match the model's q")
    return _confounder_bilinear(spec, xs, zs, bias.phi)


def confounder_expected_worst(
    spec: ModelSpec,
    data_points,
    assignments: Sequence,
    probabilities: Sequence[float],
    phi_candidates: Sequence,
) -> tuple[float, list[float]]:
    """E over assignments of the max over candidate phi of the loss.

    assignments is a finite list of z-assignments with probabilities summing
    to 1; phi_candidates a finite list of coefficient vectors.  Returns the
    expectation and the per-assignment worst-case values.
    """
    probs = np.asarray(probabilities, dtype=float).ravel()
    if probs.size != len(assignments):
        raise InvalidInputError("one probability per assignment is required")
    if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-12:
        raise InvalidInputError("probabilities must be non-negative and sum to 1")
    if not phi_candidates:
        raise InvalidInputError("at least one phi candidate is required")
    xs = as_columns(data_points)
    worst: list[float] = []
    for za in assignments:
        zs = as_columns(za)
        vals = [_confounder_bilinear(spec, xs, zs, np.atleast_1d(phi)) for phi in phi_candidates]
        worst.append(max(vals))
    return float(np.dot(probs, worst)), worst


def confounder_minimax(
    spec: ModelSpec,
    data_points,
    assignment_distributions: Sequence[tuple[Sequence, Sequence[float]]],
    phi_candidates: Sequence,
) -> tuple[float, int]:
    """Min over candidate assignment distributions of the expected worst case.

    Each distribution is a pair (assignments, probabilities).  Returns the
    minimal value and the index of the minimizing distribution (lowest index
    on ties).
    """
    if not assignment_distributions:
        raise InvalidInputError("at least one assignment distribution is required")
    best_val = None
    best_idx = -1
    for i, (assigns, probs) in enumerate(assignment_distributions):
        val, _ = confounder_expected_worst(spec, data_points, assigns, probs, phi_candidates)
        if best_val is None or val < best_val:
            best_val, best_idx = val, i
    return float(best_val), best_idx
