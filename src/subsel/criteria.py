"""Design criteria: classical D/A/I values, the equivalence check, the
minimax-robust Inu/Dnu losses, and the bias- and confounder-aware traceR/detR.

Conventions used throughout:

* The variance function of a measure xi at a candidate point is
  d(x, z) = row' M(xi)^-1 row with row = (f(x), h(x), g(z)).
* A measure supported on k_eff informative directions is optimal exactly
  when max over the grid of d equals k_eff; the check is two-sided because
  the weighted average of d over the support always equals the rank.
* Every eigendecomposition of one symmetric matrix goes through `_eigh`,
  which raises SingularMatrixError on a non-finite eigenpair.
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
from typing import NamedTuple

import numpy as np

try:  # the LAPACK gufunc behind np.linalg.eigh (lower triangle), which `import numpy` loads
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:  # not run under tier-1: every numpy this package supports has the private gufunc
    _eigh_lo = np.linalg.eigh  # not run under tier-1: every numpy this package supports has the private gufunc

from .errors import EIG_FLOOR, ConfigError, InvalidInputError, SingularMatrixError, check_conditioning
from .model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    InformationMatrix,
    ModelSpec,
    information_matrix,
    model_matrix,
)

_RANK_TOL = 1e-9
_TIE_TOL = 1e-10

@dataclass(frozen=True)
class CriterionValue:
    """A named criterion value plus its diagnostics (`meta`, any value `json_ready` takes)."""

    name: str
    value: float
    meta: dict


def _eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh's (eigenvalues ascending, eigenvector columns) of one symmetric float64 matrix, bit
    for bit, from the LAPACK gufunc it wraps (lower triangle) without the wrapper's checks, errstate and
    result tuple.  Raises SingularMatrixError when an eigenvalue or eigenvector entry is not finite: a NaN
    or inf entry (a 2 x 2 NaN can leave the eigenvalues finite) or LAPACK's non-convergence, which the
    gufunc returns as NaN.  Unit eigenvectors have a finite sum exactly when every entry is finite."""
    eigvals, eigvecs = _eigh_lo(sym)
    if not (all(map(math.isfinite, eigvals.tolist())) and math.isfinite(sum(eigvecs.ravel().tolist()))):
        raise SingularMatrixError(f"a {eigvals.size} x {eigvals.size} symmetric matrix has a non-finite eigenvalue "
                                  "or eigenvector (a NaN or inf entry, or no convergence)")
    return eigvals, eigvecs


def _sym_inverse(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of a symmetric PSD matrix with a hard condition guard.

    Returns (inverse, eigenvalues ascending).  Raises SingularMatrixError
    when the smallest eigenvalue is non-positive or cond exceeds COND_LIMIT
    (`check_conditioning`).
    """
    sym = (mat + mat.T) / 2.0
    eigvals, eigvecs = _eigh(sym)
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
    eigvals, eigvecs = _eigh((sym + sym.T) / 2.0)
    vals = eigvals.tolist()
    lam = vals[-1]
    thresh = _TIE_TOL * max(1.0, abs(lam))
    # ascending, so a simple top eigenvalue's column is the last; among ties max keeps the first of the largest keys
    tied = [] if len(vals) == 1 or lam - vals[-2] > thresh else [i for i, e in enumerate(vals) if lam - e <= thresh]
    best = max(tied, key=lambda i: tuple(np.round(np.abs(eigvecs[:, i]), 12))) if tied else -1
    vec = eigvecs[:, best].copy()
    if next((c for c in vec.tolist() if abs(c) > 1e-12), 0.0) < 0:
        vec = -vec
    return lam, vec


class _RobustParts(NamedTuple):
    """R = Q'D(xi)Q over a support and what every robust reader takes of it: the sandwich
    C = R^-1/2 B R^-1/2 of B = Q'D(xi^2)Q, formed as Y'Y with Y = D(xi)Q_s R^-1/2 (exactly symmetric, and
    without B), and the top eigenpair (lam, z) of C - R.  C - R equals R^1/2 (U - I) R^1/2 for
    U = R^-1 B R^-1 but is formed without U, whose eigenproblem would square cond(R)."""

    dq: np.ndarray  # D(xi)Q_s for the support's rows Q_s and positive weights xi
    r: np.ndarray  # R
    r_eigs: np.ndarray  # eigenvalues of R, ascending, and their eigenvectors
    r_vecs: np.ndarray
    inv_root: np.ndarray  # R^-1/2
    c: np.ndarray  # C = Y'Y
    lam: float  # top eigenpair (lam, z) of C - R
    z: np.ndarray

    def dnu(self, nu: float) -> float:
        det_r = math.prod(self.r_eigs.tolist())  # the same left-to-right product as np.prod
        return float(((1.0 - nu + nu * self.lam) / det_r) ** (1.0 / self.r_eigs.size))


def _robust_kernel(q: np.ndarray, xi: np.ndarray, iteration: int | None = None) -> _RobustParts:
    """The one evaluation of R and its functions behind every robust value (`run_wiens`, `wiens_losses`
    and the sequential Inu/Dnu scorer), summed over the support: `q` and `xi` are its rows and positive
    weights in ascending grid order.  Raises SingularMatrixError when the smallest eigenvalue of R is
    below EIG_FLOOR, or not finite (`_eigh`); for orthonormal Q and simplex weights lambda_max(R) <= 1,
    so this rejects every R whose condition number exceeds COND_LIMIT."""
    dq = q * xi[:, None]
    r = dq.T.dot(q)  # ndarray.dot: the BLAS call of @, so the same bits, at half its overhead on p x p operands
    r_eigs, r_vecs = _eigh((r + r.T) / 2.0)
    smallest = float(r_eigs[0])
    if smallest < EIG_FLOOR:
        where = "" if iteration is None else f" at iteration {iteration}"
        points = f"{len(q)} grid point{'s' * (len(q) != 1)}, p = {q.shape[1]}"
        raise SingularMatrixError(f"weighted gram matrix R on {points}, is singular{where} (smallest eigenvalue "
                                  f"{smallest:.6e})", smallest_eigenvalue=smallest, iteration=iteration)
    inv_root = (r_vecs / np.sqrt(r_eigs)).dot(r_vecs.T)
    y = dq.dot(inv_root)
    c = y.T.dot(y)
    lam, z = top_eigenpair(c - r)
    return _RobustParts(dq, r, r_eigs, r_vecs, inv_root, c, lam, z)


def wiens_losses(ctx: RobustContext, design) -> tuple[CriterionValue, CriterionValue]:
    """Robust I- and D-loss of a measure on the context grid.

    With R = Q'D(xi)Q, B = Q'D^2Q and U = R^-1 B R^-1:

        Inu = (1 - nu) tr(R^-1) + nu lambda_max(U)
        Dnu = ((1 - nu + nu lambda_max(R^-1/2 B R^-1/2 - R)) / det R)^(1/p)

    R^-1/2 B R^-1/2 - R equals R^1/2 (U - I) R^1/2 and is formed as Y'Y - R,
    Y = D(xi)Q R^-1/2 (`_robust_kernel`), without B or U; Inu's U is formed
    in the same Gram form, as V'V with V = D(xi)Q R^-1.

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
    q_s, xi_s = ctx.q_matrix[support], w[support]
    parts, nu = _robust_kernel(q_s, xi_s), ctx.nu
    rinv = (parts.r_vecs / parts.r_eigs) @ parts.r_vecs.T
    v = parts.dq.dot(rinv)
    lam_u, vec_u = top_eigenpair(v.T.dot(v))
    trace_rinv = float(np.trace(rinv))
    i_val = (1.0 - nu) * trace_rinv + nu * lam_u

    meta_i = {"lambda_max": lam_u, "eigenvector": vec_u, "trace_Rinv": trace_rinv, "nu": nu}
    meta_d = {"lambda_max": parts.lam, "eigenvector": parts.z, "det_R": float(np.prod(parts.r_eigs)), "nu": nu}
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
