"""Model bases, design measures, candidate grids, and information matrices.

The working model for a response at covariates x with optional confounders z
is a linear predictor built from three basis blocks:

    eta(x, z) = f(x)' theta + h(x)' psi + g(z)' phi

f carries the p estimated regression terms, h the m contamination terms the
analysis protects against, and g the q confounder terms.  An evaluated row is
the length p+m+q concatenation (f(x), h(x), g(z)).  The information matrix of
a design measure xi is M(xi) = sum_i w_i row_i row_i'; its (p, m, q) blocks
drive every criterion in :mod:`subsel.criteria`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError

# A basis maps an (n, d) point array to the (n, length) array of its values;
# row i depends on point i alone, so any slice of the points gives the same rows.
BasisFn = Callable[[np.ndarray], np.ndarray]

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# model specification


@dataclass(frozen=True)
class ModelSpec:
    """Basis triple (f, h, g) with block dimensions (p, m, q).

    h_basis/g_basis may be None when the corresponding dimension is zero.
    A basis maps an (n, d) point array to the (n, length) float array of its
    values, row i computed from point i alone (see `BasisFn`).
    """

    f_basis: BasisFn
    p: int
    h_basis: BasisFn | None = None
    m: int = 0
    g_basis: BasisFn | None = None
    q: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError("p must be at least 1")
        if self.m < 0 or self.q < 0:
            raise InvalidInputError("m and q must be non-negative")
        if (self.m > 0) != (self.h_basis is not None):
            raise InvalidInputError("h_basis must be supplied exactly when m > 0")
        if (self.q > 0) != (self.g_basis is not None):
            raise InvalidInputError("g_basis must be supplied exactly when q > 0")

    @property
    def k_total(self) -> int:
        return self.p + self.m + self.q


def as_columns(a) -> np.ndarray:
    """`a` as a float array, a 1-D one as a single column; a float array is not copied."""
    arr = np.asarray(a, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def data_columns(data) -> tuple[np.ndarray, np.ndarray | None]:
    """(features, confounders or None) of a Dataset or of a plain covariate array."""
    confs = getattr(data, "confounders", None)
    return as_columns(getattr(data, "features", data)), None if confs is None else as_columns(confs)


def _eval_block(fn: BasisFn, points: np.ndarray, length: int, label: str) -> np.ndarray:
    try:
        out = np.asarray(fn(points), dtype=float)
    except Exception as exc:
        raise InvalidInputError(
            f"{label} basis failed on a point of dimension {points.shape[1]}: {exc}"
        ) from exc
    if out.shape != (points.shape[0], length):
        raise InvalidInputError(
            f"{label} basis returned shape {out.shape}, expected ({points.shape[0]}, {length})"
        )
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{label} basis returned a non-finite value")
    return out


def model_matrix(spec: ModelSpec, x_points: np.ndarray, z_points: np.ndarray | None = None) -> np.ndarray:
    """The (n, p+m+q) matrix whose row i is (f(x_i), h(x_i), g(z_i)).

    Each block's basis is evaluated once on all points.  When a block fails,
    the blocks are re-run on one point at a time, in row order and then f, h,
    g order, so the error raised is that of the first failing point's first
    failing block; if no single point fails, the whole-array error is raised.
    No points give an empty matrix without a basis call.
    """
    xs = as_columns(x_points)
    if xs.ndim != 2:
        raise InvalidInputError("x_points must be a 1-D or 2-D array of points")
    n = xs.shape[0]
    zs = None
    if spec.q > 0:
        if z_points is None:
            raise InvalidInputError("model has confounder terms: z_points is required")
        zs = as_columns(z_points)
        if zs.ndim != 2 or zs.shape[0] != n:
            raise InvalidInputError("x_points and z_points must have matching row counts")
    if n == 0:
        return np.empty((0, spec.k_total))
    blocks = [(spec.f_basis, xs, spec.p, "f")]
    if spec.m > 0:
        blocks.append((spec.h_basis, xs, spec.m, "h"))
    if spec.q > 0:
        blocks.append((spec.g_basis, zs, spec.q, "g"))
    try:
        return np.hstack([_eval_block(*block) for block in blocks])
    except InvalidInputError:
        for i in range(n):
            for fn, pts, length, label in blocks:
                _eval_block(fn, pts[i:i + 1], length, label)
        raise


# ---------------------------------------------------------------------------
# design measures


def _as_point_array(points, label: str) -> np.ndarray:
    arr = as_columns(np.atleast_1d(np.asarray(points, dtype=float)))
    if arr.ndim != 2:
        raise InvalidInputError(f"{label} must be a 1-D or 2-D array of coordinates")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{label} contains non-finite coordinates")
    return arr


def _first_occurrences(pts: np.ndarray) -> np.ndarray:
    """Index of the first row equal to each row under float comparison, so
    0.0 equals -0.0 as tuple keys did."""
    n = pts.shape[0]
    first = np.arange(n)
    if n < 2:
        return first
    order = np.lexsort(pts.T)  # stable: equal rows stay in index order
    srt = pts[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


class DesignMeasure:
    """Finitely supported probability measure on candidate points.

    Construction merges exact-duplicate points by summing their weights,
    then validates: weights non-negative, total mass 1 within 1e-12, points
    pairwise distinct under exact coordinate equality.
    """

    __slots__ = ("x_points", "weights", "z_points")

    def __init__(self, points, weights, z_points=None):
        xs = _as_point_array(points, "points")
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != xs.shape[0]:
            raise InvalidInputError("points and weights must have equal length")
        zs = None
        if z_points is not None:
            zs = _as_point_array(z_points, "z_points")
            if zs.shape[0] != xs.shape[0]:
                raise InvalidInputError("points and z_points must have equal length")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite and non-negative")

        first = _first_occurrences(xs if zs is None else np.hstack([xs, zs]))
        keep = first == np.arange(first.size)
        if not keep.all():
            dup = np.flatnonzero(~keep)
            w = w.copy()
            np.add.at(w, first[dup], w[dup])  # in ascending index order
        xs = xs[keep]
        w = w[keep]
        if zs is not None:
            zs = zs[keep]

        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError(f"design weights must sum to 1 (got {total!r})")

        xs.setflags(write=False)
        w.setflags(write=False)
        if zs is not None:
            zs.setflags(write=False)
        object.__setattr__(self, "x_points", xs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "z_points", zs)

    def __setattr__(self, name, value):
        raise AttributeError("DesignMeasure is immutable")

    def to_json_dict(self) -> dict:
        """The measure as `json_text` takes it: its `points`, `weights` and `z_points` arrays."""
        out = {"points": self.x_points, "weights": self.weights}
        if self.z_points is not None:
            out["z_points"] = self.z_points
        return out


def uniform_design(points, z_points=None) -> DesignMeasure:
    xs = _as_point_array(points, "points")
    n = xs.shape[0]
    return DesignMeasure(xs, np.full(n, 1.0 / n), z_points)


# ---------------------------------------------------------------------------
# candidate grids


@dataclass(frozen=True)
class CandidateGrid:
    """Finite candidate set: either a cross product of axes or explicit points.

    points has shape (n, d), finite; the trailing z_dim columns are
    confounder coordinates.  names, one per column, are stored as a tuple;
    axes are retained when built from per-axis levels.
    """

    points: np.ndarray
    axes: tuple[np.ndarray, ...] | None = None
    names: tuple[str, ...] | None = None
    z_dim: int = 0

    def __post_init__(self):
        pts = _as_point_array(self.points, "grid points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not 0 <= self.z_dim <= pts.shape[1]:
            raise InvalidInputError("z_dim must lie in [0, grid dimension]")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != pts.shape[1]:
                raise ConfigError("one axis name per grid column is required")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def x_dim(self) -> int:
        return self.dim - self.z_dim

    def x_part(self) -> np.ndarray:
        return self.points[:, : self.x_dim]

    def z_part(self) -> np.ndarray | None:
        if self.z_dim == 0:
            return None
        return self.points[:, self.x_dim :]

    @staticmethod
    def from_axes(axes: Mapping, z_dim: int = 0) -> "CandidateGrid":
        """Cross product of per-axis level lists, row-major (first axis slowest).

        axes maps each name to its levels, in insertion order.  Levels must
        be strictly increasing.
        """
        levels = [np.asarray(v, dtype=float) for v in axes.values()]
        if not levels:
            raise ConfigError("at least one axis is required")
        for i, lv in enumerate(levels):
            if lv.ndim != 1 or lv.size == 0:
                raise ConfigError(f"axis {i} must be a non-empty 1-D level list")
            if not np.all(np.isfinite(lv)):
                raise ConfigError(f"axis {i} contains non-finite levels")
            if not np.all(lv[1:] > lv[:-1]):  # not np.diff, which overflows on levels of opposite sign
                raise ConfigError(f"axis {i} levels must be strictly increasing")
        grids = np.meshgrid(*levels, indexing="ij")
        pts = np.column_stack([g.ravel(order="C") for g in grids])
        return CandidateGrid(points=pts, axes=tuple(levels), names=tuple(axes), z_dim=z_dim)


# ---------------------------------------------------------------------------
# information matrices


@dataclass(frozen=True)
class InformationMatrix:
    """Symmetric PSD matrix with (p, m, q) block structure.

    Construction validates that every entry is finite, symmetry to 1e-12
    (relative to the largest entry) and positive semidefiniteness to a
    -1e-10 * ||M|| eigenvalue slack.
    Singular matrices are legal; criteria that need invertibility raise.
    """

    full: np.ndarray
    p: int
    m: int = 0
    q: int = 0

    def __post_init__(self):
        mat = np.asarray(self.full, dtype=float)
        k = self.p + self.m + self.q
        if mat.shape != (k, k):
            raise InvalidInputError(f"matrix shape {mat.shape} does not match blocks {(self.p, self.m, self.q)}")
        if not np.isfinite(mat).all():
            raise InvalidInputError("information matrix has a non-finite entry (an overflowed product of rows?)")
        scale = max(1.0, float(np.max(np.abs(mat))))
        if float(np.max(np.abs(mat - mat.T))) > _SYM_TOL * scale:
            raise InvalidInputError("information matrix is not symmetric to 1e-12")
        eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        if eigs[0] < -_PSD_TOL * max(1.0, float(eigs[-1])):
            raise InvalidInputError(
                f"information matrix has negative eigenvalue {eigs[0]:.3e}"
            )
        mat = np.array((mat + mat.T) / 2.0)
        mat.setflags(write=False)
        object.__setattr__(self, "full", mat)

    # the blocks the criteria read; the others are transposes or diagonal blocks of `full`
    @property
    def m11(self) -> np.ndarray:
        return self.full[: self.p, : self.p]

    @property
    def m12(self) -> np.ndarray:
        return self.full[: self.p, self.p : self.p + self.m]

    @property
    def m13(self) -> np.ndarray:
        return self.full[: self.p, self.p + self.m :]


def information_matrix(spec: ModelSpec, design: DesignMeasure) -> InformationMatrix:
    """M(xi) = sum_i w_i row(x_i, z_i) row(x_i, z_i)'."""
    rows = model_matrix(spec, design.x_points, design.z_points)
    mat = (rows * design.weights[:, None]).T @ rows
    return InformationMatrix(full=mat, p=spec.p, m=spec.m, q=spec.q)


def information_matrix_from_selection(
    spec: ModelSpec,
    data,
    selection,
    sigma: float = 1.0,
) -> InformationMatrix:
    """Unnormalized M(delta) = sum_{i in selection} row_i row_i' / sigma^2.

    `data` may be a Dataset (features/confounders attributes) or a plain
    (N, d) ndarray of covariates.  `selection` may be a SubsampleSelection
    or an index array; indices must be in range and pairwise distinct.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise InvalidInputError("sigma must be positive and finite")
    feats, confs = data_columns(data)
    idx = np.asarray(getattr(selection, "indices", selection), dtype=int).ravel()
    if idx.size == 0:
        raise InvalidInputError("selection is empty")
    if idx.min() < 0 or idx.max() >= feats.shape[0]:
        raise InvalidInputError("selection index out of range")
    if _has_duplicates(idx):
        raise InvalidInputError("selection contains duplicate indices")
    z_sel = None
    if spec.q > 0:
        if confs is None:
            raise InvalidInputError("model has confounder terms but data has no confounder columns")
        z_sel = confs[idx]
    rows = model_matrix(spec, feats[idx], z_sel)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by InformationMatrix
        mat = rows.T @ rows / (sigma * sigma)
    return InformationMatrix(full=mat, p=spec.p, m=spec.m, q=spec.q)


# ---------------------------------------------------------------------------
# bias/confounder coefficient bundle


@dataclass(frozen=True)
class BiasSpec:
    """Contamination coefficients psi (length m), confounder coefficients phi
    (length q), noise scale sigma, and the full-data row count n_total.

    The bias-aware criteria scale the contamination quadratic forms by
    (n_total / sigma)^2.
    """

    psi: np.ndarray
    phi: np.ndarray
    sigma: float
    n_total: int

    def __post_init__(self):
        psi = np.atleast_1d(np.asarray(self.psi, dtype=float))
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if psi.ndim != 1 or phi.ndim != 1:
            raise InvalidInputError("psi and phi must be 1-D coefficient vectors")
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(phi))):
            raise InvalidInputError("psi and phi must be finite")
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise InvalidInputError("sigma must be positive and finite")
        if int(self.n_total) < 1:
            raise InvalidInputError("n_total must be a positive integer")
        psi.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "n_total", int(self.n_total))

    @property
    def ratio(self) -> float:
        """n_total / sigma, the amplification factor on bias terms."""
        return self.n_total / self.sigma


# ---------------------------------------------------------------------------
# selections


def _has_duplicates(idx: np.ndarray) -> bool:
    # a sort and a neighbour compare; np.unique would import numpy.ma
    srt = np.sort(idx)
    return bool(np.any(srt[1:] == srt[:-1]))


@dataclass(frozen=True)
class SubsampleSelection:
    """Row indices chosen from a dataset plus provenance of the algorithm."""

    indices: np.ndarray
    algorithm: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).ravel()
        if _has_duplicates(idx):
            raise InvalidInputError("selection contains duplicate indices")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n_selected(self) -> int:
        return int(self.indices.size)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n_selected": self.n_selected,
            "indices": self.indices.tolist(),
            "provenance": self.provenance,
        }


def json_ready(obj):
    """`obj` as values `json_text` takes: an object's `to_json_dict()`, a dataclass without one as
    the dict of its fields, a dict with string keys, tuples as lists and numpy arrays and scalars
    as Python values; booleans stay booleans, and a non-finite float is None (JSON's null)."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return json_ready(obj.tolist()) if obj.dtype.kind == "f" else obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return json_ready(vars(obj)) if is_dataclass(obj) else obj


# ---------------------------------------------------------------------------
# built-in basis families (config-constructible)


def polynomial_basis(degree: int, intercept: bool = True, dim: int = 1, scale: float = 1.0):
    """Polynomial terms (scale*x)^1..(scale*x)^degree, optional leading 1.

    For dim > 1 the degree is at most 1: the terms are the scaled
    coordinates in order, or none for degree 0.  Returns (callable, n_terms).
    """
    if degree < 0 or degree > 3:
        raise ConfigError("polynomial degree must be in 0..3")
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    if dim > 1 and degree > 1:
        raise ConfigError("multi-coordinate polynomial bases support degree <= 1 only")
    if degree == 0 and not intercept:
        raise ConfigError("degree 0 without intercept has no terms")
    n_terms = (1 if intercept else 0) + (degree if dim == 1 else dim * degree)

    def fn(xs: np.ndarray) -> np.ndarray:
        _check_dim(xs, dim)
        cols = [np.ones((xs.shape[0], 1))] if intercept else []
        if dim > 1:
            if degree == 1:
                cols.append(scale * xs)
            return np.hstack(cols)
        v = scale * xs[:, 0]
        if degree >= 1:
            cols.append(v)
        # Python's float ** (C pow) differs from v * v and np.power in the
        # last bits on some values, so the powers stay per element
        vals = v.tolist()
        cols.extend(np.array([t**j for t in vals]) for j in range(2, degree + 1))
        return np.column_stack(cols)

    return fn, n_terms


def linear_spec(dim: int) -> ModelSpec:
    """The intercept-plus-linear model in `dim` covariates: f(x) = (1, x_1, ..., x_dim)."""
    fn, p = polynomial_basis(degree=1, intercept=True, dim=dim)
    return ModelSpec(f_basis=fn, p=p)


def trig_basis(kind: str = "sin", coeffs: Sequence[float] = (1.0, 0.0, 0.0), amplitude: float = 1.0):
    """Single term amplitude * sin_or_cos(a x^2 + b x + c) of a scalar x."""
    if kind not in ("sin", "cos"):
        raise ConfigError("trig kind must be 'sin' or 'cos'")
    if len(coeffs) != 3:
        raise ConfigError("trig coeffs must be (a, b, c) for a*x^2 + b*x + c")
    a, b, c = (float(v) for v in coeffs)
    wave = np.sin if kind == "sin" else np.cos

    def fn(xs: np.ndarray) -> np.ndarray:
        _check_dim(xs, 1)
        v = xs[:, 0]
        return (amplitude * wave(a * v * v + b * v + c))[:, None]

    return fn, 1


def _check_dim(xs: np.ndarray, dim: int) -> None:
    if xs.shape[1] != dim:
        raise InvalidInputError(f"basis takes points of dimension {dim}, got {xs.shape[1]}")


_BASIS_FAMILIES = ("poly", "trig")


def basis_from_config(cfg: Mapping | None):
    """Build (callable, n_terms) from a config mapping; None -> (None, 0)."""
    if cfg is None:
        return None, 0
    if not isinstance(cfg, Mapping):
        raise ConfigError("basis config must be a mapping")
    family = cfg.get("family")
    if family == "poly":
        return polynomial_basis(
            degree=int(cfg.get("degree", 1)),
            intercept=bool(cfg.get("intercept", True)),
            dim=int(cfg.get("dim", 1)),
            scale=float(cfg.get("scale", 1.0)),
        )
    if family == "trig":
        return trig_basis(
            kind=str(cfg.get("kind", "sin")),
            coeffs=tuple(cfg.get("coeffs", (1.0, 0.0, 0.0))),
            amplitude=float(cfg.get("amplitude", 1.0)),
        )
    raise ConfigError(f"unknown basis family {family!r}; known: {_BASIS_FAMILIES}")


def model_spec_from_config(cfg: Mapping) -> ModelSpec:
    """ModelSpec from {'f': basis_cfg, 'h': basis_cfg?, 'g': basis_cfg?}."""
    if not isinstance(cfg, Mapping) or "f" not in cfg:
        raise ConfigError("model config must be a mapping with an 'f' entry")
    f_fn, p = basis_from_config(cfg["f"])
    h_fn, m = basis_from_config(cfg.get("h"))
    g_fn, q = basis_from_config(cfg.get("g"))
    return ModelSpec(f_basis=f_fn, p=p, h_basis=h_fn, m=m, g_basis=g_fn, q=q)
