"""Extreme-value subsampling: per-variable min/max sweeps in one data pass.

Variables are processed in a configurable order.  For each variable the
algorithm takes the r rows with the smallest values and the r rows with the
largest values among the rows not selected yet, where r = n_target // (2 p).
Any shortfall n_target - 2 p r is distributed one extra row at a time, first
to the smallest side of each variable in order, then (if still short) to the
largest sides.  Ties at a cut value resolve to the lowest row index, which
makes the output deterministic and replayable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError
from .model_core import (
    InformationMatrix,
    ModelSpec,
    SubsampleSelection,
    data_columns,
    information_matrix_from_selection,
    polynomial_basis,
)


def _features_of(data) -> np.ndarray:
    feats, _ = data_columns(data)
    if feats.ndim != 2 or feats.size == 0:
        raise InvalidInputError("data must be a non-empty (N, p) covariate matrix")
    return feats


def _k_extreme(values: np.ndarray, rows: np.ndarray, k: int, side: str) -> np.ndarray:
    """The k rows with the most extreme values; ties at the cut take the
    earliest `rows` entries, so ascending `rows` means lowest index wins."""
    n = values.size
    if k >= n:
        return rows.copy()
    if side == "low":
        cut = np.partition(values, k - 1)[k - 1]
        strict = values < cut
    else:
        cut = np.partition(values, n - k)[n - k]
        strict = values > cut
    taken = rows[strict]
    need = k - taken.size
    at_cut = rows[values == cut][:need]
    return np.concatenate([taken, at_cut])


def _extreme_available(
    col: np.ndarray, mask: np.ndarray, removed: int, k: int, side: str
) -> np.ndarray:
    """Indices of the k most extreme still-available rows of a full column.

    Partitions the contiguous column as a whole instead of gathering the
    available rows: the k extreme available rows always sit within the
    k + removed most extreme rows overall, extended to every tie of the
    boundary value so that the lowest-index rule stays exact.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = col.size
    m_needed = k + removed
    if m_needed >= n:
        cand = np.flatnonzero(mask)
    else:
        if side == "low":
            cut0 = np.partition(col, m_needed - 1)[m_needed - 1]
            cand = np.flatnonzero(col <= cut0)
        else:
            cut0 = np.partition(col, n - m_needed)[n - m_needed]
            cand = np.flatnonzero(col >= cut0)
        cand = cand[mask[cand]]
    return _k_extreme(col[cand], cand, k, side)


# prefilter engages only when the data dwarfs the selection
_PREFILTER_FACTOR = 16
_PREFILTER_MIN_ROWS = 1 << 17
_SAMPLE_TARGET = 1 << 16


def _estimated_cuts(feats: np.ndarray, m_low: np.ndarray, m_high: np.ndarray):
    """Conservative per-column cut estimates from a deterministic strided sample.

    The estimates only seed candidate sets; sufficiency is verified against
    the exact requirement counts, with a full partition as fallback, so the
    selection never depends on sample quality.
    """
    n = feats.shape[0]
    step = max(1, n // _SAMPLE_TARGET)
    sample = np.sort(feats[::step], axis=0)
    s = sample.shape[0]
    ranks_lo = np.minimum(s - 1, 2 * np.ceil(m_low * s / n).astype(np.int64) + 32)
    ranks_hi = np.minimum(s - 1, 2 * np.ceil(m_high * s / n).astype(np.int64) + 32)
    cols = np.arange(feats.shape[1])
    return sample[ranks_lo, cols], sample[s - 1 - ranks_hi, cols]


def run_iboss(data, n_target: int, column_order=None) -> SubsampleSelection:
    """Select n_target rows by per-variable extremes.

    `data` is a Dataset or an (N, p) array.  column_order is a permutation
    of range(p) giving the processing order (identity by default).
    """
    feats = _features_of(data)
    n, p = feats.shape
    if not isinstance(n_target, (int, np.integer)) or n_target < 2 * p:
        raise InvalidInputError(f"n_target must be an integer >= 2 p = {2 * p}")
    if n_target > n:
        raise InvalidInputError(f"n_target {n_target} exceeds the {n} available rows")
    if column_order is None:
        order = list(range(p))
    else:
        order = [int(j) for j in column_order]
        if sorted(order) != list(range(p)):
            raise InvalidInputError("column_order must be a permutation of range(p)")

    r = n_target // (2 * p)
    shortfall = n_target - 2 * p * r
    # extras cycle small sides first, then large sides
    extra_small = [0] * p
    extra_large = [0] * p
    for t in range(shortfall):
        if t < p:
            extra_small[t] += 1
        else:
            extra_large[t - p] += 1

    k_small = [r + extra_small[pos] for pos in range(p)]
    k_large = [r + extra_large[pos] for pos in range(p)]
    # exact requirement per column: this side's quota plus every earlier removal
    m_low = np.zeros(p, dtype=np.int64)
    m_high = np.zeros(p, dtype=np.int64)
    before = 0
    for pos, j in enumerate(order):
        m_low[j] = k_small[pos] + before
        m_high[j] = k_large[pos] + before + k_small[pos]
        before += k_small[pos] + k_large[pos]

    prefilter = n >= _PREFILTER_MIN_ROWS and n >= _PREFILTER_FACTOR * n_target
    if prefilter:
        est_lo, est_hi = _estimated_cuts(feats, m_low, m_high)
        low_mask = feats <= est_lo
        high_mask = feats >= est_hi

    def side_pick(j: int, k: int, m_needed: int, side: str) -> np.ndarray:
        if prefilter:
            cand_mask = low_mask[:, j] if side == "low" else high_mask[:, j]
            cand = np.flatnonzero(cand_mask)
            if cand.size >= m_needed:
                cand = cand[mask[cand]]
                return _k_extreme(feats[cand, j], cand, k, side)
        col = np.ascontiguousarray(feats[:, j])
        return _extreme_available(col, mask, removed, k, side)

    mask = np.ones(n, dtype=bool)
    removed = 0
    picked: list[np.ndarray] = []
    cuts: list[dict] = []
    for pos, j in enumerate(order):
        low = side_pick(j, k_small[pos], int(m_low[j]), "low")
        mask[low] = False
        removed += low.size
        high = side_pick(j, k_large[pos], int(m_high[j]), "high")
        mask[high] = False
        removed += high.size
        picked.append(np.sort(low))
        picked.append(np.sort(high))
        cuts.append(
            {
                "variable": int(j),
                "low_count": int(low.size),
                "low_cut": float(feats[low, j].max()) if low.size else None,
                "high_count": int(high.size),
                "high_cut": float(feats[high, j].min()) if high.size else None,
            }
        )

    indices = np.concatenate(picked)
    if indices.size != n_target:
        raise InvalidInputError(
            f"selection produced {indices.size} rows, expected {n_target}"
        )
    return SubsampleSelection(
        indices=indices,
        algorithm="iboss",
        provenance={"column_order": order, "r": int(r), "shortfall": int(shortfall), "cuts": cuts},
    )


def iboss_det_bound(
    data,
    selection,
    n_target: int | None = None,
    sigma: float = 1.0,
) -> tuple[float, float]:
    """Determinant of the selection's information matrix and its upper bound.

    The working model is intercept-plus-linear in the p covariates.  For any
    n_d-row selection the determinant is bounded by

        4 (n_d / (4 sigma^2))^(p+1) * prod_j range_j^2

    where range_j is the full-data spread of covariate j.  Returns
    (det, bound).
    """
    feats = _features_of(data)
    n, p = feats.shape
    idx = np.asarray(getattr(selection, "indices", selection), dtype=int).ravel()
    n_d = idx.size
    if n_target is not None and int(n_target) != n_d:
        raise InvalidInputError(f"n_target {n_target} does not match the selection size {n_d}")
    fn, n_terms = polynomial_basis(degree=1, intercept=True, dim=p)
    spec = ModelSpec(f_basis=fn, p=n_terms)
    m: InformationMatrix = information_matrix_from_selection(spec, feats, idx, sigma=sigma)
    det = float(np.linalg.det(m.full))
    ranges = feats.max(axis=0) - feats.min(axis=0)
    bound = 4.0 * (n_d / (4.0 * sigma * sigma)) ** (p + 1) * float(np.prod(ranges * ranges))
    return det, bound


def iboss_permutation_report(data, n_target: int) -> dict:
    """Run every column-order permutation (p <= 5) and group equal outcomes.

    Returns {"n_permutations", "n_distinct", "groups": [{"orders", "indices"}]}
    where groups collect permutations that produced identical index sets.
    """
    feats = _features_of(data)
    p = feats.shape[1]
    if p > 5:
        raise InvalidInputError("permutation report is limited to p <= 5 variables")
    groups: dict[tuple, list[list[int]]] = {}
    for perm in itertools.permutations(range(p)):
        sel = run_iboss(feats, n_target, column_order=perm)
        key = tuple(sorted(int(i) for i in sel.indices))
        groups.setdefault(key, []).append(list(perm))
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    return {
        "n_permutations": math.factorial(p),
        "n_distinct": len(ordered),
        "groups": [
            {"orders": orders, "indices": list(key)} for key, orders in ordered
        ],
    }
