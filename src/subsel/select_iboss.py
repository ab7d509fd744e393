"""Extreme-value subsampling: per-variable min/max sweeps in one data pass.

Variables are processed in a configurable order.  For each variable the
algorithm takes the r rows with the smallest values and the r rows with the
largest values among the rows not selected yet, where r = n_target // (2 p).
Any shortfall n_target - 2 p r is distributed one extra row at a time, first
to the smallest side of each variable in order, then (if still short) to the
largest sides.  Ties at a cut value resolve to the lowest row index, which
makes the output deterministic and replayable.

One rule selects both sides: a high side is the low side of the negated
column.  Negation is exact, so the m-th smallest of -x is minus the m-th
largest of x and its ties fall on the same rows.

Each side's candidates are the rows at or below a cut guessed from a sorted
sample of every max(1, N // 65536)-th row.  A side needs its quota plus
every earlier removal; when fewer rows reach the guess, the exact value from a
full partition of the column replaces it, so the guess changes the cost, never
the selection.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .criteria import d_criterion
from .errors import InvalidInputError
from .model_core import (
    InformationMatrix,
    SubsampleSelection,
    data_columns,
    information_matrix_from_selection,
    linear_spec,
)


def _features_of(data) -> np.ndarray:
    feats, _ = data_columns(data)
    if feats.ndim != 2 or feats.size == 0:
        raise InvalidInputError("data must be a non-empty (N, p) covariate matrix")
    return feats


def _lowest_available(col: np.ndarray, mask: np.ndarray, k: int, m_needed: int, cut) -> np.ndarray:
    """Indices of the k smallest still-available rows of a full column, ties
    at the k-th value taken by lowest index.

    m_needed is k plus every row removed before this side, so the k rows lie
    within the m_needed smallest rows and all ties of the last one: any cut
    that m_needed rows reach bounds the candidates.  When fewer reach the
    guessed `cut`, the exact m_needed-th value replaces it.
    """
    if m_needed >= col.size:
        cand = np.flatnonzero(mask)
    else:
        cand = np.flatnonzero(col <= cut)
        if cand.size < m_needed:
            cut = np.partition(col, m_needed - 1)[m_needed - 1]
            cand = np.flatnonzero(col <= cut)
        cand = cand[mask[cand]]
    if k >= cand.size:
        return cand
    values = col[cand]
    cut = np.partition(values, k - 1)[k - 1]
    taken = cand[values < cut]
    return np.concatenate([taken, cand[values == cut][: k - taken.size]])


_SAMPLE_TARGET = 1 << 16


def _estimated_cuts(feats: np.ndarray, order: list[int], m_low: np.ndarray, m_high: np.ndarray):
    """Conservative cut guesses for the columns in `order`, from a strided
    sample: the low sides' on the columns, the high sides' on the negated ones.

    The guesses only bound candidate sets; `_lowest_available` checks each
    against the exact requirement count and falls back to a full partition,
    so the selection never depends on sample quality.
    """
    n = feats.shape[0]
    step = max(1, n // _SAMPLE_TARGET)
    sample = np.sort(feats[::step][:, order], axis=0)
    s = sample.shape[0]
    ranks = np.minimum(s - 1, 2 * np.ceil(np.stack([m_low, m_high]) * s / n).astype(np.int64) + 32)
    cols = np.arange(len(order))
    return sample[ranks[0], cols], -sample[s - 1 - ranks[1], cols]


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
    pos = np.arange(p)
    k_small = r + (pos < shortfall)
    k_large = r + (pos < shortfall - p)
    # exact requirement per side: its quota plus every earlier removal
    m_high = np.cumsum(k_small + k_large)
    m_low = m_high - k_large
    est_lo, est_hi = _estimated_cuts(feats, order, m_low, m_high)

    mask = np.ones(n, dtype=bool)
    picked: list[np.ndarray] = []
    cuts: list[dict] = []
    for pos, j in enumerate(order):
        col = np.array(feats[:, j])  # private: negated in place below
        low = _lowest_available(col, mask, k_small[pos], m_low[pos], est_lo[pos])
        mask[low] = False
        high = _lowest_available(np.negative(col, out=col), mask, k_large[pos], m_high[pos], est_hi[pos])
        mask[high] = False
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

    return SubsampleSelection(
        indices=np.concatenate(picked),  # each side took exactly its quota, n_target rows in all
        algorithm="iboss",
        provenance={"column_order": order, "r": int(r), "shortfall": int(shortfall), "cuts": cuts},
    )


def iboss_det_bound(data, selection, sigma: float = 1.0) -> tuple[float, float]:
    """Log determinant of the selection's information matrix and the log of its upper bound.

    The working model is intercept-plus-linear in the p covariates.  For any
    n_d-row selection the determinant is bounded by

        4 (n_d / (4 sigma^2))^(p+1) * prod_j range_j^2

    where range_j is the full-data spread of covariate j.  Both are taken in
    log space, so neither overflows.  Returns (log_det, log_bound): log_det
    is -inf for a singular selection and log_bound for a constant covariate.
    """
    feats = _features_of(data)
    p = feats.shape[1]
    idx = np.asarray(getattr(selection, "indices", selection), dtype=int).ravel()
    m: InformationMatrix = information_matrix_from_selection(linear_spec(p), feats, idx, sigma=sigma)
    with np.errstate(divide="ignore"):
        log_ranges = np.log(feats.max(axis=0) - feats.min(axis=0))
    log_bound = math.log(4.0) + (p + 1) * math.log(idx.size / (4.0 * sigma * sigma)) + 2.0 * float(log_ranges.sum())
    return d_criterion(m).value, log_bound


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
