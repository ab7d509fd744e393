"""Properties of the extreme-value quota rule over random shapes and tie
patterns, against the brute-force reference of `test_select_iboss`."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.select_iboss import iboss_det_bound, run_iboss
from test_select_iboss import brute_force_reference


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 4),
    extra=st.integers(0, 60),
    ties=st.sampled_from(["none", "levels", "duplicate_rows"]),
    levels=st.integers(2, 5),
    data=st.data(),
)
def test_quota_rule_properties(seed, p, extra, ties, levels, data):
    """Over random shapes and tie patterns the quota rule selects n_target
    distinct rows, exactly the reference's (so ties go to the lowest index),
    and their determinant stays below the bound."""
    rng = np.random.default_rng(seed)
    n = 2 * p + extra
    if ties == "levels":  # few values per column, both ends present
        feats = rng.integers(0, levels, size=(n, p)).astype(float)
        feats[0], feats[1] = 0.0, levels - 1.0
    elif ties == "duplicate_rows":
        base = rng.normal(size=(max(2, n // 3), p))
        picks = rng.integers(0, base.shape[0], size=n)
        picks[:2] = [0, 1]
        feats = base[picks]
    else:
        feats = rng.normal(size=(n, p))
    n_target = data.draw(st.integers(2 * p, n), label="n_target")
    order = data.draw(st.permutations(range(p)), label="order")
    sel = run_iboss(feats, n_target, column_order=order)
    got = [int(i) for i in sel.indices]
    assert len(set(got)) == len(got) == n_target
    assert got == brute_force_reference(feats, n_target, order=order)
    log_det, log_bound = iboss_det_bound(feats, sel)
    # the bound is attained by endpoint designs, so allow its rounding
    assert log_det <= log_bound + 1e-9
