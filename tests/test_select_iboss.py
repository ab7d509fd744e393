"""Extreme-value subsampling: exactness, determinism, determinant bound."""

import numpy as np
import pytest

import subsel.select_iboss as si
from subsel.errors import InvalidInputError
from subsel.ingest_sim import Dataset, simulate_example2
from subsel.rng import CounterRng
from subsel.select_iboss import iboss_det_bound, iboss_permutation_report, run_iboss


def brute_force_reference(feats: np.ndarray, n_target: int, order=None) -> list[int]:
    """Slow restatement of the sweep used as an independent oracle: sort the
    available rows per variable (stable, so ties keep the lowest index) and
    peel quotas off both ends."""
    n, p = feats.shape
    order = list(range(p)) if order is None else list(order)
    r = n_target // (2 * p)
    short = n_target - 2 * p * r
    k_small = [r + (1 if t < short else 0) for t in range(p)]
    k_large = [r + (1 if p + t < short else 0) for t in range(p)]
    available = set(range(n))
    out: list[int] = []
    for pos, j in enumerate(order):
        rows = sorted(available)
        by_val = sorted(rows, key=lambda i: (feats[i, j], i))
        low = by_val[: k_small[pos]]
        available -= set(low)
        rows = sorted(available)
        by_val = sorted(rows, key=lambda i: (-feats[i, j], i))
        high = by_val[: k_large[pos]]
        available -= set(high)
        out.extend(sorted(low))
        out.extend(sorted(high))
    return out


def test_single_variable_keeps_both_ends():
    feats = np.arange(1.0, 11.0)[:, None]
    sel = run_iboss(feats, 4)
    assert sorted(int(i) for i in sel.indices) == [0, 1, 8, 9]
    assert sel.algorithm == "iboss"
    log_det, log_bound = iboss_det_bound(feats, sel)
    # M = sum r r' / sigma^2 over rows 1, 2, 9, 10: det = 4*186 - 22^2 = 260
    assert np.exp(log_det) == pytest.approx(260.0)
    # 4 (4/4)^2 * 9^2 = 324, attained only by a 2+2 design at the endpoints
    assert np.exp(log_bound) == pytest.approx(324.0)
    assert log_det <= log_bound


def test_bound_attained_by_endpoint_design():
    feats = np.array([0.0, 0.0, 1.0, 1.0])[:, None]
    sel = run_iboss(feats, 4)
    log_det, log_bound = iboss_det_bound(feats, sel)
    assert np.exp(log_det) == pytest.approx(np.exp(log_bound))


def test_matches_brute_force_reference():
    rng = CounterRng(5)
    for trial in range(10):
        n = 40 + trial
        p = 1 + rng.randbelow(3)
        feats = rng.uniform(n * p).reshape(n, p)
        if trial % 2:
            # inject heavy ties to exercise the lowest-index rule
            feats = np.round(feats * 4) / 4
        n_target = 2 * p + int(rng.randbelow(10))
        got = [int(i) for i in run_iboss(feats, n_target).indices]
        assert got == brute_force_reference(feats, n_target)


def test_column_order_changes_claims():
    # two correlated columns: whichever is swept first claims the shared
    # extreme rows, so reversing the order changes the provenance cuts
    rng = CounterRng(8)
    a = rng.normal(60)
    feats = np.column_stack([a, a + 0.01 * rng.normal(60)])
    fwd = run_iboss(feats, 8)
    rev = run_iboss(feats, 8, column_order=[1, 0])
    assert fwd.provenance["column_order"] == [0, 1]
    assert rev.provenance["column_order"] == [1, 0]
    assert [int(i) for i in fwd.indices] == brute_force_reference(feats, 8)
    assert [int(i) for i in rev.indices] == brute_force_reference(feats, 8, order=[1, 0])


def test_shortfall_round_robin():
    rng = CounterRng(12)
    feats = rng.uniform(100).reshape(50, 2)
    # n_target = 11 with p = 2: r = 2, shortfall 3 -> low sides get +1, +1,
    # then the first high side gets +1
    sel = run_iboss(feats, 11)
    cuts = sel.provenance["cuts"]
    assert [c["low_count"] for c in cuts] == [3, 3]
    assert [c["high_count"] for c in cuts] == [3, 2]
    assert sel.indices.size == 11
    assert [int(i) for i in sel.indices] == brute_force_reference(feats, 11)


def test_replay_determinism():
    rng = CounterRng(21)
    feats = rng.normal(600).reshape(200, 3)
    a = run_iboss(feats, 30)
    b = run_iboss(feats, 30)
    assert np.array_equal(a.indices, b.indices)
    assert a.provenance == b.provenance


def test_exact_cut_when_the_guess_falls_short(monkeypatch):
    # a 64-row sample target makes the guess read every 62nd row; those rows
    # get each column's lowest (even columns) or highest (odd columns) values,
    # so the sample overstates the tail, fewer rows than a side needs reach
    # the guessed cut, and the full-column partition has to replace it
    monkeypatch.setattr(si, "_SAMPLE_TARGET", 64)
    n, p = 4000, 3
    stride = np.arange(0, n, n // 64)
    off_stride = np.setdiff1d(np.arange(n), stride)
    full_partitions = []
    partition = np.partition

    def spy(a, kth, *args, **kwargs):
        if np.size(a) == n:
            full_partitions.append(kth)
        return partition(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    rng = CounterRng(33)
    for trial in range(4):
        feats = rng.normal(n * p).reshape(n, p)
        if trial % 2:
            feats = np.round(feats, 1)  # tie-heavy
        for j in range(p):
            by_val = np.argsort(feats[:, j], kind="stable")
            if j % 2:
                by_val = by_val[::-1]
            tail = by_val[: stride.size]
            col = feats[:, j].copy()
            feats[stride, j] = col[tail]
            feats[off_stride, j] = col[np.setdiff1d(np.arange(n), tail)]
        for n_target in (60, 600):
            full_partitions.clear()
            got = [int(i) for i in run_iboss(feats, n_target).indices]
            assert full_partitions, "the guessed cut never fell short"
            assert got == brute_force_reference(feats, n_target)


@pytest.mark.parametrize("p", [1, 2])
def test_input_is_left_untouched(p):
    # a high side is selected on a negated copy of its column; one column of
    # an ndarray is the caller's own memory, and a Dataset's is read-only
    feats = CounterRng(9).normal(50 * p).reshape(50, p)
    before = feats.copy()
    sel = run_iboss(feats, 6 * p)
    assert feats.tobytes() == before.tobytes()
    ds = Dataset(feature_names=tuple(f"x{j}" for j in range(p)), features=before.copy())
    assert not ds.features.flags.writeable
    assert np.array_equal(run_iboss(ds, 6 * p).indices, sel.indices)
    assert ds.features.tobytes() == before.tobytes()


def test_det_below_bound_on_simulated_data():
    for seed in range(8):
        ds = simulate_example2(2000, seed=seed)
        sel = run_iboss(ds, 40)
        log_det, log_bound = iboss_det_bound(ds, sel)
        assert -np.inf < log_det <= log_bound + 1e-9


def test_input_validation():
    feats = np.arange(20.0).reshape(10, 2)
    with pytest.raises(InvalidInputError):
        run_iboss(feats, 3)  # below 2 p
    with pytest.raises(InvalidInputError):
        run_iboss(feats, 11)  # exceeds rows
    with pytest.raises(InvalidInputError):
        run_iboss(feats, 4.5)
    with pytest.raises(InvalidInputError):
        run_iboss(feats, 4, column_order=[0, 0])
    with pytest.raises(InvalidInputError):
        run_iboss(np.empty((0, 2)), 4)


def test_permutation_report_groups_identical_outcomes():
    rng = CounterRng(44)
    feats = rng.uniform(80).reshape(40, 2)
    report = iboss_permutation_report(feats, 8)
    assert report["n_permutations"] == 2
    assert 1 <= report["n_distinct"] <= 2
    seen = []
    for group in report["groups"]:
        assert group["indices"] == sorted(group["indices"])
        for order in group["orders"]:
            got = sorted(int(i) for i in run_iboss(feats, 8, column_order=order).indices)
            assert got == group["indices"]
        seen.extend(group["orders"])
    assert sorted(seen) == [[0, 1], [1, 0]]


def test_permutation_report_finds_order_sensitivity():
    # duplicated column: sweeping either first takes the same extreme rows,
    # so both orders collapse into one group
    base = np.linspace(0, 1, 30)
    feats = np.column_stack([base, base])
    report = iboss_permutation_report(feats, 8)
    assert report["n_distinct"] == 1
    with pytest.raises(InvalidInputError):
        iboss_permutation_report(np.ones((100, 6)), 12)
