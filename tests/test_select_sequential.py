"""Sequential design-guided subsampling loop."""

import warnings

import numpy as np
import pytest

from subsel.errors import DegenerateColumnError, InvalidInputError, SingularMatrixError
from subsel.estimation import fit_logistic, fit_ols, sigmoid
from subsel.ingest_sim import Dataset
from subsel.model_core import (
    BiasSpec,
    CandidateGrid,
    ModelSpec,
    json_ready,
    model_matrix,
    polynomial_basis,
)
from subsel.rng import CounterRng
from subsel.select_sequential import SeqConfig, _stratified_init, run_sequential
from subsel.select_iboss import run_iboss


def line_spec() -> ModelSpec:
    f, p = polynomial_basis(degree=1)
    return ModelSpec(f_basis=f, p=p)


def linear_dataset(n: int = 60, seed: int = 2) -> Dataset:
    rng = CounterRng(seed)
    x = rng.uniform(n) * 2.0 - 1.0
    y = 1.0 + 2.0 * x + 0.05 * rng.normal(n)
    return Dataset(feature_names=("x",), features=x[:, None], response=y, response_name="y")


def logistic_dataset(n: int = 400, seed: int = 4) -> Dataset:
    rng = CounterRng(seed)
    x = rng.normal(n)
    pi = sigmoid(0.3 + 1.2 * x)
    y = (rng.uniform(n) < pi).astype(float)
    return Dataset(feature_names=("x",), features=x[:, None], response=y, response_name="y")


GRID = CandidateGrid.from_axes({"x": np.linspace(-1.0, 1.0, 21)})


def test_first_step_matches_det_augmentation_oracle():
    data = linear_dataset()
    spec = line_spec()
    cfg = SeqConfig(n_init=6, n_target=7, seed=11, family="linear")
    sel, trace = run_sequential(data, GRID, spec, cfg)
    init = trace.initial_indices
    rows_init = model_matrix(spec, data.features[init])
    m = rows_init.T @ rows_init / init.size
    w = 1.0 / (init.size + 1.0)
    rows_grid = model_matrix(spec, GRID.x_part())
    dets = [
        float(np.linalg.det(m + w * np.outer(r, r)))  # c = 1 for least squares
        for r in rows_grid
    ]
    assert trace.steps[0].grid_index == int(np.argmax(dets))
    # the transferred data row is the closest unsampled row to that point
    target = GRID.points[trace.steps[0].grid_index, 0]
    dist = np.abs(data.features[:, 0] - target).copy()
    dist[init] = np.inf
    assert trace.steps[0].data_indices[0] == int(np.argmin(dist))


def test_logistic_weights_enter_the_scores():
    # under a steep logistic fit the pi(1-pi) weights shrink far-out
    # candidates, so the chosen point must maximize c * quad, not quad alone
    data = logistic_dataset()
    spec = line_spec()
    cfg = SeqConfig(n_init=40, n_target=41, seed=3)
    sel, trace = run_sequential(data, GRID, spec, cfg)
    init = trace.initial_indices
    rows_init = model_matrix(spec, data.features[init])
    pi = sigmoid(rows_init @ trace.initial_theta)
    wts = pi * (1.0 - pi)
    m = (rows_init * wts[:, None]).T @ rows_init / init.size
    minv = np.linalg.inv(m)
    rows_grid = model_matrix(spec, GRID.x_part())
    pi_g = sigmoid(rows_grid @ trace.initial_theta)
    gain = pi_g * (1.0 - pi_g) * np.einsum("gi,ij,gj->g", rows_grid, minv, rows_grid)
    assert trace.steps[0].grid_index == int(np.argmax(gain))


def test_trivial_run_returns_initial_sample():
    data = linear_dataset()
    cfg = SeqConfig(n_init=5, n_target=5, seed=1, family="linear")
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    assert sel.indices.size == 5
    assert trace.steps == []
    assert np.array_equal(sel.indices, trace.initial_indices)
    assert trace.final_fit is not None


def test_reaches_exact_target_with_distinct_rows():
    data = linear_dataset()
    cfg = SeqConfig(n_init=4, n_target=20, seed=7, family="linear")
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    idx = [int(i) for i in sel.indices]
    assert len(idx) == 20
    assert len(set(idx)) == 20
    assert all(0 <= i < data.n_rows for i in idx)
    assert trace.steps[-1].n_selected == 20
    assert sel.provenance["stop_reason"] == "n_reached"


def test_batch_mode_transfers_k_rows_per_step():
    data = linear_dataset(n=80)
    cfg = SeqConfig(n_init=4, n_target=16, batch_size=3, seed=9, family="linear")
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    assert sel.indices.size == 16
    sizes = [s.data_indices.size for s in trace.steps]
    assert sizes == [3, 3, 3, 3]
    for s in trace.steps:
        assert len(set(int(i) for i in s.data_indices)) == s.data_indices.size


def test_stop_rule_utility_gain():
    data = linear_dataset()
    cfg = SeqConfig(
        n_init=5, n_target=30, seed=13, family="linear",
        stop_rule="utility_gain_below", stop_epsilon=1e6,
    )
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    # the rule compares consecutive utilities, so it can fire at step 2
    assert trace.stop_reason == "utility_gain_below"
    assert len(trace.steps) == 2
    assert sel.indices.size < 30


def test_same_seed_replays_exactly():
    data = logistic_dataset()
    cfg = SeqConfig(n_init=30, n_target=40, seed=17)
    a, ta = run_sequential(data, GRID, line_spec(), cfg)
    b, tb = run_sequential(data, GRID, line_spec(), cfg)
    assert np.array_equal(a.indices, b.indices)
    assert a.provenance["indices_sha256"] == b.provenance["indices_sha256"]
    assert np.allclose(ta.final_fit.theta, tb.final_fit.theta)
    c, _ = run_sequential(data, GRID, line_spec(),
                          SeqConfig(n_init=30, n_target=40, seed=18))
    assert not np.array_equal(a.indices, c.indices)


def test_dope_retains_response_blind_rows():
    # doped rows inform the first estimate only; the retained sample is the
    # same covariate-only draw the random strategy makes with that seed
    data = logistic_dataset(n=300, seed=6)
    base = SeqConfig(n_init=25, n_target=35, seed=21, init_strategy="random")
    doped = SeqConfig(n_init=25, n_target=35, seed=21, init_strategy="dope", init_label=1.0)
    _, t_rand = run_sequential(data, GRID, line_spec(), base)
    _, t_dope = run_sequential(data, GRID, line_spec(), doped)
    assert np.array_equal(t_rand.initial_indices, t_dope.initial_indices)
    positives = set(np.flatnonzero(data.response == 1.0))
    in_sample = set(int(i) for i in t_dope.initial_indices)
    if not positives <= in_sample:
        # enrichment actually changed the training set, so theta must differ
        assert not np.allclose(t_rand.initial_theta, t_dope.initial_theta)


def test_stratified_init_is_deterministic_and_sized():
    data = logistic_dataset(n=500, seed=8)
    cfg = SeqConfig(n_init=30, n_target=40, seed=23,
                    init_strategy="stratified", init_column="x", init_quantiles=5)
    _, ta = run_sequential(data, GRID, line_spec(), cfg)
    _, tb = run_sequential(data, GRID, line_spec(), cfg)
    assert np.array_equal(ta.initial_indices, tb.initial_indices)
    assert ta.initial_indices.size == 30
    assert np.unique(ta.initial_indices).size == 30
    with pytest.raises(InvalidInputError):
        run_sequential(data, GRID, line_spec(),
                       SeqConfig(n_init=5, n_target=6, init_strategy="stratified",
                                 init_column="missing"))


def test_stratified_edges_fall_back_to_all_rows_without_a_one():
    # a 0/1 response with no 1s runs under the logistic family; its bin edges
    # come from every row.  Only the start is pinned: such a sample has no finite MLE
    x = CounterRng(4).normal(200)
    data = Dataset(feature_names=("x",), features=x[:, None], response=np.zeros(200), response_name="y")
    cfg = SeqConfig(n_init=10, n_target=12, seed=5,
                    init_strategy="stratified", init_column="x", init_quantiles=4)
    _, trace = run_sequential(data, GRID, line_spec(), cfg)
    want = _stratified_init(CounterRng(5), x, np.arange(200), 10, 4)
    assert trace.initial_indices.tolist() == want


def test_stratified_covers_the_range():
    # with enough quantile bins the initial sample spans the covariate range
    data = linear_dataset(n=200, seed=10)
    cfg = SeqConfig(n_init=20, n_target=21, seed=29, family="linear",
                    init_strategy="stratified", init_column="x", init_quantiles=10)
    _, trace = run_sequential(data, GRID, line_spec(), cfg)
    vals = data.features[trace.initial_indices, 0]
    lo, hi = data.features[:, 0].min(), data.features[:, 0].max()
    assert vals.min() <= lo + 0.35 * (hi - lo)
    assert vals.max() >= hi - 0.35 * (hi - lo)


def test_a_utility_runs_and_improves_trace_inverse():
    data = linear_dataset(n=100, seed=12)
    cfg = SeqConfig(n_init=5, n_target=25, seed=31, family="linear", utility="A")
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    assert sel.indices.size == 25
    # A scores are trace-of-inverse values of the augmented measure: the
    # final working matrix must beat the initial one
    rows = model_matrix(line_spec(), data.features[sel.indices])
    m_final = rows.T @ rows / sel.indices.size
    rows0 = model_matrix(line_spec(), data.features[trace.initial_indices])
    m0 = rows0.T @ rows0 / trace.initial_indices.size
    assert np.trace(np.linalg.inv(m_final)) < np.trace(np.linalg.inv(m0)) * 1.5


def test_robust_utilities_run():
    data = linear_dataset(n=120, seed=14)
    for utility in ("Inu", "Dnu"):
        cfg = SeqConfig(n_init=8, n_target=18, seed=37, family="linear",
                        utility=utility, nu=0.5)
        sel, trace = run_sequential(data, GRID, line_spec(), cfg)
        assert sel.indices.size == 18
        assert all(np.isfinite(s.utility) for s in trace.steps)


def test_trace_r_utility_prefers_low_contamination():
    f, p = polynomial_basis(degree=1)
    spec = ModelSpec(f_basis=f, p=p, h_basis=lambda x: x[:, :1] ** 2, m=1)
    bias = BiasSpec(psi=[1.0], phi=[], sigma=1.0, n_total=30)
    data = linear_dataset(n=100, seed=16)
    cfg = SeqConfig(n_init=6, n_target=16, seed=41, family="linear",
                    utility="traceR", bias=bias)
    sel, trace = run_sequential(data, GRID, spec, cfg)
    assert sel.indices.size == 16
    assert all(np.isfinite(s.utility) for s in trace.steps)


def test_seq_config_validation():
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=0, n_target=5)
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=5, n_target=4)
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, batch_size=9)
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, utility="E")
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, utility="Inu")  # nu missing
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, utility="traceR")  # bias missing
    bias = BiasSpec(psi=[1.0], phi=[], sigma=1.0, n_total=30)
    for utility in ("D", "A", "traceR"):
        kw = {"bias": bias} if utility == "traceR" else {}
        with pytest.raises(InvalidInputError, match="nu is read by the Inu and Dnu utilities only"):
            SeqConfig(n_init=2, n_target=10, utility=utility, nu=0.5, **kw)
    for utility in ("D", "A", "Inu", "Dnu"):
        kw = {"nu": 0.5} if utility in ("Inu", "Dnu") else {}
        with pytest.raises(InvalidInputError, match="read by the traceR utility only"):
            SeqConfig(n_init=2, n_target=10, utility=utility, bias=bias, **kw)
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, init_strategy="stratified")  # column missing
    with pytest.raises(InvalidInputError):
        SeqConfig(n_init=2, n_target=10, stop_epsilon=-1.0)
    # the choices argparse checks on the command line
    for option, value in (("family", "probit"), ("distance", "manhattan"),
                          ("init_strategy", "all"), ("stop_rule", "never")):
        with pytest.raises(InvalidInputError, match=f"{option} must be one of"):
            SeqConfig(n_init=2, n_target=10, **{option: value})


def test_run_validation():
    data = linear_dataset(n=10)
    with pytest.raises(InvalidInputError):
        run_sequential(data, GRID, line_spec(),
                       SeqConfig(n_init=2, n_target=11, family="linear"))
    no_y = Dataset(feature_names=("x",), features=np.linspace(-1, 1, 10)[:, None])
    with pytest.raises(InvalidInputError):
        run_sequential(no_y, GRID, line_spec(), SeqConfig(n_init=2, n_target=4))
    wide = CandidateGrid.from_axes({"a": np.linspace(-1, 1, 5), "b": np.linspace(-1, 1, 5)})
    with pytest.raises(InvalidInputError):
        run_sequential(data, wide, line_spec(),
                       SeqConfig(n_init=2, n_target=4, family="linear"))
    with pytest.raises(InvalidInputError, match="^n_init 1 is below the model's 2 terms$"):
        run_sequential(data, GRID, line_spec(), SeqConfig(n_init=1, n_target=4, family="linear"))


def test_scaled_distance_rejects_constant_column():
    n = 30
    feats = np.column_stack([np.linspace(-1, 1, n), np.zeros(n)])
    data = Dataset(feature_names=("a", "b"), features=feats,
                   response=np.linspace(0, 1, n), response_name="y")
    grid = CandidateGrid.from_axes({"a": np.linspace(-1, 1, 5), "b": np.array([-1.0, 0.0, 1.0])})
    f, p = polynomial_basis(degree=1, dim=2)
    spec = ModelSpec(f_basis=f, p=p)
    with pytest.raises(DegenerateColumnError):
        run_sequential(data, grid, spec,
                       SeqConfig(n_init=3, n_target=6, family="linear", distance="scaled"))


def test_separation_fallback_grows_initial_sample():
    # seed 0 draws rows 35 and 191: opposite labels 0.14 apart in x, which
    # makes the 2-row logistic fit diverge, so the loop must widen the
    # initial sample until a fit succeeds
    data = logistic_dataset(n=500, seed=20)
    cfg = SeqConfig(n_init=2, n_target=60, seed=0)
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    assert trace.initial_indices.size > 2
    assert sel.indices.size == 60
    assert np.unique(sel.indices).size == 60


def duplicate_column_dataset(n: int = 60) -> Dataset:
    x = linear_dataset(n).features[:, 0]
    return Dataset(feature_names=("a", "b"), features=np.column_stack([x, x]),
                   response=1.0 + 2.0 * x, response_name="y")


def test_an_initial_fit_singular_at_n_target_raises(monkeypatch):
    # two copies of one column leave X'X singular however many rows are drawn:
    # the initial sample doubles up to n_target, and the fit there raises
    import subsel.select_sequential as seq

    sizes = []

    def counted(rows, y):
        sizes.append(rows.shape[0])
        return fit_ols(rows, y)

    monkeypatch.setattr(seq, "fit_ols", counted)
    f, p = polynomial_basis(degree=1, dim=2)
    grid = CandidateGrid.from_axes(dict.fromkeys(("a", "b"), np.linspace(-1.0, 1.0, 5)))
    with pytest.raises(SingularMatrixError):
        run_sequential(duplicate_column_dataset(), grid, ModelSpec(f_basis=f, p=p),
                       SeqConfig(n_init=4, n_target=10, seed=1, family="linear"))
    assert sizes == [4, 8, 10]


def rare_event_dataset() -> Dataset:
    rng = CounterRng(7)
    x = rng.normal(300)
    y = ((x > 0.8) & (rng.uniform(300) < 0.5)).astype(float)
    return Dataset(feature_names=("x",), features=x[:, None], response=y, response_name="y")


def test_one_label_sample_is_refitted_cold():
    # The dope sample retains no event for the first four steps.  A
    # zero-event sample has no MLE, so a start point would pick the answer:
    # those refits start from 0 and equal a direct fit bit for bit.
    data = rare_event_dataset()
    y = data.response
    cfg = SeqConfig(n_init=8, n_target=40, seed=15, init_strategy="dope", init_label=1.0)
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    rows = model_matrix(line_spec(), data.features)
    one_label = 0
    for step in trace.steps:
        idx = sel.indices[: step.n_selected]
        if y[idx].max() == 0.0:
            one_label += 1
            assert not step.warm and step.converged
            cold = fit_logistic(rows[idx], y[idx])
            assert np.array_equal(step.theta, cold.theta)
            assert step.newton_iters == cold.iterations
    assert one_label == 4
    assert all(s.converged for s in trace.steps)
    assert trace.steps[-1].warm
    assert sel.provenance["fit_failures"] == 0


def test_the_dope_initial_fit_never_seeds_a_refit():
    # The dope initial fit also trains on the enrichment rows, so its sums are
    # not those of the selection: the first refit starts at its theta but
    # evaluates the selection in full, exactly as a fit of those rows does.
    data = logistic_dataset()
    cfg = SeqConfig(n_init=20, n_target=30, seed=3, init_strategy="dope", init_label=1.0)
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    first = trace.steps[0]
    assert first.warm
    idx = sel.indices[: first.n_selected]
    rows = model_matrix(line_spec(), data.features[idx])
    direct = fit_logistic(rows, data.response[idx], theta0=trace.initial_theta)
    assert np.array_equal(first.theta, direct.theta)
    assert first.newton_iters == direct.iterations


def test_step_record_of_warm_and_failed_refits():
    data = logistic_dataset()
    _, trace = run_sequential(data, GRID, line_spec(), SeqConfig(n_init=20, n_target=40, seed=3))
    assert all(s.warm and s.converged and s.newton_iters >= 0 for s in trace.steps)
    assert set(json_ready(trace.steps[0])) >= {"newton_iters", "converged", "warm"}
    # at seed 3 the dope sample's events are its largest x for eight steps:
    # a separated sample fails both refits, and each step keeps the previous fit
    cfg = SeqConfig(n_init=8, n_target=40, seed=3, init_strategy="dope", init_label=1.0)
    sel, trace = run_sequential(rare_event_dataset(), GRID, line_spec(), cfg)
    failed = [i for i, s in enumerate(trace.steps) if not s.converged]
    assert sel.provenance["fit_failures"] == len(failed) == 8
    for i in failed:
        step = trace.steps[i]
        assert step.newton_iters == 0 and not step.warm
        assert np.array_equal(step.theta, trace.steps[i - 1].theta)


def test_a_warm_refit_that_raises_keeps_the_cold_fit(monkeypatch):
    # Every warm logistic refit raises: each step keeps the cold fit from 0,
    # records warm=False and no failure, and the run equals one whose refits
    # are all cold.
    import subsel.select_sequential as seq

    real = seq.fit_logistic

    def cold(x, y=None, theta0=None):
        return real(x, y)

    def warm_raises(x, y=None, theta0=None):
        if theta0 is not None:
            raise SingularMatrixError("warm refit")
        return real(x, y)

    data = logistic_dataset()
    cfg = SeqConfig(n_init=20, n_target=40, seed=3)
    monkeypatch.setattr(seq, "fit_logistic", cold)
    want_sel, want = run_sequential(data, GRID, line_spec(), cfg)
    monkeypatch.setattr(seq, "fit_logistic", warm_raises)
    sel, trace = run_sequential(data, GRID, line_spec(), cfg)
    assert len(trace.steps) == 20 and sel.provenance["fit_failures"] == 0
    assert np.array_equal(sel.indices, want_sel.indices)
    for step, ref in zip(trace.steps, want.steps):
        assert not step.warm and step.converged and step.newton_iters > 0
        assert np.array_equal(step.theta, ref.theta) and step.newton_iters == ref.newton_iters


def test_dnu_on_a_singular_initial_support_warns_nothing():
    # A quadratic model (p = 3) on rows that sit nearest grid points 0.0 and
    # -0.6: seed 0 retains rows 1, 0 and 5, a support of 2 < p points, so
    # the first scores raise, with no warning ahead of the error.
    f, p = polynomial_basis(degree=2)
    spec = ModelSpec(f_basis=f, p=p)
    x = np.array([0.0, 0.03, 0.6, 0.63, -0.6, -0.63])
    data = Dataset(feature_names=("x",), features=x[:, None], response=1.0 + x - x * x,
                   response_name="y")
    cfg = SeqConfig(n_init=3, n_target=6, utility="Dnu", nu=0.5, family="linear", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="R on 2 grid points, p = 3, is singular"):
            run_sequential(data, GRID, spec, cfg)


def test_theta_csv_layout(tmp_path):
    data = linear_dataset()
    cfg = SeqConfig(n_init=5, n_target=9, seed=47, family="linear")
    _, trace = run_sequential(data, GRID, line_spec(), cfg)
    path = tmp_path / "trace.csv"
    trace.write_theta_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,n_selected,theta_0,theta_1"
    assert len(lines) == 1 + 1 + len(trace.steps)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "5"
    assert float(first[2]) == pytest.approx(trace.initial_theta[0])


def test_both_selectors_yield_valid_selections_on_same_data():
    # no ordering claim between the two algorithms, just validity of both
    data = linear_dataset(n=100, seed=24)
    cfg = SeqConfig(n_init=5, n_target=20, seed=53, family="linear")
    seq_sel, _ = run_sequential(data, GRID, line_spec(), cfg)
    ib_sel = run_iboss(data.features, 20)
    for sel in (seq_sel, ib_sel):
        idx = np.asarray(sel.indices, dtype=int)
        assert idx.size == 20
        assert np.unique(idx).size == 20
        assert idx.min() >= 0 and idx.max() < 100
