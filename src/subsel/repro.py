"""Desk-scale reproduction pipelines behind `subsel repro 1|2|3`.

Each pipeline simulates its dataset from a fixed seed, runs the applicable
selection algorithms, and writes selections, criterion values, coefficient
trajectories, and design scatter data into an output directory.  Artifacts
are deterministic functions of (seed, sizes): rerunning a pipeline with the
same arguments rewrites byte-identical files.  A pipeline returns only the
facts of its run that are not arguments; `subsel repro` writes them next to
the arguments in `resolved_config.json`.
"""

from __future__ import annotations

import os

import numpy as np

from .criteria import RobustContext, d_criterion
from .estimation import predict_classify
from .ingest_sim import (
    Dataset,
    default_analogue_grid,
    default_analogue_theta,
    grid_from_data,
    simulate_example2,
    simulate_example3,
    simulate_mortgage_analogue,
    standardize,
    write_csv,
    write_json,
    write_rows,
)
from .model_core import (
    CandidateGrid,
    ModelSpec,
    information_matrix_from_selection,
    json_ready,
    linear_spec,
    model_matrix,
    polynomial_basis,
)
from .select_iboss import run_iboss
from .select_robust import run_wiens
from .select_sequential import SeqConfig, run_sequential


def _curve_spec(with_confounder: bool) -> ModelSpec:
    f_fn, p = polynomial_basis(degree=1, intercept=True, dim=1)
    if not with_confounder:
        return ModelSpec(f_basis=f_fn, p=p)
    g_fn, q = polynomial_basis(degree=1, intercept=False, dim=1, scale=1.0 / 9.0)
    return ModelSpec(f_basis=f_fn, p=p, g_basis=g_fn, q=q)


def repro_example1(
    out_dir,
    seed: int = 0,
    n_data: int = 100_000,
    n_init: int = 5000,
    n_target: int = 6200,
    n_test: int = 10_010,
    threshold: float = 0.5,
) -> dict:
    """Sequential selection on the loan-default analogue, three init styles."""
    os.makedirs(out_dir, exist_ok=True)
    theta_gen = default_analogue_theta()
    full = simulate_mortgage_analogue(n_data + n_test, seed=seed)
    train = Dataset(
        feature_names=full.feature_names,
        features=full.features[:n_data],
        response=full.response[:n_data],
        response_name=full.response_name,
    )
    test_x = full.features[n_data:]
    test_y = full.response[n_data:]

    grid = default_analogue_grid()
    spec = linear_spec(4)
    test_rows = model_matrix(spec, test_x)

    strategies = {
        "random": SeqConfig(n_init=n_init, n_target=n_target, utility="D", seed=seed),
        "stratified": SeqConfig(
            n_init=n_init, n_target=n_target, utility="D", seed=seed,
            init_strategy="stratified", init_column="ccDebt", init_quantiles=10,
        ),
        "doped": SeqConfig(
            n_init=n_init, n_target=n_target, utility="D", seed=seed,
            init_strategy="dope", init_label=1.0,
        ),
    }

    estimates = {"generator_theta": theta_gen}
    criteria_out = {}
    for name, cfg in strategies.items():
        selection, trace = run_sequential(train, grid, spec, cfg)
        write_json(selection.to_json_dict(), os.path.join(out_dir, f"selection_{name}.json"))
        trace.write_theta_csv(os.path.join(out_dir, f"trajectory_{name}.csv"))
        fit = trace.final_fit
        estimates[name] = {"theta_hat": fit.theta, "std_errors": fit.std_errors, "converged": fit.converged}
        confusion = predict_classify(fit, test_rows, test_y, threshold=threshold)
        write_json(confusion.to_json_dict(), os.path.join(out_dir, f"confusion_{name}.json"))
        m = information_matrix_from_selection(spec, train, selection)
        criteria_out[name] = json_ready(d_criterion(m))

    write_json(json_ready(estimates), os.path.join(out_dir, "estimates.json"))
    write_json(criteria_out, os.path.join(out_dir, "criteria.json"))
    return {"positives_train": int(train.response.sum())}


_SCATTER_HEADER = ("variant", "algorithm", "data_index", "x", "z", "weight")


def _design_scatter_rows(variant: str, algorithm: str, ds: Dataset, indices) -> list[list]:
    """designs.csv rows of data points: no weight, and no z without a confounder."""
    z = ds.confounders[:, 0] if ds.confounders is not None else None
    return [[variant, algorithm, i, ds.features[i, 0], "" if z is None else z[i], ""] for i in indices]


def _seq_and_iboss(out_dir, variant: str, ds: Dataset, grid: CandidateGrid, spec: ModelSpec,
                   n_init: int, n_design: int, seed: int) -> tuple[dict, list[list], dict]:
    """The sequential and extreme-value selections of one curve variant; the extreme-value one reads the
    confounder exactly when `spec` models it.  Writes `selection_seq_<variant>.json` and
    `selection_iboss_<variant>.json` and returns their D criteria, their designs.csv rows and the
    selections, keyed "sequential" and "iboss"."""
    cfg = SeqConfig(n_init=n_init, n_target=n_design, utility="D", seed=seed, family="linear")
    selections = {
        "sequential": run_sequential(ds, grid, spec, cfg)[0],
        "iboss": run_iboss(np.hstack([ds.features, ds.confounders]) if spec.q else ds.features, n_design),
    }
    criteria, scatter = {}, []
    for (algorithm, sel), short in zip(selections.items(), ("seq", "iboss")):
        write_json(sel.to_json_dict(), os.path.join(out_dir, f"selection_{short}_{variant}.json"))
        criteria[algorithm] = json_ready(d_criterion(information_matrix_from_selection(spec, ds, sel)))
        scatter += _design_scatter_rows(variant, algorithm, ds, sel.indices)
    return criteria, scatter, selections


def repro_example2(
    out_dir,
    seed: int = 0,
    n_points: int = 105,
    n_design: int = 12,
    n_init: int = 6,
    grid_levels: int = 200,
) -> dict:
    """Sequential vs extreme-value designs on the nonlinear curve data."""
    os.makedirs(out_dir, exist_ok=True)
    ds = simulate_example2(n_points, seed=seed)
    write_csv(ds, os.path.join(out_dir, "dataset.csv"))
    ds_std = standardize(ds)
    abs_std_x = np.abs(ds_std.features[:, 0])

    scatter = []
    criteria_out = {}
    for variant in ("xz", "x"):
        if variant == "xz":
            grid = grid_from_data(ds, n_levels=grid_levels)
        else:
            grid = CandidateGrid.from_axes(
                {"x": np.linspace(ds.features[:, 0].min(), ds.features[:, 0].max(), grid_levels)}
            )
        criteria, rows, selections = _seq_and_iboss(
            out_dir, variant, ds, grid, _curve_spec(variant == "xz"), n_init, n_design, seed)
        criteria_out[variant] = {
            **criteria,
            **{f"mean_abs_std_x_{algorithm}": float(abs_std_x[sel.indices].mean())
               for algorithm, sel in selections.items()},
        }
        scatter += rows

    write_rows(os.path.join(out_dir, "designs.csv"), _SCATTER_HEADER, scatter)
    write_json(criteria_out, os.path.join(out_dir, "criteria.json"))
    return {}


def repro_example3(
    out_dir,
    seed: int = 0,
    n_design: int = 12,
    n_init: int = 6,
    nu: float = 0.5,
    robust_iters: int = 2000,
    grid_levels: int = 100,
) -> dict:
    """All three selection styles on the integer wave data at nu = 0.5."""
    os.makedirs(out_dir, exist_ok=True)
    ds = simulate_example3(seed=seed)
    write_csv(ds, os.path.join(out_dir, "dataset.csv"))

    scatter = []
    criteria_out = {}
    for variant in ("xz", "x"):
        spec = _curve_spec(variant == "xz")
        axes = {"x": np.linspace(-100.0, 100.0, grid_levels)}
        if variant == "xz":
            axes["z"] = np.linspace(-3.0, 3.0, grid_levels)
        grid = CandidateGrid.from_axes(axes, z_dim=len(axes) - 1)
        criteria, rows, _ = _seq_and_iboss(out_dir, variant, ds, grid, spec, n_init, n_design, seed)

        ctx = RobustContext.from_grid(spec, grid, nu, full_rows=True)
        w_init = ctx.p + 1
        measure, traj = run_wiens(ctx, n_init=w_init, n_target=w_init + robust_iters, seed=seed)
        traj.write_dnu_csv(os.path.join(out_dir, f"dnu_trajectory_{variant}.csv"))
        write_json(measure.to_json_dict(), os.path.join(out_dir, f"robust_measure_{variant}.json"))
        criteria_out[variant] = {**criteria, "robust_final_dnu": float(traj.final_dnu)}
        scatter += rows
        # robust design: grid points carrying the heaviest n_design weights
        z = measure.z_points
        scatter += [[variant, "robust", -1, measure.x_points[g, 0], "" if z is None else z[g, 0], measure.weights[g]]
                    for g in np.argsort(-measure.weights, kind="stable")[:n_design]]

    write_rows(os.path.join(out_dir, "designs.csv"), _SCATTER_HEADER, scatter)
    write_json(criteria_out, os.path.join(out_dir, "criteria.json"))
    return {}
