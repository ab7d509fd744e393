"""Command-line interface.

One command per process; every command resolves its options as
flags > config file > defaults, echoes the resolved configuration in its
output, and writes deterministic JSON/CSV artifacts.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical errors; failures emit a
one-line machine-parseable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import repro as repro_mod
from .criteria import (
    RobustContext,
    a_criterion,
    d_criterion,
    det_r_bias,
    det_r_conf,
    get_check,
    i_criterion,
    trace_r,
    wiens_losses,
)
from .errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyDatasetError,
    ExhaustionError,
    InvalidInputError,
    ParseError,
    SeparationError,
    SingularMatrixError,
    SubselError,
)
from .ingest_sim import (
    build_grid,
    load_csv,
    simulate_example2,
    simulate_example3,
    simulate_mortgage_analogue,
    standardize,
    write_csv,
    write_json,
)
from .model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    ModelSpec,
    information_matrix,
    information_matrix_from_selection,
    model_spec_from_config,
    polynomial_basis,
)
from .select_iboss import iboss_det_bound, iboss_permutation_report, run_iboss
from .select_robust import run_wiens
from .select_sequential import SeqConfig, run_sequential

_CONFIG_ERRORS = (
    ConfigError,
    InvalidInputError,
    ParseError,
    EmptyDatasetError,
    DegenerateColumnError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    json.JSONDecodeError,
)
_NUMERICAL_ERRORS = (SingularMatrixError, SeparationError, ExhaustionError)


def _emit_error(kind: str, exc_type: str, message: str) -> None:
    record = {"error": {"kind": kind, "type": exc_type, "message": message}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as one-line JSON and exits 2."""

    def error(self, message):
        _emit_error("config", "ArgumentError", message)
        raise SystemExit(2)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None


def _emit(obj, out_path) -> None:
    if out_path:
        write_json(obj, out_path)
    else:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults for every key in `defaults`."""
    cfg_file = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        cfg_file = _load_json(cfg_path)
        if not isinstance(cfg_file, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(cfg_file) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in cfg_file:
            resolved[key] = cfg_file[key]
        else:
            resolved[key] = default
    return resolved


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise InvalidInputError(f"expected a comma-separated integer list, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise InvalidInputError(f"expected a comma-separated number list, got {text!r}") from None


def _name_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _grid_from_json(path) -> CandidateGrid:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("grid file must hold a JSON object")
    if "axes" in obj:
        return build_grid(obj["axes"], z_axes=obj.get("z_axes"))
    if "points" in obj:
        return CandidateGrid.from_points(
            obj["points"], names=obj.get("names"), z_dim=int(obj.get("z_dim", 0))
        )
    raise ConfigError("grid file needs an 'axes' or 'points' entry")


def _default_data_grid(ds) -> CandidateGrid:
    """Feature-spanning crossed grid capped near 10k points (200 levels max)."""
    dim = ds.features.shape[1]
    levels = min(200, max(2, int(round(10_000 ** (1.0 / dim)))))
    axes = {
        name: np.linspace(ds.features[:, j].min(), ds.features[:, j].max(), levels)
        for j, name in enumerate(ds.feature_names)
    }
    return build_grid(axes)


def _design_from_json(path) -> DesignMeasure:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "points" not in obj or "weights" not in obj:
        raise ConfigError("design file needs 'points' and 'weights' entries")
    return DesignMeasure(obj["points"], obj["weights"], obj.get("z_points"))


def _bias_from_json(path) -> BiasSpec:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("bias file must hold a JSON object")
    try:
        return BiasSpec(
            psi=np.asarray(obj.get("psi", []), dtype=float),
            phi=np.asarray(obj.get("phi", []), dtype=float),
            sigma=float(obj["sigma"]),
            n_total=int(obj["n_total"]),
        )
    except KeyError as exc:
        raise ConfigError(f"bias file is missing {exc}") from None


def _dataset_from_args(resolved: dict):
    return load_csv(
        resolved["input"],
        response_column=resolved.get("response"),
        feature_columns=resolved.get("features"),
        confounder_columns=resolved.get("confounders"),
        strict=bool(resolved.get("strict", False)),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    defaults = {
        "seed": 0, "n": None, "theta": None, "out": None,
        "kind": args.kind,
    }
    resolved = _resolve(args, defaults)
    kind = resolved["kind"]
    seed = int(resolved["seed"])
    if kind == "example2":
        ds = simulate_example2(int(resolved["n"] or 105), seed=seed)
    elif kind == "example3":
        ds = simulate_example3(seed=seed, n=int(resolved["n"] or 105))
    elif kind == "mortgage":
        if resolved["n"] is None:
            raise InvalidInputError("simulate mortgage needs --n")
        theta = resolved["theta"]
        if theta is not None:
            theta = np.asarray(theta, dtype=float)
        ds = simulate_mortgage_analogue(int(resolved["n"]), theta=theta, seed=seed)
    else:
        raise InvalidInputError(f"unknown simulate kind {kind!r}")
    out = resolved["out"]
    if not out:
        raise InvalidInputError("simulate needs --out for the CSV artifact")
    write_csv(ds, out)
    _emit({"command": "simulate", "resolved_config": _json_ready(resolved), "n_rows": ds.n_rows}, None)
    return 0


def _json_ready(resolved: dict) -> dict:
    out = {}
    for k, v in resolved.items():
        if isinstance(v, np.ndarray):
            out[k] = [float(x) for x in v]
        elif isinstance(v, (list, tuple)):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def cmd_iboss(args) -> int:
    defaults = {
        "input": None, "n": None, "order": None, "features": None, "response": None,
        "confounders": None, "sigma": 1.0, "out": None, "perm_report": None,
        "strict": False,
    }
    resolved = _resolve(args, defaults)
    if not resolved["input"] or resolved["n"] is None:
        raise InvalidInputError("iboss needs --input and --n")
    ds = _dataset_from_args(resolved)
    selection = run_iboss(ds, int(resolved["n"]), column_order=resolved["order"])
    det, bound = iboss_det_bound(ds, selection, sigma=float(resolved["sigma"]))
    payload = {
        "command": "iboss",
        "indices": [int(i) for i in selection.indices],
        "det": det,
        "bound": bound,
        "per_variable_cuts": selection.provenance["cuts"],
        "column_order": selection.provenance["column_order"],
        "r": selection.provenance["r"],
        "resolved_config": _json_ready(resolved),
    }
    _emit(payload, resolved["out"])
    if resolved["perm_report"]:
        report = iboss_permutation_report(ds, int(resolved["n"]))
        write_json(report, resolved["perm_report"])
    return 0


def cmd_seqdes(args) -> int:
    defaults = {
        "input": None, "grid": None, "model": None, "n_init": None, "n_target": None,
        "batch": 1, "utility": "D", "nu": None, "bias": None, "family": "auto",
        "distance": "euclidean", "init": "random", "init_column": None,
        "init_quantiles": 10, "init_label": 1.0, "seed": 0,
        "stop": "n_reached", "stop_epsilon": 0.0,
        "features": None, "response": None, "confounders": None, "strict": False,
        "out": None, "trace_csv": None,
    }
    resolved = _resolve(args, defaults)
    for key in ("input", "n_init", "n_target"):
        if resolved[key] is None:
            raise InvalidInputError(f"seqdes needs --{key.replace('_', '-')}")
    if not resolved.get("response"):
        raise InvalidInputError("seqdes needs --response")
    ds = _dataset_from_args(resolved)
    if resolved["grid"]:
        grid = _grid_from_json(resolved["grid"])
    else:
        grid = _default_data_grid(ds)
    if resolved["model"]:
        spec = model_spec_from_config(_load_json(resolved["model"]))
    else:
        fn, p = polynomial_basis(degree=1, intercept=True, dim=ds.features.shape[1])
        spec = ModelSpec(f_basis=fn, p=p)
    bias = _bias_from_json(resolved["bias"]) if resolved["bias"] else None
    cfg = SeqConfig(
        n_init=int(resolved["n_init"]),
        n_target=int(resolved["n_target"]),
        batch_size=int(resolved["batch"]),
        utility=resolved["utility"],
        nu=None if resolved["nu"] is None else float(resolved["nu"]),
        bias=bias,
        family=resolved["family"],
        distance=resolved["distance"],
        init_strategy=resolved["init"],
        init_column=resolved["init_column"],
        init_quantiles=int(resolved["init_quantiles"]),
        init_label=float(resolved["init_label"]),
        seed=int(resolved["seed"]),
        stop_rule=resolved["stop"],
        stop_epsilon=float(resolved["stop_epsilon"]),
    )
    selection, trace = run_sequential(ds, grid, spec, cfg)
    resolved_echo = dict(resolved)
    resolved_echo["bias"] = bool(bias)
    payload = {
        "command": "seqdes",
        "selection": selection.to_json_dict(),
        "trace": trace.to_json_dict(),
        "resolved_config": _json_ready(resolved_echo),
    }
    _emit(payload, resolved["out"])
    if resolved["trace_csv"]:
        trace.write_theta_csv(resolved["trace_csv"])
    return 0


def cmd_robust(args) -> int:
    defaults = {
        "grid": None, "model": None, "nu": None, "iters": None, "n_init": None,
        "seed": 0, "stop": "n_reached", "stop_epsilon": 0.0, "window": 25,
        "full_rows": False, "out": None, "trace_csv": None,
    }
    resolved = _resolve(args, defaults)
    for key in ("grid", "model", "nu", "iters"):
        if resolved[key] is None:
            raise InvalidInputError(f"robust needs --{key.replace('_', '-')}")
    grid = _grid_from_json(resolved["grid"])
    spec = model_spec_from_config(_load_json(resolved["model"]))
    ctx = RobustContext.from_grid(
        spec, grid, float(resolved["nu"]), full_rows=bool(resolved["full_rows"])
    )
    n_init = resolved["n_init"]
    n_init = ctx.p + 1 if n_init is None else int(n_init)
    measure, traj = run_wiens(
        ctx,
        n_init=n_init,
        n_target=n_init + int(resolved["iters"]),
        seed=int(resolved["seed"]),
        stop=resolved["stop"],
        stop_epsilon=float(resolved["stop_epsilon"]),
        stop_window=int(resolved["window"]),
    )
    payload = {
        "command": "robust",
        "measure": measure.to_json_dict(),
        "trajectory": traj.to_json_dict(),
        "resolved_config": _json_ready({**resolved, "n_init": n_init}),
    }
    _emit(payload, resolved["out"])
    if resolved["trace_csv"]:
        traj.write_dnu_csv(resolved["trace_csv"])
    return 0


def cmd_criteria(args) -> int:
    defaults = {
        "model": None, "design": None, "names": None, "grid": None, "nu": None,
        "bias": None, "out": None,
    }
    resolved = _resolve(args, defaults)
    for key in ("model", "design", "names"):
        if resolved[key] is None:
            raise InvalidInputError(f"criteria needs --{key}")
    spec = model_spec_from_config(_load_json(resolved["model"]))
    design = _design_from_json(resolved["design"])
    names = resolved["names"]
    if isinstance(names, str):
        names = _name_list(names)
    grid = _grid_from_json(resolved["grid"]) if resolved["grid"] else None
    bias = _bias_from_json(resolved["bias"]) if resolved["bias"] else None

    records = []
    m = None
    for name in names:
        if name in ("D", "A", "traceR", "detR_bias", "detR_conf") and m is None:
            m = information_matrix(spec, design)
        if name == "D":
            records.append(d_criterion(m).to_json_dict())
        elif name == "A":
            records.append(a_criterion(m).to_json_dict())
        elif name == "I":
            if grid is None:
                raise InvalidInputError("criterion I needs --grid")
            records.append(i_criterion(spec, design, grid).to_json_dict())
        elif name in ("Inu", "Dnu"):
            if grid is None or resolved["nu"] is None:
                raise InvalidInputError("criteria Inu/Dnu need --grid and --nu")
            ctx = RobustContext.from_grid(spec, grid, float(resolved["nu"]))
            i_val, d_val = wiens_losses(ctx, design)
            records.append((i_val if name == "Inu" else d_val).to_json_dict())
        elif name == "traceR":
            if bias is None:
                raise InvalidInputError("criterion traceR needs --bias")
            records.append(trace_r(m, bias).to_json_dict())
        elif name == "detR_bias":
            if bias is None:
                raise InvalidInputError("criterion detR_bias needs --bias")
            records.append(det_r_bias(m, bias).to_json_dict())
        elif name == "detR_conf":
            if bias is None:
                raise InvalidInputError("criterion detR_conf needs --bias")
            records.append(det_r_conf(m, bias).to_json_dict())
        else:
            raise InvalidInputError(f"unknown criterion {name!r}")
    resolved_echo = dict(resolved)
    resolved_echo["names"] = names
    payload = {
        "command": "criteria",
        "criteria": records,
        "resolved_config": _json_ready(resolved_echo),
    }
    _emit(payload, resolved["out"])
    return 0


def cmd_check_get(args) -> int:
    defaults = {
        "model": None, "design": None, "grid": None, "k_eff": None, "tol": 1e-6,
        "out": None,
    }
    resolved = _resolve(args, defaults)
    for key in ("model", "design", "grid"):
        if resolved[key] is None:
            raise InvalidInputError(f"check-get needs --{key}")
    spec = model_spec_from_config(_load_json(resolved["model"]))
    design = _design_from_json(resolved["design"])
    grid = _grid_from_json(resolved["grid"])
    verdict = get_check(
        spec,
        design,
        grid,
        k_eff=None if resolved["k_eff"] is None else int(resolved["k_eff"]),
        tol=float(resolved["tol"]),
    )
    payload = {
        "command": "check-get",
        "verdict": verdict.to_json_dict(),
        "resolved_config": _json_ready(resolved),
    }
    _emit(payload, resolved["out"])
    return 0


def cmd_repro(args) -> int:
    defaults = {
        "example": args.example, "out_dir": None, "seed": 0,
        "n_data": None, "n_init": None, "n_target": None, "n_test": None,
        "n_points": None, "n_design": None, "grid_levels": None,
        "nu": None, "robust_iters": None, "threshold": None,
    }
    resolved = _resolve(args, defaults)
    if not resolved["out_dir"]:
        raise InvalidInputError("repro needs --out-dir")
    out_dir = resolved["out_dir"]
    example = int(resolved["example"])

    def take(key, fallback):
        return fallback if resolved[key] is None else type(fallback)(resolved[key])

    if example == 1:
        manifest = repro_mod.repro_example1(
            out_dir,
            seed=int(resolved["seed"]),
            n_data=take("n_data", 100_000),
            n_init=take("n_init", 5000),
            n_target=take("n_target", 6200),
            n_test=take("n_test", 10_010),
            threshold=take("threshold", 0.5),
        )
    elif example == 2:
        manifest = repro_mod.repro_example2(
            out_dir,
            seed=int(resolved["seed"]),
            n_points=take("n_points", 105),
            n_design=take("n_design", 12),
            n_init=take("n_init", 6),
            grid_levels=take("grid_levels", 200),
        )
    elif example == 3:
        manifest = repro_mod.repro_example3(
            out_dir,
            seed=int(resolved["seed"]),
            n_design=take("n_design", 12),
            n_init=take("n_init", 6),
            nu=take("nu", 0.5),
            robust_iters=take("robust_iters", 2000),
            grid_levels=take("grid_levels", 100),
        )
    else:
        raise InvalidInputError("repro example must be 1, 2, or 3")
    write_json(_json_ready(manifest), os.path.join(out_dir, "resolved_config.json"))
    sys.stdout.write(json.dumps({"command": "repro", "out_dir": out_dir}, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="subsel", description="Model-oriented subsample selection")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option defaults")

    p = sub.add_parser("simulate", help="generate a dataset CSV")
    p.add_argument("kind", choices=["example2", "example3", "mortgage"])
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--theta", type=_float_list, help="comma-separated generator coefficients")
    p.add_argument("--out", help="output CSV path")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("iboss", help="extreme-value subsample selection")
    p.add_argument("--input", help="input CSV")
    p.add_argument("--n", type=int, help="subsample size")
    p.add_argument("--order", type=_int_list, help="column processing order, e.g. 2,0,1,3")
    p.add_argument("--features", type=_name_list)
    p.add_argument("--response", help="response column (excluded from features)")
    p.add_argument("--confounders", type=_name_list)
    p.add_argument("--sigma", type=float)
    p.add_argument("--strict", action="store_const", const=True)
    p.add_argument("--out", help="selection JSON path (stdout when omitted)")
    p.add_argument("--perm-report", dest="perm_report", help="write the all-permutations diff report here")
    common(p)
    p.set_defaults(func=cmd_iboss)

    p = sub.add_parser("seqdes", help="sequential design-guided selection")
    p.add_argument("--input")
    p.add_argument("--grid", help="grid JSON ({axes: {...}} or {points: [...]})")
    p.add_argument("--model", help="model JSON ({f: ..., h: ..., g: ...})")
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--n-target", dest="n_target", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--utility", choices=["D", "A", "Inu", "Dnu", "traceR"])
    p.add_argument("--nu", type=float)
    p.add_argument("--bias", help="bias JSON for the traceR utility")
    p.add_argument("--family", choices=["auto", "linear", "logistic"])
    p.add_argument("--distance", choices=["euclidean", "scaled"])
    p.add_argument("--init", choices=["random", "stratified", "dope"])
    p.add_argument("--init-column", dest="init_column")
    p.add_argument("--init-quantiles", dest="init_quantiles", type=int)
    p.add_argument("--init-label", dest="init_label", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--stop", choices=["n_reached", "utility_gain_below"])
    p.add_argument("--stop-epsilon", dest="stop_epsilon", type=float)
    p.add_argument("--features", type=_name_list)
    p.add_argument("--response")
    p.add_argument("--confounders", type=_name_list)
    p.add_argument("--strict", action="store_const", const=True)
    p.add_argument("--out")
    p.add_argument("--trace-csv", dest="trace_csv", help="coefficient trajectory CSV path")
    common(p)
    p.set_defaults(func=cmd_seqdes)

    p = sub.add_parser("robust", help="minimax-robust design on a grid")
    p.add_argument("--grid")
    p.add_argument("--model")
    p.add_argument("--nu", type=float)
    p.add_argument("--iters", type=int, help="number of mass-moving iterations")
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--stop", choices=["n_reached", "dnu_gain_below"])
    p.add_argument("--stop-epsilon", dest="stop_epsilon", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--full-rows", dest="full_rows", action="store_const", const=True,
                   help="use the full (f,h,g) row as the regression basis")
    p.add_argument("--out")
    p.add_argument("--trace-csv", dest="trace_csv", help="loss trajectory CSV path")
    common(p)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("criteria", help="evaluate named criteria for a design")
    p.add_argument("--model")
    p.add_argument("--design", help="design JSON ({points, weights, z_points?})")
    p.add_argument("--names", type=_name_list, help="comma-separated criterion names")
    p.add_argument("--grid")
    p.add_argument("--nu", type=float)
    p.add_argument("--bias")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("check-get", help="verify design optimality on a grid")
    p.add_argument("--model")
    p.add_argument("--design")
    p.add_argument("--grid")
    p.add_argument("--k-eff", dest="k_eff", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_check_get)

    p = sub.add_parser("repro", help="run a reproduction pipeline")
    p.add_argument("example", type=int, choices=[1, 2, 3])
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-data", dest="n_data", type=int)
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--n-target", dest="n_target", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.add_argument("--n-design", dest="n_design", type=int)
    p.add_argument("--grid-levels", dest="grid_levels", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--robust-iters", dest="robust_iters", type=int)
    p.add_argument("--threshold", type=float)
    common(p)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except _NUMERICAL_ERRORS as exc:
        _emit_error("numerical", type(exc).__name__, str(exc))
        return 3
    except _CONFIG_ERRORS as exc:
        _emit_error("config", type(exc).__name__, str(exc))
        return 2
    except SubselError as exc:
        _emit_error("config", type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
