"""Command-line interface.

One command per process; every command resolves its options as
flags > config file > defaults, echoes the resolved configuration in its
output, and writes deterministic JSON/CSV artifacts.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical errors; failures emit a
one-line machine-parseable JSON record on stderr, and so does an input CSV
that had rows dropped.
"""

from __future__ import annotations

import argparse
import inspect
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
    exp_or_none,
    get_check,
    i_criterion,
    trace_r,
    wiens_losses,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    SeparationError,
    SingularMatrixError,
    SubselError,
)
from .ingest_sim import (
    build_grid,
    json_text,
    load_csv,
    simulate_example2,
    simulate_example3,
    simulate_mortgage_analogue,
    write_csv,
    write_json,
)
from .model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    information_matrix,
    json_ready,
    linear_spec,
    model_spec_from_config,
)
from .select_iboss import iboss_det_bound, iboss_permutation_report, run_iboss
from .select_robust import STOPS, run_wiens
from .select_sequential import (
    DISTANCES,
    FAMILIES,
    STOP_RULES,
    STRATEGIES,
    UTILITIES,
    SeqConfig,
    run_sequential,
)

# every other SubselError is a configuration or input problem
_CONFIG_ERRORS = (SubselError, FileNotFoundError, IsADirectoryError, PermissionError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (SingularMatrixError, SeparationError)
# the criteria that read a bias file, by name
_BIAS_CRITERIA = {"traceR": trace_r, "detR_bias": det_r_bias, "detR_conf": det_r_conf}


def _emit_record(level: str, kind: str, exc_type: str, message: str, **fields) -> None:
    record = {level: {"kind": kind, "type": exc_type, "message": message, **fields}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as one-line JSON and exits 2."""

    def error(self, message):
        _emit_record("error", "config", "ArgumentError", message)
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
        sys.stdout.write(json_text(obj))


def _resolve(args: argparse.Namespace, *required: str) -> dict:
    """The command's options, as argparse resolved them: flags > config file > defaults.

    Raises InvalidInputError "<command> needs --<flag>" for the first of the
    `required` options that is unset or empty.
    """
    resolved = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    for key in required:
        if resolved[key] is None or resolved[key] == "":
            raise InvalidInputError(f"{args.command} needs --{key.replace('_', '-')}")
    return resolved


def _config_defaults(path, options: dict) -> dict:
    """The config file at `path` as defaults for a command whose options are `options`.

    Each value becomes the text a flag would carry, a list comma-joined, so
    that argparse parses it with the option's own `type`.  A switch takes
    only true or false; null leaves an option at its default.
    """
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    texts = {}
    for key, value in cfg.items():
        if isinstance(options[key], bool):  # a store_true switch
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} is a switch: give true or false, not {value!r}")
            texts[key] = value
        elif value is not None:
            texts[key] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return texts


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list, got {text!r}") from None


def _name_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _grid_from_json(path) -> CandidateGrid:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("grid file must hold a JSON object")
    if "axes" in obj:
        return build_grid(obj["axes"], z_axes=obj.get("z_axes"))
    if "points" in obj:
        return CandidateGrid(obj["points"], names=obj.get("names"), z_dim=int(obj.get("z_dim", 0)))
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
    """The --input CSV; rows it dropped are named in one warning record on stderr."""
    path = resolved["input"]
    ds = load_csv(
        path,
        response_column=resolved["response"],
        feature_columns=resolved["features"],
        confounder_columns=resolved["confounders"],
        strict=resolved["strict"],
    )
    if ds.n_dropped:
        message = f"dropped {ds.n_dropped} rows of {path} with a used cell that is not a finite number"
        _emit_record("warning", "input", "DroppedRows", message, file=path, n_dropped=ds.n_dropped)
    return ds


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    resolved = _resolve(args, "out", *(["n"] if args.kind == "mortgage" else []))
    kind, n, seed = resolved["kind"], resolved["n"], resolved["seed"]
    sized = {} if n is None else {"n": n}
    if kind != "mortgage" and resolved["theta"] is not None:
        raise InvalidInputError(f"simulate {kind} does not take --theta")
    if kind == "example2":
        ds = simulate_example2(seed=seed, **sized)
    elif kind == "example3":
        ds = simulate_example3(seed=seed, **sized)
    else:
        ds = simulate_mortgage_analogue(n, theta=resolved["theta"], seed=seed)
    write_csv(ds, resolved["out"])
    _emit({"command": "simulate", "resolved_config": resolved, "n_rows": ds.n_rows}, None)
    return 0


def cmd_iboss(args) -> int:
    resolved = _resolve(args, "input", "n")
    ds = _dataset_from_args(resolved)
    selection = run_iboss(ds, resolved["n"], column_order=resolved["order"])
    log_det, log_bound = iboss_det_bound(ds, selection, sigma=resolved["sigma"])
    payload = {
        "command": "iboss",
        "indices": selection.indices.tolist(),
        "det": exp_or_none(log_det),
        "bound": exp_or_none(log_bound),
        "log_det": None if log_det == -np.inf else log_det,
        "log_bound": None if log_bound == -np.inf else log_bound,
        "per_variable_cuts": selection.provenance["cuts"],
        "column_order": selection.provenance["column_order"],
        "r": selection.provenance["r"],
        "resolved_config": resolved,
    }
    _emit(payload, resolved["out"])
    if resolved["perm_report"]:
        report = iboss_permutation_report(ds, resolved["n"])
        write_json(report, resolved["perm_report"])
    return 0


def cmd_seqdes(args) -> int:
    resolved = _resolve(args, "input", "n_init", "n_target", "response")
    ds = _dataset_from_args(resolved)
    if resolved["grid"]:
        grid = _grid_from_json(resolved["grid"])
    else:
        grid = _default_data_grid(ds)
    if resolved["model"]:
        spec = model_spec_from_config(_load_json(resolved["model"]))
    else:
        spec = linear_spec(ds.features.shape[1])
    bias = _bias_from_json(resolved["bias"]) if resolved["bias"] else None
    cfg = SeqConfig(
        n_init=resolved["n_init"],
        n_target=resolved["n_target"],
        batch_size=resolved["batch"],
        utility=resolved["utility"],
        nu=resolved["nu"],
        bias=bias,
        family=resolved["family"],
        distance=resolved["distance"],
        init_strategy=resolved["init"],
        init_column=resolved["init_column"],
        init_quantiles=resolved["init_quantiles"],
        init_label=resolved["init_label"],
        seed=resolved["seed"],
        stop_rule=resolved["stop"],
        stop_epsilon=resolved["stop_epsilon"],
    )
    selection, trace = run_sequential(ds, grid, spec, cfg)
    payload = {
        "command": "seqdes",
        "selection": selection.to_json_dict(),
        "trace": json_ready(trace),
        "resolved_config": {**resolved, "bias": bool(bias)},
    }
    _emit(payload, resolved["out"])
    if resolved["trace_csv"]:
        trace.write_theta_csv(resolved["trace_csv"])
    return 0


def cmd_robust(args) -> int:
    resolved = _resolve(args, "grid", "model", "nu", "iters")
    grid = _grid_from_json(resolved["grid"])
    spec = model_spec_from_config(_load_json(resolved["model"]))
    ctx = RobustContext.from_grid(spec, grid, resolved["nu"], full_rows=resolved["full_rows"])
    n_init = ctx.p + 1 if resolved["n_init"] is None else resolved["n_init"]
    measure, traj = run_wiens(
        ctx,
        n_init=n_init,
        n_target=n_init + resolved["iters"],
        seed=resolved["seed"],
        stop=resolved["stop"],
        stop_epsilon=resolved["stop_epsilon"],
        stop_window=resolved["window"],
    )
    payload = {
        "command": "robust",
        "measure": measure.to_json_dict(),
        "trajectory": traj.to_json_dict(),
        "resolved_config": {**resolved, "n_init": n_init},
    }
    _emit(payload, resolved["out"])
    if resolved["trace_csv"]:
        traj.write_dnu_csv(resolved["trace_csv"])
    return 0


def cmd_criteria(args) -> int:
    resolved = _resolve(args, "model", "design", "names")
    spec = model_spec_from_config(_load_json(resolved["model"]))
    design = _design_from_json(resolved["design"])
    grid = _grid_from_json(resolved["grid"]) if resolved["grid"] else None
    bias = _bias_from_json(resolved["bias"]) if resolved["bias"] else None

    records = []
    m = None
    for name in resolved["names"]:
        if (name in ("D", "A") or name in _BIAS_CRITERIA) and m is None:
            m = information_matrix(spec, design)
        if name == "D":
            records.append(d_criterion(m))
        elif name == "A":
            records.append(a_criterion(m))
        elif name == "I":
            if grid is None:
                raise InvalidInputError("criterion I needs --grid")
            records.append(i_criterion(spec, design, grid))
        elif name in ("Inu", "Dnu"):
            if grid is None or resolved["nu"] is None:
                raise InvalidInputError("criteria Inu/Dnu need --grid and --nu")
            ctx = RobustContext.from_grid(spec, grid, resolved["nu"])
            i_val, d_val = wiens_losses(ctx, design)
            records.append(i_val if name == "Inu" else d_val)
        elif name in _BIAS_CRITERIA:
            if bias is None:
                raise InvalidInputError(f"criterion {name} needs --bias")
            records.append(_BIAS_CRITERIA[name](m, bias))
        else:
            raise InvalidInputError(f"unknown criterion {name!r}")
    payload = {"command": "criteria", "criteria": json_ready(records), "resolved_config": resolved}
    _emit(payload, resolved["out"])
    return 0


def cmd_check_get(args) -> int:
    resolved = _resolve(args, "model", "design", "grid")
    spec = model_spec_from_config(_load_json(resolved["model"]))
    design = _design_from_json(resolved["design"])
    grid = _grid_from_json(resolved["grid"])
    verdict = get_check(spec, design, grid, k_eff=resolved["k_eff"], tol=resolved["tol"])
    payload = {"command": "check-get", "verdict": json_ready(verdict), "resolved_config": resolved}
    _emit(payload, resolved["out"])
    return 0


def cmd_repro(args) -> int:
    """Run one pipeline with only the options given, so its signature holds the defaults.

    resolved_config.json holds the pipeline's number, its arguments with the defaults
    applied (out_dir aside) and what the pipeline returns.
    """
    given = {k: v for k, v in _resolve(args, "out_dir").items() if v is not None}
    example = given.pop("example")
    run = (repro_mod.repro_example1, repro_mod.repro_example2, repro_mod.repro_example3)[example - 1]
    signature = inspect.signature(run)
    unused = [k for k in given if k not in signature.parameters]
    if unused:
        flags = ", ".join("--" + k.replace("_", "-") for k in unused)
        raise InvalidInputError(f"repro {example} does not take {flags}")
    arguments = signature.bind(**given)
    arguments.apply_defaults()
    echoed = dict(arguments.arguments)
    out_dir = echoed.pop("out_dir")
    write_json({"pipeline": example, **echoed, **run(**given)}, os.path.join(out_dir, "resolved_config.json"))
    sys.stdout.write(json.dumps({"command": "repro", "out_dir": out_dir}, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> tuple[_Parser, dict]:
    """The `subsel` parser and its subcommand parsers by name."""
    parser = _Parser(prog="subsel", description="Model-oriented subsample selection")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option defaults")

    def csv_input(p):
        p.add_argument("--input", help="input CSV")
        p.add_argument("--features", type=_name_list, help="comma-separated feature columns")
        p.add_argument("--response", help="response column (excluded from features)")
        p.add_argument("--confounders", type=_name_list, help="comma-separated confounder columns")
        p.add_argument("--strict", action="store_true", help="fail on the first bad row instead of dropping it")

    p = sub.add_parser("simulate", help="generate a dataset CSV")
    p.add_argument("kind", choices=["example2", "example3", "mortgage"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--theta", type=_float_list, help="comma-separated generator coefficients")
    p.add_argument("--out", help="output CSV path")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("iboss", help="extreme-value subsample selection")
    csv_input(p)
    p.add_argument("--n", type=int, help="subsample size")
    p.add_argument("--order", type=_int_list, help="column processing order, e.g. 2,0,1,3")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--out", help="selection JSON path (stdout when omitted)")
    p.add_argument("--perm-report", dest="perm_report", help="write the all-permutations diff report here")
    common(p)
    p.set_defaults(func=cmd_iboss)

    p = sub.add_parser("seqdes", help="sequential design-guided selection")
    csv_input(p)
    p.add_argument("--grid", help="grid JSON ({axes: {...}} or {points: [...]})")
    p.add_argument("--model", help="model JSON ({f: ..., h: ..., g: ...})")
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--n-target", dest="n_target", type=int)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--utility", choices=UTILITIES, default="D")
    p.add_argument("--nu", type=float)
    p.add_argument("--bias", help="bias JSON for the traceR utility")
    p.add_argument("--family", choices=FAMILIES, default="auto")
    p.add_argument("--distance", choices=DISTANCES, default="euclidean")
    p.add_argument("--init", choices=STRATEGIES, default="random")
    p.add_argument("--init-column", dest="init_column")
    p.add_argument("--init-quantiles", dest="init_quantiles", type=int, default=10)
    p.add_argument("--init-label", dest="init_label", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop", choices=STOP_RULES, default="n_reached")
    p.add_argument("--stop-epsilon", dest="stop_epsilon", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--trace-csv", dest="trace_csv", help="coefficient trajectory CSV path")
    common(p)
    p.set_defaults(func=cmd_seqdes)

    p = sub.add_parser("robust", help="minimax-robust design on a grid")
    p.add_argument("--grid")
    p.add_argument("--model")
    p.add_argument("--nu", type=float)
    p.add_argument("--iters", type=int, help="number of mass-moving iterations")
    p.add_argument("--n-init", dest="n_init", type=int, help="initial support size (default p + 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop", choices=STOPS, default="n_reached")
    p.add_argument("--stop-epsilon", dest="stop_epsilon", type=float, default=0.0)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--full-rows", dest="full_rows", action="store_true",
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
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_check_get)

    # no defaults here: the repro_exampleN signatures hold them
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

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults, so flags still win
            commands[args.command].set_defaults(**_config_defaults(args.config, _resolve(args)))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except _NUMERICAL_ERRORS as exc:
        _emit_record("error", "numerical", type(exc).__name__, str(exc))
        return 3
    except _CONFIG_ERRORS as exc:
        _emit_record("error", "config", type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
