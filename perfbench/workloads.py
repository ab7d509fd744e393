"""The benchmark's workloads: inputs made from a seed, CLI argv, output checks.

Each workload writes its inputs into a work directory with the package's own
simulators, names the `subsel` CLI command a user would run on them, and
knows how to check that command's artifacts and how to score the design it
chose.  Sizes are fixed here so that one job takes one to two seconds on one
core; every benchmark run repeats its job several times in fresh processes.

Why these four (each stresses a different layer):

* ``seq_logistic``: sequential D-optimal selection with logistic refits on
  rare-event mortgage-analogue data; bound by the refit per step.  Its
  initial sample is ``repro 1``'s stratified one (ten ccDebt bins focused
  where the rare label lives): a random initial sample of 5000 rows holds
  about five events, and for 2 of 30 seeds it was separated, so the job
  failed with SeparationError.
* ``seq_robust``: sequential selection under the robust Dnu utility on
  example2 data with a confounder; bound by candidate scoring per step.
* ``robust_grid``: ``repro 3``, the minimax-robust mass-moving iteration on
  a 100 x 100 grid; bound by ``run_wiens``, and it writes a CSV.
* ``iboss_csv``: extreme-value selection from a tall CSV; bound by ingest.

Every workload reports two design-quality figures for the design its job
chose, so that a change which speeds a job up by changing its answer shows:

* ``design_logdet``: log det of the information matrix of the design under
  the workload's working model, with unit weight per selected row (the
  robust measure's own weights for ``robust_grid``).
* ``robust_dnu``: Wiens' minimax D-loss at nu = 0.5 of the design placed on
  a candidate grid, each selected row counted at its nearest grid point (the
  way the sequential Dnu utility sees a selection).  ``robust_grid`` reports
  ``robust_final_dnu`` of its xz variant from ``criteria.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from subsel.criteria import RobustContext, d_criterion, wiens_losses
from subsel.ingest_sim import (
    Dataset,
    default_analogue_grid,
    simulate_example2,
    simulate_mortgage_analogue,
    write_csv,
)
from subsel.model_core import (
    CandidateGrid,
    DesignMeasure,
    ModelSpec,
    information_matrix,
    information_matrix_from_selection,
    model_spec_from_config,
    polynomial_basis,
)
from subsel.rng import CounterRng

ROBUST_NU = 0.5

SEQ_LOGISTIC_ROWS = 50_000
SEQ_LOGISTIC_INIT = 5000
SEQ_LOGISTIC_TARGET = 5100

SEQ_ROBUST_ROWS = 20_000
SEQ_ROBUST_LEVELS = 50
# The grid spans the 2% to 98% quantiles of x and z.  Corners at the data's
# extremes have almost no rows near them, so which rows reach the design
# there, and its robust_dnu, would swing by 10-35% from seed to seed.
SEQ_ROBUST_SPAN = 0.02
SEQ_ROBUST_INIT = 10
SEQ_ROBUST_TARGET = 60

ROBUST_GRID_ITERS = 400
ROBUST_GRID_DESIGN = 12  # repro 3 default --n-design
ROBUST_GRID_ROWS = 105  # simulate_example3 default n

IBOSS_ROWS = 200_000
IBOSS_COLS = 5
IBOSS_SELECT = 1000
# robust_dnu of the extreme-value design is taken on a fixed 5^5 grid over
# [-4, 4]^5; a grid spanning each seed's data range would move it by ~8%.
IBOSS_GRID_LEVELS = np.linspace(-4.0, 4.0, 5)

# Model of the robust workloads: f = (1, x, x^2) or (1, x), g = z / 9.
_CONFOUNDER_G = {"family": "poly", "degree": 1, "intercept": False, "scale": 1.0 / 9.0}
SEQ_ROBUST_MODEL = {"f": {"family": "poly", "degree": 2}, "g": _CONFOUNDER_G}
ROBUST_GRID_MODEL = {"f": {"family": "poly", "degree": 1}, "g": _CONFOUNDER_G}


@dataclass
class Job:
    """A prepared workload: the CLI argv (relative to the work directory),
    the input files to record, the check of one job's artifacts (a list of
    problems, empty when they are right) and the design-quality figures."""

    argv: list[str]
    inputs: list[Path]
    check: Callable[[Path], list[str]]
    quality: Callable[[Path], dict[str, float]]


def _linear_spec(dim: int) -> ModelSpec:
    fn, p = polynomial_basis(degree=1, intercept=True, dim=dim)
    return ModelSpec(f_basis=fn, p=p)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _grid_json(grid: CandidateGrid, z_axes: list[str] | None = None) -> dict:
    axes = {name: [float(v) for v in levels] for name, levels in zip(grid.names, grid.axes)}
    return {"axes": axes, "z_axes": z_axes or []}


def _index_problems(indices, size: int, n_rows: int, what: str) -> list[str]:
    idx = np.asarray(indices, dtype=np.int64)
    problems = []
    if idx.size != size:
        problems.append(f"{what}: {idx.size} indices, expected {size}")
    if np.unique(idx).size != idx.size:
        problems.append(f"{what}: indices are not distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        problems.append(f"{what}: index out of range [0, {n_rows})")
    return problems


def _nearest_grid_weights(points: np.ndarray, grid_points: np.ndarray) -> np.ndarray:
    """Share of `points` whose nearest grid point (lowest index on ties) is each grid point."""
    counts = np.zeros(grid_points.shape[0])
    for start in range(0, points.shape[0], 256):
        chunk = points[start : start + 256]
        dist = ((chunk[:, None, :] - grid_points[None, :, :]) ** 2).sum(axis=2)
        np.add.at(counts, np.argmin(dist, axis=1), 1.0)
    return counts / points.shape[0]


def _selection_quality(spec: ModelSpec, ds: Dataset, indices, grid: CandidateGrid,
                       coords: np.ndarray) -> dict[str, float]:
    idx = np.asarray(indices, dtype=np.int64)
    m = information_matrix_from_selection(spec, ds, idx)
    ctx = RobustContext.from_grid(spec, grid, ROBUST_NU, full_rows=True)
    _, dnu = wiens_losses(ctx, _nearest_grid_weights(coords[idx], grid.points))
    return {"design_logdet": d_criterion(m).value, "robust_dnu": dnu.value}


def _sequential_check(n_init: int, n_target: int, n_rows: int):
    def check(out: Path) -> list[str]:
        payload = _read_json(out / "selection.json")
        sel, trace = payload["selection"], payload["trace"]
        problems = _index_problems(sel["indices"], n_target, n_rows, "selection")
        if trace["stop_reason"] != "n_reached" or sel["provenance"]["stop_reason"] != "n_reached":
            problems.append(f"stop_reason {trace['stop_reason']!r}, expected 'n_reached'")
        if len(trace["steps"]) != n_target - n_init:
            problems.append(f"{len(trace['steps'])} steps, expected {n_target - n_init}")
        return problems

    return check


def seq_logistic(seed: int, work: Path) -> Job:
    ds = simulate_mortgage_analogue(SEQ_LOGISTIC_ROWS, seed=seed)
    grid = default_analogue_grid()
    data, grid_file = work / "inputs" / "mortgage.csv", work / "inputs" / "grid.json"
    write_csv(ds, data)
    _write_json(grid_file, _grid_json(grid))
    argv = [
        "seqdes", "--input", "inputs/mortgage.csv", "--grid", "inputs/grid.json",
        "--response", "default", "--utility", "D", "--seed", str(seed),
        "--init", "stratified", "--init-column", "ccDebt", "--init-quantiles", "10",
        "--n-init", str(SEQ_LOGISTIC_INIT), "--n-target", str(SEQ_LOGISTIC_TARGET),
        "--out", "out/selection.json", "--trace-csv", "out/trajectory.csv",
    ]
    spec = _linear_spec(ds.n_features)

    def quality(out: Path) -> dict[str, float]:
        indices = _read_json(out / "selection.json")["selection"]["indices"]
        return _selection_quality(spec, ds, indices, grid, ds.features)

    check = _sequential_check(SEQ_LOGISTIC_INIT, SEQ_LOGISTIC_TARGET, ds.n_rows)
    return Job(argv, [data, grid_file], check, quality)


def seq_robust(seed: int, work: Path) -> Job:
    ds = simulate_example2(SEQ_ROBUST_ROWS, seed=seed)
    coords = np.hstack([ds.features, ds.confounders])
    lo, hi = np.quantile(coords, SEQ_ROBUST_SPAN, axis=0), np.quantile(coords, 1.0 - SEQ_ROBUST_SPAN, axis=0)
    grid = CandidateGrid.from_axes(
        {
            "x": np.linspace(lo[0], hi[0], SEQ_ROBUST_LEVELS),
            "z": np.linspace(lo[1], hi[1], SEQ_ROBUST_LEVELS),
        },
        z_dim=1,
    )
    inputs = work / "inputs"
    data, grid_file, model_file = inputs / "example2.csv", inputs / "grid.json", inputs / "model.json"
    write_csv(ds, data)
    _write_json(grid_file, _grid_json(grid, z_axes=["z"]))
    _write_json(model_file, SEQ_ROBUST_MODEL)
    argv = [
        "seqdes", "--input", "inputs/example2.csv", "--grid", "inputs/grid.json",
        "--model", "inputs/model.json", "--response", "y", "--features", "x",
        "--confounders", "z", "--utility", "Dnu", "--nu", str(ROBUST_NU),
        "--family", "linear", "--seed", str(seed),
        "--n-init", str(SEQ_ROBUST_INIT), "--n-target", str(SEQ_ROBUST_TARGET),
        "--out", "out/selection.json",
    ]
    spec = model_spec_from_config(SEQ_ROBUST_MODEL)

    def quality(out: Path) -> dict[str, float]:
        indices = _read_json(out / "selection.json")["selection"]["indices"]
        return _selection_quality(spec, ds, indices, grid, coords)

    check = _sequential_check(SEQ_ROBUST_INIT, SEQ_ROBUST_TARGET, ds.n_rows)
    return Job(argv, [data, grid_file, model_file], check, quality)


def robust_grid(seed: int, work: Path) -> Job:
    argv = [
        "repro", "3", "--out-dir", "out/repro3", "--seed", str(seed),
        "--robust-iters", str(ROBUST_GRID_ITERS),
    ]
    spec = model_spec_from_config(ROBUST_GRID_MODEL)

    def check(out: Path) -> list[str]:
        d = out / "repro3"
        problems = []
        for variant in ("xz", "x"):
            weights = np.asarray(_read_json(d / f"robust_measure_{variant}.json")["weights"])
            if np.any(weights < 0.0):
                problems.append(f"{variant}: negative robust weight")
            if abs(float(weights.sum()) - 1.0) > 1e-12:
                problems.append(f"{variant}: robust weights sum to {float(weights.sum())!r}")
            lines = (d / f"dnu_trajectory_{variant}.csv").read_text().splitlines()
            if len(lines) - 1 != ROBUST_GRID_ITERS:
                problems.append(f"{variant}: {len(lines) - 1} robust steps, expected {ROBUST_GRID_ITERS}")
            for algo in ("seq", "iboss"):
                sel = _read_json(d / f"selection_{algo}_{variant}.json")
                problems += _index_problems(
                    sel["indices"], ROBUST_GRID_DESIGN, ROBUST_GRID_ROWS, f"{algo}_{variant}"
                )
            dnu = _read_json(d / "criteria.json")[variant]["robust_final_dnu"]
            if not (math.isfinite(dnu) and dnu > 0.0):
                problems.append(f"{variant}: robust_final_dnu {dnu!r}")
        return problems

    def quality(out: Path) -> dict[str, float]:
        d = out / "repro3"
        m = _read_json(d / "robust_measure_xz.json")
        measure = DesignMeasure(m["points"], m["weights"], m["z_points"])
        return {
            "design_logdet": d_criterion(information_matrix(spec, measure)).value,
            "robust_dnu": float(_read_json(d / "criteria.json")["xz"]["robust_final_dnu"]),
        }

    return Job(argv, [], check, quality)


def iboss_csv(seed: int, work: Path) -> Job:
    rng = CounterRng(seed)
    feats = np.column_stack([rng.normal(IBOSS_ROWS) for _ in range(IBOSS_COLS)])
    ds = Dataset(feature_names=tuple(f"x{j + 1}" for j in range(IBOSS_COLS)), features=feats)
    data = work / "inputs" / "tall.csv"
    write_csv(ds, data)
    argv = ["iboss", "--input", "inputs/tall.csv", "--n", str(IBOSS_SELECT), "--out", "out/iboss.json"]
    spec = _linear_spec(IBOSS_COLS)
    grid = CandidateGrid.from_axes({name: IBOSS_GRID_LEVELS for name in ds.feature_names})

    def check(out: Path) -> list[str]:
        payload = _read_json(out / "iboss.json")
        problems = _index_problems(payload["indices"], IBOSS_SELECT, IBOSS_ROWS, "selection")
        if not 0.0 < payload["det"] <= payload["bound"]:
            problems.append(f"det {payload['det']!r} not in (0, bound {payload['bound']!r}]")
        return problems

    def quality(out: Path) -> dict[str, float]:
        indices = _read_json(out / "iboss.json")["indices"]
        return _selection_quality(spec, ds, indices, grid, ds.features)

    return Job(argv, [data], check, quality)


WORKLOADS = {
    "seq_logistic": seq_logistic,
    "seq_robust": seq_robust,
    "robust_grid": robust_grid,
    "iboss_csv": iboss_csv,
}
