"""Robust design construction on a discrete grid by vertex-direction steps.

Starting from a uniform measure on a seeded random subset of grid points
(redrawn from the same stream while its gram matrix is singular, at most
_START_DRAWS times), each iteration moves mass 1/(n+1) toward the grid point
with the steepest ascent direction of the robust D-loss and renormalizes.
The mixing constant nu must lie strictly inside (0, 1): the endpoints have
closed-form answers (nu = 0 is the classical D-optimal problem, nu = 1 is
solved by the uniform measure on the grid) and the gradient expressions
degenerate there.

Per iteration, with R = Q'D(xi)Q, B = Q'D^2(xi)Q, lambda/z the top eigenpair
of the sandwich R^-1/2 B R^-1/2 - R = Y'Y - R, Y = D(xi)Q R^-1/2 (it equals
R^1/2 (U - I) R^1/2 for U = R^-1 B R^-1), w = R^-1/2 z and u = R w + (lambda/2) w,
every grid row q_i is scored by one quadratic form:

    A = (1 - nu + nu lambda) R^-1 + nu (w u' + u w')
    T_i = q_i' A q_i - 2 nu xi_i (q_i' w)^2

and the mass moves toward argmax_i T_i, ties to the lowest index.  The measure
of n points is held as its counts, exact in float64, and weighted counts / n,
so grid points whose Q rows and counts are equal in bits score equal in bits.
R and its functions come from the kernel of criteria.wiens_losses, so each
step's D-loss is wiens_losses of the measure before it, bit for bit; the
step's two p x p eigendecompositions, of R and of Y'Y - R, go through
criteria._eigh, the LAPACK call of np.linalg.eigh without its wrapper.

Each step adds one count at one point, so the loop holds the sorted support,
its counts and rows in buffers for every point the support can reach (a new
point shifts the tail in place, with a count of 0), and the kernel sums over
them; the one grid pass is the product of A's packed triangle with the
pairwise-column matrix, built once per run and held column-major, a contiguous
row per pair (a, b).  Grid weights are scattered once, at the end, and the
trace replays its per-step weights hashes when written.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .criteria import RobustContext, _robust_kernel, _RobustParts
from .errors import InvalidInputError, SingularMatrixError
from .ingest_sim import write_rows
from .model_core import DesignMeasure, json_ready
from .rng import CounterRng

STOPS = ("n_reached", "dnu_gain_below")
_START_DRAWS = 100  # random starts drawn before a start that stays singular raises


@dataclass(frozen=True)
class RobustStep:
    """One mass-moving iteration."""

    iteration: int
    chosen_index: int
    dnu: float
    lambda_max: float
    support_size: int  # grid points with positive weight after the step


@dataclass
class RobustTrajectory:
    """Initial support, per-iteration records, and the final loss."""

    initial_indices: np.ndarray
    n_grid: int
    steps: list[RobustStep] = field(default_factory=list)
    final_dnu: float = float("nan")
    stop_reason: str = "n_reached"

    def write_dnu_csv(self, path) -> None:
        write_rows(path, ("iteration", "chosen_index", "dnu", "lambda_max"),
                   ((s.iteration, s.chosen_index, s.dnu, s.lambda_max) for s in self.steps))

    def to_json_dict(self) -> dict:
        """The trajectory with each step's `weights_sha256`, the sha256 of the grid's weight vector
        after the step: counts / n, the counts replayed from `initial_indices` and the chosen points."""
        counts = np.zeros(self.n_grid)
        counts[self.initial_indices] = 1.0
        steps = []
        for n, step in enumerate(self.steps, start=self.initial_indices.size + 1):
            counts[step.chosen_index] += 1.0
            steps.append({**vars(step), "weights_sha256": hashlib.sha256((counts / n).tobytes()).hexdigest()})
        return json_ready({"initial_indices": self.initial_indices, "steps": steps,
                           "final_dnu": self.final_dnu, "stop_reason": self.stop_reason})


def _pairwise_columns(q: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """The quadratic-form columns of every row, q_ia q_ib for a = b and 2 q_ia q_ib for a < b, column-major (a
    contiguous row per pair (a, b)) and zero-padded to whole blocks of 16 grid rows so that every grid row takes
    the same BLAS path (equal rows score equal); the row count; and the flat index a p + b of each pair."""
    n, p = q.shape
    a, b = np.triu_indices(p)
    pairs = np.zeros((a.size, -(-n // 16) * 16))
    np.multiply(q.T[a], q.T[b], out=pairs[:, :n])
    pairs[a != b] *= 2.0  # exact, so each term equals the product with 2 a_ab
    return pairs, n, a * p + b


def _direction_scores(grid: tuple, q_s: np.ndarray, xi_s: np.ndarray, support: np.ndarray, nu: float,
                      parts: _RobustParts) -> np.ndarray:
    """T_i = q_i' A q_i - 2 nu xi_i (q_i' w)^2 for every row q_i of the `_pairwise_columns` grid, R^-1 in A
    formed as R^-1/2 R^-1/2; the xi_i term is read from the support's rows q_s and weights xi_s (0 off it)."""
    pairs, n, flat = grid
    w = parts.gram.inv_root.dot(parts.z)  # ndarray.dot as in criteria._robust_gram; the grid product keeps @
    wu = w[:, None] * (nu * (parts.gram.r.dot(w) + (0.5 * parts.lam) * w))
    a = ((1.0 - nu + nu * parts.lam) * parts.gram.inv_root).dot(parts.gram.inv_root) + (wu + wu.T)
    scores = (a.take(flat) @ pairs)[:n]
    qw = q_s.dot(w)
    scores[support] -= 2.0 * nu * xi_s * (qw * qw)
    return scores


def run_wiens(
    ctx: RobustContext,
    n_init: int,
    n_target: int,
    seed: int = 0,
    stop: str = "n_reached",
    stop_epsilon: float = 0.0,
    stop_window: int = 25,
) -> tuple[DesignMeasure, RobustTrajectory]:
    """Iterate the vertex-direction update until n_target pseudo-observations.

    Stops either when the measure counts n_target points (``n_reached``) or
    when the relative D-loss improvement over the trailing ``stop_window``
    iterations falls below ``stop_epsilon`` (``dnu_gain_below``).  Returns
    the final measure on the context grid plus the trajectory.
    """
    if not 0.0 < ctx.nu < 1.0:
        raise InvalidInputError(
            "run_wiens needs nu strictly inside (0, 1): nu = 0 is the classical "
            "D-optimal problem and nu = 1 is solved by the uniform measure"
        )
    n_grid, p = ctx.n_grid, ctx.p
    if not p <= n_init <= n_grid:
        raise InvalidInputError(f"n_init must lie in [{p}, grid size]: below the {p} basis terms no start is regular")
    if n_target <= n_init:
        raise InvalidInputError("n_target must exceed n_init")
    if stop not in STOPS:
        raise InvalidInputError(f"stop must be one of {STOPS}")
    if stop_epsilon < 0.0 or stop_window < 1:
        raise InvalidInputError("stop_epsilon must be >= 0 and stop_window >= 1")

    q, nu = ctx.q_matrix, ctx.nu
    grid = _pairwise_columns(q)
    rng = CounterRng(seed)
    # the ascending support (a point joins when first chosen and never leaves), its counts and rows: the first
    # k entries of buffers for every point the support can reach
    k, size = n_init, min(n_grid, n_target)
    bufs = (np.empty(size, dtype=np.intp), np.ones(size), np.empty((size, p)))
    support, counts, q_s = (buf[:k] for buf in bufs)
    w = counts / n_init
    for draw in range(1, _START_DRAWS + 1):
        support[:] = np.sort(rng.sample_indices(n_grid, n_init))
        np.take(q, support, axis=0, out=q_s)
        try:
            parts = _robust_kernel(q_s, w, iteration=1)
            break
        except SingularMatrixError as err:
            if draw == _START_DRAWS:
                raise SingularMatrixError(f"no regular start in {draw} random draws of {n_init} grid points: {err}",
                                          smallest_eigenvalue=err.smallest_eigenvalue, iteration=1) from err

    traj = RobustTrajectory(initial_indices=support.copy(), n_grid=n_grid)
    n = n_init
    while True:
        dnu = parts.dnu(nu)
        if n >= n_target or traj.stop_reason != "n_reached":
            traj.final_dnu = dnu
            break
        best = int(_direction_scores(grid, q_s, w, support, nu, parts).argmax())
        at = int(support.searchsorted(best))
        if at == k or support[at] != best:  # a new support point: shift the tails one place, in place
            for buf, value in zip(bufs, (best, 0.0, q[best])):
                buf[at + 1:k + 1] = buf[at:k]
                buf[at] = value
            k += 1
            support, counts, q_s = (buf[:k] for buf in bufs)

        counts[at] += 1.0
        n += 1
        w = counts / n
        traj.steps.append(RobustStep(len(traj.steps) + 1, best, dnu, parts.lam, k))

        if stop == "dnu_gain_below" and len(traj.steps) > stop_window:
            past = traj.steps[-1 - stop_window].dnu
            if (past - dnu) / max(abs(past), 1e-300) < stop_epsilon:
                traj.stop_reason = "dnu_gain_below"
        parts = _robust_kernel(q_s, w, iteration=len(traj.steps) + 1)

    xi = np.zeros(n_grid)
    xi[support] = w
    return DesignMeasure(ctx.grid.x_part(), xi, ctx.grid.z_part()), traj
