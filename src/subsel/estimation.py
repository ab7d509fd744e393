"""Least-squares and logistic-regression fitting used by the selection loops.

Both fitters are deliberately small and fully pinned down: OLS solves through
the SVD, and the logistic fit is Newton/IRLS with step-halving and divergence
(separation) detection, started from theta = 0 or from a given point (the
sequential loop continues each refit from the previous fit).  Both apply one
condition-number guard (`errors.check_conditioning`) to every matrix they
solve with or invert.  Standard errors come from the inverse observed
information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SeparationError, check_conditioning
from .model_core import json_ready

_SEPARATION_BOUND = 30.0
# Newton decrement g'H^-1g below which a step is taken whole and the fit ends:
# its expected log-likelihood gain (half of it) is below the rounding of the
# log-likelihood sum, so step-halving would reject it as a loss.
_DECREMENT_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Coefficients, standard errors, and fit diagnostics.

    `objective` is the residual sum of squares for least squares and the
    log-likelihood for a logistic fit.  `information` is a logistic fit's
    X'WX at theta, inverted for its standard errors; it is not in the JSON.
    """

    theta: np.ndarray
    std_errors: np.ndarray
    objective: float
    iterations: int
    converged: bool
    family: str
    information: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return json_ready({k: v for k, v in vars(self).items() if k != "information"})


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 classification counts indexed [predicted][actual]."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=int)
        if c.shape != (2, 2) or np.any(c < 0):
            raise InvalidInputError("counts must be a non-negative 2x2 table")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(self.counts[0, 0] + self.counts[1, 1]) / self.total

    def to_json_dict(self) -> dict:
        return {
            "counts_predicted_by_actual": self.counts.tolist(),
            "total": self.total,
            "accuracy": self.accuracy,
        }


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise InvalidInputError("X must be a 2-D model matrix")
    if x.shape[0] != y.size:
        raise InvalidInputError("X and y must have matching row counts")
    if x.shape[0] < x.shape[1]:
        raise InvalidInputError("fit needs at least as many rows as columns")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInputError("X and y must be finite")
    return x, y


def fit_ols(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Ordinary least squares through the SVD.

    Raises SingularMatrixError when X is rank deficient or cond(X'X)
    exceeds COND_LIMIT (1e12).  Residual variance uses the n - k
    denominator; with n == k the fit is exact and the standard errors are
    reported as 0.
    """
    x, y = _check_xy(x, y)
    n, k = x.shape
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    check_conditioning(s[::-1] ** 2, "X'X")  # the eigenvalues of X'X, ascending
    theta = vt.T @ ((u.T @ y) / s)
    resid = y - x @ theta
    rss = float(resid @ resid)
    if n > k:
        sigma2 = rss / (n - k)
    else:
        sigma2 = 0.0
    # cov(theta) = sigma2 (X'X)^-1 = sigma2 V S^-2 V'
    cov_diag = sigma2 * np.einsum("ji,j,ji->i", vt, 1.0 / (s * s), vt)
    se = np.sqrt(np.maximum(cov_diag, 0.0))
    return FitResult(
        theta=theta, std_errors=se, objective=rss, iterations=1, converged=True,
        family="linear",
    )


def sigmoid(eta: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_likelihood(eta: np.ndarray, sign: np.ndarray) -> float:
    # sign = 1 - 2y: log sigmoid(eta) = -log(1 + e^-eta), log(1 - sigmoid(eta)) = -log(1 + e^eta)
    return float(-np.logaddexp(0.0, sign * eta).sum())


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-8,
    theta0: np.ndarray | None = None,
) -> FitResult:
    """Logistic regression by Newton/IRLS with step-halving.

    Starts at theta = 0 unless theta0 is given.  Each Newton step is halved
    (at most 10 times) until the deviance does not increase.  Divergence is
    reported as SeparationError once any |theta_j| exceeds 30 while the
    deviance is still falling; a singular weighted information matrix, or
    one whose condition number exceeds COND_LIMIT, raises
    SingularMatrixError.  The fit converges when the gradient max-norm falls
    below tol, or when the Newton decrement g'H^-1g of a step is below 1e-10;
    that last step is taken whole, without step-halving.  A fit that stops
    otherwise (ten halvings without progress, or max_iter) reports
    converged=False.
    """
    x, y = _check_xy(x, y)
    if np.any((y != 0.0) & (y != 1.0)):
        raise InvalidInputError("logistic fit requires a 0/1 response")
    n, k = x.shape
    theta = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (k,):
        raise InvalidInputError("theta0 has the wrong length")

    sign = 1.0 - 2.0 * y
    eta = x @ theta
    loglik = _log_likelihood(eta, sign)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        pi = sigmoid(eta)
        grad = x.T @ (y - pi)
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            iters -= 1
            break
        w = pi * (1.0 - pi)
        info = (x * w[:, None]).T @ x
        check_conditioning(np.linalg.eigvalsh(info), "weighted information matrix")
        step = np.linalg.solve(info, grad)
        converged = float(grad @ step) < _DECREMENT_TOL
        # step halving: never accept a deviance increase, except on the final step
        new_theta = theta + step
        new_eta = x @ new_theta
        new_loglik = _log_likelihood(new_eta, sign)
        halvings = 0
        while not converged and new_loglik < loglik and halvings < 10:
            step = step / 2.0
            new_theta = theta + step
            new_eta = x @ new_theta
            new_loglik = _log_likelihood(new_eta, sign)
            halvings += 1
        if not converged and new_loglik < loglik:
            # ten halvings without progress: stay at the previous iterate
            break
        theta, eta, loglik = new_theta, new_eta, new_loglik
        if float(np.max(np.abs(theta))) > _SEPARATION_BOUND:
            raise SeparationError(
                "logistic fit diverged (|theta| > 30 with decreasing deviance); "
                "data are likely separated"
            )
        if converged:
            break

    pi = sigmoid(eta)
    info = (x * (pi * (1.0 - pi))[:, None]).T @ x
    check_conditioning(np.linalg.eigvalsh(info), "observed information at the optimum")
    cov = np.linalg.inv(info)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        theta=theta, std_errors=se, objective=loglik, iterations=iters,
        converged=converged, family="logistic", information=info,
    )


def predict_classify(
    fit: FitResult,
    x_test: np.ndarray,
    y_test: np.ndarray,
    threshold: float = 0.5,
) -> ConfusionMatrix:
    """Classify by predicted probability >= threshold; tabulate against truth."""
    if not 0.0 < threshold <= 1.0:
        raise InvalidInputError("threshold must lie in (0, 1]")
    x = np.asarray(x_test, dtype=float)
    y = np.asarray(y_test, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise InvalidInputError("X_test and y_test must have matching row counts")
    if x.shape[1] != fit.theta.size:
        raise InvalidInputError("X_test column count does not match the fit")
    if np.any((y != 0.0) & (y != 1.0)):
        raise InvalidInputError("y_test must be a 0/1 response")
    pi = sigmoid(x @ fit.theta)
    pred = (pi >= threshold).astype(int)
    act = y.astype(int)
    counts = np.zeros((2, 2), dtype=int)
    for pr, ac in ((0, 0), (0, 1), (1, 0), (1, 1)):
        counts[pr, ac] = int(np.sum((pred == pr) & (act == ac)))
    return ConfusionMatrix(counts=counts)
