"""Least-squares and logistic-regression fitting used by the selection loops.

Both fitters are deliberately small and fully pinned down: OLS solves through
the SVD, and the logistic fit is Newton/IRLS with step-halving and divergence
(separation) detection, started from theta = 0 or from a given point (the
sequential loop continues each refit from the previous fit).  Both apply one
condition-number guard (`errors.check_conditioning`) to every matrix they
solve with or invert.  Standard errors come from the inverse observed
information.

A logistic fit reads its rows from a `LogisticRows` holder, which keeps them
column by column beside their pairwise products, so that one pass at a
theta (`LogisticRows.evaluate`: one eta, one exp) gives the log-likelihood,
the gradient and X'WX.  A holder can grow by appended rows and remembers the
sums at the end of its last fit: a refit of the grown holder that starts at
exactly that fit's theta adds only the new rows' terms to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    log-likelihood for a logistic fit.  A logistic fit also carries
    `information`, its X'WX at theta, with `covariance`, the inverse whose
    diagonal gives the standard errors, and `information_logdet`, both from
    one eigendecomposition of it; none of the three is in the JSON.
    """

    theta: np.ndarray
    std_errors: np.ndarray
    objective: float
    iterations: int
    converged: bool
    family: str
    information: np.ndarray | None = field(default=None, repr=False, compare=False)
    covariance: np.ndarray | None = field(default=None, repr=False, compare=False)
    information_logdet: float | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        hidden = ("information", "covariance", "information_logdet")
        return json_ready({k: v for k, v in vars(self).items() if k not in hidden})


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


def _logistic_terms(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, d, w) at eta: e = exp(-|eta|), d = 1 + e and the weight pi(1 - pi) = e/d^2."""
    e = np.exp(-np.abs(eta))
    d = 1.0 + e
    return e, d, e / (d * d)


class _Sums(NamedTuple):
    """Log-likelihood, gradient and X'WX of a holder's first n rows at theta."""

    n: int
    theta: np.ndarray
    loglik: float
    grad: np.ndarray
    info: np.ndarray


class LogisticRows:
    """The rows and 0/1 responses of a logistic fit, with room to append rows.

    The model rows are held as k columns, beside the k(k+1)/2 products of
    two columns, so that X'WX is one product of those with the weights.
    `sums` holds the sums at the end of the last `fit_logistic` of the
    holder (over the rows it held then), or None.
    """

    def __init__(self, k: int, capacity: int):
        self.k = k
        self.n = 0
        self.cols = np.empty((k, capacity))
        self.y = np.empty(capacity)
        self.sign = np.empty(capacity)  # 1 - 2y
        upper = np.triu_indices(k)
        self._upper = upper
        self.pairs = np.empty((upper[0].size, capacity))
        # X'WX[i, j] = (pairs @ w)[square[i, j]]
        self._square = np.empty((k, k), dtype=np.intp)
        self._square[upper] = self._square[upper[::-1]] = np.arange(upper[0].size)
        self.sums: _Sums | None = None

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "LogisticRows":
        x, y = _check_xy(x, y)
        rows = cls(x.shape[1], x.shape[0])
        rows.append(x, y)
        return rows

    def append(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add model rows x (m x k) with their 0/1 responses y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        a, b = self.n, self.n + y.size
        if x.shape != (y.size, self.k) or b > self.y.size:
            raise InvalidInputError("rows and responses must match and fit the holder")
        if np.any((y != 0.0) & (y != 1.0)):
            raise InvalidInputError("logistic fit requires a 0/1 response")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInputError("X and y must be finite")
        cols = self.cols[:, a:b]
        cols[...] = x.T
        np.multiply(cols[self._upper[0]], cols[self._upper[1]], out=self.pairs[:, a:b])
        self.y[a:b] = y
        self.sign[a:b] = 1.0 - 2.0 * y
        self.n = b

    def evaluate(self, theta: np.ndarray, start: int = 0) -> tuple[float, np.ndarray, np.ndarray]:
        """(log-likelihood, gradient, X'WX) of rows start:n at theta, from one eta and one exp.

        With e, d and w from `_logistic_terms`: pi = sigmoid(eta) = (1 or e)/d,
        the weight pi(1 - pi) = w, and each log-likelihood term
        -log(1 + exp(+-eta)) = -(max(+-eta, 0) + log1p(e)).
        """
        cols, y = self.cols[:, start:self.n], self.y[start:self.n]
        eta = theta @ cols
        e, d, w = _logistic_terms(eta)
        loglik = -float((np.maximum(self.sign[start:self.n] * eta, 0.0) + np.log1p(e)).sum())
        grad = cols @ (y - np.where(eta >= 0.0, 1.0, e) / d)
        info = (self.pairs[:, start:self.n] @ w)[self._square]
        return loglik, grad, info


def fit_logistic(
    x,
    y: np.ndarray | None = None,
    max_iter: int = 100,
    tol: float = 1e-8,
    theta0: np.ndarray | None = None,
) -> FitResult:
    """Logistic regression by Newton/IRLS with step-halving.

    Fits the model matrix x to the 0/1 responses y, or the rows of a
    `LogisticRows` holder passed as x (with y None).  Starts at theta = 0
    unless theta0 is given.  Each Newton step is halved (at most 10 times)
    until the deviance does not increase.  Divergence is reported as
    SeparationError once any |theta_j| exceeds 30 while the deviance is
    still falling; a singular weighted information matrix, or one whose
    condition number exceeds COND_LIMIT, raises SingularMatrixError.  The fit
    converges when the gradient max-norm falls below tol, or when the Newton
    decrement g'H^-1g of a step is below 1e-10; that last step is taken
    whole, without step-halving.  A fit that stops otherwise (ten halvings
    without progress, or max_iter) reports converged=False.

    Each iterate costs one `LogisticRows.evaluate` over all rows, which also
    gives the next step and, at the last iterate, the objective and
    information.  When the holder's last fit ended at exactly theta0, the
    starting sums are that fit's plus the terms of the rows appended since.
    A fit that returns leaves its sums in the holder.
    """
    rows = x if isinstance(x, LogisticRows) else LogisticRows.of(x, y)
    n, k = rows.n, rows.k
    if n < k:
        raise InvalidInputError("fit needs at least as many rows as columns")
    theta = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (k,):
        raise InvalidInputError("theta0 has the wrong length")

    last = rows.sums
    if last is not None and np.array_equal(last.theta, theta):
        loglik, grad, info = rows.evaluate(theta, last.n)
        loglik, grad, info = loglik + last.loglik, grad + last.grad, info + last.info
    else:
        loglik, grad, info = rows.evaluate(theta)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            iters -= 1
            break
        eigvals, eigvecs = np.linalg.eigh(info)
        check_conditioning(eigvals, "weighted information matrix")
        step = eigvecs @ ((grad @ eigvecs) / eigvals)
        converged = float(grad @ step) < _DECREMENT_TOL
        # step halving: never accept a deviance increase, except on the final step
        new_theta = theta + step
        new = rows.evaluate(new_theta)
        halvings = 0
        while not converged and new[0] < loglik and halvings < 10:
            step = step / 2.0
            new_theta = theta + step
            new = rows.evaluate(new_theta)
            halvings += 1
        if not converged and new[0] < loglik:
            # ten halvings without progress: stay at the previous iterate
            break
        theta, (loglik, grad, info) = new_theta, new
        if float(np.max(np.abs(theta))) > _SEPARATION_BOUND:
            raise SeparationError(
                "logistic fit diverged (|theta| > 30 with decreasing deviance); "
                "data are likely separated"
            )
        if converged:
            break

    eigvals, eigvecs = np.linalg.eigh(info)
    check_conditioning(eigvals, "observed information at the optimum")
    cov = (eigvecs / eigvals) @ eigvecs.T
    cov = (cov + cov.T) / 2.0
    rows.sums = _Sums(n, theta.copy(), loglik, grad, info.copy())
    return FitResult(
        theta=theta, std_errors=np.sqrt(np.maximum(np.diag(cov), 0.0)), objective=loglik,
        iterations=iters, converged=converged, family="logistic", information=info,
        covariance=cov, information_logdet=float(np.log(eigvals).sum()),
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
