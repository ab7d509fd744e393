"""Least squares, logistic IRLS, and classification scoring."""

import numpy as np
import pytest

from subsel.errors import InvalidInputError, SeparationError, SingularMatrixError
from subsel.estimation import (
    LogisticRows,
    fit_logistic,
    fit_ols,
    predict_classify,
    sigmoid,
)
from subsel.rng import CounterRng


def test_sigmoid_stable_extremes():
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == pytest.approx(1.0)
    assert big[1] == pytest.approx(0.0)
    assert np.all(np.isfinite(big))


def test_ols_matches_normal_equations():
    rng = CounterRng(1)
    x = np.column_stack([np.ones(40), rng.normal(40), rng.normal(40)])
    beta = np.array([2.0, -1.0, 0.5])
    y = x @ beta + 0.1 * rng.normal(40)
    fit = fit_ols(x, y)
    expect = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(fit.theta, expect, atol=1e-10)
    assert fit.family == "linear"
    assert fit.converged
    # residual orthogonality
    resid = y - x @ fit.theta
    assert np.abs(x.T @ resid).max() < 1e-8 * max(1.0, np.abs(y).max())


def test_ols_standard_errors_formula():
    rng = CounterRng(2)
    x = np.column_stack([np.ones(60), rng.normal(60)])
    y = 1.0 + 2.0 * x[:, 1] + 0.3 * rng.normal(60)
    fit = fit_ols(x, y)
    resid = y - x @ fit.theta
    s2 = resid @ resid / (60 - 2)
    cov = s2 * np.linalg.inv(x.T @ x)
    assert np.allclose(fit.std_errors, np.sqrt(np.diag(cov)), rtol=1e-8)


def test_ols_exact_interpolation_zero_noise():
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    y = np.array([3.0, 5.0])
    fit = fit_ols(x, y)
    assert np.allclose(fit.theta, [3.0, 2.0], atol=1e-12)
    assert np.allclose(fit.std_errors, 0.0, atol=1e-12)


def test_ols_singular_raises():
    x = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(SingularMatrixError):
        fit_ols(x, np.arange(10.0))


def test_logistic_recovers_generator():
    rng = CounterRng(9)
    n = 5000
    x = np.column_stack([np.ones(n), rng.normal(n), rng.normal(n)])
    theta = np.array([-1.0, 2.0, -0.5])
    y = (rng.uniform(n) < sigmoid(x @ theta)).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    z = np.abs(fit.theta - theta) / fit.std_errors
    assert z.max() < 3.0


def test_logistic_matches_direct_newton():
    # independent oracle: plain Newton iteration written out locally
    rng = CounterRng(17)
    n = 400
    x = np.column_stack([np.ones(n), rng.normal(n)])
    y = (rng.uniform(n) < sigmoid(0.5 - 1.5 * x[:, 1])).astype(float)
    theta = np.zeros(2)
    for _ in range(50):
        pi = sigmoid(x @ theta)
        grad = x.T @ (y - pi)
        info = (x * (pi * (1 - pi))[:, None]).T @ x
        theta = theta + np.linalg.solve(info, grad)
    fit = fit_logistic(x, y)
    assert np.allclose(fit.theta, theta, atol=1e-6)
    info = (x * (sigmoid(x @ theta) * (1 - sigmoid(x @ theta)))[:, None]).T @ x
    assert np.allclose(fit.std_errors, np.sqrt(np.diag(np.linalg.inv(info))), rtol=1e-5)


def test_logistic_stops_on_the_newton_decrement():
    # With only the gradient test |g| < 1e-8 this fit ended unconverged after
    # 12 iterations at |g| = 5.4e-8: near the optimum the expected gain of a
    # step is below the rounding of the log-likelihood, so step-halving
    # rejected it.  The decrement test takes that step whole.
    rng = CounterRng(242)
    n = 300
    x = np.hstack([np.ones((n, 1)), rng.normal(2 * n).reshape(n, 2) * 3.0])
    y = (rng.uniform(n) < sigmoid(x @ np.array([-2.0, 1.0, -0.5]))).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    assert fit.iterations < 12
    assert np.max(np.abs(x.T @ (y - sigmoid(x @ fit.theta)))) < 1e-12


def test_logistic_separation_raises():
    x = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
    y = (x[:, 1] > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_logistic(x, y)


def test_logistic_ill_conditioned_design_raises_singular():
    # a third column equal to the second plus 1e-7 noise: cond(X'X) ~ 1e14,
    # past COND_LIMIT, which fit_ols already rejects
    rng = CounterRng(23)
    n = 200
    x1 = rng.normal(n)
    x = np.column_stack([np.ones(n), x1, x1 + 1e-7 * rng.normal(n)])
    y = (rng.uniform(n) < sigmoid(0.3 + x1)).astype(float)
    assert np.linalg.cond(x.T @ x) > 1e14
    with pytest.raises(SingularMatrixError):
        fit_ols(x, y)
    with pytest.raises(SingularMatrixError):
        fit_logistic(x, y)


def test_logistic_input_validation():
    with pytest.raises(InvalidInputError):
        fit_logistic(np.ones((5, 2)), np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        fit_logistic(np.ones((5, 2)), np.array([0.0, 1.0, 2.0, 0.0, 1.0]))
    with pytest.raises(InvalidInputError, match="theta0 has the wrong length"):
        fit_logistic(np.ones((3, 1)), np.array([0.0, 1.0, 1.0]), theta0=np.zeros(2))
    with pytest.raises(InvalidInputError, match="at least as many rows as columns"):
        fit_logistic(LogisticRows(2, 3))
    with pytest.raises(InvalidInputError, match="rows and responses must match"):
        LogisticRows(2, 3).append(np.ones((2, 3)), np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError, match="X must be finite"):
        LogisticRows(2, 3).append(np.array([[1.0, np.inf]]), np.array([1.0]))


def test_predict_classify_counts():
    x = np.column_stack([np.ones(6), np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])])
    rng = CounterRng(23)
    xt = np.column_stack([np.ones(200), rng.normal(200)])
    yt = (rng.uniform(200) < sigmoid(2.0 * xt[:, 1])).astype(float)
    fit = fit_logistic(xt, yt)
    y_test = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    cm = predict_classify(fit, x, y_test, threshold=0.5)
    counts = np.asarray(cm.counts)
    assert counts.sum() == 6
    assert cm.total == 6
    pi = sigmoid(x @ fit.theta)
    pred = (pi >= 0.5).astype(int)
    for p in (0, 1):
        for a in (0, 1):
            assert counts[p][a] == int(np.sum((pred == p) & (y_test == a)))
    assert cm.accuracy == pytest.approx((counts[0][0] + counts[1][1]) / 6)


def test_predict_classify_threshold_one_predicts_negative():
    rng = CounterRng(29)
    xt = np.column_stack([np.ones(100), rng.normal(100)])
    yt = (rng.uniform(100) < 0.5).astype(float)
    fit = fit_logistic(xt, yt)
    cm = predict_classify(fit, xt, yt, threshold=1.0)
    counts = np.asarray(cm.counts)
    assert counts[1].sum() == 0  # sigmoid < 1 everywhere on finite inputs
    with pytest.raises(InvalidInputError):
        predict_classify(fit, xt, yt, threshold=0.0)
    with pytest.raises(InvalidInputError):
        predict_classify(fit, xt, yt, threshold=1.2)


def test_fit_result_json_round_trip():
    rng = CounterRng(31)
    x = np.column_stack([np.ones(30), rng.normal(30)])
    y = x @ np.array([1.0, 2.0]) + 0.01 * rng.normal(30)
    d = fit_ols(x, y).to_json_dict()
    assert set(d) >= {"theta", "std_errors", "objective", "iterations", "converged", "family"}
    assert isinstance(d["theta"], list)
