"""Exactness of the logistic fit's shortcuts.

* The one-pass log-likelihood -sum log(1 + e^((1 - 2y) eta)) equals the
  two-pass form it replaced, sum of y log sigmoid(eta) + (1 - y)
  log(1 - sigmoid(eta)), bit for bit: with y in {0, 1} every term of the old
  form is exactly one of its two logaddexp values, summed in the same order.
* The information matrix a fit returns is X'WX recomputed at its theta,
  byte for byte, so the sequential loop may use it in place of its own.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from subsel.errors import SeparationError, SingularMatrixError
from subsel.estimation import _log_likelihood, fit_logistic, sigmoid


def two_pass_log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    return float(-(y * np.logaddexp(0.0, -eta) + (1.0 - y) * np.logaddexp(0.0, eta)).sum())


ETA = st.one_of(
    st.floats(-700.0, 700.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 700.0, -700.0, 36.7, -36.7]),
)


@given(
    eta=st.lists(ETA, min_size=1, max_size=300),
    labels=st.sampled_from(["mixed", "zeros", "ones"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_log_likelihood_is_bit_identical(eta, labels, seed):
    eta = np.array(eta)
    if labels == "mixed":
        y = np.random.default_rng(seed).integers(0, 2, size=eta.size).astype(float)
    else:
        y = np.full(eta.size, 0.0 if labels == "zeros" else 1.0)
    got = _log_likelihood(eta, 1.0 - 2.0 * y)
    assert np.float64(got).tobytes() == np.float64(two_pass_log_likelihood(eta, y)).tobytes()


def test_one_pass_log_likelihood_on_wide_samples():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 128, 129, 5050):
        eta = rng.normal(scale=10.0, size=n) * 10.0 ** rng.integers(-300, 3, size=n)
        for y in (rng.integers(0, 2, size=n).astype(float), np.zeros(n), np.ones(n)):
            got = _log_likelihood(eta, 1.0 - 2.0 * y)
            assert np.float64(got).tobytes() == np.float64(two_pass_log_likelihood(eta, y)).tobytes()


def recomputed_information(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    pi = sigmoid(x @ theta)
    return (x * (pi * (1.0 - pi))[:, None]).T @ x


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 3000),
    k=st.integers(1, 5),
    shift=st.floats(-4.0, 2.0),
    warm=st.booleans(),
)
def test_fit_information_is_x_w_x_at_theta(seed, n, k, shift, warm):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    theta = np.concatenate([[shift], rng.uniform(-1.0, 1.0, size=k - 1)])
    y = (rng.uniform(size=n) < sigmoid(x @ theta)).astype(float)
    assume(0 < y.sum() < n)
    start = theta + rng.uniform(-0.5, 0.5, size=k) if warm else None
    try:
        fit = fit_logistic(x, y, theta0=start)
    except (SeparationError, SingularMatrixError):
        assume(False)
    assert fit.information.tobytes() == recomputed_information(x, fit.theta).tobytes()
    assert fit.to_json_dict().keys() == {"family", "theta", "std_errors", "objective",
                                         "iterations", "converged"}


def test_fit_information_when_the_start_is_already_optimal():
    # a warm start at the optimum stops before its first step, at theta0's copy
    rng = np.random.default_rng(4)
    x = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
    y = (rng.uniform(size=500) < sigmoid(x @ np.array([-1.0, 0.5, -0.3]))).astype(float)
    cold = fit_logistic(x, y)
    warm = fit_logistic(x, y, theta0=cold.theta)
    assert warm.iterations == 0
    for fit in (cold, warm):
        assert fit.information.tobytes() == recomputed_information(x, fit.theta).tobytes()
