"""Exactness of the logistic fit's shortcuts.

* The one-pass log-likelihood -sum log(1 + e^((1 - 2y) eta)) equals the
  two-pass form it replaced, sum of y log sigmoid(eta) + (1 - y)
  log(1 - sigmoid(eta)), bit for bit: with y in {0, 1} every term of the old
  form is exactly one of its two logaddexp values, summed in the same order.
* The fused pass `LogisticRows.evaluate`, which takes the log-likelihood, the
  gradient and X'WX from one exp(-|eta|), agrees with the textbook formulas
  (the logaddexp log-likelihood, the sigmoid gradient and (x * w).T @ x) to
  within RTOL of the sum of the absolute values of the terms of each sum,
  and its sums over a split of the rows add up to the sums over all of them.
* The information matrix a fit returns is, byte for byte, the X'WX its
  standard errors were taken from, so the sequential loop may use it in
  place of its own; it is X'WX at its theta to within RTOL.
* A refit starts from the sums of the holder's last fit only when that fit
  ended at exactly its start point.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from subsel.errors import SeparationError, SingularMatrixError
from subsel.estimation import LogisticRows, _log_likelihood, fit_logistic, sigmoid

# Relative tolerance of a fused sum against its textbook form, taken
# against the sum of the absolute values of the terms: the two differ by
# a few ulps per term (numpy's vectorized exp and log1p against the libm
# calls inside logaddexp, e/(1 + e)^2 against pi(1 - pi)) and by the order
# of the summation.
RTOL = 1e-12


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
    # pi (1 - pi) with 1 - pi = sigmoid(-eta), accurate in both tails
    eta = x @ theta
    return (x * (sigmoid(eta) * sigmoid(-eta))[:, None]).T @ x


def textbook(x: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """(log-likelihood, gradient, X'WX) and the bound each may be off by."""
    eta = x @ theta
    terms = np.logaddexp(0.0, (1.0 - 2.0 * y) * eta)
    residual = y - sigmoid(eta)
    w = sigmoid(eta) * sigmoid(-eta)
    ax = np.abs(x)
    bounds = (RTOL * terms.sum(), RTOL * (ax.T @ np.abs(residual)), RTOL * ((ax * w[:, None]).T @ ax))
    return (_log_likelihood(eta, 1.0 - 2.0 * y), x.T @ residual, (x * w[:, None]).T @ x), bounds


def held(x: np.ndarray, y: np.ndarray) -> LogisticRows:
    rows = LogisticRows(x.shape[1], x.shape[0])
    rows.append(x, y)
    return rows


def assert_sums_agree(got, want, bounds):
    for a, b, bound in zip(got, want, bounds):
        assert np.all(np.abs(np.asarray(a) - b) <= bound)


ETA_SCALE = st.one_of(
    st.floats(1e-300, 700.0),
    st.sampled_from([1e-300, 1e-150, 1e-16, 1.0, 36.7, 700.0]),
)


@given(
    magnitudes=st.lists(st.one_of(ETA_SCALE, st.just(0.0)), min_size=1, max_size=200),
    data=st.data(),
    labels=st.sampled_from(["mixed", "zeros", "ones"]),
)
def test_fused_pass_agrees_with_the_textbook_formulas(magnitudes, data, labels):
    # eta is the first column itself (theta = (1, 0)): each value is hit
    # exactly, with either sign, -0.0 included
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(magnitudes),
                               max_size=len(magnitudes)))
    eta = np.array(magnitudes) * np.array(signs)
    rng = np.random.default_rng(len(magnitudes))
    x = np.column_stack([eta, rng.normal(size=eta.size)])
    if labels == "mixed":
        y = rng.integers(0, 2, size=eta.size).astype(float)
    else:
        y = np.full(eta.size, 0.0 if labels == "zeros" else 1.0)
    theta = np.array([1.0, 0.0])
    want, bounds = textbook(x, y, theta)
    assert_sums_agree(held(x, y).evaluate(theta), want, bounds)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    k=st.integers(1, 5),
    scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
)
def test_sums_of_a_split_add_up_to_the_full_pass(seed, n, k, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    y = rng.integers(0, 2, size=n).astype(float)
    theta = rng.normal(scale=scale, size=k)
    split = int(rng.integers(0, n + 1))
    rows = LogisticRows(k, n)
    rows.append(x[:split], y[:split])
    rows.append(x[split:], y[split:])
    head = held(x[:split], y[:split]).evaluate(theta)
    tail = rows.evaluate(theta, split)
    want, bounds = textbook(x, y, theta)
    assert_sums_agree([h + t for h, t in zip(head, tail)], want, bounds)
    assert_sums_agree(rows.evaluate(theta), want, bounds)


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
    rows = LogisticRows.of(x, y)
    try:
        fit = fit_logistic(rows, theta0=start)
    except (SeparationError, SingularMatrixError):
        assume(False)
    # the matrix the fit inverted, byte for byte, and X'WX at its theta
    assert fit.information.tobytes() == rows.evaluate(fit.theta)[2].tobytes()
    assert np.allclose(fit.covariance @ fit.information, np.eye(k), rtol=0.0, atol=1e-9)
    _, bounds = textbook(x, y, fit.theta)
    assert np.all(np.abs(fit.information - recomputed_information(x, fit.theta)) <= bounds[2])
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
    _, bounds = textbook(x, y, cold.theta)
    for fit in (cold, warm):
        assert fit.information.tobytes() == LogisticRows.of(x, y).evaluate(fit.theta)[2].tobytes()
        assert np.all(np.abs(fit.information - recomputed_information(x, fit.theta)) <= bounds[2])


def sample(seed: int, n: int):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = (rng.uniform(size=n) < sigmoid(x @ np.array([-1.0, 0.8, -0.5]))).astype(float)
    return x, y


def test_refit_starts_from_the_last_fit_only_at_its_theta():
    # any other start, one ulp away included, is evaluated over all rows,
    # exactly as in a fresh holder
    x, y = sample(7, 600)
    for start in (None, lambda t: t + 0.05, lambda t: np.nextafter(t, np.inf)):
        rows = LogisticRows(3, 600)
        rows.append(x[:550], y[:550])
        first = fit_logistic(rows)
        rows.append(x[550:], y[550:])
        theta0 = None if start is None else start(first.theta)
        got = fit_logistic(rows, theta0=theta0)
        want = fit_logistic(x, y, theta0=theta0)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.information.tobytes() == want.information.tobytes()
        assert (got.iterations, got.objective) == (want.iterations, want.objective)


def test_refit_from_the_last_fit_agrees_with_a_full_start():
    x, y = sample(8, 2000)
    rows = LogisticRows(3, 2000)
    rows.append(x[:1900], y[:1900])
    first = fit_logistic(rows)
    assert rows.sums.n == 1900 and rows.sums.theta.tobytes() == first.theta.tobytes()
    for end in range(1901, 2001, 33):
        rows.append(x[rows.n:end], y[rows.n:end])
        seeded = fit_logistic(rows, theta0=first.theta)
        full = fit_logistic(x[:end], y[:end], theta0=first.theta)
        assert seeded.converged and full.converged and seeded.iterations == full.iterations
        scale = max(np.max(np.abs(full.theta)), 1.0)
        assert np.max(np.abs(seeded.theta - full.theta)) <= 1e-12 * scale
        _, bounds = textbook(x[:end], y[:end], seeded.theta)
        assert np.all(np.abs(seeded.information - full.information) <= 2.0 * bounds[2])
        first = seeded
