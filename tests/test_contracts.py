"""Library contracts: public constructors and functions refuse a bad argument with their own error.

Checks whose module test already has a validation test are tested there.
"""

import numpy as np
import pytest

from subsel.criteria import effective_rank
from subsel.errors import EmptyDatasetError, InvalidInputError
from subsel.estimation import fit_ols, predict_classify
from subsel.ingest_sim import Dataset
from subsel.model_core import InformationMatrix
from subsel.rng import CounterRng

POINTS = np.array([[-1.0], [0.0], [1.0]])
NAN = float("nan")


def line_fit():
    return fit_ols(np.column_stack([np.ones(3), POINTS[:, 0]]), [0.0, 1.0, 1.0])


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: InformationMatrix(np.eye(3), p=2), InvalidInputError,
                 "does not match blocks", id="InformationMatrix-shape"),
    pytest.param(lambda: InformationMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), p=2), InvalidInputError,
                 "not symmetric", id="InformationMatrix-asymmetric"),
    pytest.param(lambda: InformationMatrix(-np.eye(2), p=2), InvalidInputError,
                 "negative eigenvalue", id="InformationMatrix-negative"),
    pytest.param(lambda: Dataset(("x",), np.zeros((0, 1))), EmptyDatasetError, "no rows", id="Dataset-no-rows"),
    pytest.param(lambda: Dataset(("x", "w"), POINTS), InvalidInputError,
                 "one name per feature column", id="Dataset-feature-names"),
    pytest.param(lambda: Dataset(("x",), [NAN, 0.0]), InvalidInputError,
                 "features contain non-finite", id="Dataset-features-nan"),
    pytest.param(lambda: Dataset(("x",), POINTS, response=[1.0]), InvalidInputError,
                 "response length", id="Dataset-response-length"),
    pytest.param(lambda: Dataset(("x",), POINTS, response=[1.0, NAN, 0.0]), InvalidInputError,
                 "response contains non-finite", id="Dataset-response-nan"),
    pytest.param(lambda: Dataset(("x",), POINTS, confounders=[1.0], confounder_names=("z",)), InvalidInputError,
                 "confounder rows", id="Dataset-confounder-rows"),
    pytest.param(lambda: Dataset(("x",), POINTS, confounders=POINTS), InvalidInputError,
                 "one name per confounder column", id="Dataset-confounder-names"),
    pytest.param(lambda: Dataset(("x",), POINTS, confounders=[0.0, 1.0, np.inf], confounder_names=("z",)),
                 InvalidInputError, "confounders contain non-finite", id="Dataset-confounders-inf"),
    pytest.param(lambda: Dataset(("x",), POINTS, confounder_names=("z",)), InvalidInputError,
                 "names without confounder columns", id="Dataset-names-without-confounders"),
    pytest.param(lambda: fit_ols(np.ones(3), np.ones(3)), InvalidInputError, "2-D model matrix", id="fit_ols-1d"),
    pytest.param(lambda: fit_ols(np.ones((1, 2)), [1.0]), InvalidInputError,
                 "at least as many rows as columns", id="fit_ols-too-few-rows"),
    pytest.param(lambda: fit_ols([[1.0], [NAN]], [1.0, 2.0]), InvalidInputError, "must be finite", id="fit_ols-nan"),
    pytest.param(lambda: predict_classify(line_fit(), np.ones(2), [0.0, 1.0]), InvalidInputError,
                 "matching row counts", id="predict_classify-1d"),
    pytest.param(lambda: predict_classify(line_fit(), np.ones((2, 3)), [0.0, 1.0]), InvalidInputError,
                 "column count", id="predict_classify-columns"),
    pytest.param(lambda: predict_classify(line_fit(), np.ones((2, 2)), [0.0, 2.0]), InvalidInputError,
                 "0/1 response", id="predict_classify-labels"),
    pytest.param(lambda: CounterRng(1.5), InvalidInputError, "seed must be an integer", id="CounterRng-seed"),
    pytest.param(lambda: CounterRng(0).u64_array(-1), InvalidInputError, "non-negative", id="u64_array-negative"),
    pytest.param(lambda: CounterRng(0).normal(3, sd=0.0), InvalidInputError, "sd must be positive", id="normal-sd-0"),
])
def test_bad_argument_is_refused(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_effective_rank_of_a_zero_matrix_is_0():
    assert effective_rank(InformationMatrix(np.zeros((2, 2)), p=2)) == 0
