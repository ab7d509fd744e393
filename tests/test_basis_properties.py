"""Basis evaluation properties: model_matrix equals the scalar formulas bit for bit.

A basis maps an (n, d) point array to the (n, length) array of its values,
row i computed from point i alone.  The oracle is the built-in `poly` and
`trig` families' scalar formulas below, term by term at one point, run row
by row by a test-local loop.  For any configuration, including the
confounder block, out-of-range values and mismatched point dimensions, the
matrix (or the error) must be exactly what the scalar formulas give, and
model_matrix on one row at a time must give the same rows.  A point whose
coordinate count is not the basis's dimension is an error, never a silently
truncated point.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.errors import InvalidInputError
from subsel.model_core import (
    ModelSpec,
    model_matrix,
    polynomial_basis,
    trig_basis,
)

COEF = st.floats(-3.0, 3.0)
VALUES = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e120, 1e120), st.floats())


def _check_dim(x, dim):
    if len(x) != dim:
        raise InvalidInputError(f"basis takes points of dimension {dim}, got {len(x)}")


def _rowwise(point_fn):
    """The whole-array basis that applies a one-point formula to each row in turn."""
    return lambda pts: np.array([point_fn(x) for x in pts])


def _scalar_poly(degree, intercept, dim, scale):
    """The poly family term by term in Python floats, one point at a time."""
    def fn(x):
        _check_dim(x, dim)
        terms = [1.0] if intercept else []
        if dim == 1:
            v = scale * float(x[0])
            terms.extend(v**j for j in range(1, degree + 1))
        elif degree:
            terms.extend(scale * float(v) for v in x)
        return np.asarray(terms, dtype=float)

    return _rowwise(fn)


def _scalar_trig(kind, coeffs, amplitude):
    """The trig family at one scalar point at a time."""
    a, b, c = coeffs
    wave = np.sin if kind == "sin" else np.cos

    def fn(x):
        _check_dim(x, 1)
        v = float(x[0])
        return np.asarray([amplitude * wave(a * v * v + b * v + c)], dtype=float)

    return _rowwise(fn)


def _poly(degree, intercept=True, dim=1, scale=1.0):
    """(built-in callable, n_terms, scalar oracle) of one poly configuration."""
    fn, n_terms = polynomial_basis(degree, intercept, dim, scale)
    return fn, n_terms, _scalar_poly(degree, intercept, dim, scale)


def _trig(kind, coeffs, amplitude=1.0):
    """(built-in callable, n_terms, scalar oracle) of one trig configuration."""
    fn, n_terms = trig_basis(kind, coeffs, amplitude)
    return fn, n_terms, _scalar_trig(kind, coeffs, amplitude)


def _spec_pair(f, h=(None, 0, None), g=(None, 0, None)):
    """The ModelSpec of the built-in bases and that of their scalar oracles."""
    (f_fn, p, f_ref), (h_fn, m, h_ref), (g_fn, q, g_ref) = f, h, g
    return (ModelSpec(f_basis=f_fn, p=p, h_basis=h_fn, m=m, g_basis=g_fn, q=q),
            ModelSpec(f_basis=f_ref, p=p, h_basis=h_ref, m=m, g_basis=g_ref, q=q))


@st.composite
def poly_configs(draw):
    degree = draw(st.integers(0, 3))
    intercept = True if degree == 0 else draw(st.booleans())
    dim = draw(st.integers(1, 3)) if degree <= 1 else 1
    scale = draw(st.one_of(st.just(1.0), st.just(1.0 / 9.0), COEF))
    return _poly(degree, intercept, dim, scale)


@st.composite
def trig_configs(draw):
    kind = draw(st.sampled_from(["sin", "cos"]))
    coeffs, amplitude = (draw(COEF), draw(COEF), draw(COEF)), draw(COEF)
    return _trig(kind, coeffs, amplitude)


BASES = st.one_of(poly_configs(), trig_configs())
NO_BASIS = st.just((None, 0, None))


@st.composite
def specs_and_points(draw):
    spec, scalar = _spec_pair(draw(BASES), draw(st.one_of(NO_BASIS, BASES)),
                              draw(st.one_of(NO_BASIS, BASES)))
    q = spec.q
    n = draw(st.integers(0, 12))
    d_x = draw(st.integers(1, 3))
    xs = np.array(draw(st.lists(VALUES, min_size=n * d_x, max_size=n * d_x))).reshape(n, d_x)
    zs = None
    if q:
        d_z = draw(st.integers(1, 3))
        zs = np.array(draw(st.lists(VALUES, min_size=n * d_z, max_size=n * d_z))).reshape(n, d_z)
    return spec, scalar, xs, zs


def _outcome(call):
    with np.errstate(all="ignore"):
        try:
            mat = call()
        except InvalidInputError as exc:
            return ("error", str(exc))
    return ("ok", mat.shape, mat.tobytes())


def _stacked(spec, xs, zs):
    rows = [model_matrix(spec, xs[i:i + 1], None if zs is None else zs[i:i + 1])[0]
            for i in range(xs.shape[0])]
    return np.array(rows, dtype=float).reshape(xs.shape[0], spec.k_total)


@given(specs_and_points())
def test_model_matrix_equals_stacked_one_row_matrices(case):
    spec, scalar, xs, zs = case
    want = _outcome(lambda: _stacked(scalar, xs, zs))
    assert _outcome(lambda: _stacked(spec, xs, zs)) == want
    assert _outcome(lambda: model_matrix(spec, xs, zs)) == want


def test_user_basis_errors_keep_their_messages():
    f_fn, p = polynomial_basis(degree=2)
    xs = np.array([[0.5], [1.5], [2.5]])

    short = ModelSpec(f_basis=f_fn, p=p, h_basis=lambda x: np.column_stack([x[:, 0], np.ones(len(x))]), m=3)
    with pytest.raises(InvalidInputError, match=r"^h basis returned shape \(1, 2\), expected \(1, 3\)$"):
        model_matrix(short, xs)

    bad = ModelSpec(f_basis=f_fn, p=p, g_basis=lambda z: np.where(z == 1.5, np.nan, z), q=1)
    with pytest.raises(InvalidInputError, match=r"^g basis returned a non-finite value$"):
        model_matrix(bad, xs, xs)

    def boom(x):
        raise ZeroDivisionError("no")

    raising = ModelSpec(f_basis=boom, p=1)
    with pytest.raises(InvalidInputError, match=r"^f basis failed on a point of dimension 1: no$"):
        model_matrix(raising, xs)

    # a basis that fails on several rows at once but on no single row: the whole-array error stands
    def one_row_only(x):
        if len(x) > 1:
            raise ValueError("one row at a time")
        return x

    with pytest.raises(InvalidInputError, match=r"^f basis failed on a point of dimension 1: one row at a time$"):
        model_matrix(ModelSpec(f_basis=one_row_only, p=1), xs)
    assert model_matrix(ModelSpec(f_basis=one_row_only, p=1), xs[1:2]).tolist() == [[1.5]]


def test_builtin_basis_errors_match_one_row_matrices():
    # a degree-2 power that overflows, and a wave of an infinite argument
    f_fn, p = polynomial_basis(degree=2)
    h_fn, m = trig_basis("sin", (1.0, 0.0, 0.0))
    xs = np.array([[1.0], [1e200]])
    for spec in (ModelSpec(f_basis=f_fn, p=p), ModelSpec(f_basis=polynomial_basis(1)[0], p=2,
                                                          h_basis=h_fn, m=m)):
        want = _outcome(lambda: _stacked(spec, xs, None))
        assert want[0] == "error"
        assert _outcome(lambda: model_matrix(spec, xs)) == want
    # failures in two blocks on two rows: the earlier row's block names the error,
    # whichever block it is; x = 1e5 sends the wave's argument 1e300 x^2 to inf
    both = ModelSpec(f_basis=f_fn, p=p, h_basis=trig_basis("sin", (1e300, 0.0, 0.0))[0], m=1)
    for xs, label in (([[1e5], [1e200]], "h"), ([[1e200], [1e5]], "f")):
        xs = np.array(xs)
        want = _outcome(lambda: _stacked(both, xs, None))
        assert want[0] == "error" and want[1].startswith(f"{label} basis ")
        assert _outcome(lambda: model_matrix(both, xs)) == want


def test_builtin_bases_take_the_whole_array_path(monkeypatch):
    import subsel.model_core as model_core

    xs = np.linspace(-2.0, 2.0, 30).reshape(10, 3)
    zs = np.linspace(0.0, 9.0, 10)
    cases = [
        (_spec_pair(_poly(3, scale=0.5), _trig("cos", (0.3, -1.0, 0.2), 0.35),
                    _poly(1, intercept=False, scale=1.0 / 9.0)), xs[:, :1]),
        (_spec_pair(_poly(1, dim=3), g=_trig("sin", (1.0, 0.0, 0.0))), xs),
        (_spec_pair(_poly(0, dim=3)), xs),
    ]
    want = [model_matrix(scalar, x, zs if scalar.q else None) for (_, scalar), x in cases]

    whole = model_core._eval_block

    def whole_array_only(fn, points, length, label):
        assert points.shape[0] == 10, "model_matrix re-ran a basis point by point on good input"
        return whole(fn, points, length, label)

    monkeypatch.setattr(model_core, "_eval_block", whole_array_only)
    for ((spec, _), x), rows in zip(cases, want):
        assert model_matrix(spec, x, zs if spec.q else None).tobytes() == rows.tobytes()


def test_powers_follow_python_pow_on_many_values():
    # Python's v ** j differs from v * v and np.power on roughly one value
    # in a thousand for j = 2 and far more often for j = 3, so a short random
    # case can miss a wrong power; this one cannot
    xs = np.random.default_rng(7).normal(size=(20000, 1)) * 40.0
    f_fn, p = polynomial_basis(degree=3, scale=0.5)
    scalar = ModelSpec(f_basis=_scalar_poly(3, True, 1, 0.5), p=p)
    assert model_matrix(ModelSpec(f_basis=f_fn, p=p), xs).tobytes() == model_matrix(scalar, xs).tobytes()
