"""criteria._eigh, the direct LAPACK call behind every eigendecomposition of one symmetric matrix,
against np.linalg.eigh, bit for bit, as properties."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.criteria import _eigh
from subsel.errors import SingularMatrixError


@st.composite
def eigh_inputs(draw):
    """Float64 matrices, p = 1..8: symmetric with random, tied or repeated eigenvalues, rank-deficient
    PSD, with identical rows, or not symmetric at all (both read the lower triangle); laid out
    contiguous, as a transposed or strided view, or as the (a + a.T) / 2 result."""
    p = draw(st.integers(1, 8), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(["random", "diagonal-ties", "rotated-ties", "rank-deficient", "identical-rows",
                                 "unsymmetric"]), label="kind")
    if kind in ("random", "unsymmetric"):
        a = rng.normal(size=(p, p))
        if kind == "random":
            a = a + a.T
    elif kind == "rank-deficient":
        x = rng.normal(size=(draw(st.integers(0, p - 1), label="rank"), p))
        a = x.T @ x
    elif kind == "identical-rows":
        a = np.full((p, p), rng.normal())
    else:
        vals = rng.choice([-1.0, 0.0, 0.5, 2.0], size=p)  # ties among at most four values
        if kind == "diagonal-ties":
            a = np.diag(vals)
        else:
            basis = np.linalg.qr(rng.normal(size=(p, p)))[0]
            a = (basis * vals) @ basis.T
    a = a * draw(st.sampled_from([1.0, 1e-150, 1e150]), label="scale")
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided", "symmetrized"]), label="layout")
    if layout == "transposed":
        return a.T
    if layout == "strided":
        big = np.zeros((2 * p, 2 * p))
        big[::2, ::2] = a
        return big[::2, ::2]
    if layout == "symmetrized":
        return (a + a.T) / 2.0
    return a


@given(a=eigh_inputs())
def test_eigh_is_numpys_bit_for_bit(a):
    w, v = _eigh(a)
    want_w, want_v = np.linalg.eigh(a)
    assert (w.dtype, w.shape, v.dtype, v.shape) == (want_w.dtype, want_w.shape, want_v.dtype, want_v.shape)
    assert w.tobytes() == want_w.tobytes()
    assert v.tobytes() == want_v.tobytes()


@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), value=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_a_non_finite_entry_raises(p, seed, value, data):
    a = np.random.default_rng(seed).normal(size=(p, p))
    a = a + a.T
    i, j = data.draw(st.integers(0, p - 1), label="i"), data.draw(st.integers(0, p - 1), label="j")
    a[i, j] = a[j, i] = value
    # where LAPACK fails (an inf entry) numpy warns of the floating-point flags it left, which the wrapper hid
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(SingularMatrixError, match="non-finite"):
        _eigh(a)
