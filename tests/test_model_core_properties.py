"""Design-measure merging and the distinct-index check, tested as properties.

The oracle for the merge is the earlier per-point dict loop: points are
keyed by the tuple of their coordinates (so 0.0 and -0.0 are one key), the
first occurrence keeps its coordinates and its place, and each later
duplicate's weight is added to it in ascending index order.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.errors import InvalidInputError
from subsel.model_core import DesignMeasure, SubsampleSelection


def oracle_merge(xs: np.ndarray, w: np.ndarray, zs):
    keys: dict[tuple, int] = {}
    keep: list[int] = []
    merged = w.copy()
    for i in range(xs.shape[0]):
        key = tuple(xs[i]) + (tuple(zs[i]) if zs is not None else ())
        at = keys.get(key)
        if at is None:
            keys[key] = len(keep)
            keep.append(i)
        else:
            merged[keep[at]] += merged[i]
    idx = np.asarray(keep, dtype=int)
    return xs[idx], merged[idx], None if zs is None else zs[idx]


# few distinct values, so rows repeat; signed zeros and weights of very
# different sizes make the merge order and the zero rule visible
coords = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, -1e-300, 3.0])
weights = st.sampled_from([0.0, 1.0, 3.0, 1e-17, 0.1, 7.5, 2.0**-30])


@given(
    n=st.integers(1, 40),
    dx=st.integers(1, 3),
    dz=st.integers(0, 2),
    data=st.data(),
)
def test_merge_matches_dict_loop(n, dx, dz, data):
    xs = np.array(data.draw(st.lists(coords, min_size=n * dx, max_size=n * dx), label="x")).reshape(n, dx)
    zs = None
    if dz:
        zs = np.array(data.draw(st.lists(coords, min_size=n * dz, max_size=n * dz), label="z")).reshape(n, dz)
    raw = np.array(data.draw(st.lists(weights, min_size=n, max_size=n), label="w"))
    if raw.sum() == 0.0:
        raw[0] = 1.0
    w = raw / raw.sum()
    want_x, want_w, want_z = oracle_merge(xs, w, zs)
    if abs(float(want_w.sum()) - 1.0) > 1e-12:
        with pytest.raises(InvalidInputError):
            DesignMeasure(xs, w, zs)
        return
    got = DesignMeasure(xs, w, zs)
    assert got.x_points.tobytes() == want_x.tobytes()
    assert got.weights.tobytes() == want_w.tobytes()
    assert (got.z_points is None) == (want_z is None)
    if want_z is not None:
        assert got.z_points.tobytes() == want_z.tobytes()


def test_merge_leaves_the_inputs_writable():
    xs = np.array([[0.0], [1.0]])
    w = np.array([0.5, 0.5])
    d = DesignMeasure(xs, w)
    assert xs.flags.writeable and w.flags.writeable
    assert not d.x_points.flags.writeable and not d.weights.flags.writeable


@given(st.lists(st.integers(-5, 30), max_size=25))
def test_duplicate_indices_rejected_exactly_when_repeated(indices):
    if len(set(indices)) < len(indices):
        with pytest.raises(InvalidInputError, match="duplicate"):
            SubsampleSelection(indices=np.asarray(indices, dtype=int), algorithm="t")
    else:
        sel = SubsampleSelection(indices=np.asarray(indices, dtype=int), algorithm="t")
        assert sel.indices.tolist() == indices
