"""write_json against its oracle: the bytes of json.dumps(obj, indent=2,
sort_keys=True) plus a final newline, with every numpy array in obj replaced
by its tolist(), or the same exception.

write_json sends flat scalar lists through the C encoder, so the drawn
documents are built from those, from lists of scalar rows (a confusion
matrix) and from what must not take that path: ragged and empty rows, empty
containers, rows
nested three deep, tuples, dicts with string or integer keys, and lists of
dicts (the shape of a trace's steps).  A float64 array of one or two
dimensions, none of length 0 (a design measure's points and weights), is
written one json.dumps per distinct bit pattern; those arrays are drawn
mostly repeating (from a small pool of floats) and mostly distinct, next to
arrays of every other dtype and shape, alone and nested in dicts and in
lists of dicts.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subsel.ingest_sim import write_json

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300]),
    st.floats().map(np.float64),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=8))


def _rows(width: int):
    return st.lists(st.lists(SCALARS, min_size=width, max_size=width), max_size=5)


FLAT = st.lists(SCALARS, max_size=8)
EQUAL_ROWS = st.integers(0, 4).flatmap(_rows)
RAGGED_ROWS = st.lists(st.lists(SCALARS, max_size=4), max_size=5)
DEEP_ROWS = st.lists(st.lists(st.lists(SCALARS, max_size=3), max_size=3), max_size=3)
LEAVES = st.one_of(SCALARS, FLAT, EQUAL_ROWS, RAGGED_ROWS, DEEP_ROWS, FLAT.map(tuple),
                   EQUAL_ROWS.map(lambda rows: tuple(map(tuple, rows))))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=12,
)


# floats that print alike but differ in bits (0.0, -0.0), that are not finite, the smallest
# subnormal and long decimals: a few of them make lists in which most items repeat
POOL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                        20.202020202020204, 1.0 / 3.0, 1e300])
POOL_ITEMS = st.one_of(POOL, POOL.map(np.float64), st.sampled_from([0, 1, -1, True, False]))


def _pool_rows(width: int, items):
    return st.lists(st.lists(items, min_size=width, max_size=width), min_size=11, max_size=40)


# at least 11 draws from the 10 floats of POOL: every drawn list repeats a value (the C encoder
# writes lists, repeated or not)
REPEATING = st.one_of(
    st.lists(POOL, min_size=11, max_size=60),
    st.lists(POOL_ITEMS, min_size=11, max_size=60),
    st.integers(1, 3).flatmap(lambda width: _pool_rows(width, POOL)),  # width 1: a measure's points
    st.integers(1, 3).flatmap(lambda width: _pool_rows(width, POOL_ITEMS)),
    st.lists(st.lists(POOL, min_size=1, max_size=3), min_size=11, max_size=40),  # ragged rows
)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "out.json"


def _lists(obj):
    """obj with every numpy array in it replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_lists, obj))
    return obj


def assert_matches_json(obj, path) -> None:
    try:
        want = json.dumps(_lists(obj), indent=2, sort_keys=True) + "\n"
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            write_json(obj, path)
        assert str(info.value) == str(exc)
        return
    write_json(obj, path)
    assert path.read_bytes() == want.encode("utf-8")


@given(obj=DOCUMENTS)
def test_write_json_bytes_equal_the_indenting_encoder(out_path, obj):
    assert_matches_json(obj, out_path)


@given(obj=st.dictionaries(st.text(max_size=6), LEAVES, min_size=1, max_size=6))
def test_write_json_artifact_shaped_documents(out_path, obj):
    # the shape of the artifacts: a dict of scalars, flat lists and row lists
    assert_matches_json(obj, out_path)


@pytest.mark.parametrize("obj", [
    np.int64(4),
    [np.int64(1)],
    [[1.0, np.int64(2)], [3.0, 4.0]],
    [[1.0], np.array([np.int64(1)], dtype=object)],
    {"a": [np.int64(3)]},
    (np.int64(1), 2),
    [{"a": [[np.float32(1.0)]]}],
    {"k": {1: [np.int64(5)]}},
    {1: "int key", "a": "mixed keys cannot be sorted"},
])
def test_write_json_raises_where_json_raises(out_path, obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    assert_matches_json(obj, out_path)


def test_write_json_spells_rows_as_json_does(out_path):
    obj = {"points": [[1.5, -2.0], [0.0, 3.0]], "weights": [0.25, 0.75], "empty": [[], [1]],
           "name": "résumé\n\x01]", "nested": [[[1]]],
           "steps": [{"chosen": [0.5, 1], "iter": 1}, {"chosen": [], "iter": 2, "z": {}}]}
    assert_matches_json(obj, out_path)


@given(obj=st.one_of(REPEATING, st.dictionaries(st.sampled_from(["points", "weights"]), REPEATING, min_size=1)))
def test_write_json_repeated_floats(out_path, obj):
    assert_matches_json(obj, out_path)


def _float_arrays(elements):
    shapes = st.one_of(
        st.tuples(st.integers(1, 40)),  # a measure's weights
        st.tuples(st.integers(1, 40), st.just(1)),  # a measure's points
        st.tuples(st.integers(1, 15), st.integers(2, 4)),
    )
    return hnp.arrays(np.float64, shapes, elements=elements)


MOSTLY_REPEATING = _float_arrays(POOL)
MOSTLY_DISTINCT = _float_arrays(st.floats())
# what the float branch leaves to tolist(): a length-0 axis, 0 or 3 dimensions, another dtype
EMPTY = hnp.arrays(np.float64, st.sampled_from([(0,), (0, 1), (0, 3), (4, 0), (0, 0)]))
OTHER_NDIM = hnp.arrays(np.float64, st.sampled_from([(), (2, 1, 3), (1, 2, 2)]), elements=POOL)
OTHER_DTYPE = hnp.arrays(st.sampled_from([np.int64, np.int32, np.bool_, np.float32, np.dtype(">f8")]),
                         hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
ARRAYS = st.one_of(MOSTLY_REPEATING, MOSTLY_DISTINCT, EMPTY, OTHER_NDIM, OTHER_DTYPE)


@given(arr=st.one_of(MOSTLY_REPEATING, MOSTLY_DISTINCT))
def test_write_json_float_arrays(out_path, arr):
    assert_matches_json(arr, out_path)


@given(arr=st.one_of(EMPTY, OTHER_NDIM, OTHER_DTYPE))
def test_write_json_other_arrays_write_their_lists(out_path, arr):
    assert_matches_json(arr, out_path)


@given(obj=st.one_of(
    st.dictionaries(st.sampled_from(["points", "weights", "z_points"]), ARRAYS, min_size=1),
    st.lists(st.fixed_dictionaries({"iteration": st.integers(), "chosen": ARRAYS, "xi": ARRAYS}), max_size=3),
    st.lists(ARRAYS, min_size=1, max_size=3),
    st.lists(st.lists(ARRAYS, min_size=1, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.integers(-3, 3), ARRAYS, max_size=2),
))
def test_write_json_nested_arrays(out_path, obj):
    assert_matches_json(obj, out_path)


@pytest.mark.parametrize("arr", [
    np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0]),
    np.array([[0.0, -0.0], [-0.0, 0.0], [5e-324, math.nan]]),
    np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7.0),  # not C-contiguous
    (np.arange(12.0).reshape(4, 3) / 7.0)[:, 1],
    np.arange(12.0).reshape(4, 3)[::2, :1],
    np.array([1, -2, 3], dtype=np.int64),  # int bits are not float bits
    np.array([[1, 2], [3, 4]], dtype=np.int64),
    np.array([True, False] * 4),
    np.array([0.5, 1.5], dtype=np.float32),
    np.array(0.5),  # 0 and 3 dimensions
    np.arange(8.0).reshape(2, 2, 2),
    np.zeros(0),  # a length-0 axis
    np.zeros((0, 3)),
    np.zeros((3, 0)),
])
@pytest.mark.parametrize("wrap", [lambda a: a, lambda a: {"weights": a}, lambda a: [{"chosen": a, "n": 1}], lambda a: [a]],
                         ids=["bare", "in_dict", "in_steps", "in_list"])
def test_write_json_array_edge_cases(out_path, arr, wrap):
    assert_matches_json(wrap(arr), out_path)
