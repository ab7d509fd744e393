"""write_json against its oracle: the bytes of json.dumps(obj, indent=2,
sort_keys=True) plus a final newline, or the same exception.

write_json sends flat scalar lists and lists of scalar rows through the C
encoder, so the drawn documents are built from those shapes and from what
must not take that path: ragged and empty rows, empty containers, rows
nested three deep, tuples, dicts with string or integer keys, and lists of
dicts (the shape of a trace's steps).  A float list, or equal-width float
rows, of which most items repeat an earlier value is written one json.dumps
per distinct bit pattern; those documents are drawn from a small pool of
floats, with ints, bools and np.float64 mixed in.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from subsel.ingest_sim import _float_texts, write_json

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


# at least 11 draws from the 10 floats of POOL: every drawn list repeats a value
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


def assert_matches_json(obj, path) -> None:
    try:
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
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
    [[1.0], np.array([1.0, 2.0])],
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


@given(items=st.lists(POOL_ITEMS, min_size=1, max_size=60))
def test_each_distinct_float_is_formatted_once_only_for_floats(items):
    # the bit-pattern path returns json.dumps of every item; ints, bools and np.float64 keep the
    # C encoder, so 1, 1.0 and True never share a text and 0.0 never prints as -0.0
    types = set(map(type, items))
    texts = _float_texts(items, types)
    if types != {float}:
        assert texts is None
    elif 2 * len(set(items)) <= len(items):
        assert texts == [json.dumps(v) for v in items]
    else:
        assert texts is None


def test_a_list_of_mostly_repeated_floats_takes_the_distinct_value_path():
    items = [0.0, -0.0, 20.202020202020204, math.nan, -0.0, 0.0, 20.202020202020204, 5e-324]
    assert _float_texts(items, {float}) == [json.dumps(v) for v in items]
    assert _float_texts(items + [1], {float, int}) is None
    assert _float_texts(items[:2] + [1.5, 2.5, 3.5], {float}) is None
