"""write_json against its oracle: the bytes of json.dumps(obj, indent=2,
sort_keys=True) plus a final newline, or the same exception.

write_json sends flat scalar lists and lists of scalar rows through the C
encoder, so the drawn documents are built from those shapes and from what
must not take that path: ragged and empty rows, empty containers, rows
nested three deep, tuples, and dicts with string or integer keys.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

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
           "name": "résumé\n\x01]", "nested": [[[1]]]}
    assert_matches_json(obj, out_path)
