"""CSV ingest properties: the block reader and the whole-file parse agree with the row-wise reader.

load_csv reads a file whose data lines hold only plain JSON numbers with
the JSON block reader, parses any other file whose used cells are all
finite numbers, quoted or not, with one np.loadtxt pass and reads any other
file row by row.  The generated files mix all three kinds: unused columns,
blank and whitespace-only lines, CRLF and lone-CR endings, a lone CR in an
LF or CRLF file, a missing final newline, and cells that are empty,
non-finite, underscored, quoted (unterminated, padded, doubled, holding a
comma or a line break), commented, short or long, or negative zeros.  The
block reader also runs on blocks of a few bytes, so that lines and CRLF
pairs straddle its reads, and it refuses a line of any other count of cells
than the header's, blank or whitespace-only lines too, wherever in a block
the line falls.  Fixed cases add quoted headers that hold a
comma, a line break or a doubled quote, a quote past the first megabyte,
non-finite cells, and a file whose name ends in .gz, which is read as text.
A strict error names the physical line its row starts on, which a quoted
line break before it moves.  The block reader's floats are float()'s bits.
"""

import csv
import decimal
import gzip
import io
import math
import struct
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel.errors import EmptyDatasetError, ParseError
from subsel.ingest_sim import Dataset, _load_blocks, _load_plain, _load_rowwise, load_csv, write_csv

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e5", "-2.5E-3", "+.5", "5.", "-0.0", "007", " 1.25 ", "\t-3",
                     "-0", " -0", "-0e0", "1e-0", "0"]),
)
HAZARDS = [
    "", " ", "nan", "-inf", "Infinity", "1e400", "1_0", '"2.5"', '"a,5,b"', '"7\n8"',
    "#x", "# 1", "abc", "0x10", "1d5", "1,5", "１",
    '"3', ' "4"', '"5" ', '"6"x', '"1""2"', '"\r\n"', '"1\r2"', '"-0.5"',
]


@st.composite
def csv_files(draw, hazard):
    """(file text, load_csv keyword arguments).

    Numeric rows and blank lines, plus at random places a line holding the
    `hazard` cell (None: a plain number) and up to two more lines that are
    whitespace-only, short or long.
    """
    n_cols = draw(st.integers(1, 5))
    names = [f"c{j}" for j in range(n_cols)]
    features = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n_cols, unique=True))
    rest = [n for n in names if n not in features]
    response = draw(st.sampled_from([None, *rest]))
    rest = [n for n in rest if n != response]
    confounders = draw(st.lists(st.sampled_from(rest), max_size=len(rest), unique=True)) if rest else []

    def row():
        return [draw(NUMBERS) for _ in range(n_cols)]

    lines = [
        "" if draw(st.integers(0, 7)) == 0 else ",".join(row())
        for _ in range(draw(st.integers(0, 8)))
    ]
    cells = row()
    if hazard is not None:
        cells[draw(st.integers(0, n_cols - 1))] = hazard
    odd = [",".join(cells)]
    for kind in draw(st.lists(st.integers(0, 2), max_size=2)):
        if kind == 0:
            odd.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == 1:
            odd.append(",".join(row()[: draw(st.integers(0, n_cols - 1))]))
        else:
            odd.append(",".join(row() + [draw(st.sampled_from(HAZARDS)), draw(NUMBERS)]))
    for line in odd:
        lines.insert(draw(st.integers(0, len(lines))), line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines.insert(0, ",".join(names))
    ends = [eol] * len(lines)
    if eol != "\r" and draw(st.booleans()):
        # a lone CR ends the header or a data line of an LF or CRLF file
        ends[draw(st.sampled_from([0, draw(st.integers(0, len(lines) - 1))]))] = "\r"
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    kwargs = {
        "feature_columns": features,
        "response_column": response,
        "confounder_columns": confounders,
    }
    return text, kwargs


def _outcome(call):
    """Values, drop count or error of one load, in a comparable form."""
    try:
        arr, dropped = call()
    except ParseError as exc:
        return ("parse", exc.row, exc.column)
    except EmptyDatasetError:
        return ("empty",)
    return ("ok", arr.tobytes(), arr.shape, dropped)


def _public(path, strict, kwargs):
    data = load_csv(path, strict=strict, **kwargs)
    cols = [data.features]
    if data.confounders is not None:
        cols.append(data.confounders)
    if data.response is not None:
        cols.append(data.response[:, None])
    return np.hstack(cols), data.n_dropped


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


@pytest.mark.parametrize("hazard", [None, *HAZARDS])
@settings(max_examples=25)
@given(data=st.data())
def test_fast_path_agrees_with_rowwise_reader(csv_path, hazard, data):
    text, kwargs = data.draw(csv_files(hazard))
    csv_path.write_bytes(text.encode("utf-8"))
    used = kwargs["feature_columns"] + kwargs["confounder_columns"]
    if kwargs["response_column"]:
        used.append(kwargs["response_column"])
    header = text.splitlines()[0].split(",")
    pos = {name: header.index(name) for name in used}

    for strict in (False, True):
        ref = _outcome(lambda: _load_rowwise(csv_path, used, pos, strict))
        got = _outcome(lambda: _public(csv_path, strict, kwargs))
        assert got == ref

    usecols = [pos[name] for name in used]
    fast = _load_plain(csv_path, usecols, 1)
    if fast is not None:
        assert _outcome(lambda: (fast, 0)) == ref
    with mock.patch("subsel.ingest_sim._BLOCK_BYTES", data.draw(st.integers(1, 8))):
        blocks = _load_blocks(csv_path, usecols, len(header), 1)
    if blocks is not None:
        assert _outcome(lambda: (blocks, 0)) == ref

    if ref[0] == "parse":
        # the error names the bad row's first physical line: the lines before that one
        # load without an error, and the header followed by the lines from it on fails on line 2
        lines = io.StringIO(text, newline="").readlines()
        part = csv_path.with_name("part.csv")
        part.write_bytes("".join(lines[: ref[1] - 1]).encode("utf-8"))
        assert _outcome(lambda: _load_rowwise(part, used, pos, True))[0] != "parse"
        part.write_bytes("".join(lines[:1] + lines[ref[1] - 1 :]).encode("utf-8"))
        assert _outcome(lambda: _load_rowwise(part, used, pos, True)) == ("parse", 2, ref[2])


JSON_NUMBERS = NUMBERS.filter(lambda text: text.strip() not in ("+.5", "5.", "007"))


@settings(max_examples=100)
@given(data=st.data())
def test_the_block_reader_agrees_with_the_rowwise_reader_across_reads(csv_path, data):
    # numeric files read a few bytes at a time, LF, CRLF and lone-CR line ends mixed
    n_cols = data.draw(st.integers(1, 4))
    lines = [",".join(f"c{j}" for j in range(n_cols))] + [
        ",".join(data.draw(st.lists(JSON_NUMBERS, min_size=n_cols, max_size=n_cols)))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    csv_path.write_bytes(text.encode())
    names = lines[0].split(",")
    want = _outcome(lambda: _load_rowwise(csv_path, names, {n: j for j, n in enumerate(names)}, False))
    with mock.patch("subsel.ingest_sim._BLOCK_BYTES", data.draw(st.integers(1, 8))):
        got = _load_blocks(csv_path, list(range(n_cols)), n_cols, 1)
    if got is not None:
        assert _outcome(lambda: (got, 0)) == want
    elif "\r" not in text.replace("\r\n", "") and "-0" not in text.replace("-0.", "").replace("-0e", ""):
        raise AssertionError("the block reader refused a plain numeric file")


@settings(max_examples=200)
@given(data=st.data())
def test_the_block_reader_refuses_a_line_of_any_other_count_of_cells(csv_path, data):
    # lines of 0 to width + 1 cells, read a few bytes at a time, so that a short or long
    # line falls first or last in a block; a blank or whitespace-only line holds no cell
    width = data.draw(st.integers(1, 4))
    counts = data.draw(st.lists(st.one_of(st.just(width), st.integers(0, width + 1)), min_size=1, max_size=8))
    cell = JSON_NUMBERS.filter(lambda text: text.strip() != "-0")  # JSON reads -0 as +0
    lines = [",".join(data.draw(st.lists(cell, min_size=k, max_size=k))) if k
             else data.draw(st.sampled_from(["", " ", "\t"])) for k in counts]
    end = data.draw(st.sampled_from(["\n", ""]))
    if not end and lines[-1] == "":
        counts.pop()  # no line break, so no last line
    names = [f"c{j}" for j in range(width)]
    csv_path.write_bytes("\n".join([",".join(names), *lines]).encode() + end.encode())
    with mock.patch("subsel.ingest_sim._BLOCK_BYTES", data.draw(st.integers(1, 8))):
        got = _load_blocks(csv_path, list(range(width)), width, 1)
    if set(counts) != {width}:  # a line of another count, or no line at all
        assert got is None
    else:
        want, _ = _load_rowwise(csv_path, names, {n: j for j, n in enumerate(names)}, True)
        assert got is not None and (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def _forbid_rowwise(monkeypatch):
    def rowwise(*args):
        raise AssertionError("the row-wise reader ran on a plain file")

    monkeypatch.setattr("subsel.ingest_sim._load_rowwise", rowwise)


def test_plain_file_is_parsed_in_one_pass(tmp_path, monkeypatch):
    path = tmp_path / "plain.csv"
    path.write_text("a,b,y\r\n1.5,-2,0.25\r\n\r\n3e2,4,1\r\n")
    _forbid_rowwise(monkeypatch)
    data = load_csv(path, response_column="y")
    assert np.array_equal(data.features, [[1.5, -2.0], [300.0, 4.0]])
    assert np.array_equal(data.response, [0.25, 1.0])


def _rowwise_oracle(path, strict, response="y"):
    """_load_rowwise's outcome on `path` with the load_csv defaults: every
    column but `response` a feature."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
    used = [h for h in header if h != response] + [response]
    return _outcome(lambda: _load_rowwise(path, used, {h: header.index(h) for h in used}, strict))


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("header", ["a,b,y", '"a",b,y', '"a,1",b,y', '"a{eol}1",b,y', '"a""1",b,y'])
def test_line_endings_and_a_quoted_header(tmp_path, monkeypatch, eol, header):
    header = header.format(eol=eol)  # a quoted header cell holding this file's line break
    path = tmp_path / "data.csv"
    path.write_bytes(eol.join([header, "1.5,-2,0.25", "", "3e2,4,1", ""]).encode())
    want = _rowwise_oracle(path, True)
    assert want[0] == "ok" and want[2] == (2, 3)
    _forbid_rowwise(monkeypatch)  # one np.loadtxt pass, whatever the header and line ending
    assert _outcome(lambda: _public(path, True, {"response_column": "y"})) == want
    # a bad cell keeps its row in the drop count, and the strict error names its line
    monkeypatch.undo()
    path.write_bytes(eol.join([header, "1.5,-2,0.25", "", "3e2,x,1", "5,6,0"]).encode())
    for strict in (False, True):
        assert _outcome(lambda: _public(path, strict, {"response_column": "y"})) == _rowwise_oracle(path, strict)
    assert load_csv(path, response_column="y").n_dropped == 1
    with pytest.raises(ParseError) as err:
        load_csv(path, response_column="y", strict=True)
    assert (err.value.row, err.value.column) == (5 if eol in header else 4, "b")


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("text, line, column", [
    ('a,y\n1,0\n"2\n",1\nx,0\n', 5, "a"),  # a data cell holds a line break
    ('"a\nb",y\n1,0\nx,0\n', 4, "a\nb"),  # a header cell holds one
])
def test_a_strict_error_names_the_first_physical_line_of_its_row(tmp_path, eol, text, line, column):
    path = tmp_path / "data.csv"
    path.write_bytes(text.replace("\n", eol).encode())
    with pytest.raises(ParseError, match=f" on line {line} of ") as err:
        load_csv(path, response_column="y", strict=True)
    assert (err.value.row, err.value.column) == (line, column.replace("\n", eol))


def test_quoted_header_and_cells_take_the_one_pass(tmp_path, monkeypatch):
    # R's write.csv quotes every name and writes its row names as a quoted first column
    path = tmp_path / "data.csv"
    path.write_text('"","x\n(cm)","y"\n"1",1.5,0\n"2","-2.5e1",1\n"3"," 4 ","1"\n')
    _forbid_rowwise(monkeypatch)
    data = load_csv(path, response_column="y")
    assert data.feature_names == ("", "x\n(cm)")
    assert np.array_equal(data.features, [[1.0, 1.5], [2.0, -25.0], [3.0, 4.0]])
    assert np.array_equal(data.response, [0.0, 1.0, 1.0]) and data.n_dropped == 0


def test_a_quote_past_the_first_megabyte_is_read_in_the_one_pass(tmp_path, monkeypatch):
    # the quoted cell's two lines are one cell of one row, as csv.reader reads them
    path = tmp_path / "big.csv"
    text = "a,b\n" + "".join(f"{i}.5,{i}\n" for i in range(100_000)) + '7,"x\n8,9"\n'
    assert text.index('"') > 1 << 20
    path.write_text(text)
    _forbid_rowwise(monkeypatch)
    data = load_csv(path, feature_columns=["a"])
    assert data.n_rows == 100_001 and data.features[-1, 0] == 7.0 and data.n_dropped == 0
    assert np.array_equal(data.features[:-1, 0], np.arange(100_000) + 0.5)


def test_non_finite_cells_are_dropped(tmp_path):
    # np.loadtxt reads nan, inf and 1e400; their rows are dropped as the row-wise reader drops them
    path = tmp_path / "data.csv"
    path.write_text("a,y\n1.5,0\nnan,1\n2.5,-inf\n1e400,0\n3.5,1\n")
    data = load_csv(path, response_column="y")
    assert np.array_equal(data.features, [[1.5], [3.5]]) and data.n_dropped == 3


def test_a_gz_name_is_read_as_text(tmp_path, monkeypatch):
    # numpy decompresses a path ending in .gz; load_csv never did
    path = tmp_path / "data.csv.gz"
    _forbid_rowwise(monkeypatch)
    for text in ("a,y\n1.5,0\n2.5,1\n", 'a,y\n"1.5",0\n2.5,1\n'):  # the block reader's file, np.loadtxt's
        path.write_text(text)
        data = load_csv(path, response_column="y")
        assert np.array_equal(data.features, [[1.5], [2.5]]) and np.array_equal(data.response, [0.0, 1.0])
    packed = tmp_path / "packed.csv.gz"
    packed.write_bytes(gzip.compress(b"a,y\n1.5,0\n"))
    with pytest.raises(UnicodeDecodeError):
        load_csv(packed, response_column="y")


def test_header_only_file_warns_nothing(tmp_path, recwarn):
    path = tmp_path / "header.csv"
    path.write_text("a,y\n")
    with pytest.raises(EmptyDatasetError, match="no usable data rows"):
        load_csv(path, response_column="y")
    assert not recwarn.list


@pytest.mark.parametrize("text", [
    "a,y\n-0,1\n1.5,0\n",  # JSON reads the token -0 as +0, float() as -0.0
    "a,y\r1.5,0\n2.5,1\n",  # csv.reader ends the header at the lone CR, readline does not
    "a,y\n1,2,3,4,5\n6,7\n",  # one line of five cells, not rows of three
    "a,y\n1.5\n2.5,1,0\n",  # a short line, then a long one
    "a,y\n1.5,0\n\n2.5,1\n",  # a blank line between the data
    "a,y\ntrue,0\n1.5,1\n",  # a JSON literal float() does not read
    'a,y\n"2.5",0\n1.5,1\n',  # a quoted cell
    "a,y\n1e400,0\n1.5,1\n",  # a number that overflows
])
def test_the_block_reader_refuses_what_json_reads_otherwise(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert _load_blocks(path, [0, 1], 2, 1) is None
    for strict in (False, True):
        assert _outcome(lambda: _public(path, strict, {"response_column": "y"})) == _rowwise_oracle(path, strict)


def test_a_plain_numeric_file_takes_the_block_reader(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b'"a\r\n(cm)",b,y\r\n1.5, -2 ,0.25\r\n3e2,\t4,-0.0\r\n-0e0,1E-2,0')
    _forbid_rowwise(monkeypatch)
    monkeypatch.setattr("subsel.ingest_sim._load_plain", lambda *args: None)
    data = load_csv(path, response_column="y")
    assert data.features.tobytes() == np.array([[1.5, -2.0], [300.0, 4.0], [-0.0, 0.01]]).tobytes()
    assert data.response.tobytes() == np.array([0.25, -0.0, 0.0]).tobytes()


FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
WIDE = decimal.Context(prec=60)


@st.composite
def near_halfway(draw):
    """The midpoint of a float and the next one above it to 60 digits, or the 60-digit number either side."""
    x = abs(draw(FLOAT_BITS.filter(lambda v: v < 1.7976931348623157e308)))
    mid = WIDE.divide(WIDE.add(decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))), 2)
    mid = draw(st.sampled_from([WIDE.next_minus, WIDE.plus, WIDE.next_plus]))(mid)
    return draw(st.sampled_from(["", "-"])) + f"{mid:e}"


@st.composite
def long_mantissas(draw):
    """Up to 30 digits with a point anywhere or none, with or without an exponent out to +-340."""
    digits = str(draw(st.integers(0, 10**30 - 1)))
    k = draw(st.integers(1, len(digits)))
    text = draw(st.sampled_from(["", "-"])) + digits[:k] + ("." + digits[k:] if k < len(digits) else "")
    exponent = draw(st.one_of(st.none(), st.integers(-340, 340)))
    return text if exponent is None else f"{text}{draw(st.sampled_from('eE'))}{exponent}"


@settings(max_examples=200)
@given(st.lists(st.one_of(FLOAT_BITS.filter(math.isfinite).map(repr), near_halfway(), long_mantissas()),
                min_size=1, max_size=20))
def test_the_block_reader_reads_the_bits_float_reads(csv_path, texts):
    # orjson's float reader is correctly rounded; a new one that is not fails here
    csv_path.write_text("a\n" + "\n".join(texts) + "\n")
    got = _load_blocks(csv_path, [0], 1, 1)
    want = np.array([float(t) for t in texts])
    if "-0" in texts or not np.all(np.isfinite(want)):
        assert got is None  # JSON's integer -0 and an overflow are left to np.loadtxt
    else:
        assert got is not None and got.tobytes() == want.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(FINITE, min_size=k, max_size=k), min_size=1, max_size=20)
    ),
    st.booleans(),
)
def test_write_csv_load_csv_roundtrip(csv_path, rows, with_response):
    arr = np.asarray(rows, dtype=float)
    n_f = arr.shape[1] - 1 if with_response and arr.shape[1] > 1 else arr.shape[1]
    data = Dataset(
        feature_names=tuple(f"x{j}" for j in range(n_f)),
        features=arr[:, :n_f],
        response=arr[:, n_f] if n_f < arr.shape[1] else None,
        response_name="y" if n_f < arr.shape[1] else None,
    )
    write_csv(data, csv_path)
    # what write_csv writes takes the block reader
    assert _load_blocks(csv_path, list(range(arr.shape[1])), arr.shape[1], 1).tobytes() == arr.tobytes()
    again = load_csv(csv_path, response_column=data.response_name)
    assert again.feature_names == data.feature_names
    assert again.features.tobytes() == data.features.tobytes()
    if data.response is None:
        assert again.response is None
    else:
        assert again.response.tobytes() == data.response.tobytes()
    assert again.n_dropped == 0
