"""Dataset ingestion, standardization, grid construction, and simulators.

All simulators draw from :class:`subsel.rng.CounterRng` in a documented
block order, so a seed pins every generated dataset byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyDatasetError,
    InvalidInputError,
    ParseError,
)
from .estimation import sigmoid
from .model_core import CandidateGrid, as_columns
from .rng import CounterRng


@dataclass(frozen=True)
class Dataset:
    """Columnar numeric data: features, optional response and confounders."""

    feature_names: tuple[str, ...]
    features: np.ndarray
    response: np.ndarray | None = None
    response_name: str | None = None
    confounders: np.ndarray | None = None
    confounder_names: tuple[str, ...] = ()
    n_dropped: int = 0

    def __post_init__(self):
        feats = as_columns(self.features)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise EmptyDatasetError("dataset has no rows")
        if feats.shape[1] == 0:
            raise InvalidInputError("dataset has no feature columns")
        if len(self.feature_names) != feats.shape[1]:
            raise InvalidInputError("one name per feature column is required")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features contain non-finite values")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.response is not None:
            resp = np.asarray(self.response, dtype=float).ravel()
            if resp.size != feats.shape[0]:
                raise InvalidInputError("response length does not match the row count")
            if not np.all(np.isfinite(resp)):
                raise InvalidInputError("response contains non-finite values")
            resp.setflags(write=False)
            object.__setattr__(self, "response", resp)
        if self.confounders is not None:
            conf = as_columns(self.confounders)
            if conf.shape[0] != feats.shape[0]:
                raise InvalidInputError("confounder rows do not match the row count")
            if len(self.confounder_names) != conf.shape[1]:
                raise InvalidInputError("one name per confounder column is required")
            if not np.all(np.isfinite(conf)):
                raise InvalidInputError("confounders contain non-finite values")
            conf.setflags(write=False)
            object.__setattr__(self, "confounders", conf)
        elif self.confounder_names:
            raise InvalidInputError("confounder names without confounder columns")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


# ---------------------------------------------------------------------------
# CSV in / out


def load_csv(
    path,
    response_column: str | None = None,
    feature_columns: list[str] | None = None,
    confounder_columns: list[str] | None = None,
    strict: bool = False,
) -> Dataset:
    """Read a headered numeric CSV into a Dataset.

    Cells in the used columns must parse as floats.  By default a row with
    an unparseable or empty cell is dropped and counted in n_dropped;
    strict=True raises ParseError naming the first bad row, by the line it
    starts on, and column.
    Feature columns default to every column not claimed as response or
    confounder.  Raises ConfigError for a missing column or one used twice
    and EmptyDatasetError when no usable rows remain.

    Three readers give the same values.  A file whose data lines hold only
    plain JSON numbers, commas and blanks, and exactly the header's count of
    cells, is read by _load_blocks, a block of lines per JSON array.  Any
    other file whose used cells are all finite numbers, quoted or not, is
    parsed in one np.loadtxt pass; any other file is read again row by row,
    which alone decides what is dropped or raised.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        header_lines = reader.line_num  # a quoted header cell may hold a newline
        header = [h.strip() for h in header]

    confounder_columns = list(confounder_columns or [])
    if feature_columns is None:
        claimed = {*confounder_columns, response_column}
        feature_columns = [h for h in header if h not in claimed]
    used = list(feature_columns) + confounder_columns + (
        [response_column] if response_column else []
    )
    for i, name in enumerate(used):
        if name not in header:
            raise ConfigError(f"column {name!r} not found in {path}")
        if name in used[:i]:
            raise ConfigError(f"column {name!r} is used twice among the features, confounders and response")
    pos = {name: header.index(name) for name in used}

    arr, dropped = None, 0
    if used:
        usecols = [pos[name] for name in used]
        arr = _load_blocks(path, usecols, len(header), header_lines)
        if arr is None:
            arr = _load_plain(path, usecols, header_lines)
    if arr is None:
        arr, dropped = _load_rowwise(path, used, pos, strict)
    n_f = len(feature_columns)
    n_c = len(confounder_columns)
    feats = arr[:, :n_f]
    confs = arr[:, n_f : n_f + n_c] if n_c else None
    resp = arr[:, n_f + n_c] if response_column else None
    return Dataset(
        feature_names=tuple(feature_columns),
        features=feats,
        response=resp,
        response_name=response_column,
        confounders=confs,
        confounder_names=tuple(confounder_columns),
        n_dropped=dropped,
    )


# The bytes a cell of _load_blocks may hold: a JSON number and blanks
_CELL_BYTES = b"0123456789.eE+- \t"
# JSON reads the integer token -0 as 0, where float() reads -0.0
_NEG_ZERO = re.compile(rb"-0(?![0-9.eE])")
# Blocks of 64 KB to 1 MB parse at one speed; a smaller block holds less memory while it is parsed
_BLOCK_BYTES = 1 << 17


def _load_blocks(path, usecols: list[int], width: int, header_lines: int) -> np.ndarray | None:
    """The used columns of the rows after the first `header_lines` lines, read a block
    of whole lines (about _BLOCK_BYTES) at a time as one JSON array, or None unless
    every data line holds `width` JSON numbers, all finite, and there is at least one row.

    With its numbers and blanks taken out, a block must be `width` - 1 commas and a line
    break per line: no other byte, and no line of another count of cells.  An empty cell,
    a blank line or a number that overflows then fails to parse.  A JSON number reads as
    float() reads it: orjson's float reader is correctly rounded.  JSON reads the integer
    token -0 as +0, so a block that holds a zero and that token is refused.  Any refusal
    leaves the file to _load_plain.
    """
    import orjson  # imported here: its import takes milliseconds every command would pay

    blocks = []
    with open(path, "rb") as fh:
        for _ in range(header_lines):
            # csv.reader ends a line at a lone CR too, which readline does not
            if b"\r" in fh.readline().replace(b"\r\n", b""):
                return None
        tail = b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            block = tail + chunk
            cut = block.rfind(b"\n") + 1 if chunk else len(block)
            block, tail = block[:cut], block[cut:]
            if b"\r" in block:  # a search for CRLF costs ten times one for CR
                block = block.replace(b"\r\n", b"\n")
            if block:
                if not block.endswith(b"\n"):  # the last line of a file without a final line break
                    block += b"\n"
                seps = block.translate(None, _CELL_BYTES)
                if seps != (b"," * (width - 1) + b"\n") * (len(seps) // width):
                    return None
                try:
                    values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
                except orjson.JSONDecodeError:
                    return None
                arr = np.fromiter(values, float, len(values))
                # a block of one blank line parses as [] when `width` is 1; arr.all() fails only on a zero
                if not values or (not arr.all() and _NEG_ZERO.search(block)):
                    return None
                blocks.append(arr.reshape(-1, width)[:, usecols])
            if not chunk:
                return np.concatenate(blocks) if blocks else None


# Suffixes numpy decompresses when it opens a path; load_csv reads such a file as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_plain(path, usecols: list[int], header_lines: int) -> np.ndarray | None:
    """The used columns of the rows after the first `header_lines` lines in
    one np.loadtxt pass, or None unless every used cell is a finite number
    and there is at least one row.

    load_csv runs it on a file _load_blocks refused: quoted cells, text in
    an unused column, numbers JSON does not write ('+.5', '5.', '007'),
    blank lines between the data, lone CRs.  np.loadtxt reads a quoted cell
    as csv.reader does, a comma, newline or doubled quote inside it
    included.  It reads a path in C chunks; a name numpy would decompress
    is handed over as an open text file instead, line by line.
    """
    name = os.fspath(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if isinstance(name, str) and os.path.splitext(name)[1] not in _COMPRESSED:
            # absolute, so that numpy never takes the name for a URL
            source = os.path.join(os.getcwd(), name)
        else:
            source = fh
        try:
            with warnings.catch_warnings():
                # a file with no data rows warns; the row-wise reader reports it
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(source, delimiter=",", skiprows=header_lines, usecols=usecols,
                                 comments=None, quotechar='"', dtype=float, ndmin=2, encoding="utf-8")
        except ValueError:
            return None
    if arr.shape[0] == 0 or not np.all(np.isfinite(arr)):
        return None
    return arr


def _load_rowwise(path, used: list[str], pos: dict, strict: bool) -> tuple[np.ndarray, int]:
    """Parse the data rows one at a time: the rows kept and the count dropped.
    A row is numbered by its first physical line; a quoted cell may hold line breaks."""
    keep: list[list[float]] = []
    dropped = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        line = reader.line_num  # the last physical line read
        for row in reader:
            r_i, line = line + 1, reader.line_num
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue  # blank line (csv.reader yields [] for one)
            vals = []
            bad: str | None = None
            for name in used:
                j = pos[name]
                cell = row[j].strip() if j < len(row) else ""
                try:
                    v = float(cell)
                    if not math.isfinite(v):
                        raise ValueError
                except ValueError:
                    bad = name
                    break
                vals.append(v)
            if bad is not None:
                if strict:
                    raise ParseError(
                        f"cannot parse column {bad!r} on line {r_i} of {path}",
                        row=r_i,
                        column=bad,
                    )
                dropped += 1
                continue
            keep.append(vals)

    if not keep:
        raise EmptyDatasetError(f"no usable data rows in {path}")
    return np.asarray(keep, dtype=float), dropped


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_rows(path, header, rows) -> None:
    """Write the CSV artifact: the header line, then one line per row as it is drawn from `rows`.
    A float cell (np.float64 too) is written as repr(float(v)), which reads back exactly, any
    other cell with str; "" leaves a cell empty."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset back to CSV: features, confounders, then the response."""
    names = list(data.feature_names) + list(data.confounder_names)
    cols = [data.features[:, j] for j in range(data.n_features)]
    if data.confounders is not None:
        cols += [data.confounders[:, j] for j in range(data.confounders.shape[1])]
    if data.response is not None:
        names.append(data.response_name or "y")
        cols.append(data.response)
    write_rows(path, names, zip(*cols))


def _array_list(obj):
    """json.dumps's `default`: a numpy array as its list; anything else raises json's TypeError."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return json.JSONEncoder().default(obj)


def _indented(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) with lines after the first indented by `pad` more, a
    numpy array written as its list.  A float64 array of 1 or 2 dimensions, none of length 0, formats
    each distinct bit pattern once (np.unique over the bits, so 0.0 and -0.0 differ).  A flat scalar
    list takes one C-encoder call (json indents in Python): its separator carries newline and indent."""
    inner, deeper = pad + "  ", pad + "    "
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            bits, inverse = np.unique(obj.ravel().view(np.int64), return_inverse=True)
            texts = json.dumps(bits.view(np.float64).tolist(), separators=("\n", ": "))[1:-1].split("\n")
            texts = np.array(texts, dtype=object)[inverse]
            if obj.ndim == 1:
                return f"[\n{inner}" + (",\n" + inner).join(texts.tolist()) + f"\n{pad}]"
            sep, rows = ",\n" + deeper, f"\n{inner}],\n{inner}[\n{deeper}"
            lines = texts.tolist() if obj.shape[1] == 1 else map(sep.join, texts.reshape(obj.shape).tolist())
            return f"[\n{inner}[\n{deeper}{rows.join(lines)}\n{inner}]\n{pad}]"
        obj = obj.tolist()
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if obj and all(isinstance(k, str) for k in obj):
            body = (",\n" + inner).join(f"{json.dumps(k)}: {_indented(obj[k], inner)}" for k in sorted(obj))
            return f"{{\n{inner}{body}\n{pad}}}"
    elif obj and not any(issubclass(t, (dict, list, tuple, np.ndarray)) for t in set(map(type, obj))):
        body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(obj, indent=2, sort_keys=True, default=_array_list).replace("\n", "\n" + pad)


def json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) and a newline: every JSON artifact."""
    return _indented(obj, "") + "\n"


def write_json(obj, path) -> None:
    """Write json_text(obj) in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))


# ---------------------------------------------------------------------------
# standardization


def standardize(data: Dataset) -> Dataset:
    """Center and scale every feature column to mean 0, sd 1 (ddof = 1).

    Constant columns raise DegenerateColumnError naming the column.
    Response and confounders pass through unchanged.
    """
    means = data.features.mean(axis=0)
    sds = data.features.std(axis=0, ddof=1) if data.n_rows > 1 else np.zeros(data.n_features)
    for j, s in enumerate(sds):
        if not s > 0.0:
            raise DegenerateColumnError(
                f"feature column {data.feature_names[j]!r} is constant; cannot standardize"
            )
    return replace(data, features=(data.features - means) / sds)


# ---------------------------------------------------------------------------
# grids


def build_grid(axes: dict, z_axes: list[str] | None = None) -> CandidateGrid:
    """CandidateGrid from {name: levels}; z_axes names must come last."""
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("axes must be a non-empty mapping name -> levels")
    names = list(axes.keys())
    z_axes = list(z_axes or [])
    for z in z_axes:
        if z not in names:
            raise ConfigError(f"z axis {z!r} is not an axis name")
    if z_axes and names[-len(z_axes) :] != z_axes:
        raise ConfigError("z axes must be the trailing axes of the grid")
    return CandidateGrid.from_axes(axes, z_dim=len(z_axes))


def default_analogue_grid() -> CandidateGrid:
    """Integer grid over four standardized score-like covariates.

    Axes: creditscore -4..4, houseAge -2..2, yearsemploy -2..4, ccDebt -2..4
    (2205 points), the working grid for the loan-default analogue simulator.
    """
    axes = {
        "creditscore": list(range(-4, 5)),
        "houseAge": list(range(-2, 3)),
        "yearsemploy": list(range(-2, 5)),
        "ccDebt": list(range(-2, 5)),
    }
    return CandidateGrid.from_axes({k: [float(v) for v in vs] for k, vs in axes.items()})


def grid_from_data(data: Dataset, n_levels: int = 200) -> CandidateGrid:
    """Equispaced grid of n_levels points spanning each observed column's
    [min, max]; confounder axes are appended last.
    """
    if n_levels < 2:
        raise ConfigError("n_levels must be at least 2")
    axes: dict[str, np.ndarray] = {}
    for j, name in enumerate(data.feature_names):
        col = data.features[:, j]
        axes[name] = np.linspace(col.min(), col.max(), n_levels)
    z_names: list[str] = []
    if data.confounders is not None:
        for j, name in enumerate(data.confounder_names):
            col = data.confounders[:, j]
            axes[name] = np.linspace(col.min(), col.max(), n_levels)
            z_names.append(name)
    return build_grid(axes, z_axes=z_names)


# ---------------------------------------------------------------------------
# simulators


def curve_mean(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mean surface -x/2 - 5/3 + 0.35 sin(x^2) + z/9."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return -x / 2.0 - 5.0 / 3.0 + 0.35 * np.sin(x * x) + z / 9.0


def _confounded_curve(rng: CounterRng, x: np.ndarray, mean) -> Dataset:
    """The x/z/y Dataset of the curve examples: draws the z block, then the noise block,
    and sets y = mean(x, z) + N(0, 1)."""
    z = rng.normal(x.size)
    y = mean(x, z) + rng.normal(x.size)
    return Dataset(feature_names=("x",), features=x[:, None], response=y, response_name="y",
                   confounders=z[:, None], confounder_names=("z",))


def simulate_example2(n: int = 105, seed: int = 0) -> Dataset:
    """Noisy nonlinear curve with a weak additive confounder.

    x ~ N(2, 1), z ~ N(0, 1), y = curve_mean(x, z) + N(0, 1).
    Draw order: the x block, then the z block, then the noise block.
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    rng = CounterRng(seed)
    return _confounded_curve(rng, rng.normal(n, mean=2.0, sd=1.0), curve_mean)


def wave_mean(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mean surface x + cos(x) + z/9."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return x + np.cos(x) + z / 9.0


def simulate_example3(seed: int = 0, n: int = 105) -> Dataset:
    """Integer-located wave data with a weak additive confounder.

    x is a without-replacement sample of n integers from [-100, 100],
    z ~ N(0, 1), y = wave_mean(x, z) + N(0, 1).  Draw order: the
    integer sample, then the z block, then the noise block.
    """
    if n < 1 or n > 201:
        raise InvalidInputError("n must lie in [1, 201]")
    rng = CounterRng(seed)
    picks = rng.sample_indices(201, n)
    return _confounded_curve(rng, (-100 + picks).astype(float), wave_mean)


_DEFAULT_SLOPES = (1.0, -0.5, 0.3, 2.0)
_DEFAULT_POSITIVE_RATE = 1031.0 / 1_000_000.0


def solve_intercept(slopes, target_rate: float) -> float:
    """Intercept t0 such that E[sigmoid(t0 + b'X)] = target_rate, X std normal.

    b'X ~ N(0, ||b||^2), so the expectation is a 1-D, 80-node Gauss-Hermite
    integral; the root is bracketed and solved with Brent's method.
    """
    from scipy import optimize  # imported here: scipy costs most of the CLI's start-up

    if not 0.0 < target_rate < 1.0:
        raise InvalidInputError("target_rate must lie strictly inside (0, 1)")
    norm = float(np.linalg.norm(np.asarray(slopes, dtype=float)))
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()

    def rate(t0: float) -> float:
        return float(np.dot(weights, sigmoid(t0 + norm * nodes)))

    lo, hi = -60.0, 60.0
    return float(optimize.brentq(lambda t: rate(t) - target_rate, lo, hi, xtol=1e-12))


def default_analogue_theta() -> np.ndarray:
    """Generator coefficients (intercept, slopes) of the default simulator."""
    t0 = solve_intercept(_DEFAULT_SLOPES, _DEFAULT_POSITIVE_RATE)
    return np.asarray([t0, *_DEFAULT_SLOPES], dtype=float)


def simulate_mortgage_analogue(n: int, theta: np.ndarray | None = None, seed: int = 0) -> Dataset:
    """Rare-event binary outcomes on four standard-normal covariates.

    A stand-in generator for a loan-default-style dataset (the original data
    source is unavailable, so this analogue makes no claim of matching it).
    theta = (intercept, b1..b4); when omitted, slopes are (1, -0.5, 0.3, 2)
    and the intercept is solved so the marginal positive rate is 1031 per
    million.  Draw order: covariate blocks x1..x4 (n draws each), then one
    uniform block for the outcomes.  P(y=1 | x) = sigmoid(theta0 + b'x).
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    if theta is None:
        theta = default_analogue_theta()
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != 5:
        raise InvalidInputError("theta must have 5 entries (intercept + 4 slopes)")
    rng = CounterRng(seed)
    cols = [rng.normal(n) for _ in range(4)]
    x = np.column_stack(cols)
    u = rng.uniform(n)
    pi = sigmoid(theta[0] + x @ theta[1:])
    y = (u < pi).astype(float)
    return Dataset(
        feature_names=("creditscore", "houseAge", "yearsemploy", "ccDebt"),
        features=x,
        response=y,
        response_name="default",
    )
