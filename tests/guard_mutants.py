"""Guard mutants: check that each listed guard in the numerical shortcuts is killed by its test.

Usage (from the root of a checkout):

    PYTHONPATH=src python tests/guard_mutants.py [NAME ...]

For each guard in GUARDS (or only the named ones) this copies `src/` to a
temporary directory, removes the guard there by an exact text substitution,
runs the guard's test against the copy, and prints whether the test failed
("killed") or passed ("SURVIVED").  A guard whose text no longer appears
exactly once in its module is reported as "STALE": update its entry along
with the code.  The exit status is 0 only when every guard is killed.

The file name does not start with `test_`, so pytest does not collect it.
Rerun it after any change to a listed guard.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Guard(NamedTuple):
    name: str
    module: str  # file under src/subsel/
    text: str  # the guard as it stands in the module, exactly once
    without: str  # the same text with the guard removed
    test: str  # the pytest node id that must fail without it
    why: str


GUARDS = [
    Guard(
        "pairwise-padding", "select_robust.py",
        "pairs = np.zeros((a.size, -(-n // 16) * 16))",
        "pairs = np.zeros((a.size, n))",
        "tests/test_robust_kernel.py::test_equal_grid_rows_score_exactly_equal",
        "the zero padding to whole blocks of 16 grid rows gives equal rows equal scores",
    ),
    Guard(
        "top-eigenpair-simple", "criteria.py",
        "len(vals) == 1 or lam - vals[-2] > thresh",
        "True",
        "tests/test_robust_kernel.py::test_top_eigenpair_is_bit_identical_to_the_tie_loop",
        "the last eigenvector column is taken as it is only when the top eigenvalue is simple",
    ),
    Guard(
        "eigh-finite", "criteria.py",
        "if not (all(map(math.isfinite, eigvals.tolist())) and math.isfinite(sum(eigvecs.ravel().tolist()))):",
        "if False:",
        "tests/test_eigh.py::test_a_non_finite_entry_raises",
        "a NaN or inf entry, or LAPACK's non-convergence, raises, not NaN eigenpairs passed on",
    ),
    Guard(
        "basis-first-failing-point", "model_core.py",
        """        for i in range(n):
            for fn, pts, length, label in blocks:
                _eval_block(fn, pts[i:i + 1], length, label)
""",
        "",
        "tests/test_basis_properties.py::test_builtin_basis_errors_match_one_row_matrices",
        "a failing basis is re-run one point at a time, so the first failing point's first block names the error",
    ),
    Guard(
        "dnu-tiny-u", "select_sequential.py",
        "always = ~(lo >= 0.0) | (uu < np.finfo(float).tiny)",
        "always = ~(lo >= 0.0)",
        "tests/test_robust_augmenter.py::test_pruned_dnu_choice_with_u_below_the_smallest_normal",
        "a candidate with |u|^2 below the smallest normal float is kept",
    ),
    Guard(
        "dnu-cut-over-kept", "select_sequential.py",
        "where=top == top)",
        "where=(top == top) & (lo[first] >= 0.0))",
        "tests/test_robust_augmenter.py::test_negative_dnu_bounds_leave_the_cut_finite",
        "the cut reads the exact powers of every candidate decomposed before it, negative bounds too",
    ),
    Guard(
        "dnu-cut-clamp", "select_sequential.py",
        "np.min(np.maximum(top, 0.0), initial=np.inf",
        "np.min(top, initial=np.inf",
        "tests/test_robust_augmenter.py::test_negative_dnu_bounds_leave_the_cut_finite",
        "an exact power that rounds below 0 reads 0 in the cut, as in every final score",
    ),
    Guard(
        "dnu-cut-factor", "select_sequential.py",
        "cut = np.min(np.maximum(top, 0.0), initial=np.inf, where=top == top) * (1.0 + _BOUND_MARGIN) ** p",
        "cut = np.min(np.maximum(top, 0.0), initial=np.inf, where=top == top)",
        "tests/test_robust_augmenter.py::test_pruned_dnu_cut_covers_the_rounding_of_t2",
        "the cut is widened by (1 + _BOUND_MARGIN)^p for the rounding of the p-th root",
    ),
    Guard(
        "warm-refit-raises", "select_sequential.py",
        """            try:
                warm = fit_logistic(held, theta0=theta0)
            except (SingularMatrixError, SeparationError):
                warm = None
""",
        "            warm = fit_logistic(held, theta0=theta0)\n",
        "tests/test_select_sequential.py::test_a_warm_refit_that_raises_keeps_the_cold_fit",
        "a warm logistic refit that raises falls back to the cold fit",
    ),
    Guard(
        "csv-block-bytes", "ingest_sim.py",
        "seps = block.translate(None, _CELL_BYTES)",
        'seps = re.sub(rb"[^,\\n]", b"", block)',
        "tests/test_ingest_properties.py::test_the_block_reader_refuses_what_json_reads_otherwise",
        "with the numbers and blanks taken out a block holds only commas and line breaks:"
        " no JSON literal or string",
    ),
    Guard(
        "csv-block-separators", "ingest_sim.py",
        'if seps != (b"," * (width - 1) + b"\\n") * (len(seps) // width):',
        'if seps.translate(None, b",\\n"):',
        "tests/test_ingest_properties.py::test_the_block_reader_refuses_what_json_reads_otherwise",
        "the separators of a block are width - 1 commas and a line break per line:"
        " every line holds exactly the header's count of cells",
    ),
    Guard(
        "csv-block-blank-line", "ingest_sim.py",
        "if not values or (",
        "if (",
        "tests/test_ingest_properties.py::test_the_block_reader_refuses_a_line_of_any_other_count_of_cells",
        "a block of one blank line, which parses as [] when the header holds one name, is refused",
    ),
    Guard(
        "csv-block-header-cr", "ingest_sim.py",
        """            if b"\\r" in fh.readline().replace(b"\\r\\n", b""):
                return None
""",
        "            fh.readline()\n",
        "tests/test_ingest_properties.py::test_the_block_reader_refuses_what_json_reads_otherwise",
        "a header line holding a lone CR is refused: csv.reader ends a line there and readline does not",
    ),
    Guard(
        "csv-block-negative-zero", "ingest_sim.py",
        "not arr.all() and _NEG_ZERO.search(block)",
        "False",
        "tests/test_ingest_properties.py::test_the_block_reader_refuses_what_json_reads_otherwise",
        "a block holding a zero and the token -0, which JSON reads as +0, is refused",
    ),
    Guard(
        "csv-header-lines", "ingest_sim.py",
        "skiprows=header_lines",
        "skiprows=1",
        "tests/test_ingest_properties.py::test_quoted_header_and_cells_take_the_one_pass",
        "the one pass skips every line of a header whose quoted cell holds a line break",
    ),
    Guard(
        "csv-quotechar", "ingest_sim.py",
        "quotechar='\"', ",
        "",
        "tests/test_ingest_properties.py::test_a_quote_past_the_first_megabyte_is_read_in_the_one_pass",
        "the one pass reads a quoted cell's comma and line break as csv.reader does",
    ),
    Guard(
        "csv-finite", "ingest_sim.py",
        "arr.shape[0] == 0 or not np.all(np.isfinite(arr))",
        "arr.shape[0] == 0",
        "tests/test_ingest_properties.py::test_non_finite_cells_are_dropped",
        "a file with a non-finite used cell goes to the row-wise reader, which drops its row",
    ),
    Guard(
        "csv-empty", "ingest_sim.py",
        "arr.shape[0] == 0 or not np.all(np.isfinite(arr))",
        "not np.all(np.isfinite(arr))",
        "tests/test_ingest_properties.py::test_header_only_file_warns_nothing",
        "a file with no data rows goes to the row-wise reader, whose error names the file",
    ),
    Guard(
        "csv-physical-line", "ingest_sim.py",
        "r_i, line = line + 1, reader.line_num",
        "r_i, line = line + 1, line + 1",
        "tests/test_ingest_properties.py::test_a_strict_error_names_the_first_physical_line_of_its_row",
        "a bad row is numbered by its first physical line, not by its record count",
    ),
    Guard(
        "json-array-float64", "ingest_sim.py",
        "obj.dtype == np.float64 and ",
        "",
        "tests/test_json_writer.py::test_write_json_array_edge_cases",
        "only a float64 array's bits are read as float64 bit patterns; every other dtype writes its tolist()",
    ),
    Guard(
        "json-array-ndim", "ingest_sim.py",
        " and obj.ndim in (1, 2)",
        "",
        "tests/test_json_writer.py::test_write_json_array_edge_cases",
        "a float array of 0 or 3 dimensions writes its tolist()",
    ),
    Guard(
        "json-array-nonempty", "ingest_sim.py",
        " and obj.size:",
        ":",
        "tests/test_json_writer.py::test_write_json_array_edge_cases",
        "a float array with a length-0 axis writes its tolist(), `[]` or a list of empty rows",
    ),
    Guard(
        "json-array-not-scalar", "ingest_sim.py",
        "(dict, list, tuple, np.ndarray)",
        "(dict, list, tuple)",
        "tests/test_json_writer.py::test_write_json_array_edge_cases",
        "a list holding an array skips the C encoder, which refuses arrays",
    ),
    Guard(
        "iboss-cut-fallback", "select_iboss.py",
        """        if cand.size < m_needed:
            cut = np.partition(col, m_needed - 1)[m_needed - 1]
            cand = np.flatnonzero(col <= cut)
""",
        "",
        "tests/test_select_iboss.py::test_exact_cut_when_the_guess_falls_short",
        "when fewer rows than a side needs reach the sampled cut guess, the exact cut replaces it",
    ),
]


def run_mutant(guard: Guard, work: Path) -> str:
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "subsel" / guard.module
    text = path.read_text()
    if text.count(guard.text) != 1:
        return "STALE"
    path.write_text(text.replace(guard.text, guard.without))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", guard.test],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR (pytest exit {proc.returncode}): {proc.stdout.strip().splitlines()[-1:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {g.name for g in GUARDS}
    if unknown:
        print(f"unknown guards: {sorted(unknown)}; known: {[g.name for g in GUARDS]}", file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory(prefix="guard_mutants_") as tmp:
        for guard in GUARDS:
            if names and guard.name not in names:
                continue
            result = run_mutant(guard, Path(tmp))
            results.append(result)
            print(f"{guard.name:26s} {result:9s} {guard.test}  ({guard.why})", flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
