"""Plain-text model files.

A trained model is stored as one inspectable text file: the version line
``# gmkit model v3``, then bracketed sections: the config echo as key=value
lines, the projection as CSV floats (one feature dimension per row), codes
and representations as integer CSV (one code per row), the assignment as a
single integer row, and the objective trace as CSV under a header line.
Floats use shortest round-trip formatting so a saved model reloads
bit-identically.  Any other first line is a :class:`ParseError` quoting it.

This module holds the package's one numeric-CSV reader.  The file is read
in blocks of whole lines; each numeric section goes to ``np.loadtxt``, and
whatever that refuses goes to a token scan, so a bad token is a
:class:`ParseError` naming its section, its row within the section and its
column, a ragged row one naming the section and row, and an empty section
one naming the section.  A ``[config]`` value that does not cast to its
field's type, or a missing or unknown ``[config]`` key, is a
:class:`ParseError` naming the key, as is a ``code_length``, ``sparsity``
or ``num_groups`` that the arrays contradict (it also names the section),
and a non-finite ``[objective_trace]`` value is one naming its row.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Iterator

import numpy as np

from .core import _MODEL_FIELDS, CodeMatrix, ModelConfig, ProjectionMatrix, _read_fields
from .errors import GmkitError, ParseError
from .learning import AssignmentMatrix, Model, ObjectiveBreakdown

_HEADER = "# gmkit model v3"

_TRACE_HEADER = "embedding_cost,within_trace,total"

_LINES_HINT = 1 << 16  # bytes of whole lines per read when parsing a file


def _csv_lines(matrix: np.ndarray) -> Iterator[str]:
    """One newline-ended CSV line per row, shortest round-trip floats, made
    as the file is written."""
    return (",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each data row: lines that are not blank and do
    not start with ``#``, cut by ``str.splitlines``.  Reads the file in
    blocks of whole lines; a byte outside ASCII is a ParseError naming its
    line."""
    n = 0
    with open(path, "rb") as fh:
        while block := b"".join(fh.readlines(_LINES_HINT)):
            try:
                lines = block.decode("ascii").splitlines()
            except UnicodeDecodeError as err:
                # the line the byte ends: the lines before it, plus the one it is on
                line = n + len((block[: err.start].decode("ascii") + "x").splitlines())
                raise ParseError(f"{path}: row {line}: byte {block[err.start]:#04x} is not ASCII") from None
            for n, line in enumerate(lines, start=n + 1):
                text = line.lstrip()
                if text and text[0] != "#":
                    yield n, line


def _parse_rows(numbered: list[tuple[int, str]], kind: type, prefix: str) -> np.ndarray:
    """The comma-separated rows of ``numbered``, (line number, line) pairs,
    as a 2-D float64 (``kind`` float) or int64 (``kind`` int) matrix.

    np.loadtxt reads a field as float() and int() do, except that it strips
    ``"\\x1f"`` as whitespace and refuses some fields they accept (``"1_0"``).
    So rows with a line holding ``"\\x1f"``, and every input np.loadtxt
    refuses, go to a token scan, which names the first fault in an error
    text that starts with ``prefix``: a bad token by row and column, a
    ragged row, or no rows at all.
    """
    dtype = np.float64 if kind is float else np.int64
    lines = [line for _, line in numbered]
    if lines and not any("\x1f" in line for line in lines):  # np.loadtxt warns on no lines
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    cast = float if kind is float else np.int64  # np.int64 is int() that refuses values past int64
    rows: list[list] = []
    for lineno, line in numbered:
        values = []
        for colno, token in enumerate(line.split(","), start=1):
            try:
                values.append(cast(token))
            except (ValueError, OverflowError):
                raise ParseError(f"{prefix} row {lineno}, column {colno}: bad number {token!r}") from None
        if rows and len(values) != len(rows[0]):
            raise ParseError(f"{prefix} row {lineno} has {len(values)} columns, expected {len(rows[0])}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{prefix} no data rows")
    return np.array(rows, dtype=dtype)


def save_model(path: str, model: Model) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{_HEADER}\n[config]\n")
        for name, kind in _MODEL_FIELDS.items():
            value = getattr(model.config, name)
            fh.write(f"{name}={value!r}\n" if kind is float else f"{name}={value}\n")
        for name, matrix in (
            ("projection", model.projection.data),
            ("codes", model.codes.codes.T),
            ("representations", model.representations.codes.T),
            ("assignments", model.assignments.group_of[None]),
        ):
            fh.write(f"[{name}]\n")
            fh.writelines(_csv_lines(matrix))
        fh.write(f"[objective_trace]\n{_TRACE_HEADER}\n")
        fh.writelines(_csv_lines(np.array([astuple(ob) for ob in model.objective_trace])))


def _split_sections(path: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for _, line in _data_lines(path):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise ParseError(f"{path}: duplicate section [{current}]")
            sections[current] = []
        elif current is None:
            raise ParseError(f"{path}: content before the first section")
        else:
            sections[current].append(line)
    return sections


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\r\n").decode("ascii", "backslashreplace")
    if first != _HEADER:
        raise ParseError(f"{path}: first line is {first!r}, expected {_HEADER!r}")
    sections = _split_sections(path)
    for required in ("config", "projection", "codes", "representations", "assignments", "objective_trace"):
        if required not in sections:
            raise ParseError(f"{path}: missing section [{required}]")

    raw_config = {}
    for line in sections["config"]:
        if "=" not in line:
            raise ParseError(f"{path}: bad config line {line!r}")
        key, value = line.split("=", 1)
        raw_config[key.strip()] = value.strip()
    config = _read_fields(ModelConfig, raw_config, ParseError, f"{path}: [config] ", strict=True)

    def parse_rows(name: str, kind: type, first: int = 0) -> np.ndarray:
        """The rows of a section from its line ``first`` on, numbered within the section."""
        return _parse_rows(list(enumerate(sections[name][first:], start=first + 1)), kind, f"{path}: [{name}]")

    def contradicted(key: str, section: str, held: str) -> ParseError:
        return ParseError(f"{path}: [config] {key}={getattr(config, key)} contradicts [{section}], {held}")

    projection = ProjectionMatrix(parse_rows("projection", float))
    if config.code_length != projection.code_length:
        raise contradicted("code_length", "projection", f"which has {projection.code_length} columns")
    code_rows, rep_rows = parse_rows("codes", int), parse_rows("representations", int)
    if config.num_groups != len(rep_rows):
        raise contradicted("num_groups", "representations", f"which has {len(rep_rows)} rows")
    for name, rows in (("codes", code_rows), ("representations", rep_rows)):
        nonzeros = np.count_nonzero(rows, axis=1)
        off = np.flatnonzero(nonzeros != config.sparsity)
        if off.size:
            raise contradicted("sparsity", name, f"whose row {off[0] + 1} has {nonzeros[off[0]]} nonzeros")
    codes = CodeMatrix(code_rows.T, config.sparsity)
    reps = CodeMatrix(rep_rows.T, config.sparsity)
    assignments_rows = parse_rows("assignments", int)
    if len(assignments_rows) != 1:
        raise ParseError(f"{path}: [assignments] must be a single row")
    assignments = AssignmentMatrix(assignments_rows[0], config.num_groups)

    trace_lines = sections["objective_trace"]
    if not trace_lines or trace_lines[0] != _TRACE_HEADER:
        raise ParseError(f"{path}: [objective_trace] must start with {_TRACE_HEADER!r}")
    trace = []
    for lineno, row in enumerate(parse_rows("objective_trace", float, 1).tolist(), start=2):
        if len(row) != 3:
            raise ParseError(f"{path}: [objective_trace] row {lineno} needs 3 columns")
        try:
            entry = ObjectiveBreakdown(*row)
        except GmkitError as err:  # a non-finite value
            raise ParseError(f"{path}: [objective_trace] row {lineno}: {err}") from None
        recomputed = ObjectiveBreakdown.from_parts(*row[:2], config.within_weight).total
        if abs(recomputed - entry.total) > 1e-9 * max(1.0, abs(entry.total)):
            raise ParseError(f"{path}: [objective_trace] row {lineno} total is inconsistent with its parts")
        trace.append(entry)

    return Model(projection, codes, reps, assignments, config, tuple(trace))
