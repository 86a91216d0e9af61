"""Plain-text model files.

A trained model is stored as one inspectable text file: the version line
``# gmkit model v3``, then bracketed sections: the config echo as key=value
lines, the projection as CSV floats (one feature dimension per row), codes
and representations as integer CSV (one code per row), the assignment as a
single integer row, and the objective trace as CSV under a header line.
Floats use shortest round-trip formatting so a saved model reloads
bit-identically.  Any other first line is a :class:`ParseError` quoting it.

The numeric sections are written and read by the CSV code of
:mod:`gmkit.data`, so a bad token is a :class:`ParseError` naming its
section, its row within the section and its column, and an empty section
is one naming the section.  A ``[config]`` value that does not cast to its
field's type, or a missing or unknown ``[config]`` key, is a
:class:`ParseError` naming the key, and a non-finite ``[objective_trace]``
value one naming its row.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from .core import _MODEL_FIELDS, CodeMatrix, ModelConfig, ProjectionMatrix, _read_fields
from .data import _csv_lines, _data_lines, _parse_rows
from .errors import GmkitError, ParseError
from .learning import AssignmentMatrix, Model, ObjectiveBreakdown

_HEADER = "# gmkit model v3"

_TRACE_HEADER = "embedding_cost,within_trace,total"


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
        return _parse_rows(lambda: enumerate(sections[name][first:], start=first + 1), kind, f"{path}: [{name}]")

    projection = ProjectionMatrix(parse_rows("projection", float))
    codes = CodeMatrix(parse_rows("codes", int).T, config.sparsity)
    reps = CodeMatrix(parse_rows("representations", int).T, config.sparsity)
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
