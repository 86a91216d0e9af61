"""Plain-text model files.

A trained model is stored as one inspectable text file with bracketed
sections: the config echo as key=value lines, the projection as CSV floats
(one feature dimension per row), codes and representations as integer CSV
(one code per row), the assignment as a single integer row, and the
objective trace as CSV.  Floats use shortest round-trip formatting so a
saved model reloads bit-identically.
"""

from __future__ import annotations

import numpy as np

from .core import CodeMatrix, ModelConfig, ProjectionMatrix
from .errors import ParseError
from .learning import AssignmentMatrix, Model, ObjectiveBreakdown

_HEADER = "# gmkit model v1"

_CONFIG_FIELDS = (
    ("code_length", int),
    ("sparsity", int),
    ("num_groups", int),
    ("within_weight", float),
    ("between_weight", float),
    ("max_outer_iters", int),
    ("convergence_tol", float),
    ("seed", int),
)

_TRACE_HEADER = "embedding_cost,within_trace,between_trace,total"


def save_model(path: str, model: Model) -> None:
    lines = [_HEADER, "[config]"]
    for name, kind in _CONFIG_FIELDS:
        value = getattr(model.config, name)
        lines.append(f"{name}={value!r}" if kind is float else f"{name}={value}")
    lines.append("[projection]")
    lines.extend(",".join(map(repr, row)) for row in model.projection.data.tolist())
    lines.append("[codes]")
    lines.extend(",".join(map(str, col)) for col in model.codes.codes.T.tolist())
    lines.append("[representations]")
    lines.extend(",".join(map(str, col)) for col in model.representations.codes.T.tolist())
    lines.append("[assignments]")
    lines.append(",".join(map(str, model.assignments.group_of.tolist())))
    lines.append("[objective_trace]")
    lines.append(_TRACE_HEADER)
    for ob in model.objective_trace:
        lines.append(f"{ob.embedding_cost!r},{ob.within_trace!r},{ob.between_trace!r},{ob.total!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_sections(text: str, path: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
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


def _scan_rows(path: str, name: str, lines: list[str], cast) -> list[list]:
    """Token-by-token parse of a section with ``cast``; the error path of :func:`load_model`."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append([cast(tok) for tok in line.split(",")])
        except ValueError:
            raise ParseError(f"{path}: [{name}] row {lineno} is malformed") from None
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(f"{path}: [{name}] row {lineno} has {len(rows[-1])} columns, expected {len(rows[0])}")
    return rows


def load_model(path: str) -> Model:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    sections = _split_sections(text, path)
    for required in ("config", "projection", "codes", "representations", "assignments", "objective_trace"):
        if required not in sections:
            raise ParseError(f"{path}: missing section [{required}]")

    raw_config = {}
    for line in sections["config"]:
        if "=" not in line:
            raise ParseError(f"{path}: bad config line {line!r}")
        key, value = line.split("=", 1)
        raw_config[key.strip()] = value.strip()
    try:
        config = ModelConfig(**{name: kind(raw_config[name]) for name, kind in _CONFIG_FIELDS})
    except KeyError as exc:
        raise ParseError(f"{path}: config is missing key {exc}") from None

    def parse_rows(name: str, cast):
        lines = sections[name]
        # np.loadtxt reads a field as float() and int() do, except that it
        # strips "\x1f" as whitespace and refuses some fields they accept
        # ("1_0"); the token scan settles those and names every fault
        if lines and not any("\x1f" in line for line in lines):
            try:
                return np.loadtxt(lines, dtype=np.float64 if cast is float else np.int64, delimiter=",",
                                  comments=None, ndmin=2)
            except ValueError:
                pass
        return _scan_rows(path, name, lines, cast)

    projection = ProjectionMatrix(np.array(parse_rows("projection", float)))
    codes = CodeMatrix(np.array(parse_rows("codes", int)).T, config.sparsity)
    reps = CodeMatrix(np.array(parse_rows("representations", int)).T, config.sparsity)
    assignments_rows = parse_rows("assignments", int)
    if len(assignments_rows) != 1:
        raise ParseError(f"{path}: [assignments] must be a single row")
    assignments = AssignmentMatrix(np.array(assignments_rows[0]), config.num_groups)

    trace_lines = sections["objective_trace"]
    if not trace_lines or trace_lines[0] != _TRACE_HEADER:
        raise ParseError(f"{path}: [objective_trace] must start with {_TRACE_HEADER!r}")
    trace = []
    for lineno, line in enumerate(trace_lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"{path}: [objective_trace] row {lineno} needs 4 columns")
        try:
            entry = ObjectiveBreakdown(*(float(p) for p in parts))
        except ValueError:
            raise ParseError(f"{path}: [objective_trace] row {lineno} is malformed") from None
        recomputed = (
            entry.embedding_cost
            + config.within_weight * entry.within_trace
            - config.between_weight * entry.between_trace
        )
        if abs(recomputed - entry.total) > 1e-9 * max(1.0, abs(entry.total)):
            raise ParseError(f"{path}: [objective_trace] row {lineno} total is inconsistent with its parts")
        trace.append(entry)

    return Model(projection, codes, reps, assignments, config, tuple(trace))
