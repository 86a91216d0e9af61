from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.core import _MODEL_FIELDS, ModelConfig
from gmkit.data import SyntheticSpec, generate
from gmkit.errors import ParseError
from gmkit.learning import train
from gmkit.modelio import _csv_lines, _data_lines, _parse_rows, load_model, save_model


@pytest.fixture(scope="module")
def model():
    spec = SyntheticSpec(num_identities=12, samples_per_identity=2, dim=10, noise_sigma=0.1, impostor_fraction=0.25, seed=0)
    config = ModelConfig(code_length=5, sparsity=2, num_groups=3, seed=1)
    return train(generate(spec).enrolled, config)


def test_round_trip_reproduces_model(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    back = load_model(str(path))
    assert back.config == model.config
    assert np.array_equal(back.projection.data, model.projection.data)
    assert np.array_equal(back.codes.codes, model.codes.codes)
    assert np.array_equal(back.representations.codes, model.representations.codes)
    assert np.array_equal(back.assignments.group_of, model.assignments.group_of)
    assert back.objective_trace == model.objective_trace


def test_numpy_scalar_configs_give_the_same_bytes(tmp_path):
    # a sweep over np.linspace or np.arange passes numpy scalars; the config
    # types hold them as Python numbers, so nothing downstream differs
    plain = (SyntheticSpec(12, 2, 10, 0.1, 0.25, seed=0), ModelConfig(5, 2, 3, within_weight=0.5, seed=1))
    scalars = (
        SyntheticSpec(np.int64(12), np.int32(2), np.uint16(10), np.float64(0.1), np.float32(0.25), seed=np.int64(0)),
        ModelConfig(np.int64(5), np.int8(2), np.uint32(3), within_weight=np.float64(0.5),
                    max_outer_iters=np.int64(30), seed=np.int16(1)),
    )
    outputs = []
    for spec, config in (plain, scalars):
        assert [type(v) for v in astuple(spec)] == [int, int, int, float, float, int]
        assert [type(v) for v in astuple(config)] == [int, int, int, float, int, int]
        dataset = generate(spec)
        path = tmp_path / f"model-{len(outputs)}.txt"
        save_model(str(path), train(dataset.enrolled, config))
        assert load_model(str(path)).config == config
        outputs.append([m.tobytes() for m in (dataset.enrolled.data, dataset.genuine, dataset.impostors)]
                       + [path.read_bytes()])
    assert outputs[0] == outputs[1]


def test_save_is_deterministic(model, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    save_model(str(a), model)
    save_model(str(b), model)
    assert a.read_bytes() == b.read_bytes()


def test_missing_section_rejected(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    text = path.read_text()
    broken = text.replace("[assignments]", "[something_else]")
    path.write_text(broken)
    with pytest.raises(ParseError):
        load_model(str(path))


def test_inconsistent_trace_total_rejected(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().splitlines()
    # corrupt the total column of the first trace row
    idx = lines.index("embedding_cost,within_trace,total") + 1
    parts = lines[idx].split(",")
    parts[-1] = repr(float(parts[-1]) + 1.0)
    lines[idx] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="inconsistent"):
        load_model(str(path))


def test_malformed_row_rejected(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    text = path.read_text().replace("[codes]\n", "[codes]\nnot,numbers,here,at,all\n", 1)
    path.write_text(text)
    with pytest.raises(ParseError):
        load_model(str(path))


def test_save_matches_per_element_formatting(model, tmp_path):
    # the text that save_model wrote with float() / int() on every numpy scalar
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().splitlines()
    start = lines.index("[projection]") + 1
    end = lines.index("[objective_trace]")
    expected = [",".join(repr(float(v)) for v in row) for row in model.projection.data]
    expected.append("[codes]")
    expected.extend(",".join(str(int(v)) for v in col) for col in model.codes.codes.T)
    expected.append("[representations]")
    expected.extend(",".join(str(int(v)) for v in col) for col in model.representations.codes.T)
    expected.append("[assignments]")
    expected.append(",".join(str(int(g)) for g in model.assignments.group_of))
    assert lines[start:end] == expected


def load_outcome(path):
    """Every array of the loaded model, bit for bit, or the error's type and text."""
    try:
        m = load_model(path)
    except Exception as err:  # a raw exception must match too
        return ("error", type(err).__name__, str(err))
    return (
        "ok",
        m.projection.data.view(np.uint64).tolist(),
        m.codes.codes.tolist(),
        m.representations.codes.tolist(),
        m.assignments.group_of.tolist(),
        m.objective_trace,
    )


def first_token(replacement):
    return lambda line: replacement + line[line.index(","):]


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda line: line, id="unchanged"),
        pytest.param(lambda line: line + ",", id="trailing-comma"),
        pytest.param(lambda line: line.replace(",", ",,", 1), id="empty-field"),
        pytest.param(lambda line: line + ",0", id="ragged-long"),
        pytest.param(lambda line: line.split(",", 1)[1], id="ragged-short"),
        pytest.param(lambda line: " " + line.replace(",", " , ") + "\t", id="spaces"),
        pytest.param(lambda line: line + "\x1f", id="unit-separator"),  # np.loadtxt only
        pytest.param(first_token("1_0"), id="underscore"),  # float() and int() only
        pytest.param(first_token("+1"), id="plus-sign"),
        pytest.param(first_token("1.0"), id="float-token"),
        pytest.param(first_token("1e0"), id="exponent"),
        pytest.param(first_token("nan"), id="nan"),
        pytest.param(first_token("-inf"), id="minus-inf"),
        pytest.param(first_token("99999999999999999999"), id="past-int64"),
        pytest.param(first_token("0x1"), id="hex"),
        pytest.param(lambda line: line + " # x", id="inline-comment"),
        pytest.param(lambda line: line.replace(",", ";"), id="semicolons"),
    ],
)
@pytest.mark.parametrize("section", ["[projection]", "[codes]", "[representations]", "[assignments]"])
def test_matches_token_scan_on_corruptions(model, tmp_path, monkeypatch, corrupt, section):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    row = lines.index(section) + 1
    lines[row] = corrupt(lines[row])
    path.write_text("\n".join(lines))
    fast = load_outcome(str(path))

    def refuse(*args, **kwargs):
        raise ValueError("token scan only")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert fast == load_outcome(str(path))


def test_ragged_section_is_parse_error(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    text = path.read_text()
    start = text.index("[codes]\n") + len("[codes]\n")
    end = text.index("\n", start)
    path.write_text(text[:end] + ",0" + text[end:])
    with pytest.raises(ParseError, match=r"\[codes\] row 2 has 5 columns, expected 6"):
        load_model(str(path))


@pytest.mark.parametrize(
    "section, row, column",
    [("projection", 3, 2), ("codes", 1, 5), ("representations", 2, 1), ("assignments", 1, 7), ("objective_trace", 2, 3)],
)
def test_bad_token_names_section_row_and_column(model, tmp_path, section, row, column):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    at = lines.index(f"[{section}]") + row  # rows count from 1 within the section
    tokens = lines[at].split(",")
    tokens[column - 1] = "oops"
    lines[at] = ",".join(tokens)
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [{section}] row {row}, column {column}: bad number 'oops'"


@pytest.mark.parametrize("section", ["projection", "codes", "representations", "assignments", "objective_trace"])
def test_empty_numeric_section_is_parse_error_naming_it(model, tmp_path, section):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    start = lines.index(f"[{section}]") + 1 + (section == "objective_trace")  # keeps the trace header
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("[") or not lines[i])
    path.write_text("\n".join(lines[:start] + lines[end:]))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [{section}] no data rows"


@pytest.mark.parametrize("key", list(_MODEL_FIELDS))
def test_bad_or_missing_config_value_names_its_key(model, tmp_path, key):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
    path.write_text("\n".join(lines[:at] + [f"{key}=x"] + lines[at + 1:]))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [config] bad value for {key}: 'x'"
    path.write_text("\n".join(lines[:at] + lines[at + 1:]))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [config] missing required config key {key!r}"


def test_unknown_config_key_is_parse_error_naming_it(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    path.write_text(path.read_text().replace("[config]\n", "[config]\nbogus_key=1\n", 1))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [config] unknown key 'bogus_key'"


@pytest.mark.parametrize("first", ["# gmkit model v1", "# gmkit model v2", "# gmkit model", "[config]"])
def test_other_version_line_is_parse_error_naming_it(model, tmp_path, first):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    assert lines[0] == "# gmkit model v3"
    path.write_text("\n".join(lines[1:] if first == "[config]" else [first] + lines[1:]))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: first line is {first!r}, expected '# gmkit model v3'"


def test_non_ascii_byte_names_file_and_row(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    raw = path.read_bytes().split(b"\n")
    raw[12] = raw[12][:3] + b"\xe9" + raw[12][3:]
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: row 13: byte 0xe9 is not ASCII"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_trace_value_names_its_row(model, tmp_path, bad):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    at = lines.index("[objective_trace]") + 2  # the first row under the header
    lines[at] = bad + lines[at][lines[at].index(","):]
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [objective_trace] row 2: objective component embedding_cost is not finite"


@pytest.mark.parametrize(
    "key, value, held",
    [
        ("code_length", 4, "[projection], which has 5 columns"),
        ("code_length", 6, "[projection], which has 5 columns"),
        ("num_groups", 2, "[representations], which has 3 rows"),
        ("num_groups", 4, "[representations], which has 3 rows"),
        ("sparsity", 1, "[codes], whose row 1 has 2 nonzeros"),
        ("sparsity", 3, "[codes], whose row 1 has 2 nonzeros"),
    ],
)
def test_config_contradicting_arrays_is_parse_error_naming_key(model, tmp_path, key, value, held):
    # the in-memory Model raises ConfigError for the same contradiction; a
    # file that holds one is malformed, so loading it is a ParseError
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    text = path.read_text()
    path.write_text(text.replace(f"\n{key}={getattr(model.config, key)}\n", f"\n{key}={value}\n", 1))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [config] {key}={value} contradicts {held}"


def test_representation_sparsity_contradicting_config_names_its_row(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    lines = path.read_text().split("\n")
    at = lines.index("[representations]") + 2  # its second row
    assert lines[at].count("0") == 3  # two nonzeros of five
    lines[at] = ",".join("1" for _ in lines[at].split(","))
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value) == f"{path}: [config] sparsity=2 contradicts [representations], whose row 2 has 5 nonzeros"


def oracle_load_matrix(path):
    """The token-by-token CSV scan that the reader replaced on its fast path."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    rows = []
    width = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        values = []
        for colno, token in enumerate(line.split(","), start=1):
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(f"{path}: row {lineno}, column {colno}: bad number {token!r}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(f"{path}: row {lineno} has {len(values)} columns, expected {width}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def matrix_outcome(load, path):
    """The bit pattern and shape of a loaded matrix, or the ParseError text."""
    try:
        m = load(path)
    except ParseError as err:
        return ("error", str(err))
    return ("ok", m.shape, m.view(np.uint64).tolist())


def write_matrix(path, matrix):
    """The rows of a float matrix as a model section holds them, under a
    comment line, which the reader skips."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# d={matrix.shape[1]} n={matrix.shape[0]}\n")
        fh.writelines(_csv_lines(matrix))


def read_matrix(path):
    """Every data line of a file through the model file's numeric-CSV reader,
    each numbered by its line in the file."""
    return _parse_rows(list(_data_lines(path)), float, f"{path}:")


def oracle_format_row(row):
    """Per-element CSV formatting, as the writers did before they formatted from ``tolist()``."""
    return ",".join(repr(float(v)) for v in row)


# text inserted at random places in a small matrix file: separators, line
# ends float() and np.loadtxt read differently, comments and bad tokens
INSERTIONS = [
    "1", "-2e3", "nan", "1_0", "", " ", "\t", "#", "# c", ",", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1f",
    "e", ".", "+", "1.5 2", "\n  # x\n", "\n \n", "\n\n",
]

EXTREME_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
    1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, 0.1, 1 / 3,
]


class TestMatrixIO:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        write_matrix(str(path), m)
        back = read_matrix(str(path))
        assert back.shape == (5, 3)
        assert np.array_equal(back, m)  # exact, not approx

    def test_headerless_files_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert read_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(str(path))

    def test_ragged_rows_name_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            read_matrix(str(path))

    def test_bad_token_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            read_matrix(str(path))

    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=24), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_patterns(self, tmp_path_factory, values, width):
        values = (values * width)[: len(values) * width]
        m = np.array(values + EXTREME_FLOATS * width, dtype=np.float64).reshape(-1, width)
        path = str(tmp_path_factory.mktemp("rt") / "m.csv")
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape
        assert back.view(np.uint64).tolist() == m.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda line: line + " # x", id="inline-comment"),
            pytest.param(lambda line: line.replace(",", ",,", 1), id="empty-field"),
            pytest.param(lambda line: line + ",", id="trailing-comma"),
            pytest.param(lambda line: line + ",1.0", id="ragged-long"),
            pytest.param(lambda line: line.split(",", 1)[1], id="ragged-short"),
            pytest.param(lambda line: "1_0," + line.split(",", 1)[1], id="underscore"),  # float() only
            pytest.param(lambda line: "nan," + line.split(",", 1)[1], id="nan"),
            pytest.param(lambda line: "-nan," + line.split(",", 1)[1], id="minus-nan"),
            pytest.param(lambda line: "-inf," + line.split(",", 1)[1], id="minus-inf"),
            pytest.param(lambda line: line + "#", id="trailing-hash"),  # a comment to np.loadtxt
            pytest.param(lambda line: line.replace(",", "#,", 1), id="hash-in-row"),
            pytest.param(lambda line: line + "\x1f", id="unit-separator"),  # np.loadtxt only
            pytest.param(lambda line: line.replace(",", "\x1f,", 1), id="unit-separator-in-row"),
            pytest.param(lambda line: line.replace(",", ",\x0b", 1), id="vertical-tab"),  # splitlines cuts here
            pytest.param(lambda line: line + "\x0c", id="form-feed"),
            pytest.param(lambda line: " \t ", id="whitespace-line"),
            pytest.param(lambda line: " " + line.replace(",", " , ") + "\t", id="spaces"),
            pytest.param(lambda line: "", id="blank-line"),
            pytest.param(lambda line: "  # comment", id="comment-line"),
            pytest.param(lambda line: line.replace("e", "d"), id="fortran-exponent"),
            pytest.param(lambda line: line.replace(",", ";"), id="semicolons"),
        ],
    )
    @pytest.mark.parametrize("row", [1, 2, 3])
    def test_matches_token_scan_on_corruptions(self, tmp_path, corrupt, row):
        m = np.array([[0.5, -1e-310, 1e308], [1.0 - 2.0**-53, -0.0, 3.0], [2.5e-5, 7.0, -2.0]])
        path = tmp_path / "m.csv"
        write_matrix(str(path), m)
        lines = path.read_text().split("\n")
        lines[row] = corrupt(lines[row])
        path.write_text("\n".join(lines))
        assert matrix_outcome(read_matrix, str(path)) == matrix_outcome(oracle_load_matrix, str(path))

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(INSERTIONS)), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_token_scan_on_random_insertions(self, tmp_path_factory, rows, cols, edits):
        text = "# d n\n" + "".join(",".join(str(0.25 * (i + j)) for j in range(cols)) + "\n" for i in range(rows))
        for pos, token in edits:
            pos %= len(text) + 1
            text = text[:pos] + token + text[pos:]
        path = tmp_path_factory.mktemp("ins") / "m.csv"
        path.write_bytes(text.encode("ascii"))
        assert matrix_outcome(read_matrix, str(path)) == matrix_outcome(oracle_load_matrix, str(path))

    def test_save_matches_per_element_formatting(self):
        m = np.array(EXTREME_FLOATS + [np.nan, -np.nan], dtype=np.float64).reshape(-1, 2)
        assert "".join(_csv_lines(m)) == "".join(oracle_format_row(row) + "\n" for row in m)
        assert "".join(_csv_lines(np.empty((0, 3)))) == ""

    def test_non_ascii_byte_names_file_and_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(str(path), np.eye(4))
        raw = path.read_bytes().split(b"\n")
        raw[3] = raw[3][:5] + b"\xe9" + raw[3][5:]
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(ParseError) as err:
            read_matrix(str(path))
        assert str(err.value) == f"{path}: row 4: byte 0xe9 is not ASCII"
        # a line cut by "\r" or "\x0b" counts as splitlines counts it
        path.write_bytes(b"# d=2 n=3\r\n0.6,0.8\r1.0,0.0\x0b\xff\n0.0,1.0\n")
        with pytest.raises(ParseError, match=r"row 4: byte 0xff is not ASCII"):
            read_matrix(str(path))
