import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_bundle import write_csv_bundle
from gmkit import data as data_mod
from gmkit.data import (
    Dataset,
    SyntheticSpec,
    generate,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)
from gmkit.errors import ConfigError, GmkitError, InvalidInputError, ParseError


def spec(**overrides):
    base = dict(num_identities=10, samples_per_identity=2, dim=8, noise_sigma=0.1, impostor_fraction=0.3, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


def oracle_load_matrix(path):
    """The token-by-token CSV scan that ``load_matrix`` replaced on its fast path."""
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


def load_outcome(load, path):
    """The bit pattern and shape of a loaded matrix, or the ParseError text."""
    try:
        m = load(path)
    except ParseError as err:
        return ("error", str(err))
    return ("ok", m.shape, m.view(np.uint64).tolist())


def oracle_generate(spec):
    """The per-vector generator that ``generate`` replaced: one draw and one
    normalization per vector.  Returns (enrolled d x N, genuine, ids, impostors)."""

    def unit(v):
        return v / float(np.linalg.norm(v))

    rng = np.random.default_rng(spec.seed)
    enrolled, genuine, ids, impostors = [], [], [], []
    for i in range(spec.num_identities):
        mean = unit(rng.standard_normal(spec.dim))
        samples = [
            unit(mean + spec.noise_sigma * rng.standard_normal(spec.dim)) for _ in range(spec.samples_per_identity)
        ]
        enrolled.append(samples[0])
        genuine.extend(samples[1:])
        ids.extend([i] * (len(samples) - 1))
    for _ in range(spec.num_impostor_identities):
        mean = unit(rng.standard_normal(spec.dim))
        impostors.extend(
            unit(mean + spec.noise_sigma * rng.standard_normal(spec.dim)) for _ in range(spec.samples_per_identity)
        )
    return np.column_stack(enrolled), np.array(genuine), ids, np.array(impostors)


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


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(spec())
        b = generate(spec())
        assert np.array_equal(a.enrolled.data, b.enrolled.data)
        assert np.array_equal(a.genuine, b.genuine) and np.array_equal(a.genuine_ids, b.genuine_ids)
        assert np.array_equal(a.impostors, b.impostors)

    @given(
        st.integers(1, 40),
        st.integers(2, 5),
        st.integers(1, 70),
        st.sampled_from([0.0, 1e-9, 0.05, 0.3, 2.0]),
        st.sampled_from([0.01, 0.25, 0.5, 0.9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_vector_oracle(self, identities, samples, dim, sigma, fraction, seed):
        s = SyntheticSpec(identities, samples, dim, sigma, fraction, seed)
        ds = generate(s)
        enrolled, genuine, ids, impostors = oracle_generate(s)
        assert ds.enrolled.data.flags.c_contiguous
        assert ds.enrolled.data.tobytes() == enrolled.tobytes()
        assert ds.genuine.shape == genuine.shape and ds.genuine.tobytes() == genuine.tobytes()
        assert ds.genuine_ids.tolist() == ids
        assert ds.impostors.shape == impostors.shape and ds.impostors.tobytes() == impostors.tobytes()
        for matrix in (ds.genuine, ds.genuine_ids, ds.impostors):
            assert not matrix.flags.writeable

    def test_different_seed_changes_data(self):
        a = generate(spec())
        b = generate(spec(seed=1))
        assert not np.array_equal(a.enrolled.data, b.enrolled.data)

    def test_zero_noise_samples_equal_identity_mean(self):
        ds = generate(spec(noise_sigma=0.0, samples_per_identity=3))
        for vec, idx in zip(ds.genuine, ds.genuine_ids):
            assert np.allclose(vec, ds.enrolled.data[:, idx])

    def test_two_samples_give_one_genuine_query_per_identity(self):
        ds = generate(spec(samples_per_identity=2))
        assert len(ds.genuine) == 10
        assert sorted(ds.genuine_ids.tolist()) == list(range(10))

    def test_impostor_count_follows_fraction(self):
        ds = generate(spec(impostor_fraction=0.3, samples_per_identity=2))
        assert len(ds.impostors) == 3 * 2  # round(10 * 0.3) identities, 2 samples each

    def test_all_outputs_unit_norm(self):
        ds = generate(spec(noise_sigma=0.5))
        assert np.allclose(np.linalg.norm(ds.enrolled.data, axis=0), 1.0)
        assert all(abs(np.linalg.norm(v) - 1.0) < 1e-9 for v in ds.genuine)
        assert all(abs(np.linalg.norm(v) - 1.0) < 1e-9 for v in ds.impostors)

    def test_within_identity_cosine_beats_between(self):
        ds = generate(spec(num_identities=30, dim=64, noise_sigma=0.1, samples_per_identity=2, seed=5))
        within = [float(np.dot(v, ds.enrolled.data[:, i])) for v, i in zip(ds.genuine, ds.genuine_ids)]
        rng = np.random.default_rng(0)
        between = []
        for v, i in zip(ds.genuine, ds.genuine_ids):
            j = int(rng.integers(30))
            if j != i:
                between.append(float(np.dot(v, ds.enrolled.data[:, j])))
        assert np.mean(within) > np.mean(between)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            spec(samples_per_identity=1)
        with pytest.raises(ConfigError):
            spec(impostor_fraction=0.0)
        with pytest.raises(ConfigError):
            spec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["num_identities", "samples_per_identity", "dim", "seed"])
    def test_float_size_is_config_error(self, field):
        with pytest.raises(ConfigError) as err:
            spec(**{field: 2.0})
        assert str(err.value) == f"{field} must be an integer, got 2.0"

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
    def test_non_finite_sigma_is_config_error_before_any_draw(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                spec(noise_sigma=sigma)
        assert str(err.value) == f"noise_sigma must be finite and >= 0, got {float(sigma)}"


class TestMatrixIO:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        save_matrix(str(path), m)
        back = load_matrix(str(path))
        assert back.shape == (5, 3)
        assert np.array_equal(back, m)  # exact, not approx

    def test_header_line_written_and_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(str(path), np.eye(2))
        first = path.read_text().splitlines()[0]
        assert first == "# d=2 n=2"

    def test_headerless_files_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert load_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_ragged_rows_name_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(str(path))

    def test_bad_token_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_matrix(str(path))


    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=24), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_patterns(self, tmp_path_factory, values, width):
        values = (values * width)[: len(values) * width]
        m = np.array(values + EXTREME_FLOATS * width, dtype=np.float64).reshape(-1, width)
        path = str(tmp_path_factory.mktemp("rt") / "m.csv")
        save_matrix(path, m)
        back = load_matrix(path)
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
        save_matrix(str(path), m)
        lines = path.read_text().split("\n")
        lines[row] = corrupt(lines[row])
        path.write_text("\n".join(lines))
        assert load_outcome(load_matrix, str(path)) == load_outcome(oracle_load_matrix, str(path))

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
        assert load_outcome(load_matrix, str(path)) == load_outcome(oracle_load_matrix, str(path))

    def test_load_holds_the_file_once(self, tmp_path):
        # a verify-batch-sized genuine.csv (7168 rows, 65 columns, 9 MB): the
        # parse held the text three times over, a 22.2 MiB peak, for a 3.6 MiB result
        write_csv_bundle(tmp_path, generate(SyntheticSpec(1024, 8, 64, 0.1, 0.5, seed=1)))
        tracemalloc.start()
        try:
            matrix = load_matrix(str(tmp_path / "genuine.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (7168, 65)
        assert peak < 6 * 2**20


class TestDatasetBundle:
    def test_round_trip(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        back = load_dataset(str(tmp_path))
        assert np.array_equal(back.enrolled.data, ds.enrolled.data)
        assert len(back.genuine) == len(ds.genuine)
        assert back.genuine_ids.tolist() == ds.genuine_ids.tolist()
        assert np.array_equal(back.genuine, ds.genuine)
        assert np.array_equal(back.impostors, ds.impostors)

    def test_save_matches_per_element_formatting(self, tmp_path):
        ds = generate(spec(num_identities=12, samples_per_identity=3))
        write_csv_bundle(tmp_path, ds)
        enrolled = ["# d=8 n=12"] + [oracle_format_row(row) for row in ds.enrolled.data.T]
        genuine = ["# identity column + d=8 coordinates, n=24"] + [
            str(int(idx)) + "," + oracle_format_row(vec) for vec, idx in zip(ds.genuine, ds.genuine_ids)
        ]
        impostors = ["# d=8 n=12"] + [oracle_format_row(row) for row in ds.impostors]
        for name, lines in (("enrolled.csv", enrolled), ("genuine.csv", genuine), ("impostors.csv", impostors)):
            assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"
        m = np.array(EXTREME_FLOATS + [np.nan, -np.nan], dtype=np.float64).reshape(-1, 2)
        save_matrix(str(tmp_path / "m.csv"), m)
        assert (tmp_path / "m.csv").read_text() == "".join(
            [f"# d=2 n={len(m)}\n"] + [oracle_format_row(row) + "\n" for row in m])
        save_matrix(str(tmp_path / "empty.csv"), np.empty((0, 3)))
        assert (tmp_path / "empty.csv").read_text() == "# d=3 n=0\n"

    def test_bundle_bytes_deterministic(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        save_dataset(str(d1), generate(spec()))
        save_dataset(str(d2), generate(spec()))
        for name in ("enrolled.npy", "genuine.npy", "impostors.npy"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_dataset_validates_identity_range(self):
        ds = generate(spec())
        with pytest.raises(ConfigError):
            Dataset(ds.enrolled, ds.genuine[:1], [99], ds.impostors)

    def test_dataset_rejects_non_integer_identities(self):
        ds = generate(spec())
        for idx in (1.0, 2.5, "3", None):
            with pytest.raises(ConfigError):
                Dataset(ds.enrolled, ds.genuine[:1], [idx], ds.impostors)

    def test_dataset_keeps_each_query_once_in_read_only_stacks(self):
        ds = generate(spec())
        genuine, ids, impostors = ds.genuine.copy(), ds.genuine_ids.copy(), ds.impostors.copy()
        kept = Dataset(ds.enrolled, genuine, ids, impostors)
        assert np.array_equal(kept.genuine, genuine)
        assert np.array_equal(kept.impostors, impostors)
        assert kept.genuine_ids.tolist() == ids.tolist()
        for stacked in (kept.genuine, kept.impostors, kept.genuine_ids):
            assert not stacked.flags.writeable
        # the (vector, identity) pairs are views of the matrix: equal to what was passed, not copies of it
        assert kept.genuine_queries is kept.genuine_queries
        for (vec, idx), given, given_idx in zip(kept.genuine_queries, genuine, ids.tolist()):
            assert np.shares_memory(vec, kept.genuine) and np.array_equal(vec, given) and idx == given_idx
        for vec, given in zip(kept.impostors, impostors):
            assert np.shares_memory(vec, kept.impostors) and np.array_equal(vec, given)
        genuine[0][:] = 0.0  # the caller's arrays no longer reach the dataset
        assert np.array_equal(kept.genuine, ds.genuine)
        # a read-only float64 matrix is kept as it is
        again = Dataset(ds.enrolled, kept.genuine, kept.genuine_ids, kept.impostors)
        assert again.genuine is kept.genuine and again.impostors is kept.impostors

    def test_dataset_validates_query_vectors(self):
        ds = generate(spec())
        vec, other = ds.genuine[:2]
        ids = ds.genuine_ids[:2]
        with pytest.raises(ConfigError):
            Dataset(ds.enrolled, ds.genuine, ds.genuine_ids, [*ds.impostors, vec[:-1]])
        with pytest.raises(InvalidInputError):
            Dataset(ds.enrolled, np.stack([vec, 2 * other]), ids, ds.impostors)
        # every shape is checked before any norm
        with pytest.raises(ConfigError):
            Dataset(ds.enrolled, [2 * vec, other[:-1]], ids, ds.impostors)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError):
                Dataset(ds.enrolled, np.stack([vec, np.full(vec.size, bad)]), ids, ds.impostors)
            with pytest.raises(InvalidInputError):
                Dataset(ds.enrolled, ds.genuine, ds.genuine_ids, np.vstack([ds.impostors, np.full(vec.size, bad)]))

    @pytest.mark.parametrize(
        "identity",
        [
            pytest.param("nan", id="nan"),
            pytest.param("inf", id="inf"),
            pytest.param("3.7", id="non-integer"),
            pytest.param("-1", id="negative"),
        ],
    )
    def test_bad_identity_names_file_and_row(self, tmp_path, identity):
        write_csv_bundle(tmp_path, generate(spec()))
        path = tmp_path / "genuine.csv"
        lines = path.read_text().split("\n")
        lines[2] = identity + "," + lines[2].split(",", 1)[1]  # the second data row, after the header
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=rf"genuine\.csv: row 3: identity {float(identity)!r} is not"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("identity", ["10", "10.0", "1e300", "9.3e18"])
    def test_identity_past_enrolled_count_names_file_row_and_value(self, tmp_path, identity):
        # spec() enrolls 10 identities; 1e300 and 9.3e18 lie beyond int64
        write_csv_bundle(tmp_path, generate(spec()))
        path = tmp_path / "genuine.csv"
        lines = path.read_text().split("\n")
        lines[4] = identity + "," + lines[4].split(",", 1)[1]
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}: row 5: identity {float(identity)!r} is not an integer in [0, 10)"

    def test_non_ascii_byte_names_file_and_row(self, tmp_path):
        write_csv_bundle(tmp_path, generate(spec()))
        path = tmp_path / "enrolled.csv"
        raw = path.read_bytes().split(b"\n")
        raw[3] = raw[3][:5] + b"\xe9" + raw[3][5:]
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}: row 4: byte 0xe9 is not ASCII"
        # a line cut by "\r" or "\x0b" counts as splitlines counts it
        path.write_bytes(b"# d=2 n=3\r\n0.6,0.8\r1.0,0.0\x0b\xff\n0.0,1.0\n")
        with pytest.raises(ParseError, match=r"row 4: byte 0xff is not ASCII"):
            load_matrix(str(path))

    def test_integer_valued_identity_loads(self, tmp_path):
        ds = generate(spec())
        write_csv_bundle(tmp_path, ds)
        path = tmp_path / "genuine.csv"
        text = path.read_text()
        assert "\n3," in text
        path.write_text(text.replace("\n3,", "\n3.0,", 1))
        back = load_dataset(str(tmp_path))
        assert back.genuine_ids.tolist() == ds.genuine_ids.tolist()


    @pytest.mark.parametrize("identity", [np.nan, np.inf, 3.7, -1.0, 10.0, 1e300, 9.3e18])
    def test_bad_identity_in_npy_names_file_and_matrix_row(self, tmp_path, identity):
        # spec() enrolls 10 identities; on the .npy path a row is a 1-based matrix row
        save_dataset(str(tmp_path), generate(spec()))
        path = tmp_path / "genuine.npy"
        genuine = np.load(path)
        genuine[3, 0] = identity
        np.save(path, genuine)
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}: row 4: identity {identity!r} is not an integer in [0, 10)"


NPY_FILES = ("enrolled.npy", "genuine.npy", "impostors.npy")
CSV_FILES = ("enrolled.csv", "genuine.csv", "impostors.csv")


def dataset_outcome(directory):
    """Every bit and the layout of each loaded array, or the error's type and text."""
    try:
        ds = load_dataset(str(directory))
    except GmkitError as err:
        return ("error", type(err).__name__, str(err))
    arrays = (ds.enrolled.data, ds.genuine, ds.genuine_ids, ds.impostors)
    return ("ok", *((a.dtype.str, a.shape, a.strides, a.view(np.int64).tolist()) for a in arrays))


def edit_keeping_mtime(path, edit):
    """Rewrite a file with ``edit(text)`` and put its modification time back."""
    before = os.stat(path)
    path.write_text(edit(path.read_text()))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def next_digit_at_end_of_first_row(text):
    """The same text with the last digit of the first data row changed: same
    length, a value that differs in the last place."""
    header, row, rest = text.split("\n", 2)
    return f"{header}\n{row[:-1]}{(int(row[-1]) + 1) % 10}\n{rest}"


class TestBundleCopy:
    """The .npy bundle that save_dataset writes, against the same matrices as CSV."""

    @given(
        st.integers(1, 12),
        st.integers(2, 4),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.05, 2.0]),
        st.sampled_from([0.25, 0.9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_copy_loads_bit_identical_to_parse(self, tmp_path_factory, identities, samples, dim, sigma, fraction, seed):
        ds = generate(SyntheticSpec(identities, samples, dim, sigma, fraction, seed))
        npy, csv = tmp_path_factory.mktemp("npy"), tmp_path_factory.mktemp("csv")
        save_dataset(str(npy), ds)
        write_csv_bundle(csv, ds)
        with mock.patch.object(data_mod, "load_matrix", side_effect=AssertionError("parsed a CSV")):
            from_npy = dataset_outcome(npy)
        with mock.patch.object(data_mod, "_load_npy", side_effect=AssertionError("read a .npy")):
            from_csv = dataset_outcome(csv)
        assert from_npy[0] == "ok"
        assert from_npy == from_csv

    def test_save_writes_the_three_npy_files_only(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(NPY_FILES)
        genuine = np.load(tmp_path / "genuine.npy", allow_pickle=False)
        assert genuine.dtype == np.float64 and genuine.flags.c_contiguous
        assert genuine[:, 0].tolist() == ds.genuine_ids.tolist()
        assert np.array_equal(genuine[:, 1:], ds.genuine)

    @pytest.mark.parametrize(
        "npy, csv",
        [
            pytest.param(NPY_FILES, CSV_FILES, id="both-sets"),
            pytest.param(NPY_FILES[:2], CSV_FILES[2:], id="mixed"),
            pytest.param(NPY_FILES, CSV_FILES[1:2], id="stray-csv"),
        ],
    )
    def test_both_formats_in_one_directory_is_a_parse_error(self, tmp_path, npy, csv):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        write_csv_bundle(tmp_path, ds)
        for name in set(NPY_FILES + CSV_FILES) - set(npy + csv):
            (tmp_path / name).unlink()
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == (
            f"{tmp_path}: holds both .npy ({', '.join(npy)}) and CSV ({', '.join(csv)}) bundle files; "
            "a bundle is one or the other, so delete one set"
        )

    def test_edit_keeping_length_and_mtime_is_seen(self, tmp_path):
        ds = generate(spec())
        write_csv_bundle(tmp_path, ds)
        load_dataset(str(tmp_path))
        edit_keeping_mtime(tmp_path / "impostors.csv", next_digit_at_end_of_first_row)
        back = load_dataset(str(tmp_path))
        assert not np.array_equal(back.impostors, ds.impostors)
        assert np.array_equal(back.impostors[1:], ds.impostors[1:])

    @pytest.mark.parametrize(
        "name, forge",
        [
            pytest.param("enrolled.npy", lambda m: np.hstack([m, np.zeros((len(m), 1))]), id="enrolled-wider"),
            pytest.param("genuine.npy", lambda m: m[:, 1:], id="genuine-without-identities"),
            pytest.param("impostors.npy", lambda m: m[:, :-1], id="impostors-narrower"),
            pytest.param("genuine.npy", lambda m: m[:0], id="no-rows"),
            pytest.param("enrolled.npy", lambda m: m.ravel(), id="one-dimensional"),
            pytest.param("impostors.npy", lambda m: m[None], id="three-dimensional"),
            pytest.param("genuine.npy", lambda m: m.astype(np.int64), id="integer"),
            pytest.param("enrolled.npy", lambda m: np.array([[None]], dtype=object), id="pickled-object"),
        ],
    )
    def test_wrong_copy_under_a_matching_manifest_is_a_library_error(self, tmp_path, name, forge):
        save_dataset(str(tmp_path), generate(spec()))
        np.save(tmp_path / name, forge(np.load(tmp_path / name)))
        with pytest.raises(GmkitError):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda b: b[:0], id="empty"),
            pytest.param(lambda b: b[:10], id="cut-in-header"),
            pytest.param(lambda b: b[:-8], id="cut-in-data"),
            pytest.param(lambda b: b[:10] + b"z" + b[11:], id="header-not-a-dict"),  # numpy's tokenizer fails
        ],
    )
    def test_unreadable_copy_under_a_matching_manifest_is_a_parse_error(self, tmp_path, damage):
        save_dataset(str(tmp_path), generate(spec()))
        path = tmp_path / "genuine.npy"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ParseError, match="genuine.npy"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("via_copy", [False, True], ids=["csv", "copy"])
    @pytest.mark.parametrize(
        "name, column, token", [("enrolled.csv", 3, "nan"), ("genuine.csv", 2, "inf"), ("impostors.csv", 8, "-inf")]
    )
    def test_non_finite_entry_names_file_row_and_column(self, tmp_path, name, column, token, via_copy):
        ds = generate(spec())
        if via_copy:  # the third matrix row of the .npy file
            save_dataset(str(tmp_path), ds)
            path = (tmp_path / name).with_suffix(".npy")
            matrix = np.load(path)
            matrix[2, column - 1] = float(token)
            np.save(path, matrix)
            row = 3
        else:  # the third data row, after the header
            write_csv_bundle(tmp_path, ds)
            path = tmp_path / name
            lines = path.read_text().split("\n")
            cells = lines[3].split(",")
            cells[column - 1] = token
            lines[3] = ",".join(cells)
            path.write_text("\n".join(lines))
            row = 4
        unused = "load_matrix" if via_copy else "_load_npy"
        with mock.patch.object(data_mod, unused, side_effect=AssertionError(unused)), pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}: row {row}, column {column}: {float(token)!r} is not finite"

    def test_load_writes_nothing(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path / "npy"), ds)
        write_csv_bundle(tmp_path / "csv", ds)

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns, p.stat().st_size) for p in tmp_path.rglob("*"))

        before = listing()
        load_dataset(str(tmp_path / "npy"))
        load_dataset(str(tmp_path / "csv"))
        assert listing() == before
