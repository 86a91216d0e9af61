import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.data import (
    Dataset,
    SyntheticSpec,
    generate,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)
from gmkit.errors import ConfigError, InvalidInputError, ParseError


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
            assert np.allclose(vec, ds.enrolled.column(idx))

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
        within = [float(np.dot(v, ds.enrolled.column(i))) for v, i in zip(ds.genuine, ds.genuine_ids)]
        rng = np.random.default_rng(0)
        between = []
        for v, i in zip(ds.genuine, ds.genuine_ids):
            j = int(rng.integers(30))
            if j != i:
                between.append(float(np.dot(v, ds.enrolled.column(j))))
        assert np.mean(within) > np.mean(between)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            spec(samples_per_identity=1)
        with pytest.raises(ConfigError):
            spec(impostor_fraction=0.0)
        with pytest.raises(ConfigError):
            spec(noise_sigma=-0.1)


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
            pytest.param(lambda line: line + "\x1f", id="unit-separator"),  # np.loadtxt only
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
        save_dataset(str(tmp_path), ds)
        enrolled = ["# d=8 n=12"] + [oracle_format_row(row) for row in ds.enrolled.data.T]
        genuine = ["# identity column + d=8 coordinates, n=24"] + [
            str(int(idx)) + "," + oracle_format_row(vec) for vec, idx in zip(ds.genuine, ds.genuine_ids)
        ]
        impostors = ["# d=8 n=12"] + [oracle_format_row(row) for row in ds.impostors]
        for name, lines in (("enrolled.csv", enrolled), ("genuine.csv", genuine), ("impostors.csv", impostors)):
            assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"
        m = np.array(EXTREME_FLOATS + [np.nan, -np.nan], dtype=np.float64).reshape(-1, 2)
        save_matrix(str(tmp_path / "m.csv"), m, header=False)
        assert (tmp_path / "m.csv").read_text() == "".join(oracle_format_row(row) + "\n" for row in m)
        for header, text in ((True, "# d=3 n=0\n"), (False, "\n")):
            save_matrix(str(tmp_path / "empty.csv"), np.empty((0, 3)), header=header)
            assert (tmp_path / "empty.csv").read_text() == text

    def test_bundle_bytes_deterministic(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        save_dataset(str(d1), generate(spec()))
        save_dataset(str(d2), generate(spec()))
        for name in ("enrolled.csv", "genuine.csv", "impostors.csv"):
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
        save_dataset(str(tmp_path), generate(spec()))
        path = tmp_path / "genuine.csv"
        lines = path.read_text().split("\n")
        lines[2] = identity + "," + lines[2].split(",", 1)[1]  # the second data row, after the header
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=rf"genuine\.csv: row 3: identity {float(identity)!r} is not"):
            load_dataset(str(tmp_path))

    def test_integer_valued_identity_loads(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        path = tmp_path / "genuine.csv"
        text = path.read_text()
        assert "\n3," in text
        path.write_text(text.replace("\n3,", "\n3.0,", 1))
        back = load_dataset(str(tmp_path))
        assert back.genuine_ids.tolist() == ds.genuine_ids.tolist()
