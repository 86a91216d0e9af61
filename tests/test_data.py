import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit import data as data_mod
from gmkit import modelio
from gmkit.data import Dataset, SyntheticSpec, generate, load_dataset, save_dataset
from gmkit.errors import ConfigError, GmkitError, InvalidInputError, ParseError


def spec(**overrides):
    base = dict(num_identities=10, samples_per_identity=2, dim=8, noise_sigma=0.1, impostor_fraction=0.3, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


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


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(spec())
        b = generate(spec())
        assert np.array_equal(a.enrolled.data, b.enrolled.data)
        assert np.array_equal(a.genuine, b.genuine) and np.array_equal(a.genuine_ids, b.genuine_ids)
        assert np.array_equal(a.impostors, b.impostors)

    def test_enrolled_matrix_is_copied_once(self, monkeypatch):
        # by the time the enrolled matrix is held, generate has allocated the
        # (1 + S) x N x d draw and one d x N copy, 4 copies' worth at S = 2,
        # plus under 1 MiB of the generator's own; a second copy made it 5
        n, d = 2048, 256
        peaks = []
        real = data_mod.SignatureMatrix
        monkeypatch.setattr(data_mod, "SignatureMatrix",
                            lambda x: (real(x), peaks.append(tracemalloc.get_traced_memory()[1]))[0])
        tracemalloc.start()
        try:
            dataset = generate(spec(num_identities=n, dim=d))
        finally:
            tracemalloc.stop()
        assert dataset.enrolled.data.flags.c_contiguous and not dataset.enrolled.data.flags.writeable
        assert peaks[0] < 4.5 * n * d * 8

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
        for seed in (-1, np.int64(-3)):
            with pytest.raises(ConfigError, match=f"seed must be >= 0, got {seed}"):
                spec(seed=seed)

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
        # the last four lie next to the bounds: just under the enrolled count,
        # the negative float nearest zero, a half, and -inf
        [np.nan, np.inf, 3.7, -1.0, 10.0, 1e300, 9.3e18, float(np.nextafter(10.0, 0.0)), -5e-324, 0.5, -np.inf],
    )
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

    @pytest.mark.parametrize("identity, index", [(0.0, 0), (-0.0, 0), (9.0, 9)])
    def test_integer_valued_identity_loads(self, tmp_path, identity, index):
        # the first and the last enrolled column, and the negative zero an extractor may write
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        path = tmp_path / "genuine.npy"
        genuine = np.load(path)
        genuine[3, 0] = identity
        np.save(path, genuine)
        back = load_dataset(str(tmp_path))
        assert back.genuine_ids.tolist() == ds.genuine_ids.tolist()[:3] + [index] + ds.genuine_ids.tolist()[4:]
        assert np.array_equal(back.genuine, ds.genuine)


NPY_FILES = ("enrolled.npy", "genuine.npy", "impostors.npy")
CSV_FILES = ("enrolled.csv", "genuine.csv", "impostors.csv")


def dataset_bits(ds):
    """Every bit and the layout of each array of a dataset."""
    arrays = (ds.enrolled.data, ds.genuine, ds.genuine_ids, ds.impostors)
    return [(a.dtype.str, a.shape, a.strides, a.view(np.int64).tolist()) for a in arrays]


def edit_keeping_mtime(path, edit):
    """Rewrite a .npy matrix with ``edit(matrix)`` and put its modification time back."""
    before = os.stat(path)
    np.save(path, edit(np.load(path)))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def next_float_at_start(matrix):
    """The same matrix with its first entry one float further from zero:
    same file length, a value that differs in the last place."""
    matrix[0, 0] = np.nextafter(matrix[0, 0], np.copysign(np.inf, matrix[0, 0]))
    return matrix


class TestBundleCopy:
    """The .npy bundle that save_dataset writes and load_dataset reads."""

    @given(
        st.integers(1, 12),
        st.integers(2, 4),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.05, 2.0]),
        st.sampled_from([0.25, 0.9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_load_gives_the_saved_arrays_bit_for_bit(self, tmp_path_factory, identities, samples, dim, sigma, fraction, seed):
        ds = generate(SyntheticSpec(identities, samples, dim, sigma, fraction, seed))
        directory = tmp_path_factory.mktemp("npy")
        save_dataset(str(directory), ds)
        assert dataset_bits(load_dataset(str(directory))) == dataset_bits(ds)

    def test_save_writes_the_three_npy_files_only(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(NPY_FILES)
        genuine = np.load(tmp_path / "genuine.npy", allow_pickle=False)
        assert genuine.dtype == np.float64 and genuine.flags.c_contiguous
        assert genuine[:, 0].tolist() == ds.genuine_ids.tolist()
        assert np.array_equal(genuine[:, 1:], ds.genuine)

    def test_edit_keeping_length_and_mtime_is_seen(self, tmp_path):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        load_dataset(str(tmp_path))
        edit_keeping_mtime(tmp_path / "impostors.npy", next_float_at_start)
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
            pytest.param("impostors.npy", lambda m: m.astype(np.float32), id="single-precision"),
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

    @pytest.mark.parametrize("name", NPY_FILES)
    def test_missing_file_is_an_os_error_naming_it(self, tmp_path, name):
        save_dataset(str(tmp_path), generate(spec()))
        (tmp_path / name).unlink()
        with pytest.raises(OSError) as err:
            load_dataset(str(tmp_path))
        assert err.value.filename == str(tmp_path / name)

    @pytest.mark.parametrize(
        "npy, csv",
        [
            pytest.param(NPY_FILES, CSV_FILES, id="both-sets"),
            pytest.param(NPY_FILES[:2], CSV_FILES[2:], id="mixed"),
            pytest.param(NPY_FILES, CSV_FILES[1:2], id="stray-csv"),
        ],
    )
    def test_csv_files_in_the_bundle_are_not_read(self, tmp_path, npy, csv):
        ds = generate(spec())
        save_dataset(str(tmp_path), ds)
        for name in csv:
            np.savetxt(tmp_path / name, np.load(tmp_path / name.replace(".csv", ".npy")), delimiter=",")
        for name in set(NPY_FILES) - set(npy):
            (tmp_path / name).unlink()
        # the package's one CSV reader is the model file's
        with (
            mock.patch.object(modelio, "_data_lines", side_effect=AssertionError("read a CSV")),
            mock.patch.object(modelio, "_parse_rows", side_effect=AssertionError("parsed a CSV")),
        ):
            if set(npy) == set(NPY_FILES):
                assert dataset_bits(load_dataset(str(tmp_path))) == dataset_bits(ds)
            else:  # a .npy file missing is missing, whatever CSV stands in for it
                with pytest.raises(OSError) as err:
                    load_dataset(str(tmp_path))
                assert err.value.filename == str(tmp_path / "impostors.npy")

    @pytest.mark.parametrize(
        "name, column, token", [("enrolled.npy", 3, "nan"), ("genuine.npy", 2, "inf"), ("impostors.npy", 8, "-inf")]
    )
    def test_non_finite_entry_names_file_row_and_column(self, tmp_path, name, column, token):
        save_dataset(str(tmp_path), generate(spec()))
        path = tmp_path / name
        matrix = np.load(path)
        matrix[2, column - 1] = float(token)
        np.save(path, matrix)
        with pytest.raises(ParseError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}: row 3, column {column}: {float(token)!r} is not finite"

    def test_load_writes_nothing(self, tmp_path):
        save_dataset(str(tmp_path), generate(spec()))

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns, p.stat().st_size) for p in tmp_path.rglob("*"))

        before = listing()
        load_dataset(str(tmp_path))
        assert listing() == before
