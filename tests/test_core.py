from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
    TernaryCode,
    embed,
    ternarize_columns,
)
from gmkit.core import _check_query_vectors
from gmkit.evaluation import _distances
from gmkit.errors import (
    ConfigError,
    DimensionError,
    GmkitError,
    InvalidInputError,
    InvalidSparsityError,
)


def reference_ternarize(v, sparsity):
    """Independent oracle: fully sort |v| (stable) and threshold."""
    v = np.asarray(v, dtype=float)
    ranked = sorted(range(len(v)), key=lambda i: (-abs(v[i]), i))
    out = np.zeros(len(v), dtype=int)
    for i in ranked[:sparsity]:
        out[i] = -1 if v[i] < 0 else 1
    return out


def ternarize_one(v, sparsity):
    """One vector through the batched ternarizer, as a one-column matrix."""
    return ternarize_columns(np.asarray(v, dtype=float)[:, None], sparsity)[:, 0]


def random_code(length, sparsity, rng):
    symbols = np.zeros(length, dtype=np.int8)
    support = rng.choice(length, size=sparsity, replace=False)
    symbols[support] = rng.choice([-1, 1], size=sparsity)
    return TernaryCode(symbols, sparsity)


class TestTernarize:
    def test_keeps_largest_magnitudes_by_sign(self):
        code = ternarize_one(np.array([0.5, -2.0, 0.1, 3.0]), 2)
        assert code.tolist() == [0, -1, 0, 1]

    def test_all_zero_input_tie_breaks_to_lowest_index(self):
        code = ternarize_one(np.zeros(4), 1)
        assert code.tolist() == [1, 0, 0, 0]
        m = np.zeros((4, 3))
        m[:, 1] = [0.0, -1.0, 2.0, 0.0]  # one nonzero column between all-zero ones
        assert ternarize_columns(m, 1).T.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]

    def test_matches_sort_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(64)
            assert ternarize_one(v, 16).tolist() == reference_ternarize(v, 16).tolist()
        m = rng.standard_normal((64, 40))
        batched = ternarize_columns(m, 16)
        assert batched.dtype == np.int8
        for j in range(m.shape[1]):
            assert batched[:, j].tolist() == reference_ternarize(m[:, j], 16).tolist()

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            # quantized entries force plenty of magnitude ties
            v = np.round(rng.standard_normal(12) * 2) / 2
            assert ternarize_one(v, 4).tolist() == reference_ternarize(v, 4).tolist()
        for sparsity in (1, 4, 11):
            m = np.round(rng.standard_normal((12, 60)) * 2) / 2
            m[:, 7] = 0.0  # all-zero column
            m[:, 8] = -0.0
            m[:, 9] = 0.5  # every magnitude tied
            batched = ternarize_columns(m, sparsity)
            for j in range(m.shape[1]):
                assert batched[:, j].tolist() == reference_ternarize(m[:, j], sparsity).tolist()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 24),
        st.integers(1, 40),
        st.integers(0, 4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_selection_matches_stable_argsort_oracle(self, seed, length, num_cols, top, data):
        # small integer magnitudes put many ties at the S-th position; signed
        # zeros, all-tied and all-zero columns are mixed in
        rng = np.random.default_rng(seed)
        sparsity = data.draw(st.integers(1, length - 1))
        m = rng.integers(-top, top + 1, size=(length, num_cols)).astype(np.float64)
        m[rng.random(m.shape) < 0.2] = -0.0
        tied = rng.random(num_cols) < 0.2
        m[:, tied] = np.where(rng.random((length, int(tied.sum()))) < 0.5, -1.0, 1.0) * top
        keep = np.argsort(-np.abs(m), axis=0, kind="stable")[:sparsity]
        expected = np.zeros(m.shape, dtype=np.int8)
        cols = np.arange(num_cols)
        expected[keep, cols] = np.where(m[keep, cols] < 0, -1, 1)
        got = ternarize_columns(m, sparsity)
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert np.array_equal(got, expected)
        assert ternarize_one(m[:, 0], sparsity).tolist() == expected[:, 0].tolist()

    def test_rejects_sparsity_at_or_above_length(self):
        with pytest.raises(InvalidSparsityError):
            ternarize_one(np.ones(4), 4)
        with pytest.raises(InvalidSparsityError):
            ternarize_one(np.ones(4), 0)
        for sparsity in (0, 4, 5):
            with pytest.raises(InvalidSparsityError):
                ternarize_columns(np.ones((4, 3)), sparsity)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ternarize_one(np.array([1.0, np.nan, 0.0]), 1)
        with pytest.raises(InvalidInputError):
            ternarize_one(np.array([1.0, np.inf, 0.0]), 1)
        for bad in (np.nan, np.inf, -np.inf):
            m = np.ones((3, 4))
            m[1, 2] = bad
            with pytest.raises(InvalidInputError):
                ternarize_columns(m, 1)

    @given(st.integers(0, 2**32 - 1), st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_positive_power_of_two_scaling(self, seed, exponent):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(16)
        scale = 2.0**exponent  # exact float scaling preserves magnitude order
        assert np.array_equal(ternarize_one(v, 5), ternarize_one(scale * v, 5))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_own_output(self, seed):
        rng = np.random.default_rng(seed)
        code = ternarize_one(rng.standard_normal(12), 4)
        for scale in (0.5, 1.0, 3.0):
            again = ternarize_one(scale * code.astype(float), 4)
            assert np.array_equal(again, code)


class TestEmbed:
    def test_identity_projection(self):
        w = ProjectionMatrix(np.eye(4)[:, :2])
        code = embed(w, np.array([3.0, -1.0, 9.0, 9.0]), 1)
        assert code.symbols.tolist() == [1, 0]

    def test_output_is_valid_code(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        w = ProjectionMatrix(q)
        code = embed(w, rng.standard_normal(10), 3)
        assert int(np.count_nonzero(code.symbols)) == 3

    def test_matches_compositional_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
            w = ProjectionMatrix(q)
            x = rng.standard_normal(12)
            expected = reference_ternarize(q.T @ x, 2)
            assert np.array_equal(embed(w, x, 2).symbols, expected)

    def test_depends_only_on_projected_coordinates(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        w = ProjectionMatrix(q)
        x = rng.standard_normal(10)
        # add a component orthogonal to the projection's column space
        residual = rng.standard_normal(10)
        residual -= q @ (q.T @ residual)
        assert np.array_equal(embed(w, x, 2).symbols, embed(w, x + residual, 2).symbols)

    def test_dimension_mismatch(self):
        w = ProjectionMatrix(np.eye(4)[:, :2])
        with pytest.raises(DimensionError):
            embed(w, np.zeros(5), 1)


def batched_distance(a, b):
    """||a - b||^2 through the evaluation module's batched distances, with b
    as the one representation."""
    model = SimpleNamespace(representations=CodeMatrix(b.symbols[:, None], b.sparsity))
    return int(_distances(model, a.symbols[:, None])[0, 0])


def batched_correlation(a, b):
    """a.b read off the batched distance, ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b."""
    return (int(np.count_nonzero(a.symbols)) + int(np.count_nonzero(b.symbols)) - batched_distance(a, b)) // 2


def naive_correlation(a, b):
    return sum(int(x) * int(y) for x, y in zip(a.symbols, b.symbols))


class TestCorrelationAndDistance:
    """The batched code distance, the one implementation left, against
    integer loops; the correlation enters through the distance identity."""

    def test_self_correlation_is_sparsity(self):
        rng = np.random.default_rng(0)
        code = random_code(16, 5, rng)
        assert batched_correlation(code, code) == 5

    def test_disjoint_supports(self):
        a = TernaryCode(np.array([1, -1, 0, 0]), 2)
        b = TernaryCode(np.array([0, 0, 1, 1]), 2)
        assert batched_correlation(a, b) == 0
        assert batched_distance(a, b) == 2 * 2  # disjoint supports sit at 2S

    def test_correlation_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_code(24, 6, rng)
            b = random_code(24, 6, rng)
            naive = naive_correlation(a, b)
            assert batched_correlation(a, b) == naive
            assert -6 <= batched_correlation(a, b) <= 6

    def test_distance_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_code(24, 6, rng)
            b = random_code(24, 6, rng)
            naive = sum((int(a.symbols[i]) - int(b.symbols[i])) ** 2 for i in range(24))
            assert batched_distance(a, b) == naive

    def test_identical_and_opposed_codes(self):
        a = TernaryCode(np.array([1, 0, -1, 0, 1]), 3)
        assert batched_distance(a, a) == 0
        opposed = TernaryCode(-a.symbols, 3)
        assert batched_distance(a, opposed) == 4 * 3  # range exceeds 2S on shared support

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_distance_correlation_identity_for_exact_codes(self, seed):
        rng = np.random.default_rng(seed)
        sparsity = int(rng.integers(1, 8))
        a = random_code(16, sparsity, rng)
        b = random_code(16, sparsity, rng)
        assert batched_distance(a, b) == 2 * sparsity - 2 * naive_correlation(a, b)


class TestTypes:
    def test_signature_matrix_requires_unit_columns(self):
        with pytest.raises(InvalidInputError):
            SignatureMatrix(np.ones((3, 2)))

    def test_signature_matrix_requires_finite(self):
        bad = np.eye(3)[:, :2]
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            SignatureMatrix(bad)

    def test_signature_matrix_is_readonly(self):
        m = SignatureMatrix(np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0

    def test_query_vectors_stacked_and_checked(self):
        vecs = [np.eye(4)[:, 1], np.full(4, 0.5)]
        stack = _check_query_vectors(vecs, 4, "query", DimensionError)
        assert stack.dtype == np.float64 and np.array_equal(stack, np.vstack(vecs))
        with pytest.raises(DimensionError):
            _check_query_vectors([np.eye(4)[:, 1], np.eye(3)[:, 0]], 4, "query", DimensionError)
        with pytest.raises(InvalidInputError):
            _check_query_vectors([2 * np.eye(4)[:, 1]], 4, "query", DimensionError)
        # a NaN norm compares false against any tolerance and must still fail
        for bad in (np.nan, np.inf, -np.inf):
            vec = np.eye(4)[:, 0].copy()
            vec[2] = bad
            with pytest.raises(InvalidInputError):
                _check_query_vectors([np.eye(4)[:, 1], vec], 4, "query", DimensionError)
            with pytest.raises(InvalidInputError):
                _check_query_vectors([np.full(4, bad)], 4, "query", DimensionError)

    def test_query_matrix_copied_unless_read_only_float64(self):
        rows = np.eye(4)[:2]
        kept = _check_query_vectors(rows, 4, "query", DimensionError)
        assert not kept.flags.writeable and not np.shares_memory(kept, rows)
        assert _check_query_vectors(kept, 4, "query", DimensionError) is kept
        assert _check_query_vectors(kept, None, "query", DimensionError) is kept
        view = rows[:]  # read-only, but its writeable base still reaches its memory
        view.setflags(write=False)
        held = _check_query_vectors(view, 4, "query", DimensionError)
        assert not held.flags.writeable and not np.shares_memory(held, rows)
        ints = np.eye(4, dtype=np.int64)[:2]
        ints.setflags(write=False)
        converted = _check_query_vectors(ints, 4, "query", DimensionError)
        assert converted.dtype == np.float64 and np.array_equal(converted, rows) and not converted.flags.writeable
        for bad in (rows[0], rows[None], np.eye(5)[:2]):
            with pytest.raises(DimensionError):
                _check_query_vectors(bad, 4, "query", DimensionError)
        for bad in (rows.astype(str), rows.astype(complex), rows.astype(object)):
            with pytest.raises(InvalidInputError):
                _check_query_vectors(bad, 4, "query", DimensionError)

    @pytest.mark.parametrize("build, valid", [
        pytest.param(SignatureMatrix, np.eye(3)[:, :2], id="SignatureMatrix"),
        pytest.param(ProjectionMatrix, np.eye(3)[:, :2], id="ProjectionMatrix"),
        pytest.param(lambda m: CodeMatrix(m, 1), np.eye(3)[:, :2], id="CodeMatrix"),
        pytest.param(lambda m: TernaryCode(m, 1), np.eye(3)[0], id="TernaryCode"),
    ])
    def test_malformed_input_raises_library_error(self, build, valid):
        build(valid)
        faults = [
            ([valid.tolist(), valid.tolist()[:-1]], DimensionError),  # ragged
            (valid.astype(str), InvalidInputError),
            (valid.astype(complex), InvalidInputError),  # not cast to real, which would drop the imaginary part
            (valid.astype(object), InvalidInputError),
        ]
        for bad, expected in faults:
            with pytest.raises(GmkitError) as caught:
                build(bad)
            assert type(caught.value) is expected

    def test_projection_requires_orthonormal_columns(self):
        with pytest.raises(InvalidInputError):
            ProjectionMatrix(np.ones((4, 2)))

    def test_projection_requires_fewer_columns_than_rows(self):
        with pytest.raises(DimensionError):
            ProjectionMatrix(np.eye(3))

    def test_code_types_store_sparsity_as_int(self):
        for sparsity in (1, np.int64(1), np.uint32(1)):
            assert type(TernaryCode(np.array([1, 0, 0]), sparsity).sparsity) is int
            assert type(CodeMatrix(np.array([[1], [0], [0]]), sparsity).sparsity) is int
        for sparsity in (1.0, "1", None):
            with pytest.raises(InvalidSparsityError, match="sparsity must be an integer"):
                TernaryCode(np.array([1, 0, 0]), sparsity)
            with pytest.raises(InvalidSparsityError, match="sparsity must be an integer"):
                CodeMatrix(np.array([[1], [0], [0]]), sparsity)

    def test_ternary_code_enforces_exact_sparsity(self):
        with pytest.raises(InvalidSparsityError):
            TernaryCode(np.array([1, 0, 0, 0]), 2)
        with pytest.raises(InvalidInputError):
            TernaryCode(np.array([2, 0, 0, 0]), 1)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.integers(1, 6),
        st.sampled_from(["none", "two", "half", "extra", "missing"]),
        st.sampled_from([np.int8, np.int64, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_code_matrix_agrees_with_per_column_codes(self, seed, length, num_cols, corruption, dtype):
        rng = np.random.default_rng(seed)
        sparsity = int(rng.integers(1, length))
        cols = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(num_cols)])
        m = cols.astype(np.float64 if corruption == "half" else dtype)
        j = int(rng.integers(num_cols))
        if corruption == "two":
            m[int(rng.integers(length)), j] = 2
        elif corruption == "half":
            m[int(rng.integers(length)), j] = 0.5
        elif corruption == "extra":
            m[int(rng.choice(np.flatnonzero(m[:, j] == 0))), j] = rng.choice([-1, 1])
        elif corruption == "missing":
            m[int(rng.choice(np.flatnonzero(m[:, j]))), j] = 0

        def outcome(build):
            try:
                return build()
            except (InvalidInputError, InvalidSparsityError) as exc:
                return type(exc)

        expected = {"two": InvalidInputError, "half": InvalidInputError,
                    "extra": InvalidSparsityError, "missing": InvalidSparsityError}.get(corruption)
        per_column = outcome(lambda: [TernaryCode(m[:, k], sparsity) for k in range(num_cols)])
        batched = outcome(lambda: CodeMatrix(m, sparsity))
        if expected is not None:
            assert per_column is expected
            assert batched is expected
        else:
            assert batched.codes.dtype == np.int8
            assert not batched.codes.flags.writeable
            assert np.array_equal(batched.codes, np.column_stack([c.symbols for c in per_column]))
            assert batched.num_groups == num_cols and batched.code_length == length

    def test_model_config_invariants(self):
        with pytest.raises(ConfigError):
            ModelConfig(code_length=8, sparsity=8, num_groups=2)
        for weight in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(ConfigError, match="within_weight must be finite and > 0"):
                ModelConfig(code_length=8, sparsity=2, num_groups=2, within_weight=weight)

    def test_ternarize_columns_shape(self):
        rng = np.random.default_rng(9)
        m = ternarize_columns(rng.standard_normal((6, 5)), 2)
        assert m.shape == (6, 5)
        assert all(int(np.count_nonzero(m[:, j])) == 2 for j in range(5))
