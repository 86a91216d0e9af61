import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.core import CodeMatrix, ModelConfig, ProjectionMatrix, SignatureMatrix, ternarize_columns
from gmkit import learning
from gmkit.data import SyntheticSpec, generate
from gmkit.errors import ConfigError, DimensionError, InvalidInputError
from gmkit.learning import (
    KMEANS_ITER_CAP,
    AssignmentMatrix,
    ObjectiveBreakdown,
    e_step,
    kmeans,
    objective,
    random_balanced_assignment,
    ry_step,
    train,
    train_random_assignment_baseline,
)
from gmkit.learning import _exact_argmin, _fix_empty, _group_sums, _nearest, _svd_projection


def unit_columns(a):
    return a / np.linalg.norm(a, axis=0)


def random_hash_matrix(code_length, n, sparsity, rng):
    cols = np.zeros((code_length, n), dtype=np.int8)
    for j in range(n):
        support = rng.choice(code_length, size=sparsity, replace=False)
        cols[support, j] = rng.choice([-1, 1], size=sparsity)
    return CodeMatrix(cols, sparsity)


def random_instance(rng, d=10, code_length=4, n=7, sparsity=2, num_groups=3):
    signatures = SignatureMatrix(unit_columns(rng.standard_normal((d, n))))
    q, _ = np.linalg.qr(rng.standard_normal((d, code_length)))
    projection = ProjectionMatrix(q)
    codes = random_hash_matrix(code_length, n, sparsity, rng)
    reps = CodeMatrix(random_hash_matrix(code_length, num_groups, sparsity, rng).codes, sparsity)
    group_of = rng.integers(num_groups, size=n)
    group_of[:num_groups] = np.arange(num_groups)  # no empty group
    assignments = AssignmentMatrix(group_of, num_groups)
    return signatures, projection, codes, CodeMatrix(reps.codes, sparsity), assignments


def with_entry(a, value):
    """A copy of ``a`` with one entry replaced by ``value``."""
    a = a.copy()
    a[1, 2] = value
    return a


def one_group(n):
    return AssignmentMatrix(np.zeros(n, dtype=np.int64), 1)


def embedding_cost(signatures, projection, codes):
    """The embedding part of :func:`objective`, with every code in one group."""
    reps = CodeMatrix(codes.codes[:, :1], codes.sparsity)
    projected = projection.data.T @ signatures.data
    return objective(projected, codes, reps, one_group(codes.num_groups), 1.0).embedding_cost


def within_trace(codes, reps, assignments):
    """The within trace of :func:`objective`."""
    return objective(np.zeros(codes.codes.shape), codes, reps, assignments, 1.0).within_trace


def loop_objective_parts(signatures, projection, codes, reps, assignments):
    """(embedding cost, within trace) by elementwise loops."""
    target = projection.data.T @ signatures.data
    emb = within = 0.0
    for j in range(codes.num_groups):
        r = reps.codes[:, assignments.group_of[j]].astype(float)
        e = codes.codes[:, j].astype(float)
        emb += sum((e[i] - target[i, j]) ** 2 for i in range(codes.code_length))
        within += float(np.sum((e - r) ** 2))
    return emb, within


class TestEmbeddingCost:
    def test_zero_on_perfect_fit(self):
        # axis-aligned signatures make an exactly representable target
        proj = ProjectionMatrix(np.eye(3)[:, :2])
        x = SignatureMatrix(np.eye(3)[:, :1])
        codes = CodeMatrix(np.array([[1], [0]], dtype=np.int8), 1)
        assert embedding_cost(x, proj, codes) == pytest.approx(0.0)

    def test_hand_computed_single_column(self):
        proj = ProjectionMatrix(np.eye(3)[:, :2])
        x = SignatureMatrix(np.array([[0.5], [0.5], [np.sqrt(0.5)]]))
        codes = CodeMatrix(np.array([[1], [0]], dtype=np.int8), 1)
        assert embedding_cost(x, proj, codes) == pytest.approx(0.5)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            signatures, projection, codes, _, _ = random_instance(rng)
            target = projection.data.T @ signatures.data
            expected = sum(
                (float(codes.codes[i, j]) - target[i, j]) ** 2
                for i in range(codes.code_length)
                for j in range(codes.num_groups)
            )
            assert embedding_cost(signatures, projection, codes) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        codes = CodeMatrix(np.array([[1], [0], [0]], dtype=np.int8), 1)
        with pytest.raises(DimensionError):
            objective(np.zeros((2, 1)), codes, codes, one_group(1), 1.0)


class TestScatterTraces:
    def test_zero_within_when_codes_equal_representations(self):
        codes = CodeMatrix(np.array([[1, 1], [-1, -1], [0, 0]], dtype=np.int8), 2)
        reps = CodeMatrix(np.array([[1], [-1], [0]], dtype=np.int8), 2)
        assignments = AssignmentMatrix(np.zeros(2, dtype=int), 1)
        assert within_trace(codes, reps, assignments) == 0.0

    def test_matches_definition_double_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, _, codes, reps, assignments = random_instance(rng)
            within = 0.0
            for i in range(codes.num_groups):
                r = reps.codes[:, assignments.group_of[i]].astype(float)
                e = codes.codes[:, i].astype(float)
                within += float(np.sum((e - r) ** 2))
            assert within_trace(codes, reps, assignments) == pytest.approx(within, abs=1e-9)


class TestObjective:
    def test_perfect_fit_total_is_zero(self):
        proj = ProjectionMatrix(np.eye(3)[:, :2])
        x = SignatureMatrix(np.eye(3)[:, :1])
        codes = CodeMatrix(np.array([[1], [0]], dtype=np.int8), 1)
        reps = CodeMatrix(np.array([[1], [0]], dtype=np.int8), 1)
        assignments = AssignmentMatrix(np.zeros(1, dtype=int), 1)
        breakdown = objective(proj.data.T @ x.data, codes, reps, assignments, 1.0)
        assert breakdown.embedding_cost == pytest.approx(0.0)
        assert breakdown.within_trace == pytest.approx(0.0)
        assert breakdown.total == pytest.approx(0.0)

    def test_matches_sum_of_component_oracles(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            signatures, projection, codes, reps, assignments = random_instance(rng)
            projected = projection.data.T @ signatures.data
            breakdown = objective(projected, codes, reps, assignments, 2.0)
            emb, within = loop_objective_parts(signatures, projection, codes, reps, assignments)
            assert breakdown.total == pytest.approx(emb + 2.0 * within, rel=1e-9)

    def test_shape_mismatch_is_dimension_error(self):
        rng = np.random.default_rng(15)
        codes = random_hash_matrix(4, 2, 1, rng)
        reps = random_hash_matrix(4, 1, 1, rng)
        objective(np.zeros((4, 2)), codes, reps, one_group(2), 1.0)
        for projected, r, assignments in [
            (np.zeros((4, 2)), random_hash_matrix(3, 1, 1, rng), one_group(2)),
            (np.zeros((4, 2)), reps, one_group(3)),
            (np.zeros((4, 2)), reps, AssignmentMatrix(np.array([0, 1]), 2)),
        ]:
            with pytest.raises(DimensionError):
                objective(projected, codes, r, assignments, 1.0)

    def test_from_parts_total_recomputable(self):
        breakdown = ObjectiveBreakdown.from_parts(3.0, 2.0, 1.5)
        recomputed = breakdown.embedding_cost + 1.5 * breakdown.within_trace
        assert abs(breakdown.total - recomputed) <= 1e-9 * max(1.0, abs(breakdown.total))


class TestWStep:
    def test_aligned_case_recovers_axes(self):
        x = SignatureMatrix(np.eye(4)[:, :2])
        codes = CodeMatrix(np.eye(2, dtype=np.int8), 1)
        w = _svd_projection(x, codes)
        assert embedding_cost(x, w, codes) <= 1e-18
        assert np.allclose(np.abs(w.data[:2, :]), np.eye(2))

    def test_attains_closed_form_optimum_for_orthogonal_signatures(self):
        # for orthogonal X the energy term ||W^T X||_F^2 is constant, so the
        # exact minimum is ||E||^2 + l - 2 * (nuclear norm of X E^T); the
        # one-shot update must attain it
        rng = np.random.default_rng(14)
        for trial in range(10):
            d = 12
            code_length = 5
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            x = SignatureMatrix(q)
            codes = random_hash_matrix(code_length, d, 2, rng)
            w = _svd_projection(x, codes)
            fit = embedding_cost(x, w, codes)
            dense = codes.codes.astype(float)
            nuclear = float(np.sum(np.linalg.svd(q @ dense.T, compute_uv=False)))
            optimum = float(np.sum(dense * dense)) + code_length - 2.0 * nuclear
            assert fit == pytest.approx(optimum, abs=1e-9)

    def test_beats_random_orthonormal_competitors(self):
        rng = np.random.default_rng(16)
        d, code_length, n = 16, 8, 50
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((d, n))))
        codes = random_hash_matrix(code_length, n, 3, rng)
        w = _svd_projection(signatures, codes)
        fit = embedding_cost(signatures, w, codes)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((d, code_length)))
            competitor = embedding_cost(signatures, ProjectionMatrix(q), codes)
            assert fit <= competitor + 1e-9

    def test_orthonormal_columns_after_update(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            signatures, _, codes, _, _ = random_instance(rng)
            w = _svd_projection(signatures, codes)
            gram = w.data.T @ w.data
            assert np.max(np.abs(gram - np.eye(codes.code_length))) <= 1e-8

    def test_degenerate_codes_use_completion(self):
        # a rank-1 code matrix fixes one column of W: the completion is
        # orthonormal, and tr(W^T X E^T) still reaches the nuclear norm of X E^T
        rng = np.random.default_rng(18)
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((5, 8))))
        one_col = np.zeros((3, 1), dtype=np.int8)
        one_col[0] = 1
        codes = CodeMatrix(np.repeat(one_col, 8, axis=1), 1)
        w = _svd_projection(signatures, codes)
        assert np.max(np.abs(w.data.T @ w.data - np.eye(3))) <= 1e-8
        cross = signatures.data @ codes.codes.T.astype(float)
        nuclear = float(np.sum(np.linalg.svd(cross, compute_uv=False)))
        assert float(np.trace(w.data.T @ cross)) == pytest.approx(nuclear, abs=1e-9)

    def test_rank_deficient_signatures_use_completion(self):
        # all identical signatures: no code matrix can raise the rank, so the
        # completion is returned instead of an error
        col = unit_columns(np.ones((5, 1)))
        signatures = SignatureMatrix(np.repeat(col, 6, axis=1))
        codes = random_hash_matrix(2, 6, 1, np.random.default_rng(19))
        w = _svd_projection(signatures, codes)
        assert np.max(np.abs(w.data.T @ w.data - np.eye(2))) <= 1e-8


class TestEStep:
    def test_zero_weight_reduces_to_plain_embedding(self):
        rng = np.random.default_rng(20)
        signatures, projection, _, reps, assignments = random_instance(rng)
        codes = e_step(projection.data.T @ signatures.data, reps, assignments, 0.0, 2)
        expected = ternarize_columns(projection.data.T @ signatures.data, 2)
        assert np.array_equal(codes.codes, expected)

    def test_huge_weight_copies_group_representations(self):
        rng = np.random.default_rng(21)
        signatures, projection, _, reps, assignments = random_instance(rng)
        codes = e_step(projection.data.T @ signatures.data, reps, assignments, 1e6, 2)
        expected = reps.codes[:, assignments.group_of]
        assert np.array_equal(codes.codes, expected)

    def test_matches_sum_then_ternarize_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            signatures, projection, _, reps, assignments = random_instance(rng)
            lam = float(rng.uniform(0.1, 3.0))
            codes = e_step(projection.data.T @ signatures.data, reps, assignments, lam, 2)
            for j in range(signatures.num_signatures):
                column_target = projection.data.T @ signatures.data[:, j] + lam * reps.codes[
                    :, assignments.group_of[j]
                ].astype(float)
                ranked = sorted(range(len(column_target)), key=lambda i: (-abs(column_target[i]), i))
                expected = np.zeros(len(column_target), dtype=int)
                for i in ranked[:2]:
                    expected[i] = -1 if column_target[i] < 0 else 1
                assert codes.codes[:, j].tolist() == expected.tolist()

    def test_shape_mismatch_is_dimension_error(self):
        rng = np.random.default_rng(23)
        signatures, projection, _, reps, assignments = random_instance(rng)
        projected = projection.data.T @ signatures.data
        with pytest.raises(DimensionError):
            e_step(projected[:, 1:], reps, assignments, 1.0, 2)
        with pytest.raises(DimensionError):
            e_step(projected[1:], reps, assignments, 1.0, 2)
        with pytest.raises(DimensionError):
            e_step(projected[0], reps, assignments, 1.0, 2)


def oracle_d2(p, c):
    return sum((a - b) ** 2 for a, b in zip(p, c))


def oracle_assign(pts, cents):
    """Exact nearest centroid of every point, ties to the lowest group."""
    assign = []
    for p in pts:
        dists = [oracle_d2(p, c) for c in cents]
        assign.append(dists.index(min(dists)))
    return assign


def oracle_reseed(pts, cents, assign):
    """Reseed empty groups in ascending order with the point farthest from
    its centroid (ties to the lowest point) among groups of two or more;
    updates ``cents`` and ``assign`` and returns the number reseeded."""
    sizes = [assign.count(g) for g in range(len(cents))]
    empty = [g for g in range(len(cents)) if sizes[g] == 0]
    for g in empty:
        eligible = [i for i in range(len(pts)) if sizes[assign[i]] >= 2]
        far = [oracle_d2(pts[i], cents[assign[i]]) for i in eligible]
        stolen = eligible[far.index(max(far))]
        cents[g] = list(pts[stolen])
        sizes[assign[stolen]] -= 1
        sizes[g] = 1
        assign[stolen] = g
    return len(empty)


def oracle_means(pts, assign, k):
    means = []
    for g in range(k):
        members = [p for p, a in zip(pts, assign) if a == g]
        means.append([sum(col) / len(members) for col in zip(*members)])
    return means


def oracle_kmeans(points, k, rng, iter_cap=KMEANS_ITER_CAP, initial=None):
    """Brute-force k-means in exact rationals: the reference for ``kmeans``.

    The same seeding draws, the same update order and the same rules as
    :func:`oracle_assign`, :func:`oracle_reseed` and :func:`oracle_means`.
    Given ``initial`` (a list of group indices, every group nonempty), it
    draws nothing: the centroids start at that assignment's means, the trace
    opens with its objective, and it counts as the previous assignment.
    Returns (centroids, assignment, objective trace, iterations), all exact.
    """
    pts = [[Fraction(int(v)) for v in row] for row in points]
    n = len(pts)
    trace = []

    def sse(assign):
        return sum(oracle_d2(p, cents[g]) for p, g in zip(pts, assign))

    def assign_step():
        assign = oracle_assign(pts, cents)
        trace.append(sse(assign))
        if oracle_reseed(pts, cents, assign):
            trace.append(sse(assign))
        return assign

    if initial is None:
        chosen = [int(rng.integers(n))]
        near = [oracle_d2(p, pts[chosen[0]]) for p in pts]
        for _ in range(1, k):
            total = sum(near)
            if total > 0:
                idx = int(rng.choice(n, p=np.array([float(v) for v in near]) / float(total)))
            else:
                idx = min(i for i in range(n) if i not in chosen)
            chosen.append(idx)
            near = [min(a, oracle_d2(p, pts[idx])) for a, p in zip(near, pts)]
        cents = [list(pts[i]) for i in chosen]
        prev = None
    else:
        prev = list(initial)
        cents = oracle_means(pts, prev, k)
        trace.append(sse(prev))

    iterations = 0
    for _ in range(iter_cap):
        iterations += 1
        assign = assign_step()
        if assign == prev:
            break
        prev = assign
        cents = oracle_means(pts, assign, k)
        trace.append(sse(assign))
    else:
        assign = assign_step()
        cents = oracle_means(pts, assign, k)
        trace.append(sse(assign))
    return cents, assign, trace, iterations


def oracle_grouping_objective(points, assign, k):
    """Exact k-means objective of ``assign`` with every group at its mean."""
    pts = [[Fraction(int(v)) for v in row] for row in points]
    cents = oracle_means(pts, assign, k)
    return sum(oracle_d2(p, cents[g]) for p, g in zip(pts, assign))


def random_full_assignment(rng, n, k):
    """A uniformly drawn assignment of n points to k groups, none empty."""
    group_of = rng.integers(k, size=n)
    group_of[rng.permutation(n)[:k]] = np.arange(k)
    return group_of


def tie_heavy_codes(rng, n, pool):
    """n short codes drawn from a pool of ``pool`` codes: duplicate codes,
    equidistant groups and coincident centroids are common."""
    code_length = int(rng.integers(3, 6))
    sparsity = int(rng.integers(1, 3))
    pool_codes = random_hash_matrix(code_length, pool, sparsity, rng).codes
    return CodeMatrix(pool_codes[:, rng.integers(pool, size=n)], sparsity)


def as_fractions(sums, counts):
    """Centroids held as integer sums over counts, as exact rationals."""
    return [[Fraction(int(v), int(c)) for v in row] for row, c in zip(sums, counts)]


def exact_ternarize(values, sparsity):
    ranked = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    out = [0] * len(values)
    for i in ranked[:sparsity]:
        out[i] = -1 if values[i] < 0 else 1
    return out


class TestKMeansAndRYStep:
    def test_singleton_groups_reproduce_codes(self):
        rng = np.random.default_rng(23)
        codes = random_hash_matrix(8, 5, 3, rng)
        reps, assignments = ry_step(codes, 5, np.random.default_rng(0))
        # every group holds exactly one code and its representation equals it
        assert sorted(assignments.group_of.tolist()) == [0, 1, 2, 3, 4]
        for i in range(5):
            g = assignments.group_of[i]
            assert np.array_equal(reps.codes[:, g], codes.codes[:, i])

    def test_two_separated_bundles_recovered(self):
        a = np.zeros(8, dtype=np.int8)
        a[:2] = 1
        b = np.zeros(8, dtype=np.int8)
        b[6:] = -1
        cols = np.column_stack([a, a, a, b, b, b])
        codes = CodeMatrix(cols, 2)
        reps, assignments = ry_step(codes, 2, np.random.default_rng(1))
        groups = assignments.group_of
        assert groups[0] == groups[1] == groups[2]
        assert groups[3] == groups[4] == groups[5]
        assert groups[0] != groups[3]
        assert np.array_equal(reps.codes[:, groups[0]], a)
        assert np.array_equal(reps.codes[:, groups[3]], b)

    def test_final_sse_beats_random_assignments(self):
        # three perturbed bundles of four codes each: k-means recovers them,
        # random assignments almost never do
        prototypes = np.zeros((8, 3), dtype=np.int8)
        prototypes[0:3, 0] = 1
        prototypes[3:6, 1] = -1
        prototypes[[6, 7, 0], 2] = 1
        cols = []
        for b in range(3):
            for copy in range(4):
                col = prototypes[:, b].copy()
                if copy == 3:  # move one nonzero to perturb the bundle
                    src = int(np.flatnonzero(col)[0])
                    dst = (src + 4) % 8
                    if col[dst] == 0:
                        col[dst] = col[src]
                        col[src] = 0
                cols.append(col)
        codes = CodeMatrix(np.column_stack(cols), 3)
        points = codes.codes.T
        result = kmeans(points, 3, np.random.default_rng(2))
        final_sse = result.objective_trace[-1]
        best_random = np.inf
        oracle_rng = np.random.default_rng(3)
        for _ in range(1000):
            assign = oracle_rng.integers(3, size=12)
            assign[:3] = [0, 1, 2]
            sse = 0.0
            for g in range(3):
                members = points[assign == g]
                centroid = members.mean(axis=0)
                sse += float(np.sum((members - centroid) ** 2))
            best_random = min(best_random, sse)
        assert final_sse <= best_random + 1e-9

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(25)
        for seed in range(10):
            codes = random_hash_matrix(8, 20, 3, rng)
            points = codes.codes.T
            result = kmeans(points, 4, np.random.default_rng(seed))
            trace = result.objective_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_duplicate_points_never_yield_empty_groups(self):
        col = np.zeros(6, dtype=np.int8)
        col[0] = 1
        cols = np.repeat(col.reshape(-1, 1), 7, axis=1)  # all seven codes identical
        codes = CodeMatrix(cols, 1)
        reps, assignments = ry_step(codes, 4, np.random.default_rng(4))
        assert assignments.num_groups == 4  # AssignmentMatrix forbids empty groups
        assert reps.num_groups == 4

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4), st.integers(1, 10), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_step_matches_fraction_oracle(self, seed, n, pool, k, outside):
        # one assignment, reseed and centroid update from an arbitrary
        # centroid state: means of pool codes, or of codes the data does not
        # hold, so groups tie, coincide and come out empty
        rng = np.random.default_rng(seed)
        codes = tie_heavy_codes(rng, n, pool)
        k = min(k, n)
        source = random_hash_matrix(codes.code_length, pool, codes.sparsity, rng).codes if outside else codes.codes
        counts = rng.integers(1, 4, size=k)
        sums = np.stack([source[:, rng.integers(source.shape[1], size=c)].sum(axis=1) for c in counts]).astype(np.int64)
        points = codes.codes.T.astype(np.int64)
        pts = [[Fraction(int(v)) for v in row] for row in points]
        cents = as_fractions(sums, counts)

        def check_distances():
            # _nearest's per-point value is the squared distance times n_a^2
            assert [Fraction(int(d), int(counts[a]) ** 2) for d, a in zip(dist, assign)] == [
                oracle_d2(p, cents[a]) for p, a in zip(pts, expected)
            ]

        assign, dist = _nearest(points.astype(float), np.sum(points * points, axis=1), sums, counts)
        expected = oracle_assign(pts, cents)
        assert assign.tolist() == expected
        check_distances()

        _fix_empty(points, assign, dist, sums, counts)
        oracle_reseed(pts, cents, expected)
        assert assign.tolist() == expected
        assert as_fractions(sums, counts) == cents
        check_distances()

        assert as_fractions(*_group_sums(points, assign, k)) == oracle_means(pts, expected, k)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 10),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([1, 2, KMEANS_ITER_CAP]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_kmeans_and_ry_step_match_fraction_oracle(self, seed, n, pool, k_is_n, iter_cap, data):
        codes = tie_heavy_codes(np.random.default_rng(seed), n, pool)
        k = n if k_is_n else data.draw(st.integers(1, n))
        got_rng = np.random.default_rng(seed + 1)
        result = kmeans(codes.codes.T, k, got_rng, iter_cap)
        oracle_rng = np.random.default_rng(seed + 1)
        cents, assign, trace, iterations = oracle_kmeans(codes.codes.T, k, oracle_rng, iter_cap)
        assert result.assignments.tolist() == assign
        assert result.iterations == iterations
        assert result.objective_trace == tuple(float(v) for v in trace)
        assert as_fractions(result.sums, result.counts) == cents
        assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
        if iter_cap == KMEANS_ITER_CAP:
            reps, assignments = ry_step(codes, k, np.random.default_rng(seed + 1))
            assert assignments.group_of.tolist() == assign
            expected = np.array([exact_ternarize(c, codes.sparsity) for c in cents]).T
            assert np.array_equal(reps.codes, expected)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4), st.sampled_from([1, 2, KMEANS_ITER_CAP]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_warm_kmeans_and_ry_step_match_fraction_oracle(self, seed, n, pool, iter_cap, data):
        # a random valid initial assignment on tie-heavy codes: its means
        # often coincide and tie, so assignment steps empty groups and reseed
        rng = np.random.default_rng(seed)
        codes = tie_heavy_codes(rng, n, pool)
        k = data.draw(st.integers(1, n))
        initial = AssignmentMatrix(random_full_assignment(rng, n, k), k)
        got_rng = np.random.default_rng(seed + 1)
        untouched = got_rng.bit_generator.state
        result = kmeans(codes.codes.T, k, got_rng, iter_cap, initial)
        cents, assign, trace, iterations = oracle_kmeans(codes.codes.T, k, None, iter_cap, initial.group_of.tolist())
        assert result.assignments.tolist() == assign
        assert result.iterations == iterations
        assert result.objective_trace == tuple(float(v) for v in trace)
        assert as_fractions(result.sums, result.counts) == cents
        assert got_rng.bit_generator.state == untouched
        # block descent: no higher than the initial assignment at its means
        assert trace[0] == oracle_grouping_objective(codes.codes.T, initial.group_of.tolist(), k)
        assert trace[-1] <= trace[0]
        if iter_cap == KMEANS_ITER_CAP:
            reps, assignments = ry_step(codes, k, got_rng, initial)
            assert assignments.group_of.tolist() == assign
            expected = np.array([exact_ternarize(c, codes.sparsity) for c in cents]).T
            assert np.array_equal(reps.codes, expected)
            assert got_rng.bit_generator.state == untouched

    def test_warm_start_at_a_fixed_point_makes_one_assignment_step(self, monkeypatch):
        codes = random_hash_matrix(16, 200, 4, np.random.default_rng(33))
        cold = kmeans(codes.codes.T, 12, np.random.default_rng(34))
        assert cold.iterations < KMEANS_ITER_CAP  # converged, so a fixed point
        calls = []
        real_nearest = learning._nearest
        monkeypatch.setattr(learning, "_nearest", lambda *args: calls.append(1) or real_nearest(*args))
        monkeypatch.setattr(learning, "_kmeans_pp_init", None)  # a warm start must not seed
        warm = kmeans(codes.codes.T, 12, np.random.default_rng(35), initial=AssignmentMatrix(cold.assignments, 12))
        assert len(calls) == 1
        assert warm.iterations == 1
        assert np.array_equal(warm.assignments, cold.assignments)
        assert np.array_equal(warm.sums, cold.sums) and np.array_equal(warm.counts, cold.counts)
        assert warm.objective_trace == (cold.objective_trace[-1],) * 2

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_iteration_cap_returns_the_sums_of_its_assignment(self, warm):
        codes = random_hash_matrix(16, 200, 4, np.random.default_rng(37))
        points, k = codes.codes.T, 12
        initial = AssignmentMatrix(random_full_assignment(np.random.default_rng(38), 200, k), k) if warm else None
        assert kmeans(points, k, np.random.default_rng(39), initial=initial).iterations > 2  # not converged at 1
        result = kmeans(points, k, np.random.default_rng(39), iter_cap=1, initial=initial)
        sums, counts = _group_sums(points, result.assignments, k)
        assert np.array_equal(result.sums, sums) and np.array_equal(result.counts, counts)
        trace = result.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize(
        "group_of, num_groups, error",
        [
            pytest.param([0, 1, 0, 1], 2, DimensionError, id="too-short"),
            pytest.param([0, 1, 0, 1, 0, 1], 2, DimensionError, id="too-long"),
            pytest.param([0, 1, 2, 1, 0], 3, ConfigError, id="more-groups"),
            pytest.param([0, 0, 0, 0, 0], 1, ConfigError, id="fewer-groups"),
        ],
    )
    def test_bad_initial_assignment_is_a_clean_error(self, group_of, num_groups, error):
        codes = random_hash_matrix(6, 5, 2, np.random.default_rng(36))
        initial = AssignmentMatrix(np.array(group_of), num_groups)
        with pytest.raises(error):
            kmeans(codes.codes.T, 2, np.random.default_rng(0), initial=initial)
        with pytest.raises(error):
            ry_step(codes, 2, np.random.default_rng(0), initial)

    def test_exact_argmin_settles_what_floats_cannot(self):
        # (2**53 + 1) / 2**53 and 1 / 1 are both 1.0 as floats; the second is smaller
        assert _exact_argmin(np.array([[2**53 + 1, 1]]), np.array([2**53, 1])).tolist() == [1]
        # equal rationals written differently go to the lowest column
        assert _exact_argmin(np.array([[3, 1, 2]]), np.array([9, 3, 4])).tolist() == [0]
        # negated values give the exact maximum, ties to the lowest column
        assert _exact_argmin(np.array([[-(2**53 + 1), -1, -2]]), np.array([2**53, 1, 2])).tolist() == [0]
        assert _exact_argmin(np.array([[-1, -(2**53 + 1), -2]]), np.array([1, 2**53, 2])).tolist() == [1]

    def test_nearest_settles_ties_below_float_resolution(self):
        # p . s_g comes within 2**50 of the 2**53 limit of exact float64 sums;
        # every score ||s_g||^2 / n_g^2 - 2 p . s_g / n_g is then -||p||^2 plus
        # a squared distance below the float64 spacing of 1/2 at that magnitude
        big = 3 * 2**24
        sums = np.array([[2 * big + 1], [3 * big - 1], [3 * big + 1], [big + 1]], dtype=np.int64)
        counts = np.array([2, 3, 3, 1])
        points = np.array([[big], [big - 1], [big + 1]], dtype=np.int64)
        assert int(np.max(np.abs(points @ sums.T))) < 2**53
        cents = as_fractions(sums, counts)
        pts = [[Fraction(int(v)) for v in row] for row in points]
        expected = oracle_assign(pts, cents)
        # 1/9 ties 1/9 and beats 1/4 and 1
        assert expected == [1, 1, 3]
        # rounded exactly once, the scores of the first point put group 0 first
        scores = [float(oracle_d2(pts[0], c) - oracle_d2(pts[0], [0])) for c in cents]
        assert int(np.argmin(scores)) == 0
        assign, dist = _nearest(points.astype(float), np.sum(points * points, axis=1), sums, counts)
        assert assign.tolist() == expected
        assert [Fraction(int(d), int(counts[a]) ** 2) for d, a in zip(dist, assign)] == [
            oracle_d2(p, cents[a]) for p, a in zip(pts, expected)
        ]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_nearest_matches_fraction_oracle_near_range_limit(self, seed, dim, n, k):
        # points and centroids a few units apart, so close to the 2**53 limit
        # on |p . s_g| that the scores differ below the float64 spacing
        rng = np.random.default_rng(seed)
        amax = int(np.sqrt(2**53 / (3 * dim))) - 16
        centre = rng.integers(amax - amax // 8, amax - 2, size=dim) * rng.choice([-1, 1], size=dim)
        points = centre + rng.integers(-2, 3, size=(n, dim))
        counts = rng.integers(1, 4, size=k)
        sums = np.stack([c * centre + rng.integers(-2 * c, 2 * c + 1, size=dim) for c in counts]).astype(np.int64)
        assert int(np.max(np.abs(points @ sums.T))) < 2**53
        pts = [[Fraction(int(v)) for v in row] for row in points]
        cents = as_fractions(sums, counts)
        expected = oracle_assign(pts, cents)
        assign, dist = _nearest(points.astype(float), np.sum(points * points, axis=1), sums, counts)
        assert assign.tolist() == expected
        assert [Fraction(int(d), int(counts[a]) ** 2) for d, a in zip(dist, assign)] == [
            oracle_d2(p, cents[a]) for p, a in zip(pts, expected)
        ]

    @pytest.mark.parametrize(
        "bad, error",
        [
            pytest.param([[0.0, 1.0], [0.5, 0.0]], InvalidInputError, id="non-integer"),
            pytest.param([[0.0, 1.0], [np.nan, 0.0]], InvalidInputError, id="nan"),
            pytest.param([[0.0, 1.0], [np.inf, 0.0]], InvalidInputError, id="inf"),
            pytest.param([[0.0, 1.0], [2.0**40, 0.0]], InvalidInputError, id="past-exact-range"),
            pytest.param([0.0, 1.0], DimensionError, id="one-dimensional"),
            pytest.param([[0.0, 1.0], [1.0]], DimensionError, id="ragged"),
            pytest.param(np.array([[0, 1], [1, 0]], dtype=complex), InvalidInputError, id="complex"),
            pytest.param(np.array([["0", "1"], ["1", "0"]]), InvalidInputError, id="string"),
        ],
    )
    def test_kmeans_rejects_points_outside_exact_integers(self, bad, error):
        with pytest.raises(error):
            kmeans(bad, 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "bad, error",
        [
            pytest.param(lambda p: with_entry(p, np.nan), InvalidInputError, id="nan"),
            pytest.param(lambda p: with_entry(p, np.inf), InvalidInputError, id="inf"),
            pytest.param(lambda p: p[0], DimensionError, id="one-dimensional"),
            pytest.param(lambda p: [row.tolist() for row in p[:-1]] + [p[-1, 1:].tolist()], DimensionError,
                         id="ragged"),
            pytest.param(lambda p: p.astype(complex), InvalidInputError, id="complex"),
            pytest.param(lambda p: p.astype(str), InvalidInputError, id="string"),
            pytest.param(lambda p: p.astype(object), InvalidInputError, id="object"),
        ],
    )
    def test_steps_reject_projected_outside_finite_real_matrices(self, bad, error):
        signatures, projection, codes, reps, assignments = random_instance(np.random.default_rng(25))
        projected = bad(projection.data.T @ signatures.data)
        with pytest.raises(error):
            e_step(projected, reps, assignments, 1.0, 2)
        with pytest.raises(error):
            objective(projected, codes, reps, assignments, 1.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_steps_reject_non_finite_weight_before_arithmetic(self, weight):
        signatures, projection, codes, reps, assignments = random_instance(np.random.default_rng(25))
        projected = projection.data.T @ signatures.data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="within_weight must be finite"):
                e_step(projected, reps, assignments, weight, 2)
            with pytest.raises(InvalidInputError, match="within_weight must be finite"):
                objective(projected, codes, reps, assignments, weight)

    def test_steps_reject_overflowing_projected_without_warning(self):
        # finite entries whose square (objective) or weighted sum (e_step)
        # overflows float64
        signatures, projection, codes, reps, assignments = random_instance(np.random.default_rng(25))
        projected = with_entry(projection.data.T @ signatures.data, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="embedding cost is not a finite float64"):
                objective(projected, codes, reps, assignments, 1.0)
            with pytest.raises(InvalidInputError, match="non-finite"):
                e_step(np.full(projected.shape, 1e308), reps, assignments, 1e308, 2)

    @pytest.mark.parametrize(
        "group_of, error",
        [
            pytest.param([0, [1]], DimensionError, id="ragged"),
            pytest.param([0.0, 1.0], ConfigError, id="float"),
            pytest.param(["0", "1"], ConfigError, id="string"),
            pytest.param(np.array([0, 1], dtype=complex), ConfigError, id="complex"),
        ],
    )
    def test_assignment_indices_must_be_integers(self, group_of, error):
        with pytest.raises(error):
            AssignmentMatrix(group_of, 2)

    def test_kmeans_memory_bounded_in_n_times_m(self):
        # an N x M x l float64 broadcast would take 64 MiB here
        codes = random_hash_matrix(128, 1024, 16, np.random.default_rng(31))
        tracemalloc.start()
        try:
            kmeans(codes.codes.T, 64, np.random.default_rng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestModel:
    @pytest.mark.parametrize(
        "member, message",
        [
            ("codes", "code length does not match the projection"),
            ("representations", "representation code length does not match the codes"),
            ("assignments", "assignment length does not match number of codes"),
            ("groups", "assignment group count does not match representations"),
        ],
    )
    def test_mismatched_members_are_dimension_errors(self, member, message):
        rng = np.random.default_rng(31)
        _, projection, codes, reps, assignments = random_instance(rng)
        members = dict(projection=projection, codes=codes, representations=reps, assignments=assignments)
        if member == "groups":
            members["representations"] = CodeMatrix(np.hstack([reps.codes, reps.codes[:, :1]]), 2)
        elif member == "assignments":
            members["assignments"] = AssignmentMatrix(assignments.group_of[:-1], assignments.num_groups)
        else:
            members[member] = CodeMatrix(np.vstack([members[member].codes, np.zeros_like(members[member].codes[:1])]), 2)
        config = ModelConfig(code_length=4, sparsity=2, num_groups=3)
        with pytest.raises(DimensionError, match=message):
            learning.Model(config=config, objective_trace=(), **members)


class TestModelConfig:
    @pytest.mark.parametrize("field, value", [
        ("code_length", 8.0), ("sparsity", 2.0), ("num_groups", 4.0), ("max_outer_iters", 2.5), ("seed", 1.5),
    ])
    def test_non_integer_size_is_config_error(self, field, value):
        kwargs = dict(code_length=8, sparsity=2, num_groups=4)
        kwargs[field] = value
        with pytest.raises(ConfigError) as err:
            ModelConfig(**kwargs)
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", ["1", None, 1j, np.complex128(1)])
    def test_non_real_weight_is_config_error(self, value):
        with pytest.raises(ConfigError) as err:
            ModelConfig(8, 2, 4, within_weight=value)
        assert str(err.value) == f"within_weight must be a real number, got {value!r}"


class TestTrain:
    def test_singleton_groups_reach_zero_within(self):
        rng = np.random.default_rng(27)
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((12, 6))))
        config = ModelConfig(code_length=6, sparsity=2, num_groups=6, within_weight=10.0, seed=5)
        model = train(signatures, config)
        assert model.objective_trace[-1].within_trace == pytest.approx(0.0)

    def test_identical_columns_single_group(self):
        col = unit_columns(np.arange(1.0, 9.0).reshape(-1, 1))
        signatures = SignatureMatrix(np.repeat(col, 5, axis=1))
        config = ModelConfig(code_length=3, sparsity=1, num_groups=1, seed=6)
        model = train(signatures, config)
        assert len(model.objective_trace) <= 2
        assert model.objective_trace[-1].within_trace == pytest.approx(0.0)

    def test_bit_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(num_identities=16, samples_per_identity=2, dim=12, noise_sigma=0.05, impostor_fraction=0.25, seed=1)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=6, sparsity=2, num_groups=4, seed=7)
        a = train(signatures, config)
        b = train(signatures, config)
        assert np.array_equal(a.projection.data, b.projection.data)
        assert np.array_equal(a.codes.codes, b.codes.codes)
        assert np.array_equal(a.representations.codes, b.representations.codes)
        assert np.array_equal(a.assignments.group_of, b.assignments.group_of)
        assert a.objective_trace == b.objective_trace

    def test_trace_entries_finite_and_recorded(self):
        spec = SyntheticSpec(num_identities=20, samples_per_identity=2, dim=16, noise_sigma=0.1, impostor_fraction=0.25, seed=2)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=8, sparsity=2, num_groups=5, seed=8, max_outer_iters=10)
        model = train(signatures, config)
        assert 1 <= len(model.objective_trace) <= 10
        for entry in model.objective_trace:
            assert np.isfinite(entry.total)

    def test_grouping_step_is_a_block_descent(self, monkeypatch):
        # every warm k-means call ends no higher than the previous assignment
        # scores on the new codes, exactly; its trace opens with that value
        spec = SyntheticSpec(num_identities=48, samples_per_identity=2, dim=16, noise_sigma=0.1, impostor_fraction=0.25, seed=5)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=8, sparsity=2, num_groups=6, max_outer_iters=6, seed=13)
        calls = []
        real_kmeans = learning.kmeans

        def recording_kmeans(points, k, rng, iter_cap=KMEANS_ITER_CAP, initial=None):
            result = real_kmeans(points, k, rng, iter_cap, initial)
            calls.append((np.array(points), k, initial, result))
            return result

        monkeypatch.setattr(learning, "kmeans", recording_kmeans)
        model = train(signatures, config)
        # one warm call per recorded iteration, after the seeded first one
        assert len(calls) == len(model.objective_trace) + 1
        assert calls[0][2] is None
        for (_, _, _, before), (points, k, initial, result) in zip(calls, calls[1:]):
            assert np.array_equal(initial.group_of, before.assignments)
            previous = oracle_grouping_objective(points, initial.group_of.tolist(), k)
            reached = oracle_grouping_objective(points, result.assignments.tolist(), k)
            assert result.objective_trace[0] <= float(previous)
            assert reached <= previous
        if len(model.objective_trace) < config.max_outer_iters:
            # an early stop is a repeated state: the same codes, grouped the same way
            (points_a, _, _, a), (points_b, _, _, b) = calls[-2:]
            assert np.array_equal(points_a, points_b)
            assert np.array_equal(a.assignments, b.assignments) and np.array_equal(a.sums, b.sums)

    def test_kmeans_pp_seeds_once_per_train(self, monkeypatch):
        spec = SyntheticSpec(num_identities=48, samples_per_identity=2, dim=16, noise_sigma=0.1, impostor_fraction=0.25, seed=6)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=8, sparsity=2, num_groups=6, max_outer_iters=5, seed=14)
        seeded = []
        real_init = learning._kmeans_pp_init
        monkeypatch.setattr(learning, "_kmeans_pp_init", lambda *args: seeded.append(1) or real_init(*args))
        train(signatures, config)
        assert len(seeded) == 1

    @pytest.mark.parametrize("baseline", [False, True], ids=["learned", "baseline"])
    def test_loop_calls_each_step_once_per_iteration(self, monkeypatch, baseline):
        # the loop reaches every step through its module-level name, so a
        # wrapper put there (a counter here, a timing span elsewhere) sees it
        spec = SyntheticSpec(num_identities=24, samples_per_identity=2, dim=16, noise_sigma=0.1, impostor_fraction=0.25, seed=7)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=8, sparsity=2, num_groups=6, max_outer_iters=4, seed=15)
        calls = dict.fromkeys(("_svd_projection", "e_step", "ry_step", "objective"), 0)
        states = []  # the (E, R, Y) each iteration ends in, as the objective sees it
        for name in calls:
            real = getattr(learning, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                if _name == "objective":
                    states.append(tuple(np.array(a) for a in (args[1].codes, args[2].codes, args[3].group_of)))
                return _real(*args, **kwargs)

            monkeypatch.setattr(learning, name, counting)
        if baseline:
            model = train_random_assignment_baseline(signatures, config, group_size=4)
        else:
            model = train(signatures, config)
        iters = len(model.objective_trace)
        assert 1 <= iters <= config.max_outer_iters
        # the learned loop also groups the initial codes before its first iteration
        expected_ry = 0 if baseline else iters + 1
        assert calls == {"_svd_projection": iters, "e_step": iters, "ry_step": expected_ry, "objective": iters}
        if iters < config.max_outer_iters:
            # the only early stop is a repeated state
            assert iters >= 2
            assert all(np.array_equal(a, b) for a, b in zip(states[-2], states[-1]))

    def test_seed_stability_of_final_objective(self):
        spec = SyntheticSpec(num_identities=32, samples_per_identity=2, dim=24, noise_sigma=0.1, impostor_fraction=0.25, seed=3)
        signatures = generate(spec).enrolled
        totals = []
        for seed in (11, 12):
            config = ModelConfig(code_length=12, sparsity=3, num_groups=8, seed=seed)
            totals.append(train(signatures, config).objective_trace[-1].total)
        assert abs(totals[0] - totals[1]) <= 0.10 * max(abs(totals[0]), abs(totals[1]))


# (data spec, model config, baseline group size) of the shapes the
# fixed-point stop is checked on: the CLI acceptance config, the
# protocol-session benchmark shape at seeds 2 and 3, and a small
# verify-batch-like shape, which at within_weight 0.2 stops after 10
# (learned) and 17 (baseline) of its 30 iterations
STOP_SHAPES = {
    "cli": (
        dict(num_identities=16, samples_per_identity=2, dim=16, noise_sigma=0.05, impostor_fraction=0.25, seed=4),
        dict(code_length=8, sparsity=2, num_groups=4, max_outer_iters=8, seed=3),
        4,
    ),
    **{
        f"protocol-session-seed-{seed}": (
            dict(num_identities=1024, samples_per_identity=4, dim=128, noise_sigma=0.07, impostor_fraction=0.25, seed=seed),
            dict(code_length=64, sparsity=8, num_groups=64, max_outer_iters=10, seed=seed),
            16,
        )
        for seed in (2, 3)
    },
    "verify-batch-like": (
        dict(num_identities=128, samples_per_identity=2, dim=32, noise_sigma=0.1, impostor_fraction=0.5, seed=1),
        dict(code_length=16, sparsity=4, num_groups=16, max_outer_iters=30, seed=1),
        8,
    ),
}


def stop_shape(name, within_weight):
    spec, model, group_size = STOP_SHAPES[name]
    return generate(SyntheticSpec(**spec)).enrolled, ModelConfig(within_weight=within_weight, **model), group_size


def train_either(signatures, config, group_size, baseline):
    if baseline:
        return train_random_assignment_baseline(signatures, config, group_size)
    return train(signatures, config)


def full_run_oracle(signatures, config, group_size, baseline):
    """(W, E, R, Y, trace, ||R Y||^2 per iteration) after all
    ``max_outer_iters`` iterations, with no stop: the loop's steps driven one
    by one from the same seeded generator."""
    rng = np.random.default_rng(config.seed)
    if baseline:
        fixed = random_balanced_assignment(signatures.num_signatures, config.num_groups, group_size, rng)

        def group(codes, _previous):
            sums, _ = _group_sums(codes.codes.T, fixed.group_of, fixed.num_groups)
            return CodeMatrix(ternarize_columns(sums.T, codes.sparsity), codes.sparsity), fixed
    else:
        def group(codes, previous):
            return ry_step(codes, config.num_groups, rng, previous)

    projection, codes = learning._init_state(signatures, config, rng)
    reps, assign = group(codes, None)
    trace, rep_norms = [], []
    for _ in range(config.max_outer_iters):
        projection = _svd_projection(signatures, codes)
        projected = projection.data.T @ signatures.data
        codes = e_step(projected, reps, assign, config.within_weight, config.sparsity)
        reps, assign = group(codes, assign)
        trace.append(objective(projected, codes, reps, assign, config.within_weight))
        rep_norms.append(int(np.sum(reps.codes[:, assign.group_of].astype(np.int64) ** 2)))
    return projection, codes, reps, assign, trace, rep_norms


class TestFixedPointStop:
    """Training stops at the first iteration that repeats its predecessor's
    (E, R, Y), and the stopped model is the one the full run gives."""

    @pytest.mark.parametrize("baseline", [False, True], ids=["learned", "baseline"])
    @pytest.mark.parametrize("within_weight", [1.0, 0.2, 0.1])
    @pytest.mark.parametrize("shape", list(STOP_SHAPES))
    def test_stopped_model_is_the_full_run(self, shape, within_weight, baseline):
        signatures, config, group_size = stop_shape(shape, within_weight)
        model = train_either(signatures, config, group_size, baseline)
        projection, codes, reps, assign, trace, _ = full_run_oracle(signatures, config, group_size, baseline)
        assert np.array_equal(model.projection.data, projection.data)
        assert np.array_equal(model.codes.codes, codes.codes)
        assert np.array_equal(model.representations.codes, reps.codes)
        assert np.array_equal(model.assignments.group_of, assign.group_of)
        stopped = list(model.objective_trace)
        assert trace[: len(stopped)] == stopped
        assert all(row == stopped[-1] for row in trace[len(stopped):])
        if within_weight == 1.0:
            # the codes copy their representations, and the loop settles after two iterations
            assert len(stopped) == 2

    @settings(max_examples=2000, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 12), st.floats(0.0, 4.0), st.booleans())
    def test_weight_above_twice_max_projection_copies_representations(self, seed, code_length, n, scale, at_bound):
        # on r_g's support |p_j + lambda r_gj| >= lambda - |p_j| > max|P|, and
        # off it the magnitude is |p_j| <= max|P|: e = r_g whenever lambda > 2 max|P|
        rng = np.random.default_rng(seed)
        sparsity = int(rng.integers(1, code_length))
        num_groups = int(rng.integers(1, n + 1))
        projected = scale * rng.uniform(-1.0, 1.0, (code_length, n))
        reps = random_hash_matrix(code_length, num_groups, sparsity, rng)
        group_of = rng.integers(num_groups, size=n)
        group_of[:num_groups] = np.arange(num_groups)  # no empty group
        assignments = AssignmentMatrix(group_of, num_groups)
        bound = 2 * float(np.max(np.abs(projected)))
        lam = float(np.nextafter(bound, np.inf)) if at_bound else bound * float(rng.uniform(1.0, 3.0)) + 1e-12
        codes = e_step(projected, reps, assignments, lam, sparsity)
        assert np.array_equal(codes.codes, reps.codes[:, group_of])

    @pytest.mark.parametrize("baseline", [False, True], ids=["learned", "baseline"])
    @pytest.mark.parametrize("within_weight", [1.0, 0.2])
    @pytest.mark.parametrize("shape", ["cli", "verify-batch-like"])
    def test_between_trace_is_n_times_s(self, shape, within_weight, baseline):
        # every representation has exactly S nonzeros, so the paper's
        # between-group term ||R Y||^2 is N S in every iteration: a constant,
        # which is why the objective leaves it out
        signatures, config, group_size = stop_shape(shape, within_weight)
        *_, rep_norms = full_run_oracle(signatures, config, group_size, baseline)
        assert rep_norms == [signatures.num_signatures * config.sparsity] * config.max_outer_iters


class TestRandomAssignmentBaseline:
    def test_group_size_one_copies_codes(self):
        rng = np.random.default_rng(28)
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((10, 5))))
        config = ModelConfig(code_length=4, sparsity=2, num_groups=5, seed=9)
        model = train_random_assignment_baseline(signatures, config, group_size=1)
        for i in range(5):
            g = model.assignments.group_of[i]
            assert np.array_equal(model.representations.codes[:, g], model.codes.codes[:, i])

    def test_sizing_guard(self):
        rng = np.random.default_rng(29)
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((10, 6))))
        config = ModelConfig(code_length=4, sparsity=2, num_groups=4, seed=10)
        with pytest.raises(ConfigError):
            train_random_assignment_baseline(signatures, config, group_size=2)

    def test_assignment_fixed_to_seeded_partition(self):
        rng = np.random.default_rng(30)
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((12, 8))))
        config = ModelConfig(code_length=6, sparsity=2, num_groups=4, seed=11)
        model = train_random_assignment_baseline(signatures, config, group_size=2)
        expected = random_balanced_assignment(8, 4, 2, np.random.default_rng(11))
        assert np.array_equal(model.assignments.group_of, expected.group_of)
        assert model.assignments.group_sizes().tolist() == [2, 2, 2, 2]

    def test_partition_matches_per_group_loop(self):
        for num_groups, group_size, seed in ((1, 1, 0), (1, 7, 1), (5, 1, 2), (4, 3, 3), (16, 16, 4)):
            n = num_groups * group_size
            rng = np.random.default_rng(seed)
            assignment = random_balanced_assignment(n, num_groups, group_size, rng)
            replay = np.random.default_rng(seed)
            perm = replay.permutation(n)
            expected = np.empty(n, dtype=np.int64)
            for g in range(num_groups):
                expected[perm[g * group_size : (g + 1) * group_size]] = g
            assert assignment.group_of.tolist() == expected.tolist()
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_learned_within_not_worse_on_clustered_data(self):
        spec = SyntheticSpec(num_identities=24, samples_per_identity=2, dim=24, noise_sigma=0.05, impostor_fraction=0.25, seed=4)
        signatures = generate(spec).enrolled
        config = ModelConfig(code_length=12, sparsity=3, num_groups=6, seed=12)
        learned = train(signatures, config)
        baseline = train_random_assignment_baseline(signatures, config, group_size=4)
        assert learned.objective_trace[-1].within_trace <= baseline.objective_trace[-1].within_trace
