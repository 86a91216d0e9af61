import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.core import CodeMatrix, ModelConfig, ProjectionMatrix, SignatureMatrix, TernaryCode, embed
from gmkit.data import Dataset, SyntheticSpec, generate
from gmkit.errors import ConfigError, DimensionError, GmkitError, InvalidInputError
from gmkit.evaluation import (
    IdentificationReport,
    QuerySet,
    RocCurve,
    SecurityReport,
    _distances,
    _gain,
    _residual_mse,
    identification_report,
    identification_sweep,
    pfn_at_pfp,
    query_set_from_dataset,
    security_report,
    threshold_at_pfp,
    verification_sweep,
)
from gmkit import evaluation
from gmkit.learning import AssignmentMatrix, Model, train


def unit(v):
    return v / np.linalg.norm(v)


def random_code(length, sparsity, rng):
    symbols = np.zeros(length, dtype=np.int8)
    support = rng.choice(length, size=sparsity, replace=False)
    symbols[support] = rng.choice([-1, 1], size=sparsity)
    return TernaryCode(symbols, sparsity)


def build_model(projection, codes, reps, group_of, sparsity, seed=0):
    config = ModelConfig(
        code_length=projection.shape[1],
        sparsity=sparsity,
        num_groups=reps.shape[1],
        seed=seed,
    )
    w = ProjectionMatrix(projection)
    return Model(
        w,
        CodeMatrix(codes, sparsity),
        CodeMatrix(reps, sparsity),
        AssignmentMatrix(group_of, reps.shape[1]),
        config,
        (),
    )


def toy_model(num_groups=2, sparsity=2, dim=6, code_length=4, seed=0):
    """Projection = leading identity columns; representations random codes."""
    rng = np.random.default_rng(seed)
    reps = np.column_stack([random_code(code_length, sparsity, rng).symbols for _ in range(num_groups)])
    n = max(num_groups, 3)
    codes = np.column_stack([random_code(code_length, sparsity, rng).symbols for _ in range(n)])
    group_of = np.arange(n) % num_groups
    return build_model(np.eye(dim)[:, :code_length], codes, reps, group_of, sparsity)


def query_set(pairs, impostors):
    """The query set of (vector, group) pairs and impostor vectors."""
    return QuerySet(np.array([vec for vec, _ in pairs]), [group for _, group in pairs], np.array(impostors))


def query_for_code(model, code):
    """A unit vector whose embedding is exactly the given code."""
    lifted = model.projection.data @ code.symbols.astype(float)
    return unit(lifted)


# Per-query reference implementations, kept as oracles for the batched path.


def oracle_distances(model, code):
    diff = model.representations.codes.astype(np.int64) - code.symbols.astype(np.int64)[:, None]
    return np.sum(diff * diff, axis=0)


def oracle_embed(model, vec):
    return embed(model.projection, vec, model.config.sparsity)


def oracle_roc(genuine_scores, impostor_scores, max_threshold):
    genuine_scores, impostor_scores = np.array(genuine_scores), np.array(impostor_scores)
    thresholds = sorted(set(genuine_scores.tolist()) | set(impostor_scores.tolist()) | {-1, max_threshold})
    points = []
    for tau in thresholds:
        pfp = float(np.mean(impostor_scores <= tau))
        pfn = float(np.mean(genuine_scores > tau))
        points.append((float(tau), pfp, pfn))
    return RocCurve(tuple(points))


def oracle_verification_sweep(model, queries, rng):
    num_groups = model.representations.num_groups
    genuine_scores = [
        oracle_distances(model, oracle_embed(model, vec))[group] for vec, group in zip(queries.genuine, queries.groups)
    ]
    impostor_scores = [
        oracle_distances(model, oracle_embed(model, vec))[int(rng.integers(num_groups))] for vec in queries.impostors
    ]
    return oracle_roc(genuine_scores, impostor_scores, 4 * model.config.sparsity)


def oracle_identification_sweep(model, queries):
    genuine_scores = [int(np.min(oracle_distances(model, oracle_embed(model, vec)))) for vec in queries.genuine]
    impostor_scores = [int(np.min(oracle_distances(model, oracle_embed(model, vec)))) for vec in queries.impostors]
    return oracle_roc(genuine_scores, impostor_scores, 4 * model.config.sparsity)


def oracle_identification_report(model, queries, threshold):
    wrong = accepted = rejected = 0
    for vec, group in zip(queries.genuine, queries.groups):
        distances = oracle_distances(model, oracle_embed(model, vec))
        nearest = int(np.argmin(distances))
        if distances[nearest] > threshold:
            rejected += 1
            continue
        accepted += 1
        if nearest != group:
            wrong += 1
    pfn = rejected / (accepted + rejected)
    p_eps = 0.0 if accepted == 0 else wrong / accepted
    return IdentificationReport(pfn, p_eps, (1.0 - p_eps) * (1.0 - pfn), accepted == 0)


def oracle_reconstruct(projection, code, beta):
    return beta * (projection.data @ code.symbols.astype(np.float64))


def oracle_fit_beta(projection, codes, targets):
    num = den = 0.0
    for code, target in zip(codes, targets):
        lifted = projection.data @ code.symbols.astype(np.float64)
        num += float(np.dot(target, lifted))
        den += float(np.dot(lifted, lifted))
    return 0.0 if den == 0.0 else num / den


def oracle_security_report(signatures, queries, model):
    rep_codes = [model.representations.column(int(g)) for g in model.assignments.group_of]
    enrolled = list(signatures.data.T)
    beta = oracle_fit_beta(model.projection, rep_codes, enrolled)
    sec_errors = [
        float(np.sum((x - oracle_reconstruct(model.projection, code, beta)) ** 2)) for code, x in zip(rep_codes, enrolled)
    ]
    priv_errors = [
        float(np.sum((vec - oracle_reconstruct(model.projection, oracle_embed(model, vec), beta)) ** 2))
        for vec in queries.genuine
    ]
    d = signatures.dim
    return SecurityReport(float(np.mean(sec_errors)) / d, float(np.mean(priv_errors)) / d, beta)


def tie_heavy_case(seed, num_groups):
    """Representations drawn from a pool of one to three codes, so groups
    repeat, and queries that sit exactly on a pool code, on another code,
    outside the projection range (all magnitudes tied at zero) or anywhere.
    Most query-group distances tie.  Signatures lie near their group's lifted
    representation, as after training."""
    rng = np.random.default_rng(seed)
    code_length = int(rng.integers(3, 7))
    sparsity = int(rng.integers(1, code_length))
    dim = code_length + 2
    pool = [random_code(code_length, sparsity, rng) for _ in range(int(rng.integers(1, 4)))]
    reps = np.column_stack([pool[i].symbols for i in rng.integers(len(pool), size=num_groups)])
    n = num_groups + int(rng.integers(0, 4))
    codes = np.column_stack([random_code(code_length, sparsity, rng).symbols for _ in range(n)])
    group_of = np.arange(n) % num_groups
    projection = np.eye(dim)[:, :code_length]
    model = build_model(projection, codes, reps, group_of, sparsity)

    def query():
        kind = rng.integers(4)
        if kind == 0:
            return query_for_code(model, pool[rng.integers(len(pool))])
        if kind == 1:
            return query_for_code(model, random_code(code_length, sparsity, rng))
        if kind == 2:
            return np.eye(dim)[:, -1]
        return unit(rng.standard_normal(dim))

    genuine = tuple((query(), int(rng.integers(num_groups))) for _ in range(int(rng.integers(1, 12))))
    impostors = tuple(query() for _ in range(int(rng.integers(1, 12))))
    near = projection @ reps[:, group_of].astype(float) + 0.5 * rng.standard_normal((dim, n))
    signatures = SignatureMatrix(near / np.linalg.norm(near, axis=0))
    return model, query_set(genuine, impostors), signatures


class TestVerify:
    """The verification rule, distance to the claimed group <= threshold, as
    the sweep applies it."""

    def test_exact_match_accepts_at_zero(self):
        model = toy_model()
        genuine = query_for_code(model, model.representations.column(0))[None]
        roc = verification_sweep(model, QuerySet(genuine, [0], unit(np.ones(6))[None]), np.random.default_rng(0))
        assert [pfn for tau, _, pfn in roc.points if tau == 0] == [0.0]

    def test_disjoint_support_rejects_below_two_s(self):
        reps = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int8)
        model = build_model(np.eye(6)[:, :4], np.column_stack([reps[:, 0]] * 3), reps, np.array([0, 0, 1]), 2)
        probe = model.representations.column(1)
        assert oracle_distances(model, probe)[0] == 4
        genuine = query_for_code(model, probe)[None]
        roc = verification_sweep(model, QuerySet(genuine, [0], genuine), np.random.default_rng(0))
        assert all(pfn == (1.0 if tau <= 3 else 0.0) for tau, _, pfn in roc.points)

    def test_batch_matches_plaintext_loop(self):
        rng = np.random.default_rng(1)
        model = toy_model(num_groups=4, sparsity=3, code_length=8, dim=10, seed=2)
        codes = [random_code(8, 3, rng) for _ in range(100)]
        groups = rng.integers(4, size=len(codes))
        genuine = np.array([query_for_code(model, code) for code in codes])
        roc = verification_sweep(model, QuerySet(genuine, groups, genuine[:1]), np.random.default_rng(0))
        # the points hold every observed distance, where alone the step function pfn(tau) can move
        for tau, _, pfn in roc.points:
            accepted = sum(int(oracle_distances(model, code)[g]) <= tau for code, g in zip(codes, groups))
            assert pfn == (len(codes) - accepted) / len(codes)

    def test_group_out_of_range(self):
        model = toy_model()
        queries = QuerySet(query_for_code(model, model.representations.column(0))[None], [2], unit(np.ones(6))[None])
        with pytest.raises(ConfigError):
            verification_sweep(model, queries, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            identification_report(model, queries, 4)


class TestVerificationSweep:
    def test_perfect_genuine_gives_zero_pfn(self):
        model = toy_model(num_groups=2, sparsity=2)
        genuine = np.array([query_for_code(model, model.representations.column(g)) for g in (0, 1)])
        rng = np.random.default_rng(0)
        impostors = np.array([unit(rng.standard_normal(6)) for _ in range(5)])
        roc = verification_sweep(model, QuerySet(genuine, [0, 1], impostors), np.random.default_rng(1))
        for tau, _, pfn in roc.points:
            if tau >= 0:
                assert pfn == 0.0

    def test_impostors_matching_single_group_give_full_pfp(self):
        model = toy_model(num_groups=1, sparsity=2)
        rep = model.representations.column(0)
        genuine = query_for_code(model, rep)[None]
        impostors = np.array([query_for_code(model, rep) for _ in range(4)])
        roc = verification_sweep(model, QuerySet(genuine, [0], impostors), np.random.default_rng(2))
        for tau, pfp, _ in roc.points:
            if tau >= 0:
                assert pfp == 1.0

    def test_matches_exhaustive_recount(self):
        model = toy_model(num_groups=3, sparsity=2, code_length=6, dim=9, seed=3)
        rng = np.random.default_rng(4)
        genuine = tuple((unit(rng.standard_normal(9)), int(rng.integers(3))) for _ in range(12))
        impostors = tuple(unit(rng.standard_normal(9)) for _ in range(15))
        queries = query_set(genuine, impostors)

        claims_rng = np.random.default_rng(5)
        roc = verification_sweep(model, queries, claims_rng)

        # recount with an independent pass: replay the same claimed groups
        replay = np.random.default_rng(5)
        gen_scores = []
        for vec, group in genuine:
            code = embed(model.projection, vec, 2)
            gen_scores.append(int(oracle_distances(model, code)[group]))
        imp_scores = []
        for vec in impostors:
            code = embed(model.projection, vec, 2)
            claim = int(replay.integers(3))
            imp_scores.append(int(oracle_distances(model, code)[claim]))
        for tau, pfp, pfn in roc.points:
            assert pfp == pytest.approx(sum(s <= tau for s in imp_scores) / len(imp_scores))
            assert pfn == pytest.approx(sum(s > tau for s in gen_scores) / len(gen_scores))

    def test_endpoints_present(self):
        model = toy_model()
        genuine = query_for_code(model, model.representations.column(0))[None]
        impostors = query_for_code(model, model.representations.column(1))[None]
        roc = verification_sweep(model, QuerySet(genuine, [0], impostors), np.random.default_rng(0))
        taus = [p[0] for p in roc.points]
        assert taus[0] == -1.0
        assert taus[-1] == 4 * model.config.sparsity

    def test_empty_query_set_rejected(self):
        with pytest.raises(ConfigError):
            QuerySet(np.empty((0, 3)), [], np.ones((1, 3)))

    def test_non_integer_groups_rejected(self):
        e0, e1 = np.eye(6)[:, 0], np.eye(6)[:, 1]
        for group in (1.0, 2.5, -1):
            with pytest.raises(ConfigError):
                QuerySet(np.stack([e0, e1]), [0, group], e1[None])

    def test_query_vectors_checked(self):
        e0, e1 = np.eye(6)[:, 0], np.eye(6)[:, 1]
        with pytest.raises(DimensionError):
            QuerySet(e0[None], [0], np.eye(5)[:1])
        with pytest.raises(InvalidInputError):
            QuerySet(np.stack([e0, 2 * e1]), [0, 1], e1[None])
        # every shape is checked before any norm
        with pytest.raises(DimensionError):
            QuerySet([2 * e0, np.eye(5)[:, 0]], [0, 1], e1[None])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError):
                QuerySet(np.full((1, 6), bad), [0], e1[None])
            with pytest.raises(InvalidInputError):
                QuerySet(e0[None], [0], np.stack([e1, np.where(e1 > 0, bad, 0.0)]))
        # queries must also match the model's projection
        queries = QuerySet(np.eye(7)[:1], [0], np.eye(7)[1:2])
        with pytest.raises(DimensionError):
            verification_sweep(toy_model(), queries, np.random.default_rng(0))


class TestPfnAtPfp:
    def test_point_exactly_at_target(self):
        roc = RocCurve(((-1.0, 0.0, 1.0), (2.0, 0.05, 0.4), (8.0, 0.5, 0.1)))
        assert pfn_at_pfp(roc, 0.05) == 0.4

    def test_separable_scores_reach_zero(self):
        roc = RocCurve(((-1.0, 0.0, 1.0), (2.0, 0.0, 0.0), (8.0, 1.0, 0.0)))
        assert pfn_at_pfp(roc, 0.05) == 0.0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(6)
        model = toy_model(num_groups=3, sparsity=2, code_length=6, dim=9, seed=7)
        genuine = tuple((unit(rng.standard_normal(9)), int(rng.integers(3))) for _ in range(20))
        impostors = tuple(unit(rng.standard_normal(9)) for _ in range(20))
        roc = verification_sweep(model, query_set(genuine, impostors), np.random.default_rng(8))
        for target in (0.05, 0.1, 0.3, 0.7):
            best = None
            for tau, pfp, pfn in roc.points:
                if pfp <= target:
                    best = (tau, pfn) if best is None or tau > best[0] else best
            assert pfn_at_pfp(roc, target) == best[1]

    def test_rejects_bad_target(self):
        roc = RocCurve(((-1.0, 0.0, 1.0),))
        with pytest.raises(ConfigError):
            pfn_at_pfp(roc, 0.0)


class TestIdentify:
    """The identification rule, the nearest group if it is within the
    threshold (the lowest index on ties), as the report applies it."""

    def test_exact_representation_found_at_any_nonnegative_tau(self):
        model = toy_model(num_groups=3, sparsity=2, code_length=6, dim=8, seed=9)
        genuine = query_for_code(model, model.representations.column(2))[None]
        for tau in range(0, 4 * 2 + 1):
            report = identification_report(model, QuerySet(genuine, [2], genuine), tau)
            assert (report.pfn, report.p_epsilon) == (0.0, 0.0)

    def test_negative_tau_returns_none(self):
        model = toy_model()
        genuine = query_for_code(model, model.representations.column(0))[None]
        report = identification_report(model, QuerySet(genuine, [0], genuine), -1)
        assert report.pfn == 1.0 and report.no_accepted_genuine

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(10)
        model = toy_model(num_groups=4, sparsity=2, code_length=8, dim=10, seed=11)
        codes = [random_code(8, 2, rng) for _ in range(100)]
        genuine = np.array([query_for_code(model, code) for code in codes])
        for tau in range(-1, 9):
            named = []
            for code in codes:
                distances = [int(d) for d in oracle_distances(model, code)]
                expected = None
                for g, dist in enumerate(distances):
                    if dist <= tau and (expected is None or dist < distances[expected]):
                        expected = g
                named.append(expected)
            # each accepted query claims the group the scan names, so any other name is an error
            groups = [0 if g is None else g for g in named]
            report = identification_report(model, QuerySet(genuine, groups, genuine[:1]), tau)
            accepted = sum(g is not None for g in named)
            assert report.pfn == (len(codes) - accepted) / len(codes)
            assert report.p_epsilon == 0.0


class TestIdentificationReport:
    def test_perfect_queries(self):
        model = toy_model(num_groups=2, sparsity=2, seed=12)
        r0, r1 = model.representations.column(0), model.representations.column(1)
        assert not np.array_equal(r0.symbols, r1.symbols)
        genuine = np.stack([query_for_code(model, r0), query_for_code(model, r1)])
        rng = np.random.default_rng(13)
        impostors = np.array([unit(rng.standard_normal(6)) for _ in range(4)])
        report = identification_report(model, QuerySet(genuine, [0, 1], impostors), 0)
        assert report.pfn == 0.0
        assert report.p_epsilon == 0.0
        assert report.dir_rate == 1.0

    def test_single_group_never_misidentifies(self):
        model = toy_model(num_groups=1, sparsity=2, seed=14)
        rng = np.random.default_rng(15)
        genuine = np.array([unit(rng.standard_normal(6)) for _ in range(6)])
        impostors = np.array([unit(rng.standard_normal(6)) for _ in range(6)])
        report = identification_report(model, QuerySet(genuine, [0] * 6, impostors), 4)
        assert report.p_epsilon == 0.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(16)
        model = toy_model(num_groups=3, sparsity=2, code_length=6, dim=9, seed=17)
        genuine = tuple((unit(rng.standard_normal(9)), int(rng.integers(3))) for _ in range(25))
        impostors = tuple(unit(rng.standard_normal(9)) for _ in range(10))
        queries = query_set(genuine, impostors)
        tau = 3
        report = identification_report(model, queries, tau)
        rejected = wrong = accepted = 0
        for vec, group in genuine:
            code = embed(model.projection, vec, 2)
            dists = [int(d) for d in oracle_distances(model, code)]
            dmin = min(dists)
            if dmin > tau:
                rejected += 1
            else:
                accepted += 1
                if dists.index(dmin) != group:
                    wrong += 1
        assert report.pfn == pytest.approx(rejected / len(genuine))
        expected_eps = 0.0 if accepted == 0 else wrong / accepted
        assert report.p_epsilon == pytest.approx(expected_eps)
        assert report.dir_rate == pytest.approx((1 - expected_eps) * (1 - report.pfn))

    def test_zero_accepted_flagged(self):
        model = toy_model(num_groups=2, sparsity=2, seed=18)
        rng = np.random.default_rng(19)
        genuine = np.array([unit(rng.standard_normal(6)) for _ in range(3)])
        impostors = unit(rng.standard_normal(6))[None]
        report = identification_report(model, QuerySet(genuine, [0] * 3, impostors), -1)
        assert report.no_accepted_genuine
        assert report.p_epsilon == 0.0
        assert report.pfn == 1.0


class TestReconstruction:
    """The attack's lift beta * W v and its fitted gain, as the security
    measure computes them for all codes at once."""

    def test_zero_gain_gives_zero_vector(self):
        model = toy_model()
        lifted = model.projection.data @ model.representations.codes.astype(np.float64)
        targets = np.random.default_rng(19).standard_normal(lifted.shape)
        assert _residual_mse(targets, lifted, 0.0) == float(np.mean(targets**2))

    def test_matches_matrix_vector_oracle(self):
        rng = np.random.default_rng(20)
        q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        for _ in range(20):
            code = random_code(6, 2, rng)
            beta = float(rng.uniform(-2, 2))
            expected = np.zeros(10)
            for i in range(6):
                expected += beta * q[:, i] * float(code.symbols[i])
            lifted = q @ code.symbols.astype(float)[:, None]
            # the residual against the loop's reconstruction is the reconstruction's own error
            assert _residual_mse(expected[:, None], lifted, beta) <= 1e-24

    def test_fit_beta_recovers_exact_gain(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        codes = np.column_stack([random_code(6, 2, rng).symbols for _ in range(5)]).astype(float)
        assert _gain(q @ codes, 0.75 * (q @ codes)) == pytest.approx(0.75)

    def test_fit_beta_orthogonal_targets_give_zero(self):
        q = np.eye(8)[:, :4]
        code = np.array([[1], [1], [0], [0]], dtype=float)
        targets = np.eye(8)[:, 7:]  # orthogonal to the projection range
        assert _gain(q @ code, targets) == 0.0

    def test_fit_beta_matches_golden_section_oracle(self):
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        codes = [random_code(5, 2, rng) for _ in range(8)]
        targets = [rng.standard_normal(12) for _ in range(8)]

        def loss(beta):
            return sum(float(np.sum((t - beta * (q @ c.symbols.astype(float))) ** 2)) for c, t in zip(codes, targets))

        lo, hi = -10.0, 10.0
        phi = (np.sqrt(5) - 1) / 2
        for _ in range(200):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if loss(m1) < loss(m2):
                hi = m2
            else:
                lo = m1
        lifted = q @ np.column_stack([c.symbols for c in codes]).astype(float)
        assert _gain(lifted, np.column_stack(targets)) == pytest.approx((lo + hi) / 2, abs=1e-6)

    def test_fit_beta_rejects_mismatched_pairs(self):
        model = toy_model()  # d = 6, three enrolled signatures
        queries = QuerySet(np.eye(6)[:1], [0], np.eye(6)[1:2])
        security_report(SignatureMatrix(np.eye(6)[:, :3]), queries, model)
        with pytest.raises(DimensionError):
            security_report(SignatureMatrix(np.eye(6)[:, :2]), queries, model)
        with pytest.raises(DimensionError):
            security_report(SignatureMatrix(np.eye(7)[:, :3]), queries, model)

    def test_gain_sums_match_separate_products_bit_for_bit(self):
        rng = np.random.default_rng(44)
        for dim, n in ((9, 4), (64, 300), (128, 1000)):
            lifted = rng.standard_normal((dim, n)) @ np.diag(rng.uniform(0.1, 3.0, n))
            for targets in (rng.standard_normal((dim, n)), np.asfortranarray(rng.standard_normal((dim, n)))):
                expected = float(np.sum(targets * lifted)) / float(np.sum(lifted * lifted))
                assert evaluation._gain(lifted, targets) == expected

    def test_near_lossless_code_reconstructs_with_small_residual(self):
        # signature inside the projection range with equal-magnitude support:
        # the fitted gain makes the reconstruction exact
        q, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((9, 4)))
        coeffs = np.array([0.5, -0.5, 0.5, 0.0])
        x = q @ coeffs
        lifted = q @ np.sign(coeffs)[:, None]
        beta = _gain(lifted, x[:, None])
        assert _residual_mse(x[:, None], lifted, beta) * len(x) <= 1e-18


class TestSecurityReport:
    def make_selfcoding_model(self, n=4, code_length=4, dim=8, sparsity=2, seed=24):
        """Singleton groups whose signatures are exactly reconstructable."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, code_length)))
        cols = []
        sigs = []
        for i in range(n):
            code = random_code(code_length, sparsity, rng)
            cols.append(code.symbols)
            sigs.append(unit(q @ code.symbols.astype(float)))
        codes = np.column_stack(cols)
        model = build_model(q, codes, codes.copy(), np.arange(n), sparsity)
        return model, SignatureMatrix(np.column_stack(sigs))

    def test_exactly_reconstructable_queries_give_zero_privacy_mse(self):
        model, signatures = self.make_selfcoding_model()
        genuine = signatures.data.T
        impostors = unit(np.ones(8))[None]
        report = security_report(signatures, QuerySet(genuine, np.arange(4), impostors), model)
        assert report.mse_privacy == pytest.approx(0.0, abs=1e-18)
        assert report.mse_security == pytest.approx(0.0, abs=1e-18)

    def test_singleton_groups_equalize_security_and_privacy(self):
        # zero-noise data: queries coincide with enrolled signatures, and with
        # one member per group both attacks address identical pairs; a
        # negligible within weight keeps learned codes equal to fresh
        # embeddings so the pairing is exact
        spec = SyntheticSpec(num_identities=12, samples_per_identity=2, dim=16, noise_sigma=0.0, impostor_fraction=0.25, seed=25)
        ds = generate(spec)
        config = ModelConfig(code_length=8, sparsity=7, num_groups=12, within_weight=1e-6, seed=26)
        model = train(ds.enrolled, config)
        queries = query_set_from_dataset(ds, model)
        report = security_report(ds.enrolled, queries, model)
        assert report.mse_security == pytest.approx(report.mse_privacy, abs=1e-12)

    def test_aggregation_hurts_reconstruction(self):
        spec = SyntheticSpec(num_identities=64, samples_per_identity=2, dim=32, noise_sigma=0.15, impostor_fraction=0.25, seed=27)
        ds = generate(spec)
        config = ModelConfig(code_length=16, sparsity=4, num_groups=8, seed=28)  # m = 8
        model = train(ds.enrolled, config)
        queries = query_set_from_dataset(ds, model)
        report = security_report(ds.enrolled, queries, model)
        assert report.mse_security > report.mse_privacy

    def test_rotation_invariance(self):
        spec = SyntheticSpec(num_identities=10, samples_per_identity=2, dim=12, noise_sigma=0.1, impostor_fraction=0.25, seed=29)
        ds = generate(spec)
        config = ModelConfig(code_length=6, sparsity=2, num_groups=5, seed=30)
        model = train(ds.enrolled, config)
        queries = query_set_from_dataset(ds, model)
        base = security_report(ds.enrolled, queries, model)

        rng = np.random.default_rng(31)
        rot, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        rotated_model = build_model(
            rot @ model.projection.data,
            model.codes.codes,
            model.representations.codes,
            model.assignments.group_of,
            model.config.sparsity,
        )
        rotated_sigs = SignatureMatrix(rot @ ds.enrolled.data)
        rotated_queries = QuerySet(queries.genuine @ rot.T, queries.groups, queries.impostors @ rot.T)
        rotated = security_report(rotated_sigs, rotated_queries, rotated_model)
        assert rotated.mse_security == pytest.approx(base.mse_security, rel=1e-9)
        assert rotated.mse_privacy == pytest.approx(base.mse_privacy, rel=1e-9)
        assert rotated.beta == pytest.approx(base.beta, rel=1e-9)


class TestRocCurveType:
    def test_monotonicity_enforced(self):
        with pytest.raises(ConfigError):
            RocCurve(((-1.0, 0.5, 1.0), (2.0, 0.1, 0.9)))  # pfp decreases
        with pytest.raises(ConfigError):
            RocCurve(((-1.0, 0.0, 0.1), (2.0, 0.1, 0.9)))  # pfn increases

    def test_identification_sweep_monotone_and_used_for_tau(self):
        rng = np.random.default_rng(32)
        model = toy_model(num_groups=3, sparsity=2, code_length=6, dim=9, seed=33)
        genuine = tuple((unit(rng.standard_normal(9)), int(rng.integers(3))) for _ in range(15))
        impostors = tuple(unit(rng.standard_normal(9)) for _ in range(15))
        queries = query_set(genuine, impostors)
        roc = identification_sweep(model, queries)
        tau = threshold_at_pfp(roc, 0.2)
        pfp_at_tau = [p for t, p, _ in roc.points if t == tau][0]
        assert pfp_at_tau <= 0.2


class TestBatchedMatchesOracles:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 7, 64, 128, 256]))
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_models(self, seed, num_groups):
        model, queries, signatures = tie_heavy_case(seed, num_groups)
        sparsity = model.config.sparsity

        # one vector draw of the impostor claims is the stream of per-impostor scalar draws
        scalar = np.random.default_rng(seed)
        drawn = np.random.default_rng(seed).integers(num_groups, size=len(queries.impostors))
        assert drawn.tolist() == [int(scalar.integers(num_groups)) for _ in queries.impostors]

        batched_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verification_sweep(model, queries, batched_rng) == oracle_verification_sweep(model, queries, oracle_rng)
        assert batched_rng.bit_generator.state == oracle_rng.bit_generator.state

        assert identification_sweep(model, queries) == oracle_identification_sweep(model, queries)
        for tau in range(-1, 4 * sparsity + 1):
            assert identification_report(model, queries, tau) == oracle_identification_report(model, queries, tau)

        report = security_report(signatures, queries, model)
        expected = oracle_security_report(signatures, queries, model)
        for field in ("mse_security", "mse_privacy", "beta"):
            assert getattr(report, field) == pytest.approx(getattr(expected, field), rel=1e-12, abs=0)

    def test_float_product_matches_int64_at_long_codes(self):
        rng = np.random.default_rng(40)
        length, sparsity = 2048, 1500
        reps = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(300)])
        queries = rng.integers(-1, 2, size=(length, 70)).astype(np.int8)
        queries[:, 0] = reps[:, 0]
        queries[:, 1] = -reps[:, 1]
        queries[:, 2] = 1
        model = SimpleNamespace(representations=CodeMatrix(reps, sparsity))
        distances = _distances(model, queries)
        for j in range(queries.shape[1]):
            diff = reps.astype(np.int64) - queries[:, j].astype(np.int64)[:, None]
            assert distances[j].tolist() == np.sum(diff * diff, axis=0).tolist()
        assert distances[0, 0] == 0 and distances[1, 1] == 4 * sparsity


def shared_signature_models():
    """Two models over the same signatures (dim 9, l = 6, S = 2) with 3 and 4
    groups, and the parts of a query set whose groups are valid for both."""
    rng = np.random.default_rng(50)
    dim, length, sparsity, n = 9, 6, 2, 8
    models = []
    for num_groups in (3, 4):
        q, _ = np.linalg.qr(rng.standard_normal((dim, length)))
        reps = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(num_groups)])
        codes = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(n)])
        models.append(build_model(q, codes, reps, np.arange(n) % num_groups, sparsity))
    near = rng.standard_normal((dim, n))
    signatures = SignatureMatrix(near / np.linalg.norm(near, axis=0))
    pairs = [(unit(rng.standard_normal(dim)), int(rng.integers(3))) for _ in range(14)]
    impostors = np.array([unit(rng.standard_normal(dim)) for _ in range(9)])
    return models, signatures, (np.array([vec for vec, _ in pairs]), [group for _, group in pairs], impostors)


def evaluation_pass(model, queries, signatures):
    """The four measures in the order the CLI and the benchmark run them."""
    roc = verification_sweep(model, queries, np.random.default_rng(3))
    ident_roc = identification_sweep(model, queries)
    tau = threshold_at_pfp(ident_roc, 0.05)
    return roc, ident_roc, identification_report(model, queries, tau), security_report(signatures, queries, model)


class TestQuerySetMemo:
    def test_one_pass_embeds_each_side_once(self, monkeypatch):
        calls = []
        original = evaluation.ternarize_columns

        def counted(matrix, sparsity):
            calls.append(matrix.shape)
            return original(matrix, sparsity)

        monkeypatch.setattr(evaluation, "ternarize_columns", counted)
        (model, _), signatures, parts = shared_signature_models()
        genuine, _, impostors = parts
        queries = QuerySet(*parts)
        identification_report(model, queries, 4)
        assert calls == [(6, len(genuine)), (6, len(impostors))]  # the first measure scores both sides
        security_report(signatures, queries, model)
        evaluation_pass(model, queries, signatures)
        assert calls == [(6, len(genuine)), (6, len(impostors))]
        evaluation_pass(model, QuerySet(*parts), signatures)
        assert len(calls) == 4

    def test_switching_models_matches_fresh_query_sets_and_oracles(self):
        (model_a, model_b), signatures, parts = shared_signature_models()
        shared = QuerySet(*parts)
        for model in (model_a, model_b, model_a):
            roc, ident_roc, report, security = evaluation_pass(model, shared, signatures)
            assert (roc, ident_roc, report, security) == evaluation_pass(model, QuerySet(*parts), signatures)
            assert roc == oracle_verification_sweep(model, shared, np.random.default_rng(3))
            assert ident_roc == oracle_identification_sweep(model, shared)
            assert report == oracle_identification_report(model, shared, threshold_at_pfp(ident_roc, 0.05))
            expected = oracle_security_report(signatures, shared, model)
            for field in ("mse_security", "mse_privacy", "beta"):
                assert getattr(security, field) == pytest.approx(getattr(expected, field), rel=1e-12, abs=0)
        assert evaluation_pass(model_a, shared, signatures)[0] != evaluation_pass(model_b, shared, signatures)[0]

    def test_stacked_vectors_are_a_read_only_copy(self):
        (model, _), signatures, (genuine, groups, impostors) = shared_signature_models()
        queries = QuerySet(genuine, groups, impostors)
        before = evaluation_pass(model, queries, signatures)
        for stacked in (queries.genuine, queries.impostors, queries.groups):
            assert not stacked.flags.writeable
        with pytest.raises(ValueError):
            queries.genuine[0, 0] = 0.0
        _, scores = queries._scored
        assert len(scores) == 3 and not any(part.flags.writeable for part in scores)
        genuine[0] = impostors[0]
        assert evaluation_pass(model, QuerySet(genuine, groups, impostors), signatures) != before
        assert evaluation_pass(model, queries, signatures) == before

    def test_pass_memory_bounded(self):
        rng = np.random.default_rng(41)
        dim, length, sparsity, n, num_groups = 128, 64, 8, 2048, 128
        projection, _ = np.linalg.qr(rng.standard_normal((dim, length)))
        x = rng.standard_normal((dim, n))
        x /= np.linalg.norm(x, axis=0)
        codes = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(n)])
        reps = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(num_groups)])
        model = build_model(projection, codes, reps, np.arange(n) % num_groups, sparsity)
        rows = rng.standard_normal((n + n // 2, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        groups = rng.integers(num_groups, size=n)
        signatures = SignatureMatrix(x)
        tracemalloc.start()
        try:
            evaluation_pass(model, QuerySet(rows[:n], groups, rows[n:]), signatures)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass peaked at 10.0 MiB when each measure embedded and scored its own queries
        assert peak < 10 * 2**20


class TestQuerySetFromDataset:
    def dataset_and_model(self):
        spec = SyntheticSpec(num_identities=24, samples_per_identity=3, dim=16, noise_sigma=0.1, impostor_fraction=0.25, seed=42)
        ds = generate(spec)
        model = train(ds.enrolled, ModelConfig(code_length=8, sparsity=2, num_groups=6, seed=43, max_outer_iters=3))
        return ds, model

    def test_built_from_the_dataset_matrices_without_a_copy(self):
        ds, model = self.dataset_and_model()
        checked = QuerySet(ds.genuine.copy(), model.assignments.group_of[ds.genuine_ids], ds.impostors.copy())
        queries = query_set_from_dataset(ds, model)
        assert np.shares_memory(queries.genuine, ds.genuine)
        assert np.shares_memory(queries.impostors, ds.impostors)
        assert np.array_equal(queries.genuine, checked.genuine)
        assert np.array_equal(queries.impostors, checked.impostors)
        assert np.array_equal(queries.groups, checked.groups) and not queries.groups.flags.writeable
        assert [(vec.tolist(), group) for vec, group in zip(queries.genuine, queries.groups.tolist())] == [
            (vec.tolist(), group) for vec, group in zip(checked.genuine, checked.groups.tolist())
        ]
        assert [vec.tolist() for vec in queries.impostors] == [vec.tolist() for vec in checked.impostors]
        assert evaluation_pass(model, queries, ds.enrolled) == evaluation_pass(model, checked, ds.enrolled)

    def test_read_only_views_of_writeable_arrays_are_copied(self):
        ds, model = self.dataset_and_model()
        bases = [ds.enrolled.data.copy(), ds.genuine.copy(), ds.genuine_ids.copy(),
                 model.assignments.group_of[ds.genuine_ids], ds.impostors.copy()]
        enrolled, genuine, ids, groups, impostors = views = [base[:] for base in bases]
        for view in views:
            view.setflags(write=False)
        dataset = Dataset(SignatureMatrix(enrolled), genuine, ids, impostors)
        queries = QuerySet(genuine, groups, impostors)
        held = [dataset.enrolled.data, dataset.genuine, dataset.genuine_ids, dataset.impostors,
                queries.genuine, queries.groups, queries.impostors]
        before = [array.copy() for array in held]
        for base in bases:
            base[0] = np.nan if base.dtype == np.float64 else 99
        for array, kept in zip(held, before):
            assert not array.flags.writeable and np.array_equal(array, kept)
            assert not any(np.shares_memory(array, base) for base in bases)

    def test_model_of_other_signatures_rejected(self):
        ds, _ = self.dataset_and_model()
        other = train(
            SignatureMatrix(ds.enrolled.data[:, :12]),
            ModelConfig(code_length=8, sparsity=2, num_groups=6, seed=43, max_outer_iters=2),
        )
        with pytest.raises(DimensionError):
            query_set_from_dataset(ds, other)

    def test_dataset_without_impostors_rejected(self):
        ds, model = self.dataset_and_model()
        with pytest.raises(ConfigError):
            query_set_from_dataset(Dataset(ds.enrolled, ds.genuine, ds.genuine_ids, ds.impostors[:0]), model)


# A fault in a query matrix or its labels, and the error class each
# constructor raises for it: a shape fault raises the constructor's shape
# error (ConfigError for Dataset, DimensionError for QuerySet).
VECTOR_FAULTS = {
    "ragged": "shape",
    "1-D": "shape",
    "3-D": "shape",
    "wrong width": "shape",
    "non-numeric": "input",
    "non-finite": "input",
}
LABEL_FAULTS = {"label count": "shape", "non-integer label": "label"}
FAULT_ERRORS = {
    Dataset: {"shape": ConfigError, "input": InvalidInputError, "label": ConfigError},
    QuerySet: {"shape": DimensionError, "input": InvalidInputError, "label": ConfigError},
}


def with_vector_fault(rows, fault, rng):
    """The unit rows (Q x d) with one fault that the constructors must reject."""
    if fault == "ragged":
        return [*rows, rows[0][:-1]]
    if fault == "1-D":
        return rows[0]
    if fault == "3-D":
        return rows[None]
    if fault == "wrong width":  # a zero column keeps every row unit norm
        return np.hstack([rows, np.zeros((len(rows), 1))])
    if fault == "non-numeric":
        kind = rng.integers(4)
        if kind == 0:
            return rows.astype(str)
        if kind == 1:
            return rows.astype(complex)
        bad = rows.astype(object)
        bad[rng.integers(len(rows)), rng.integers(rows.shape[1])] = None if kind == 2 else "x"
        return bad
    bad = rows.copy()
    bad[rng.integers(len(rows)), rng.integers(rows.shape[1])] = rng.choice([np.nan, np.inf, -np.inf])
    return bad


def with_label_fault(labels, fault, rng):
    if fault == "label count":
        return labels[:-1] if rng.integers(2) else [*labels, 0]
    kind = rng.integers(4)
    return [(float(x), str(x), None, bool(x % 2))[kind] for x in labels]


class TestMalformedQueryMatrices:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([Dataset, QuerySet]),
        st.sampled_from([*VECTOR_FAULTS, *LABEL_FAULTS]),
        st.sampled_from(["genuine", "impostors"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_fault_raises_its_library_error(self, seed, cls, fault, side):
        rng = np.random.default_rng(seed)
        dim, num_enrolled = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        rows = rng.standard_normal((int(rng.integers(2, 6)) + int(rng.integers(1, 6)), dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        num_genuine = int(rng.integers(1, len(rows)))
        parts = {
            "genuine": rows[:num_genuine],
            "labels": rng.integers(num_enrolled, size=num_genuine).tolist(),
            "impostors": rows[num_genuine:],
        }
        enrolled = rng.standard_normal((dim, num_enrolled))
        enrolled = SignatureMatrix(enrolled / np.linalg.norm(enrolled, axis=0))

        def build():
            if cls is Dataset:
                return Dataset(enrolled, parts["genuine"], parts["labels"], parts["impostors"])
            return QuerySet(parts["genuine"], parts["labels"], parts["impostors"])

        build()  # the unbroken parts are accepted
        if fault in VECTOR_FAULTS:
            parts[side] = with_vector_fault(parts[side], fault, rng)
            expected = FAULT_ERRORS[cls][VECTOR_FAULTS[fault]]
        else:
            parts["labels"] = with_label_fault(parts["labels"], fault, rng)
            expected = FAULT_ERRORS[cls][LABEL_FAULTS[fault]]
        with pytest.raises(GmkitError) as caught:
            build()
        assert type(caught.value) is expected, f"{fault} in {side}: {caught.value!r}"
