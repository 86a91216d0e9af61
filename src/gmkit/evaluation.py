"""Decision rules and error-rate estimation.

Verification accepts a claimed group when the integer squared distance
between the query code and that group's representation is at most the
threshold.  Open-set identification first accepts when the minimum distance
over all groups is at most the threshold, then names the nearest group.
Distances are always the exact componentwise integers, never the 2S - 2 p.r
shortcut, so nothing here relies on the exactly-S contract.

The reconstruction attacks model a curious server that knows the projection:
a code v is mapped back as beta * W v with a scalar gain beta fitted by
least squares.  One shared beta (fitted on the enrolled-signature /
group-representation pairs, the attack target of the security measure) is
used for both the security and the privacy mean squared errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ProjectionMatrix, SignatureMatrix, TernaryCode, _check_query_vectors, embed
from .data import Dataset
from .errors import ConfigError, DimensionError
from .learning import Model

TARGET_PFP = 0.05


@dataclass(frozen=True)
class QuerySet:
    """Genuine queries tagged with their true group, plus impostor queries."""

    genuine: tuple[tuple[np.ndarray, int], ...]
    impostors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.genuine or not self.impostors:
            raise ConfigError("query set needs at least one genuine and one impostor query")
        if any(group < 0 for _, group in self.genuine):
            raise ConfigError("negative group index")
        dim = self.genuine[0][0].size
        _check_query_vectors((vec for vec, _ in self.genuine), dim, "genuine query", DimensionError)
        _check_query_vectors(self.impostors, dim, "impostor query", DimensionError)


@dataclass(frozen=True)
class RocCurve:
    """(threshold, false positive rate, false negative rate) triples, sorted
    by threshold; pfp must be non-decreasing and pfn non-increasing."""

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ConfigError("empty ROC curve")
        taus = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigError("ROC thresholds must be strictly increasing")
        for (_, pfp_a, pfn_a), (_, pfp_b, pfn_b) in zip(self.points, self.points[1:]):
            if pfp_b < pfp_a - 1e-12:
                raise ConfigError("pfp must be non-decreasing in the threshold")
            if pfn_b > pfn_a + 1e-12:
                raise ConfigError("pfn must be non-increasing in the threshold")


@dataclass(frozen=True)
class IdentificationReport:
    """Open-set identification rates; dir_rate = (1 - p_epsilon) * (1 - pfn).

    ``no_accepted_genuine`` flags the degenerate case where the first step
    accepted no genuine query at all; p_epsilon is then defined as 0.
    """

    pfn: float
    p_epsilon: float
    dir_rate: float
    no_accepted_genuine: bool = False

    def __post_init__(self):
        expected = (1.0 - self.p_epsilon) * (1.0 - self.pfn)
        if abs(self.dir_rate - expected) > 1e-12:
            raise ConfigError("dir_rate must equal (1 - p_epsilon) * (1 - pfn)")


@dataclass(frozen=True)
class SecurityReport:
    """Reconstruction mean squared errors (per coordinate) and fitted gain."""

    mse_security: float
    mse_privacy: float
    beta: float

    def __post_init__(self):
        if self.mse_security < 0 or self.mse_privacy < 0:
            raise ConfigError("mean squared errors must be nonnegative")


def query_set_from_dataset(dataset: Dataset, model: Model) -> QuerySet:
    """Tag each genuine query with the learned group of its enrolled identity."""
    group_of = model.assignments.group_of
    genuine = tuple((vec, int(group_of[idx])) for vec, idx in dataset.genuine_queries)
    return QuerySet(genuine, dataset.impostors)


def embed_query(model: Model, signature: np.ndarray) -> TernaryCode:
    return embed(model.projection, signature, model.config.sparsity)


def group_distances(model: Model, code: TernaryCode) -> np.ndarray:
    """Integer squared distances from a code to every group representation."""
    if code.length != model.representations.code_length:
        raise DimensionError("code length does not match the model")
    diff = model.representations.codes.astype(np.int64) - code.symbols.astype(np.int64)[:, None]
    return np.sum(diff * diff, axis=0)


def verify(model: Model, code: TernaryCode, group: int, threshold: float) -> bool:
    """Accept the claim iff squared_distance(code, representation) <= threshold."""
    if not 0 <= group < model.representations.num_groups:
        raise ConfigError(f"group index {group} out of range [0, {model.representations.num_groups})")
    return bool(group_distances(model, code)[group] <= threshold)


def _roc_from_scores(genuine_scores: np.ndarray, impostor_scores: np.ndarray, max_threshold: int) -> RocCurve:
    thresholds = sorted(set(genuine_scores.tolist()) | set(impostor_scores.tolist()) | {-1, max_threshold})
    points = []
    for tau in thresholds:
        pfp = float(np.mean(impostor_scores <= tau))
        pfn = float(np.mean(genuine_scores > tau))
        points.append((float(tau), pfp, pfn))
    return RocCurve(tuple(points))


def verification_sweep(model: Model, queries: QuerySet, rng: np.random.Generator) -> RocCurve:
    """ROC over all observed distance thresholds.

    Genuine queries are embedded and compared against their true group; each
    impostor claims one uniformly drawn group (``rng`` makes the draw
    reproducible).  Endpoints tau = -1 (reject all) and tau = 4S (accept
    all) are always included.
    """
    num_groups = model.representations.num_groups
    genuine_scores = np.array(
        [group_distances(model, embed_query(model, vec))[group] for vec, group in queries.genuine]
    )
    impostor_scores = np.array(
        [
            group_distances(model, embed_query(model, vec))[int(rng.integers(num_groups))]
            for vec in queries.impostors
        ]
    )
    return _roc_from_scores(genuine_scores, impostor_scores, 4 * model.config.sparsity)


def pfn_at_pfp(roc: RocCurve, target: float) -> float:
    """False negative rate at the largest threshold with pfp <= target.

    Conservative operating point: no interpolation; the tau = -1 endpoint
    (pfp = 0) guarantees existence for any target in (0, 1).
    """
    if not 0 < target < 1:
        raise ConfigError(f"target false positive rate must lie in (0, 1), got {target}")
    best = None
    for _, pfp, pfn in roc.points:  # points sorted by tau, so the last hit wins
        if pfp <= target:
            best = pfn
    if best is None:
        raise ConfigError("ROC curve lacks the reject-all endpoint")
    return best


def identify(model: Model, code: TernaryCode, threshold: float) -> Optional[int]:
    """Nearest group index if its distance is within the threshold, else None.

    Ties are broken toward the lowest group index.
    """
    distances = group_distances(model, code)
    nearest = int(np.argmin(distances))
    if distances[nearest] > threshold:
        return None
    return nearest


def identification_sweep(model: Model, queries: QuerySet) -> RocCurve:
    """ROC of the open-set acceptance step (minimum distance over groups)."""
    genuine_scores = np.array(
        [int(np.min(group_distances(model, embed_query(model, vec)))) for vec, _ in queries.genuine]
    )
    impostor_scores = np.array(
        [int(np.min(group_distances(model, embed_query(model, vec)))) for vec in queries.impostors]
    )
    return _roc_from_scores(genuine_scores, impostor_scores, 4 * model.config.sparsity)


def threshold_at_pfp(roc: RocCurve, target: float) -> float:
    """Largest threshold whose empirical pfp stays at or below the target."""
    if not 0 < target < 1:
        raise ConfigError(f"target false positive rate must lie in (0, 1), got {target}")
    chosen = None
    for tau, pfp, _ in roc.points:
        if pfp <= target:
            chosen = tau
    if chosen is None:
        raise ConfigError("ROC curve lacks the reject-all endpoint")
    return chosen


def identification_report(model: Model, queries: QuerySet, threshold: float) -> IdentificationReport:
    """Open-set identification rates at a fixed acceptance threshold.

    p_epsilon is measured only over genuine queries accepted by the first
    step; with zero accepted queries it is defined as 0 and flagged.
    """
    wrong = 0
    accepted = 0
    rejected = 0
    for vec, group in queries.genuine:
        distances = group_distances(model, embed_query(model, vec))
        nearest = int(np.argmin(distances))
        if distances[nearest] > threshold:
            rejected += 1
            continue
        accepted += 1
        if nearest != group:
            wrong += 1
    total = accepted + rejected
    pfn = rejected / total
    no_accepted = accepted == 0
    p_eps = 0.0 if no_accepted else wrong / accepted
    return IdentificationReport(pfn, p_eps, (1.0 - p_eps) * (1.0 - pfn), no_accepted)


def reconstruct(projection: ProjectionMatrix, code: TernaryCode, beta: float) -> np.ndarray:
    """Linear reconstruction beta * W v of a signature from its code."""
    if code.length != projection.code_length:
        raise DimensionError("code length does not match projection columns")
    return beta * (projection.data @ code.symbols.astype(np.float64))


def fit_beta(projection: ProjectionMatrix, codes: list[TernaryCode], targets: list[np.ndarray]) -> float:
    """Scalar least squares gain: argmin_beta sum_i ||x_i - beta W v_i||^2.

    Closed form beta = sum_i x_i . W v_i / sum_i ||W v_i||^2; all-zero codes
    yield beta = 0.
    """
    if not codes or len(codes) != len(targets):
        raise ConfigError("need equally many codes and targets, at least one pair")
    num = 0.0
    den = 0.0
    for code, target in zip(codes, targets):
        lifted = projection.data @ code.symbols.astype(np.float64)
        if np.asarray(target).shape != lifted.shape:
            raise DimensionError("target dimension does not match projection rows")
        num += float(np.dot(target, lifted))
        den += float(np.dot(lifted, lifted))
    if den == 0.0:
        return 0.0
    return num / den


def security_report(signatures: SignatureMatrix, queries: QuerySet, model: Model) -> SecurityReport:
    """Reconstruction attack errors for enrolled signatures and queries.

    mse_security averages ||x_i - rec(r_{g(i)})||^2 over all enrolled
    signatures; mse_privacy averages ||q - rec(e(q))||^2 over the genuine
    query vectors.  Both are normalized per coordinate and share the beta
    fitted on the enrolled pairs.
    """
    if signatures.num_signatures != model.assignments.num_signatures:
        raise DimensionError("model was not trained on this signature matrix")
    d = signatures.dim
    group_of = model.assignments.group_of
    rep_codes = [model.representations.column(int(g)) for g in group_of]
    enrolled_targets = [signatures.column(i) for i in range(signatures.num_signatures)]
    beta = fit_beta(model.projection, rep_codes, enrolled_targets)

    sec_errors = [
        float(np.sum((x - reconstruct(model.projection, code, beta)) ** 2))
        for code, x in zip(rep_codes, enrolled_targets)
    ]
    priv_errors = [
        float(np.sum((vec - reconstruct(model.projection, embed_query(model, vec), beta)) ** 2))
        for vec, _ in queries.genuine
    ]
    return SecurityReport(
        mse_security=float(np.mean(sec_errors)) / d,
        mse_privacy=float(np.mean(priv_errors)) / d,
        beta=beta,
    )
