"""Decision rules and error-rate estimation.

Verification accepts a claimed group when the integer squared distance
between the query code and that group's representation is at most the
threshold.  Open-set identification first accepts when the minimum distance
over all groups is at most the threshold, then names the nearest group.

A :class:`QuerySet` holds its genuine and its impostor queries as two
read-only Q x d matrices, one query per row, checked once at construction;
a writeable array it is built from is copied, so later changes to it do not
reach the measures.  Queries are embedded and scored once per query set and
model: the genuine and the impostor queries are each embedded with one
``ternarize_columns(W^T Q^T)`` and scored in one Q x M matrix of exact
integer distances ||e||^2 + ||r||^2 - 2 e.r, never the 2S - 2 p.r
shortcut, so nothing here relies on the exactly-S contract.  The
query set keeps those codes and matrices for the last model it was scored
against, and the sweeps, the report and the security measure index them.
e.r is a float64 matrix product and still exact: every entry is in
{-1, 0, +1}, so every partial sum is an integer of magnitude at most
l < 2**53, whatever order BLAS adds in.

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

from .core import ProjectionMatrix, SignatureMatrix, TernaryCode, _check_query_labels, _check_query_vectors, ternarize_columns
from .data import Dataset
from .errors import ConfigError, DimensionError
from .learning import Model

TARGET_PFP = 0.05
_NEEDS_BOTH_SIDES = "query set needs at least one genuine and one impostor query"


@dataclass(frozen=True)
class QuerySet:
    """Genuine queries tagged with their true group, plus impostor queries.

    ``genuine`` holds one genuine query per row (Q x d), ``groups`` the true
    group of each, and ``impostors`` one impostor query per row; construction
    checks each once and keeps it read-only.  The codes and distances the
    measures compute are kept for the last model scored (compared by
    identity), so the measures of one evaluation pass embed and score each
    query once.
    """

    genuine: np.ndarray
    groups: np.ndarray
    impostors: np.ndarray

    def __post_init__(self):
        genuine = _check_query_vectors(self.genuine, None, "genuine query", DimensionError)
        if not len(genuine):
            raise ConfigError(_NEEDS_BOTH_SIDES)
        groups = _check_query_labels(self.groups, len(genuine), "genuine query groups", DimensionError)
        if groups.min() < 0:
            raise ConfigError("negative group index")
        impostors = _check_query_vectors(self.impostors, genuine.shape[1], "impostor query", DimensionError)
        if not len(impostors):
            raise ConfigError(_NEEDS_BOTH_SIDES)
        object.__setattr__(self, "genuine", genuine)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "impostors", impostors)
        object.__setattr__(self, "_scored", (None, {}))

    def _memo(self, model: Model, part: str, compute) -> np.ndarray:
        """``part`` of this query set under ``model``, computed on first use.

        One slot: scoring another model drops what the previous one left.
        The slot is replaced, never edited, so a concurrent caller scoring
        another model keeps its own parts.
        """
        scored_model, parts = self._scored
        if scored_model is not model:
            parts = {}
            object.__setattr__(self, "_scored", (model, parts))
        if part not in parts:
            value = compute()
            value.setflags(write=False)
            parts[part] = value
        return parts[part]


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
    """Tag each genuine query with the learned group of its enrolled identity.

    The query set keeps the dataset's read-only matrices; it checks their
    norms again but copies nothing.
    """
    if dataset.enrolled.num_signatures != model.assignments.num_signatures:
        raise DimensionError("model was not trained on this dataset's enrolled signatures")
    groups = model.assignments.group_of[dataset.genuine_ids]
    return QuerySet(dataset.genuine, groups, dataset.impostors)


def _embed(model: Model, queries: np.ndarray) -> np.ndarray:
    """Codes (l x Q int8) of the query vectors stored as the rows of ``queries``."""
    if queries.shape[1] != model.projection.dim:
        raise DimensionError(f"queries of length {queries.shape[1]} do not match projection rows {model.projection.dim}")
    return ternarize_columns(model.projection.data.T @ queries.T, model.config.sparsity)


def _distances(model: Model, codes: np.ndarray) -> np.ndarray:
    """Q x M integer squared distances (int32) from the ternary code columns
    (l x Q) to every representation."""
    r = model.representations.codes
    # float64 is exact here (see the module docstring); int64 matmul would bypass BLAS
    d = codes.astype(np.float64).T @ r.astype(np.float64)
    d *= -2.0
    d += np.count_nonzero(codes, axis=0)[:, None]
    d += np.count_nonzero(r, axis=0)
    # every entry is at most ||e||^2 + ||r||^2 + 2 |e.r| <= 4l
    return d.astype(np.int32)


def _genuine_codes(model: Model, queries: QuerySet) -> np.ndarray:
    return queries._memo(model, "genuine codes", lambda: _embed(model, queries.genuine))


def _genuine_distances(model: Model, queries: QuerySet) -> np.ndarray:
    return queries._memo(model, "genuine distances", lambda: _distances(model, _genuine_codes(model, queries)))


def _impostor_distances(model: Model, queries: QuerySet) -> np.ndarray:
    return queries._memo(model, "impostor distances", lambda: _distances(model, _embed(model, queries.impostors)))


def _true_groups(model: Model, queries: QuerySet) -> np.ndarray:
    groups = queries.groups
    if groups.max() >= model.representations.num_groups:
        raise ConfigError(f"genuine query group {groups.max()} out of range [0, {model.representations.num_groups})")
    return groups


def group_distances(model: Model, code: TernaryCode) -> np.ndarray:
    """Integer squared distances from a code to every group representation."""
    if code.length != model.representations.code_length:
        raise DimensionError("code length does not match the model")
    return _distances(model, code.symbols[:, None])[0].astype(np.int64)


def verify(model: Model, code: TernaryCode, group: int, threshold: float) -> bool:
    """Accept the claim iff squared_distance(code, representation) <= threshold."""
    if not 0 <= group < model.representations.num_groups:
        raise ConfigError(f"group index {group} out of range [0, {model.representations.num_groups})")
    return bool(group_distances(model, code)[group] <= threshold)


def _roc_from_scores(genuine_scores: np.ndarray, impostor_scores: np.ndarray, max_threshold: int) -> RocCurve:
    thresholds = np.unique(np.concatenate([genuine_scores, impostor_scores, [-1, max_threshold]]))
    impostors_at_most = np.searchsorted(np.sort(impostor_scores), thresholds, side="right")
    genuine_at_most = np.searchsorted(np.sort(genuine_scores), thresholds, side="right")
    pfp = impostors_at_most / impostor_scores.size
    # (n - count) / n rounds exactly like np.mean(scores > tau); 1 - count / n does not
    pfn = (genuine_scores.size - genuine_at_most) / genuine_scores.size
    return RocCurve(tuple(zip(thresholds.astype(np.float64).tolist(), pfp.tolist(), pfn.tolist())))


def verification_sweep(model: Model, queries: QuerySet, rng: np.random.Generator) -> RocCurve:
    """ROC over all observed distance thresholds.

    Genuine queries are embedded and compared against their true group; each
    impostor claims one uniformly drawn group (``rng`` makes the draw
    reproducible).  Endpoints tau = -1 (reject all) and tau = 4S (accept
    all) are always included.
    """
    groups = _true_groups(model, queries)
    genuine = _genuine_distances(model, queries)[np.arange(len(groups)), groups]
    claims = rng.integers(model.representations.num_groups, size=len(queries.impostors))
    impostor = _impostor_distances(model, queries)[np.arange(len(claims)), claims]
    return _roc_from_scores(genuine, impostor, 4 * model.config.sparsity)


def _operating_point(roc: RocCurve, target: float) -> tuple[float, float, float]:
    """The point with the largest threshold whose pfp is at most the target."""
    if not 0 < target < 1:
        raise ConfigError(f"target false positive rate must lie in (0, 1), got {target}")
    chosen = None
    for point in roc.points:  # points sorted by tau, so the last hit wins
        if point[1] <= target:
            chosen = point
    if chosen is None:
        raise ConfigError("ROC curve lacks the reject-all endpoint")
    return chosen


def pfn_at_pfp(roc: RocCurve, target: float) -> float:
    """False negative rate at the largest threshold with pfp <= target.

    Conservative operating point: no interpolation; the tau = -1 endpoint
    (pfp = 0) guarantees existence for any target in (0, 1).
    """
    return _operating_point(roc, target)[2]


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
    genuine = _genuine_distances(model, queries).min(axis=1)
    impostor = _impostor_distances(model, queries).min(axis=1)
    return _roc_from_scores(genuine, impostor, 4 * model.config.sparsity)


def threshold_at_pfp(roc: RocCurve, target: float) -> float:
    """Largest threshold whose empirical pfp stays at or below the target."""
    return _operating_point(roc, target)[0]


def identification_report(model: Model, queries: QuerySet, threshold: float) -> IdentificationReport:
    """Open-set identification rates at a fixed acceptance threshold.

    p_epsilon is measured only over genuine queries accepted by the first
    step; with zero accepted queries it is defined as 0 and flagged.
    """
    groups = _true_groups(model, queries)
    distances = _genuine_distances(model, queries)
    nearest = np.argmin(distances, axis=1)
    accepted_rows = distances.min(axis=1) <= threshold
    accepted = int(np.count_nonzero(accepted_rows))
    wrong = int(np.count_nonzero(accepted_rows & (nearest != groups)))
    pfn = (len(groups) - accepted) / len(groups)
    p_eps = wrong / accepted if accepted else 0.0
    return IdentificationReport(pfn, p_eps, (1.0 - p_eps) * (1.0 - pfn), accepted == 0)


def reconstruct(projection: ProjectionMatrix, code: TernaryCode, beta: float) -> np.ndarray:
    """Linear reconstruction beta * W v of a signature from its code."""
    if code.length != projection.code_length:
        raise DimensionError("code length does not match projection columns")
    return beta * (projection.data @ code.symbols.astype(np.float64))


def _gain(lifted: np.ndarray, targets: np.ndarray) -> float:
    """fit_beta on the columns x_i of ``targets`` and W v_i of ``lifted``; both
    sums run over one product buffer, in the layout each product would get."""
    product = lifted * lifted
    den = float(np.sum(product))
    if den == 0.0:
        return 0.0
    np.multiply(targets, lifted, out=product)
    return float(np.sum(product)) / den


def fit_beta(projection: ProjectionMatrix, codes: list[TernaryCode], targets: list[np.ndarray]) -> float:
    """Scalar least squares gain: argmin_beta sum_i ||x_i - beta W v_i||^2.

    Closed form beta = sum_i x_i . W v_i / sum_i ||W v_i||^2; all-zero codes
    yield beta = 0.
    """
    if not codes or len(codes) != len(targets):
        raise ConfigError("need equally many codes and targets, at least one pair")
    if any(np.shape(target) != (projection.dim,) for target in targets):
        raise DimensionError("target dimension does not match projection rows")
    if any(code.length != projection.code_length for code in codes):
        raise DimensionError("code length does not match projection columns")
    symbols = np.stack([code.symbols for code in codes], axis=1)
    return _gain(projection.data @ symbols.astype(np.float64), np.stack(targets, axis=1))


def security_report(signatures: SignatureMatrix, queries: QuerySet, model: Model) -> SecurityReport:
    """Reconstruction attack errors for enrolled signatures and queries.

    mse_security averages ||x_i - rec(r_{g(i)})||^2 over all enrolled
    signatures; mse_privacy averages ||q - rec(e(q))||^2 over the genuine
    query vectors.  Both are normalized per coordinate and share the beta
    fitted on the enrolled pairs.
    """
    if signatures.num_signatures != model.assignments.num_signatures:
        raise DimensionError("model was not trained on this signature matrix")
    w = model.projection.data
    enrolled_lifted = w @ model.representations.codes[:, model.assignments.group_of].astype(np.float64)
    beta = _gain(enrolled_lifted, signatures.data)
    mse_security = _residual_mse(signatures.data, enrolled_lifted, beta)
    del enrolled_lifted  # d x N: freed before the queries are lifted, which lowers the peak
    genuine_lifted = w @ _genuine_codes(model, queries).astype(np.float64)
    return SecurityReport(
        mse_security=mse_security,
        mse_privacy=_residual_mse(queries.genuine.T, genuine_lifted, beta),
        beta=beta,
    )


def _residual_mse(targets: np.ndarray, lifted: np.ndarray, beta: float) -> float:
    """mean((targets - beta * lifted) ** 2), bit for bit, computed in ``lifted``'s memory."""
    lifted *= beta
    np.subtract(targets, lifted, out=lifted)
    lifted *= lifted
    return float(np.mean(lifted))
