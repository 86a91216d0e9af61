"""Decision rules and error-rate estimation.

Verification accepts a claimed group when the integer squared distance
between the query code and that group's representation is at most the
threshold.  Open-set identification first accepts when the minimum distance
over all groups is at most the threshold, then names the nearest group
(ties go to the lowest group index).  Each rule, and the reconstruction
attack below, is implemented once, over every query of a :class:`QuerySet`
at a time: the sweeps and the report apply the rules to a distance matrix,
and there is no per-code form.

A :class:`QuerySet` holds its genuine and its impostor queries as two
read-only Q x d matrices, one query per row, checked once at construction;
any array but a read-only view of one gmkit already holds is copied, so
later changes to it do not reach the measures.  The first measure to score a model embeds
the genuine and the impostor queries, each with one
``ternarize_columns(W^T Q^T)``, and scores each in one Q x M matrix of exact
integer distances ||e||^2 + ||r||^2 - 2 e.r, never the 2S - 2 p.r
shortcut, so nothing here relies on the exactly-S contract.  The query set
keeps the genuine codes and both matrices for the last model it was scored
against, and the sweeps, the report and the security measure index them.
Each matrix is one float32 product of augmented operands, cast once to
int32, and still exact: every operand entry is an integer (a symbol, -2
times one, a count of at most l nonzeros, or 1), so every partial sum is an
integer of magnitude at most 2l + l + l = 4l, exact in float32 while
4l < 2**24, i.e. l < 2**22, whatever order BLAS adds in.

The reconstruction attacks model a curious server that knows the projection:
a code v is mapped back as beta * W v with a scalar gain beta fitted by
least squares.  One shared beta (fitted on the enrolled-signature /
group-representation pairs, the attack target of the security measure) is
used for both the security and the privacy mean squared errors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import SignatureMatrix, _check_query_labels, _check_query_vectors, _tiled, ternarize_columns
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
    checks each once and holds it read-only (see :func:`gmkit.core._held`).
    The first measure to score a model computes the genuine codes and both
    distance matrices, kept until another model (compared by identity) is
    scored, so one evaluation pass embeds and scores each query once.
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
        object.__setattr__(self, "_scored", (None, None))


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
    """Open-set identification rates; p_epsilon is 0 when no genuine query was accepted."""

    pfn: float
    p_epsilon: float

    @property
    def dir_rate(self) -> float:
        return (1.0 - self.p_epsilon) * (1.0 - self.pfn)


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
    (l x Q) to every representation, in one float32 product of augmented
    operands: [E; ||e||^2; 1]^T [-2R; 1; ||r||^2] = ||e||^2 + ||r||^2 - 2 e.r,
    exact while l < 2**22 (see the module docstring)."""
    r = model.representations.codes
    lhs = np.vstack([codes, np.count_nonzero(codes, axis=0), np.ones(codes.shape[1])], dtype=np.float32)
    rhs = np.vstack([-2 * r, np.ones(r.shape[1]), np.count_nonzero(r, axis=0)], dtype=np.float32)
    return (lhs.T @ rhs).astype(np.int32)


def _scores(model: Model, queries: QuerySet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only genuine codes (l x Q int8) and genuine and impostor distances
    (Q x M int32) of ``queries`` under ``model``, computed together once and
    kept in the query set's one slot until another model is scored.  The
    slot is replaced, never edited, so a concurrent caller scoring another
    model keeps its own scores."""
    scored_model, scores = queries._scored
    if scored_model is not model:
        codes = _embed(model, queries.genuine)
        scores = (codes, _distances(model, codes), _distances(model, _embed(model, queries.impostors)))
        for part in scores:
            part.setflags(write=False)
        object.__setattr__(queries, "_scored", (model, scores))
    return scores


def _true_groups(model: Model, queries: QuerySet) -> np.ndarray:
    groups = queries.groups
    if groups.max() >= model.representations.num_groups:
        raise ConfigError(f"genuine query group {groups.max()} out of range [0, {model.representations.num_groups})")
    return groups


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
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng must be a numpy.random.Generator, got {rng!r}")
    groups = _true_groups(model, queries)
    _, genuine, impostor = _scores(model, queries)
    claims = rng.integers(model.representations.num_groups, size=len(queries.impostors))
    genuine = genuine[np.arange(len(groups)), groups]
    impostor = impostor[np.arange(len(claims)), claims]
    return _roc_from_scores(genuine, impostor, 4 * model.config.sparsity)


def _operating_point(roc: RocCurve, target: float) -> tuple[float, float, float]:
    """The point with the largest threshold whose pfp is at most the target."""
    if not (isinstance(target, numbers.Real) and 0 < target < 1):
        raise ConfigError(f"target false positive rate must be a real number in (0, 1), got {target!r}")
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


def identification_sweep(model: Model, queries: QuerySet) -> RocCurve:
    """ROC of the open-set acceptance step (minimum distance over groups)."""
    _, genuine, impostor = _scores(model, queries)
    return _roc_from_scores(genuine.min(axis=1), impostor.min(axis=1), 4 * model.config.sparsity)


def threshold_at_pfp(roc: RocCurve, target: float) -> float:
    """Largest threshold whose empirical pfp stays at or below the target."""
    return _operating_point(roc, target)[0]


def identification_report(model: Model, queries: QuerySet, threshold: float) -> IdentificationReport:
    """Open-set identification rates at a fixed acceptance threshold.

    p_epsilon is measured only over genuine queries accepted by the first
    step; with zero accepted queries it is defined as 0.
    """
    groups = _true_groups(model, queries)
    distances = _scores(model, queries)[1]
    nearest = np.argmin(distances, axis=1)
    accepted_rows = distances.min(axis=1) <= threshold
    accepted = int(np.count_nonzero(accepted_rows))
    wrong = int(np.count_nonzero(accepted_rows & (nearest != groups)))
    pfn = (len(groups) - accepted) / len(groups)
    p_eps = wrong / accepted if accepted else 0.0
    return IdentificationReport(pfn, p_eps)


def _gain(lifted: np.ndarray, targets: np.ndarray) -> float:
    """Scalar least squares gain argmin_beta sum_i ||x_i - beta W v_i||^2 over
    the columns x_i of ``targets`` and W v_i of ``lifted``.

    Closed form beta = sum_i x_i . W v_i / sum_i ||W v_i||^2; all-zero codes
    yield beta = 0.  Both sums run over one product buffer, in the layout
    each product would get."""
    product = lifted * lifted
    den = float(np.sum(product))
    if den == 0.0:
        return 0.0
    np.multiply(targets, lifted, out=product)
    return float(np.sum(product)) / den


def security_report(signatures: SignatureMatrix, queries: QuerySet, model: Model) -> SecurityReport:
    """Reconstruction attack errors for enrolled signatures and queries.

    mse_security averages ||x_i - rec(r_{g(i)})||^2 over all enrolled
    signatures; mse_privacy averages ||q - rec(e(q))||^2 over the genuine
    query vectors.  Both are normalized per coordinate and share the beta
    fitted on the enrolled pairs.  Each group's representation is lifted
    once, W r_g, and gathered per enrollee.
    """
    if signatures.data.shape != (model.projection.dim, model.assignments.num_signatures):
        raise DimensionError("model was not trained on this signature matrix")
    w = model.projection.data
    # np.take returns the d x N gather C-ordered, as the per-member product
    # W R[:, g] is, so the sums below reduce in the same order
    enrolled_lifted = np.take(w @ model.representations.codes.astype(np.float64), model.assignments.group_of, axis=1)
    beta = _gain(enrolled_lifted, signatures.data)
    mse_security = _residual_mse(signatures.data, enrolled_lifted, beta)
    del enrolled_lifted  # d x N: freed before the queries are lifted, which lowers the peak
    genuine_lifted = w @ _scores(model, queries)[0].astype(np.float64)
    return SecurityReport(
        mse_security=mse_security,
        mse_privacy=_residual_mse(queries.genuine.T, genuine_lifted, beta),
        beta=beta,
    )


def _residual_mse(targets: np.ndarray, lifted: np.ndarray, beta: float) -> float:
    """mean((targets - beta * lifted) ** 2), bit for bit, computed in ``lifted``'s memory.

    The difference is taken by :func:`gmkit.core._tiled`, because the
    privacy residual reads the Q x d genuine matrix across its memory
    order, and at a power-of-two d (256 at the enroll shape) a straight
    read evicts its own cache lines."""
    lifted *= beta
    _tiled(np.subtract, lifted, targets, lifted)
    lifted *= lifted
    return float(np.mean(lifted))
