"""Joint learning of the projection, hash codes, group assignments and
group representations by alternating minimization.

The objective being minimized is

    ||E - W^T X||_F^2  +  lambda * ||E - R Y||_F^2  -  gamma * ||R Y||_F^2

over an orthonormal-column projection W, exactly-S ternary codes E, ternary
group representations R and a one-group-per-signature assignment Y.  The
three block updates are:

* projection update: an orthogonality-constrained least squares fit solved
  in one shot through the SVD of X E^T (the classical eigenvector recipe,
  computed via SVD for conditioning);
* code update: columnwise ternarization of W^T X + lambda * R Y;
* grouping update: k-means on the columns of c * E with
  c = lambda / (lambda - gamma), followed by ternarization of the final
  centroids.

The total objective is not guaranteed monotone across outer iterations (the
ternary projections break monotonicity); the per-iteration trace is recorded
and only required to stay finite.  Inside the grouping step, however, the
real-valued k-means objective is non-increasing at every single update and
that is enforced at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
    ternarize_columns,
)
from .errors import ConfigError, DegenerateProcrustesError, DimensionError, GmkitError

KMEANS_ITER_CAP = 100
_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class AssignmentMatrix:
    """Group index of every signature; each group must be nonempty."""

    group_of: np.ndarray
    num_groups: int

    def __post_init__(self):
        g = np.asarray(self.group_of)
        if g.ndim != 1:
            raise DimensionError(f"assignment must be 1-D, got shape {g.shape}")
        g = g.astype(np.int64)
        if self.num_groups < 1:
            raise ConfigError("num_groups must be positive")
        if g.size and (g.min() < 0 or g.max() >= self.num_groups):
            raise ConfigError(f"group indices must lie in [0, {self.num_groups})")
        present = np.unique(g)
        if present.size != self.num_groups:
            raise ConfigError(f"every group must be nonempty: {self.num_groups - present.size} empty")
        g.setflags(write=False)
        object.__setattr__(self, "group_of", g)

    @property
    def num_signatures(self) -> int:
        return self.group_of.size

    def members(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.group_of == g)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.group_of, minlength=self.num_groups)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Per-iteration objective value and its three summands."""

    embedding_cost: float
    within_trace: float
    between_trace: float
    total: float

    def __post_init__(self):
        for name in ("embedding_cost", "within_trace", "between_trace", "total"):
            if not np.isfinite(getattr(self, name)):
                raise GmkitError(f"objective component {name} is not finite")

    @classmethod
    def from_parts(
        cls, embedding_cost: float, within_trace: float, between_trace: float, within_weight: float, between_weight: float
    ) -> "ObjectiveBreakdown":
        total = embedding_cost + within_weight * within_trace - between_weight * between_trace
        return cls(embedding_cost, within_trace, between_trace, total)


@dataclass(frozen=True)
class Model:
    """Learned state bundle plus the objective trace that produced it."""

    projection: ProjectionMatrix
    codes: CodeMatrix
    representations: CodeMatrix
    assignments: AssignmentMatrix
    config: ModelConfig
    objective_trace: tuple[ObjectiveBreakdown, ...]

    def __post_init__(self):
        l = self.projection.code_length
        if self.codes.code_length != l or self.representations.code_length != l:
            raise DimensionError("code length mismatch across model members")
        if self.assignments.num_signatures != self.codes.codes.shape[1]:
            raise DimensionError("assignment length does not match number of codes")
        if self.assignments.num_groups != self.representations.num_groups:
            raise DimensionError("assignment group count does not match representations")


def embedding_cost(signatures: SignatureMatrix, projection: ProjectionMatrix, codes: CodeMatrix) -> float:
    """Quantization loss ||E - W^T X||_F^2."""
    if projection.dim != signatures.dim:
        raise DimensionError("projection rows must match signature dimension")
    if codes.codes.shape != (projection.code_length, signatures.num_signatures):
        raise DimensionError("code matrix shape does not match projection / signatures")
    resid = codes.codes.astype(np.float64) - projection.data.T @ signatures.data
    return float(np.sum(resid * resid))


def scatter_traces(codes: CodeMatrix, representations: CodeMatrix, assignments: AssignmentMatrix) -> tuple[float, float]:
    """(trace of within-group scatter, trace of between-group scatter).

    Computed through the Frobenius identities ||E - R Y||_F^2 and
    ||R Y||_F^2; the l x l scatter matrices are never materialized.
    """
    if codes.code_length != representations.code_length:
        raise DimensionError("code length mismatch between codes and representations")
    if assignments.num_signatures != codes.codes.shape[1]:
        raise DimensionError("assignment length does not match number of codes")
    if assignments.num_groups != representations.num_groups:
        raise DimensionError("assignment group count does not match representations")
    assigned = representations.codes[:, assignments.group_of].astype(np.int64)
    diff = codes.codes.astype(np.int64) - assigned
    within = float(np.sum(diff * diff))
    between = float(np.sum(assigned * assigned))
    return within, between


def objective(
    signatures: SignatureMatrix,
    projection: ProjectionMatrix,
    codes: CodeMatrix,
    representations: CodeMatrix,
    assignments: AssignmentMatrix,
    within_weight: float,
    between_weight: float,
) -> ObjectiveBreakdown:
    """Full objective breakdown; requires within_weight > between_weight > 0."""
    if not within_weight > between_weight > 0:
        raise ConfigError(f"need within_weight > between_weight > 0, got {within_weight} vs {between_weight}")
    emb = embedding_cost(signatures, projection, codes)
    within, between = scatter_traces(codes, representations, assignments)
    return ObjectiveBreakdown.from_parts(emb, within, between, within_weight, between_weight)


def _cross_svd(signatures: SignatureMatrix, codes: CodeMatrix):
    """The cross matrix X E^T and its thin SVD (u, s, vt)."""
    if codes.codes.shape[1] != signatures.num_signatures:
        raise DimensionError("codes and signatures count differ")
    if not codes.code_length < signatures.dim:
        raise DimensionError("code length must be smaller than the signature dimension")
    cross = signatures.data @ codes.codes.astype(np.float64).T
    return cross, np.linalg.svd(cross, full_matrices=False)


def _svd_projection(signatures: SignatureMatrix, codes: CodeMatrix) -> ProjectionMatrix:
    """W = U V^T from the thin SVD of X E^T; never raises on deficiency.

    When X E^T is rank deficient the SVD supplies an orthonormal completion
    for the undetermined directions (deterministic for a given input).
    """
    _, (u, _, vt) = _cross_svd(signatures, codes)
    return ProjectionMatrix(u @ vt)


def w_step(signatures: SignatureMatrix, codes: CodeMatrix) -> ProjectionMatrix:
    """Orthogonality-constrained least squares update of the projection.

    With S = X E^T the update is W = U V^T from the thin SVD S = U diag s V^T,
    the one-shot solution prescribed for this step (equivalent to pairing the
    top eigenvectors of S S^T with those of S^T S, but better conditioned).

    Raises :class:`DegenerateProcrustesError` when the numerical rank of
    X E^T falls short of what the signatures can support, i.e. the
    deficiency is attributable to the codes and a different code matrix can
    fix it.  When the signatures themselves span fewer than l directions the
    deficiency is structural, no code matrix can do better, and the SVD's
    orthonormal completion is returned instead.  The training loop bypasses
    this guard: converged clusterings legitimately collapse the code matrix
    onto few distinct columns.
    """
    cross, (u, sv, vt) = _cross_svd(signatures, codes)
    rank = int(np.sum(sv > sv[0] * max(cross.shape) * np.finfo(np.float64).eps)) if sv[0] > 0 else 0
    if rank < codes.code_length:
        sig_rank = int(np.linalg.matrix_rank(signatures.data))
        if rank < min(codes.code_length, sig_rank):
            raise DegenerateProcrustesError(
                f"cross matrix X E^T has numerical rank {rank} < {min(codes.code_length, sig_rank)}", rank=rank
            )
    return ProjectionMatrix(u @ vt)


def e_step(
    projection: ProjectionMatrix,
    signatures: SignatureMatrix,
    representations: CodeMatrix,
    assignments: AssignmentMatrix,
    within_weight: float,
    sparsity: int,
) -> CodeMatrix:
    """Code update: columnwise ternarization of W^T X + lambda * R Y."""
    if within_weight < 0:
        raise ConfigError("within_weight must be nonnegative")
    if projection.dim != signatures.dim:
        raise DimensionError("projection rows must match signature dimension")
    if representations.code_length != projection.code_length:
        raise DimensionError("representation code length does not match projection")
    if assignments.num_signatures != signatures.num_signatures:
        raise DimensionError("assignment length does not match signatures")
    target = projection.data.T @ signatures.data + within_weight * representations.codes[
        :, assignments.group_of
    ].astype(np.float64)
    return CodeMatrix(ternarize_columns(target, sparsity), sparsity)


@dataclass(frozen=True)
class KMeansResult:
    """Centroids, assignments and the per-update objective trace of one run."""

    centroids: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int


def _sse(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diff = points - centroids[assign]
    return float(np.sum(diff * diff))


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding; degenerate all-coincident tails fall back to
    the lowest unchosen indices."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = [i for i in range(n) if i not in set(chosen)]
            idx = remaining[0] if remaining else 0
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _check_non_increasing(trace: list[float]) -> None:
    for a, b in zip(trace, trace[1:]):
        if b > a + _MONOTONE_SLACK:
            raise GmkitError(f"k-means objective increased from {a!r} to {b!r}")


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator, iter_cap: int = KMEANS_ITER_CAP) -> KMeansResult:
    """Plain k-means with seeded k-means++ init and a no-empty-cluster policy.

    ``points`` is (N, dim), one point per row; requires k <= N.  Empty
    clusters are reseeded with the point currently farthest from its own
    centroid, taken from a cluster with at least two members, so no group is
    ever returned empty.  Reseeding moves that point onto its new centroid
    and therefore never increases the objective; the full objective trace
    (after every assignment, reseed and centroid update) is returned and
    checked to be non-increasing.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= number of points, got k={k} n={n}")

    def nearest(cents):
        d2 = np.sum((pts[:, None, :] - cents[None, :, :]) ** 2, axis=2)
        return np.argmin(d2, axis=1)

    def fix_empty(assign, cents):
        counts = np.bincount(assign, minlength=k)
        changed = False
        for g in np.flatnonzero(counts == 0):
            eligible = np.flatnonzero(counts[assign] >= 2)
            dist = np.sum((pts[eligible] - cents[assign[eligible]]) ** 2, axis=1)
            stolen = int(eligible[int(np.argmax(dist))])
            cents[g] = pts[stolen]
            counts[assign[stolen]] -= 1
            assign[stolen] = g
            counts[g] = 1
            changed = True
        return changed

    centroids = _kmeans_pp_init(pts, k, rng)
    trace: list[float] = []
    prev = None
    iterations = 0
    for _ in range(iter_cap):
        iterations += 1
        assign = nearest(centroids)
        trace.append(_sse(pts, centroids, assign))
        if fix_empty(assign, centroids):
            trace.append(_sse(pts, centroids, assign))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        for g in range(k):
            centroids[g] = pts[assign == g].mean(axis=0)
        trace.append(_sse(pts, centroids, assign))
    else:
        # iteration cap: restore assignment consistency with the last centroids
        assign = nearest(centroids)
        trace.append(_sse(pts, centroids, assign))
        if fix_empty(assign, centroids):
            trace.append(_sse(pts, centroids, assign))
    _check_non_increasing(trace)
    return KMeansResult(centroids, assign, tuple(trace), iterations)


def grouping_scale(within_weight: float, between_weight: float) -> float:
    """Rescaling c = lambda / (lambda - gamma) applied to codes before k-means."""
    if not within_weight > between_weight > 0:
        raise ConfigError(f"need within_weight > between_weight > 0, got {within_weight} vs {between_weight}")
    return within_weight / (within_weight - between_weight)


def ry_step(
    codes: CodeMatrix,
    within_weight: float,
    between_weight: float,
    num_groups: int,
    rng: np.random.Generator,
) -> tuple[CodeMatrix, AssignmentMatrix]:
    """Grouping update: k-means on the scaled codes, then ternarize centroids.

    Expanding lambda * ||E - RY||^2 - gamma * ||RY||^2 shows the relaxed
    problem is k-means on the columns of c * E with c = lambda/(lambda-gamma);
    each final centroid is ternarized to produce its group representation.
    """
    if num_groups > codes.codes.shape[1]:
        raise ConfigError(f"cannot form {num_groups} groups from {codes.codes.shape[1]} codes")
    scale = grouping_scale(within_weight, between_weight)
    points = scale * codes.codes.astype(np.float64).T
    result = kmeans(points, num_groups, rng)
    reps = ternarize_columns(result.centroids.T, codes.sparsity)
    return CodeMatrix(reps, codes.sparsity), AssignmentMatrix(result.assignments, num_groups)


def _representations_for_fixed_groups(
    codes: CodeMatrix, assignments: AssignmentMatrix, scale: float
) -> CodeMatrix:
    cols = np.empty((codes.code_length, assignments.num_groups), dtype=np.float64)
    dense = codes.codes.astype(np.float64)
    for g in range(assignments.num_groups):
        cols[:, g] = scale * dense[:, assignments.members(g)].mean(axis=1)
    return CodeMatrix(ternarize_columns(cols, codes.sparsity), codes.sparsity)


def _validate_train_dims(signatures: SignatureMatrix, config: ModelConfig) -> None:
    if not config.code_length < signatures.dim:
        raise ConfigError(f"code_length {config.code_length} must be < signature dimension {signatures.dim}")
    # num_groups == num_signatures is the legitimate singleton-groups edge
    if config.num_groups > signatures.num_signatures:
        raise ConfigError(f"num_groups {config.num_groups} exceeds number of signatures {signatures.num_signatures}")


def _init_state(signatures: SignatureMatrix, config: ModelConfig, rng: np.random.Generator):
    q, _ = np.linalg.qr(rng.standard_normal((signatures.dim, config.code_length)))
    projection = ProjectionMatrix(q)
    codes = CodeMatrix(ternarize_columns(projection.data.T @ signatures.data, config.sparsity), config.sparsity)
    return projection, codes


def _alternate(
    signatures: SignatureMatrix,
    config: ModelConfig,
    rng: np.random.Generator,
    group: Callable[[CodeMatrix], tuple[CodeMatrix, AssignmentMatrix]],
) -> Model:
    """The alternating loop behind :func:`train` and the baseline.

    ``group`` is the grouping step: it maps the current codes to the group
    representations and the assignment.
    """
    projection, codes = _init_state(signatures, config, rng)
    reps, assign = group(codes)

    trace: list[ObjectiveBreakdown] = []
    prev_total = None
    for _ in range(config.max_outer_iters):
        projection = _svd_projection(signatures, codes)
        codes = e_step(projection, signatures, reps, assign, config.within_weight, config.sparsity)
        reps, assign = group(codes)
        breakdown = objective(
            signatures, projection, codes, reps, assign, config.within_weight, config.between_weight
        )
        trace.append(breakdown)
        if prev_total is not None and abs(breakdown.total - prev_total) < config.convergence_tol:
            break
        prev_total = breakdown.total
    return Model(projection, codes, reps, assign, config, tuple(trace))


def train(signatures: SignatureMatrix, config: ModelConfig) -> Model:
    """Alternating minimization loop, deterministic for a fixed config seed.

    Initialization: orthonormalized seeded Gaussian projection, codes from a
    first ternarization pass, grouping from a seeded k-means++ run on those
    codes.  Stops after ``max_outer_iters`` iterations, or earlier when a
    positive ``convergence_tol`` exceeds the change of the total objective.
    """
    _validate_train_dims(signatures, config)
    rng = np.random.default_rng(config.seed)
    return _alternate(
        signatures,
        config,
        rng,
        lambda codes: ry_step(codes, config.within_weight, config.between_weight, config.num_groups, rng),
    )


def random_balanced_assignment(
    num_signatures: int, num_groups: int, group_size: int, rng: np.random.Generator
) -> AssignmentMatrix:
    """Random partition into num_groups groups of exactly group_size members."""
    if num_groups * group_size != num_signatures:
        raise ConfigError(
            f"num_groups * group_size must equal the number of signatures: {num_groups} * {group_size} != {num_signatures}"
        )
    perm = rng.permutation(num_signatures)
    group_of = np.empty(num_signatures, dtype=np.int64)
    for g in range(num_groups):
        group_of[perm[g * group_size : (g + 1) * group_size]] = g
    return AssignmentMatrix(group_of, num_groups)


def train_random_assignment_baseline(signatures: SignatureMatrix, config: ModelConfig, group_size: int) -> Model:
    """Baseline variant: the assignment is a fixed random balanced partition.

    Identical loop to :func:`train` except the grouping step only refreshes
    centroids and representations; the assignment never changes.  The
    partition is drawn before the initial state, from the same generator.
    """
    _validate_train_dims(signatures, config)
    rng = np.random.default_rng(config.seed)
    assign = random_balanced_assignment(signatures.num_signatures, config.num_groups, group_size, rng)
    scale = grouping_scale(config.within_weight, config.between_weight)
    return _alternate(
        signatures, config, rng, lambda codes: (_representations_for_fixed_groups(codes, assign, scale), assign)
    )
