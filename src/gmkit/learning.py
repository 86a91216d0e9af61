"""Joint learning of the projection, hash codes, group assignments and
group representations by alternating minimization.

The objective being minimized is

    ||E - W^T X||_F^2  +  lambda * ||E - R Y||_F^2

over an orthonormal-column projection W, exactly-S ternary codes E, ternary
group representations R and a one-group-per-signature assignment Y.  The
paper also subtracts gamma * ||R Y||_F^2, which is not modelled: every
representation has exactly S nonzeros, so ||R Y||_F^2 = N S is constant.
The three block updates are:

* projection update: an orthogonality-constrained least squares fit solved
  in one shot through the SVD of X E^T (the classical eigenvector recipe,
  computed via SVD for conditioning);
* code update: columnwise ternarization of W^T X + lambda * R Y;
* grouping update: k-means on the columns of E (the grouping problem with
  R relaxed to real values), followed by ternarization of the final
  centroids.  Only the first grouping update seeds k-means with k-means++;
  every later one starts Lloyd from the current assignment, so it ends no
  higher than that assignment scores on the new codes, and stops after one
  assignment step when the assignment is already a fixed point.

The code update collapses onto the representations at large lambda: on
r_g's support each magnitude of p + lambda r_g is at least lambda - |p_j|,
and off it |p_j|, so lambda > 2 max|P| gives e = r_g exactly, the code of
every member of group g.  |p_j| <= 1 always, since signatures are unit norm
and W has orthonormal columns, so any lambda > 2 makes E = R Y whatever W
is; at the default lambda = 1 it takes every entry of W^T X below 1/2.

An outer iteration is a function of the (E, R, Y) it starts from: W is a
function of E, and every grouping step after the first is deterministic.
So training stops at the first iteration that ends in the same state as
the iteration before it; every later one would repeat it bit for bit, and
the model and trace are those of the full run, less the repeats of the last
trace row.

The total objective is not guaranteed monotone across outer iterations (the
ternary projections break monotonicity); the per-iteration trace is recorded
and only required to stay finite.  Inside the grouping step, however, the
k-means objective is non-increasing at every single update, from the warm
start on, and that is enforced at runtime.  The grouping step runs on the
integer codes in exact integer arithmetic: a centroid is a group sum over a
member count, so distances are compared as exact rationals, ties go to the
lowest group index exactly, and the non-increase check is exact, with no
slack.

Its float64 steps are exact or screened.  Group sums, seeding distances and
the products p . s_g behind the reported distances add integers whose
partial sums stay below 2**53, where float64 is exact; the points are
checked against that range up front.  The nearest-centroid scores come from
one float64 GEMM and are rounded, but their error has a bound (derived in
:func:`_nearest`), and every point whose two best scores lie within twice
that bound is settled in integers.  The objective values are summed in
int64 and Python rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
    _as_array,
    _held,
    ternarize_columns,
)
from .errors import ConfigError, DimensionError, GmkitError, InvalidInputError

KMEANS_ITER_CAP = 100


@dataclass(frozen=True)
class AssignmentMatrix:
    """Group index of every signature; each group must be nonempty."""

    group_of: np.ndarray
    num_groups: int

    def __post_init__(self):
        g = _as_array(self.group_of, "assignment", 1, DimensionError, integers=True)
        if self.num_groups < 1:
            raise ConfigError("num_groups must be positive")
        if g.size and (g.min() < 0 or g.max() >= self.num_groups):
            raise ConfigError(f"group indices must lie in [0, {self.num_groups})")
        present = np.unique(g)
        if present.size != self.num_groups:
            raise ConfigError(f"every group must be nonempty: {self.num_groups - present.size} empty")
        object.__setattr__(self, "group_of", _held(g, np.int64))

    @property
    def num_signatures(self) -> int:
        return self.group_of.size

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.group_of, minlength=self.num_groups)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Per-iteration objective, embedding + lambda * within, and its two parts."""

    embedding_cost: float
    within_trace: float
    total: float

    def __post_init__(self):
        for name in ("embedding_cost", "within_trace", "total"):
            if not np.isfinite(getattr(self, name)):
                raise GmkitError(f"objective component {name} is not finite")

    @classmethod
    def from_parts(cls, embedding_cost: float, within_trace: float, within_weight: float) -> "ObjectiveBreakdown":
        return cls(embedding_cost, within_trace, embedding_cost + within_weight * within_trace)


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
        if self.codes.code_length != self.projection.code_length:
            raise DimensionError("code length does not match the projection")
        _check_grouping(self.codes.code_length, self.codes.codes.shape[1], self.representations, self.assignments)


def objective(
    projected: np.ndarray,
    codes: CodeMatrix,
    representations: CodeMatrix,
    assignments: AssignmentMatrix,
    within_weight: float,
) -> ObjectiveBreakdown:
    """Objective breakdown for the projected signatures P = W^T X.

    The embedding cost is ||E - P||_F^2.  The within trace ||E - R Y||_F^2
    is computed in exact int64 from the group sums s_g and counts n_g as
    sum_i ||e_i||^2 + sum_g n_g ||r_g||^2 - 2 sum_g r_g . s_g, since a
    ternary vector's squared norm is its nonzero count.  The l x l scatter
    matrices are never materialized.

    A non-finite ``within_weight`` raises InvalidInputError; a ragged,
    non-2-D or mis-shaped ``projected`` DimensionError, and an entry that is
    not a finite real number, or too large to square, InvalidInputError.
    """
    _check_weight(within_weight)
    projected = _as_array(projected, "projected signatures", 2, DimensionError)
    if projected.shape != codes.codes.shape:
        raise DimensionError(f"projected signatures of shape {projected.shape} do not match codes {codes.codes.shape}")
    _check_grouping(codes.code_length, codes.codes.shape[1], representations, assignments)
    with np.errstate(over="ignore"):
        embedding = float(np.sum(np.square(codes.codes.astype(np.float64) - projected)))
    if not np.isfinite(embedding):
        raise InvalidInputError("embedding cost is not a finite float64: projected signatures are non-finite or too large")
    sums, counts = _group_sums(codes.codes.T, assignments.group_of, assignments.num_groups)
    rep_norms = int(counts @ np.count_nonzero(representations.codes, axis=0))
    cross = int(np.sum(representations.codes.T.astype(np.int64) * sums))
    within = np.count_nonzero(codes.codes) + rep_norms - 2 * cross
    return ObjectiveBreakdown.from_parts(embedding, float(within), within_weight)


def _check_weight(within_weight: float) -> None:
    if not np.isfinite(within_weight):
        raise InvalidInputError(f"within_weight must be finite, got {within_weight!r}")


def _check_grouping(code_length: int, num_codes: int, representations: CodeMatrix, assignments: AssignmentMatrix) -> None:
    if representations.code_length != code_length:
        raise DimensionError("representation code length does not match the codes")
    if assignments.num_signatures != num_codes:
        raise DimensionError("assignment length does not match number of codes")
    if assignments.num_groups != representations.num_groups:
        raise DimensionError("assignment group count does not match representations")


def _svd_projection(signatures: SignatureMatrix, codes: CodeMatrix) -> ProjectionMatrix:
    """Projection update: orthogonality-constrained least squares.

    With S = X E^T the update is W = U V^T from the thin SVD S = U diag s V^T,
    the one-shot solution prescribed for this step: it maximizes tr(W^T S)
    over orthonormal-column W (equivalent to pairing the top eigenvectors of
    S S^T with those of S^T S, but better conditioned).

    Never raises on rank deficiency; converged clusterings legitimately
    collapse the codes onto few distinct columns.  When S has rank r < l,
    only r columns of W are fixed and the SVD supplies an orthonormal
    completion for the rest.  That completion is deterministic on one BLAS
    kernel only: another kernel (another OpenBLAS core type, say) can return
    different free columns for the same input.
    """
    if codes.codes.shape[1] != signatures.num_signatures:
        raise DimensionError("codes and signatures count differ")
    if not codes.code_length < signatures.dim:
        raise DimensionError("code length must be smaller than the signature dimension")
    u, _, vt = np.linalg.svd(signatures.data @ codes.codes.astype(np.float64).T, full_matrices=False)
    return ProjectionMatrix(u @ vt)


def e_step(
    projected: np.ndarray,
    representations: CodeMatrix,
    assignments: AssignmentMatrix,
    within_weight: float,
    sparsity: int,
) -> CodeMatrix:
    """Code update: columnwise ternarization of P + lambda * R Y for the
    projected signatures P = W^T X.

    A non-finite ``within_weight`` raises InvalidInputError; a ragged,
    non-2-D or mis-shaped ``projected`` DimensionError, and an entry that is
    not a finite real number, or a sum that overflows, InvalidInputError.
    """
    _check_weight(within_weight)
    projected = _as_array(projected, "projected signatures", 2, DimensionError)
    _check_grouping(projected.shape[0], projected.shape[1], representations, assignments)
    with np.errstate(over="ignore"):
        target = projected + within_weight * representations.codes[:, assignments.group_of].astype(np.float64)
    return CodeMatrix(ternarize_columns(target, sparsity), sparsity)


@dataclass(frozen=True)
class KMeansResult:
    """Final centroids, each the integer sum ``sums[g]`` over the count
    ``counts[g]``; assignments; and the per-update objective trace of one run."""

    sums: np.ndarray
    counts: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int


# Screen for near-ties: a quotient of two exact integers, each rounded to
# float64 once, is off by at most 3 * 2**-53 relative, so every column within
# this relative distance of a row's float minimum is compared exactly.
_NEAR_TIE = 1e-9


def _integer_points(points) -> np.ndarray:
    """The one copy k-means reads: integer-valued points as float64, within exact range."""
    pf = np.ascontiguousarray(_as_array(points, "k-means points", 2, DimensionError), dtype=np.float64)
    if not np.all(np.isfinite(pf)):
        raise InvalidInputError("k-means points must be finite")
    if not np.array_equal(pf, np.round(pf)):
        raise InvalidInputError("k-means points must be integer-valued")
    n, dim = pf.shape
    amax = int(np.max(np.abs(pf))) if pf.size else 0
    # float64 products of points and group sums add integers of magnitude at
    # most dim * N * amax**2; the int64 objective numerators reach 4 * dim * N**3 * amax**2
    if dim * n * amax**2 >= 2**53 or 4 * dim * n**3 * amax**2 >= 2**63:
        raise InvalidInputError(f"k-means points too large for exact arithmetic: max |p| = {amax}, N = {n}, dim = {dim}")
    return pf


def _group_sums(points: np.ndarray, group_of: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer sum s_g of the points (one per row) in each group, and the member count n_g.

    One float64 ``bincount`` over the flattened index g * dim + j: exact,
    because the points are integers and every partial sum stays below
    2**53 (:func:`_integer_points` guarantees dim * N * max|p|**2 < 2**53).
    """
    dim = points.shape[1]
    cells = (np.asarray(group_of)[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=np.ravel(points), minlength=k * dim)
    return sums.reshape(k, dim).astype(np.int64), np.bincount(group_of, minlength=k)


def _exact_argmin(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Row-wise argmin of the rationals num[i, j] / den[j] (den > 0), with
    exact ties going to the lowest column.

    Rows whose float minimum is not separated from another column are
    settled by cross-multiplication in Python integers, which cannot wrap.
    """
    score = num / den
    best = np.argmin(score, axis=1)
    low = score[np.arange(len(best)), best]
    near = score <= (low + np.abs(low) * _NEAR_TIE)[:, None]
    for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
        cols = np.flatnonzero(near[i]).tolist()
        row = num[i]
        b = cols[0]
        for j in cols[1:]:
            if int(row[j]) * int(den[b]) < int(row[b]) * int(den[j]):
                b = j
        best[i] = b
    return best


def _exact_sum(num: np.ndarray, den: np.ndarray) -> Fraction:
    """The exact value of sum(num / den) for int64 arrays with den > 0."""
    dens, which = np.unique(den, return_inverse=True)
    # int64, not float: the numerators reach 2**63
    totals = np.zeros(dens.size, dtype=np.int64)
    np.add.at(totals, which, num)
    return sum((Fraction(int(t), int(d)) for t, d in zip(totals, dens)), Fraction(0))


def _nearest(pf: np.ndarray, sq_norms: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    """Exact nearest centroid s_g / n_g of every point, ties to the lowest g.

    Returns the assignment a and, per point, ||n_a p - s_a||^2, its squared
    distance to its centroid times n_a^2.

    A point p ranks the groups by T_g = c_g - 2 p . s_g / n_g with
    c_g = ||s_g||^2 / n_g^2, its squared distance to the centroid less
    ||p||^2.  One float64 GEMM of the points with the columns -2 s_g / n_g,
    plus c_g, gives every float score.  With u = 2**-53 and r_g = ||s_g|| / n_g
    its error is at most (dim + 4) u (||p|| + r_g)^2, up to a factor
    1 + O(dim u):

    * fl(-2 / n_g) and its products with the integers s_gj are rounded once
      each, 2u relative; c_g divides two exact int64 values, each converted
      to float64 once, 3u relative;
    * the dim-term dot product is off by at most dim u / (1 - dim u) times
      sum_j |p_j w_gj|, in any summation order, and by Cauchy-Schwarz that
      sum is at most 2 ||p|| r_g;
    * adding c_g rounds once more, u times |T_g| <= 2 ||p|| r_g + r_g^2.

    So B = (dim + 8) 2**-52 (||p|| + max_g r_g)^2, twice the bound, covers
    every score of a row and the rounding of B itself.  The exact minimum
    lies within 2B of the float minimum, so a row whose second-smallest
    float score is farther away is decided by the argmin; the other rows
    are settled exactly by :func:`_exact_argmin` on the int64 numerators
    ||s_g||^2 - 2 n_g p . s_g over n_g^2.  The distance is formed
    in int64 for the chosen group only; p . s_a is an exact float64 sum of
    integers below 2**53.
    """
    n, dim = pf.shape
    sums_f = sums.astype(np.float64)
    sq_sums = np.einsum("ij,ij->i", sums, sums)
    den = counts * counts
    offset = sq_sums / den
    score = pf @ (sums_f.T * (-2.0 / counts))
    score += offset
    rows = np.arange(n)
    assign = np.argmin(score, axis=1)
    low = score[rows, assign]
    width = 2 * (dim + 8) * 2.0**-52 * (np.sqrt(sq_norms) + np.sqrt(offset.max())) ** 2
    score[rows, assign] = np.inf
    near = np.flatnonzero(np.min(score, axis=1) <= low + width)
    if near.size:
        num = sq_sums - 2 * counts * (pf[near] @ sums_f.T).astype(np.int64)
        assign[near] = _exact_argmin(num, den)
    na = counts[assign]
    dots = np.einsum("ij,ij->i", pf, sums_f[assign]).astype(np.int64)
    return assign, na * na * sq_norms - 2 * na * dots + sq_sums[assign]


def _kmeans_pp_init(pf: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator):
    """Seeded k-means++ seeding on exact squared distances; degenerate
    all-coincident tails fall back to the lowest unchosen indices.  Returns
    the chosen points as int64 group sums."""
    n = pf.shape[0]
    pf_t = np.ascontiguousarray(pf.T)

    def dist2(i: int) -> np.ndarray:
        # p_i . p summed over the support of p_i only: exact integers in float64
        support = np.flatnonzero(pf[i])
        return sq_norms + sq_norms[i] - 2 * (pf[i, support] @ pf_t[support]).astype(np.int64)

    chosen = [int(rng.integers(n))]
    d2 = dist2(chosen[0])
    for _ in range(1, k):
        total = int(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else min(set(range(n)) - set(chosen))
        chosen.append(idx)
        np.minimum(d2, dist2(idx), out=d2)
    return pf[chosen].astype(np.int64)


def _fix_empty(pf: np.ndarray, assign: np.ndarray, dist: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> bool:
    """Reseed every empty group with the point farthest from its own centroid,
    taken from a group with at least two members; ``dist`` holds the scaled
    distances returned by :func:`_nearest` and is updated in place."""
    members = np.bincount(assign, minlength=len(counts))
    empty = np.flatnonzero(members == 0)
    for g in empty:
        eligible = np.flatnonzero(members[assign] >= 2)
        scale = counts[assign[eligible]]
        stolen = int(eligible[_exact_argmin(-dist[eligible][None, :], scale * scale)[0]])
        sums[g] = pf[stolen]
        counts[g] = 1
        members[assign[stolen]] -= 1
        members[g] = 1
        assign[stolen] = g
        dist[stolen] = 0
    return empty.size > 0


def _check_non_increasing(trace: list[Fraction]) -> None:
    for a, b in zip(trace, trace[1:]):
        if b > a:
            raise GmkitError(f"k-means objective increased from {float(a)!r} to {float(b)!r}")


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    iter_cap: int = KMEANS_ITER_CAP,
    initial: AssignmentMatrix | None = None,
) -> KMeansResult:
    """Plain k-means on integer points, in exact integer arithmetic, with
    seeded k-means++ init or a warm start, and a no-empty-cluster policy.

    ``points`` is (N, dim), one integer-valued point per row; requires
    k <= N.  Every centroid is kept as an integer sum over a count, so each
    distance comparison is exact and ties go to the lowest group index.

    Without ``initial``, the centroids are seeded by k-means++ from ``rng``.
    With an ``initial`` assignment of the N points to k groups (every group
    nonempty), Lloyd starts from that assignment's group means and draws
    nothing from ``rng``; the trace then opens with that assignment's
    objective, so the non-increase check bounds the result by it, and an
    assignment that is already a fixed point ends the run after one
    assignment step.  Raises :class:`DimensionError` when ``initial`` does
    not assign N points and :class:`ConfigError` when it has other than k
    groups.

    Empty clusters are reseeded with the point currently farthest from its
    own centroid (ties to the lowest point index), taken from a cluster with
    at least two members, so no group is ever returned empty.  Reseeding
    moves that point onto its new centroid and therefore never increases the
    objective; the full objective trace (after every assignment, reseed and
    centroid update) is checked to be non-increasing on its exact rational
    values and returned rounded to floats.  A run that reaches ``iter_cap``
    ends with one more assignment step and centroid update, so the returned
    sums and counts are always those of the returned assignment.  Raises
    :class:`InvalidInputError` on non-finite or non-integer points.
    """
    pf = _integer_points(points)
    n = pf.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= number of points, got k={k} n={n}")
    if initial is not None:
        if initial.num_signatures != n:
            raise DimensionError(f"initial assignment has {initial.num_signatures} entries for {n} points")
        if initial.num_groups != k:
            raise ConfigError(f"initial assignment has {initial.num_groups} groups, expected k={k}")
    sq_norms = np.einsum("ij,ij->i", pf, pf).astype(np.int64)
    total_sq = int(sq_norms.sum())
    trace: list[Fraction] = []

    def assign_step(sums, counts):
        assign, dist = _nearest(pf, sq_norms, sums, counts)
        trace.append(_exact_sum(dist, counts[assign] ** 2))
        if _fix_empty(pf, assign, dist, sums, counts):
            trace.append(_exact_sum(dist, counts[assign] ** 2))
        return assign

    def update_step(assign):
        sums, counts = _group_sums(pf, assign, k)
        # at the group means the objective is sum ||p||^2 - sum_g ||s_g||^2 / n_g
        trace.append(total_sq - _exact_sum(np.einsum("ij,ij->i", sums, sums), counts))
        return sums, counts

    if initial is None:
        sums = _kmeans_pp_init(pf, sq_norms, k, rng)
        counts = np.ones(k, dtype=np.int64)
        prev = None
    else:
        prev = initial.group_of
        sums, counts = update_step(prev)
    iterations = 0
    for _ in range(iter_cap):
        iterations += 1
        assign = assign_step(sums, counts)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums, counts = update_step(assign)
    else:
        # iteration cap: assign to the last centroids, then move them to the
        # means of that assignment, so the sums and counts returned are its own
        assign = assign_step(sums, counts)
        sums, counts = update_step(assign)
    _check_non_increasing(trace)
    return KMeansResult(sums, counts, assign, tuple(float(v) for v in trace), iterations)


def ry_step(
    codes: CodeMatrix,
    num_groups: int,
    rng: np.random.Generator,
    previous: AssignmentMatrix | None = None,
) -> tuple[CodeMatrix, AssignmentMatrix]:
    """Grouping update: k-means on the codes, then ternarize centroids.

    With R relaxed to real values, lambda * ||E - RY||^2 is lambda times the
    k-means objective on the columns of E, so k-means runs on the integer
    codes themselves and lambda does not enter this step.
    Each final centroid is ternarized to produce its group representation;
    its integer group sum has the same signs and the same ranking of
    magnitudes, so the sum is ternarized, free of any rounding.

    Given the ``previous`` assignment, k-means starts from it (see
    :func:`kmeans`) and draws nothing from ``rng``, so the relaxed grouping
    objective ends no higher than that assignment's on the new codes: a
    block-coordinate update of (R, Y).  Without it, k-means++ seeds afresh.
    """
    if num_groups > codes.codes.shape[1]:
        raise ConfigError(f"cannot form {num_groups} groups from {codes.codes.shape[1]} codes")
    result = kmeans(codes.codes.T, num_groups, rng, initial=previous)
    return _ternarized_sums(result.sums, codes.sparsity), AssignmentMatrix(result.assignments, num_groups)


def _ternarized_sums(sums: np.ndarray, sparsity: int) -> CodeMatrix:
    return CodeMatrix(ternarize_columns(sums.T, sparsity), sparsity)


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
    group: Callable[[CodeMatrix, AssignmentMatrix | None], tuple[CodeMatrix, AssignmentMatrix]],
) -> Model:
    """The alternating loop behind :func:`train` and the baseline.

    ``group`` is the grouping step: it maps the current codes and the
    current assignment (None on the first call) to the group
    representations and the new assignment.  Every call after the first
    must be deterministic and draw nothing from ``rng``: the loop stops at
    the first iteration that ends in the same state as the one before it,
    which is sound only if such a state repeats forever (see the module
    docstring).
    """
    projection, codes = _init_state(signatures, config, rng)
    reps, assign = group(codes, None)

    trace: list[ObjectiveBreakdown] = []
    prev_state = None
    for _ in range(config.max_outer_iters):
        projection = _svd_projection(signatures, codes)
        # W^T X once per iteration, for the code update and the embedding cost
        projected = projection.data.T @ signatures.data
        codes = e_step(projected, reps, assign, config.within_weight, config.sparsity)
        reps, assign = group(codes, assign)
        trace.append(objective(projected, codes, reps, assign, config.within_weight))
        state = (codes.codes, reps.codes, assign.group_of)
        if prev_state is not None and all(map(np.array_equal, state, prev_state)):
            break
        prev_state = state
    return Model(projection, codes, reps, assign, config, tuple(trace))


def train(signatures: SignatureMatrix, config: ModelConfig) -> Model:
    """Alternating minimization loop, deterministic for a fixed config seed.

    Initialization: orthonormalized seeded Gaussian projection, codes from a
    first ternarization pass, grouping from a seeded k-means++ run on those
    codes.  Every later grouping step warm-starts k-means from the current
    assignment, so k-means++ runs once per training run and nothing is
    drawn from the rng after it.  Stops after ``max_outer_iters``
    iterations, or earlier at the first iteration whose codes,
    representations and assignment equal the previous iteration's (an
    exact fixed point: the model is the one ``max_outer_iters`` iterations
    give, and the trace lacks only the repeats of its last row).
    """
    _validate_train_dims(signatures, config)
    rng = np.random.default_rng(config.seed)
    return _alternate(
        signatures,
        config,
        rng,
        lambda codes, previous: ry_step(codes, config.num_groups, rng, previous),
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
    group_of[perm] = np.repeat(np.arange(num_groups), group_size)
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

    def group(codes: CodeMatrix, _previous: AssignmentMatrix | None) -> tuple[CodeMatrix, AssignmentMatrix]:
        sums, _ = _group_sums(codes.codes.T, assign.group_of, assign.num_groups)
        return _ternarized_sums(sums, codes.sparsity), assign

    return _alternate(signatures, config, rng, group)
