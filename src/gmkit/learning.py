"""Joint learning of the projection, hash codes, group assignments and
group representations by alternating minimization.

The objective being minimized is

    ||E - W^T X||_F^2  +  lambda * ||E - R Y||_F^2

over an orthonormal-column projection W, exactly-S ternary codes E, ternary
group representations R and a one-group-per-signature assignment Y.  The
paper also subtracts gamma * ||R Y||_F^2, which is not modelled: every
representation has exactly S nonzeros, so ||R Y||_F^2 = N S is constant.
The three block updates are:

* projection update: W = U V^T from the thin SVD U diag(s) V^T of X E^T,
  which maximizes tr(W^T X E^T) over orthonormal-column W.  That is the
  cross term of the embedding cost only: for l < d, ||W^T X||_F^2 also
  varies with W, so the step need not minimize the embedding cost;
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

So at the default lambda = 1 training learns W for a grouping it does not
revise: once every code sits on its group's representation, the warm
k-means has no code to move.  In every run probed, the trained (R, Y) is
the first grouping update's, k-means++ and k-means on the codes of the
seeded random projection that training starts from (a test asserts it at
the protocol-session shape, N = 1024, l = 64, M = 64).

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
codes in exact integer arithmetic: a centroid is a group sum over a member
count, so distances are compared as exact rationals, ties go to the lowest
group index exactly, and the non-increase check is exact, with no slack.

Its float steps are exact.  A code has S entries of magnitude 1, so
||e||^2 = S, and group sums, seeding distances and the products behind the
scores add integers bounded by S and the group sizes: float32 holds them
when a bound taken from the step's own inputs allows it, float64 always.
A score is a correctly rounded quotient of two exactly held integers, so
rounding is monotone and the exact minimum is among the columns at a row's
float minimum (see :func:`_exact_argmin`); only the rows that rounding
cannot decide are settled in Python integers.  The objective values are
summed in int64 and Python rationals.
"""

from __future__ import annotations

import numbers
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
    as_int,
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
        object.__setattr__(self, "num_groups", as_int(self.num_groups, "num_groups", ConfigError))
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
    """Learned state bundle plus the objective trace that produced it.

    Mismatched array shapes raise DimensionError; a ``config`` whose
    ``code_length``, ``sparsity`` or ``num_groups`` differs from the arrays'
    raises ConfigError naming the field.
    """

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
        for name, held in (
            ("code_length", self.projection.code_length),
            ("sparsity", self.codes.sparsity),
            ("sparsity", self.representations.sparsity),
            ("num_groups", self.assignments.num_groups),
        ):
            if getattr(self.config, name) != held:
                raise ConfigError(f"config {name} is {getattr(self.config, name)}, but the model's arrays have {held}")


def objective(
    projected: np.ndarray,
    codes: CodeMatrix,
    representations: CodeMatrix,
    assignments: AssignmentMatrix,
    within_weight: float,
) -> ObjectiveBreakdown:
    """Objective breakdown for the projected signatures P = W^T X.

    The embedding cost is ||E - P||_F^2.  The within trace ||E - R Y||_F^2
    is computed in exact int64 from the group sums s_g as
    sum_i ||e_i||^2 + sum_i ||r_{y_i}||^2 - 2 sum_g r_g . s_g, where every
    squared norm is its code matrix's sparsity, so the first two sums are
    N times a sparsity.  The l x l scatter matrices are never materialized.

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
    sums, _ = _group_sums(codes.codes, assignments.group_of, assignments.num_groups)
    cross = int(np.sum(representations.codes.T.astype(np.int64) * sums))
    within = assignments.num_signatures * (codes.sparsity + representations.sparsity) - 2 * cross
    return ObjectiveBreakdown.from_parts(embedding, float(within), within_weight)


def _check_weight(within_weight: float) -> None:
    if not (isinstance(within_weight, numbers.Real) and np.isfinite(within_weight)):
        raise InvalidInputError(f"within_weight must be finite and a real number, got {within_weight!r}")


def _check_grouping(code_length: int, num_codes: int, representations: CodeMatrix, assignments: AssignmentMatrix) -> None:
    if representations.code_length != code_length:
        raise DimensionError("representation code length does not match the codes")
    if assignments.num_signatures != num_codes:
        raise DimensionError("assignment length does not match number of codes")
    if assignments.num_groups != representations.num_groups:
        raise DimensionError("assignment group count does not match representations")


def _svd_projection(signatures: SignatureMatrix, codes: CodeMatrix) -> ProjectionMatrix:
    """Projection update: the orthonormal-column W that maximizes tr(W^T X E^T).

    With S = X E^T the update is W = U V^T from the thin SVD S = U diag s V^T,
    the one-shot solution prescribed for this step (equivalent to pairing
    the top eigenvectors of S S^T with those of S^T S, but better
    conditioned).  It maximizes the cross term of the embedding cost, not
    the whole cost (see the module docstring).

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
) -> CodeMatrix:
    """Code update: columnwise ternarization of P + lambda * R Y for the
    projected signatures P = W^T X, at the representations' sparsity.

    A non-finite ``within_weight`` raises InvalidInputError; a ragged,
    non-2-D or mis-shaped ``projected`` DimensionError, and an entry that is
    not a finite real number, or a sum that overflows, InvalidInputError.
    """
    _check_weight(within_weight)
    projected = _as_array(projected, "projected signatures", 2, DimensionError)
    _check_grouping(projected.shape[0], projected.shape[1], representations, assignments)
    with np.errstate(over="ignore"):
        target = projected + within_weight * representations.codes[:, assignments.group_of].astype(np.float64)
    return CodeMatrix(ternarize_columns(target, representations.sparsity), representations.sparsity)


@dataclass(frozen=True)
class KMeansResult:
    """Final centroids, each the integer sum ``sums[g]`` over the count
    ``counts[g]``; assignments; and the per-update objective trace of one run."""

    sums: np.ndarray
    counts: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int


def _group_sums(codes: np.ndarray, group_of: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer sum s_g of the codes (l x N, one per column) in each of the k
    groups, and the member count n_g; every group must be nonempty.

    The codes are sorted by group and each group's run is summed by one
    int64 ``np.add.reduceat``, reading the int8 codes as they are.
    """
    counts = np.bincount(group_of, minlength=k)
    runs = np.cumsum(counts) - counts
    return np.add.reduceat(codes.T[np.argsort(group_of)], runs, axis=0, dtype=np.int64), counts


def _exact_argmin(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Row-wise argmin of the rationals num[i, j] / den[j] (den > 0), with
    exact ties going to the lowest column.

    ``num`` and ``den`` hold integers exactly: in float32 with every |num|
    below 2**23, or in float64 or int64 with every |num| and den below
    2**52.  A correctly rounded quotient of exactly held integers is
    monotone in the rational, so the exact minimum is among the columns at
    the row's float minimum, and over one denominator such numerators round
    to equal floats only when they are equal.  So ``np.argmin``'s lowest
    column is exact unless the tied columns' denominators differ; those rows
    are settled among the tied columns by cross-multiplication in Python
    integers, which cannot wrap.
    """
    score = num / den
    best = np.argmin(score, axis=1)
    tied = score == score[np.arange(len(best)), best][:, None]
    rows = np.flatnonzero(tied) // tied.shape[1]  # sorted: a row tied twice repeats
    many = np.unique(rows[1:][rows[1:] == rows[:-1]])
    for i in many[np.any(tied[many] & (den != den[best[many], None]), axis=1)]:
        cols = np.flatnonzero(tied[i]).tolist()
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


def _nearest(aug: np.ndarray, sparsity: int, sums: np.ndarray, counts: np.ndarray):
    """Exact nearest centroid s_g / n_g of every code, ties to the lowest g.

    ``aug`` is [P | 1] in float32, one exactly-S code p per row, so
    ||p||^2 = S.  Returns the assignment a and, per code, ||n_a p - s_a||^2,
    its squared distance to its centroid times n_a^2.

    A code p ranks the groups by num_g / n_g^2, its squared distance to the
    centroid less S, where num_g = ||s_g||^2 - 2 n_g p . s_g is an integer.
    Every numerator comes from one product,
    [P | 1] [-2 n_g s_g ; ||s_g||^2], whose terms add up to at most
    2 max n_g |s_gj| * S + max ||s_g||^2 in magnitude.  When that bound is
    below 2**23 and n_g <= 2**12, the product is taken in float32, where
    every partial sum, in any order, is an integer it holds, and so is n_g^2.
    Otherwise it is taken in float64: |s_gj| <= n_g and p has S entries of
    magnitude 1, so the bound is at most 3 S n_g^2 < 2**52 (see
    :func:`kmeans`).  :func:`_exact_argmin` picks the exact minimum from the
    numerators, and the distance is n_a^2 S + num_a.
    """
    sq_sums = np.einsum("ij,ij->i", sums, sums)
    weights = -2 * counts[:, None] * sums
    bound = int(np.max(np.abs(weights), initial=0)) * sparsity + int(sq_sums.max())
    dtype = np.float32 if bound < 2**23 and counts.max() <= 2**12 else np.float64
    num = aug.astype(dtype, copy=False) @ np.vstack([weights.T, sq_sums]).astype(dtype)
    assign = _exact_argmin(num, (counts * counts).astype(dtype))
    na = counts[assign]
    return assign, na * na * sparsity + num[np.arange(len(assign)), assign].astype(np.int64)


def _kmeans_pp_init(codes: np.ndarray, sparsity: int, k: int, rng: np.random.Generator):
    """Seeded k-means++ seeding of the codes (l x N, one per column) on exact
    squared distances; degenerate all-coincident tails fall back to the
    lowest unchosen indices.  Returns the chosen codes as int64 group sums."""
    n = codes.shape[1]
    # ||p_i - p||^2 = 2S - 2 p_i . p, and |p_i . p| <= S: exact in float32
    cf = codes.astype(np.float32)

    def dist2(i: int) -> np.ndarray:
        # p_i . p summed over the support of p_i only
        support = np.flatnonzero(codes[:, i])
        return 2 * sparsity - 2 * (cf[support, i] @ cf[support]).astype(np.int64)

    chosen = [int(rng.integers(n))]
    d2 = dist2(chosen[0])
    for _ in range(1, k):
        total = int(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else min(set(range(n)) - set(chosen))
        chosen.append(idx)
        np.minimum(d2, dist2(idx), out=d2)
    return codes[:, chosen].T.astype(np.int64)


def _fix_empty(codes: np.ndarray, assign: np.ndarray, dist: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> bool:
    """Reseed every empty group with the code (a column of ``codes``) farthest
    from its own centroid, taken from a group with at least two members;
    ``dist`` holds the scaled distances returned by :func:`_nearest` and is
    updated in place."""
    members = np.bincount(assign, minlength=len(counts))
    empty = np.flatnonzero(members == 0)
    for g in empty:
        eligible = np.flatnonzero(members[assign] >= 2)
        scale = counts[assign[eligible]]
        stolen = int(eligible[_exact_argmin(-dist[eligible][None, :], scale * scale)[0]])
        sums[g] = codes[:, stolen]
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
    codes: CodeMatrix,
    k: int,
    rng: np.random.Generator,
    initial: AssignmentMatrix | None = None,
) -> KMeansResult:
    """Plain k-means on the columns of a code matrix, in exact integer
    arithmetic, with seeded k-means++ init or a warm start, and a
    no-empty-cluster policy.

    ``codes`` is a :class:`CodeMatrix` of N exactly-S codes, one point per
    column; anything else raises :class:`InvalidInputError`.  Requires
    k <= N.  Every centroid is kept as an integer sum over a count, so each
    distance comparison is exact and ties go to the lowest group index.

    Without ``initial``, the centroids are seeded by k-means++ from ``rng``.
    With an ``initial`` assignment of the N codes to k groups (every group
    nonempty), Lloyd starts from that assignment's group means and draws
    nothing from ``rng``; the trace then opens with that assignment's
    objective, so the non-increase check bounds the result by it, and an
    assignment that is already a fixed point ends the run after one
    assignment step.  Raises :class:`DimensionError` when ``initial`` does
    not assign N codes and :class:`ConfigError` when it has other than k
    groups.

    Empty clusters are reseeded with the code currently farthest from its
    own centroid (ties to the lowest code index), taken from a cluster with
    at least two members, so no group is ever returned empty.  Reseeding
    moves that code onto its new centroid and therefore never increases the
    objective; the full objective trace (after every assignment, reseed and
    centroid update) is checked to be non-increasing on its exact rational
    values and returned rounded to floats.  A run that reaches
    ``KMEANS_ITER_CAP`` Lloyd iterations ends with one more assignment step
    and centroid update, so the returned sums and counts are always those of
    the returned assignment.
    """
    if not isinstance(codes, CodeMatrix):
        raise InvalidInputError(f"k-means groups a CodeMatrix, got {type(codes).__name__}")
    k = as_int(k, "k", ConfigError)
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng must be a numpy.random.Generator, got {rng!r}")
    points, sparsity = codes.codes, codes.sparsity
    dim, n = points.shape
    # the int64 objective numerators reach 4 l N^3 (see _exact_sum); every
    # numerator _exact_argmin compares is at most 4 S n_g^2 < 4 l N^2 in
    # magnitude (see _nearest and _fix_empty), and so below 2**52
    if 4 * dim * n**3 >= 2**63 or 4 * dim * n**2 >= 2**52:
        raise InvalidInputError(f"too many codes for exact k-means: N = {n}, l = {dim}")
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= number of points, got k={k} n={n}")
    if initial is not None:
        if initial.num_signatures != n:
            raise DimensionError(f"initial assignment has {initial.num_signatures} entries for {n} points")
        if initial.num_groups != k:
            raise ConfigError(f"initial assignment has {initial.num_groups} groups, expected k={k}")
    aug = np.ones((n, dim + 1), dtype=np.float32)  # [P | 1], the left operand of every assignment product
    aug[:, :-1] = points.T
    trace: list[Fraction] = []

    def assign_step(sums, counts):
        assign, dist = _nearest(aug, sparsity, sums, counts)
        trace.append(_exact_sum(dist, counts[assign] ** 2))
        if _fix_empty(points, assign, dist, sums, counts):
            trace.append(_exact_sum(dist, counts[assign] ** 2))
        return assign

    def update_step(assign):
        sums, counts = _group_sums(points, assign, k)
        # at the group means the objective is N S - sum_g ||s_g||^2 / n_g
        trace.append(n * sparsity - _exact_sum(np.einsum("ij,ij->i", sums, sums), counts))
        return sums, counts

    if initial is None:
        sums = _kmeans_pp_init(points, sparsity, k, rng)
        counts = np.ones(k, dtype=np.int64)
        prev = None
    else:
        prev = initial.group_of
        sums, counts = update_step(prev)
    iterations = 0
    for _ in range(KMEANS_ITER_CAP):
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
    k-means objective on the columns of E, so k-means runs on the code
    matrix itself and lambda does not enter this step.
    Each final centroid is ternarized to produce its group representation;
    its integer group sum has the same signs and the same ranking of
    magnitudes, so the sum is ternarized, free of any rounding.

    Given the ``previous`` assignment, k-means starts from it (see
    :func:`kmeans`) and draws nothing from ``rng``, so the relaxed grouping
    objective ends no higher than that assignment's on the new codes: a
    block-coordinate update of (R, Y).  Without it, k-means++ seeds afresh.
    """
    num_groups = as_int(num_groups, "num_groups", ConfigError)
    result = kmeans(codes, num_groups, rng, initial=previous)
    return _ternarized_sums(result.sums, codes.sparsity), AssignmentMatrix(result.assignments, num_groups)


def _ternarized_sums(sums: np.ndarray, sparsity: int) -> CodeMatrix:
    return CodeMatrix(ternarize_columns(sums.T, sparsity), sparsity)


def _validate_train_dims(signatures: SignatureMatrix, config: ModelConfig) -> None:
    if not isinstance(signatures, SignatureMatrix):
        raise InvalidInputError(f"signatures must be a SignatureMatrix, got {type(signatures).__name__}")
    if not isinstance(config, ModelConfig):
        raise ConfigError(f"config must be a ModelConfig, got {type(config).__name__}")
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
        codes = e_step(projected, reps, assign, config.within_weight)
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


def _balanced_group_size(num_signatures: int, num_groups: int) -> int:
    """num_signatures / num_groups; ConfigError when num_groups does not divide num_signatures."""
    if num_groups < 1 or num_signatures % num_groups:
        raise ConfigError(f"num_groups {num_groups} does not divide the number of signatures {num_signatures}")
    return num_signatures // num_groups


def random_balanced_assignment(num_signatures: int, num_groups: int, rng: np.random.Generator) -> AssignmentMatrix:
    """Random partition into num_groups groups of num_signatures / num_groups
    members each (see :func:`_balanced_group_size`)."""
    size = _balanced_group_size(num_signatures, num_groups)
    perm = rng.permutation(num_signatures)
    group_of = np.empty(num_signatures, dtype=np.int64)
    group_of[perm] = np.repeat(np.arange(num_groups), size)
    return AssignmentMatrix(group_of, num_groups)


def train_random_assignment_baseline(signatures: SignatureMatrix, config: ModelConfig) -> Model:
    """Baseline variant: the assignment is a fixed random balanced partition
    (see :func:`random_balanced_assignment`).

    Identical loop to :func:`train` except the grouping step only refreshes
    centroids and representations; the assignment never changes.  The
    partition is drawn before the initial state, from the same generator.
    """
    _validate_train_dims(signatures, config)
    rng = np.random.default_rng(config.seed)
    assign = random_balanced_assignment(signatures.num_signatures, config.num_groups, rng)

    def group(codes: CodeMatrix, _previous: AssignmentMatrix | None) -> tuple[CodeMatrix, AssignmentMatrix]:
        sums, _ = _group_sums(codes.codes, assign.group_of, assign.num_groups)
        return _ternarized_sums(sums, codes.sparsity), assign

    return _alternate(signatures, config, rng, group)
