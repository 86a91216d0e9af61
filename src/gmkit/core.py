"""Domain types and the ternarizer.

A signature is a unit-norm column of a real d x N matrix.  Codes live in
{-1, 0, +1}^l with exactly ``sparsity`` nonzero symbols; they are produced by
projecting onto an orthonormal-column matrix and keeping the largest
magnitudes, and are stored as the columns of a :class:`CodeMatrix`; a
single code, such as the protocol's query, is a one-column matrix.  One
ternarizer quantizes every code, whole matrices at a time
(:func:`ternarize_columns`); the evaluation module compares codes in
batches, and :func:`embed` codes one signature.  Everything here is
immutable and side-effect free.
"""

from __future__ import annotations

import numbers
import operator
import typing
import weakref
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    InvalidSparsityError,
)

UNIT_NORM_TOL = 1e-6
ORTHONORMAL_TOL = 1e-8


def _as_array(values, what: str, ndim: int, shape_error: type, integers: bool = False) -> np.ndarray:
    """``values`` as an ``ndim``-D array, not copied: a ragged input or another
    ``ndim`` raises ``shape_error``, an entry that is not a real number
    InvalidInputError, and, with ``integers``, one that is not an integer
    ConfigError.  The dtype of an empty array is not checked."""
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's error for ragged nested sequences
        raise shape_error(f"{what} are ragged") from None
    if a.ndim != ndim:
        raise shape_error(f"{what} must be {ndim}-D, got shape {a.shape}")
    if a.size and a.dtype.kind not in ("iu" if integers else "biuf"):
        if integers:
            raise ConfigError(f"{what} must be integers, got dtype {a.dtype}")
        raise InvalidInputError(f"{what} must be real numbers, got dtype {a.dtype}")
    return a


# columns of the output per block of a transposed read (see _tiled); of 16
# to 256, 64 times about the fastest on each read it serves at the enroll shape
_TILE = 64


def _tiled(op, out: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
    """``out`` after ``op(*inputs, out=out)``, for an elementwise ``op`` and
    2-D arrays of one shape, ``out`` C- or F-contiguous.

    When every input is contiguous in ``out``'s order this is that one
    call.  Otherwise ``op`` runs on one block of ``_TILE`` columns of a
    C-ordered ``out`` (rows of an F-ordered one) at a time, and the same
    block of each input, so that an input stored the other way is read a
    few of its rows at a time and each cache line it loads is used whole.
    Every element gets the value the one call gives it.
    """
    walk, ins = (out, inputs) if out.flags.c_contiguous else (out.T, tuple(a.T for a in inputs))
    if all(a.flags.c_contiguous for a in ins):
        op(*ins, out=walk)
    else:
        for j in range(0, walk.shape[1], _TILE):
            block = slice(j, j + _TILE)
            op(*(a[:, block] for a in ins), out=walk[:, block])
    return out


# every array _held has copied and frozen, by id, for as long as it lives
_HELD_COPIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _held(a: np.ndarray, dtype: type, order: str = "K") -> np.ndarray:
    """A checked input as it is kept: read-only, of ``dtype``, and out of
    reach of every writeable array.  That is ``a`` itself when it has the
    dtype, is contiguous in ``order`` (any layout for the default "K") and
    is a read-only view of an array this function copied and froze (or is
    that array); anything else is copied once, in ``order`` (by default
    ``a``'s layout), and the copy made read-only.  Only such copies are
    trusted: an array frozen by its caller may still have writeable views.

    A copy of an array not contiguous in ``order`` goes through
    :func:`_tiled`, because it reads the array across its memory order
    (the enrolled copy of ``generate`` and of a bundle load), and at a
    power-of-two stride a straight read evicts its own cache lines."""
    laid_out = order not in ("C", "F") or a.flags[f"{order}_CONTIGUOUS"]
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if _HELD_COPIES.get(id(base)) is base and a.dtype == dtype and laid_out:
            return a
        base = base.base
    if a.ndim == 2 and not laid_out:
        # an unsafe copyto casts as np.array(a, dtype=dtype) does
        a = _tiled(lambda src, out: np.copyto(out, src, casting="unsafe"), np.empty(a.shape, dtype, order), a)
    else:
        a = np.array(a, dtype=dtype, order=order)
    a.setflags(write=False)
    _HELD_COPIES[id(a)] = a
    return a


def _check_query_vectors(vectors, dim: int | None, what: str, shape_error: type, order: str = "K") -> np.ndarray:
    """The query vectors, one per row, held as a read-only float64 Q x dim
    matrix in ``order`` (see :func:`_held`).

    A ragged or non-2-D input, or one not ``dim`` wide (any width when
    ``dim`` is None), raises ``shape_error``; entries that are not real
    numbers, and rows whose float64 norm is not 1 within UNIT_NORM_TOL (a
    non-finite row fails too, as does one whose squares overflow), raise
    InvalidInputError.
    """
    rows = _as_array(vectors, f"{what} vectors", 2, shape_error)
    if dim not in (None, rows.shape[1]):
        raise shape_error(f"{what} dimension mismatch: shape {rows.shape}, expected (Q, {dim})")
    f = rows.astype(np.float64, copy=False)
    # "not <=" so that a NaN norm fails the check; an overflowing square makes it inf
    if not np.all(np.abs(np.sqrt(np.einsum("ij,ij->i", f, f)) - 1.0) <= UNIT_NORM_TOL):
        raise InvalidInputError(f"{what} is not unit norm")
    return _held(rows, np.float64, order)


def _check_query_labels(labels, count: int, what: str, shape_error: type) -> np.ndarray:
    """The labels of ``count`` query rows, held as a read-only int64 vector;
    another count raises ``shape_error``, a label that is not an integer
    ConfigError."""
    a = _as_array(labels, what, 1, shape_error, integers=True)
    if len(a) != count:
        raise shape_error(f"{what}: shape {a.shape}, expected one per query, ({count},)")
    return _held(a, np.int64)


@dataclass(frozen=True)
class SignatureMatrix:
    """Enrolled signatures, one unit-norm column per enrollee (d x N), checked
    and held by :func:`_check_query_vectors` on the transpose.

    Held C-ordered whatever the input's layout, so that a bundle, which
    loads F-ordered, trains the bits the same matrix generated in memory
    does: BLAS may sum X E^T in another order for another layout.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_array(self.data, "signature matrix", 2, DimensionError)
        if not a.size:
            raise DimensionError(f"signature matrix must be nonempty, got shape {a.shape}")
        held = _check_query_vectors(a.T, None, "signature", DimensionError, "F")
        object.__setattr__(self, "data", held.T)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def num_signatures(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ProjectionMatrix:
    """Real d x l matrix with orthonormal columns, l < d."""

    data: np.ndarray

    def __post_init__(self):
        a = _as_array(self.data, "projection", 2, DimensionError)
        d, code_len = a.shape
        if not code_len < d:
            raise DimensionError(f"projection needs fewer columns than rows, got {d} x {code_len}")
        f = a.astype(np.float64, copy=False)
        worst = float(np.max(np.abs(f.T @ f - np.eye(code_len))))
        # "not <=" so that a non-finite entry, which makes ``worst`` NaN, fails the check
        if not worst <= ORTHONORMAL_TOL:
            raise InvalidInputError(f"projection columns must be orthonormal (worst deviation {worst:.3g})")
        object.__setattr__(self, "data", _held(a, np.float64))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def code_length(self) -> int:
        return self.data.shape[1]


def as_int(value, name: str, error: type) -> int:
    """``value`` as a Python int (numpy integers too); anything else raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _hold_plain_numbers(config) -> None:
    """Set each int and float field of the frozen dataclass ``config`` to a
    plain Python int (by :func:`as_int`) or float; a value that is not an
    integer, or not a real number, raises ConfigError naming the field."""
    for name, kind in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if kind is int:
            value = as_int(value, name, ConfigError)
        elif isinstance(value, numbers.Real):
            value = float(value)
        else:
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        object.__setattr__(config, name, value)


def _checked_codes(symbols, sparsity: int) -> np.ndarray:
    """l x K codes stored columnwise, held as a read-only int8 matrix (see
    :func:`_held`) after checking that every entry lies in {-1, 0, +1} and
    every column has exactly ``sparsity`` nonzeros.

    Integer-valued floats are accepted.  The alphabet is checked before the
    sparsity, over the whole matrix at once.
    """
    s = _as_array(symbols, "codes", 2, DimensionError)
    if not np.all((s == 0) | (s == 1) | (s == -1)):
        raise InvalidInputError("code symbols must lie in {-1, 0, +1}")
    length = s.shape[0]
    if not 1 <= sparsity < length:
        raise InvalidSparsityError(f"need 1 <= sparsity < length, got sparsity={sparsity} length={length}")
    nnz = np.count_nonzero(s, axis=0)
    wrong = np.flatnonzero(nnz != sparsity)
    if wrong.size:
        j = wrong[0]
        raise InvalidSparsityError(f"code {j} has {nnz[j]} nonzeros, declared sparsity {sparsity}")
    return _held(s, np.int8)


@dataclass(frozen=True)
class CodeMatrix:
    """Exactly-S ternary codes stored columnwise (l x K).

    Holds both the per-signature codes E (one column per signature) and the
    group representations R (one column per group); with one member per
    group the two coincide, so the column count is called ``num_groups``.
    A single code, such as the protocol's query, is a one-column matrix.
    """

    codes: np.ndarray
    sparsity: int

    def __post_init__(self):
        object.__setattr__(self, "sparsity", as_int(self.sparsity, "sparsity", InvalidSparsityError))
        object.__setattr__(self, "codes", _checked_codes(self.codes, self.sparsity))

    @property
    def code_length(self) -> int:
        return self.codes.shape[0]

    @property
    def num_groups(self) -> int:
        return self.codes.shape[1]

    @property
    def symbols(self) -> np.ndarray:
        """The length-l code of a one-column matrix; any other width raises
        DimensionError."""
        if self.num_groups != 1:
            raise DimensionError(f"symbols needs a one-column code matrix, got {self.num_groups} columns")
        return self.codes[:, 0]

    def column(self, j: int) -> CodeMatrix:
        """Column ``j`` as a one-column matrix; an out-of-range ``j`` raises
        IndexError."""
        return CodeMatrix(self.codes[:, [j]], self.sparsity)


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the joint embedding / grouping optimization.

    ``within_weight`` (lambda) weighs the within-group scatter term and must
    be finite and positive; the paper's between-group term is a constant and
    is not modelled (see :mod:`gmkit.learning`).

    Training runs at most ``max_outer_iters`` outer iterations, and stops
    at the first one whose codes, representations and assignment all equal
    the previous iteration's: that state is an exact fixed point, which
    every later iteration would repeat bit for bit, so the stop changes no
    model.

    Every field is held as a plain Python int or float (numpy scalars are
    converted); a value of another kind is a ConfigError naming the field.
    """

    code_length: int
    sparsity: int
    num_groups: int
    within_weight: float = 1.0
    max_outer_iters: int = 30
    seed: int = 0

    def __post_init__(self):
        _hold_plain_numbers(self)
        if not 1 <= self.sparsity < self.code_length:
            raise ConfigError(f"need 1 <= sparsity < code_length, got {self.sparsity} vs {self.code_length}")
        if self.num_groups < 1:
            raise ConfigError("num_groups must be positive")
        if not (self.within_weight > 0 and np.isfinite(self.within_weight)):
            raise ConfigError(f"within_weight must be finite and > 0, got {self.within_weight}")
        if self.max_outer_iters < 1:
            raise ConfigError("max_outer_iters must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# {name: int or float} of each ModelConfig field, in declaration order: the
# [model] keys of an experiment config and the [config] keys of a model file
_MODEL_FIELDS: dict[str, type] = typing.get_type_hints(ModelConfig)


def _read_fields(cls, values: Mapping[str, str], error: type, where: str = "", *,
                 keys: Mapping[str, str] = {}, defaults: Mapping[str, object] = {}, strict: bool = False):
    """An instance of the dataclass ``cls`` built from key=value text.

    Each field is read from ``values[key]``, where the key is
    ``keys.get(name, name)``, and cast to its annotated type.  A missing key
    falls back to ``defaults[name]``, then to the field's own default; with
    ``strict`` every key is required and no other is allowed.  A value the
    cast rejects, and a missing required or unknown key, raise ``error``
    with a message that starts with ``where`` and names the key.  A
    ConfigError of ``cls`` itself that starts with a renamed field's name
    is raised again with the key in its place.
    """
    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for field in fields(cls):
        name = field.name
        key = keys.get(name, name)
        if key in values:
            try:
                kwargs[name] = kinds[name](values[key])
            except ValueError:
                raise error(f"{where}bad value for {key}: {values[key]!r}") from None
        elif name in defaults and not strict:
            kwargs[name] = defaults[name]
        elif strict or field.default is MISSING:
            raise error(f"{where}missing required config key {key!r}")
    if strict and (unknown := values.keys() - {keys.get(name, name) for name in kinds}):
        raise error(f"{where}unknown key {min(unknown)!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in keys:
            raise
        raise ConfigError(f"{keys[name]} {rest}") from None


def _ternarize_checked(m: np.ndarray, sparsity: int) -> np.ndarray:
    """Columnwise ternarization of a 2-D float64 array (int8 result).

    In every column the ``sparsity`` largest-magnitude entries become +/-1
    by sign, the rest 0.  Ties are broken toward the lowest index and
    sign(0) is +1, so the result is deterministic for any input.

    This is the first ``sparsity`` rows of a stable sort on -|m|, found by
    selection: one partition gives each column's ``sparsity``-th largest
    magnitude t, every entry above t is kept, and the remaining slots go to
    the lowest-index entries equal to t.

    |m^T| is formed by :func:`_tiled`, because it reads m across its memory
    order, and at a power-of-two column count (4096 codes at the enroll
    shape) a straight read of that stride evicts its own cache lines.
    """
    sparsity = as_int(sparsity, "sparsity", InvalidSparsityError)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("cannot ternarize non-finite values")
    length = m.shape[0]
    if not 1 <= sparsity < length:
        raise InvalidSparsityError(f"need 1 <= sparsity < length, got sparsity={sparsity} length={length}")
    # one row per column of m, so that each selection runs on contiguous memory
    mag = _tiled(np.abs, np.empty(m.T.shape), m.T)
    t = np.partition(mag, length - sparsity, axis=1)[:, length - sparsity, None]
    keep = mag >= t
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > sparsity)
    if tied.size:
        above = mag[tied] > t[tied]
        at = mag[tied] == t[tied]
        slots = sparsity - np.count_nonzero(above, axis=1)
        keep[tied] = above | (at & (np.cumsum(at, axis=1) <= slots[:, None]))
    keep = np.ascontiguousarray(keep.T)
    return keep.view(np.int8) - 2 * (keep & (m < 0)).view(np.int8)


def ternarize_columns(matrix: np.ndarray, sparsity: int) -> np.ndarray:
    """Columnwise ternarization of an l x N real matrix (int8 result)."""
    m = _as_array(matrix, "values", 2, DimensionError).astype(np.float64, copy=False)
    return _ternarize_checked(m, sparsity)


def embed(projection: ProjectionMatrix, signature: np.ndarray, sparsity: int) -> CodeMatrix:
    """Sparsifying transform coding of one signature: its projection W^T x,
    ternarized, as a one-column matrix.  The measures embed all queries at
    once; this codes one, such as a protocol query.
    """
    x = _as_array(signature, "signature", 1, DimensionError).astype(np.float64, copy=False)
    if x.size != projection.dim:
        raise DimensionError(f"signature of length {x.size} does not match projection rows {projection.dim}")
    return CodeMatrix(_ternarize_checked((projection.data.T @ x)[:, None], sparsity), sparsity)
