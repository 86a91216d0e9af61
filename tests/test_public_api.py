"""Each export list names every public object once, and every name resolves;
an argument of the wrong kind is a GmkitError subclass naming it, never a
raw Python or numpy error."""

import random

import numpy as np
import pytest

import gmkit
import gmkit.protocol
from gmkit.core import CodeMatrix, ModelConfig, ProjectionMatrix, embed, ternarize_columns
from gmkit.errors import ConfigError, InvalidInputError, InvalidSparsityError, ProtocolError
from gmkit.evaluation import QuerySet, RocCurve, pfn_at_pfp, verification_sweep
from gmkit.learning import AssignmentMatrix, Model, e_step, kmeans, objective, ry_step
from gmkit.protocol import ProtocolKeys, SecurityParams, run_protocol


@pytest.mark.parametrize("module", [gmkit, gmkit.protocol], ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []
    assert [name for name in names if not hasattr(module, name)] == []


# a 4 x 4 code matrix (length 4, sparsity 1) split into two groups of two
CODES = CodeMatrix(np.eye(4), 1)
GROUPS = AssignmentMatrix(np.array([0, 1, 0, 1]), 2)
REPS = CodeMatrix(np.eye(4)[:, :2], 1)


def small_model():
    projection = ProjectionMatrix(np.eye(6)[:, :4])
    return Model(projection, CODES, REPS, GROUPS, ModelConfig(4, 1, 2), ())


@pytest.mark.parametrize("call, error, name", [
    pytest.param(lambda: ternarize_columns(np.ones((4, 3)), 1.5), InvalidSparsityError, "sparsity",
                 id="ternarize_columns-sparsity"),
    pytest.param(lambda: embed(ProjectionMatrix(np.eye(6)[:, :4]), np.eye(6)[0], "2"), InvalidSparsityError,
                 "sparsity", id="embed-sparsity"),
    pytest.param(lambda: kmeans(CODES, 2.5, np.random.default_rng(0)), ConfigError, "k", id="kmeans-k"),
    pytest.param(lambda: ry_step(CODES, "1", np.random.default_rng(0)), ConfigError, "num_groups",
                 id="ry_step-num_groups"),
    pytest.param(lambda: AssignmentMatrix(np.array([0, 1, 0, 1]), 2.0), ConfigError, "num_groups",
                 id="AssignmentMatrix-num_groups"),
])
def test_integer_arguments_are_checked(call, error, name):
    with pytest.raises(error, match=rf"^{name} must be") as caught:
        call()
    assert type(caught.value) is error


def test_integer_arguments_accept_numpy_integers():
    assert type(AssignmentMatrix(np.array([0, 1, 0, 1]), np.int64(2)).num_groups) is int
    assert len(kmeans(CODES, np.int64(2), np.random.default_rng(0)).counts) == 2
    assert np.array_equal(ternarize_columns(np.eye(4), np.int8(1)), np.eye(4))


@pytest.mark.parametrize("call, error, name", [
    pytest.param(lambda: e_step(CODES.codes.astype(float), REPS, GROUPS, "1"), InvalidInputError, "within_weight",
                 id="e_step-within_weight"),
    pytest.param(lambda: objective(CODES.codes.astype(float), CODES, REPS, GROUPS, None), InvalidInputError,
                 "within_weight", id="objective-within_weight"),
    pytest.param(lambda: pfn_at_pfp(RocCurve(((-1.0, 0.0, 1.0), (4.0, 1.0, 0.0))), "0.05"), ConfigError,
                 "target false positive rate", id="pfn_at_pfp-target"),
    pytest.param(lambda: verification_sweep(small_model(), QuerySet(np.eye(6)[:2], [0, 1], np.eye(6)[2:4]), None),
                 ConfigError, "rng", id="verification_sweep-rng"),
    pytest.param(lambda: kmeans(CODES, 2, None), ConfigError, "rng", id="kmeans-rng"),
])
def test_real_and_rng_arguments_are_checked(call, error, name):
    with pytest.raises(error, match=rf"^{name} must be") as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: run_protocol(REPS.codes[:, :1], REPS, 0, random.Random(0)), "code", id="run_protocol-code"),
    pytest.param(lambda: run_protocol(REPS.column(0), REPS.codes, 0, random.Random(0)), "representations",
                 id="run_protocol-representations"),
    pytest.param(lambda: run_protocol(REPS.column(0), REPS, 0, None), "rng", id="run_protocol-rng-none"),
    pytest.param(lambda: run_protocol(REPS.column(0), REPS, 0, np.random.default_rng(0)), "rng",
                 id="run_protocol-rng-numpy"),
    pytest.param(lambda: run_protocol(REPS.column(0), REPS, 0, random.Random(0), SecurityParams()), "keys",
                 id="run_protocol-keys"),
    pytest.param(lambda: ProtocolKeys.generate(128, random.Random(0)), "params", id="ProtocolKeys.generate-params"),
    pytest.param(lambda: ProtocolKeys.generate(SecurityParams(), None), "rng", id="ProtocolKeys.generate-rng"),
])
def test_protocol_argument_kinds_are_checked(call, name):
    with pytest.raises(ProtocolError, match=rf"^{name} must be") as caught:
        call()
    assert type(caught.value) is ProtocolError
