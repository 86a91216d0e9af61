"""Each export list names every public object once, and every name resolves;
an argument of the wrong kind is a GmkitError subclass naming it, never a
raw Python or numpy error."""

import random

import numpy as np
import pytest

import gmkit
import gmkit.protocol
from gmkit.core import CodeMatrix, ModelConfig, ProjectionMatrix, SignatureMatrix, embed, ternarize_columns
from gmkit.errors import ConfigError, InvalidInputError, InvalidSparsityError, ProtocolError
from gmkit.evaluation import QuerySet, RocCurve, pfn_at_pfp, verification_sweep
from gmkit.learning import (
    AssignmentMatrix,
    Model,
    e_step,
    kmeans,
    objective,
    ry_step,
    train,
    train_random_assignment_baseline,
)
from gmkit.protocol import (
    MaskPair,
    ProtocolKeys,
    SecurityParams,
    client_round1_encrypt_query,
    client_round3_decrypt_reveal,
    draw_masks,
    run_protocol,
    server_round2_blind_threshold,
    validate_mask_range,
)


@pytest.mark.parametrize("module", [gmkit, gmkit.protocol], ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []
    assert [name for name in names if not hasattr(module, name)] == []


# a 4 x 4 code matrix (length 4, sparsity 1) split into two groups of two
CODES = CodeMatrix(np.eye(4), 1)
GROUPS = AssignmentMatrix(np.array([0, 1, 0, 1]), 2)
REPS = CodeMatrix(np.eye(4)[:, :2], 1)
KEYS = ProtocolKeys.generate(SecurityParams(64), random.Random(0))


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


@pytest.mark.parametrize("trainer", [train, train_random_assignment_baseline], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("args, error, name", [
    pytest.param((np.eye(4), ModelConfig(2, 1, 2)), InvalidInputError, "signatures", id="signatures"),
    pytest.param((SignatureMatrix(np.eye(4)), {}), ConfigError, "config", id="config"),
])
def test_training_argument_kinds_are_checked(trainer, args, error, name):
    with pytest.raises(error, match=rf"^{name} must be") as caught:
        trainer(*args)
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
    pytest.param(lambda: draw_masks(2, 50, None), "rng", id="draw_masks-rng"),
    pytest.param(lambda: client_round1_encrypt_query(np.eye(4)[:, :1], KEYS.additive_public, random.Random(0)),
                 "code", id="client_round1_encrypt_query-code"),
    pytest.param(lambda: client_round1_encrypt_query(REPS.column(0), KEYS, random.Random(0)), "key",
                 id="client_round1_encrypt_query-key"),
    pytest.param(lambda: client_round1_encrypt_query(REPS.column(0), KEYS.additive_public, None), "rng",
                 id="client_round1_encrypt_query-rng"),
    pytest.param(lambda: validate_mask_range(None, 1, 0, 50), "pk", id="validate_mask_range-pk"),
    pytest.param(lambda: server_round2_blind_threshold([1] * 4, REPS, KEYS.additive_secret, 0, [MaskPair(1, 0)] * 2,
                                                      8, random.Random(0)), "additive_pk",
                 id="server_round2_blind_threshold-additive_pk"),
    pytest.param(lambda: client_round3_decrypt_reveal([1], KEYS.additive_public, 2, 8), "additive_sk",
                 id="client_round3_decrypt_reveal-additive_sk"),
])
def test_protocol_argument_kinds_are_checked(call, name):
    with pytest.raises(ProtocolError, match=rf"^{name} must be") as caught:
        call()
    assert type(caught.value) is ProtocolError
