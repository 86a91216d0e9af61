import builtins
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkit.core import CodeMatrix, TernaryCode
from gmkit.errors import DimensionError, ParseError, PlaintextRangeError, ProtocolError, ProtocolIntegrityError
from gmkit.protocol import engine
from gmkit.protocol import (
    MaskPair,
    ProtocolKeys,
    ProtocolMessage,
    ProtocolTranscript,
    SecurityParams,
    additive_add,
    additive_decrypt,
    additive_encrypt,
    additive_keygen,
    additive_scalar_mul,
    client_round1_encrypt_query,
    client_round3_decrypt_reveal,
    decode_message,
    draw_masks,
    run_protocol,
    server_decide,
    server_round2_blind_threshold,
    validate_mask_range,
)
from gmkit.protocol.paillier import AdditivePublicKey, AdditiveSecretKey


def random_code(length, sparsity, rng):
    symbols = np.zeros(length, dtype=np.int8)
    support = rng.sample(range(length), sparsity)
    for i in support:
        symbols[i] = rng.choice((-1, 1))
    return TernaryCode(symbols, sparsity)


def plain_distance(a, b):
    """Integer squared distance between two codes, one symbol at a time."""
    return sum((int(x) - int(y)) ** 2 for x, y in zip(a.symbols, b.symbols))


def random_reps(length, sparsity, num_groups, rng):
    cols = np.column_stack([random_code(length, sparsity, rng).symbols for _ in range(num_groups)])
    return CodeMatrix(cols, sparsity)


@pytest.fixture(scope="module")
def add_keys():
    return additive_keygen(64, random.Random(101))


@pytest.fixture(scope="module")
def roomy_keys():
    return ProtocolKeys.generate(SecurityParams(additive_bits=64), random.Random(104))


@pytest.fixture(scope="module")
def default_keys():
    return ProtocolKeys.generate(SecurityParams(), random.Random(105))


class TestAdditiveScheme:
    def test_add_decrypts_to_sum(self, add_keys):
        pk, sk = add_keys
        rng = random.Random(0)
        c = additive_add(pk, additive_encrypt(pk, 5, rng), additive_encrypt(pk, 3, rng))
        assert additive_decrypt(sk, c) == 8

    def test_scalar_mul_negative(self, add_keys):
        pk, sk = add_keys
        c = additive_scalar_mul(pk, additive_encrypt(pk, 7, random.Random(1)), -1)
        assert additive_decrypt(sk, c) == -7

    def test_random_homomorphic_identities(self, add_keys):
        pk, sk = add_keys
        rng = random.Random(2)
        for _ in range(200):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            k = rng.randint(-1000, 1000)
            ca = additive_encrypt(pk, a, rng)
            cb = additive_encrypt(pk, b, rng)
            assert additive_decrypt(sk, additive_add(pk, ca, cb)) == a + b
            assert additive_decrypt(sk, additive_scalar_mul(pk, ca, k)) == k * a

    def test_fresh_randomness_changes_ciphertext(self, add_keys):
        pk, _ = add_keys
        rng = random.Random(3)
        assert additive_encrypt(pk, 42, rng) != additive_encrypt(pk, 42, rng)

    def test_plaintext_out_of_range(self, add_keys):
        pk, _ = add_keys
        with pytest.raises(PlaintextRangeError):
            additive_encrypt(pk, pk.modulus, random.Random(4))

    def test_keygen_rejects_tiny_moduli(self):
        with pytest.raises(ProtocolError):
            additive_keygen(32, random.Random(5))

    def test_secret_key_accepts_coprime_totient(self):
        assert AdditiveSecretKey(AdditivePublicKey(35), 5, 7).p_squared == 25

    @pytest.mark.parametrize(
        "modulus, p, q, reason",
        [
            (49, 7, 7, "distinct primes"),
            (35, 5, 11, "product is the public modulus"),
            (55, 5, 7, "product is the public modulus"),
            (21, 3, 7, "gcd"),  # gcd(21, 2 * 6) = 3
        ],
    )
    def test_secret_key_rejects_bad_primes(self, modulus, p, q, reason):
        with pytest.raises(ProtocolError, match=reason):
            AdditiveSecretKey(AdditivePublicKey(modulus), p, q)


def correlations(keys, enc, reps, rng):
    # with a = 1, b = 0 and tau = 0 message 2 decrypts to 2S - 2 p.r_g
    width = validate_mask_range(keys.additive_public, reps.sparsity, 0, 1)
    blinded = server_round2_blind_threshold(
        enc, reps, keys.additive_public, 0, [MaskPair(1, 0)] * reps.num_groups, width, rng
    )
    values = client_round3_decrypt_reveal(blinded, keys.additive_secret, reps.num_groups, width)
    return [(2 * reps.sparsity - value) / 2 for value in values]


class TestRounds:
    def test_round1_roundtrip_and_freshness(self, roomy_keys):
        rng = random.Random(10)
        code = random_code(12, 4, rng)
        enc_a = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        enc_b = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        assert len(enc_a) == 12  # zeros are encrypted too
        decrypted = [additive_decrypt(roomy_keys.additive_secret, c) for c in enc_a]
        assert decrypted == [int(s) for s in code.symbols]
        assert all(x != y for x, y in zip(enc_a, enc_b))

    def test_round2_inner_values_match_correlations(self, roomy_keys):
        rng = random.Random(11)
        code = random_code(10, 3, rng)
        reps = random_reps(10, 3, 5, rng)
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        for g, corr in enumerate(correlations(roomy_keys, enc, reps, rng)):
            expected = int(code.symbols.astype(int) @ reps.codes[:, g].astype(int))
            assert corr == expected

    def test_round2_single_indicator_representation(self, roomy_keys):
        rng = random.Random(12)
        code = random_code(6, 2, rng)
        col = np.zeros((6, 1), dtype=np.int8)
        col[3] = 1
        reps = CodeMatrix(col, 1)
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        assert correlations(roomy_keys, enc, reps, rng)[0] == int(code.symbols[3])

    def test_round2_self_correlation_is_sparsity(self, roomy_keys):
        rng = random.Random(13)
        code = random_code(8, 3, rng)
        reps = CodeMatrix(code.symbols.reshape(-1, 1), 3)
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        assert correlations(roomy_keys, enc, reps, rng)[0] == 3

    def _blind_one(self, keys, corr, mask, tau, sparsity, rng):
        # craft p and r with correlation exactly `corr`: agreeing nonzeros
        # share positions, the rest of r sits outside p's support
        code_len = 8
        symbols = np.zeros(code_len, dtype=np.int8)
        for i in range(sparsity):
            symbols[i] = 1
        p = TernaryCode(symbols, sparsity)
        r_sym = np.zeros(code_len, dtype=np.int8)
        for i in range(corr):
            r_sym[i] = 1
        for i in range(sparsity - corr):
            r_sym[sparsity + i] = 1
        r = CodeMatrix(r_sym.reshape(-1, 1), sparsity)
        enc = client_round1_encrypt_query(p, keys.additive_public, rng)
        # slots sized for the default magnitude, so an oversized mask reaches round 2's check
        width = validate_mask_range(keys.additive_public, sparsity, tau, SecurityParams().mask_magnitude)
        blinded = server_round2_blind_threshold(enc, r, keys.additive_public, tau, [mask], width, rng)
        return client_round3_decrypt_reveal(blinded, keys.additive_secret, 1, width)[0]

    def test_round4_exact_match_boundary(self, roomy_keys):
        rng = random.Random(16)
        value = self._blind_one(roomy_keys, corr=3, mask=MaskPair(1, 0), tau=0, sparsity=3, rng=rng)
        assert value == 0  # a*(2S - 2S - 0) + 0

    def test_round4_negative_mask_at_full_threshold(self, roomy_keys):
        # a=-2, b=5, zero correlation, tau=2S: value is (-2)*(2S - 0 - 2S) + 5
        rng = random.Random(161)
        sparsity = 3
        value = self._blind_one(roomy_keys, 0, MaskPair(-2, 5), 2 * sparsity, sparsity, rng)
        assert value == -2 * (2 * sparsity - 0 - 2 * sparsity) + 5 == 5

    def test_round4_matches_affine_oracle(self, roomy_keys):
        rng = random.Random(17)
        sparsity = 3
        for corr in range(0, sparsity + 1):
            a = rng.choice((-3, -2, 2, 5))
            b = rng.randint(-7, 7)
            tau = rng.randint(0, 4 * sparsity)
            value = self._blind_one(roomy_keys, corr, MaskPair(a, b), tau, sparsity, rng)
            assert value == a * (2 * sparsity - 2 * corr - tau) + b

    def test_round4_mask_overflow_rejected(self, roomy_keys):
        rng = random.Random(18)
        huge = roomy_keys.additive_public.signed_bound
        with pytest.raises(PlaintextRangeError):
            self._blind_one(roomy_keys, 0, MaskPair(huge, 0), 0, 3, rng)

    def test_round5_matches_server_side_plaintext(self, roomy_keys):
        rng = random.Random(19)
        code = random_code(8, 2, rng)
        reps = random_reps(8, 2, 4, rng)
        tau = 3
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        masks = draw_masks(4, 50, rng)
        width = validate_mask_range(roomy_keys.additive_public, 2, tau, 50)
        blinded = server_round2_blind_threshold(enc, reps, roomy_keys.additive_public, tau, masks, width, rng)
        values = client_round3_decrypt_reveal(blinded, roomy_keys.additive_secret, 4, width)
        for g, (value, mask) in enumerate(zip(values, masks)):
            corr = int(code.symbols.astype(int) @ reps.codes[:, g].astype(int))
            assert value == mask.a * (2 * 2 - 2 * corr - tau) + mask.b


class TestServerDecide:
    def test_all_positive_rejects(self):
        masks = [MaskPair(2, 1), MaskPair(-3, 0)]
        values = [2 * 5 + 1, -3 * 7 + 0]
        assert not server_decide(values, masks, 0).accept

    def test_zero_boundary_accepts(self):
        masks = [MaskPair(4, -2)]
        values = [4 * 0 - 2]
        assert server_decide(values, masks, 0).accept

    def test_tampered_values_raise(self):
        with pytest.raises(ProtocolIntegrityError):
            server_decide([3], [MaskPair(2, 0)], 0)

    def test_mask_requires_nonzero_a(self):
        with pytest.raises(ProtocolError):
            MaskPair(0, 5)


NUMPY_SIZES = (np.int64, np.int8, np.uint16)
NOT_INTEGERS = (2.0, np.float64(2.0), "2", None)


class TestRoundFunctionSizes:
    """The public round functions take numpy integers as Python ints and
    reject anything else with ProtocolError."""

    def test_draw_masks(self):
        expected = draw_masks(5, 2**16, random.Random(60))
        for size in (np.int64, np.uint32):
            masks = draw_masks(size(5), size(2**16), random.Random(60))
            assert masks == expected and all(type(m.a) is int and type(m.b) is int for m in masks)
        for bad in NOT_INTEGERS:
            with pytest.raises(ProtocolError, match="count must be an integer"):
                draw_masks(bad, 50, random.Random(60))
            with pytest.raises(ProtocolError, match="magnitude must be an integer"):
                draw_masks(2, bad, random.Random(60))
        for magnitude in (0, -3, np.int8(-1)):
            with pytest.raises(ProtocolError, match="mask magnitude must be positive"):
                draw_masks(2, magnitude, random.Random(60))

    def test_mask_pair(self):
        for size in NUMPY_SIZES:
            mask = MaskPair(size(3), size(5))
            assert mask == MaskPair(3, 5) and type(mask.a) is int and type(mask.b) is int
        for bad in NOT_INTEGERS:
            with pytest.raises(ProtocolError, match="a must be an integer"):
                MaskPair(bad, 1)
            with pytest.raises(ProtocolError, match="b must be an integer"):
                MaskPair(1, bad)

    @staticmethod
    def _round2(keys, tau, width):
        rng = random.Random(61)
        code, reps = random_code(8, 2, rng), random_reps(8, 2, 4, rng)
        enc = client_round1_encrypt_query(code, keys.additive_public, rng)
        masks = draw_masks(4, 50, rng)
        return server_round2_blind_threshold(enc, reps, keys.additive_public, tau, masks, width, rng), masks

    def test_round2_and_round3(self, roomy_keys):
        width = validate_mask_range(roomy_keys.additive_public, 2, 3, 50)
        blinded, _ = self._round2(roomy_keys, 3, width)
        values = client_round3_decrypt_reveal(blinded, roomy_keys.additive_secret, 4, width)
        for size in NUMPY_SIZES:
            assert self._round2(roomy_keys, size(3), size(width)) == (blinded, _)
            sized = client_round3_decrypt_reveal(blinded, roomy_keys.additive_secret, size(4), size(width))
            assert sized == values and all(type(v) is int for v in sized)
        for bad in NOT_INTEGERS:
            for name, args in (("tau", (bad, width)), ("slot_width", (3, bad))):
                with pytest.raises(ProtocolError, match=f"{name} must be an integer"):
                    self._round2(roomy_keys, *args)
            with pytest.raises(ProtocolError, match="num_groups must be an integer"):
                client_round3_decrypt_reveal(blinded, roomy_keys.additive_secret, bad, width)
            with pytest.raises(ProtocolError, match="slot_width must be an integer"):
                client_round3_decrypt_reveal(blinded, roomy_keys.additive_secret, 4, bad)

    def test_server_decide(self):
        masks = [MaskPair(2, 1), MaskPair(-3, 0)]
        values = [2 * 5 + 1, -3 * 0 + 0]
        for size in NUMPY_SIZES:
            assert server_decide(values, masks, size(4)) == server_decide(values, masks, 4)
        for bad in NOT_INTEGERS:
            with pytest.raises(ProtocolError, match="tau must be an integer"):
                server_decide(values, masks, bad)

    def test_validate_mask_range(self, roomy_keys):
        pk = roomy_keys.additive_public
        width = validate_mask_range(pk, 3, 4, 50)
        for size in NUMPY_SIZES:
            assert validate_mask_range(pk, size(3), size(4), size(50)) == width
        for bad in NOT_INTEGERS:
            for args in ((bad, 4, 50), (3, bad, 50), (3, 4, bad)):
                with pytest.raises(ProtocolError, match="must be an integer"):
                    validate_mask_range(pk, *args)


class TestRunProtocol:
    def test_exact_member_accepts_at_zero(self, roomy_keys):
        rng = random.Random(20)
        reps = random_reps(16, 4, 3, rng)
        code = reps.column(1)
        decision, transcript = run_protocol(code, reps, 0, rng, SecurityParams(additive_bits=64), roomy_keys)
        assert decision.accept
        assert [m.round_no for m in transcript.messages] == [1, 2, 3]

    def test_negative_tau_rejects(self, roomy_keys):
        rng = random.Random(21)
        reps = random_reps(16, 4, 3, rng)
        decision, _ = run_protocol(reps.column(0), reps, -1, rng, SecurityParams(additive_bits=64), roomy_keys)
        assert not decision.accept

    def test_agrees_with_plaintext_oracle(self, roomy_keys):
        rng = random.Random(22)
        for _ in range(60):
            code = random_code(16, 3, rng)
            reps = random_reps(16, 3, 4, rng)
            tau = rng.randint(-1, 12)
            decision, _ = run_protocol(code, reps, tau, rng, SecurityParams(additive_bits=64), roomy_keys)
            plain = any(plain_distance(code, reps.column(g)) <= tau for g in range(4))
            assert decision.accept == plain

    def test_deterministic_for_fixed_seed(self, roomy_keys):
        reps = random_reps(12, 3, 3, random.Random(23))
        code = random_code(12, 3, random.Random(24))
        runs = []
        for _ in range(2):
            rng = random.Random(25)
            decision, transcript = run_protocol(code, reps, 5, rng, SecurityParams(additive_bits=64), roomy_keys)
            runs.append((decision.accept, transcript.to_bytes()))
        assert runs[0] == runs[1]

    def test_server_view_is_permutation_symmetric(self, roomy_keys):
        # permuting the stored representations with the same seed yields the
        # same decision, and the plaintext distances d_g - tau form the same
        # multiset; this compares plaintext only, and says nothing about what
        # the server can link (test_server_recovers_every_distance_in_group_order)
        base_rng = random.Random(27)
        reps = random_reps(12, 3, 4, base_rng)
        code = random_code(12, 3, base_rng)
        tau = 6

        def run_case(rep_obj):
            rng = random.Random(28)
            decision, transcript = run_protocol(code, rep_obj, tau, rng, SecurityParams(additive_bits=64), roomy_keys)
            plain = sorted(
                plain_distance(code, rep_obj.column(g)) - tau for g in range(rep_obj.num_groups)
            )
            return decision.accept, plain

        perm = [2, 0, 3, 1]
        permuted = CodeMatrix(reps.codes[:, perm], 3)
        accept_a, plain_a = run_case(reps)
        accept_b, plain_b = run_case(permuted)
        assert accept_a == accept_b
        assert plain_a == plain_b

    def test_sparsity_mismatch_rejected(self, roomy_keys):
        rng = random.Random(29)
        reps = random_reps(12, 3, 3, rng)
        code = random_code(12, 2, rng)
        with pytest.raises(ProtocolError):
            run_protocol(code, reps, 0, rng, SecurityParams(additive_bits=64), roomy_keys)

    def test_code_length_mismatch_rejected(self, roomy_keys):
        rng = random.Random(30)
        reps = random_reps(12, 3, 3, rng)
        with pytest.raises(DimensionError):
            run_protocol(random_code(11, 3, rng), reps, 0, rng, SecurityParams(additive_bits=64), roomy_keys)

    def test_non_integer_tau_rejected_before_round_1(self, roomy_keys):
        reps = random_reps(12, 3, 3, random.Random(31))
        code = reps.column(0)
        for tau in (0.5, 2.0, math.nan, math.inf, "2", None, np.float64(2.0)):
            rng = random.Random(32)
            with pytest.raises(ProtocolError, match="tau must be an integer"):
                run_protocol(code, reps, tau, rng, SecurityParams(additive_bits=64), roomy_keys)
            assert rng.getstate() == random.Random(32).getstate()  # round 1 drew nothing

    def test_numpy_integer_tau_gives_the_same_transcript(self, roomy_keys):
        reps = random_reps(12, 3, 3, random.Random(33))
        code = random_code(12, 3, random.Random(34))
        runs = set()
        for tau in (5, np.int64(5), np.int8(5), np.uint16(5)):
            decision, transcript = run_protocol(code, reps, tau, random.Random(35), SecurityParams(additive_bits=64), roomy_keys)
            runs.add((decision.accept, transcript.to_bytes()))
        assert len(runs) == 1

    def test_numpy_integer_mask_magnitude_gives_the_same_transcript(self, roomy_keys):
        reps = random_reps(12, 3, 3, random.Random(36))
        code = random_code(12, 3, random.Random(37))
        runs = set()
        for magnitude in (2**16, np.int64(2**16), np.uint32(2**16)):
            params = SecurityParams(additive_bits=64, mask_magnitude=magnitude)
            assert type(params.mask_magnitude) is int
            decision, transcript = run_protocol(code, reps, 5, random.Random(38), params, roomy_keys)
            runs.add((decision.accept, transcript.to_bytes()))
        assert len(runs) == 1

    def test_numpy_integer_sizes_give_the_same_transcript(self):
        # sparsity meets the modulus in round 2 and additive_bits drives key generation
        reps = random_reps(12, 3, 3, random.Random(39))
        code = random_code(12, 3, random.Random(40))
        runs = set()
        for size in (int, np.int64, np.uint32):
            params = SecurityParams(additive_bits=size(128))
            assert type(params.additive_bits) is int
            keys = ProtocolKeys.generate(params, random.Random(41))
            sized_code, sized_reps = TernaryCode(code.symbols, size(3)), CodeMatrix(reps.codes, size(3))
            decision, transcript = run_protocol(sized_code, sized_reps, 5, random.Random(42), params, keys)
            runs.add((decision.accept, transcript.to_bytes()))
        assert len(runs) == 1

    @pytest.mark.parametrize("field", ["additive_bits", "mask_magnitude"])
    def test_non_integer_sizes_rejected(self, field):
        for value in (128.0, "128", None):
            with pytest.raises(ProtocolError, match=f"{field} must be an integer"):
                SecurityParams(**{field: value})


class TestPartyViews:
    def test_server_recovers_every_distance_in_group_order(self, roomy_keys):
        # the server holds its masks; replaying the rng up to the mask draw
        # reproduces them, and message 1 confirms the replay is in step
        params = SecurityParams(additive_bits=64)
        n = roomy_keys.additive_public.modulus
        rng = random.Random(34)
        for _ in range(20):
            code = random_code(12, 3, rng)
            reps = random_reps(12, 3, 5, rng)
            tau = rng.randint(-1, 12)
            seed = rng.randint(0, 2**62)
            _, transcript = run_protocol(code, reps, tau, random.Random(seed), params, roomy_keys)
            replay = random.Random(seed)
            enc = client_round1_encrypt_query(code, roomy_keys.additive_secret, replay)
            assert tuple(enc) == transcript.message(1).payloads
            masks = draw_masks(reps.num_groups, params.mask_magnitude, replay)
            unmasked = []
            for residue, mask in zip(transcript.message(3).payloads, masks):
                value = residue - n if residue > n // 2 else residue
                quotient, remainder = divmod(value - mask.b, mask.a)
                assert remainder == 0
                unmasked.append(quotient)
            assert unmasked == [plain_distance(code, reps.column(g)) - tau for g in range(reps.num_groups)]

    def test_reused_query_ciphertexts_give_fresh_message2(self, roomy_keys):
        rng = random.Random(35)
        code = random_code(12, 3, rng)
        reps = random_reps(12, 3, 6, rng)
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        masks = draw_masks(reps.num_groups, 50, rng)
        width = validate_mask_range(roomy_keys.additive_public, 3, 4, 50)
        first = server_round2_blind_threshold(enc, reps, roomy_keys.additive_public, 4, masks, width, rng)
        second = server_round2_blind_threshold(enc, reps, roomy_keys.additive_public, 4, masks, width, rng)
        assert not set(first) & set(second)
        sk = roomy_keys.additive_secret
        assert client_round3_decrypt_reveal(first, sk, 6, width) == client_round3_decrypt_reveal(second, sk, 6, width)


class TestPacking:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=1, max_size=11),
        st.integers(-12, 0),
        st.sampled_from(["unit", "default", "one-slot"]),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_worst_case_slots_round_trip(self, roomy_keys, default_keys, seed, signs, tau, magnitude_mode, wide):
        # every group's representation is the negated query, so 2S - 2 p.r_g = 4S;
        # with tau <= 0 and a = b = +-magnitude each value is +-worst
        keys = default_keys if wide else roomy_keys
        pk = keys.additive_public
        rng = random.Random(seed)
        sparsity = 3
        code = random_code(8, sparsity, rng)
        spread = 4 * sparsity + abs(tau) + 1
        usable = pk.modulus.bit_length() - 2
        magnitude = {
            "unit": 1,
            "default": SecurityParams().mask_magnitude,
            "one-slot": (2 ** (usable - 1) - 1) // spread,  # the largest that validate_mask_range accepts
        }[magnitude_mode]
        width = validate_mask_range(pk, sparsity, tau, magnitude)
        slots = usable // width
        if magnitude_mode == "one-slot":
            assert slots == 1
        reps = CodeMatrix(np.column_stack([-code.symbols] * len(signs)), sparsity)
        masks = [MaskPair(m, m) for m in (magnitude if up else -magnitude for up in signs)]
        enc = client_round1_encrypt_query(code, pk, rng)
        blinded = server_round2_blind_threshold(enc, reps, pk, tau, masks, width, rng)
        assert len(blinded) == math.ceil(len(signs) / slots)
        values = client_round3_decrypt_reveal(blinded, keys.additive_secret, len(signs), width)
        assert values == [magnitude * spread if up else -magnitude * spread for up in signs]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_round2_fills_a_slot_and_no_more(self, roomy_keys, sign):
        # a mask pair whose value reaches 2^(w-1) - 1 fills its slot exactly; one more raises
        pk, sk = roomy_keys.additive_public, roomy_keys.additive_secret
        rng = random.Random(37)
        sparsity, tau = 3, -2
        code = random_code(8, sparsity, rng)
        reps = CodeMatrix(np.column_stack([-code.symbols] * 3), sparsity)  # 2S - 2 p.r_g - tau = 4S + 2
        width = validate_mask_range(pk, sparsity, tau, SecurityParams().mask_magnitude)
        a = 5 * sign
        b = sign * (2 ** (width - 1) - 1) - a * (4 * sparsity + 2)
        enc = client_round1_encrypt_query(code, pk, rng)
        masks = [MaskPair(a, b), MaskPair(-a, -b), MaskPair(1, 0)]
        blinded = server_round2_blind_threshold(enc, reps, pk, tau, masks, width, rng)
        top = 2 ** (width - 1) - 1
        assert client_round3_decrypt_reveal(blinded, sk, 3, width) == [sign * top, -sign * top, 4 * sparsity + 2]
        with pytest.raises(PlaintextRangeError, match=f"{width}-bit slot"):
            server_round2_blind_threshold(enc, reps, pk, tau, [MaskPair(a, b + sign)] + masks[1:], width, rng)

    def test_packed_plaintext_outside_its_slots_rejected(self, roomy_keys):
        pk, sk = roomy_keys.additive_public, roomy_keys.additive_secret
        rng = random.Random(36)
        width = validate_mask_range(pk, 2, 2, 50)
        slots = (pk.modulus.bit_length() - 2) // width
        assert slots >= 2
        num_groups = slots + 1  # one full ciphertext, then one with a single slot
        full, single = 2 ** (slots * width), 2**width
        good = [additive_encrypt(pk, full - 1, rng), additive_encrypt(pk, single - 1, rng)]
        assert len(client_round3_decrypt_reveal(good, sk, num_groups, width)) == num_groups
        for first, last in ((full, single - 1), (-1, single - 1), (full - 1, single), (full - 1, -1)):
            blinded = [additive_encrypt(pk, first, rng), additive_encrypt(pk, last, rng)]
            with pytest.raises(ProtocolIntegrityError, match="outside its"):
                client_round3_decrypt_reveal(blinded, sk, num_groups, width)
        with pytest.raises(ProtocolIntegrityError, match="expected 2"):
            client_round3_decrypt_reveal(good[:1], sk, num_groups, width)


class TestMaskingBlindness:
    def test_revealed_signs_carry_no_information(self, roomy_keys):
        # small-scale version of the blindness property: the sign of the
        # revealed value predicts the sign of (distance - tau) at chance level
        rng = random.Random(30)
        params = SecurityParams(additive_bits=64)
        hits = 0
        trials = 800
        for _ in range(trials):
            code = random_code(8, 2, rng)
            reps = random_reps(8, 2, 1, rng)
            tau = rng.randint(0, 8)
            rng_run = random.Random(rng.randint(0, 2**62))
            decision, transcript = run_protocol(code, reps, tau, rng_run, params, roomy_keys)
            revealed = transcript.message(3).payloads[0]
            n = roomy_keys.additive_public.modulus
            value = revealed - n if revealed > n // 2 else revealed
            truth = plain_distance(code, reps.column(0)) - tau > 0
            predicted = value > 0
            hits += predicted == truth
        assert 0.4 <= hits / trials <= 0.6


class TestWireFormat:
    def test_message_round_trip(self):
        msg = ProtocolMessage(1, 0, (0, 1, 2**200 - 1, 17))
        decoded, offset = decode_message(msg.encode())
        assert decoded == msg
        assert offset == len(msg.encode())

    def test_transcript_round_trip(self, roomy_keys, tmp_path):
        rng = random.Random(31)
        reps = random_reps(10, 2, 3, rng)
        _, transcript = run_protocol(reps.column(0), reps, 2, rng, SecurityParams(additive_bits=64), roomy_keys)
        path = tmp_path / "t.bin"
        transcript.save(str(path))
        back = ProtocolTranscript.load(str(path))
        assert back == transcript

    def test_truncated_transcript_rejected(self, roomy_keys, tmp_path):
        rng = random.Random(32)
        reps = random_reps(10, 2, 3, rng)
        _, transcript = run_protocol(reps.column(0), reps, 2, rng, SecurityParams(additive_bits=64), roomy_keys)
        raw = transcript.to_bytes()
        with pytest.raises(ParseError):
            ProtocolTranscript.from_bytes(raw[:-3])
        with pytest.raises(ParseError):
            ProtocolTranscript.from_bytes(b"XXXX" + raw[4:])
        for header in (b"GMKT", raw[:5], b"GMKT" + struct.pack(">BI", 1, 1) + raw[5:]):
            with pytest.raises(ParseError):
                ProtocolTranscript.from_bytes(header)
        # well-framed messages whose headers break the round rules
        m1, m2, m3 = (transcript.message(r).encode() for r in (1, 2, 3))
        for bad in (
            raw[:5] + struct.pack(">BBI", 4, 0, 0),  # round outside 1..3
            raw[:5] + struct.pack(">BBI", 1, 1, 0),  # round 1 from the server
            raw[:5] + m2 + m1 + m3,  # messages out of order
        ):
            with pytest.raises(ParseError):
                ProtocolTranscript.from_bytes(bad)

    def test_round_order_enforced(self):
        msgs = tuple(ProtocolMessage(r, s, (1,)) for r, s in ((1, 0), (2, 1)))
        with pytest.raises(ProtocolError):
            ProtocolTranscript(msgs)

    def test_sender_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            ProtocolMessage(1, 1, (1,))

    def test_mask_range_validator(self, roomy_keys):
        validate_mask_range(roomy_keys.additive_public, 8, 32, 2**16)
        with pytest.raises(PlaintextRangeError):
            validate_mask_range(roomy_keys.additive_public, 8, 32, 2**61)

    @pytest.mark.parametrize("sparsity, tau", [(8, 32), (2, -5), (1, 0)])
    def test_mask_range_boundary_is_one_slot(self, roomy_keys, default_keys, sparsity, tau):
        # the widest slot that fits is |n| - 2 bits: worst must stay below 2^(|n| - 3)
        for keys in (roomy_keys, default_keys):
            pk = keys.additive_public
            usable = pk.modulus.bit_length() - 2
            last = (2 ** (usable - 1) - 1) // (4 * sparsity + abs(tau) + 1)
            assert validate_mask_range(pk, sparsity, tau, last) == usable
            with pytest.raises(PlaintextRangeError, match=f"{usable + 1}-bit slots"):
                validate_mask_range(pk, sparsity, tau, last + 1)

    def test_version_2_transcript_rejected(self, roomy_keys):
        rng = random.Random(33)
        reps = random_reps(10, 2, 3, rng)
        _, transcript = run_protocol(reps.column(0), reps, 2, rng, SecurityParams(additive_bits=64), roomy_keys)
        raw = transcript.to_bytes()
        assert raw[4] == 3
        with pytest.raises(ParseError, match="unsupported transcript version 2"):
            ProtocolTranscript.from_bytes(raw[:4] + bytes([2]) + raw[5:])


def oracle_round2(encrypted_query, reps, pk, tau, masks, slot_width, rng):
    """Packed round 2 one symbol at a time: one inversion per negative symbol,
    then a signed scalar multiplication by -2a * 2^(w*slot) (another inversion
    when it is negative), K groups per ciphertext with the first in the top
    slot, and one fresh encryption of the packed constants per ciphertext."""
    slots = (pk.modulus.bit_length() - 2) // slot_width
    blinded = []
    for first in range(0, len(masks), slots):
        chunk = range(first, min(first + slots, len(masks)))
        acc, constants = None, 0
        for g in chunk:
            weight = 2 ** (slot_width * (chunk[-1] - g))
            mask, rep = masks[g], reps.column(g)
            for i in np.flatnonzero(rep.symbols):
                factor = encrypted_query[i]
                if rep.symbols[i] < 0:
                    factor = pow(factor, -1, pk.modulus_squared)
                term = additive_scalar_mul(pk, factor, -2 * mask.a * weight)
                acc = term if acc is None else additive_add(pk, acc, term)
            constants += weight * (mask.a * (2 * reps.sparsity - tau) + mask.b + 2 ** (slot_width - 1))
        blinded.append(additive_add(pk, acc, additive_encrypt(pk, constants, rng)))
    return blinded


def textbook_decrypt(sk, ciphertext):
    """m = L(c^lambda mod n^2) * mu mod n, with g = 1 + n and L(u) = (u - 1) / n."""
    n = sk.public.modulus
    n2 = n * n
    lam = math.lcm(sk.prime_p - 1, sk.prime_q - 1)
    mu = pow((pow(1 + n, lam, n2) - 1) // n, -1, n)
    m = (pow(ciphertext, lam, n2) - 1) // n * mu % n
    return m - n if m > n // 2 else m


def signed_code(length, sparsity, sign_mode, rng):
    symbols = np.zeros(length, dtype=np.int8)
    for i in rng.sample(range(length), sparsity):
        symbols[i] = {"positive": 1, "negative": -1}.get(sign_mode) or rng.choice((-1, 1))
    return symbols


class TestExactOracles:
    MAGNITUDE = SecurityParams().mask_magnitude

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["mixed", "positive", "negative"]),
        st.sampled_from(["drawn", "unit", "extreme"]),
        st.booleans(),
        st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_round2_matches_per_symbol_oracle(self, roomy_keys, seed, sign_mode, mask_mode, member, num_groups):
        rng = random.Random(seed)
        pk = roomy_keys.additive_public
        length = rng.randint(2, 12)
        sparsity = rng.randint(1, length - 1)
        reps = CodeMatrix(
            np.column_stack([signed_code(length, sparsity, sign_mode, rng) for _ in range(num_groups)]), sparsity
        )
        symbols = reps.codes[:, rng.randrange(num_groups)] if member else signed_code(length, sparsity, "mixed", rng)
        code = TernaryCode(symbols, sparsity)
        tau = rng.randint(-1, 4 * sparsity)
        if mask_mode == "drawn":
            masks = draw_masks(num_groups, self.MAGNITUDE, rng)
        else:
            size = 1 if mask_mode == "unit" else self.MAGNITUDE
            masks = [MaskPair(rng.choice((-size, size)), rng.randint(-size, size)) for _ in range(num_groups)]
        enc = client_round1_encrypt_query(code, pk, rng)
        width = validate_mask_range(pk, sparsity, tau, self.MAGNITUDE)
        state = rng.getstate()
        fast = server_round2_blind_threshold(enc, reps, pk, tau, masks, width, rng)
        after = rng.getstate()
        rng.setstate(state)
        assert fast == oracle_round2(enc, reps, pk, tau, masks, width, rng)
        assert rng.getstate() == after

    def test_keyholder_randomizers_are_exactly_the_nth_residues(self):
        # p = 5, q = 7: every (u_p, u_q) gives a distinct r^n mod n^2, and together they
        # are all of them, so uniform (u_p, u_q) gives uniform randomizers
        p, q = 5, 7
        n = p * q
        sk = AdditiveSecretKey(AdditivePublicKey(n), p, q)

        class Drawn:
            def __init__(self, values):
                self.values = iter(values)

            def randrange(self, start, stop):
                value = next(self.values)
                assert start <= value < stop
                return value

        randomizers = [
            additive_encrypt(sk, 0, Drawn((u_p, u_q))) for u_p in range(1, p) for u_q in range(1, q)
        ]
        assert len(set(randomizers)) == len(randomizers) == (p - 1) * (q - 1)
        assert set(randomizers) == {pow(r, n, n * n) for r in range(1, n) if math.gcd(r, n) == 1}

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_keyholder_randomizer_is_nth_residue(self, bits):
        # c (1 + mn)^-1 is r^n exactly when its phi(n)-th power is 1, as gcd(n, phi(n)) = 1
        pk, sk = additive_keygen(bits, random.Random(bits))
        n, n2 = pk.modulus, pk.modulus_squared
        phi = (sk.prime_p - 1) * (sk.prime_q - 1)
        rng = random.Random(bits + 1)
        values = [0, 1, -1, pk.signed_bound, -pk.signed_bound] + [rng.randint(-pk.signed_bound, pk.signed_bound) for _ in range(100)]
        for value in values:
            ciphertext = additive_encrypt(sk, value, rng)
            randomizer = ciphertext * pow(1 + value % n * n, -1, n2) % n2
            assert pow(randomizer, phi, n2) == 1
            assert additive_decrypt(sk, ciphertext) == value

    def test_keyholder_encryption_makes_two_pows(self, roomy_keys, monkeypatch):
        calls = []
        real_pow = builtins.pow

        def counting_pow(*args):
            calls.append(args)
            return real_pow(*args)

        monkeypatch.setattr(builtins, "pow", counting_pow)
        rng = random.Random(42)
        for value in (0, 1, -1, 12345):
            calls.clear()
            additive_encrypt(roomy_keys.additive_secret, value, rng)
            assert len(calls) == 2

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_public_key_encryption_matches_textbook(self, bits):
        pk, _ = additive_keygen(bits, random.Random(bits))
        n, n2 = pk.modulus, pk.modulus_squared
        rng = random.Random(bits + 1)
        values = [0, 1, -1, pk.signed_bound, -pk.signed_bound] + [rng.randint(-pk.signed_bound, pk.signed_bound) for _ in range(100)]
        for value in values:
            seed = rng.getrandbits(64)
            oracle = random.Random(seed)
            r = oracle.randrange(1, n)
            while math.gcd(r, n) != 1:
                r = oracle.randrange(1, n)
            textbook = pow(1 + n, value % n, n2) * pow(r, n, n2) % n2
            assert additive_encrypt(pk, value, random.Random(seed)) == textbook

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_crt_decryption_matches_textbook(self, bits):
        pk, sk = additive_keygen(bits, random.Random(bits + 2))
        rng = random.Random(bits + 3)
        bound = pk.signed_bound  # (n - 1) / 2
        values = [0, 1, -1, bound, -bound, bound - 1, -bound + 1]
        values += [rng.randint(-bound, bound) for _ in range(100)]
        for value in values:
            ciphertext = additive_encrypt(pk, value, rng)
            assert textbook_decrypt(sk, ciphertext) == value
            assert additive_decrypt(sk, ciphertext) == value
        for _ in range(100):  # arbitrary valid residues, not only fresh encryptions
            ciphertext = rng.randrange(1, pk.modulus_squared)
            if math.gcd(ciphertext, pk.modulus) == 1:
                assert additive_decrypt(sk, ciphertext) == textbook_decrypt(sk, ciphertext)


class TestMalformedCiphertexts:
    def _bad_values(self, sk):
        n = sk.public.modulus
        return [0, n, -3, n * n + 5, n * n, 7 * sk.prime_p, sk.prime_q]

    def test_round2_rejects_invalid_query_entries(self, roomy_keys):
        rng = random.Random(40)
        code = random_code(8, 2, rng)
        reps = random_reps(8, 2, 3, rng)
        enc = client_round1_encrypt_query(code, roomy_keys.additive_public, rng)
        masks = draw_masks(3, 50, rng)
        width = validate_mask_range(roomy_keys.additive_public, 2, 2, 50)
        for bad in self._bad_values(roomy_keys.additive_secret):
            for slot in (0, 5):
                tampered = list(enc)
                tampered[slot] = bad
                with pytest.raises(ProtocolIntegrityError):
                    server_round2_blind_threshold(tampered, reps, roomy_keys.additive_public, 2, masks, width, rng)

    def test_decrypt_rejects_invalid_ciphertexts(self, roomy_keys):
        for bad in self._bad_values(roomy_keys.additive_secret):
            with pytest.raises(ProtocolIntegrityError):
                additive_decrypt(roomy_keys.additive_secret, bad)
        one_slot = roomy_keys.additive_public.modulus.bit_length() - 2  # K = 1: two groups, two ciphertexts
        with pytest.raises(ProtocolIntegrityError):
            client_round3_decrypt_reveal([1, 0], roomy_keys.additive_secret, 2, one_slot)


class TestWorkCounts:
    def test_run_protocol_work_per_query(self, roomy_keys, monkeypatch):
        # per query: l + ceil(M/K) encryptions, ceil(M/K) decryptions and
        # exactly one modular inversion, made by the batch helper in round 2
        counts = {"encrypt": 0, "decrypt": 0, "batch": 0, "inverse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_pow = builtins.pow

        def counting_pow(base, exp, mod=None):
            counts["inverse"] += exp < 0
            return real_pow(base, exp, mod)

        monkeypatch.setattr(engine, "additive_encrypt", counted("encrypt", engine.additive_encrypt))
        monkeypatch.setattr(engine, "additive_decrypt", counted("decrypt", engine.additive_decrypt))
        monkeypatch.setattr(engine, "invert_ciphertexts", counted("batch", engine.invert_ciphertexts))
        monkeypatch.setattr(builtins, "pow", counting_pow)
        rng = random.Random(41)
        params = SecurityParams(additive_bits=64)
        for length, sparsity, num_groups in ((16, 4, 5), (12, 3, 1), (32, 8, 9)):
            code = random_code(length, sparsity, rng)
            reps = random_reps(length, sparsity, num_groups, rng)
            for key in counts:
                counts[key] = 0
            run_protocol(code, reps, 4, rng, params, roomy_keys)
            width = validate_mask_range(roomy_keys.additive_public, sparsity, 4, params.mask_magnitude)
            packed = math.ceil(num_groups / ((roomy_keys.additive_public.modulus.bit_length() - 2) // width))
            assert counts == {"encrypt": length + packed, "decrypt": packed, "batch": 1, "inverse": 1}
