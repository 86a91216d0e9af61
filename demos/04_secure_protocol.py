"""The three-message homomorphic verification exchange.

The server holds the group representations in the clear; the querying user
holds only their code.  Every ciphertext is under the user's additive
(Paillier) key: the user sends the encrypted code, the server answers with
one affinely masked value per group, packed several groups to a ciphertext,
and the user decrypts, unpacks and returns them.  The server unmasks them
and accepts iff some group sits within the threshold.

The server learns the query's distance to every group, and with M >= l
groups that gives it the query code itself (README, "Security scale"); the
user sees one masked value per group and knows which group it belongs to.
"""

import random

import numpy as np

from gmkit import ModelConfig, ProtocolKeys, SecurityParams, SyntheticSpec, generate, run_protocol, train

# train a small model to get realistic codes and representations
dataset = generate(SyntheticSpec(num_identities=24, samples_per_identity=2, dim=32,
                                 noise_sigma=0.05, impostor_fraction=0.25, seed=3))
model = train(dataset.enrolled, ModelConfig(code_length=16, sparsity=4, num_groups=6,
                                            max_outer_iters=10, seed=3))
reps = model.representations

rng = random.Random(42)
keys = ProtocolKeys.generate(SecurityParams(additive_bits=128), rng)  # desk-scale keys, not production
print(f"additive modulus: {keys.additive_public.modulus.bit_length()} bits")

query = model.codes.column(0)
diff = reps.codes.astype(np.int64) - query.symbols[:, None]
distances = np.sum(diff * diff, axis=0).tolist()  # the query's squared distance to every group
true_distance = min(distances)
print(f"\nquery = enrolled member 0; nearest group distance (plaintext): {true_distance}")

for tau in (-1, 0, 8):
    decision, transcript = run_protocol(query, reps, tau, rng, keys)
    plain = true_distance <= tau
    print(f"  tau={tau:>3}: protocol says {'accept' if decision.accept else 'reject'}, "
          f"plaintext rule says {'accept' if plain else 'reject'}")
    assert decision.accept == plain

# the transcript records the full three-message exchange, replayable from disk;
# message 2 packs the groups' masked values several to a ciphertext, so it
# holds fewer payloads than there are groups
decision, transcript = run_protocol(query, reps, 8, rng, keys)
print("\ntranscript:")
for msg in transcript.messages:
    sender = "user  " if msg.sender == 0 else "server"
    print(f"  message {msg.round_no} from {sender}: {msg.kind:<16} {len(msg.payloads):>3} payload integers")
print(f"  wire size: {len(transcript.to_bytes())} bytes")

# what each side saw: the user saw one masked value a_g*(d_g - tau) + b_g
# per group, whose sign is scrambled by the symmetric masks; the server,
# which holds a_g and b_g, unmasks d_g - tau for every group, in group order
revealed = transcript.message(3).payloads
print(f"\nmasked values returned to the server: {len(revealed)} integers, one per group")
print(f"the server unmasks d_g - tau for every group: {[d - 8 for d in distances]}")
print("it learns every distance and which group is nearest, not just the accept bit")
