"""Jointly learning the projection, codes, groups and group representations.

Enrollment packs many signatures into a handful of ternary group
representations.  The alternating optimization cycles three closed-form
updates: the projection W = U V^T from the SVD of X E^T (the orthonormal-
column W that maximizes tr(W^T X E^T)), a regularized ternarization of the
codes, and a k-means pass that re-partitions the codes and ternarizes the
centroids.

What the trace shows at the default within_weight = 1: the first code
update already puts every code on its group's representation (``within
0.0`` at iteration 1), so the warm k-means has no code to move and the
grouping stays the first k-means, the one on the codes of the seeded random
projection that training starts from.  Iteration 2 refits W to those
representations and ends in the same codes, representations and
assignment, so training stops after two iterations.  k-means does not
balance the groups: their printed sizes run from 1 to 16 members, at a
nominal 8 (96 signatures in 12 groups).

The payoff shows up at verification time: with impostor acceptance capped
at 5%, the learned grouping rejects fewer genuine queries than a random
partition into 12 groups of 8 (pfn 0.444 against 0.590 at this seed, on
OpenBLAS's AVX-512 kernel).
"""

import numpy as np

from gmkit import (
    ModelConfig,
    SyntheticSpec,
    generate,
    pfn_at_pfp,
    query_set_from_dataset,
    train,
    train_random_assignment_baseline,
    verification_sweep,
)

spec = SyntheticSpec(
    num_identities=96,
    samples_per_identity=4,
    dim=64,
    noise_sigma=0.08,
    impostor_fraction=0.5,
    seed=7,
)
dataset = generate(spec)
print(f"enrolled {dataset.enrolled.num_signatures} signatures of dimension {dataset.enrolled.dim}")

config = ModelConfig(
    code_length=32,
    sparsity=8,
    num_groups=12,  # 8 members per group on average
    within_weight=1.0,
    max_outer_iters=15,
    seed=7,
)
model = train(dataset.enrolled, config)

print("\nobjective trace (total = embedding + within_weight * within):")
for i, entry in enumerate(model.objective_trace, start=1):
    print(f"  iter {i:2d}: embedding {entry.embedding_cost:8.2f}  within {entry.within_trace:7.1f}  total {entry.total:8.2f}")

sizes = model.assignments.group_sizes()
print(f"\nlearned group sizes: min {sizes.min()}, max {sizes.max()}, mean {sizes.mean():.1f}")

baseline = train_random_assignment_baseline(dataset.enrolled, config)

print("\ngenuine rejection rate when impostor acceptance is capped at 5%:")
for name, m in (("learned grouping", model), ("random grouping ", baseline)):
    queries = query_set_from_dataset(dataset, m)
    roc = verification_sweep(m, queries, np.random.default_rng(7))
    print(f"  {name}: pfn = {pfn_at_pfp(roc, 0.05):.3f}")
