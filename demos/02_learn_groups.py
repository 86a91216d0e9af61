"""Jointly learning the projection, codes, groups and group representations.

Enrollment packs many signatures into a handful of ternary group
representations.  The alternating optimization cycles three closed-form
updates: an orthogonality-constrained least squares fit of the projection,
a regularized ternarization of the codes, and a k-means pass that
re-partitions the codes and ternarizes the centroids.

With the default weights the code matrix snaps onto the group
representations within a few iterations (within-group scatter hits zero);
the interesting learning then happens in the projection, which keeps
rotating so that fresh query embeddings land near the right group.  The
payoff shows up at verification time: against a random partition of the
same size, the learned grouping rejects far fewer genuine members at the
same impostor rate.
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
    num_groups=12,  # 8 members per group
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
