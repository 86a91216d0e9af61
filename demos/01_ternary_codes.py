"""Sparse ternary codes from scratch.

A signature is a unit vector in R^d.  Projecting it onto an orthonormal
basis of a smaller subspace and keeping only the strongest coordinates as
+/-1 yields a short, sparse, heavily quantized code: cheap to compare,
hard to invert.  gmkit keeps codes as the columns of a matrix and
ternarizes a whole matrix at a time.
"""

import numpy as np

from gmkit import CodeMatrix, ProjectionMatrix, ternarize_columns

rng = np.random.default_rng(0)

# ternarization alone: keep the 3 largest magnitudes of a column as their signs
v = np.array([0.1, -1.4, 0.05, 2.2, -0.6, 0.3, 0.0, 1.1])
code = ternarize_columns(v[:, None], 3)[:, 0]
print("input:          ", v)
print("ternary code:   ", code, f"({np.count_nonzero(code)} nonzeros out of {code.size})")

# scaling the input never changes the code
assert np.array_equal(ternarize_columns(4.0 * v[:, None], 3)[:, 0], code)

# the full pipeline: project signatures with an orthonormal basis, then quantize
d, code_length, sparsity = 32, 8, 3
basis, _ = np.linalg.qr(rng.standard_normal((d, code_length)))
projection = ProjectionMatrix(basis)

signature = rng.standard_normal(d)
signature /= np.linalg.norm(signature)
# a noisy sample of the same signature usually lands on a nearby code
noisy = signature + 0.1 * rng.standard_normal(d)
noisy /= np.linalg.norm(noisy)
signatures = np.column_stack([signature, noisy])
codes = CodeMatrix(ternarize_columns(projection.data.T @ signatures, sparsity), sparsity)
p, q = codes.codes.T.astype(np.int64)
correlation = int(p @ q)
distance = int((p - q) @ (p - q))
print("\nembedded query: ", p)
print("noisy resample: ", q)
print("correlation:    ", correlation)
print("sq. distance:   ", distance, f"(range 0..{4 * sparsity})")

# for exactly-S codes the two comparisons are interchangeable
assert distance == 2 * sparsity - 2 * correlation
print("\nidentity ||p-q||^2 == 2S - 2 p.q holds, as the protocol relies on")
