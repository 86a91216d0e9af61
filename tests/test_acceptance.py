"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Everything is seeded; the verdicts are stable across runs.
"""

import ctypes
import glob
import hashlib
import os
import random
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gmkit.cli import main
from gmkit.core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
)
from gmkit.data import SyntheticSpec, generate
from gmkit.evaluation import (
    _distances,
    identification_report,
    identification_sweep,
    pfn_at_pfp,
    query_set_from_dataset,
    security_report,
    threshold_at_pfp,
    verification_sweep,
)
from gmkit.learning import (
    AssignmentMatrix,
    _svd_projection,
    e_step,
    kmeans,
    objective,
    ry_step,
    train,
    train_random_assignment_baseline,
)
from gmkit.modelio import load_model
from gmkit.protocol import (
    ProtocolKeys,
    SecurityParams,
    additive_decrypt,
    additive_encrypt,
    additive_keygen,
    run_protocol,
)
from paillier_oracle import additive_add, additive_scalar_mul

SEEDS = (0, 1, 2, 3, 4)


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")
    return ok


def openblas_core():
    """The OpenBLAS kernel numpy runs on, such as "SkylakeX", for golden-digest
    failure messages: another kernel may move the last bits of float results."""
    here = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the library numpy has loaded, so the kernel it picked
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii", "replace")
    return "unknown"


def unit_columns(a):
    return a / np.linalg.norm(a, axis=0)


def random_hash_matrix(code_length, n, sparsity, rng):
    cols = np.zeros((code_length, n), dtype=np.int8)
    for j in range(n):
        support = rng.choice(code_length, size=sparsity, replace=False)
        cols[support, j] = rng.choice([-1, 1], size=sparsity)
    return CodeMatrix(cols, sparsity)


def random_protocol_code(length, sparsity, rng):
    symbols = np.zeros(length, dtype=np.int8)
    for i in rng.sample(range(length), sparsity):
        symbols[i] = rng.choice((-1, 1))
    return CodeMatrix(symbols[:, None], sparsity)


def plain_distance(a, b):
    """Integer squared distance between two codes, one symbol at a time."""
    return sum((int(x) - int(y)) ** 2 for x, y in zip(a.symbols, b.symbols))


# ---------------------------------------------------------------------------
# shared synthetic family (criteria 7 and 9)

VERIF_SPEC = dict(num_identities=128, samples_per_identity=4, dim=64, impostor_fraction=0.5)
VERIF_CONFIG = dict(
    code_length=32, sparsity=8, within_weight=1.0,
    max_outer_iters=20,
)


def _verification_run(seed):
    dataset = generate(SyntheticSpec(noise_sigma=0.15, seed=seed, **VERIF_SPEC))
    config = ModelConfig(num_groups=16, seed=seed, **VERIF_CONFIG)
    learned = train(dataset.enrolled, config)
    baseline = train_random_assignment_baseline(dataset.enrolled, config)
    return dataset, learned, baseline


@pytest.fixture(scope="module")
def verification_runs():
    return {seed: _verification_run(seed) for seed in SEEDS}


def test_c01_procrustes_optimality():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst_margin = np.inf
    for _ in range(50):
        signatures = SignatureMatrix(unit_columns(rng.standard_normal((16, 50))))
        codes = random_hash_matrix(8, 50, 3, rng)
        # every code in one group: the objective's embedding cost ||E - W^T X||^2
        reps = CodeMatrix(codes.codes[:, :1], codes.sparsity)
        one_group = AssignmentMatrix(np.zeros(50, dtype=np.int64), 1)

        def embedding_cost(projection):
            projected = projection.data.T @ signatures.data
            return objective(projected, codes, reps, one_group, 1.0).embedding_cost

        fit = embedding_cost(_svd_projection(signatures, codes))
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((16, 8)))
            competitor = embedding_cost(ProjectionMatrix(q))
            worst_margin = min(worst_margin, competitor - fit)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-9 and elapsed < 10.0
    assert report(1, "procrustes-optimality", ok, f"worst margin {worst_margin:.3e}, {elapsed:.1f}s")


def test_c02_kmeans_inner_monotonicity():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        codes = random_hash_matrix(16, 40, 4, rng)
        result = kmeans(codes, 6, np.random.default_rng(seed))
        trace = result.objective_trace
        violations += sum(b > a for a, b in zip(trace, trace[1:]))
        ry_step(codes, 6, np.random.default_rng(seed))  # internal check must not raise
    ok = violations == 0
    assert report(2, "kmeans-inner-monotonicity", ok, "20 seeded runs, every update")


def test_c03_substep_oracle_equivalence():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        code_length = int(rng.integers(4, 17))
        n = int(rng.integers(4, 21))
        d = code_length + int(rng.integers(1, 8))
        sparsity = int(rng.integers(1, code_length))
        num_groups = int(rng.integers(1, n + 1))
        lam = float(rng.uniform(0.2, 3.0))

        signatures = SignatureMatrix(unit_columns(rng.standard_normal((d, n))))
        q, _ = np.linalg.qr(rng.standard_normal((d, code_length)))
        projection = ProjectionMatrix(q)
        codes = random_hash_matrix(code_length, n, sparsity, rng)
        reps = CodeMatrix(random_hash_matrix(code_length, num_groups, sparsity, rng).codes, sparsity)
        group_of = rng.integers(num_groups, size=n)
        group_of[:num_groups] = np.arange(num_groups)
        assignments = AssignmentMatrix(group_of, num_groups)

        # batched code-to-representation distances: exact integer loop oracle
        distances = _distances(SimpleNamespace(representations=reps), codes.codes)
        for j in (0, n - 1):
            for g in range(num_groups):
                dist_oracle = sum((int(codes.codes[i, j]) - int(reps.codes[i, g])) ** 2 for i in range(code_length))
                assert distances[j, g] == dist_oracle

        # within trace: definition double sum
        within_o = 0.0
        for i in range(n):
            r = reps.codes[:, group_of[i]].astype(float)
            e = codes.codes[:, i].astype(float)
            within_o += float(np.sum((e - r) ** 2))
        target = projection.data.T @ signatures.data
        breakdown = objective(target, codes, reps, assignments, lam)
        worst = max(worst, abs(breakdown.within_trace - within_o))

        # objective: loop recomputation of eq. parts
        emb_o = 0.0
        for i in range(code_length):
            for j in range(n):
                emb_o += (float(codes.codes[i, j]) - target[i, j]) ** 2
        worst = max(worst, abs(breakdown.total - (emb_o + lam * within_o)))

        # e_step: per-column sum-then-sort oracle
        new_codes = e_step(target, reps, assignments, lam)
        for j in range(n):
            col = target[:, j] + lam * reps.codes[:, group_of[j]].astype(float)
            ranked = sorted(range(code_length), key=lambda i: (-abs(col[i]), i))
            expected = np.zeros(code_length, dtype=int)
            for i in ranked[:sparsity]:
                expected[i] = -1 if col[i] < 0 else 1
            assert new_codes.codes[:, j].tolist() == expected.tolist()
    ok = worst <= 1e-9
    assert report(3, "substep-oracle-equivalence", ok, f"100 instances, worst real deviation {worst:.2e}")


def test_c04_protocol_end_to_end():
    code_length, sparsity, num_groups = 64, 8, 16
    rng = random.Random(400)
    keys = ProtocolKeys.generate(SecurityParams(additive_bits=128), rng)
    start = time.perf_counter()
    agree = 0
    trials = 1000
    for _ in range(trials):
        code = random_protocol_code(code_length, sparsity, rng)
        reps = CodeMatrix(
            np.column_stack([random_protocol_code(code_length, sparsity, rng).symbols for _ in range(num_groups)]),
            sparsity,
        )
        tau = rng.randint(-1, 4 * sparsity)
        decision, _ = run_protocol(code, reps, tau, rng, keys)
        plain = any(plain_distance(code, reps.column(g)) <= tau for g in range(num_groups))
        agree += decision.accept == plain
    elapsed = time.perf_counter() - start
    ok = agree == trials and elapsed < 60.0
    assert report(4, "protocol-end-to-end", ok, f"{agree}/{trials} agree, {elapsed:.1f}s at 128-bit")


def test_c05_homomorphic_identities():
    rng = random.Random(500)
    add_pk, add_sk = additive_keygen(128, rng)
    add_ok = 0
    trials = 1000
    for _ in range(trials):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        k = rng.randint(-10**4, 10**4)
        ca = additive_encrypt(add_pk, a, rng)
        cb = additive_encrypt(add_pk, b, rng)
        sum_ok = additive_decrypt(add_sk, additive_add(add_pk, ca, cb)) == a + b
        mul_scalar_ok = additive_decrypt(add_sk, additive_scalar_mul(add_pk, ca, k)) == k * a
        add_ok += sum_ok and mul_scalar_ok
    ok = add_ok == trials
    assert report(5, "homomorphic-identities", ok, f"add {add_ok} of {trials}")


def test_c06_masking_blindness():
    code_length, sparsity = 8, 2
    rng = random.Random(600)
    keys = ProtocolKeys.generate(SecurityParams(additive_bits=64), rng)
    n_mod = keys.additive_public.modulus
    hits = 0
    rounds = 10_000
    for _ in range(rounds):
        code = random_protocol_code(code_length, sparsity, rng)
        reps = CodeMatrix(random_protocol_code(code_length, sparsity, rng).symbols.reshape(-1, 1), sparsity)
        tau = rng.randint(0, 4 * sparsity)
        _, transcript = run_protocol(code, reps, tau, rng, keys)
        residue = transcript.message(3).payloads[0]
        revealed = residue - n_mod if residue > n_mod // 2 else residue
        truth = (plain_distance(code, reps.column(0)) - tau) > 0
        hits += (revealed > 0) == truth
    accuracy = hits / rounds
    ok = 0.48 <= accuracy <= 0.52
    assert report(6, "masking-blindness", ok, f"sign predictor accuracy {accuracy:.4f} over {rounds} rounds")


def test_c07_learned_beats_random_assignment(verification_runs):
    learned_rates = []
    baseline_rates = []
    for seed in SEEDS:
        dataset, learned, baseline = verification_runs[seed]
        for model, rates in ((learned, learned_rates), (baseline, baseline_rates)):
            queries = query_set_from_dataset(dataset, model)
            roc = verification_sweep(model, queries, np.random.default_rng([seed, 7]))
            rates.append(pfn_at_pfp(roc, 0.05))
    mean_learned = float(np.mean(learned_rates))
    mean_baseline = float(np.mean(baseline_rates))
    ok = mean_learned <= mean_baseline
    assert report(
        7,
        "learned-vs-random-assignment",
        ok,
        f"mean pfn@pfp=0.05 learned {mean_learned:.3f} vs random {mean_baseline:.3f}",
    )


def test_c08_group_size_degrades_dir():
    # measurable-noise member of the synthetic family: at sigma=0.15 the DIR
    # saturates near zero for every m and the trend is unmeasurable (see the
    # project notes); sigma=0.08 keeps the metric in a responsive range
    group_sizes = (2, 8, 32)
    dirs = {m: [] for m in group_sizes}
    for seed in SEEDS:
        dataset = generate(
            SyntheticSpec(
                num_identities=128, samples_per_identity=4, dim=64,
                noise_sigma=0.08, impostor_fraction=0.5, seed=seed,
            )
        )
        for m in group_sizes:
            config = ModelConfig(num_groups=128 // m, seed=seed, **VERIF_CONFIG)
            model = train(dataset.enrolled, config)
            queries = query_set_from_dataset(dataset, model)
            roc = identification_sweep(model, queries)
            tau = threshold_at_pfp(roc, 0.05)
            dirs[m].append(identification_report(model, queries, tau).dir_rate)
    means = {m: float(np.mean(dirs[m])) for m in group_sizes}
    ok = True
    details = []
    for a, b in zip(group_sizes, group_sizes[1:]):
        diffs = np.array(dirs[b]) - np.array(dirs[a])
        se = float(diffs.std(ddof=1) / np.sqrt(len(diffs)))
        ok = ok and float(diffs.mean()) <= se
        details.append(f"m{a}->m{b}: {diffs.mean():+.4f} (se {se:.4f})")
    assert report(
        8,
        "group-size-degrades-dir",
        ok,
        f"mean DIR {means[2]:.3f}/{means[8]:.3f}/{means[32]:.3f}; " + "; ".join(details),
    )


def test_c09_aggregation_secures_enrolled(verification_runs):
    worse_every_run = True
    pairs = []
    for seed in SEEDS:
        dataset, learned, _ = verification_runs[seed]  # m = 8 members per group
        queries = query_set_from_dataset(dataset, learned)
        rep = security_report(dataset.enrolled, queries, learned)
        pairs.append((rep.mse_security, rep.mse_privacy))
        worse_every_run = worse_every_run and rep.mse_security > rep.mse_privacy
    detail = ", ".join(f"{s:.4f}>{p:.4f}" for s, p in pairs)
    assert report(9, "aggregation-secures-enrolled", worse_every_run, detail)


def test_c11_tradeoff_grows_with_group_size():
    # the paper's trade-off: as groups grow (m members each), verification
    # gets worse and security and privacy better, on every seed.  Seeds 4-6
    # were fixed before the first run.  The learned-beats-random DIR
    # comparison is left out: seed 5 breaks it at m = 8 (see ROADMAP item 6)
    group_sizes = (2, 8, 32)
    ok = True
    details = []
    for seed in (4, 5, 6):
        dataset = generate(
            SyntheticSpec(
                num_identities=1024, samples_per_identity=3, dim=128,
                noise_sigma=0.05, impostor_fraction=0.5, seed=seed,
            )
        )
        cells = []
        for m in group_sizes:
            config = ModelConfig(code_length=64, sparsity=8, num_groups=1024 // m, max_outer_iters=10, seed=seed)
            model = train(dataset.enrolled, config)
            queries = query_set_from_dataset(dataset, model)
            pfn = pfn_at_pfp(verification_sweep(model, queries, np.random.default_rng([seed, 7])), 0.05)
            security = security_report(dataset.enrolled, queries, model)
            cells.append((pfn, security.mse_security, security.mse_privacy))
        ok = ok and all(a <= b for prev, cell in zip(cells, cells[1:]) for a, b in zip(prev, cell))
        details.append(f"seed {seed}: pfn " + "/".join(f"{c[0]:.3f}" for c in cells))
    assert report(11, "tradeoff-grows-with-group-size", ok, "; ".join(details))


CLI_CONFIG = """\
[model]
code_length = 8
sparsity = 2
num_groups = 4
max_outer_iters = 8
seed = 3

[data]
num_identities = 16
samples_per_identity = 2
dim = 16
noise_sigma = 0.05
impostor_fraction = 0.25
data_seed = 4

[sweep]
group_sizes = 2,4
sparsity_levels = 2,3

[output]
out_dir = {out}
"""


def test_c10_cli_determinism(tmp_path):
    def snapshot(root):
        tree = {}
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    tree[os.path.relpath(full, root)] = fh.read()
        return tree

    def run_twice(label, argv, out_dir):
        runs = []
        for _ in range(2):
            if os.path.isdir(out_dir):
                for rel in snapshot(out_dir):
                    os.unlink(os.path.join(out_dir, rel))
            assert main(argv) == 0, f"{label} failed"
            runs.append(snapshot(out_dir))
        return runs[0] == runs[1]

    out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "exp.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CLI_CONFIG.format(out=out))

    results = {}
    results["gen-data"] = run_twice("gen-data", ["gen-data", "--config", cfg_path], out)
    results["train"] = run_twice("train", ["train", "--config", cfg_path], out)
    model_path = os.path.join(out, "model.txt")
    model_bytes = Path(model_path).read_bytes()
    for mode in ("eval-verify", "eval-identify", "eval-security"):
        results[mode] = run_twice(mode, [mode, "--config", cfg_path], out)
    demo_out = str(tmp_path / "demo")
    model_copy = str(tmp_path / "model.txt")
    with open(model_copy, "wb") as fh:
        fh.write(model_bytes)
    results["protocol-demo"] = run_twice(
        "protocol-demo",
        [
            "protocol-demo", "--model", model_copy, "--query-index", "0", "--tau", "4",
            "--seed", "5", "--out-dir", demo_out, "--additive-bits", "64",
        ],
        demo_out,
    )
    ok = all(results.values())
    failing = [k for k, v in results.items() if not v]
    assert report(10, "cli-determinism", ok, "all six subcommands" if ok else f"nondeterministic: {failing}")


# SHA-256 of (model.txt, train.log) written by ``train`` on CLI_CONFIG.
# Recorded with Python 3.11, numpy 2.4.6 and OpenBLAS 0.3.31 on its SkylakeX
# kernel (x86-64); another BLAS/LAPACK build or kernel may move the last bits
# of the SVD and so the bytes.  A change that alters
# fixed-seed output must update these digests and say so in CHANGES.md.
GOLDEN_TRAIN_DIGESTS = {
    "train": (
        "ad8a33f5e12a32f7d6372084bf599354beec7c85d5393ef66abffd94f90fb5c2",
        "81057b91d5b217f8caa5af7c34ebfd6931200f6b5c49eeae08d4586381406eca",
    ),
    "baseline": (
        "f4c7520d8955ec951ad036d7fd1c7180cfaa08cac0967f8b34cc6c04d19f114a",
        "363f2ff74fd52fa4b7923db3b8f4676cb17ae0b8d22050f68f23ab6ac3a40645",
    ),
}


def test_c10_cli_golden_bytes(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "exp.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CLI_CONFIG.format(out=out))

    digests = {}
    for label, extra in (("train", []), ("baseline", ["--baseline"])):
        assert main(["train", "--config", cfg_path, *extra]) == 0, f"{label} failed"
        digests[label] = tuple(
            hashlib.sha256(Path(os.path.join(out, name)).read_bytes()).hexdigest()
            for name in ("model.txt", "train.log")
        )
    changed = [label for label, pinned in GOLDEN_TRAIN_DIGESTS.items() if digests[label] != pinned]
    detail = "model.txt and train.log" if not changed else f"bytes changed: {changed}; OpenBLAS core {openblas_core()}"
    assert report(10, "cli-golden-bytes", not changed, detail)


# SHA-256 of (transcript.bin, decision.txt) written by ``protocol-demo`` on the
# CLI_CONFIG model (query 0, tau 4, seed 5).  The protocol draws only from
# Python's ``random`` and computes in exact integers, so these digests hold on
# any platform where the model bytes above hold.  A change to the protocol's
# arithmetic must leave them as they are; a change to its wire format or rng
# order must update them and say so in CHANGES.md.
GOLDEN_DEMO_DIGESTS = {
    "128-bit": (
        "ce4ee9f1baf54aa614d1fc13c20749db7c128ef41fb96e55cf1c472e0ae375dc",
        "a7569daef68e7aa91f0cc9856e2461c5cb2bd5494eaf28818c3e059972d987e5",
    ),
    "64-bit": (
        "5bc7f1ef8c5a70d93bd3e7a881851894f81f478ab5fbab2a74dc1b79ba8881b3",
        "a7569daef68e7aa91f0cc9856e2461c5cb2bd5494eaf28818c3e059972d987e5",
    ),
}


def test_c10_protocol_demo_golden_bytes(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "exp.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CLI_CONFIG.format(out=out))
    assert main(["train", "--config", cfg_path]) == 0
    digests = {}
    for label, extra in (("128-bit", []), ("64-bit", ["--additive-bits", "64"])):
        demo_out = str(tmp_path / label)
        argv = [
            "protocol-demo", "--model", os.path.join(out, "model.txt"), "--query-index", "0", "--tau", "4",
            "--seed", "5", "--out-dir", demo_out, *extra,
        ]
        assert main(argv) == 0, f"protocol-demo {label} failed"
        digests[label] = tuple(
            hashlib.sha256(Path(os.path.join(demo_out, name)).read_bytes()).hexdigest()
            for name in ("transcript.bin", "decision.txt")
        )
    changed = [label for label, pinned in GOLDEN_DEMO_DIGESTS.items() if digests[label] != pinned]
    detail = "transcript.bin and decision.txt" if not changed else f"bytes changed: {digests}; OpenBLAS core {openblas_core()}"
    assert report(10, "protocol-demo-golden-bytes", not changed, detail)


# The protocol-session benchmark shape, where k-means meets exact ties
# (seeds 2 and 3) and the ternarizers meet tied magnitudes.
PROTOCOL_SHAPE_CONFIG = """\
[model]
code_length = 64
sparsity = 8
num_groups = 64
max_outer_iters = 10

[data]
num_identities = 1024
samples_per_identity = 4
dim = 128
noise_sigma = 0.07
impostor_fraction = 0.25

[output]
out_dir = {out}
"""

# SHA-256 of (model.txt, train.log) written by ``train`` on
# PROTOCOL_SHAPE_CONFIG with model and data seed set to the named seed.
# Recorded as GOLDEN_TRAIN_DIGESTS above; the kernels of training must keep
# these bytes exactly.
GOLDEN_PROTOCOL_SHAPE_DIGESTS = {
    "seed-2": (
        "7be76e5f55bac0fb49c3eca542b7630119ebeab74bfb516ccebce5c13def5592",
        "fa8ab226c3eb648baf413096cdd534c1dacad0e64efc6701bc2e55757ebbb466",
    ),
    "seed-3": (
        "6f60d85b31c749b6b874a0aa6581f484c448bd78098ddd25696b1c8320121942",
        "7f59363488fba7d3c608ea769ce626c877ae34f03eace952405f486ad7ebe0e0",
    ),
    "baseline-16-seed-2": (
        "0900facccb491cc7260cce8ef81dcac3ea46b34a9fea718f6d0e43eef8292a10",
        "640f22aa8067c7b413cfc7be9033d5d3000c32ee0baa0f097c380e010dad2502",
    ),
}


def test_c10_protocol_shape_golden_bytes(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "exp.ini")
    with open(cfg_path, "w") as fh:
        fh.write(PROTOCOL_SHAPE_CONFIG.format(out=out))
    digests = {}
    for label, seed, extra in (
        ("seed-2", 2, []),
        ("seed-3", 3, []),
        ("baseline-16-seed-2", 2, ["--baseline"]),
    ):
        argv = ["train", "--config", cfg_path, f"--seed={seed}", f"--data_seed={seed}", *extra]
        assert main(argv) == 0, f"{label} failed"
        digests[label] = tuple(
            hashlib.sha256(Path(os.path.join(out, name)).read_bytes()).hexdigest()
            for name in ("model.txt", "train.log")
        )
    changed = [label for label, pinned in GOLDEN_PROTOCOL_SHAPE_DIGESTS.items() if digests[label] != pinned]
    detail = "model.txt and train.log" if not changed else f"bytes changed: {digests}; OpenBLAS core {openblas_core()}"
    assert report(10, "protocol-shape-golden-bytes", not changed, detail)


# SHA-256 of the metrics CSV that each ``eval-*`` subcommand writes for a
# stored model (``--model``) on CLI_CONFIG, for the trained model and the
# random-assignment baseline.  Recorded as GOLDEN_TRAIN_DIGESTS above; a
# change to how evaluation computes must keep these bytes exactly.
GOLDEN_EVAL_DIGESTS = {
    "train": {
        "eval-verify": "2652478b3a52318296106e7c34905bcaa328c6b45de4bce745bcfe68ea90e39d",
        "eval-identify": "2652478b3a52318296106e7c34905bcaa328c6b45de4bce745bcfe68ea90e39d",
        "eval-security": "d6c143385915d10a7d58f72093426c58c70d8928accd8d1bd81076bcae975e3e",
    },
    "baseline": {
        "eval-verify": "25ecdd206e668b9ece709ab9d92c60b203c622d68ae93ee3a430d49e66fc74cd",
        "eval-identify": "25ecdd206e668b9ece709ab9d92c60b203c622d68ae93ee3a430d49e66fc74cd",
        "eval-security": "a372f3f53b7bb8c61c3405afbc2f5978bfd9477a1825ca7658a07b86b1155940",
    },
}


def test_c10_eval_golden_bytes(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = str(tmp_path / "exp.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CLI_CONFIG.format(out=out))
    digests = {}
    for label, extra in (("train", []), ("baseline", ["--baseline"])):
        assert main(["train", "--config", cfg_path, *extra]) == 0, f"{label} failed"
        model_path = str(tmp_path / f"{label}-model.txt")
        os.replace(os.path.join(out, "model.txt"), model_path)
        digests[label] = {}
        for mode, csv in (("eval-verify", "verify"), ("eval-identify", "identify"), ("eval-security", "security")):
            assert main([mode, "--config", cfg_path, "--model", model_path]) == 0, f"{label} {mode} failed"
            with open(os.path.join(out, f"{csv}-metrics.csv"), "rb") as fh:
                digests[label][mode] = hashlib.sha256(fh.read()).hexdigest()
    changed = [label for label, pinned in GOLDEN_EVAL_DIGESTS.items() if digests[label] != pinned]
    detail = "verify, identify and security CSVs" if not changed else f"bytes changed: {digests}; OpenBLAS core {openblas_core()}"
    assert report(10, "eval-golden-bytes", not changed, detail)


def relabeled_model_digests(out):
    """SHA-256 of the model in ``out`` up to a relabeling of its groups, and
    of its ``train.log``.

    Groups are renumbered in order of first appearance in the assignment;
    the model digest covers the projection, the codes, the renumbered
    assignment and the representations in the new order.
    """
    model = load_model(os.path.join(out, "model.txt"))
    group_of = model.assignments.group_of
    _, first = np.unique(group_of, return_index=True)
    order = np.argsort(first)
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    h = hashlib.sha256()
    for part in (
        model.projection.data,
        model.codes.codes,
        label[group_of],
        model.representations.codes[:, order],
    ):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest(), hashlib.sha256(Path(os.path.join(out, "train.log")).read_bytes()).hexdigest()


# relabeled_model_digests of ``train`` on CLI_CONFIG and on PROTOCOL_SHAPE_CONFIG
# (model and data seed set to the named seed).  Recorded as GOLDEN_TRAIN_DIGESTS
# above; a change to how the grouping step numbers its groups keeps these,
# while the raw model.txt digests above move.
GOLDEN_RELABELED_DIGESTS = {
    "cli": (
        "82bf3e261a7c036eb3cf20f8bf1cfd44795899c411b8c6ebb7ec226c5250403e",
        "81057b91d5b217f8caa5af7c34ebfd6931200f6b5c49eeae08d4586381406eca",
    ),
    "protocol-shape-seed-2": (
        "f8d73decf5b657a6aad6c6a15e2f6147a959a0f05dc67afecc04e493c35fd3e2",
        "fa8ab226c3eb648baf413096cdd534c1dacad0e64efc6701bc2e55757ebbb466",
    ),
    "protocol-shape-seed-3": (
        "3d8bb60b2bdbf209156d4c7ba8b91cb55fe661337f010639a4accf8ae37bc89f",
        "7f59363488fba7d3c608ea769ce626c877ae34f03eace952405f486ad7ebe0e0",
    ),
}


def test_c10_relabeled_model_golden_bytes(tmp_path):
    digests = {}
    for label, template, extra in (
        ("cli", CLI_CONFIG, []),
        ("protocol-shape-seed-2", PROTOCOL_SHAPE_CONFIG, ["--seed=2", "--data_seed=2"]),
        ("protocol-shape-seed-3", PROTOCOL_SHAPE_CONFIG, ["--seed=3", "--data_seed=3"]),
    ):
        out = str(tmp_path / label)
        cfg_path = str(tmp_path / f"{label}.ini")
        with open(cfg_path, "w") as fh:
            fh.write(template.format(out=out))
        assert main(["train", "--config", cfg_path, *extra]) == 0, f"{label} failed"
        digests[label] = relabeled_model_digests(out)
    changed = [label for label, pinned in GOLDEN_RELABELED_DIGESTS.items() if digests[label] != pinned]
    detail = "model up to group labels, and train.log" if not changed else f"bytes changed: {digests}; OpenBLAS core {openblas_core()}"
    assert report(10, "relabeled-model-golden-bytes", not changed, detail)


# SHA-256 of (enrolled.npy, genuine.npy, impostors.npy) written by ``gen-data``
# on CLI_CONFIG and on PROTOCOL_SHAPE_CONFIG (data seed set to the named seed).
# Recorded as GOLDEN_TRAIN_DIGESTS above; a change to how signatures are drawn,
# normalized or written must keep these bytes exactly.
GOLDEN_GEN_DATA_DIGESTS = {
    "cli": (
        "dfb3a81b284aebba2e2e7f8e8c5fa2269fe3d39274b60bc4a7225bbee85a70be",
        "b6abb21f87a2d4365901c7af5b1829f519851688f6ae7fb514221e49c71b7b99",
        "bf7c8f4668e103fe634704e55d7df0b463bf77cc76e6594d80b3499ba11ac3c7",
    ),
    "protocol-shape-seed-2": (
        "fb07dc0668e308c9c52517ce8678e8226cb825703e248c54c931fe2ca798e9d1",
        "55ff411a2500ccaf650dd9fbaa500aee74b5d6157b1f20b1d64981ef87891d61",
        "59018da07e86e65cdfd0681f84a8ad959b135a6d46ff511093afca046267fdd3",
    ),
    "protocol-shape-seed-3": (
        "0e464cbb8992cecc8add3f7456e934f0e7ea9ae5941e4791cfe711421d9a00de",
        "afc51b6573949a058a52842c90a691b5c0097d7b0fd7251cc511f2dbb59d61d3",
        "f4347959ba37ea23101ff267e8665b5e56a9edf92fc997d6d9cb736f3a9fce2d",
    ),
}


def test_c10_gen_data_golden_bytes(tmp_path):
    digests = {}
    for label, template, extra in (
        ("cli", CLI_CONFIG, []),
        ("protocol-shape-seed-2", PROTOCOL_SHAPE_CONFIG, ["--data_seed=2"]),
        ("protocol-shape-seed-3", PROTOCOL_SHAPE_CONFIG, ["--data_seed=3"]),
    ):
        out = str(tmp_path / label)
        cfg_path = str(tmp_path / f"{label}.ini")
        with open(cfg_path, "w") as fh:
            fh.write(template.format(out=out))
        assert main(["gen-data", "--config", cfg_path, *extra]) == 0, f"{label} failed"
        digests[label] = tuple(
            hashlib.sha256(Path(os.path.join(out, name)).read_bytes()).hexdigest()
            for name in ("enrolled.npy", "genuine.npy", "impostors.npy")
        )
    changed = [label for label, pinned in GOLDEN_GEN_DATA_DIGESTS.items() if digests[label] != pinned]
    detail = "enrolled, genuine and impostor .npy files" if not changed else f"bytes changed: {digests}; OpenBLAS core {openblas_core()}"
    assert report(10, "gen-data-golden-bytes", not changed, detail)
