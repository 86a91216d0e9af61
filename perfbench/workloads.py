"""The three benchmark workloads: enroll, verify-batch and protocol-session.

Each workload builds its inputs from the seed, sets up several times
(timing each set-up), runs its timed operation in a loop for the requested
number of seconds, and checks every operation's output.  gmkit receives only
the generated inputs.  A workload returns raw samples; ``run.py`` turns them
into metrics.

Every operation is tagged with a trace id and kind (``setup``, ``train``,
``store``, ``eval``, ``query``, ``selfcheck``) so the traced run can
attribute spans to it.  Checks run under their own ``check`` traces and
outside the timed intervals.  In a traced run, some repeats of the timed
operation run with the wrappers taken out, so that the tracing overhead is
measured inside one process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import gmkit.cli
import gmkit.core
import gmkit.data
import gmkit.evaluation
import gmkit.learning
import gmkit.modelio
import gmkit.protocol

WORKLOADS = ("enroll", "verify-batch", "protocol-session")

# Shapes per workload.  ``sigma`` is the per-coordinate noise; enroll and
# protocol-session use sigma = 0.8 / sqrt(dim), the per-signature noise norm
# of the default CLI config (dim 64, sigma 0.1), because at sigma 0.1 and
# dim 256 the detection-and-identification rate is about 0.001 (a handful of
# hits among 4096 queries) and cannot guard accuracy.
SIZES = {
    "full": {
        "enroll": dict(identities=4096, samples=2, dim=256, sigma=0.05, impostor_fraction=0.25,
                       code_length=128, sparsity=16, groups=256, outer_iters=10, eval_passes=4, setups=5),
        "verify-batch": dict(identities=1024, samples=8, dim=64, sigma=0.1, impostor_fraction=0.5,
                             code_length=32, sparsity=8, groups=128, outer_iters=30, min_calls=4, setups=5),
        "protocol-session": dict(identities=1024, samples=4, dim=128, sigma=0.07, impostor_fraction=0.25,
                                 code_length=64, sparsity=8, groups=64, outer_iters=10, min_queries=200,
                                 key_bits=128, setups=3),
    },
    "tiny": {
        "enroll": dict(identities=64, samples=2, dim=32, sigma=0.1, impostor_fraction=0.25,
                       code_length=16, sparsity=4, groups=8, outer_iters=2, eval_passes=2, setups=2),
        "verify-batch": dict(identities=48, samples=3, dim=24, sigma=0.1, impostor_fraction=0.5,
                             code_length=12, sparsity=3, groups=6, outer_iters=2, min_calls=2, setups=2),
        "protocol-session": dict(identities=48, samples=3, dim=24, sigma=0.1, impostor_fraction=0.5,
                                 code_length=12, sparsity=3, groups=4, outer_iters=2, min_queries=12,
                                 key_bits=64, setups=2),
    },
}

TARGET_PFP = 0.05


class NullTracer:
    """Stand-in used with tracing off: no spans, no counters."""

    def begin(self, trace_id, kind):
        pass

    def span(self, name):
        return contextlib.nullcontext()


@dataclass
class Result:
    """Raw samples of one workload run; ``run.py`` derives the metrics."""

    setup_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    eval_qps: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    wire_bytes: list = field(default_factory=list)
    round_bytes: list = field(default_factory=list)
    limbs_per_value: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    # Traced runs only: seconds per repeat of the timed operation, by tracing state.
    repeat_s: dict = field(default_factory=lambda: {"traced": [], "untraced": []})

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# ---------------------------------------------------------------- references


def plaintext_distances(code_symbols: np.ndarray, rep_codes: np.ndarray) -> np.ndarray:
    """Exact integer squared distances from one code to every representation."""
    diff = rep_codes.astype(np.int64) - code_symbols.astype(np.int64)[:, None]
    return np.einsum("ij,ij->j", diff, diff)


def plaintext_accept(code_symbols: np.ndarray, rep_codes: np.ndarray, tau: int) -> bool:
    """Reference decision of the protocol: min_g d(e, r_g) <= tau."""
    return bool(plaintext_distances(code_symbols, rep_codes).min() <= tau)


# ---------------------------------------------------------------- helpers


class DigestStore:
    """Digests of outputs that must repeat exactly across runs of one seed.

    Kept in a JSON file inside the checkout, so a later run of the same seed,
    size and code compares against the first.  Keys name the code (see
    ``code_digest``), so runs of different code never compare.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def matches(self, key: str, digest: str) -> bool:
        """True when ``digest`` equals the one recorded for ``key`` (recording it if new)."""
        if key not in self.known:
            self.known[key] = digest
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return self.known[key] == digest


def code_digest() -> str:
    """SHA-256 over the Python files of the gmkit package and of the benchmark itself."""
    h = hashlib.sha256()
    for root in (os.path.dirname(os.path.abspath(gmkit.cli.__file__)), os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                h.update(_sha256_file(path).encode())
    return h.hexdigest()


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _spec(p: dict, seed: int) -> gmkit.data.SyntheticSpec:
    return gmkit.data.SyntheticSpec(num_identities=p["identities"], samples_per_identity=p["samples"],
                                    dim=p["dim"], noise_sigma=p["sigma"],
                                    impostor_fraction=p["impostor_fraction"], seed=seed)


def _model_config(p: dict, seed: int) -> gmkit.core.ModelConfig:
    return gmkit.core.ModelConfig(code_length=p["code_length"], sparsity=p["sparsity"], num_groups=p["groups"],
                                  max_outer_iters=p["outer_iters"], seed=seed)


def _check_model(res: Result, model, p: dict, label: str) -> None:
    sizes = model.assignments.group_sizes()
    res.check(model.representations.num_groups == p["groups"] and sizes.size == p["groups"]
              and int(sizes.min()) > 0, f"{label}: expected {p['groups']} nonempty groups")
    totals = [ob.total for ob in model.objective_trace]
    res.check(bool(totals) and all(math.isfinite(t) for t in totals), f"{label}: objective trace not finite")


def _quality_pass(model, dataset, seed: int) -> tuple[dict, int, float]:
    """The library evaluation pass: returns quality, queries scored and tau*."""
    ev = gmkit.evaluation
    queries = ev.query_set_from_dataset(dataset, model)
    roc = ev.verification_sweep(model, queries, np.random.default_rng([seed, 1]))
    pfn = ev.pfn_at_pfp(roc, TARGET_PFP)
    tau = ev.threshold_at_pfp(ev.identification_sweep(model, queries), TARGET_PFP)
    ident = ev.identification_report(model, queries, tau)
    security = ev.security_report(dataset.enrolled, queries, model)
    quality = {"pfn_at_pfp05": pfn, "dir": ident.dir_rate,
               "mse_security": security.mse_security, "mse_privacy": security.mse_privacy}
    return quality, len(queries.genuine) + len(queries.impostors), tau


def _check_protocol(res: Result, tracer, code, reps, tau, decision, transcript, wire: bytes, label: str) -> None:
    tracer.begin(f"check-{label}", "check")
    res.check(decision.accept == plaintext_accept(code.symbols, reps.codes, tau),
              f"{label}: decision differs from plaintext min distance <= {tau}")
    try:
        roundtrip = gmkit.protocol.ProtocolTranscript.from_bytes(wire)
        ok = roundtrip.to_bytes() == wire and roundtrip.messages == transcript.messages
    except gmkit.GmkitError as exc:
        ok = False
        label += f" ({exc})"
    res.check(ok, f"{label}: transcript does not round-trip")
    res.wire_bytes.append(len(wire))
    res.round_bytes.append([len(m.encode()) for m in transcript.messages])
    res.limbs_per_value.append(getattr(transcript, "limbs_per_value", 0))  # 0 once the limb schedule is gone


def _timed(tracer, trace_id: str, kind: str, fn, res: Result | None = None, repeat: int | None = None):
    """Run ``fn`` as one operation under its own trace; returns (value, seconds).

    With ``res``, an exception counts as a failed operation and gives
    (None, None).  Without it (set-up, after which nothing can go on) the
    exception ends the run.

    ``repeat`` numbers the repeats of a timed operation.  In a traced run,
    repeats 1 and 2 of every four run with the wrappers taken out and record
    no spans; the order traced, untraced, untraced, traced cancels a steady
    drift of the host's speed.  Each repeat's time goes to ``res.repeat_s``.
    """
    traced = not isinstance(tracer, NullTracer) and repeat is not None
    op_tracer = tracer
    if traced and repeat % 4 in (1, 2):
        tracer.disable()
        op_tracer = NullTracer()
    op_tracer.begin(trace_id, kind)
    t0 = time.perf_counter()
    try:
        with op_tracer.span(f"bench.{kind}"):
            value = fn()
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        if res is None:
            raise
        res.check(False, f"{trace_id}: {type(exc).__name__}: {str(exc)[:200]}")
        return None, None
    finally:
        if op_tracer is not tracer:
            tracer.enable()
    dt = time.perf_counter() - t0
    if traced:
        res.repeat_s["traced" if op_tracer is tracer else "untraced"].append(dt)
    return value, dt


# ---------------------------------------------------------------- workloads


def enroll(p: dict, seed: int, seconds: float, tracer, work_dir: str, digests: DigestStore, tag: str) -> Result:
    res = Result()
    for i in range(p["setups"]):
        dataset, dt = _timed(tracer, f"setup-{i}", "setup", lambda: gmkit.data.generate(_spec(p, seed)))
        res.setup_s.append(dt)
    cfg = _model_config(p, seed)
    model_path = os.path.join(work_dir, "model.txt")
    start = time.perf_counter()
    rounds = passes = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        trained, dt = _timed(tracer, f"train-{rounds}", "train", lambda: gmkit.learning.train(dataset.enrolled, cfg),
                             res)
        if dt is None:
            break
        model = trained
        res.train_s.append(dt)
        _, stored = _timed(tracer, f"store-{rounds}", "store", lambda: gmkit.modelio.save_model(model_path, model), res)
        tracer.begin(f"check-train-{rounds}", "check")
        _check_model(res, model, p, f"train {rounds}")
        if stored is not None:
            res.check(digests.matches(f"{tag}:model", _sha256_file(model_path)),
                      f"train {rounds}: model digest differs from an earlier run of this code and seed")

        for k in range(p["eval_passes"]):
            out, dt = _timed(tracer, f"eval-{rounds}-{k}", "eval", lambda: _quality_pass(model, dataset, seed),
                             res, repeat=passes)
            passes += 1
            if dt is None:
                continue
            quality, scored, _ = out
            res.eval_qps.append(scored / dt)
            res.query_ms.append(dt * 1e3 / scored)
            tracer.begin(f"check-eval-{rounds}-{k}", "check")
            res.check(all(math.isfinite(v) for v in quality.values())
                      and (not res.quality or quality == res.quality), f"eval {rounds}-{k}: quality not repeatable")
            res.quality = quality
        rounds += 1
    if not res.train_s:
        raise RuntimeError(f"train failed: {res.failures}")

    # The server loads the stored model and answers one encrypted query of an
    # enrolled code: the wire cost a query against this model pays.
    prng = random.Random(seed)
    code = model.codes.column(0)
    tau = p["sparsity"]

    def selfcheck():
        served = gmkit.modelio.load_model(model_path)
        keys = gmkit.protocol.ProtocolKeys.generate(gmkit.protocol.SecurityParams(), prng)
        decision, transcript = gmkit.protocol.run_protocol(code, served.representations, tau, prng, keys=keys)
        return decision, transcript, transcript.to_bytes()

    out, dt = _timed(tracer, "selfcheck-0", "selfcheck", selfcheck, res)
    if dt is not None:
        _check_protocol(res, tracer, code, model.representations, tau, *out, "selfcheck")
    res.info.update(rounds=rounds, selfcheck_tau=tau)
    return res


_VERIFY_CONFIG = """[model]
code_length = {code_length}
sparsity = {sparsity}
num_groups = {groups}
max_outer_iters = {outer_iters}
seed = {seed}

[data]
num_identities = {identities}
samples_per_identity = {samples}
dim = {dim}
noise_sigma = {sigma}
impostor_fraction = {impostor_fraction}
data_seed = {seed}
"""


def _cli(argv: list, label: str) -> float:
    """Run one CLI command in-process; returns its wall time.  A nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gmkit.cli.main(argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"{label}: exit {rc}: {err.getvalue().strip()[:200]}")
    return dt


def verify_batch(p: dict, seed: int, seconds: float, tracer, work_dir: str, digests: DigestStore, tag: str) -> Result:
    res = Result()
    cfg_path = os.path.join(work_dir, "verify.ini")
    with open(cfg_path, "w", encoding="ascii") as fh:
        fh.write(_VERIFY_CONFIG.format(seed=seed, **p))
    bundle = os.path.join(work_dir, "bundle")
    model_dir = os.path.join(work_dir, "model")
    model_path = os.path.join(model_dir, "model.txt")
    demo_dir = os.path.join(work_dir, "demo")
    tau = p["sparsity"]

    for i in range(p["setups"]):
        def setup():
            _cli(["gen-data", "--config", cfg_path, f"--out_dir={bundle}"], "gen-data")
            train_dt = _cli(["train", "--config", cfg_path, "--dataset", bundle, f"--out_dir={model_dir}"], "train")
            _cli(["protocol-demo", "--model", model_path, "--query-index", "0", "--tau", str(tau),
                  "--seed", str(seed), "--out-dir", demo_dir], "protocol-demo")
            return train_dt

        train_dt, dt = _timed(tracer, f"setup-{i}", "setup", setup)
        res.setup_s.append(dt)
        res.train_s.append(train_dt)
        tracer.begin(f"check-setup-{i}", "check")
        res.check(digests.matches(f"{tag}:model", _sha256_file(model_path)),
                  f"setup {i}: model.txt differs from an earlier set-up or run of this code and seed")

    tracer.begin("check-demo", "check")
    model = gmkit.modelio.load_model(model_path)
    _check_model(res, model, p, "train")
    code = model.codes.column(0)
    with open(os.path.join(demo_dir, "decision.txt"), encoding="ascii") as fh:
        demo_accept = fh.read().strip() == "accept"
    with open(os.path.join(demo_dir, "transcript.bin"), "rb") as fh:
        wire = fh.read()
    transcript = gmkit.protocol.ProtocolTranscript.from_bytes(wire)
    _check_protocol(res, tracer, code, model.representations, tau, gmkit.protocol.ProtocolDecision(demo_accept),
                    transcript, wire, "protocol-demo")

    spec = _spec(p, seed)
    scored = (spec.num_identities * (spec.samples_per_identity - 1)
              + spec.num_impostor_identities * spec.samples_per_identity)
    start = time.perf_counter()
    calls = 0
    first_csv = None
    while calls < p["min_calls"] or time.perf_counter() - start < seconds:
        i, calls = calls, calls + 1
        out_dir = os.path.join(work_dir, f"eval-{i}")
        argv = ["eval-verify", "--config", cfg_path, "--dataset", bundle, "--model", model_path, f"--out_dir={out_dir}"]
        _, dt = _timed(tracer, f"eval-{i}", "eval", lambda: _cli(argv, f"eval-verify {i}"), res, repeat=i)
        if dt is None:
            continue
        res.eval_qps.append(scored / dt)
        res.query_ms.append(dt * 1e3 / scored)
        tracer.begin(f"check-eval-{i}", "check")
        with open(os.path.join(out_dir, "verify-metrics.csv"), "rb") as fh:
            csv_bytes = fh.read()
        first_csv = first_csv or csv_bytes
        res.check(csv_bytes == first_csv and digests.matches(f"{tag}:metrics", hashlib.sha256(csv_bytes).hexdigest()),
                  f"eval-verify {i}: metrics CSV differs from an earlier call or run of this code and seed")
    if first_csv is None:
        raise RuntimeError(f"every eval-verify call failed: {res.failures}")

    header, row = first_csv.decode("ascii").strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    res.quality = {k: float(values[k]) for k in ("pfn_at_pfp05", "dir", "mse_security", "mse_privacy")}

    res.info.update(calls=calls, demo_tau=tau, queries_per_call=scored)
    return res


def protocol_session(p: dict, seed: int, seconds: float, tracer, work_dir: str, digests: DigestStore, tag: str) -> Result:
    res = Result()
    params = gmkit.protocol.SecurityParams(additive_bits=p["key_bits"])
    model_path = os.path.join(work_dir, "model.txt")
    for i in range(p["setups"]):
        def setup():
            dataset = gmkit.data.generate(_spec(p, seed))
            t0 = time.perf_counter()
            model = gmkit.learning.train(dataset.enrolled, _model_config(p, seed))
            train_dt = time.perf_counter() - t0
            quality, _, _ = _quality_pass(model, dataset, seed)
            gmkit.modelio.save_model(model_path, model)
            served = gmkit.modelio.load_model(model_path)
            keys = gmkit.protocol.ProtocolKeys.generate(params, random.Random(seed))
            return dataset, served, quality, keys, train_dt

        (dataset, model, quality, keys, train_dt), dt = _timed(tracer, f"setup-{i}", "setup", setup)
        res.setup_s.append(dt)
        res.train_s.append(train_dt)
        tracer.begin(f"check-setup-{i}", "check")
        _check_model(res, model, p, f"setup {i}")
        res.check(digests.matches(f"{tag}:model", _sha256_file(model_path)),
                  f"setup {i}: model digest differs from an earlier set-up or run of this code and seed")
        res.check(not res.quality or quality == res.quality, f"setup {i}: quality not repeatable")
        res.quality = quality

    # Genuine and impostor queries alternate, in a seeded order.
    order = np.random.default_rng([seed, 3])
    genuine = [dataset.genuine_queries[int(i)][0] for i in order.permutation(len(dataset.genuine_queries))]
    impostors = [dataset.impostors[int(i)] for i in order.permutation(len(dataset.impostors))]
    mixed = [v for pair in zip(genuine, impostors) for v in pair]

    reps = model.representations
    sparsity = p["sparsity"]
    # tau splits the nearest-group distances of the first queries as evenly
    # as the integer distances allow, so the mix both accepts and rejects
    # (the 5% false-positive operating point accepts only ~2% of it).
    tracer.begin("check-tau", "check")
    nearest = [int(plaintext_distances(gmkit.core.embed(model.projection, v, sparsity).symbols, reps.codes).min())
               for v in mixed[:p["min_queries"]]]
    tau = min(sorted(set(nearest))[:-1], key=lambda t: abs(sum(d <= t for d in nearest) - len(nearest) / 2))
    rng = random.Random(seed)
    wire_digest = hashlib.sha256()
    accepts = 0
    start = time.perf_counter()
    n = 0
    while n < p["min_queries"] or time.perf_counter() - start < seconds:
        i, n = n, n + 1
        vec = mixed[i % len(mixed)]

        def query():
            code = gmkit.core.embed(model.projection, vec, sparsity)
            decision, transcript = gmkit.protocol.run_protocol(code, reps, tau, rng, keys=keys)
            return code, decision, transcript, transcript.to_bytes()

        out, dt = _timed(tracer, f"query-{i}", "query", query, res, repeat=i)
        if dt is None:
            continue
        res.query_ms.append(dt * 1e3)
        code, decision, transcript, wire = out
        _check_protocol(res, tracer, code, reps, tau, decision, transcript, wire, f"query {i}")
        accepts += decision.accept
        if i < p["min_queries"]:
            wire_digest.update(wire)
    if not res.query_ms:
        raise RuntimeError(f"every query failed: {res.failures}")
    res.check(0 < accepts < n, f"tau={tau} gave {accepts} accepts of {n}: the mix needs both outcomes")
    res.check(digests.matches(f"{tag}:transcripts", wire_digest.hexdigest()),
              "transcripts of the first queries differ from an earlier run of this code and seed")
    res.info.update(queries=n, accepts=accepts, tau=tau)
    return res


RUNNERS = {"enroll": enroll, "verify-batch": verify_batch, "protocol-session": protocol_session}


def run(workload: str, size: str, seed: int, seconds: float, tracer, work_dir: str, digest_path: str) -> Result:
    """Run one workload; ``work_dir`` must exist and is left for the caller to remove."""
    digests = DigestStore(digest_path)
    return RUNNERS[workload](SIZES[size][workload], seed, seconds, tracer or NullTracer(), work_dir, digests,
                             f"{workload}:{size}:{seed}:{code_digest()}")
