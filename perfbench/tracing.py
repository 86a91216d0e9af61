"""In-memory spans and counters recorded from wrappers around gmkit functions.

The wrappers live here, not in gmkit: ``install`` replaces module-level
functions at each layer boundary (and every re-export of the same function
object inside the gmkit package) with a wrapper that opens a span or bumps a
counter, and ``Tracer.disable``/``Tracer.enable`` take the wrappers out and
put them back, so one process can time an operation both ways.  Spans stay
in a list until the run ends; ``self_times`` and ``summarize`` derive
per-layer numbers from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute, span name).  A dotted attribute names a class attribute.
SPANNED = (
    ("gmkit.data", "generate", "data.generate"),
    ("gmkit.data", "save_dataset", "data.save_dataset"),
    ("gmkit.data", "load_dataset", "data.load_dataset"),
    ("gmkit.core", "ternarize_columns", "core.ternarize_columns"),
    ("gmkit.learning", "train", "learning.train"),
    ("gmkit.learning", "_svd_projection", "learning.w_step"),
    ("gmkit.learning", "e_step", "learning.e_step"),
    ("gmkit.learning", "ry_step", "learning.ry_step"),
    ("gmkit.learning", "kmeans", "learning.kmeans"),
    ("gmkit.learning", "objective", "learning.objective"),
    ("gmkit.evaluation", "verification_sweep", "evaluation.verification_sweep"),
    ("gmkit.evaluation", "identification_sweep", "evaluation.identification_sweep"),
    ("gmkit.evaluation", "identification_report", "evaluation.identification_report"),
    ("gmkit.evaluation", "security_report", "evaluation.security_report"),
    ("gmkit.modelio", "save_model", "modelio.save_model"),
    ("gmkit.modelio", "load_model", "modelio.load_model"),
    ("gmkit.protocol.engine", "ProtocolKeys.generate", "protocol.keygen"),
    ("gmkit.protocol.engine", "run_protocol", "protocol.run"),
    ("gmkit.protocol.engine", "client_round1_encrypt_query", "protocol.round1"),
    ("gmkit.protocol.engine", "server_round2_encrypted_correlations", "protocol.round2"),
    ("gmkit.protocol.engine", "client_round3_mask_permute", "protocol.round3"),
    ("gmkit.protocol.engine", "server_round4_blind_threshold", "protocol.round4"),
    ("gmkit.protocol.engine", "client_round5_decrypt_reveal", "protocol.round5"),
    ("gmkit.protocol.engine", "server_decide", "protocol.decide"),
    ("gmkit.protocol.transcript", "ProtocolTranscript.to_bytes", "protocol.transcript_encode"),
    ("gmkit.cli", "main", "cli.main"),
)

# (module, attribute, counter name): counted, not timed, because they run
# thousands of times per operation.  Nested calls count too: rerandomizing
# encrypts a 1, so it adds to ``protocol.mult_encrypt_calls``.
COUNTED = (
    ("gmkit.core", "TernaryCode.__post_init__", "core.ternary_code_checks"),
    ("gmkit.evaluation", "embed_query", "evaluation.embed_query_calls"),
    ("gmkit.evaluation", "group_distances", "evaluation.group_distances_calls"),
    ("gmkit.protocol.paillier", "additive_encrypt", "protocol.additive_encrypt_calls"),
    ("gmkit.protocol.paillier", "additive_decrypt", "protocol.additive_decrypt_calls"),
    ("gmkit.protocol.elgamal", "mult_encrypt", "protocol.mult_encrypt_calls"),
    ("gmkit.protocol.elgamal", "mult_decrypt", "protocol.mult_decrypt_calls"),
    ("gmkit.protocol.elgamal", "mult_rerandomize_by_one", "protocol.rerandomize_calls"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace: str


@dataclass
class Tracer:
    """Records spans and counters; one trace id per operation (query, train, setup)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(Counter))
    trace_kind: dict = field(default_factory=dict)
    patches: list = field(default_factory=list)  # (owner, attribute, original, wrapper)
    _stack: list = field(default_factory=list)
    _trace: str = "untagged"

    def begin(self, trace_id: str, kind: str) -> None:
        """Tag every span and count from here on with ``trace_id``."""
        self._trace = trace_id
        self.trace_kind[trace_id] = kind

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self._trace][name] += n

    def span(self, name: str):
        return _SpanContext(self, name)

    def disable(self) -> None:
        """Put the original functions back; the wrappers record nothing until ``enable``."""
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def enable(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "trace": s.trace}) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append(Span(self.name, 0.0, 0.0, parent, t._trace))
        t._stack.append(self.index)
        t.spans[self.index].start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index].end = time.perf_counter()
        t._stack.pop()
        return False


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]  # KeyError when the module is gone
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(original) -> list:
    """Every (module, name) in the gmkit package bound to ``original``."""
    return [(module, attr) for name, module in list(sys.modules.items())
            if name == "gmkit" or name.startswith("gmkit.")
            for attr, value in list(vars(module).items()) if value is original]


def install(tracer: Tracer) -> list:
    """Wrap the listed gmkit functions so they report to ``tracer``.

    gmkit must already be imported.  Class attributes are patched on the
    class; module functions are patched in every module that imported them.
    The patches are kept on ``tracer`` for ``disable`` and ``enable``.
    Returns the labels whose function no longer exists (a refactor removed
    that boundary); their metrics then read 0.
    """
    missing = []
    tracer.patches.clear()
    for module_name, attr, span_name in SPANNED:
        if not _wrap(tracer, module_name, attr, span_name, timed=True):
            missing.append(span_name)
    for module_name, attr, counter in COUNTED:
        if not _wrap(tracer, module_name, attr, counter, timed=False):
            missing.append(counter)
    tracer.enable()
    return missing


def _wrap(tracer: Tracer, module_name: str, attr: str, label: str, timed: bool) -> bool:
    try:
        owner, leaf = _resolve(module_name, attr)
        raw = owner.__dict__[leaf]
    except (KeyError, AttributeError):
        return False
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw

    if timed:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(label):
                result = original(*args, **kwargs)
            if label == "learning.kmeans":
                tracer.count("learning.kmeans_iters", result.iterations)
            return result
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(label)
            return original(*args, **kwargs)

    if isinstance(owner, type):
        tracer.patches.append((owner, leaf, raw, classmethod(wrapper) if is_classmethod else wrapper))
    else:
        tracer.patches.extend((module, name, original, wrapper) for module, name in _bindings(original))
    return True


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on one thread, so their
    durations add without overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def _new_entry(kind: str) -> dict:
    return {"kind": kind, "inclusive": Counter(), "self": Counter(), "calls": Counter(),
            "layer_self": Counter(), "root_s": 0.0, "train_s": 0.0, "train_steps_s": 0.0, "counts": {}}


def summarize(tracer: Tracer) -> dict:
    """Per trace id: its kind, and per span name the inclusive time, self time
    and call count; self time per layer (the span-name prefix); the time of
    root spans; the time of ``learning.train`` and of its direct
    ``learning.*`` children; and the counters."""
    spans = tracer.spans
    traces: dict = {}

    def entry(trace_id: str) -> dict:
        if trace_id not in traces:
            traces[trace_id] = _new_entry(tracer.trace_kind.get(trace_id, "untagged"))
        return traces[trace_id]

    for s, own in zip(spans, self_times(spans)):
        e = entry(s.trace)
        e["inclusive"][s.name] += s.end - s.start
        e["self"][s.name] += own
        e["calls"][s.name] += 1
        e["layer_self"][s.name.split(".", 1)[0]] += own
        if s.parent is None:
            e["root_s"] += s.end - s.start
        if s.name == "learning.train":
            e["train_s"] += s.end - s.start
        elif s.parent is not None and spans[s.parent].name == "learning.train" and s.name.startswith("learning."):
            e["train_steps_s"] += s.end - s.start
    for trace_id, counts in tracer.counts.items():
        entry(trace_id)["counts"] = dict(counts)
    for e in traces.values():
        for key in ("inclusive", "self", "calls", "layer_self"):
            e[key] = dict(e[key])
    return traces
