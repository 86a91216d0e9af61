"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_listed_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny", "--out-root", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_plaintext_reference_lowers_success_rate(monkeypatch, tmp_path):
    real = workloads.plaintext_accept
    monkeypatch.setattr(workloads, "plaintext_accept", lambda e, r, tau: not real(e, r, tau))
    res = workloads.run("protocol-session", "tiny", 3, 0.0, None, str(tmp_path), str(tmp_path / "digests.json"))
    raw = dict(dataclasses.asdict(res), peak_rss_mib=1.0)
    assert res.failed > 0
    assert run.end_to_end(raw)["success_rate"] < 1.0


def test_an_operation_that_raises_lowers_success_rate(monkeypatch, tmp_path):
    import gmkit.protocol

    real, calls = gmkit.protocol.run_protocol, []

    def raises_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(gmkit.protocol, "run_protocol", raises_once)
    res = workloads.run("protocol-session", "tiny", 3, 0.0, None, str(tmp_path), str(tmp_path / "digests.json"))
    raw = dict(dataclasses.asdict(res), peak_rss_mib=1.0)
    assert any("injected" in f for f in res.failures)
    assert 0.0 < run.end_to_end(raw)["success_rate"] < 1.0


def test_traced_self_times_sum_to_the_spans(tmp_path):
    proc = _run(["perfbench/child.py", "--workload", "enroll", "--seed", "3", "--seconds", "0", "--trace", "1",
                 "--size", "tiny", "--out-root", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(raw["info"]["spans_file"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    spans = [tracing.Span(r["name"], r["start"], r["end"], r["parent"], r["trace"]) for r in records]
    selfs = tracing.self_times(spans)
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)
    assert min(selfs) >= -1e-9
    assert all(s.trace == spans[s.parent].trace for s in spans if s.parent is not None)
    for trace in raw["traces"].values():
        assert sum(trace["layer_self"].values()) == pytest.approx(trace["root_s"], rel=1e-9, abs=1e-12)
    # The untraced evaluation pass recorded no spans, and the wrappers are back in place.
    assert len(raw["repeat_s"]["traced"]) == len(raw["repeat_s"]["untraced"]) == 1
    assert {t["kind"] for t in raw["traces"].values()} >= {"train", "eval"}
    assert sum(t["kind"] == "eval" for t in raw["traces"].values()) == 1


def test_exits_nonzero_without_gmkit_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "enroll", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
