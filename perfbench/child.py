"""Runs one workload in a fresh process and prints its raw samples as JSON.

Started by ``run.py`` from the root of a checkout; imports gmkit from that
checkout's ``src`` directory and nothing else.  With ``--trace 1`` it wraps
the gmkit layer boundaries first and adds the span summary to the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--out-root", required=True)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    os.environ.pop("GMK_SEED", None)  # the CLI would let it override every seed
    import gmkit

    if not os.path.abspath(gmkit.__file__).startswith(src + os.sep):
        print(f"gmkit was imported from {gmkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    tracer = None
    unwrapped = []
    if args.trace:
        tracer = tracing.Tracer()
        unwrapped = tracing.install(tracer)

    work_dir = os.path.join(args.out_root, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = workloads.run(args.workload, args.size, args.seed, args.seconds, tracer, work_dir,
                               os.path.join(args.out_root, "digests.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = dataclasses.asdict(result)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["traces"] = tracing.summarize(tracer)
        spans_path = os.path.join(args.out_root, f"spans-{args.workload}-{args.size}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        out["info"].update(spans_file=spans_path, unwrapped=unwrapped)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
