"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-trees --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (and writes its spans under perfbench/out/).
Lines starting with '#' are information; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _versions() -> str:
    found = []
    for dist in ("numpy", "scipy", "networkx"):
        try:
            found.append(f"{dist}={version(dist)}")
        except PackageNotFoundError:
            found.append(f"{dist}=missing")
    return " ".join(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hitset" / "__init__.py").is_file():
        print(f"error: hitset sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cases, setup_s = harness.setup(workload, args.seed)
    tracer = Tracer() if args.trace else None
    records, passes = harness.run_corpus(workload, cases, args.seconds, tracer)
    rss = harness.peak_rss_mib()
    harness.check_records(workload, records)

    info = [
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"why: {next(w['why'] for w in harness.benchmark()['workloads'] if w['name'] == workload.name)}",
        f"machine nproc={os.cpu_count()} python={platform.python_version()} {_versions()}",
        f"corpus {len(cases)} instances, {passes} full passes, metrics from the first {workload.passes}",
        f"set-up: fresh interpreter importing hitset and building the corpus, median of {harness.SETUP_REPEATS}",
    ]
    if tracer:
        metrics, extra = harness.per_layer(records, workload.passes, tracer)
        extra.append(f"spans written to {harness.write_spans(tracer, workload.name, args.seed)}")
    else:
        metrics, extra = harness.end_to_end(records, workload.passes, setup_s, rss)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    info += extra
    info.append(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    info.append(f"fingerprint sha256 {harness.fingerprint(records)}")
    for rec in records:
        for problem in rec.problems + sorted(set(rec.errors)):
            info.append(f"FAILED {rec.case.id}: {problem}")
    for line in info:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
