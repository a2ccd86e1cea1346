"""Run one workload in this (fresh) process and write its result as JSON.

Started by ``run.py``; not meant to be run by hand. ``--mode setup`` stops
after the import and the warm-up cell, so the parent can time set-up in
several fresh processes.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here: imports included

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path):
    """HEAD of the checkout, read from ``.git`` without leaving it; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "src_lines": src_lines,  # information only, not a gated metric
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dims", default="paper")
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--csv", required=True, help="where the accuracy-set CSV goes")
    parser.add_argument("--result", required=True, help="JSON result path")
    parser.add_argument("--spans", help="traced runs write their spans here (JSON lines, gzip)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import rismf
    import metrics
    import workloads
    from tracer import Tracer

    workload = workloads.make(args.workload, rismf, args.dims, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(rismf)
    workload.warm_up()
    setup_s = time.perf_counter() - STARTED
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    while True:
        workload.step(tracer)
        if time.perf_counter() - start >= args.seconds and workload.prefix_done():
            break
    wall_s = time.perf_counter() - start

    write_start = time.perf_counter()
    rismf.write_results(workload.records, args.csv, "csv", spec=workload.write_spec())
    write_ms = (time.perf_counter() - write_start) * 1e3
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()

    acc = workloads.accuracy(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gates = {"records-finite": (workload.failed == 0,
                                f"{workload.failed} of {workload.cells} cells failed or non-finite")}
    gates.update(workload.gates(acc))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "dims": args.dims,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "wall_s": wall_s,
        "cells": workload.cells,
        "failed": workload.failed,
        "calls": len(workload.call_s),
        "call_ms": [t * 1e3 for t in workload.call_s],
        "accuracy_cells": len(workload.records),
        "write_ms": write_ms,
        "nmse_agg": {kind: {str(g): v for g, v in groups.items()} for kind, groups in acc.items()},
        "gates": {name: {"passed": bool(ok), "detail": detail}
                  for name, (ok, detail) in gates.items()},
        "problems": workload.problems[:20],
        "end_to_end": metrics.end_to_end(workload, wall_s, setup_s, peak_rss_mb,
                                         acc["estimator@snr"]),
        "tails": metrics.tails(workload),
        "provenance": provenance(np, scipy),
    }
    if tracer is not None:
        result["per_layer"] = metrics.per_layer(tracer, acc["estimator"])
        with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
