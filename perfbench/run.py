"""rismf benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload am-loop --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``am-loop``: one caller estimates one coherence block at a time with
  ``estimate_single_user`` (AM) over the se-ordering SNR grid.
* ``su-sweep-t2``: ``run_sweep`` on two threads, MF_AM/MF_GD/LR at K=400
  and LS at K=1700, 10 dB.
* ``uplink-sweep``: ``run_sweep`` on one thread for the multi-user uplink,
  Q=5, T=5, K in {50, 100, 200, 400}, 10 dB.

Each measurement runs in a fresh child process against ``src/rismf`` of
this checkout. With ``--trace 0`` the run times set-up in several fresh
processes, measures for ``--seconds`` untraced and prints the end-to-end
metrics. With ``--trace 1`` it measures an untraced and a traced child of
the same seed, checks that both wrote byte-identical CSVs and prints the
per-layer metrics. Every metric is also printed by name with its unit, and
the full result, provenance included, is written under ``--out``. The last
stdout line is the JSON summary; a failed correctness gate exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import DIMS, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 3  # set-up is the median over this many fresh processes
CHILD_GRACE_S = 60.0  # a child may overrun --seconds by this much before it is killed


def run_child(tag: str, run_dir: Path, args, mode: str, trace: int) -> dict:
    result_path = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--dims", args.dims,
           "--mode", mode, "--trace", str(trace), "--csv", str(run_dir / f"{tag}.csv"),
           "--result", str(result_path), "--spans", str(run_dir / f"{tag}.spans.jsonl.gz")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dims", choices=sorted(DIMS), default="paper",
                        help="problem size; 'toy' is for the smoke test")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result files (one result set)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rismf" / "__init__.py").is_file():
        print(f"error: no rismf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_units()
    out = Path(args.out)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = out / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace == 0:
            probes = [run_child(f"setup{i}", run_dir, args, "setup", 0)
                      for i in range(SETUP_PROCESSES - 1)]
            main_run = run_child("untraced", run_dir, args, "measure", 0)
            setups = [p["setup_s"] for p in probes] + [main_run["end_to_end"]["setup_s"]]
            main_run["end_to_end"]["setup_s"] = statistics.median(setups)
            main_run["setup_s_samples"] = setups
            runs = {"untraced": main_run}
            metrics = main_run["end_to_end"]
            names = END_TO_END
        else:
            plain = run_child("untraced", run_dir, args, "measure", 0)
            traced = run_child("traced", run_dir, args, "measure", 1)
            identical = (run_dir / "untraced.csv").read_bytes() == \
                (run_dir / "traced.csv").read_bytes()
            traced["gates"]["csv-identical-traced"] = {
                "passed": identical,
                "detail": "traced and untraced runs wrote byte-identical CSVs" if identical
                else "traced and untraced CSVs differ"}
            traced["per_layer"]["trace.overhead_share"] = (
                traced["end_to_end"]["cells_per_s"] / plain["end_to_end"]["cells_per_s"])
            runs = {"untraced": plain, "traced": traced}
            metrics = traced["per_layer"]
            names = PER_LAYER
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    gates = {}
    for kind, run in runs.items():
        for name, gate in run["gates"].items():
            gates[f"{kind}.{name}"] = gate
    bad = [name for name in names if not math.isfinite(metrics[name])]
    gates["metrics-finite"] = {"passed": not bad, "detail": f"non-finite: {bad}" if bad
                               else "every metric is a finite number"}
    for name in bad:
        metrics[name] = None
    correct = all(g["passed"] for g in gates.values())
    last = runs["traced" if args.trace else "untraced"]
    attempted = sum(r["cells"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())

    summary = {
        "benchmark": "rismf", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "dims": args.dims,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
        "gates": gates, "provenance": last["provenance"], "runs": runs,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))

    for name, gate in gates.items():
        print(f"gate {name}: {'PASS' if gate['passed'] else 'FAIL'} ({gate['detail']})")
    for run in runs.values():
        for problem in run["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    print(f"failed_share {summary['failed_share']} ({failed} of {attempted} cells)")
    for name in names:
        print(f"{name} {metrics[name]!r} {units[name]}")
    for name, tail in runs["untraced"]["tails"].items():
        print(f"{name} {tail['value']!r} ms (not gated; {tail['beyond']} of "
              f"{tail['calls']} calls beyond it)")
    print(f"result {run_dir / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
