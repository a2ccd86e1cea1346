"""Compare two result sets of the rismf benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

A result set is a directory of ``result.json`` files written by ``run.py``
(searched recursively), for example ten seeds per workload. For every
workload and every metric named in BENCHMARK.json the report gives both
sides' median and quartiles, the share of pairs the change won (pairs match
by seed when both sides ran the same seeds, otherwise by run order; ties
count for neither) and a verdict:

* ``improved``: the change won at least 90 % of pairs and the medians
  differ by more than the base's quartile distance;
* ``no worse``: the change's median is not worse than the base's by more
  than the metric's bound;
* ``worse``: it is, and the base's spread is within the bound;
* ``unresolved``: the base's spread is wider than the bound (unless every
  change run beats every base run), or the metric has no bound.

Comparing runs made on different machines or BLAS settings is refused
(exit 2): the provenance environment of every run must match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("nproc", "python", "numpy", "scipy", "blas", "blas_thread_env")


def load(directory: Path) -> list[dict]:
    results = [json.loads(p.read_text()) for p in sorted(directory.rglob("result.json"))]
    if not results:
        raise SystemExit(f"error: no result.json under {directory}")
    return results


def environment(result: dict) -> str:
    env = {key: result["provenance"].get(key) for key in ENVIRONMENT}
    env["dims"] = result["dims"]
    return json.dumps(env, sort_keys=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[tuple[int, float]], change: list[tuple[int, float]]):
    base_by_seed, change_by_seed = dict(base), dict(change)
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if common:
        return [(base_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base: list[float], change: list[float], matched, better: str, bound) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in matched if sign * (b - a) > 0)
    won = wins / len(matched) if matched else 0.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    if won >= 0.9 and sign * (c_med - b_med) > 0 and abs(c_med - b_med) > b_q3 - b_q1:
        return won, "improved"
    if bound is None or b_med == 0:
        return won, "unresolved"
    worse_by = -sign * (c_med - b_med) / abs(b_med)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (b_q3 - b_q1) / abs(b_med) > bound and not all_better:
        return won, "unresolved"
    return won, "no worse" if worse_by <= bound else "worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    base, change = load(args.base), load(args.change)
    environments = {environment(r) for r in base + change}
    if len(environments) > 1:
        print("refusing to compare: the runs' environments differ:", file=sys.stderr)
        for env in sorted(environments):
            print(f"  {env}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    print(f"{'workload':13s} {'metric':52s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, trace in metrics:
            def series(results):
                return [(r["seed"], r["metrics"][metric["name"]]["value"]) for r in results
                        if r["workload"] == workload and r["trace"] == trace
                        and metric["name"] in r["metrics"]]
            a, b = series(base), series(change)
            if not a or not b:
                continue
            a_vals, b_vals = [v for _, v in a], [v for _, v in b]
            won, word = verdict(a_vals, b_vals, pairs(a, b), metric["better"],
                                metric.get("bound"))
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{workload:13s} {metric['name'] + ' (' + metric['unit'] + ')':52s} "
                  f"{fmt.format(*quartiles(a_vals)):>34s} {fmt.format(*quartiles(b_vals)):>34s} "
                  f"{won:5.2f}  {word} (n={len(a_vals)}/{len(b_vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
