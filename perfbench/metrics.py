"""End-to-end and per-layer metrics computed from one child run.

The per-layer names, the module that owns each and the end-to-end metric
it should move are listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from tracer import self_times

END_TO_END = ("cells_per_s", "call_ms.p50", "call_ms.p75", "setup_s", "peak_rss_mb",
              "nmse_agg.geomean")
# Printed and stored, not gated: across seeds these tails of am-loop spread
# wider than the largest bound BENCHMARK.json allows (p90: 30 % IQR over five
# seeds), because the number of slow -5 and 0 dB cells in a run varies.
TAILS = (90, 95)

SELF_MS = {
    "mf": ("maximize_over_manifold", "init_psi", "am_iterate", "ls_a_bar", "gd_iterate",
           "objective", "estimate_single_user"),
    "channel": ("sample_channel",),
    "signals": ("make_pilot_schedule", "downlink_observe", "uplink_observe", "despread"),
    "multiuser": ("estimate_psi_uplink", "estimate_a_q", "estimate_multi_user"),
    "baselines": ("ls_full", "lr_rankone"),
    "experiments": ("nmse", "spectral_efficiency"),
}
CALLS = ("mf.am_iterate", "mf.ls_a_bar", "mf.gd_iterate", "mf.objective")
ESTIMATORS = ("MF_AM", "MF_GD", "LR", "LS", "MF")

PER_LAYER = (
    [f"{module}.{fn}.self_ms_per_cell" for module, fns in SELF_MS.items() for fn in fns]
    + [f"{name}.calls_per_cell" for name in CALLS]
    + ["mf.am.nonconverged_share", "mf.gd.nonconverged_share", "mf.gd.capped_share",
       "channel.steering_matrix.angles_per_cell",
       "baselines.ls_full.gflop_computed_per_cell", "baselines.ls_full.gflops_achieved",
       "baselines.ls_full.mb_computed_per_cell", "baselines.lr_rankone.nonconverged_share",
       "experiments.run_sweep.busy_share", "experiments.write_results.self_ms",
       "trace.overhead_share", "trace.covered_share"]
    + [f"nmse_agg.{name}" for name in ESTIMATORS]
)


def percentile_ms(samples_s, q: float) -> float:
    if not samples_s:  # every call failed; the metrics-finite gate reports it
        return math.nan
    return float(np.percentile(np.asarray(samples_s) * 1e3, q))


def geomean(values) -> float:
    values = [v for v in values if v > 0.0]
    if not values:
        return math.nan
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def end_to_end(workload, wall_s: float, setup_s: float, peak_rss_mb: float,
               groups: dict) -> dict:
    return {
        "cells_per_s": workload.cells / wall_s,
        "call_ms.p50": percentile_ms(workload.call_s, 50),
        "call_ms.p75": percentile_ms(workload.call_s, 75),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "nmse_agg.geomean": geomean(groups.values()),
    }


def tails(workload) -> dict:
    """Informational call latency tails, with the samples beyond each."""
    n = len(workload.call_s)
    return {f"call_ms.p{q}": {"value": percentile_ms(workload.call_s, q),
                              "beyond": int(n * (100 - q) / 100), "calls": n} for q in TAILS}


def ls_flop_and_bytes(k: int, n_bs: int, m_ris: int) -> tuple[float, float]:
    """Computed from shapes, not measured: real flops and array bytes of one ``ls_full``.

    Flops: complex Gram ``D^H D`` (8 k n^2), right-hand side (8 k n), design
    build (6 k n), complex Cholesky (4/3 n^3) and two triangular solves
    (8 n^2), with n = m_ris n_bs unknowns. Bytes: the design and its
    conjugate copy, the Gram and the vectors, 16 bytes per complex entry,
    each counted once; cache traffic is ignored.
    """
    n = n_bs * m_ris
    flop = 8.0 * k * n * n + 14.0 * k * n + (4.0 / 3.0) * n ** 3 + 8.0 * n * n
    nbytes = 16.0 * (2 * k * n + n * n + k + 2 * n)
    return flop, nbytes


def per_layer(tracer, agg: dict) -> dict:
    """Per-layer metrics from the spans of one traced run (warm-up excluded)."""
    spans = [s for s in tracer.spans if s.end is not None]
    own = self_times(spans)
    cells = [s for s in spans if s.name == "cell"]
    n_cells = max(len(cells), 1)
    self_s, calls = defaultdict(float), defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.span_id]
        calls[span.name] += 1

    out = {}
    for module, fns in SELF_MS.items():
        for fn in fns:
            out[f"{module}.{fn}.self_ms_per_cell"] = self_s[f"{module}.{fn}"] * 1e3 / n_cells
    for name in CALLS:
        out[f"{name}.calls_per_cell"] = calls[name] / n_cells

    def share(selected, flag):
        return sum(1 for info in selected if flag(info)) / len(selected) if selected else 0.0

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info is not None]

    estimates = infos("mf.estimate_single_user")
    am = [i for i in estimates if i["solver"] == "am"]
    gd = [i for i in estimates if i["solver"] == "gd"]
    out["mf.am.nonconverged_share"] = share(am, lambda i: not i["converged"])
    out["mf.gd.nonconverged_share"] = share(gd, lambda i: not i["converged"])
    out["mf.gd.capped_share"] = share(gd, lambda i: i["iters_used"] == i["max_iters"])
    out["channel.steering_matrix.angles_per_cell"] = (
        tracer.counts["channel.steering_matrix.angles"] / n_cells)

    ls = [s for s in spans if s.name == "baselines.ls_full" and s.info is not None]
    flop = nbytes = busy = 0.0
    for span in ls:
        f, b = ls_flop_and_bytes(span.info["k"], span.info["n_bs"], span.info["m_ris"])
        flop, nbytes, busy = flop + f, nbytes + b, busy + (span.end - span.start)
    out["baselines.ls_full.gflop_computed_per_cell"] = flop / 1e9 / n_cells
    out["baselines.ls_full.gflops_achieved"] = flop / 1e9 / busy if busy > 0.0 else 0.0
    out["baselines.ls_full.mb_computed_per_cell"] = nbytes / 1e6 / n_cells
    lr = infos("baselines.lr_rankone")
    out["baselines.lr_rankone.nonconverged_share"] = share(lr, lambda i: not i["converged"])

    cell_time = sum(s.end - s.start for s in cells)
    sweeps = [s for s in spans if s.name == "experiments.run_sweep"]
    capacity = sum((s.end - s.start) * s.info["n_threads"] for s in sweeps)
    out["experiments.run_sweep.busy_share"] = cell_time / capacity if capacity > 0.0 else 0.0
    out["experiments.write_results.self_ms"] = self_s["experiments.write_results"] * 1e3

    listed = {f"{module}.{fn}" for module, fns in SELF_MS.items() for fn in fns}
    covered = sum(own[s.span_id] for s in spans if s.name in listed and s.cell is not None)
    out["trace.covered_share"] = covered / cell_time if cell_time > 0.0 else 0.0
    for name in ESTIMATORS:
        out[f"nmse_agg.{name}"] = agg.get(name, 0.0)
    return out
