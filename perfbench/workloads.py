"""The benchmark's workloads, run inside a fresh child process.

Every workload drives rismf through its public functions only. Inputs come
from the workload seed: cell seeds are mixed with ``rismf.trial_seed`` and
sweep rounds get their own master seed the same way. The first
``prefix`` cells (am-loop) or rounds (sweeps) form the accuracy set: they
always run, so NMSE, gates and the CSV depend on the seed alone, while
throughput is measured over every cell the run completes.

Accuracy is reported as error energy over the calibrated mean channel
energy: ``sample_channel`` scales the BS-RIS gain so that every cascaded
channel has mean energy ``n_bs`` (see its docstring), and dividing by that
constant instead of the drawn channel's energy keeps the deep-fade draws of
a 30-second run from swinging the aggregate between seeds.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

DIMS = {
    "paper": dict(n_bs=32, m_ris=50, k=400, k_ls=1700, q_users=5, t_symbols=5,
                  k_grid=[50, 100, 200, 400]),
    "toy": dict(n_bs=4, m_ris=6, k=16, k_ls=30, q_users=2, t_symbols=2,
                k_grid=[8, 16, 32, 64]),
}

SNR_GRID_DB = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]  # the se-ordering grid
SWEEP_SNR_DB = 10.0


def _finite(value) -> bool:
    return value is None or math.isfinite(value)


def _downlink_energy(rf, d, record) -> float:
    """Energy of the cascaded channel a downlink cell drew from its seed.

    The channel is the first draw from the cell's generator, as in the
    sweep's cells and in the am-loop.
    """
    rng = np.random.default_rng(record.seed)
    dims = rf.SystemDims(n_bs=d["n_bs"], m_ris=d["m_ris"], k_pilots=record.k)
    chan = rf.sample_channel(dims, rng)
    return float(np.sum(np.abs(rf.cascaded_downlink(chan.h_r, chan.g_matrix).h_e) ** 2))


class _Workload:
    """Shared bookkeeping: call latencies, cell counts and the accuracy set."""

    users = 1  # user channels scored per cell
    prefix = 0  # cells (am-loop) or rounds (sweeps) in the accuracy set

    def __init__(self, rismf, dims: dict, seed: int):
        self.rismf = rismf
        self.dims = dims
        self.seed = int(seed)
        self.call_s: list[float] = []
        self.cells = 0
        self.failed = 0
        self.steps = 0
        self.records = []  # ResultRecords of the accuracy set
        self.problems: list[str] = []

    def prefix_done(self) -> bool:
        return self.steps >= self.prefix

    def _mix(self, tag: str, index: int) -> int:
        return self.rismf.trial_seed(self.seed, f"{self.name}:{tag}", 0, 0, index)


class AmLoop(_Workload):
    """Closed loop, one caller: synthesize a coherence block, estimate it, score it."""

    name = "am-loop"
    n_threads = 1
    prefix = 10 * len(SNR_GRID_DB)

    def __init__(self, rismf, dims, seed):
        super().__init__(rismf, dims, seed)
        self.histories_ok = True
        self.config = rismf.MfConfig(solver="am")

    def warm_up(self):
        self._cell(-1, record=False)

    def step(self, tracer=None):
        index = self.steps
        with tracer.span("cell", new_cell=True) if tracer else contextlib.nullcontext():
            ok = self._cell(index, record=index < self.prefix)
        self.cells += 1
        self.failed += not ok
        self.steps += 1

    def _cell(self, index: int, record: bool) -> bool:
        rf, d = self.rismf, self.dims
        snr_index = index % len(SNR_GRID_DB)
        snr_db = SNR_GRID_DB[snr_index]
        seed = self._mix("cell", index)
        try:
            rng = np.random.default_rng(seed)
            dims = rf.SystemDims(n_bs=d["n_bs"], m_ris=d["m_ris"], k_pilots=d["k"])
            chan = rf.sample_channel(dims, rng)
            sched = rf.make_pilot_schedule(dims, rng)
            cascade = rf.cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
            noise_var = 10.0 ** (-snr_db / 10.0)
            obs = rf.downlink_observe(cascade, sched, noise_var, rng)

            start = time.perf_counter()
            result = rf.estimate_single_user(obs, sched, self.config)
            self.call_s.append(time.perf_counter() - start)

            nmse = rf.nmse(cascade.h_e, result.h_e_hat)
            se = rf.spectral_efficiency(cascade.h_e, result.h_e_hat, noise_var)
        except Exception as err:  # a failed cell is counted, not fatal
            self.problems.append(f"cell {index}: {type(err).__name__}: {err}")
            return False
        if not (_finite(nmse) and _finite(se) and np.all(np.isfinite(result.h_e_hat))):
            self.problems.append(f"cell {index}: non-finite result")
            return False
        history = np.asarray(result.objective_history)
        if np.any(history[1:] - history[:-1] * (1.0 + 1e-9) > 0.0):
            self.histories_ok = False
            self.problems.append(f"cell {index}: objective history increased")
        if record:
            self.records.append(rf.ResultRecord(
                "single_user_downlink", "MF_AM", snr_db, d["k"], index, seed, nmse, se))
        return True

    def write_spec(self):
        return None

    def reference_energy(self, record) -> float:
        return _downlink_energy(self.rismf, self.dims, record)

    def gates(self, acc) -> dict:
        detail = (f"{self.cells - self.failed} histories non-increasing (1e-9 slack)"
                  if self.histories_ok else "an objective history increased")
        return {"objective-monotone": (self.histories_ok, detail)}


class _Sweep(_Workload):
    """Rounds of ``run_sweep`` calls; each call is one timed public call."""

    def specs(self, round_index: int) -> list:
        raise NotImplementedError

    def warm_up(self):
        spec = self.specs(-1)[0]
        small = self.rismf.ExperimentSpec.from_dict(
            {**spec.to_dict(), "estimators": spec.estimators[:1], "k_grid": spec.k_grid[-1:],
             "n_trials": 1})
        self.rismf.run_sweep(small, n_threads=self.n_threads)

    def step(self, tracer=None):
        record = self.steps < self.prefix
        for spec in self.specs(self.steps):
            estimators = 1 if spec.scenario == "multi_user_uplink" else len(spec.estimators)
            n_cells = estimators * len(spec.snr_grid_db) * len(spec.k_grid) * spec.n_trials
            start = time.perf_counter()
            try:
                records = self.rismf.run_sweep(spec, n_threads=self.n_threads)
            except Exception as err:  # a raising sweep fails all of its cells
                self.problems.append(f"round {self.steps}: {type(err).__name__}: {err}")
                self.failed += n_cells
                self.cells += n_cells
                continue
            self.call_s.append(time.perf_counter() - start)
            self.cells += len(records)
            for r in records:
                if r.nmse is None or not (_finite(r.nmse) and _finite(r.se)):
                    self.failed += 1
                    self.problems.append(f"{r.estimator} k={r.k} trial={r.trial}: "
                                         f"non-finite or infeasible record")
            if record:
                self.records.extend(records)
        self.steps += 1

    def write_spec(self):
        return self.specs(0)[0]


class SuSweep(_Sweep):
    """Single-user downlink sweep on the thread pool: MF_AM, MF_GD, LR and LS."""

    name = "su-sweep-t2"
    n_threads = 2
    prefix = 8  # 32 MF_AM and LR trials: MF_AM <= LR holds by a wide margin

    def specs(self, round_index):
        rf, d = self.rismf, self.dims
        master = self._mix("round", round_index)
        base = dict(scenario="single_user_downlink",
                    dims=rf.SystemDims(n_bs=d["n_bs"], m_ris=d["m_ris"]),
                    snr_grid_db=[SWEEP_SNR_DB], master_seed=master)
        # One GD trial per round: a GD cell takes 20 ms to 1.5 s depending
        # on whether it hits the iteration cap, so more of them would make
        # throughput swing between seeds.
        return [
            rf.ExperimentSpec(k_grid=[d["k"]], estimators=("MF_AM", "LR"), n_trials=4, **base),
            rf.ExperimentSpec(k_grid=[d["k_ls"]], estimators=("LS",), n_trials=2, **base),
            rf.ExperimentSpec(k_grid=[d["k"]], estimators=("MF_GD",), n_trials=1, **base),
        ]

    def reference_energy(self, record) -> float:
        return _downlink_energy(self.rismf, self.dims, record)

    def gates(self, acc) -> dict:
        agg = acc["estimator"]
        am, lr, ls = agg.get("MF_AM"), agg.get("LR"), agg.get("LS")
        passed = None not in (am, lr, ls) and am <= lr and am <= ls
        return {"mf-am-most-accurate": (
            passed, f"nmse_agg MF_AM {am} <= LR {lr} and <= LS {ls}")}


class UplinkSweep(_Sweep):
    """Multi-user uplink sweep over the pilot-scaling K grid, one thread."""

    name = "uplink-sweep"
    n_threads = 1
    prefix = 100

    def __init__(self, rismf, dims, seed):
        super().__init__(rismf, dims, seed)
        self.users = dims["q_users"]

    def specs(self, round_index):
        rf, d = self.rismf, self.dims
        return [rf.ExperimentSpec(
            scenario="multi_user_uplink",
            dims=rf.SystemDims(n_bs=d["n_bs"], m_ris=d["m_ris"], q_users=d["q_users"],
                               t_symbols=d["t_symbols"]),
            snr_grid_db=[SWEEP_SNR_DB], k_grid=list(d["k_grid"]), estimators=(), n_trials=1,
            master_seed=self._mix("round", round_index))]

    def reference_energy(self, record) -> float:
        """Total reference energy of the cell's users.

        Records carry the users' mean NMSE only, so a cell's error energy is
        taken as that mean times this total.
        """
        rf, d = self.rismf, self.dims
        rng = np.random.default_rng(record.seed)
        dims = rf.SystemDims(n_bs=d["n_bs"], m_ris=d["m_ris"], k_pilots=record.k,
                             q_users=d["q_users"], t_symbols=d["t_symbols"])
        chan = rf.sample_channel(dims, rng)
        g_up = chan.g_uplink()
        return float(sum(np.sum(np.abs(rf.cascaded_uplink(g_up, h_q).h_e) ** 2)
                         for h_q in chan.h_users))

    def gates(self, acc) -> dict:
        by_k = acc["k"]
        ks = sorted(by_k)
        values = [by_k[k] for k in ks]
        passed = len(values) > 1 and all(b < a for a, b in zip(values, values[1:]))
        return {"mf-decreasing-in-k": (passed, "nmse_agg.MF by K " + ", ".join(
            f"{k}:{v:.4e}" for k, v in zip(ks, values)))}


WORKLOADS = {cls.name: cls for cls in (AmLoop, SuSweep, UplinkSweep)}


def accuracy(workload) -> dict[str, dict]:
    """Aggregate NMSE over the accuracy set, grouped three ways.

    Error energy is summed and divided by the calibrated mean reference
    energy, ``n_bs`` per user channel. Groups: ``estimator``, ``k`` and
    ``estimator@snr`` (the groups ``nmse_agg.geomean`` averages, so that
    the -10 dB cells of am-loop do not outweigh every other SNR).
    """
    keys = {"estimator": lambda r: r.estimator, "k": lambda r: r.k,
            "estimator@snr": lambda r: f"{r.estimator}@{r.snr_db:g}"}
    err = {kind: {} for kind in keys}
    count = {kind: {} for kind in keys}
    for record in workload.records:
        e = record.nmse * workload.reference_energy(record)
        for kind, key in keys.items():
            group = key(record)
            err[kind][group] = err[kind].get(group, 0.0) + e
            count[kind][group] = count[kind].get(group, 0) + workload.users
    n_bs = workload.dims["n_bs"]
    return {kind: {group: err[kind][group] / (count[kind][group] * n_bs) for group in err[kind]}
            for kind in keys}


def make(name: str, rismf, dims_kind: str, seed: int):
    return WORKLOADS[name](rismf, DIMS[dims_kind], seed)

