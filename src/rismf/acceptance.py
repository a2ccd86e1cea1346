"""Acceptance property suite.

Each criterion is a standalone check returning (passed, detail), registered
in :data:`CRITERIA` with, for a check that cannot pass, the reason why. The
CLI ``verify`` subcommand and the pytest acceptance tests both run this
registry and print each :class:`CriterionResult`'s line and status, so there
is a single source of truth for what the package promises.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .baselines import ls_full
from .channel import SystemDims, array_response, cascaded_downlink, sample_channel
from .experiments import (
    ESTIMATORS,
    ExperimentSpec,
    _SNR_GRID_DB,
    _noise_var,
    _rate,
    aggregate_nmse,
    nmse,
    run_sweep,
    simulate_downlink,
    simulate_uplink,
    spectral_efficiency,
    trial_seed,
    write_results,
)
from .mf import MfConfig, _gd_terms, estimate_single_user, objective
from .multiuser import estimate_a_q, predicted_mse
from .signals import (
    UplinkSchedule,
    despread,
    dft_phase_schedule,
    downlink_observe,
    make_pilot_schedule,
    orthogonal_user_pilots,
    random_phase_schedule,
)

__all__ = ["Criterion", "CriterionResult", "CRITERIA", "select_criteria"]

_MASTER = 20260816


def _rng(tag: str, trial: int) -> np.random.Generator:
    return np.random.default_rng(trial_seed(_MASTER, tag, 0, 0, trial))


def _angle_injected_mse(dims, noise_var, tag, k_index, n_trials):
    """Mean per-user ``||a_bar_hat - a_bar||^2`` of the uplink stage 2 on a
    DFT schedule, given the true angle; cell seeds are
    ``trial_seed(_MASTER, tag, 0, k_index, trial)``."""
    total, count = 0.0, 0
    for trial in range(n_trials):
        rng = np.random.default_rng(trial_seed(_MASTER, tag, 0, k_index, trial))
        cascades, sched, obs = simulate_uplink(dims, noise_var, rng)
        a_bar_hats = estimate_a_q(despread(obs, sched), sched, cascades[0].psi)
        for cascade, a_bar_hat in zip(cascades, a_bar_hats):
            total += float(np.sum(np.abs(a_bar_hat - cascade.a_bar) ** 2))
            count += 1
    return total / count


def _sweep_10db(scenario, dims, k_grid, estimator):
    """200 sweep cells per K of one estimator at 10 dB, seeded from ``_MASTER``."""
    return run_sweep(ExperimentSpec(scenario=scenario, dims=dims, snr_grid_db=[10.0], k_grid=k_grid,
                                    estimators=(estimator,), n_trials=200, master_seed=_MASTER))


def _criterion_predicted_mse_empirical():
    """Empirical stage-2 MSE under the DFT design matches noise_var*M/(K*T)."""
    dims = SystemDims(n_bs=8, m_ris=16, k_pilots=32, q_users=1, t_symbols=4)
    noise_var = 1.0
    target = noise_var * dims.m_ris / (dims.k_pilots * dims.t_symbols)
    empirical = _angle_injected_mse(dims, noise_var, "predicted-mse", 0, 2000)
    passed = abs(empirical / target - 1.0) <= 0.05
    return passed, f"empirical MSE {empirical:.5f} vs predicted {target:.5f} (tol 5%)"


def _criterion_dft_mse_optimality():
    """Every unit-modulus schedule sits above the MSE floor; DFT attains it."""
    m_ris, k, t_symbols, noise_var = 8, 16, 4, 1.0
    floor = noise_var * m_ris / (k * t_symbols)
    pilots = orthogonal_user_pilots(1, t_symbols)
    rng = _rng("mse-floor", 0)
    worst_gap = np.inf
    for _ in range(100):
        schedule = UplinkSchedule(random_phase_schedule(m_ris, k, rng), pilots)
        value = predicted_mse(noise_var, schedule)
        worst_gap = min(worst_gap, value - floor)
        if value < floor - 1e-12:
            return False, f"random schedule beat the floor: {value:.6e} < {floor:.6e}"
    dft_value = predicted_mse(noise_var, UplinkSchedule(dft_phase_schedule(m_ris, k), pilots))
    passed = abs(dft_value - floor) <= 1e-9
    return passed, (
        f"floor {floor:.6f}, worst random gap +{worst_gap:.3e}, "
        f"DFT gap {abs(dft_value - floor):.2e} (tol 1e-9)"
    )


def _criterion_noiseless_exactness():
    """MF-AM at N=16, M=32, K=32, sigma^2=0: NMSE <= 1e-8 within 20 iterations.

    As specified this requires exact recovery from K = m_ris noiseless pilots.
    At that pilot count the data does not identify the angle (the K x M LS
    system is square and generically invertible at every angle, so a
    continuum of exact fits exists); the check is implemented as stated and
    reports the achieved rate.
    """
    dims = SystemDims(n_bs=16, m_ris=32, k_pilots=32)
    config = MfConfig(solver="am", max_iters=20)
    successes = 0
    values = []
    for trial in range(100):
        rng = _rng("noiseless-exact", trial)
        cascade, sched, obs = simulate_downlink(dims, 0.0, rng)
        result = estimate_single_user(obs, sched, config)
        value = nmse(cascade.h_e, result.h_e_hat)
        values.append(value)
        successes += value <= 1e-8
    passed = successes >= 95
    return passed, (
        f"{successes}/100 trials reached NMSE <= 1e-8 within 20 iterations "
        f"(median NMSE {np.median(values):.3e}; need >= 95)"
    )


def _criterion_feasibility_boundary():
    """MF errors below K=M and runs at K=M; LS errors below K=MN, exact at K=MN."""
    dims = SystemDims(n_bs=4, m_ris=6)
    rng = _rng("boundary", 0)
    chan = sample_channel(dataclasses.replace(dims, k_pilots=1), rng)
    cascade = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)

    def observe(k):
        sched = make_pilot_schedule(dataclasses.replace(dims, k_pilots=k), rng)
        return downlink_observe(cascade, sched, 0.0), sched

    checks = []

    obs, sched = observe(dims.m_ris - 1)
    try:
        estimate_single_user(obs, sched)
        checks.append(("MF K=M-1 errors", False))
    except ValueError:
        checks.append(("MF K=M-1 errors", True))

    obs, sched = observe(dims.m_ris)
    result = estimate_single_user(obs, sched)
    history = np.asarray(result.objective_history)
    ok = np.isfinite(result.objective_final) and np.all(history[1:] <= history[:-1] + 1e-9)
    checks.append(("MF K=M runs", bool(ok)))

    full = dims.m_ris * dims.n_bs
    obs, sched = observe(full - 1)
    try:
        ls_full(obs, sched)
        checks.append(("LS K=MN-1 errors", False))
    except ValueError:
        checks.append(("LS K=MN-1 errors", True))

    obs, sched = observe(full)
    value = nmse(cascade.h_e, ls_full(obs, sched))
    checks.append(("LS K=MN exact (NMSE <= 1e-12)", value <= 1e-12))

    passed = all(ok for _, ok in checks)
    return passed, "; ".join(f"{label}: {'ok' if ok else 'FAIL'}" for label, ok in checks)


def _criterion_gradients():
    """Analytic gradients match central finite differences at 100 random points."""
    dims = SystemDims(n_bs=16, m_ris=32, k_pilots=48)
    step = 1e-6
    worst = 0.0
    for trial in range(100):
        rng = _rng("gradients", trial)
        _, sched, obs = simulate_downlink(dims, 0.1, rng)
        a_bar = (rng.standard_normal(dims.m_ris) + 1j * rng.standard_normal(dims.m_ris)) / np.sqrt(2)
        psi = rng.uniform()
        grad_a, grad_psi, _, _ = _gd_terms(a_bar, psi, obs, sched)

        def rel(numeric, analytic):
            return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)

        for idx in range(dims.m_ris):
            bump = np.zeros(dims.m_ris)
            bump[idx] = step
            numeric = (objective(a_bar + bump, psi, obs, sched)
                       - objective(a_bar - bump, psi, obs, sched)) / (2 * step)
            worst = max(worst, rel(numeric, grad_a.real[idx]))
            numeric = (objective(a_bar + 1j * bump, psi, obs, sched)
                       - objective(a_bar - 1j * bump, psi, obs, sched)) / (2 * step)
            worst = max(worst, rel(numeric, grad_a.imag[idx]))
        numeric = (objective(a_bar, psi + step, obs, sched)
                   - objective(a_bar, psi - step, obs, sched)) / (2 * step)
        worst = max(worst, rel(numeric, grad_psi))
        if worst > 1e-5:
            return False, f"trial {trial}: relative error {worst:.2e} > 1e-5"
    return True, f"worst relative error {worst:.2e} over 100 points (tol 1e-5)"


def _criterion_am_monotone():
    """Objective history never increases (1e-9 slack) on 100 noisy runs at 0 dB."""
    dims = SystemDims(n_bs=16, m_ris=32, k_pilots=64)
    worst = 0.0
    for trial in range(100):
        _, sched, obs = simulate_downlink(dims, 1.0, _rng("monotone", trial))
        result = estimate_single_user(obs, sched, MfConfig(solver="am"))
        history = np.asarray(result.objective_history)
        increases = history[1:] - history[:-1] * (1.0 + 1e-9)
        worst = max(worst, float(increases.max(initial=-np.inf)))
        if np.any(increases > 0.0):
            return False, f"trial {trial}: objective increased by {increases.max():.3e}"
    return True, f"100/100 monotone histories (worst slack margin {worst:.3e})"


def _criterion_estimator_ordering():
    """Aggregate NMSE at 10 dB: MF-AM (K=400) below LR (K=400) and LS (K=1700).

    Each estimator's 200 trials are the cells of a one-estimator sweep, read
    through :func:`aggregate_nmse`.
    """
    dims = SystemDims(n_bs=32, m_ris=50)
    agg = {
        name: aggregate_nmse(_sweep_10db("single_user_downlink", dims, [k], name))
        for name, k in (("MF_AM", 400), ("LR", 400), ("LS", 1700))
    }
    passed = agg["MF_AM"] <= agg["LR"] and agg["MF_AM"] <= agg["LS"]
    return passed, (
        f"aggregate NMSE: MF_AM {agg['MF_AM']:.4e} (K=400), LR {agg['LR']:.4e} "
        f"(K=400), LS {agg['LS']:.4e} (K=1700)"
    )


def _criterion_se_ordering():
    """SE ordering random <= estimated <= optimal per SNR point; high-SNR ratio."""
    dims = SystemDims(n_bs=32, m_ris=50, k_pilots=400)
    n_trials = 200
    lines = []
    passed = True
    for snr_index, snr_db in enumerate(_SNR_GRID_DB):
        noise_var = _noise_var(snr_db)
        se = {"random": 0.0, "estimated": 0.0, "optimal": 0.0}
        for trial in range(n_trials):
            rng = np.random.default_rng(trial_seed(_MASTER, "se-sweep", snr_index, 0, trial))
            cascade, sched, obs = simulate_downlink(dims, noise_var, rng)
            h_hat = ESTIMATORS["MF_AM"].estimate(obs, sched)
            se["estimated"] += spectral_efficiency(cascade.h_e, h_hat, noise_var)
            se["optimal"] += spectral_efficiency(cascade.h_e, cascade.h_e, noise_var)
            # the baseline design: uniform RIS phases, a steering beam at a uniform angle
            theta = random_phase_schedule(dims.m_ris, 1, rng)[0]
            x = array_response(dims.n_bs, rng.uniform())
            se["random"] += _rate(cascade.h_e, theta, x, noise_var)
        mean = {k: v / n_trials for k, v in se.items()}
        ordered = mean["random"] <= mean["estimated"] <= mean["optimal"]
        ratio = mean["estimated"] / mean["optimal"]
        if snr_db >= 10.0:
            ordered = ordered and ratio >= 0.95
        passed = passed and ordered
        lines.append(
            f"{snr_db:+.0f}dB rnd {mean['random']:.3f} est {mean['estimated']:.3f} "
            f"opt {mean['optimal']:.3f} ratio {ratio:.3f}"
        )
    return passed, "; ".join(lines)


def _criterion_pilot_scaling():
    """Aggregate NMSE of 200 uplink sweep cells per K strictly decreasing in K;
    true-angle MSE halves with K."""
    dims = SystemDims(n_bs=32, m_ris=50, q_users=5, t_symbols=5)
    k_grid = [50, 100, 200, 400]
    records = _sweep_10db("multi_user_uplink", dims, k_grid, "MF")
    aggregates = [aggregate_nmse(r for r in records if r.k == k) for k in k_grid]
    decreasing = all(b < a for a, b in zip(aggregates, aggregates[1:]))

    mse = [_angle_injected_mse(dataclasses.replace(dims, k_pilots=k), 0.1,
                               "angle-injected-mse", k_index, 200)
           for k_index, k in enumerate(k_grid)]
    ratios = [b / a for a, b in zip(mse, mse[1:])]  # K doubles along the grid
    halves = all(0.45 <= ratio <= 0.55 for ratio in ratios)

    passed = decreasing and halves
    return passed, (
        "NMSE by K " + ", ".join(f"{k}:{m:.4e}" for k, m in zip(k_grid, aggregates))
        + "; doubling ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    )


def _criterion_kron_equivalence():
    """Gram-collapsed stage-2 solve equals the explicit Kronecker LS."""
    worst = 0.0
    for n_bs in range(1, 5):
        for m_ris in range(1, 5):
            for k in range(m_ris, 5):
                rng = _rng("kron", n_bs * 100 + m_ris * 10 + k)
                sched = UplinkSchedule(random_phase_schedule(m_ris, k, rng),
                                       orthogonal_user_pilots(1, 1))
                psi = float(rng.uniform())
                s_q = (rng.standard_normal((n_bs, k))
                       + 1j * rng.standard_normal((n_bs, k)))
                fast = estimate_a_q(s_q, sched, psi)

                a_b = array_response(n_bs, psi)
                kron = np.kron(sched.phases, a_b[:, None])
                vec = s_q.reshape(-1, order="F")
                reference, *_ = np.linalg.lstsq(kron, vec, rcond=None)
                reference = reference.conj()

                diff = np.linalg.norm(fast - reference) / max(np.linalg.norm(reference), 1.0)
                worst = max(worst, float(diff))
                if diff > 1e-12:
                    return False, (
                        f"(n={n_bs}, m={m_ris}, k={k}): relative gap {diff:.2e} > 1e-12"
                    )
    return True, f"fast path matches Kronecker LS on all 40 instances (worst {worst:.2e})"


def _criterion_determinism():
    """Sweep output is byte-identical across reruns."""
    import tempfile
    from pathlib import Path

    spec = ExperimentSpec(
        scenario="single_user_downlink",
        dims=SystemDims(n_bs=4, m_ris=6),
        snr_grid_db=[0.0, 10.0],
        k_grid=[6, 12],
        estimators=("MF_AM", "LR"),
        n_trials=3,
        master_seed=_MASTER,
    )
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            path = Path(tmp) / f"run{run}.csv"
            write_results(run_sweep(spec), path, "csv", spec=spec)
            outputs.append(path.read_bytes())
    passed = outputs[0] == outputs[1]
    infeasible = outputs[0].count(b"infeasible")
    return passed, f"2 runs byte-identical: {passed}; {infeasible} infeasible LR rows marked"


@dataclass(frozen=True)
class CriterionResult:
    """One run of a criterion. ``unattainable`` is the criterion's declared
    reason that it cannot pass, or None."""

    name: str
    passed: bool
    detail: str
    elapsed_s: float
    unattainable: str | None = None

    @property
    def status(self) -> str:
        """PASS or FAIL; XFAIL or XPASS (an expected failure that passed)
        for a criterion declared unattainable."""
        if self.unattainable is None:
            return "PASS" if self.passed else "FAIL"
        return "XPASS" if self.passed else "XFAIL"

    @property
    def line(self) -> str:
        return f"{self.status} {self.name} ({self.elapsed_s:.1f}s): {self.detail}"


@dataclass(frozen=True)
class Criterion:
    """A named check returning (passed, detail). ``unattainable`` declares why
    the check cannot pass: it still runs, reports XFAIL, and XPASS if it ever
    passes, because then the reason no longer holds."""

    name: str
    check: Callable[[], tuple[bool, str]]
    unattainable: str | None = None

    def run(self) -> CriterionResult:
        """The check's result; ``elapsed_s`` is reported, never gated."""
        start = time.perf_counter()
        passed, detail = self.check()
        return CriterionResult(self.name, passed, detail, time.perf_counter() - start,
                               self.unattainable)


CRITERIA = (
    Criterion("predicted-mse", _criterion_predicted_mse_empirical),
    Criterion("dft-optimality", _criterion_dft_mse_optimality),
    Criterion("noiseless-mf-exactness", _criterion_noiseless_exactness,
              unattainable="angle unidentifiable from K = M noiseless samples"),
    Criterion("feasibility-boundary", _criterion_feasibility_boundary),
    Criterion("gradient-correctness", _criterion_gradients),
    Criterion("am-monotonicity", _criterion_am_monotone),
    Criterion("estimator-ordering", _criterion_estimator_ordering),
    Criterion("se-ordering", _criterion_se_ordering),
    Criterion("pilot-scaling", _criterion_pilot_scaling),
    Criterion("kron-equivalence", _criterion_kron_equivalence),
    Criterion("determinism", _criterion_determinism),
)


def select_criteria(names: Sequence[str] = ()) -> list[Criterion]:
    """The registered criteria called ``names``, in that order; all of them
    when ``names`` is empty. An unknown name raises ``ValueError``."""
    known = {criterion.name: criterion for criterion in CRITERIA}
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}; choose from {list(known)}")
    return [known[name] for name in names] if names else list(CRITERIA)
