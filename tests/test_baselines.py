import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rismf import (
    MfConfig,
    PilotSchedule,
    SystemDims,
    baselines,
    cascaded_downlink,
    downlink_observe,
    estimate_single_user,
    lr_rankone,
    ls_full,
    make_pilot_schedule,
    nmse,
    sample_channel,
    simulate_downlink,
)
from rismf.signals import ObservationSet


def make_case(seed, n_bs=4, m_ris=6, k=24, noise_var=0.0):
    rng = np.random.default_rng(seed)
    dims = SystemDims(n_bs=n_bs, m_ris=m_ris, k_pilots=k)
    chan = sample_channel(dims, rng)
    sched = make_pilot_schedule(dims, rng)
    cas = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
    obs = downlink_observe(cas, sched, noise_var, rng if noise_var else None)
    return chan, sched, cas, obs


def lstsq_reference(obs, sched):
    """LS by an orthogonal factorization of the design, no normal equations."""
    k, n_bs = sched.pilots.shape
    design = np.einsum("kn,km->knm", sched.pilots, sched.phases).reshape(k, -1)
    vec = np.linalg.lstsq(design, obs.values, rcond=None)[0]
    return vec.reshape(n_bs, -1).T


class TestLsFull:
    def test_exact_at_square_budget(self):
        for seed in (301, 302, 303):
            chan, sched, cas, obs = make_case(seed, k=24)
            h_hat = ls_full(obs, sched)
            assert nmse(cas.h_e, h_hat) <= 1e-12

    def test_exact_at_tall_budget(self):
        chan, sched, cas, obs = make_case(304, k=40)
        assert nmse(cas.h_e, ls_full(obs, sched)) <= 1e-12

    @pytest.mark.parametrize("k", [24, 40])
    def test_tall_budget_matches_lstsq(self, k):
        _, sched, _, obs = make_case(308, k=k, noise_var=0.5)
        reference = lstsq_reference(obs, sched)
        h_hat = ls_full(obs, sched)
        assert np.linalg.norm(h_hat - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_short_budget_rejected(self):
        _, sched, _, obs = make_case(305, k=23)
        with pytest.raises(ValueError):
            ls_full(obs, sched)

    def test_zero_observations_give_zero_matrix(self):
        _, sched, _, obs = make_case(306)
        zero = ObservationSet(values=np.zeros_like(obs.values))
        assert np.abs(ls_full(zero, sched)).max() <= 1e-12

    def test_linear_in_the_observations(self):
        _, sched, _, obs = make_case(307, noise_var=1.0)
        doubled = ObservationSet(values=2.0 * obs.values)
        np.testing.assert_allclose(
            ls_full(doubled, sched), 2.0 * ls_full(obs, sched), atol=1e-10
        )


def spy_on_double_solve(monkeypatch):
    """Count the calls that reach the complex128 normal equations."""
    calls = []
    original = baselines._normal_solve

    def counted(values, sched, dtype):
        if dtype == np.complex128:
            calls.append(sched.pilots.shape[0])
        return original(values, sched, dtype)

    monkeypatch.setattr(baselines, "_normal_solve", counted)
    return calls


def spy_on_cpftrs(monkeypatch):
    """Count the complex64 refinement steps."""
    steps = []
    cpftrs = scipy.linalg.lapack.cpftrs
    monkeypatch.setattr(
        scipy.linalg.lapack, "cpftrs", lambda *a, **kw: steps.append(1) or cpftrs(*a, **kw)
    )
    return steps


def spy_on_hfrk(monkeypatch):
    """Record each block of design rows that ``chfrk`` or ``zhfrk`` adds to a Gram."""
    blocks = []
    for name in ("chfrk", "zhfrk"):
        hfrk = getattr(scipy.linalg.lapack, name)

        def counted(*args, hfrk=hfrk, name=name, **kwargs):
            blocks.append(name)
            return hfrk(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    return blocks


def near_dependent_pilots(spread):
    """The K = 40 schedule of ``default_rng(0)`` with pilot column 1 moved
    to column 0 plus ``spread`` times a complex normal draw, and data."""
    rng = np.random.default_rng(0)
    sched = make_pilot_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=40), rng)
    pilots = sched.pilots.copy()
    pilots[:, 1] = pilots[:, 0] + spread * rng.standard_normal((40, 2)).view(complex)[:, 0]
    pilots /= np.linalg.norm(pilots, axis=1, keepdims=True)
    values = rng.standard_normal((40, 2)).view(complex)[:, 0]
    return PilotSchedule(pilots, sched.phases), ObservationSet(values=values)


class TestLsFullMixedPrecision:
    """Paper-size cells (N = 32, M = 50, MN = 1600) at 10 dB SNR."""

    @pytest.mark.parametrize("k, tol", [(1700, 1e-12), (1620, 1e-12), (1600, 1e-9)])
    def test_matches_lstsq_at_paper_size(self, monkeypatch, k, tol):
        calls = spy_on_double_solve(monkeypatch)
        _, sched, _, obs = make_case(320 + k, n_bs=32, m_ris=50, k=k, noise_var=0.1)
        reference = lstsq_reference(obs, sched)
        h_hat = ls_full(obs, sched)
        assert np.linalg.norm(h_hat - reference) <= tol * np.linalg.norm(reference)
        # only the square budget solves in complex128
        assert bool(calls) == (k == 1600)

    def test_zero_observations_stop_refinement_at_once(self, monkeypatch):
        # a zero right-hand side makes the relative correction 0/0; the
        # refinement returns the zero solution instead of falling back
        calls = spy_on_double_solve(monkeypatch)
        _, sched, _, obs = make_case(306, k=40)
        zero = ObservationSet(values=np.zeros_like(obs.values))
        assert np.array_equal(ls_full(zero, sched), np.zeros((6, 4)))
        assert calls == []

    @pytest.mark.parametrize("scale", [1e-50, 1e50])
    def test_complex64_range_does_not_limit_the_data(self, scale):
        # the residuals are rescaled before they meet single precision
        _, sched, _, obs = make_case(322, k=40, noise_var=1.0)
        scaled = ObservationSet(values=scale * obs.values)
        np.testing.assert_allclose(
            ls_full(scaled, sched), scale * ls_full(obs, sched), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("k", [24, 30])
    def test_unused_antenna_is_rank_deficient(self, k):
        _, sched, _, obs = make_case(321, k=k)
        pilots = sched.pilots.copy()
        pilots[:, 0] = 0.0
        pilots /= np.linalg.norm(pilots, axis=1, keepdims=True)
        with pytest.raises(ValueError, match="rank deficient"):
            ls_full(obs, PilotSchedule(pilots, sched.phases))

    def test_stalled_refinement_returns_the_complex128_solution(self, monkeypatch):
        # two nearly equal pilot columns: cond(Gram) is about 4e7, beyond
        # single precision, yet cpftrf succeeds and refinement diverges
        sched, obs = near_dependent_pilots(3e-4)
        steps = spy_on_cpftrs(monkeypatch)
        calls = spy_on_double_solve(monkeypatch)
        h_hat = ls_full(obs, sched)
        # neither a failed cpftrf (no step) nor the step cap
        assert 0 < len(steps) < baselines._REFINE_MAX_STEPS
        assert calls == [40]
        np.testing.assert_array_equal(
            h_hat, baselines._normal_solve(obs.values, sched, np.complex128).T
        )

    def test_failed_complex64_factor_falls_back_to_complex128(self, monkeypatch):
        # closer pilot columns: cond(D) is about 2e4, so cond(Gram) is beyond
        # complex64 and cpftrf fails before any refinement step
        sched, obs = near_dependent_pilots(1e-4)
        steps = spy_on_cpftrs(monkeypatch)
        calls = spy_on_double_solve(monkeypatch)
        h_hat = ls_full(obs, sched)
        assert steps == []
        assert calls == [40]
        reference = lstsq_reference(obs, sched)
        assert np.linalg.norm(h_hat - reference) <= 1e-6 * np.linalg.norm(reference)


def square_dims(k):
    """``(n_bs, m_ris)`` with ``n_bs * m_ris == k``, ``n_bs`` at most ``sqrt(k)``."""
    n_bs = max(d for d in range(1, math.isqrt(k) + 1) if k % d == 0)
    return n_bs, k // n_bs


class TestLsFullPackedGram:
    """The Gram is summed from blocks of ``_GRAM_BLOCK`` slots in packed
    storage; no call holds the (k, m n) design."""

    BLOCK = baselines._GRAM_BLOCK

    @pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("square", [False, True], ids=["complex64", "complex128"])
    def test_matches_lstsq_across_block_edges(self, monkeypatch, k, square):
        # K > MN factors in complex64, K = MN in complex128
        n_bs, m_ris = square_dims(k) if square else (8, 24)
        blocks = spy_on_hfrk(monkeypatch)
        _, sched, _, obs = make_case(330, n_bs=n_bs, m_ris=m_ris, k=k, noise_var=0.5)
        reference = lstsq_reference(obs, sched)
        h_hat = ls_full(obs, sched)
        assert np.linalg.norm(h_hat - reference) <= 1e-10 * np.linalg.norm(reference)
        # one rank-k update per block, the last one short
        assert blocks == ["zhfrk" if square else "chfrk"] * math.ceil(k / self.BLOCK)

    def test_peak_memory_below_the_dense_design(self):
        # five blocks on the complex64 path: the whole complex64 design would
        # take 4.9 MB, the packed Gram and one block about 1 MB each
        k, n_bs, m_ris = 1200, 16, 32
        _, sched, _, obs = make_case(331, n_bs=n_bs, m_ris=m_ris, k=k, noise_var=0.5)
        design_bytes = k * n_bs * m_ris * np.dtype(np.complex64).itemsize
        tracemalloc.start()
        try:
            ls_full(obs, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes


class TestLrRankone:
    def test_noiseless_structured_recovery(self):
        chan, sched, cas, obs = make_case(311, n_bs=16, m_ris=32, k=96)
        result = lr_rankone(obs, sched)
        assert nmse(cas.h_e, result.h_e_hat) <= 1e-6
        assert result.converged

    def test_recovers_when_structure_is_absent(self):
        # the BS-side factor here is a random vector, not a steering vector;
        # the free factorization still fits it while the structured estimator
        # is pinned to the manifold and cannot
        for seed in (7000, 7001, 7002):
            rng = np.random.default_rng(seed)
            dims = SystemDims(n_bs=16, m_ris=32, k_pilots=96)
            u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            v /= np.linalg.norm(v)
            h_e = np.outer(u, v.conj())
            sched = make_pilot_schedule(dims, rng)
            values = (sched.phases @ u) * (sched.pilots @ v.conj())
            obs = ObservationSet(values=values)

            free = lr_rankone(obs, sched)
            assert nmse(h_e, free.h_e_hat) <= 1e-8
            pinned = estimate_single_user(obs, sched)
            assert nmse(h_e, pinned.h_e_hat) >= 0.5

    def test_objective_never_increases(self):
        _, sched, _, obs = make_case(312, n_bs=8, m_ris=12, k=48, noise_var=1.0)
        result = lr_rankone(obs, sched)
        hist = np.asarray(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_unit_norm_scale_convention(self):
        _, sched, _, obs = make_case(313, noise_var=0.5)
        result = lr_rankone(obs, sched)
        np.testing.assert_allclose(np.linalg.norm(result.a_b_hat), 1.0, rtol=1e-9)
        np.testing.assert_allclose(
            result.h_e_hat,
            np.outer(result.a_bar_hat, result.a_b_hat.conj()),
            atol=1e-13,
        )
        assert result.psi_hat is None

    def test_short_budget_rejected(self):
        _, sched, _, obs = make_case(314, n_bs=4, m_ris=6, k=5)
        with pytest.raises(ValueError):
            lr_rankone(obs, sched)

    def test_nan_data_rejected(self):
        _, sched, _, obs = make_case(315, noise_var=0.5)
        values = obs.values.copy()
        values[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lr_rankone(ObservationSet(values=values), sched)


class TestObservationLength:
    """Every downlink estimator rejects data whose length does not match the
    schedule, with the one message of the downlink operator's check: the
    operator's adjoint is the first reader of the data in MF_AM, MF_GD and
    LR, and ``ls_full`` runs the check before it builds its design."""

    ESTIMATORS = {
        "am": lambda obs, sched: estimate_single_user(obs, sched, MfConfig(solver="am")),
        "gd": lambda obs, sched: estimate_single_user(obs, sched, MfConfig(solver="gd")),
        "lr": lr_rankone,
        "ls": ls_full,
    }

    @pytest.mark.parametrize("length", [1, 29, 31])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_mismatched_length_rejected(self, name, length):
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=30)
        _, sched, obs = simulate_downlink(dims, 0.1, np.random.default_rng(320))
        values = np.resize(obs.values, length)
        wrong = ObservationSet(values=values)
        with pytest.raises(ValueError, match=r"\(30,\) for this schedule, got \(%d,\)" % length):
            self.ESTIMATORS[name](wrong, sched)

    def test_ls_full_rejects_before_the_gram(self, monkeypatch):
        blocks = spy_on_hfrk(monkeypatch)
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=30)
        _, sched, obs = simulate_downlink(dims, 0.1, np.random.default_rng(321))
        short = ObservationSet(values=obs.values[:-1])
        with pytest.raises(ValueError, match=r"\(30,\) for this schedule, got \(29,\)"):
            ls_full(short, sched)
        assert blocks == []  # no block reached the Gram
        ls_full(obs, sched)
        assert blocks == ["chfrk"]  # the spy sees the one block of a well-formed call
