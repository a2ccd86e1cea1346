import numpy as np
import pytest

from rismf import (
    SystemDims,
    cascaded_downlink,
    downlink_observe,
    estimate_single_user,
    lr_rankone,
    ls_full,
    make_pilot_schedule,
    nmse,
    sample_channel,
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
        design = np.einsum("kn,km->knm", sched.pilots, sched.phases).reshape(k, 24)
        reference = np.linalg.lstsq(design, obs.values, rcond=None)[0].reshape(4, 6).T
        h_hat = ls_full(obs, sched)
        assert np.linalg.norm(h_hat - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_short_budget_rejected(self):
        _, sched, _, obs = make_case(305, k=23)
        with pytest.raises(ValueError):
            ls_full(obs, sched)

    def test_zero_observations_give_zero_matrix(self):
        _, sched, _, obs = make_case(306)
        zero = ObservationSet(values=np.zeros_like(obs.values), noise_var=0.0)
        assert np.abs(ls_full(zero, sched)).max() <= 1e-12

    def test_linear_in_the_observations(self):
        _, sched, _, obs = make_case(307, noise_var=1.0)
        doubled = ObservationSet(values=2.0 * obs.values, noise_var=obs.noise_var)
        np.testing.assert_allclose(
            ls_full(doubled, sched), 2.0 * ls_full(obs, sched), atol=1e-10
        )


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
            obs = ObservationSet(values=values, noise_var=0.0)

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
            lr_rankone(ObservationSet(values=values, noise_var=0.5), sched)
