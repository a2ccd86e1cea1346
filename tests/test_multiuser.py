import numpy as np
import pytest

from rismf import (
    SystemDims,
    UplinkSchedule,
    array_response,
    despread,
    dft_phase_schedule,
    estimate_multi_user,
    make_uplink_schedule,
    nmse,
    orthogonal_user_pilots,
    random_phase_schedule,
    sample_channel,
    uplink_observe,
)
from rismf.multiuser import estimate_a_q, estimate_psi_uplink, predicted_mse
from rismf.signals import ObservationSet


def on_schedule(phases, t_symbols=1):
    """A one-user uplink schedule on the given (k, m) phases."""
    return UplinkSchedule(phases, orthogonal_user_pilots(1, t_symbols))


def circular_distance(a, b):
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def make_uplink_case(seed, n_bs=32, m_ris=50, k=100, q=5, t=5, noise_var=0.0):
    rng = np.random.default_rng(seed)
    dims = SystemDims(n_bs=n_bs, m_ris=m_ris, k_pilots=k, q_users=q, t_symbols=t)
    chan = sample_channel(dims, rng)
    g_up = chan.g_uplink()
    sched = make_uplink_schedule(dims)
    obs = uplink_observe(g_up, chan.h_users, sched, noise_var, rng if noise_var else None)
    return chan, g_up, sched, obs


class TestEstimatePsiUplink:
    def test_exact_factored_input(self):
        rng = np.random.default_rng(211)
        target = 0.61803
        a_b = array_response(16, target)
        s_list = [np.outer(a_b, rng.standard_normal(40) + 1j * rng.standard_normal(40))
                  for _ in range(3)]
        found = estimate_psi_uplink(s_list)
        assert circular_distance(found, target) <= 1e-6

    def test_noiseless_despread_data(self):
        for seed in range(4000, 4005):
            chan, g_up, sched, obs = make_uplink_case(seed)
            found = estimate_psi_uplink(despread(obs, sched))
            assert circular_distance(found, chan.psi) <= 1e-5

    def test_zero_data_rejected(self):
        with pytest.raises(ValueError):
            estimate_psi_uplink([np.zeros((8, 10), dtype=complex)])


class TestEstimateAQ:
    def test_recovers_factor_from_exact_model(self):
        rng = np.random.default_rng(221)
        psi = 0.37
        a_b = array_response(8, psi)
        a_q = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        phase = dft_phase_schedule(12, 24)
        s_q = np.outer(a_b, a_q.conj()) @ phase.T
        a_hat = estimate_a_q(s_q, on_schedule(phase), psi)
        assert np.linalg.norm(a_hat - a_q) / np.linalg.norm(a_q) <= 1e-10

    def test_zero_data_gives_zero_estimate(self):
        phase = dft_phase_schedule(6, 12)
        a_hat = estimate_a_q(np.zeros((4, 12), dtype=complex), on_schedule(phase), 0.2)
        assert np.linalg.norm(a_hat) <= 1e-12

    def test_matches_kronecker_least_squares(self):
        # the closed form avoids building the (n k, m) Kronecker design;
        # on arbitrary (non-model) data both must agree exactly
        rng = np.random.default_rng(222)
        for trial in range(5):
            psi = float(rng.uniform())
            a_b = array_response(4, psi)
            phase = random_phase_schedule(6, 9, rng)
            s_q = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
            design = np.kron(phase, a_b[:, None])
            reference, *_ = np.linalg.lstsq(design, s_q.reshape(-1, order="F"), rcond=None)
            reference = reference.conj()
            fast = estimate_a_q(s_q, on_schedule(phase), psi)
            np.testing.assert_allclose(fast, reference, atol=1e-9)

    def test_stacked_users_match_per_user_calls(self):
        chan, g_up, sched, obs = make_uplink_case(223, noise_var=0.5)
        stack = despread(obs, sched)
        psi = estimate_psi_uplink(stack)
        stacked = estimate_a_q(stack, sched, psi)
        assert stacked.shape == (sched.q_users, 50)
        for s_q, a_hat in zip(stack, stacked):
            single = estimate_a_q(s_q, sched, psi)
            assert np.linalg.norm(a_hat - single) <= 1e-12 * np.linalg.norm(single)

    def test_short_schedule_rejected(self):
        phase = dft_phase_schedule(6, 6)[:5]
        with pytest.raises(ValueError):
            estimate_a_q(np.zeros((4, 5), dtype=complex), on_schedule(phase), 0.1)

    def test_rank_deficient_schedule_rejected(self):
        phase = np.ones((8, 4), dtype=complex)
        with pytest.raises(ValueError):
            estimate_a_q(np.ones((3, 8), dtype=complex), on_schedule(phase), 0.1)

    @pytest.mark.parametrize("shape", [(4, 7), (2, 4, 9), (8,)])
    def test_misshapen_users_rejected(self, shape):
        # an 8-block schedule takes (n_bs, 8) or (q, n_bs, 8)
        sched = on_schedule(dft_phase_schedule(6, 8))
        with pytest.raises(ValueError, match=r"\(n_bs, k\) or \(q, n_bs, k\) with k=8") as err:
            estimate_a_q(np.zeros(shape, dtype=complex), sched, 0.1)
        assert str(shape) in str(err.value)

    def test_bare_phases_rejected(self):
        # the solve reads the factor the schedule caches; bare phases have none
        phase = dft_phase_schedule(6, 12)
        with pytest.raises(ValueError, match="estimate_a_q needs an UplinkSchedule"):
            estimate_a_q(np.zeros((4, 12), dtype=complex), phase, 0.2)
        with pytest.raises(ValueError, match="predicted_mse needs an UplinkSchedule"):
            predicted_mse(1.0, phase)


class TestPredictedMse:
    def test_dft_schedule_closed_form(self):
        phase = dft_phase_schedule(16, 32)
        value = predicted_mse(1.0, on_schedule(phase, 4))
        np.testing.assert_allclose(value, 16 / (32 * 4), rtol=1e-12)

    def test_zero_noise_gives_zero(self):
        phase = dft_phase_schedule(8, 16)
        assert predicted_mse(0.0, on_schedule(phase, 3)) == 0.0

    def test_dft_minimizes_over_random_schedules(self):
        rng = np.random.default_rng(231)
        floor = predicted_mse(1.0, on_schedule(dft_phase_schedule(8, 20), 2))
        for _ in range(20):
            random_phase = random_phase_schedule(8, 20, rng)
            assert predicted_mse(1.0, on_schedule(random_phase, 2)) >= floor - 1e-12

    def test_random_schedule_matches_explicit_inverse(self):
        # off the DFT design the Gram has off-diagonal entries, which the
        # Cholesky factor's unused triangle also holds
        rng = np.random.default_rng(232)
        for _ in range(20):
            phase = random_phase_schedule(8, 20, rng)
            reference = 0.7 / 3 * np.trace(np.linalg.inv(phase.conj().T @ phase)).real
            np.testing.assert_allclose(predicted_mse(0.7, on_schedule(phase, 3)), reference,
                                       rtol=1e-12)

    def test_scales_linearly_with_noise(self):
        phase = dft_phase_schedule(8, 16)
        np.testing.assert_allclose(
            predicted_mse(3.0, on_schedule(phase, 2)),
            3.0 * predicted_mse(1.0, on_schedule(phase, 2)), rtol=1e-12,
        )

    def test_rank_deficient_schedule_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            predicted_mse(1.0, on_schedule(np.ones((8, 4), dtype=complex), 2))

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError, match="k >= m_ris"):
            predicted_mse(1.0, on_schedule(dft_phase_schedule(6, 6)[:5], 2))

    @pytest.mark.parametrize("noise_var, t_symbols, field", [
        (1.0, 0, "t_symbols"), (1.0, -2, "t_symbols"), (1.0, 1.5, "t_symbols"),
        (1.0, True, "t_symbols"), (-1.0, 2, "noise_var"), (float("nan"), 2, "noise_var"),
        (float("inf"), 2, "noise_var"),
    ])
    def test_bad_noise_or_block_length_rejected(self, noise_var, t_symbols, field):
        # the block length is the schedule's: its pilot block rejects a bad one
        with pytest.raises(ValueError, match=field):
            predicted_mse(noise_var, on_schedule(dft_phase_schedule(8, 16), t_symbols))


class TestSharedRankCheck:
    """Stage 2 applies the Cholesky condition check of every small LS solve."""

    @staticmethod
    def near_parallel_schedule(eps):
        # column 1 drifts from the all-ones column 0 by eps per slot; columns 2-3 are DFT
        phase = dft_phase_schedule(4, 8).copy()
        phase[:, 1] = np.exp(1j * eps * np.arange(8))
        return phase

    def test_ill_conditioned_schedule_accepted(self):
        # Gram condition number 9e7, below the limit of 1e12
        phase = self.near_parallel_schedule(1e-4)
        data = np.ones((3, 8), dtype=complex)
        assert np.isfinite(estimate_a_q(data, on_schedule(phase), 0.1)).all()
        assert np.isfinite(predicted_mse(1.0, on_schedule(phase, 2)))

    def test_numerically_singular_schedule_rejected(self):
        # Gram condition number 9e13: Cholesky succeeds, the condition estimate does not
        phase = self.near_parallel_schedule(1e-7)
        with pytest.raises(ValueError, match="rank deficient"):
            estimate_a_q(np.ones((3, 8), dtype=complex), on_schedule(phase), 0.1)
        with pytest.raises(ValueError, match="rank deficient"):
            predicted_mse(1.0, on_schedule(phase, 2))


class TestEstimateMultiUser:
    def test_noiseless_recovery_all_users(self):
        for seed in range(4000, 4005):
            chan, g_up, sched, obs = make_uplink_case(seed)
            est = estimate_multi_user(obs, sched)
            assert circular_distance(est.psi_hat, chan.psi) <= 1e-5
            for q in range(sched.q_users):
                h_true = g_up * chan.h_users[q][None, :]
                assert nmse(h_true, est.h_hats[q]) <= 1e-8

    def test_single_user_degenerate_case(self):
        chan, g_up, sched, obs = make_uplink_case(241, q=1, t=1)
        est = estimate_multi_user(obs, sched)
        h_true = g_up * chan.h_users[0][None, :]
        assert nmse(h_true, est.h_hats[0]) <= 1e-8

    def test_reconstruction_identity(self):
        chan, g_up, sched, obs = make_uplink_case(242, noise_var=0.5)
        est = estimate_multi_user(obs, sched)
        a_b = array_response(32, est.psi_hat)
        for q in range(sched.q_users):
            rebuilt = np.outer(a_b, est.a_bar_hats[q].conj())
            np.testing.assert_allclose(est.h_hats[q], rebuilt, atol=1e-13)

    def test_phase_gram_factored_once_per_schedule(self, monkeypatch):
        # one factor, cached on the schedule, serves every user of every call
        from rismf import signals

        calls = []
        original = signals._cholesky

        def counted(gram):
            calls.append(gram)
            return original(gram)

        monkeypatch.setattr(signals, "_cholesky", counted)
        _, _, cached, obs = make_uplink_case(246, noise_var=0.5)
        # a schedule built by hand is not in make_uplink_schedule's cache
        sched = UplinkSchedule(cached.phases.copy(), cached.user_pilots.copy())
        estimates = [estimate_multi_user(obs, sched) for _ in range(3)]
        assert len(calls) == 1
        np.testing.assert_array_equal(estimates[0].a_bar_hats, estimates[2].a_bar_hats)

    def test_nan_data_rejected(self):
        _, _, sched, obs = make_uplink_case(245, noise_var=0.5)
        values = obs.values.copy()
        values[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_multi_user(ObservationSet(values=values), sched)

    def test_stage_two_error_matches_prediction(self):
        # with the true angle injected, the empirical a_bar MSE over many
        # trials should track the schedule's predicted floor
        errors = []
        total = 0
        for seed in range(300):
            chan, g_up, sched, obs = make_uplink_case(
                2450 + seed, n_bs=8, m_ris=12, k=24, q=2, t=2, noise_var=1.0
            )
            a_bar_hats = estimate_a_q(despread(obs, sched), sched, chan.psi)
            for q in range(2):
                a_true = (g_up * chan.h_users[q][None, :]).conj().T @ array_response(8, chan.psi)
                errors.append(np.sum(np.abs(a_bar_hats[q] - a_true) ** 2))
                total += 1
        predicted = predicted_mse(1.0, make_uplink_schedule(
            SystemDims(n_bs=8, m_ris=12, k_pilots=24, q_users=2, t_symbols=2)
        ))
        empirical = float(np.mean(errors))
        assert abs(empirical / predicted - 1.0) <= 0.1
