import dataclasses
import re

import numpy as np
import pytest

from rismf import (
    PilotSchedule,
    SystemDims,
    UplinkSchedule,
    array_response,
    cascaded_downlink,
    despread,
    dft_phase_schedule,
    downlink_observe,
    estimate_single_user,
    lr_rankone,
    ls_full,
    make_pilot_schedule,
    make_uplink_schedule,
    orthogonal_user_pilots,
    random_phase_schedule,
    random_pilots,
    sample_channel,
    uplink_observe,
)
from rismf.signals import ObservationSet, _downlink_adjoint, _downlink_forward


class TestScheduleGenerators:
    def test_random_phases_unit_modulus(self):
        phases = random_phase_schedule(8, 16, np.random.default_rng(1))
        assert np.abs(np.abs(phases) - 1.0).max() <= 1e-15

    def test_random_phases_reproducible(self):
        a = random_phase_schedule(4, 6, np.random.default_rng(2))
        b = random_phase_schedule(4, 6, np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_random_phases_zero_mean(self):
        entries = random_phase_schedule(100, 1000, np.random.default_rng(3))
        assert abs(entries.mean()) <= 0.02

    def test_dft_two_point(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(dft_phase_schedule(2, 2), expected, atol=1e-14)

    def test_dft_rows_orthogonal(self):
        theta = dft_phase_schedule(4, 8)
        np.testing.assert_allclose(theta.T @ theta.conj(), 8 * np.eye(4), atol=1e-9)

    def test_dft_needs_enough_columns(self):
        with pytest.raises(ValueError):
            dft_phase_schedule(4, 3)

    def test_user_pilots_single(self):
        np.testing.assert_allclose(orthogonal_user_pilots(1, 1), [[1.0]], atol=1e-15)

    def test_user_pilots_pair_orthogonal(self):
        pilots = orthogonal_user_pilots(2, 2)
        np.testing.assert_allclose(pilots, [[1, 1], [1, -1]], atol=1e-14)
        assert abs(np.vdot(pilots[0], pilots[1])) <= 1e-12

    def test_user_pilots_gram(self):
        pilots = orthogonal_user_pilots(5, 5)
        np.testing.assert_allclose(
            pilots @ pilots.conj().T, 5 * np.eye(5), atol=1e-10
        )

    def test_user_pilots_need_enough_symbols(self):
        with pytest.raises(ValueError):
            orthogonal_user_pilots(5, 4)

    @pytest.mark.parametrize("q_users, t_symbols, field", [
        (1, 0, "t_symbols"), (1, 1.5, "t_symbols"), (1, True, "t_symbols"),
        (0, 2, "q_users"), (2.0, 2, "q_users"),
    ])
    def test_user_pilots_need_positive_integer_counts(self, q_users, t_symbols, field):
        with pytest.raises(ValueError, match=field):
            orthogonal_user_pilots(q_users, t_symbols)

    def test_random_pilots_unit_norm(self):
        pilots = random_pilots(6, 20, np.random.default_rng(4))
        np.testing.assert_allclose(np.linalg.norm(pilots, axis=1), 1.0, atol=1e-12)


class TestScheduleTypes:
    def test_pilot_schedule_rejects_unnormalized_pilots(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            PilotSchedule(
                pilots=2.0 * random_pilots(4, 3, rng),
                phases=random_phase_schedule(6, 3, rng),
            )

    def test_pilot_schedule_rejects_non_unimodular_phases(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            PilotSchedule(
                pilots=random_pilots(4, 3, rng),
                phases=0.5 * random_phase_schedule(6, 3, rng),
            )

    def test_pilot_schedule_rejects_slot_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            PilotSchedule(
                pilots=random_pilots(4, 3, rng),
                phases=random_phase_schedule(6, 4, rng),
            )

    def test_uplink_schedule_rejects_non_unimodular_phases(self):
        with pytest.raises(ValueError):
            UplinkSchedule(
                phases=0.3 * dft_phase_schedule(4, 8),
                user_pilots=np.ones((1, 1), dtype=complex),
            )

    def test_uplink_schedule_rejects_per_block_pilots(self):
        # the (k, q, t) per-block pilot layout fails here, not inside an einsum
        with pytest.raises(ValueError, match="2-D"):
            UplinkSchedule(phases=dft_phase_schedule(4, 8),
                           user_pilots=np.ones((8, 1, 1), dtype=complex))

    def test_uplink_schedule_rejects_1d_phases(self):
        with pytest.raises(ValueError, match="2-D"):
            UplinkSchedule(phases=np.ones(8, dtype=complex),
                           user_pilots=np.ones((1, 1), dtype=complex))

    @pytest.mark.parametrize("pilots", [
        np.ones((2, 3), dtype=complex),          # identical rows
        np.zeros((1, 2), dtype=complex),         # silent user
        np.full((1, 1), np.nan, dtype=complex),  # non-finite
        2.0 * orthogonal_user_pilots(2, 2),      # orthogonal, wrong power
    ])
    def test_uplink_schedule_rejects_non_orthogonal_pilots(self, pilots):
        with pytest.raises(ValueError, match="orthogonal"):
            UplinkSchedule(phases=dft_phase_schedule(4, 8), user_pilots=pilots)

    def test_uplink_schedule_rejects_nan_phases(self):
        phases = dft_phase_schedule(4, 8)
        phases[3, 1] = np.nan
        with pytest.raises(ValueError, match="unit modulus"):
            UplinkSchedule(phases=phases, user_pilots=np.ones((1, 1), dtype=complex))

    def test_pilot_schedule_rejects_nan_pilots(self):
        pilots = random_pilots(4, 3, np.random.default_rng(9))
        pilots[1, 2] = np.nan
        with pytest.raises(ValueError, match="unit norm"):
            PilotSchedule(pilots=pilots, phases=dft_phase_schedule(3, 3))

    @pytest.mark.parametrize("phases, user_pilots", [
        (dft_phase_schedule(4, 8), np.ones((1, 0), dtype=complex)),   # no pilot symbols
        (dft_phase_schedule(4, 8), np.ones((0, 2), dtype=complex)),   # no users
        (np.ones((0, 4), dtype=complex), np.ones((1, 1), dtype=complex)),  # no blocks
        (np.ones((8, 0), dtype=complex), np.ones((1, 1), dtype=complex)),  # no RIS elements
    ])
    def test_uplink_schedule_rejects_empty_arrays(self, phases, user_pilots):
        shapes = re.escape(f"got {phases.shape} and {user_pilots.shape}")
        with pytest.raises(ValueError, match="non-empty.*" + shapes):
            UplinkSchedule(phases=phases, user_pilots=user_pilots)

    @pytest.mark.parametrize("pilots, phases", [
        (np.ones((0, 4), dtype=complex), np.ones((0, 3), dtype=complex)),  # no slots
        (np.ones((2, 0), dtype=complex), np.ones((2, 3), dtype=complex)),  # no BS antennas
        (random_pilots(4, 2, np.random.default_rng(7)), np.ones((2, 0), dtype=complex)),
    ])
    def test_pilot_schedule_rejects_empty_arrays(self, pilots, phases):
        shapes = re.escape(f"got {pilots.shape} and {phases.shape}")
        with pytest.raises(ValueError, match="non-empty.*" + shapes):
            PilotSchedule(pilots=pilots, phases=phases)

    def test_pilot_schedule_is_frozen(self):
        # its cached autocorrelation and the downlink operator read the arrays it holds
        sched = make_pilot_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=8),
                                    np.random.default_rng(9))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.pilots = sched.pilots.copy()

    def test_observation_set_is_frozen_with_values_only(self):
        # the noise variance is a synthesis parameter; no estimator reads it
        obs = ObservationSet(values=np.zeros(4, dtype=complex))
        assert [field.name for field in dataclasses.fields(obs)] == ["values"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.values = np.ones(4, dtype=complex)

    def test_both_links_share_the_dft_layout(self):
        # a DFT downlink schedule is built by hand
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=2)
        downlink = PilotSchedule(random_pilots(4, 8, np.random.default_rng(8)),
                                 dft_phase_schedule(6, 8))
        np.testing.assert_array_equal(downlink.phases, make_uplink_schedule(dims).phases)

    @pytest.mark.parametrize("n_bs", [1, 2, 5, 32])
    def test_autocorrelation_matches_lag_sums(self, n_bs):
        sched = make_pilot_schedule(SystemDims(n_bs=n_bs, m_ris=3, k_pilots=7),
                                    np.random.default_rng(10))
        x = sched.pilots
        brute = np.array([[np.sum(x[k, d:] * x[k, :n_bs - d].conj()) for d in range(n_bs)]
                          for k in range(7)])
        assert sched.autocorrelation.shape == (7, n_bs)
        np.testing.assert_allclose(sched.autocorrelation, brute, rtol=0, atol=1e-14)


class TestUplinkScheduleCache:
    def test_same_dims_give_the_same_object(self):
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=3)
        sched = make_uplink_schedule(dims)
        assert make_uplink_schedule(dims) is sched
        # n_bs does not enter the schedule
        assert make_uplink_schedule(SystemDims(n_bs=9, m_ris=6, k_pilots=8, q_users=2,
                                               t_symbols=3)) is sched
        assert make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=9, q_users=2,
                                               t_symbols=3)) is not sched

    def test_shared_schedule_is_read_only(self):
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2,
                                                t_symbols=3))
        triangle, _ = sched.phase_gram_factor
        for array in (sched.phases, sched.user_pilots, triangle):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        with pytest.raises(AttributeError):
            sched.phases = sched.phases.copy()

    def test_factor_is_the_checked_phase_gram_factor(self):
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=8))
        triangle, lower = sched.phase_gram_factor
        assert sched.phase_gram_factor[0] is triangle
        full = np.tril(triangle) if lower else np.triu(triangle)
        gram = full @ full.conj().T if lower else full.conj().T @ full
        np.testing.assert_allclose(gram, sched.phases.T @ sched.phases.conj(), atol=1e-12)

    def test_short_schedule_factor_rejected(self):
        sched = UplinkSchedule(random_phase_schedule(6, 4, np.random.default_rng(25)),
                               np.ones((1, 1), dtype=complex))
        with pytest.raises(ValueError, match="k >= m_ris"):
            sched.phase_gram_factor


class TestDownlinkObserve:
    def _setup(self, noise_var=0.0, k=12, seed=10):
        rng = np.random.default_rng(seed)
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=k)
        chan = sample_channel(dims, rng)
        sched = make_pilot_schedule(dims, rng)
        cas = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
        obs = downlink_observe(cas, sched, noise_var, rng if noise_var else None)
        return chan, sched, cas, obs

    def test_noiseless_matches_model(self):
        _, sched, cas, obs = self._setup()
        for k in range(sched.k_pilots):
            expected = sched.phases[k] @ cas.h_e @ sched.pilots[k]
            assert abs(obs.values[k] - expected) <= 1e-14

    def test_zero_channel_gives_pure_noise_variance(self):
        rng = np.random.default_rng(11)
        dims = SystemDims(n_bs=2, m_ris=3, k_pilots=10_000)
        sched = make_pilot_schedule(dims, rng)
        zero = cascaded_downlink(np.zeros(3, dtype=complex), np.zeros((3, 2), dtype=complex))
        obs = downlink_observe(zero, sched, 0.25, rng)
        empirical = np.mean(np.abs(obs.values) ** 2)
        assert abs(empirical / 0.25 - 1.0) <= 0.05

    def test_factored_and_matrix_forms_agree(self):
        chan, sched, cas, obs = self._setup()
        a_b = array_response(4, chan.psi)
        factored = (sched.phases @ cas.a_bar) * (sched.pilots @ a_b.conj())
        np.testing.assert_allclose(obs.values, factored, atol=1e-12)

    def test_noise_requires_rng(self):
        _, sched, cas, _ = self._setup()
        with pytest.raises(ValueError):
            downlink_observe(cas, sched, 0.1)

    def test_negative_noise_variance_rejected(self):
        _, sched, cas, _ = self._setup()
        with pytest.raises(ValueError, match="noise_var"):
            downlink_observe(cas, sched, -1.0)

    def test_reproducible_noise(self):
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        _, sched, cas, _ = self._setup()
        a = downlink_observe(cas, sched, 0.5, rng_a)
        b = downlink_observe(cas, sched, 0.5, rng_b)
        np.testing.assert_array_equal(a.values, b.values)


def _observe_downlink(noise_var, rng):
    dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8)
    chan = sample_channel(dims, np.random.default_rng(13))
    sched = make_pilot_schedule(dims, np.random.default_rng(14))
    cascade = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
    return downlink_observe(cascade, sched, noise_var, rng)


def _observe_uplink(noise_var, rng):
    dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=2)
    chan = sample_channel(dims, np.random.default_rng(15))
    return uplink_observe(chan.g_uplink(), chan.h_users, make_uplink_schedule(dims),
                          noise_var, rng)


@pytest.mark.parametrize("observe", [_observe_downlink, _observe_uplink])
@pytest.mark.parametrize("noise_var", [-1.0, np.nan, np.inf])
def test_bad_noise_variance_rejected_before_any_draw(observe, noise_var):
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="noise_var"):
        observe(noise_var, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("entry", [
    estimate_single_user,
    lr_rankone,
    ls_full,
    lambda obs, sched: downlink_observe(
        cascaded_downlink(np.ones(6), np.ones((6, 4))), sched, 0.1, np.random.default_rng(3)),
], ids=["estimate_single_user", "lr_rankone", "ls_full", "downlink_observe"])
def test_downlink_entry_points_reject_an_uplink_schedule(entry):
    dims = SystemDims(n_bs=4, m_ris=6, k_pilots=30, q_users=2, t_symbols=2)
    obs = ObservationSet(np.ones(30, dtype=complex))
    with pytest.raises(ValueError, match="needs a PilotSchedule, got UplinkSchedule"):
        entry(obs, make_uplink_schedule(dims))


class TestDownlinkOperator:
    """``_downlink_forward`` and ``_downlink_adjoint``, the one downlink
    measurement operator and its adjoint."""

    @staticmethod
    def _case(k, seed):
        rng = np.random.default_rng(seed)
        sched = make_pilot_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=k), rng)
        h_e = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return sched, h_e, values

    @pytest.mark.parametrize("k", [10, 24, 40])
    def test_adjoint_identity(self, k):
        # <A(H), r> = <H, A^H(r)>, both inner products conjugate-linear in the first slot
        sched, h_e, values = self._case(k, seed=40 + k)
        left = np.vdot(_downlink_forward(sched, h_e), values)
        right = np.vdot(h_e, _downlink_adjoint(sched, values))
        assert abs(left - right) <= 1e-12 * abs(left)

    @pytest.mark.parametrize("k", [10, 24, 40])
    def test_forward_is_the_vectorized_design(self, k):
        # row k = x_k kron theta_k acting on the column-stacked vec(h_e)
        sched, h_e, _ = self._case(k, seed=50 + k)
        design = np.einsum("kn,km->knm", sched.pilots, sched.phases).reshape(k, -1)
        expected = design @ h_e.ravel(order="F")
        np.testing.assert_allclose(_downlink_forward(sched, h_e), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 5), (7, 4)])
    def test_observe_rejects_a_mismatched_cascade(self, shape):
        sched, _, _ = self._case(12, seed=60)
        rng = np.random.default_rng(61)
        wrong = cascaded_downlink(np.ones(shape[0], dtype=complex),
                                  rng.standard_normal(shape) + 0j)
        with pytest.raises(ValueError, match=re.escape(f"(6, 4) for this schedule, got {shape}")):
            downlink_observe(wrong, sched, 0.0)


class TestUplinkObserve:
    def _setup(self, noise_var=0.0, seed=20, q=2, t=3, k=8):
        rng = np.random.default_rng(seed)
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=k, q_users=q, t_symbols=t)
        chan = sample_channel(dims, rng)
        g_up = chan.g_uplink()
        sched = make_uplink_schedule(dims)
        obs = uplink_observe(g_up, chan.h_users, sched, noise_var, rng if noise_var else None)
        return chan, g_up, sched, obs

    def test_single_user_single_symbol_block(self):
        rng = np.random.default_rng(21)
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=1, t_symbols=1)
        chan = sample_channel(dims, rng)
        g_up = chan.g_uplink()
        sched = make_uplink_schedule(dims)
        obs = uplink_observe(g_up, chan.h_users, sched, 0.0)
        for k in range(8):
            theta_k = sched.phases[k]
            expected = g_up @ (theta_k * chan.h_users[0]) * sched.user_pilots[0, 0]
            np.testing.assert_allclose(obs.values[k, :, 0], expected, atol=1e-13)

    def test_matches_per_user_accumulation(self):
        chan, g_up, sched, obs = self._setup()
        brute = np.zeros_like(obs.values)
        for k in range(len(sched.phases)):
            for q in range(sched.q_users):
                diag = sched.phases[k] * chan.h_users[q]
                brute[k] += np.outer(g_up @ diag, sched.user_pilots[q])
        np.testing.assert_allclose(obs.values, brute, atol=1e-12)

    @pytest.mark.parametrize("k, q, t", [(8, 2, 3), (7, 1, 1), (6, 3, 3), (9, 2, 5)])
    def test_matches_brute_force_on_full_rank_g(self, k, q, t):
        # any (n_bs, m_ris) channel, not only the rank-one line of sight
        rng = np.random.default_rng(23)
        g_up = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h_users = rng.standard_normal((q, 6)) + 1j * rng.standard_normal((q, 6))
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=k, q_users=q,
                                                t_symbols=t))
        values = uplink_observe(g_up, h_users, sched, 0.0).values
        assert values.shape == (k, 4, t) and values.flags.c_contiguous
        for kk in range(k):
            expected = sum(np.outer(g_up @ (sched.phases[kk] * h_users[qq]),
                                    sched.user_pilots[qq]) for qq in range(q))
            np.testing.assert_allclose(values[kk], expected, rtol=0, atol=1e-12)

    def test_rejects_one_dimensional_users(self):
        chan, g_up, sched, _ = self._setup()
        with pytest.raises(ValueError, match=r"h_users \(6,\)"):
            uplink_observe(g_up, chan.h_users[0], sched, 0.0)

    def test_rejects_user_count_mismatch(self):
        chan, g_up, sched, _ = self._setup(q=2)
        with pytest.raises(ValueError, match=r"\(2, 6\).*h_users \(3, 6\)"):
            uplink_observe(g_up, np.vstack([chan.h_users, chan.h_users[:1]]), sched, 0.0)

    def test_rejects_ris_size_mismatch(self):
        chan, g_up, sched, _ = self._setup()
        with pytest.raises(ValueError, match=r"g_uplink \(4, 5\)"):
            uplink_observe(g_up[:, :5], chan.h_users, sched, 0.0)

    def test_rejects_downlink_schedule(self):
        chan, g_up, _, _ = self._setup()
        downlink = make_pilot_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=8),
                                       np.random.default_rng(24))
        with pytest.raises(ValueError, match="UplinkSchedule, got PilotSchedule"):
            uplink_observe(g_up, chan.h_users, downlink, 0.0)

    def test_negative_noise_variance_rejected(self):
        chan, g_up, sched, _ = self._setup()
        with pytest.raises(ValueError, match="noise_var"):
            uplink_observe(g_up, chan.h_users, sched, -1.0)

    def test_reproducible_noise(self):
        chan, g_up, sched, _ = self._setup()
        a = uplink_observe(g_up, chan.h_users, sched, 0.3, np.random.default_rng(22))
        b = uplink_observe(g_up, chan.h_users, sched, 0.3, np.random.default_rng(22))
        np.testing.assert_array_equal(a.values, b.values)


class TestDespread:
    def _setup(self, noise_var=0.0, seed=30, q=2, t=4, k=10):
        rng = np.random.default_rng(seed)
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=k, q_users=q, t_symbols=t)
        chan = sample_channel(dims, rng)
        g_up = chan.g_uplink()
        sched = make_uplink_schedule(dims)
        obs = uplink_observe(g_up, chan.h_users, sched, noise_var, rng if noise_var else None)
        return chan, g_up, sched, obs

    def test_noiseless_recovers_per_user_model(self):
        chan, g_up, sched, obs = self._setup()
        for q, s_q in enumerate(despread(obs, sched)):
            expected = (g_up * chan.h_users[q][None, :]) @ sched.phases.T
            np.testing.assert_allclose(s_q, expected, atol=1e-10)

    def test_matches_per_user_loop(self):
        _, _, sched, obs = self._setup(noise_var=0.4, q=3, t=5)
        batched = despread(obs, sched)
        assert batched.shape == (3, 4, 10)
        for q in range(3):
            for k in range(10):
                expected = obs.values[k] @ sched.user_pilots[q].conj() / 5
                np.testing.assert_allclose(batched[q, :, k], expected, atol=1e-13)

    def test_other_users_cancel_exactly(self):
        # user 1 transmitting alone must not leak into user 0's despread output
        chan, g_up, sched, obs = self._setup()
        solo = uplink_observe(
            g_up, np.stack([np.zeros(6, dtype=complex), chan.h_users[1]]), sched, 0.0
        )
        leak = despread(solo, sched)[0]
        assert np.abs(leak).max() <= 1e-10

    def test_noise_variance_scales_with_symbols(self):
        rng = np.random.default_rng(31)
        dims = SystemDims(n_bs=5, m_ris=4, k_pilots=500, q_users=2, t_symbols=4)
        sched = make_uplink_schedule(dims)
        zero_users = np.zeros((2, 4), dtype=complex)
        noise_var = 0.8
        samples = []
        for _ in range(5):
            obs = uplink_observe(np.zeros((5, 4), dtype=complex), zero_users, sched, noise_var, rng)
            samples.append(despread(obs, sched)[0].ravel())
        empirical = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert abs(empirical / (noise_var / 4) - 1.0) <= 0.05

    def test_linearity(self):
        chan, g_up, sched, obs = self._setup()
        doubled = ObservationSet(values=2.0 * obs.values)
        np.testing.assert_allclose(
            despread(doubled, sched)[1], 2.0 * despread(obs, sched)[1], atol=1e-12
        )

    def test_rejects_downlink_observations(self):
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=8))
        flat = ObservationSet(values=np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            despread(flat, sched)

    def test_rejects_block_count_mismatch(self):
        # K = 8 data against a K = 10 schedule
        _, _, _, obs = self._setup(k=8)
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=10, q_users=2,
                                                t_symbols=4))
        with pytest.raises(ValueError, match=r"\(10, n_bs, 4\).*got \(8, 4, 4\)"):
            despread(obs, sched)

    def test_rejects_symbol_count_mismatch(self):
        _, _, _, obs = self._setup(t=4)
        sched = make_uplink_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=10, q_users=2,
                                                t_symbols=3))
        with pytest.raises(ValueError, match=r"\(10, n_bs, 3\).*got \(10, 4, 4\)"):
            despread(obs, sched)

    def test_rejects_downlink_schedule(self):
        _, _, _, obs = self._setup()
        downlink = make_pilot_schedule(SystemDims(n_bs=4, m_ris=6, k_pilots=10),
                                       np.random.default_rng(32))
        with pytest.raises(ValueError, match="UplinkSchedule, got PilotSchedule"):
            despread(obs, downlink)
