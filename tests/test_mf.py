import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rismf import (
    MfConfig,
    PilotSchedule,
    SystemDims,
    array_response,
    cascaded_downlink,
    despread,
    dft_phase_schedule,
    downlink_observe,
    estimate_single_user,
    lr_rankone,
    make_pilot_schedule,
    nmse,
    random_phase_schedule,
    random_pilots,
    sample_channel,
    simulate_downlink,
    simulate_uplink,
)
from rismf.channel import steering_matrix
from rismf.mf import (
    _angle_coefficients,
    _scaled_lstsq,
    am_iterate,
    gd_gradients,
    gd_iterate,
    init_psi,
    ls_a_bar,
    manifold_coefficients,
    maximize_over_manifold,
    objective,
    spectral_matrix,
)
from rismf.signals import ObservationSet


def circular_distance(a, b):
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def make_case(seed, n_bs=16, m_ris=32, k=64, noise_var=0.0):
    rng = np.random.default_rng(seed)
    dims = SystemDims(n_bs=n_bs, m_ris=m_ris, k_pilots=k)
    chan = sample_channel(dims, rng)
    sched = make_pilot_schedule(dims, rng)
    cas = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
    obs = downlink_observe(cas, sched, noise_var, rng if noise_var else None)
    return chan, sched, cas, obs


class TestObjective:
    def test_zero_at_ground_truth(self):
        chan, sched, cas, obs = make_case(101)
        value = objective(cas.a_bar, chan.psi, obs, sched)
        assert value <= 1e-18 * np.sum(np.abs(obs.values) ** 2)

    def test_zero_vector_gives_data_energy(self):
        _, sched, _, obs = make_case(102)
        value = objective(np.zeros(32, dtype=complex), 0.3, obs, sched)
        np.testing.assert_allclose(value, np.sum(np.abs(obs.values) ** 2), rtol=1e-12)

    def test_matches_term_by_term_sum(self):
        _, sched, _, obs = make_case(103, k=40)
        rng = np.random.default_rng(104)
        a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = 0.42
        a_b = array_response(16, psi)
        brute = sum(
            abs(sched.phases[k] @ a_bar * (a_b.conj() @ sched.pilots[k]) - obs.values[k]) ** 2
            for k in range(40)
        )
        np.testing.assert_allclose(objective(a_bar, psi, obs, sched), brute, rtol=1e-12)


class TestSpectralMatrix:
    def test_single_slot_construction(self):
        pilots = np.zeros((1, 4), dtype=complex)
        pilots[0, 0] = 1.0
        phases = np.ones((1, 6), dtype=complex)
        sched = PilotSchedule(pilots=pilots, phases=phases)
        obs = ObservationSet(values=np.array([1.0 + 0j]), noise_var=0.0)
        s = spectral_matrix(obs, sched)
        expected = np.sqrt(4) * np.outer(phases[0].conj(), pilots[0].conj())
        np.testing.assert_allclose(s, expected, atol=1e-14)

    def test_zero_observations_give_zero_matrix(self):
        _, sched, _, obs = make_case(111)
        zero = ObservationSet(values=np.zeros_like(obs.values), noise_var=0.0)
        assert np.all(spectral_matrix(zero, sched) == 0.0)

    def test_matches_loop_accumulation(self):
        _, sched, _, obs = make_case(112, k=40)
        s = spectral_matrix(obs, sched)
        brute = np.zeros((32, 16), dtype=complex)
        for k in range(40):
            brute += obs.values[k] * np.outer(sched.phases[k].conj(), sched.pilots[k].conj())
        brute *= np.sqrt(16) / 40
        np.testing.assert_allclose(s, brute, atol=1e-13)


def manifold_score(gram, linear, angles):
    """Direct evaluation of ``a_b^H G a_b + 2 Re(a_b^H w)`` on an angle grid."""
    steer = steering_matrix(gram.shape[0], angles)
    value = np.einsum("ia,ij,ja->a", steer.conj(), gram, steer).real
    if linear is not None:
        value += 2.0 * (steer.conj().T @ linear).real
    return value


def angle_objectives(seed):
    """The three (G, w) pairs the callers hand to the search, on one N=16 cell."""
    rng = np.random.default_rng(seed)
    _, sched, _, obs = make_case(seed, noise_var=float(rng.uniform(0.01, 3.0)))
    s = spectral_matrix(obs, sched)
    a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    scaled = ((sched.phases @ a_bar)[:, None] * sched.pilots).T
    uplink_dims = SystemDims(n_bs=16, m_ris=32, k_pilots=64, q_users=3, t_symbols=3)
    _, up_sched, up_obs = simulate_uplink(uplink_dims, obs.noise_var, rng)
    z = np.hstack(despread(up_obs, up_sched))
    return {
        "spectral": (s.conj().T @ s, None),
        "am": (-(scaled @ scaled.conj().T), scaled @ obs.values.conj()),
        "uplink": (z @ z.conj().T, None),
    }


class TestManifoldSearch:
    def test_finds_spectral_score_peak(self):
        _, sched, _, obs = make_case(121)
        s = spectral_matrix(obs, sched)
        gram = s.conj().T @ s
        found = maximize_over_manifold(manifold_coefficients(gram))
        fine = np.linspace(0.0, 1.0, 50_000, endpoint=False)
        best = fine[np.argmax(manifold_score(gram, None, fine))]
        assert circular_distance(found, best) <= 2e-5

    def test_peak_near_wraparound(self):
        target = 0.9995
        a_star = array_response(16, target)
        found = maximize_over_manifold(manifold_coefficients(np.outer(a_star, a_star.conj())))
        assert circular_distance(found, target) <= 1e-9
        assert 0.0 <= found < 1.0

    def test_constant_score_returns_valid_angle(self):
        found = maximize_over_manifold(manifold_coefficients(np.zeros((16, 16), dtype=complex)))
        assert 0.0 <= found < 1.0

    # On cells 961 and 1075 the best point of the 8N grid sits on the wrong
    # lobe, so these two fail if only the grid argmax is polished.
    @pytest.mark.parametrize("seed", [900, 901, 902, 961, 1075])
    def test_never_below_a_dense_grid(self, seed):
        fine = np.arange(20_000) / 20_000
        for name, (gram, linear) in angle_objectives(seed).items():
            grid_best = manifold_score(gram, linear, fine).max()
            coef = manifold_coefficients(gram)
            if linear is not None:
                coef += 2.0 * linear / np.sqrt(len(coef))
            found = manifold_score(gram, linear, [maximize_over_manifold(coef)])[0]
            assert found >= grid_best - 1e-12 * abs(grid_best), name


def polynomial_score(coef, angles):
    """Direct evaluation of ``Re sum_d coef[d] exp(2j pi psi d)`` on an angle grid."""
    lags = np.arange(len(coef))
    return (np.exp(2j * np.pi * np.outer(angles, lags)) @ coef).real


@st.composite
def score_coefficients(draw):
    """Random coefficient vectors, N from 2 to 64; half have twin lobes equal up to 1e-9.

    Real coefficients give a score symmetric about 0, so every lobe has an
    equal twin; a shift moves the pair off the grid, and a 1e-9 perturbation
    makes one of the two slightly higher.
    """
    n = draw(st.integers(min_value=2, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    decay = (1.0 + np.arange(n)) ** -draw(st.floats(min_value=0.0, max_value=2.0))
    if draw(st.booleans()):
        shift = np.exp(-2j * np.pi * np.arange(n) * rng.uniform())
        coef = rng.standard_normal(n) * decay * shift
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coef = coef + 1e-9 * np.abs(coef).sum() * noise
    else:
        coef = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
    return coef * 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))


class TestPrunedPolish:
    """Only the grid peaks within the curvature bound of the grid maximum are polished."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coef=score_coefficients())
    @example(coef=np.array([0.0, 1.0, 0.0, 1.0 + 1e-9]))  # exactly equal twins
    def test_score_never_below_a_dense_grid(self, coef):
        fine = np.arange(256 * len(coef)) / (256 * len(coef))
        found = polynomial_score(coef, [maximize_over_manifold(coef)])[0]
        assert found >= polynomial_score(coef, fine).max() - 1e-12 * np.abs(coef).sum()


class TestAngleCoefficients:
    """The AM angle step builds its score from the pilot autocorrelation."""

    @pytest.mark.parametrize("kind", ["random", "dft"])
    @pytest.mark.parametrize("n_bs", [1, 2, 4, 32])
    @pytest.mark.parametrize("k", [8, 40])
    def test_match_the_gram_diagonal_sums(self, kind, n_bs, k):
        rng = np.random.default_rng(191)
        pilots = random_pilots(n_bs, k, rng)
        phases = random_phase_schedule(8, k, rng) if kind == "random" else dft_phase_schedule(8, k)
        sched = PilotSchedule(pilots, phases)
        a_bar = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        scaled = ((sched.phases @ a_bar)[:, None] * sched.pilots).T
        reference = manifold_coefficients(-(scaled @ scaled.conj().T))
        reference += 2.0 * (scaled @ values.conj()) / np.sqrt(n_bs)
        coef = _angle_coefficients(a_bar, ObservationSet(values=values, noise_var=0.1), sched)
        assert np.linalg.norm(coef - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_autocorrelation_computed_once_per_schedule(self, monkeypatch):
        prop = PilotSchedule.__dict__["autocorrelation"]
        calls = []
        original = prop.func
        monkeypatch.setattr(prop, "func", lambda sched: calls.append(1) or original(sched))
        _, sched, _, obs = make_case(192, noise_var=0.1)
        first = estimate_single_user(obs, sched)
        second = estimate_single_user(obs, sched)
        assert first.iters_used >= 2
        np.testing.assert_array_equal(first.h_e_hat, second.h_e_hat)
        assert len(calls) == 1


class TestInitPsi:
    def test_exact_rank_one_input(self):
        rng = np.random.default_rng(131)
        target = 0.345678
        a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = np.outer(a, array_response(16, target).conj())
        assert circular_distance(init_psi(s), target) <= 1e-6

    def test_noiseless_square_pilot_budget(self):
        # the spectral statistic carries finite-sample schedule noise, so the
        # angle lands near, not on, the truth even without receiver noise
        errs = []
        for seed in range(15):
            chan, sched, cas, obs = make_case(1000 + seed, k=32)
            errs.append(circular_distance(init_psi(spectral_matrix(obs, sched)), chan.psi))
        assert np.median(errs) <= 2e-2

    def test_noisy_oversampled_pilot_budget(self):
        errs = []
        for seed in range(30):
            chan, sched, cas, obs = make_case(2000 + seed, k=128, noise_var=1.0)
            errs.append(circular_distance(init_psi(spectral_matrix(obs, sched)), chan.psi))
        assert np.median(errs) <= 0.25

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            init_psi(np.zeros((32, 16), dtype=complex))


class TestLsABar:
    def test_recovers_factor_at_true_angle(self):
        chan, sched, cas, obs = make_case(141)
        a_hat = ls_a_bar(chan.psi, obs, sched)
        rel = np.linalg.norm(a_hat - cas.a_bar) / np.linalg.norm(cas.a_bar)
        assert rel <= 1e-10

    def test_zero_observations_give_zero(self):
        _, sched, _, obs = make_case(142)
        zero = ObservationSet(values=np.zeros_like(obs.values), noise_var=0.0)
        assert np.linalg.norm(ls_a_bar(0.37, zero, sched)) <= 1e-12

    def test_underdetermined_rejected(self):
        _, sched, _, obs = make_case(143, k=31)
        with pytest.raises(ValueError):
            ls_a_bar(0.37, obs, sched)


class TestScaledLstsq:
    """The shared LS step of the a_bar update and both LR half steps."""

    @pytest.mark.parametrize("snr_db,k", [(-10.0, 400), (0.0, 400), (20.0, 400), (0.0, 50)])
    def test_matches_orthogonal_lstsq(self, snr_db, k):
        dims = SystemDims(n_bs=32, m_ris=50, k_pilots=k)
        rng = np.random.default_rng(151)
        cas, sched, obs = simulate_downlink(dims, 10.0 ** (-snr_db / 10.0), rng)
        for psi in (cas.psi, 0.37):
            gains = sched.pilots @ array_response(32, psi).conj()
            reference = np.linalg.lstsq(gains[:, None] * sched.phases, obs.values, rcond=None)[0]
            solution = _scaled_lstsq(gains, sched.phases, obs.values)
            assert np.linalg.norm(solution - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_tall_rank_deficient_design_rejected(self):
        dims = SystemDims(n_bs=32, m_ris=50, k_pilots=400)
        _, sched, obs = simulate_downlink(dims, 0.1, np.random.default_rng(152))
        phases = sched.phases.copy()
        phases[:, -1] = phases[:, 0]  # the last RIS element repeats the first
        repeated = PilotSchedule(pilots=sched.pilots, phases=phases)
        with pytest.raises(ValueError, match="rank deficient"):
            ls_a_bar(0.37, obs, repeated)
        with pytest.raises(ValueError, match="rank deficient"):
            lr_rankone(obs, repeated)

    def test_ill_conditioned_gram_rejected(self):
        # Cholesky succeeds on this Gram (condition 1e14); the condition estimate does not
        rng = np.random.default_rng(153)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6)))
        values = rng.standard_normal(40) + 0j
        gains = np.ones(40)
        _scaled_lstsq(gains, basis * np.logspace(0, -5, 6), values)
        with pytest.raises(ValueError, match="rank deficient"):
            _scaled_lstsq(gains, basis * np.logspace(0, -7, 6), values)


class TestAmIterate:
    def test_ground_truth_is_fixed_point(self):
        for seed in range(3):
            chan, sched, cas, obs = make_case(8000 + seed)
            value = objective(cas.a_bar, chan.psi, obs, sched)
            a_bar, psi, _ = am_iterate(cas.a_bar.copy(), chan.psi, value, obs, sched)
            rel = np.linalg.norm(a_bar - cas.a_bar) / np.linalg.norm(cas.a_bar)
            assert rel <= 1e-10
            assert circular_distance(psi, chan.psi) <= 1e-10

    def test_objective_never_increases(self):
        rng = np.random.default_rng(151)
        chan, sched, cas, obs = make_case(152, noise_var=1.0)
        a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = float(rng.uniform())
        value = objective(a_bar, psi, obs, sched)
        for _ in range(10):
            previous = objective(a_bar, psi, obs, sched)
            a_bar, psi, value = am_iterate(a_bar, psi, value, obs, sched)
            assert value <= previous * (1 + 1e-9) + 1e-12


class TestGdGradients:
    def test_stationary_at_noiseless_optimum(self):
        chan, sched, cas, obs = make_case(161)
        grad_re, grad_im, grad_psi = gd_gradients(cas.a_bar, chan.psi, obs, sched)
        assert max(np.abs(grad_re).max(), np.abs(grad_im).max(), abs(grad_psi)) <= 1e-8

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(162)
        _, sched, _, obs = make_case(163, noise_var=0.1)
        a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = float(rng.uniform())
        grad_re, grad_im, grad_psi = gd_gradients(a_bar, psi, obs, sched)
        step = 1e-6
        for idx in (0, 7, 31):
            bump = np.zeros(32)
            bump[idx] = step
            fd = (objective(a_bar + bump, psi, obs, sched)
                  - objective(a_bar - bump, psi, obs, sched)) / (2 * step)
            assert abs(fd - grad_re[idx]) <= 1e-5 * max(abs(fd), 1e-6)
            fd = (objective(a_bar + 1j * bump, psi, obs, sched)
                  - objective(a_bar - 1j * bump, psi, obs, sched)) / (2 * step)
            assert abs(fd - grad_im[idx]) <= 1e-5 * max(abs(fd), 1e-6)
        fd = (objective(a_bar, psi + step, obs, sched)
              - objective(a_bar, psi - step, obs, sched)) / (2 * step)
        assert abs(fd - grad_psi) <= 1e-5 * max(abs(fd), 1e-6)

    def test_angle_gradient_vanishes_at_zero_factor(self):
        _, sched, _, obs = make_case(164)
        _, _, grad_psi = gd_gradients(np.zeros(32, dtype=complex), 0.3, obs, sched)
        assert grad_psi == 0.0


class TestGdIterate:
    def test_backtracking_keeps_objective_monotone(self):
        chan, sched, cas, obs = make_case(173, noise_var=1.0)
        rng = np.random.default_rng(174)
        a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = float(rng.uniform())
        values = [objective(a_bar, psi, obs, sched)]
        for _ in range(50):
            a_bar, psi, value = gd_iterate(a_bar, psi, values[-1], obs, sched)
            values.append(value)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_noiseless_descent_makes_progress(self):
        # the shared-step descent moves slowly through the anisotropic valley;
        # it reliably reduces the misfit but does not reach exact recovery in
        # a few hundred steps
        for seed in (3000, 3001, 3002):
            chan, sched, cas, obs = make_case(seed)
            result = estimate_single_user(obs, sched, MfConfig(solver="gd", max_iters=500))
            assert result.objective_history[-1] < result.objective_history[0]
            hist = np.asarray(result.objective_history)
            assert np.all(np.diff(hist) <= 1e-12)
            assert nmse(cas.h_e, result.h_e_hat) <= 0.2


class TestEstimateSingleUser:
    def test_exact_recovery_with_double_pilots(self):
        for seed in (3000, 3001, 3002, 3003, 3004):
            chan, sched, cas, obs = make_case(seed)
            result = estimate_single_user(obs, sched)
            assert nmse(cas.h_e, result.h_e_hat) <= 1e-8
            assert result.converged
            assert result.iters_used <= 200

    def test_final_objective_not_above_initial(self):
        chan, sched, cas, obs = make_case(181, noise_var=1.0)
        result = estimate_single_user(obs, sched)
        assert result.objective_history[-1] <= result.objective_history[0]

    def test_underdetermined_rejected(self):
        _, sched, _, obs = make_case(182, k=31)
        with pytest.raises(ValueError):
            estimate_single_user(obs, sched)

    def test_reconstruction_identity(self):
        chan, sched, cas, obs = make_case(183, noise_var=0.5)
        result = estimate_single_user(obs, sched)
        rebuilt = np.outer(result.a_bar_hat, array_response(16, result.psi_hat).conj())
        rel = np.linalg.norm(rebuilt - result.h_e_hat) / np.linalg.norm(result.h_e_hat)
        assert rel <= 1e-12

    def test_deterministic_in_the_data(self):
        chan, sched, cas, obs = make_case(184, noise_var=0.5)
        a = estimate_single_user(obs, sched)
        b = estimate_single_user(obs, sched)
        np.testing.assert_array_equal(a.h_e_hat, b.h_e_hat)

    def test_unknown_solver_rejected(self):
        _, sched, _, obs = make_case(185)
        with pytest.raises(ValueError):
            estimate_single_user(obs, sched, MfConfig(solver="newton"))

    @pytest.mark.parametrize("solver", ["am", "gd"])
    def test_nan_data_rejected(self, solver):
        _, sched, _, obs = make_case(186, noise_var=0.1)
        values = obs.values.copy()
        values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_single_user(
                ObservationSet(values=values, noise_var=0.1), sched, MfConfig(solver=solver)
            )


class TestMfConfig:
    def test_solver_specific_iteration_defaults(self):
        assert MfConfig(solver="am").resolved_max_iters() == 200
        assert MfConfig(solver="gd").resolved_max_iters() == 2000
        assert MfConfig(solver="am", max_iters=7).resolved_max_iters() == 7
