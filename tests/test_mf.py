import threading

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
from rismf import baselines, mf
from rismf.mf import (
    _angle_coefficients,
    _gd_terms,
    _scaled_lstsq,
    am_iterate,
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
        obs = ObservationSet(values=np.array([1.0 + 0j]))
        s = spectral_matrix(obs, sched)
        expected = np.sqrt(4) * np.outer(phases[0].conj(), pilots[0].conj())
        np.testing.assert_allclose(s, expected, atol=1e-14)

    def test_zero_observations_give_zero_matrix(self):
        _, sched, _, obs = make_case(111)
        zero = ObservationSet(values=np.zeros_like(obs.values))
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
    steer = array_response(gram.shape[0], np.asarray(angles)[:, None]).T
    value = np.einsum("ia,ij,ja->a", steer.conj(), gram, steer).real
    if linear is not None:
        value += 2.0 * (steer.conj().T @ linear).real
    return value


def angle_objectives(seed):
    """The three (G, w) pairs the callers hand to the search, on one N=16 cell."""
    rng = np.random.default_rng(seed)
    noise_var = float(rng.uniform(0.01, 3.0))
    _, sched, _, obs = make_case(seed, noise_var=noise_var)
    s = spectral_matrix(obs, sched)
    a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    scaled = ((sched.phases @ a_bar)[:, None] * sched.pilots).T
    uplink_dims = SystemDims(n_bs=16, m_ris=32, k_pilots=64, q_users=3, t_symbols=3)
    _, up_sched, up_obs = simulate_uplink(uplink_dims, noise_var, rng)
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
        coef = _angle_coefficients(a_bar, ObservationSet(values=values), sched)
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
        zero = ObservationSet(values=np.zeros_like(obs.values))
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
        grad_a, grad_psi, _, _ = _gd_terms(cas.a_bar, chan.psi, obs, sched)
        grad_re, grad_im = grad_a.real, grad_a.imag
        assert max(np.abs(grad_re).max(), np.abs(grad_im).max(), abs(grad_psi)) <= 1e-8

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(162)
        _, sched, _, obs = make_case(163, noise_var=0.1)
        a_bar = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = float(rng.uniform())
        grad_a, grad_psi, _, _ = _gd_terms(a_bar, psi, obs, sched)
        grad_re, grad_im = grad_a.real, grad_a.imag
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
        _, grad_psi, _, _ = _gd_terms(np.zeros(32, dtype=complex), 0.3, obs, sched)
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

    def test_noiseless_descent_recovers_exactly(self):
        # the curvature-scaled steps reach the exact fit, as AM does, in under
        # 1100 sweeps on these cells
        for seed in (3000, 3001, 3002):
            chan, sched, cas, obs = make_case(seed)
            result = estimate_single_user(obs, sched, MfConfig(solver="gd"))
            assert result.converged
            assert np.all(np.diff(result.objective_history) <= 1e-12)
            assert nmse(cas.h_e, result.h_e_hat) <= 1e-20

    def test_zero_factor_leaves_angle_unchanged(self):
        # a_bar = 0 has zero angle curvature, so psi does not move and no
        # division by zero happens; a_bar still steps towards the data
        _, sched, _, obs = make_case(175, noise_var=0.1)
        zero = np.zeros(32, dtype=complex)
        value = objective(zero, 0.3, obs, sched)
        with np.errstate(all="raise"):
            a_bar, psi, new_value = gd_iterate(zero, 0.3, value, obs, sched)
        assert psi == 0.3
        assert new_value < value
        assert np.any(a_bar)

    def test_step_just_below_zero_wraps_into_range(self, monkeypatch):
        # (0.0 - 1e-18) % 1.0 rounds to 1.0, outside [0, 1)
        _, sched, _, obs = make_case(177)
        a_bar = np.ones(32, dtype=complex)
        monkeypatch.setattr(
            mf, "_gd_terms", lambda *args: (np.zeros(32, dtype=complex), 1e-18, 1.0, 1.0)
        )
        _, psi, _ = gd_iterate(a_bar, 0.0, np.inf, obs, sched)
        assert 0.0 <= psi < 1.0

    @pytest.mark.parametrize("x, wrapped", [(-1e-20, 0.0), (-0.0, 0.0), (1.0, 0.0), (2.75, 0.75)])
    def test_wrap_angle(self, x, wrapped):
        assert mf._wrap_angle(x) == wrapped

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0])
    def test_reaches_am_objective_at_paper_size(self, snr_db):
        dims = SystemDims(n_bs=32, m_ris=50, k_pilots=400)
        for seed in range(5):
            rng = np.random.default_rng([3100, seed])
            _, sched, obs = simulate_downlink(dims, 10.0 ** (-snr_db / 10.0), rng)
            am = estimate_single_user(obs, sched, MfConfig(solver="am"))
            gd = estimate_single_user(obs, sched, MfConfig(solver="gd"))
            assert gd.converged
            assert gd.objective_final <= am.objective_final * (1.0 + 1e-6)


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
                ObservationSet(values=values), sched, MfConfig(solver=solver)
            )

    @pytest.mark.parametrize("solver", ["am", "gd", "lr"])
    def test_zero_data_rejected(self, solver):
        # the one solve loop names the data, not the spectral matrix or the LS design
        _, sched, _, obs = make_case(187)
        zero = ObservationSet(values=np.zeros_like(obs.values))
        with pytest.raises(ValueError, match="observations are identically zero"):
            if solver == "lr":
                lr_rankone(zero, sched)
            else:
                estimate_single_user(zero, sched, MfConfig(solver=solver))


@pytest.mark.skipif(mf._NUMPY_BLAS is None, reason="numpy does not bundle OpenBLAS")
class TestOneBlasThread:
    """The iterative solvers run numpy's BLAS on one thread and restore the count."""

    SOLVERS = {
        "am": lambda obs, sched: estimate_single_user(obs, sched).h_e_hat,
        "gd": lambda obs, sched: estimate_single_user(obs, sched, MfConfig(solver="gd")).h_e_hat,
        "lr": lambda obs, sched: lr_rankone(obs, sched).h_e_hat,
    }

    @pytest.fixture
    def threads_seen(self, monkeypatch):
        """BLAS thread counts seen on entry to each solver (both call spectral_matrix first)."""
        get_threads, set_threads = mf._NUMPY_BLAS
        seen = []

        def recording(obs, sched):
            seen.append(get_threads())
            return spectral_matrix(obs, sched)

        monkeypatch.setattr(mf, "spectral_matrix", recording)
        monkeypatch.setattr(baselines, "spectral_matrix", recording)
        before = get_threads()
        set_threads(2)
        yield seen
        set_threads(before)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_one_thread_inside_count_restored_after(self, threads_seen, solver):
        _, sched, _, obs = make_case(187, noise_var=0.1)
        self.SOLVERS[solver](obs, sched)
        assert threads_seen == [1]
        assert mf._NUMPY_BLAS[0]() == 2

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_estimate_independent_of_callers_thread_count(self, threads_seen, solver):
        # at the paper's sizes two-thread products round differently from one-thread ones
        _, sched, _, obs = make_case(188, n_bs=32, m_ris=50, k=400, noise_var=0.1)
        estimates = []
        for count in (1, 2):
            mf._NUMPY_BLAS[1](count)
            estimates.append(self.SOLVERS[solver](obs, sched))
        np.testing.assert_array_equal(*estimates)

    def test_overlapping_calls_run_one_at_a_time(self, threads_seen, monkeypatch):
        # thread A is held inside its solve; B may enter only once A has left
        a_entered, release, b_entered = threading.Event(), threading.Event(), threading.Event()
        recording, objective_in = mf.spectral_matrix, mf.objective
        events = []

        def held(obs, sched):
            name = threading.current_thread().name
            events.append(name)
            if name == "A":
                a_entered.set()
                assert release.wait(timeout=30)
            else:
                b_entered.set()
            return recording(obs, sched)

        def traced_objective(*args):
            events.append(threading.current_thread().name)
            return objective_in(*args)

        monkeypatch.setattr(mf, "spectral_matrix", held)
        monkeypatch.setattr(baselines, "spectral_matrix", held)
        monkeypatch.setattr(mf, "objective", traced_objective)
        _, sched, _, obs = make_case(189, noise_var=0.1)
        workers = {name: threading.Thread(target=self.SOLVERS[solver], args=(obs, sched),
                                          name=name)
                   for name, solver in (("A", "am"), ("B", "lr"))}
        workers["A"].start()
        try:
            assert a_entered.wait(timeout=30)
            workers["B"].start()
            assert not b_entered.wait(timeout=0.5)
        finally:
            release.set()
            for worker in workers.values():
                if worker.ident is not None:  # started
                    worker.join(timeout=60)
                    assert not worker.is_alive()
        # every step of A's solve (its start and each objective) precedes B's entry
        assert events[0] == "A" and events.count("B") == 1
        assert events.index("B") == len(events) - 1
        assert threads_seen == [1, 1]
        assert mf._NUMPY_BLAS[0]() == 2


def _stop_rule_held(prev: float, curr: float, obs) -> bool:
    """The solvers' stop rule, restated: a relative decrease of at most 1e-10,
    or a misfit at the rounding floor of the data energy."""
    energy = max(float(np.sum(np.abs(obs.values) ** 2)), np.finfo(float).tiny)
    return curr <= np.finfo(float).eps ** 2 * 1e6 * energy or prev - curr <= 1e-10 * prev


class TestConvergedContract:
    """``converged`` is set exactly when the stop rule held; otherwise the cap was hit."""

    @pytest.mark.parametrize("noise_var", [0.0, 0.1])
    @pytest.mark.parametrize(
        "solver, max_iters", [("am", None), ("am", 1), ("gd", None), ("gd", 1), ("lr", None)]
    )
    def test_flag_means_the_stop_rule_held(self, solver, max_iters, noise_var):
        _, sched, _, obs = make_case(190, noise_var=noise_var)
        if solver == "lr":
            result, cap = lr_rankone(obs, sched), baselines._LR_MAX_ITERS
        else:
            config = MfConfig(solver=solver, max_iters=max_iters)
            result, cap = estimate_single_user(obs, sched, config), config.resolved_max_iters()
        history = result.objective_history
        pairs = list(zip(history[:-1], history[1:]))
        assert not any(_stop_rule_held(prev, curr, obs) for prev, curr in pairs[:-1])
        assert result.converged == _stop_rule_held(*pairs[-1], obs)
        assert result.iters_used <= cap
        if not result.converged:
            assert result.iters_used == cap


    def test_noiseless_am_converges(self):
        # plain AM contracted by about 0.3 % a sweep here and ran to its cap
        _, sched, cas, obs = make_case(190)
        result = estimate_single_user(obs, sched)
        assert result.converged
        assert nmse(cas.h_e, result.h_e_hat) <= 1e-20

    def test_am_reaches_the_gd_optimum_at_minus_5_db(self):
        # plain AM stopped at its cap 1.36e-3 above GD's optimum on this cell
        dims = SystemDims(n_bs=32, m_ris=50, k_pilots=400)
        _, sched, obs = simulate_downlink(dims, 10.0 ** 0.5, np.random.default_rng([17, 950, 10]))
        am = estimate_single_user(obs, sched)
        gd = estimate_single_user(obs, sched, MfConfig(solver="gd"))
        assert am.converged
        assert am.objective_final <= gd.objective_final * (1.0 + 1e-9)


class TestAitkenSweep:
    """AM's sweep: one ``am_iterate``, and every second sweep a guarded
    Aitken jump of the angle that is kept only if it does not raise the misfit."""

    def test_first_sweep_is_one_plain_sweep(self):
        _, sched, _, obs = make_case(176, noise_var=0.1)
        result = estimate_single_user(obs, sched, MfConfig(max_iters=1))
        a_bar, psi, value = mf._spectral_start(obs, sched)
        a_bar, psi, swept = am_iterate(a_bar, psi, value, obs, sched)
        np.testing.assert_array_equal(result.a_bar_hat, a_bar)
        assert result.psi_hat == psi
        assert result.objective_history == [value, swept]

    @pytest.mark.parametrize(
        "snr_db, k",
        [(snr, 400) for snr in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)]
        + [(10.0, k) for k in (51, 52, 55)],
    )
    def test_never_above_plain_am(self, snr_db, k):
        # the se-ordering SNR grid at the paper's size, and cells near the pilot
        # floor. There the misfit can have minima closer than the jump's reach,
        # and a jump can land in a worse one: 4 of 300 cells at K = 51-55 did
        # (master seed 777, 10 dB). Near the floor this checks these fixed cells
        # only; the contract does not hold on every cell there
        dims = SystemDims(n_bs=32, m_ris=50, k_pilots=k)
        for cell in range(3 if k == 400 else 5):
            rng = np.random.default_rng([3300, int(snr_db) + 10, k, cell])
            _, sched, obs = simulate_downlink(dims, 10.0 ** (-snr_db / 10.0), rng)
            result = estimate_single_user(obs, sched)
            _, plain, _ = mf._solve(mf._spectral_start, am_iterate, obs, sched, 200)
            history = np.array(result.objective_history)
            assert np.all(np.diff(history) <= 0.0)
            assert history[-1] <= plain[-1] * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "angles, expected",
        [
            ((0.30, 0.34, 0.36), 0.38),  # steps 0.04, 0.02: the limit is 0.02 further
            ((0.98, 0.995, 0.0025), 0.01),  # the same contraction across psi = 0
            ((0.30, 0.34, 0.33), None),  # the steps change direction
            ((0.30, 0.32, 0.36), None),  # the steps grow
            ((0.30, 0.30, 0.30), None),  # no step
            ((0.30, 0.40, 0.49), None),  # the Aitken step, 0.81, exceeds 1 / (8 n_bs)
        ],
    )
    def test_jump_guards(self, angles, expected):
        jump = mf._aitken_angle(*angles, n_bs=2)
        if expected is None:
            assert jump is None
        else:
            assert jump == pytest.approx(expected, abs=1e-12)


class TestMfConfig:
    def test_solver_specific_iteration_defaults(self):
        assert MfConfig(solver="am").resolved_max_iters() == 200
        assert MfConfig(solver="gd").resolved_max_iters() == 2000
        assert MfConfig(solver="am", max_iters=7).resolved_max_iters() == 7

    @pytest.mark.parametrize(
        "kwargs",
        [{"solver": "newton"}, {"max_iters": 1.5}, {"max_iters": "3"}, {"max_iters": True},
         {"max_iters": 0}, {"max_iters": -1}, {"solver": "gd", "max_iters": 2.0}],
    )
    def test_bad_config_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError):
            MfConfig(**kwargs)
