import numpy as np
import pytest

from rismf import (
    SystemDims,
    array_response,
    cascaded_downlink,
    cascaded_uplink,
    complex_normal,
    sample_channel,
)


class TestArrayResponse:
    def test_single_element(self):
        np.testing.assert_allclose(array_response(1, 0.37), [1.0 + 0j])

    def test_two_elements_half_turn(self):
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        np.testing.assert_allclose(array_response(2, 0.5), expected, atol=1e-15)

    def test_four_elements_quarter_turn(self):
        expected = 0.5 * np.array([1.0, -1j, -1.0, 1j])
        np.testing.assert_allclose(array_response(4, 0.25), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_unit_norm(self, n):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(size=5):
            assert abs(np.linalg.norm(array_response(n, angle)) - 1.0) <= 1e-12

    def test_periodic_in_angle(self):
        for angle in (0.0, 0.31, 0.999):
            np.testing.assert_allclose(
                array_response(8, angle), array_response(8, angle + 1.0), atol=1e-12
            )


class TestComplexNormal:
    @pytest.mark.parametrize("shape", [1, (5, 50), (40, 32, 5)])
    def test_bit_identical_to_the_sum_expression(self, shape):
        # the draws fill one complex array; the bits are those of scale * (re + 1j * im)
        for var in (1.0, 0.37, 32.0):
            ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
            scale = np.sqrt(var / 2.0)
            re, im = ref_rng.standard_normal(shape), ref_rng.standard_normal(shape)
            expected = scale * (re + 1j * im)
            drawn = complex_normal(rng, shape, var=var)
            assert drawn.shape == expected.shape and drawn.flags.c_contiguous
            np.testing.assert_array_equal(drawn.view(float), expected.view(float))

    def test_scalar_without_shape(self):
        drawn = complex_normal(np.random.default_rng(8))
        re, im = np.random.default_rng(8).standard_normal(2)
        assert drawn == np.sqrt(0.5) * (re + 1j * im)

    @pytest.mark.parametrize("var", [-1.0, np.nan, np.inf])
    def test_bad_variance_rejected_before_any_draw(self, var):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^var must be finite and nonnegative"):
            complex_normal(rng, 2, var=var)
        assert rng.bit_generator.state == state


class TestSystemDims:
    def test_defaults(self):
        dims = SystemDims(n_bs=4, m_ris=6)
        assert (dims.k_pilots, dims.q_users, dims.t_symbols) == (1, 1, 1)

    @pytest.mark.parametrize("field", ["n_bs", "m_ris", "k_pilots", "q_users", "t_symbols"])
    def test_rejects_nonpositive(self, field):
        good = dict(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=3)
        with pytest.raises(ValueError):
            SystemDims(**{**good, field: 0})

    @pytest.mark.parametrize("field", ["n_bs", "m_ris", "k_pilots", "q_users", "t_symbols"])
    def test_rejects_bool(self, field):
        # True == 1, but a flag is not a count
        good = dict(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=3)
        with pytest.raises(ValueError, match=field):
            SystemDims(**{**good, field: True})

    def test_accepts_numpy_integers(self):
        assert SystemDims(n_bs=np.int64(4), m_ris=np.int32(6)).m_ris == 6


class TestSampleChannel:
    def test_deterministic_given_seed(self):
        dims = SystemDims(n_bs=8, m_ris=16)
        a = sample_channel(dims, np.random.default_rng(11))
        b = sample_channel(dims, np.random.default_rng(11))
        np.testing.assert_array_equal(a.g_matrix, b.g_matrix)
        np.testing.assert_array_equal(a.h_r, b.h_r)
        assert a.psi == b.psi and a.phi == b.phi and a.beta_br == b.beta_br

    def test_draw_order_is_the_seed_contract(self):
        # every seeded sweep and acceptance line depends on these exact draws
        for n, m, q in [(8, 16, 1), (4, 6, 3), (32, 50, 5)]:
            chan_rng, raw_rng = np.random.default_rng(40 + q), np.random.default_rng(40 + q)
            chan = sample_channel(SystemDims(n_bs=n, m_ris=m, q_users=q), chan_rng)
            psi = raw_rng.uniform(size=1)[0]
            phi = raw_rng.uniform(size=1)[0]
            beta = complex_normal(raw_rng, 1, var=n)[0]
            h_users = complex_normal(raw_rng, (q, m))
            assert (chan.psi, chan.phi, chan.beta_br) == (psi, phi, beta)
            g = beta * np.outer(array_response(m, phi), array_response(n, psi).conj())
            np.testing.assert_array_equal(chan.g_matrix, g)
            np.testing.assert_array_equal(chan.h_users, h_users)
            assert chan_rng.uniform() == raw_rng.uniform()
            g_up = beta * np.outer(array_response(n, psi), array_response(m, phi).conj())
            np.testing.assert_array_equal(chan.g_uplink(), g_up)

    def test_g_matrix_is_rank_one(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            chan = sample_channel(SystemDims(n_bs=8, m_ris=16), rng)
            s = np.linalg.svd(chan.g_matrix, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_angles_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            chan = sample_channel(SystemDims(n_bs=4, m_ris=4), rng)
            assert 0.0 <= chan.psi < 1.0 and 0.0 <= chan.phi < 1.0

    def test_ris_ue_link_power(self):
        # i.i.d. CN(0,1) entries: E||h_r||^2 = m_ris
        rng = np.random.default_rng(14)
        dims = SystemDims(n_bs=2, m_ris=8)
        total = sum(
            np.linalg.norm(sample_channel(dims, rng).h_r) ** 2 for _ in range(10_000)
        )
        assert abs(total / 10_000 / dims.m_ris - 1.0) <= 0.03


class TestCascadedDownlink:
    def test_all_ones_ris_link_passes_g_through(self):
        rng = np.random.default_rng(21)
        chan = sample_channel(SystemDims(n_bs=4, m_ris=6), rng)
        cas = cascaded_downlink(np.ones(6, dtype=complex), chan.g_matrix)
        np.testing.assert_allclose(cas.h_e, chan.g_matrix, atol=1e-15)

    def test_basis_vector_selects_single_row(self):
        rng = np.random.default_rng(22)
        chan = sample_channel(SystemDims(n_bs=4, m_ris=6), rng)
        e1 = np.zeros(6, dtype=complex)
        e1[0] = 1.0
        cas = cascaded_downlink(e1, chan.g_matrix)
        np.testing.assert_allclose(cas.h_e[0], chan.g_matrix[0], atol=1e-15)
        assert np.all(cas.h_e[1:] == 0.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(23)
        chan = sample_channel(SystemDims(n_bs=5, m_ris=7), rng)
        cas = cascaded_downlink(chan.h_r, chan.g_matrix)
        brute = np.empty_like(chan.g_matrix)
        for m in range(7):
            for n in range(5):
                brute[m, n] = np.conj(chan.h_r[m]) * chan.g_matrix[m, n]
        np.testing.assert_allclose(cas.h_e, brute, atol=1e-14)

    def test_rank_one_factorization_reconstructs(self):
        rng = np.random.default_rng(24)
        chan = sample_channel(SystemDims(n_bs=8, m_ris=12), rng)
        cas = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
        rebuilt = np.outer(cas.a_bar, array_response(8, chan.psi).conj())
        err = np.linalg.norm(rebuilt - cas.h_e) / np.linalg.norm(cas.h_e)
        assert err <= 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        chan = sample_channel(SystemDims(n_bs=4, m_ris=6), rng)
        with pytest.raises(ValueError):
            cascaded_downlink(np.ones(5, dtype=complex), chan.g_matrix)


class TestCascadedUplink:
    def test_all_ones_ue_link_passes_g_through(self):
        rng = np.random.default_rng(31)
        chan = sample_channel(SystemDims(n_bs=4, m_ris=6), rng)
        g_up = chan.g_uplink()
        cas = cascaded_uplink(g_up, np.ones(6, dtype=complex))
        np.testing.assert_allclose(cas.h_e, g_up, atol=1e-15)

    def test_basis_vector_selects_single_column(self):
        rng = np.random.default_rng(32)
        chan = sample_channel(SystemDims(n_bs=4, m_ris=6), rng)
        g_up = chan.g_uplink()
        e3 = np.zeros(6, dtype=complex)
        e3[3] = 1.0
        cas = cascaded_uplink(g_up, e3)
        np.testing.assert_allclose(cas.h_e[:, 3], g_up[:, 3], atol=1e-15)
        mask = np.ones(6, dtype=bool)
        mask[3] = False
        assert np.all(cas.h_e[:, mask] == 0.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(33)
        chan = sample_channel(SystemDims(n_bs=5, m_ris=7), rng)
        g_up = chan.g_uplink()
        h_q = chan.h_users[0]
        cas = cascaded_uplink(g_up, h_q)
        brute = np.empty_like(g_up)
        for n in range(5):
            for m in range(7):
                brute[n, m] = g_up[n, m] * h_q[m]
        np.testing.assert_allclose(cas.h_e, brute, atol=1e-14)

    def test_rank_one_factorization_reconstructs(self):
        rng = np.random.default_rng(34)
        chan = sample_channel(SystemDims(n_bs=8, m_ris=12), rng)
        cas = cascaded_uplink(chan.g_uplink(), chan.h_users[0], psi=chan.psi)
        rebuilt = np.outer(array_response(8, chan.psi), cas.a_bar.conj())
        err = np.linalg.norm(rebuilt - cas.h_e) / np.linalg.norm(cas.h_e)
        assert err <= 1e-12


class TestMultipath:
    def test_shared_departure_angle_collapses_rank(self):
        # both terms share a_b(psi), so the row space is one-dimensional
        psi = 0.3
        g = (0.7 + 0.2j) * np.outer(array_response(16, 0.1), array_response(8, psi).conj()) \
            + (0.1 - 0.9j) * np.outer(array_response(16, 0.6), array_response(8, psi).conj())
        s = np.linalg.svd(g, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]
