"""Invariances the rank-one observation model implies, checked on random cells.

``r_k = theta_k^T h_e x_k + n_k`` is linear in ``h_e`` and a sum over pilot
slots, so scaling the data by a complex ``c`` must scale every estimate by
``c`` (covering both scale and global phase), and the order of the slots
must not matter. A power-of-two scale rounds nothing, so there the MF
solvers must return the same angle bit for bit and an exactly scaled
estimate. The BS-side angle enters only through ``exp(2j pi psi n)``, so the
angles ``psi`` and ``psi + 1`` must give the same estimate.
"""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rismf import (
    ESTIMATORS,
    MfConfig,
    PilotSchedule,
    SystemDims,
    array_response,
    cascaded_downlink,
    downlink_observe,
    estimate_single_user,
    make_pilot_schedule,
    sample_channel,
    simulate_downlink,
)
from rismf.signals import ObservationSet

DIMS = SystemDims(n_bs=4, m_ris=6, k_pilots=24)
NOISE_VAR = 0.1
RTOL = 1e-6

# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=25, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.builds(
    lambda log_mag, phase: 10.0**log_mag * cmath.exp(1j * phase),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)


def make_cell(seed):
    _, sched, obs = simulate_downlink(DIMS, NOISE_VAR, np.random.default_rng(seed))
    return sched, obs


def make_cell_at_angle(seed, psi):
    """A cell whose single BS-RIS path leaves the BS at angle ``psi``."""
    rng = np.random.default_rng(seed)
    chan = sample_channel(DIMS, rng)
    sched = make_pilot_schedule(DIMS, rng)
    g = chan.beta_br * np.outer(
        array_response(DIMS.m_ris, chan.phi), array_response(DIMS.n_bs, psi).conj()
    )
    cascade = cascaded_downlink(chan.h_r, g, psi=psi)
    return sched, downlink_observe(cascade, sched, NOISE_VAR, rng)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", ["MF_AM", "MF_GD", "LR"])
class TestInvariances:
    @CHECKS
    @given(seed=seeds, c=scales)
    def test_complex_scale_of_data_scales_estimate(self, name, seed, c):
        estimate = ESTIMATORS[name].estimate
        sched, obs = make_cell(seed)
        scaled = ObservationSet(values=c * obs.values)
        assert relative_gap(estimate(scaled, sched), c * estimate(obs, sched)) <= RTOL

    @CHECKS
    @given(seed=seeds, order=st.permutations(range(DIMS.k_pilots)))
    def test_pilot_slot_order_is_irrelevant(self, name, seed, order):
        estimate = ESTIMATORS[name].estimate
        sched, obs = make_cell(seed)
        order = np.asarray(order)
        shuffled_sched = PilotSchedule(pilots=sched.pilots[order], phases=sched.phases[order])
        shuffled_obs = ObservationSet(values=obs.values[order])
        assert relative_gap(estimate(shuffled_obs, shuffled_sched), estimate(obs, sched)) <= RTOL


@pytest.mark.parametrize("solver", ["am", "gd"])
@pytest.mark.parametrize("power", [-20, 20])
@CHECKS
@given(seed=seeds)
def test_power_of_two_scale_is_exact(solver, power, seed):
    s = 2.0**power
    sched, obs = make_cell(seed)
    scaled = ObservationSet(values=s * obs.values)
    config = MfConfig(solver=solver)
    base = estimate_single_user(obs, sched, config)
    moved = estimate_single_user(scaled, sched, config)
    assert moved.psi_hat == base.psi_hat
    np.testing.assert_array_equal(moved.h_e_hat, s * base.h_e_hat)


angles = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=1.0 - 1e-3, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


@CHECKS
@given(seed=seeds, psi=angles)
@example(seed=0, psi=0.0)
@example(seed=1, psi=5e-4)
@example(seed=2, psi=1.0 - 5e-4)
def test_angle_wrap_leaves_estimate_unchanged(seed, psi):
    estimate = ESTIMATORS["MF_AM"].estimate
    sched, obs = make_cell_at_angle(seed, psi)
    wrapped_sched, wrapped_obs = make_cell_at_angle(seed, psi + 1.0)
    assert relative_gap(estimate(wrapped_obs, wrapped_sched), estimate(obs, sched)) <= RTOL
