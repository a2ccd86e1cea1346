"""Training schedules and the downlink/uplink observation models."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CascadedChannel, SystemDims, complex_normal

__all__ = [
    "PilotSchedule",
    "UplinkSchedule",
    "ObservationSet",
    "random_pilots",
    "random_phase_schedule",
    "dft_phase_schedule",
    "orthogonal_user_pilots",
    "make_pilot_schedule",
    "make_uplink_schedule",
    "downlink_observe",
    "uplink_observe",
    "despread",
]

_UNIT_TOL = 1e-9


@dataclass
class PilotSchedule:
    """Downlink training schedule: one BS pilot and one RIS phase vector per slot.

    ``pilots`` has shape (k, n_bs) with unit-norm rows; ``phases`` has shape
    (k, m_ris) with unit-modulus entries. A schedule is not modified after
    construction, which lets it cache quantities derived from its arrays.
    """

    pilots: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if self.pilots.ndim != 2 or self.phases.ndim != 2:
            raise ValueError("pilots and phases must be 2-D arrays")
        if self.pilots.shape[0] != self.phases.shape[0]:
            raise ValueError(
                f"slot count mismatch: {self.pilots.shape[0]} pilots vs "
                f"{self.phases.shape[0]} phase vectors"
            )
        norms = np.linalg.norm(self.pilots, axis=1)
        if np.abs(norms - 1.0).max() > _UNIT_TOL:
            raise ValueError("every pilot must have unit norm")
        if np.abs(np.abs(self.phases) - 1.0).max() > _UNIT_TOL:
            raise ValueError("every phase entry must have unit modulus")

    @property
    def k_pilots(self) -> int:
        return self.pilots.shape[0]

    @functools.cached_property
    def autocorrelation(self) -> np.ndarray:
        """Per-slot pilot autocorrelation ``rho[k, d] = sum_l x_{k,l+d} conj(x_{k,l})``.

        Shape (k, n_bs), lags d = 0 .. n_bs - 1. One FFT zero-padded to
        length 2 n_bs gives the linear (not circular) correlation. Computed
        on first use and kept, read-only, for the schedule's lifetime.
        """
        n_bs = self.pilots.shape[1]
        power = np.abs(np.fft.fft(self.pilots, 2 * n_bs, axis=1)) ** 2
        rho = np.fft.ifft(power, axis=1)[:, :n_bs].copy()
        rho.flags.writeable = False
        return rho


@dataclass
class UplinkSchedule:
    """Uplink training schedule: one RIS phase vector per block, one pilot block.

    ``phases`` has shape (k, m_ris) with unit-modulus entries, slot-major as in
    :class:`PilotSchedule`: row k is the RIS configuration held for block k.
    ``user_pilots`` has shape (q_users, t_symbols); row q is the pilot user q
    sends in every block.
    """

    phases: np.ndarray
    user_pilots: np.ndarray

    def __post_init__(self):
        if self.phases.ndim != 2 or self.user_pilots.ndim != 2:
            raise ValueError("phases (k, m_ris) and user_pilots (q_users, t_symbols) must be 2-D")
        if np.abs(np.abs(self.phases) - 1.0).max() > _UNIT_TOL:
            raise ValueError("every phase entry must have unit modulus")

    @property
    def q_users(self) -> int:
        return self.user_pilots.shape[0]

    @property
    def t_symbols(self) -> int:
        return self.user_pilots.shape[1]


@dataclass
class ObservationSet:
    """Received training data plus the per-sample noise variance.

    ``values`` is (k,) of scalars in the downlink and (k, n_bs, t_symbols)
    of received blocks in the uplink. Non-finite values and a negative or
    non-finite ``noise_var`` raise ``ValueError`` here, so every estimator
    rejects bad data before it starts.
    """

    values: np.ndarray
    noise_var: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("observations must be finite (NaN or inf in values)")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0.0):
            raise ValueError(f"noise_var must be finite and nonnegative, got {self.noise_var}")

    @property
    def k_pilots(self) -> int:
        return self.values.shape[0]


def random_pilots(n_bs: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """K unit-norm pilots, i.i.d. complex Gaussian directions, shape (k, n_bs)."""
    x = complex_normal(rng, (k, n_bs))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_phase_schedule(m_ris: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """K unit-modulus RIS phase vectors with i.i.d. uniform phases, shape (k, m_ris)."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(k, m_ris)))


def dft_phase_schedule(m_ris: int, k: int) -> np.ndarray:
    """First ``m_ris`` columns of the K-point DFT matrix, shape (k, m_ris).

    Entry (k, m) is ``exp(-j 2 pi k m / K)``. Requires ``k >= m_ris`` so the
    columns stay orthogonal: ``theta^H theta = k I``, the training design that
    meets the MSE lower bound.
    """
    if k < m_ris:
        raise ValueError(f"DFT schedule needs k >= m_ris, got k={k}, m_ris={m_ris}")
    grid = np.outer(np.arange(k), np.arange(m_ris))
    return np.exp(-2j * np.pi * grid / k)


def orthogonal_user_pilots(q_users: int, t_symbols: int) -> np.ndarray:
    """Mutually orthogonal unit-modulus pilots, shape (q_users, t_symbols).

    Row q is ``exp(-j 2 pi q t / T)``; distinct rows are orthogonal with
    ``x_q x_p^H = T delta_qp``. Requires ``t_symbols >= q_users``.
    """
    if t_symbols < q_users:
        raise ValueError(
            f"orthogonal pilots need t_symbols >= q_users, got {t_symbols} < {q_users}"
        )
    grid = np.outer(np.arange(q_users), np.arange(t_symbols))
    return np.exp(-2j * np.pi * grid / t_symbols)


def _phase_schedule(
    dims: SystemDims, rng: np.random.Generator | None, phase_design: str
) -> np.ndarray:
    """The (k, m_ris) RIS phases of either link: ``"dft"`` or ``"random"``."""
    if phase_design == "dft":
        return dft_phase_schedule(dims.m_ris, dims.k_pilots)
    if phase_design != "random":
        raise ValueError(f"unknown phase_design {phase_design!r}")
    if rng is None:
        raise ValueError("random phase design needs an rng")
    return random_phase_schedule(dims.m_ris, dims.k_pilots, rng)


def make_pilot_schedule(
    dims: SystemDims,
    rng: np.random.Generator,
    phase_design: str = "random",
) -> PilotSchedule:
    """Random unit-norm pilots plus a random or DFT RIS phase schedule."""
    pilots = random_pilots(dims.n_bs, dims.k_pilots, rng)
    return PilotSchedule(pilots=pilots, phases=_phase_schedule(dims, rng, phase_design))


def make_uplink_schedule(
    dims: SystemDims,
    rng: np.random.Generator | None = None,
    phase_design: str = "dft",
) -> UplinkSchedule:
    """Uplink schedule: DFT or random RIS phases and one orthogonal pilot block."""
    return UplinkSchedule(
        phases=_phase_schedule(dims, rng, phase_design),
        user_pilots=orthogonal_user_pilots(dims.q_users, dims.t_symbols),
    )


def downlink_observe(
    chan: CascadedChannel,
    sched: PilotSchedule,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> ObservationSet:
    """Scalar downlink observations ``r_k = theta_k^T h_e x_k + n_k``.

    ``n_k`` is complex Gaussian with variance ``noise_var`` (SNR = 1/noise_var
    under the unit-norm pilot convention). ``noise_var = 0`` gives the exact
    model output.
    """
    if chan.uplink:
        raise ValueError("downlink_observe needs a downlink cascade")
    values = np.einsum("kn,kn->k", sched.phases @ chan.h_e, sched.pilots)
    if noise_var > 0.0:
        if rng is None:
            raise ValueError("noisy observation needs an rng")
        values = values + complex_normal(rng, values.shape, var=noise_var)
    return ObservationSet(values=values, noise_var=float(noise_var))


def uplink_observe(
    g_uplink: np.ndarray,
    h_users: np.ndarray,
    sched: UplinkSchedule,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> ObservationSet:
    """Received uplink blocks ``R_k = sum_q g diag(theta_k) h_q x_q^T + N_k``.

    ``g_uplink`` is (n_bs, m_ris) and ``h_users`` is (q_users, m_ris); the
    result is (k, n_bs, t_symbols) with i.i.d. complex Gaussian block noise of
    variance ``noise_var`` per entry.
    """
    effective = sched.phases[:, None, :] * h_users[None, :, :]  # (k, q, m)
    per_user = np.einsum("nm,kqm->knq", g_uplink, effective)
    values = per_user @ sched.user_pilots
    if noise_var > 0.0:
        if rng is None:
            raise ValueError("noisy observation needs an rng")
        values = values + complex_normal(rng, values.shape, var=noise_var)
    return ObservationSet(values=values, noise_var=float(noise_var))


def despread(obs: ObservationSet, sched: UplinkSchedule) -> np.ndarray:
    """Project received blocks onto every user's pilot, shape (q_users, n_bs, k).

    Entry [q, :, k] is ``(1/T) R_k conj(x_q)``; with the orthogonal pilot
    construction this removes every other user exactly and leaves noise of
    variance ``noise_var / T`` per entry.
    """
    if obs.values.ndim != 3:
        raise ValueError("despread needs uplink observations (k, n_bs, t_symbols)")
    return np.einsum("knt,qt->qnk", obs.values, sched.user_pilots.conj()) / sched.t_symbols
