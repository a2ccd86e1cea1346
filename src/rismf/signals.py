"""Training schedules and the downlink/uplink observation models.

Each link has one phase design: the downlink trains with random RIS phases
(:func:`make_pilot_schedule`), the uplink with the MSE-optimal DFT schedule
(:func:`make_uplink_schedule`). Another design is built by hand from
:func:`random_phase_schedule` or :func:`dft_phase_schedule`, e.g. a DFT
downlink schedule as ``PilotSchedule(pilots, dft_phase_schedule(m, k))``.

The uplink schedule draws nothing, so :func:`make_uplink_schedule` hands
every caller one cached, read-only :class:`UplinkSchedule` per set of
dimensions; its :attr:`~UplinkSchedule.phase_gram_factor` serves
every stage-2 solve and MSE prediction on it.

Both observe functions add noise of variance ``noise_var`` through one
helper, which rejects a negative or non-finite variance before it draws. No
estimator reads the variance, so :class:`ObservationSet` holds values only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .channel import (
    CascadedChannel,
    SystemDims,
    _check_variance,
    _cholesky,
    _is_count,
    complex_normal,
)

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


@dataclass(frozen=True)
class PilotSchedule:
    """Downlink training schedule: one BS pilot and one RIS phase vector per slot.

    ``pilots`` has shape (k, n_bs) with unit-norm rows; ``phases`` has shape
    (k, m_ris) with unit-modulus entries. The schedule is frozen, which lets
    it cache quantities derived from its arrays.
    """

    pilots: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if any(a.ndim != 2 or a.size == 0 for a in (self.pilots, self.phases)):
            raise ValueError(
                f"pilots (k, n_bs) and phases (k, m_ris) must be non-empty 2-D arrays, "
                f"got {self.pilots.shape} and {self.phases.shape}"
            )
        if self.pilots.shape[0] != self.phases.shape[0]:
            raise ValueError(
                f"slot count mismatch: {self.pilots.shape[0]} pilots vs "
                f"{self.phases.shape[0]} phase vectors"
            )
        norms = np.linalg.norm(self.pilots, axis=1)
        # written as "not <=" so that NaN entries fail too
        if not np.abs(norms - 1.0).max() <= _UNIT_TOL:
            raise ValueError("every pilot must have unit norm")
        if not np.abs(np.abs(self.phases) - 1.0).max() <= _UNIT_TOL:
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


@dataclass(frozen=True)
class UplinkSchedule:
    """Uplink training schedule: one RIS phase vector per block, one pilot block.

    ``phases`` has shape (k, m_ris) with unit-modulus entries, slot-major as in
    :class:`PilotSchedule`: row k is the RIS configuration held for block k.
    ``user_pilots`` has shape (q_users, t_symbols); row q is the pilot user q
    sends in every block. The rows must be finite and orthogonal with
    ``X X^H = T I``: :func:`despread` relies on it to cancel every other user
    exactly. The schedule is frozen and is not modified after construction,
    which lets it cache :attr:`phase_gram_factor`.
    """

    phases: np.ndarray
    user_pilots: np.ndarray

    def __post_init__(self):
        if any(a.ndim != 2 or a.size == 0 for a in (self.phases, self.user_pilots)):
            raise ValueError(
                f"phases (k, m_ris) and user_pilots (q_users, t_symbols) must be non-empty "
                f"2-D arrays, got {self.phases.shape} and {self.user_pilots.shape}"
            )
        if not np.abs(np.abs(self.phases) - 1.0).max() <= _UNIT_TOL:
            raise ValueError("every phase entry must have unit modulus")
        q_users, t_symbols = self.user_pilots.shape
        gram = self.user_pilots @ self.user_pilots.conj().T
        if not np.abs(gram - t_symbols * np.eye(q_users)).max() <= _UNIT_TOL * t_symbols:
            raise ValueError(
                f"user_pilots {self.user_pilots.shape} must be finite with orthogonal rows, "
                "X X^H = t_symbols I"
            )

    @property
    def q_users(self) -> int:
        return self.user_pilots.shape[0]

    @property
    def t_symbols(self) -> int:
        return self.user_pilots.shape[1]

    @functools.cached_property
    def phase_gram_factor(self) -> tuple[np.ndarray, bool]:
        """Cholesky factor of the (m, m) phase Gram ``theta^T conj(theta)``, checked for
        full rank by :func:`~rismf.channel._cholesky`; computed once, kept read-only."""
        k, m_ris = self.phases.shape
        if k < m_ris:
            raise ValueError(f"stage-2 LS needs k >= m_ris, got k={k}, m_ris={m_ris}")
        triangle, lower = _cholesky(self.phases.T @ self.phases.conj())
        triangle.flags.writeable = False
        return triangle, lower


@dataclass(frozen=True)
class ObservationSet:
    """Received training data; the noise variance stays with synthesis.

    ``values`` is (k,) of scalars in the downlink and (k, n_bs, t_symbols)
    of received blocks in the uplink. Non-finite values raise ``ValueError``
    here, so every estimator rejects bad data before it starts.
    """

    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("observations must be finite (NaN or inf in values)")


def _observation(clean: np.ndarray, noise_var: float, rng) -> ObservationSet:
    """C-contiguous ``clean`` plus i.i.d. ``complex_normal`` noise of variance ``noise_var``."""
    _check_variance(noise_var, "noise_var")
    if noise_var == 0.0:
        return ObservationSet(values=np.ascontiguousarray(clean))
    if rng is None:
        raise ValueError("noisy observation needs an rng")
    noise = complex_normal(rng, clean.shape, var=noise_var)
    return ObservationSet(values=np.add(noise, clean, out=noise))


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
    ``x_q x_p^H = T delta_qp``. Requires positive integer counts with
    ``t_symbols >= q_users``.
    """
    for name, count in (("q_users", q_users), ("t_symbols", t_symbols)):
        if not _is_count(count):
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    if t_symbols < q_users:
        raise ValueError(
            f"orthogonal pilots need t_symbols >= q_users, got {t_symbols} < {q_users}"
        )
    grid = np.outer(np.arange(q_users), np.arange(t_symbols))
    return np.exp(-2j * np.pi * grid / t_symbols)


def make_pilot_schedule(dims: SystemDims, rng: np.random.Generator) -> PilotSchedule:
    """Random unit-norm pilots, then random RIS phases, both drawn from ``rng``."""
    pilots = random_pilots(dims.n_bs, dims.k_pilots, rng)
    return PilotSchedule(pilots, random_phase_schedule(dims.m_ris, dims.k_pilots, rng))


def make_uplink_schedule(dims: SystemDims) -> UplinkSchedule:
    """The MSE-optimal DFT RIS phases and one orthogonal pilot block; draws nothing.

    The schedule depends on ``(m_ris, k_pilots, q_users, t_symbols)`` only.
    One instance per combination is cached and shared by every caller, so
    it is read-only: writing to its arrays raises ``ValueError``;
    copy them to build a modified schedule.
    """
    return _dft_uplink_schedule(dims.m_ris, dims.k_pilots, dims.q_users, dims.t_symbols)


@functools.lru_cache(maxsize=16)
def _dft_uplink_schedule(m_ris: int, k: int, q_users: int, t_symbols: int) -> UplinkSchedule:
    phases = dft_phase_schedule(m_ris, k)
    user_pilots = orthogonal_user_pilots(q_users, t_symbols)
    phases.flags.writeable = False
    user_pilots.flags.writeable = False
    return UplinkSchedule(phases, user_pilots)


def downlink_observe(
    chan: CascadedChannel,
    sched: PilotSchedule,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> ObservationSet:
    """Scalar downlink observations ``r_k = theta_k^T h_e x_k + n_k``.

    ``n_k`` is complex Gaussian with variance ``noise_var`` (SNR = 1/noise_var
    under the unit-norm pilot convention), finite and >= 0, checked before any
    draw; ``noise_var = 0`` gives the exact model output and needs no ``rng``.
    """
    _require_schedule(sched, PilotSchedule, "downlink_observe")
    if chan.uplink:
        raise ValueError("downlink_observe needs a downlink cascade")
    return _observation(_downlink_forward(sched, chan.h_e), noise_var, rng)


# The downlink measurement operator ``A(h_e)_k = theta_k^T h_e x_k`` and its
# adjoint: the only general-channel downlink products, shared by synthesis,
# the spectral start and the full-LS refinement, O(k m_ris n_bs) each. They
# run on scipy's BLAS, as the full-LS factor does: numpy bundles a second
# OpenBLAS, whose threads keep spinning after a threaded product and slow the
# next scipy BLAS call. ``zgemm`` reads Fortran order, so its operands are
# transposed views and nothing is copied.


def _downlink_forward(sched: PilotSchedule, h_e: np.ndarray) -> np.ndarray:
    """``theta_k^T h_e x_k`` for every slot, shape (k,); ``h_e`` is (m_ris, n_bs)."""
    expected = (sched.phases.shape[1], sched.pilots.shape[1])
    if np.shape(h_e) != expected:
        raise ValueError(
            f"downlink channel must have shape (m_ris, n_bs) = {expected} for this "
            f"schedule, got {np.shape(h_e)}"
        )
    steered = blas.zgemm(1.0, h_e.T, sched.phases.T).T  # (k, n_bs): phases @ h_e
    return (steered * sched.pilots).sum(axis=1)


def _check_downlink_values(sched: PilotSchedule, values: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``values`` has one entry per slot of ``sched``."""
    if np.shape(values) != (sched.k_pilots,):
        raise ValueError(
            f"downlink observations must have shape (k,) = {(sched.k_pilots,)} for this "
            f"schedule, got {np.shape(values)}"
        )


def _downlink_adjoint(sched: PilotSchedule, values: np.ndarray) -> np.ndarray:
    """``sum_k values_k conj(theta_k) x_k^H``, shape (m_ris, n_bs); ``values`` is (k,)."""
    _check_downlink_values(sched, values)
    weighted = values[:, None] * sched.pilots.conj()
    return blas.zgemm(1.0, weighted.T, sched.phases.T, trans_b=2).T


def _require_schedule(sched, kind: type, caller: str) -> None:
    """Raise ``ValueError`` naming ``kind`` unless ``sched`` is one."""
    if not isinstance(sched, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{caller} needs {article} {kind.__name__}, got {type(sched).__name__}")


def uplink_observe(
    g_uplink: np.ndarray,
    h_users: np.ndarray,
    sched: UplinkSchedule,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> ObservationSet:
    """Received uplink blocks ``R_k = sum_q g diag(theta_k) h_q x_q^T + N_k``.

    ``g_uplink`` is (n_bs, m_ris) and ``h_users`` is (q_users, m_ris); the
    result is a C-contiguous (k, n_bs, t_symbols) array with i.i.d. complex
    Gaussian block noise of variance ``noise_var`` per entry. Column t of
    ``R_k`` is ``g (theta_k * w_t)`` with ``w_t = sum_q x_q[t] h_q``, so
    every block comes out of one (k t, m_ris) by (m_ris, n_bs) product.
    """
    _require_schedule(sched, UplinkSchedule, "uplink_observe")
    k, m_ris = sched.phases.shape
    if np.ndim(g_uplink) != 2 or g_uplink.shape[1] != m_ris or (
        np.shape(h_users) != (sched.q_users, m_ris)
    ):
        raise ValueError(
            f"uplink_observe needs g_uplink (n_bs, {m_ris}) and h_users "
            f"({sched.q_users}, {m_ris}) for this schedule, got g_uplink "
            f"{np.shape(g_uplink)} and h_users {np.shape(h_users)}"
        )
    n_bs, t_symbols = g_uplink.shape[0], sched.t_symbols
    mixed = sched.user_pilots.T @ h_users  # (t, m): X^T H
    slots = (sched.phases[:, None, :] * mixed).reshape(k * t_symbols, m_ris)
    received = (slots @ g_uplink.T).reshape(k, t_symbols, n_bs).transpose(0, 2, 1)
    return _observation(received, noise_var, rng)


def despread(obs: ObservationSet, sched: UplinkSchedule) -> np.ndarray:
    """Project received blocks onto every user's pilot, shape (q_users, n_bs, k).

    Entry [q, :, k] is ``(1/T) R_k conj(x_q)``; with the orthogonal pilot
    construction this removes every other user exactly and leaves noise of
    variance ``noise_var / T`` per entry. One (k n_bs, T) by (T, q_users)
    product computes every entry; the result is a transposed view of it.
    """
    _require_schedule(sched, UplinkSchedule, "despread")
    (k, _), (q_users, t_symbols) = sched.phases.shape, sched.user_pilots.shape
    values = obs.values
    if values.ndim != 3 or values.shape[0] != k or values.shape[2] != t_symbols:
        raise ValueError(
            f"despread needs uplink observations (k, n_bs, t_symbols) = "
            f"({k}, n_bs, {t_symbols}) for this schedule, got {values.shape}"
        )
    n_bs = values.shape[1]
    weights = sched.user_pilots.conj().T / t_symbols  # (t, q)
    per_user = values.reshape(k * n_bs, t_symbols) @ weights
    return per_user.reshape(k, n_bs, q_users).transpose(2, 1, 0)
