"""Uplink multi-user estimator: shared angle search plus per-user LS.

After despreading, user q's data is ``S_q = a_b(psi) a_bar_q^H theta^T + N_q``
for the (k, m) phase schedule theta, with a common BS-side angle and per-user
RIS-side factors, so estimation splits into one 1-D search shared by all
users followed by Q independent linear solves. Any full-rank schedule
works; :func:`~rismf.signals.make_uplink_schedule` builds the DFT schedule,
which attains the floor of :func:`predicted_mse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import _is_count, array_response
from .mf import _cholesky, manifold_coefficients, maximize_over_manifold
from .signals import ObservationSet, UplinkSchedule, despread

__all__ = [
    "MultiUserEstimate",
    "estimate_psi_uplink",
    "estimate_a_q",
    "predicted_mse",
    "estimate_multi_user",
]

_TRTRI = scipy.linalg.lapack.get_lapack_funcs("trtri", dtype=complex)


@dataclass
class MultiUserEstimate:
    """Two-stage estimate for all users.

    ``h_hats[q]`` is the (n_bs, m_ris) cascaded estimate
    ``a_b(psi_hat) a_bar_hats[q]^H``. :func:`predicted_mse` gives the
    schedule's noise-floor prediction for each user's ``a_bar`` error.
    """

    psi_hat: float
    a_bar_hats: np.ndarray
    h_hats: np.ndarray


def estimate_psi_uplink(s_list) -> float:
    """Shared BS-side angle: ``argmax_psi || a_b(psi)^H [S_1 ... S_Q] ||^2``.

    ``s_list`` is a sequence of despread (n_bs, k) matrices. Noiselessly each
    has exact left factor ``a_b(psi)``, so the score peaks at the true angle.
    """
    stacked = np.hstack([np.asarray(s) for s in s_list])
    if not np.any(stacked):
        raise ValueError("despread data is identically zero; no angle to estimate")
    return maximize_over_manifold(manifold_coefficients(stacked @ stacked.conj().T))


def _phase_gram_factor(phases: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of the (m, m) Gram ``theta^T conj(theta)`` of a (k, m)
    phase schedule, checked for full rank by :func:`~rismf.mf._cholesky`."""
    k, m_ris = phases.shape
    if k < m_ris:
        raise ValueError(f"stage-2 LS needs k >= m_ris, got k={k}, m_ris={m_ris}")
    return _cholesky(phases.T @ phases.conj())


def estimate_a_q(s_q: np.ndarray, phases: np.ndarray, psi_hat: float) -> np.ndarray:
    """LS estimate of a user's RIS-side factor at the given angle.

    ``phases`` is the (k, m) schedule theta. The textbook solution is the
    conjugated pseudoinverse of the (n k, m) matrix ``theta kron a_b`` applied
    to vec(S_q). Because the left factor has unit norm, the Gram collapses to
    the (m, m) Gram of the phase schedule, so the same estimate is

        a_bar = (theta^T conj(theta))^{-1} theta^T S_q^H a_b(psi_hat),

    computed here without forming the Kronecker matrix. ``s_q`` is one
    despread user, shape (n_bs, k), giving shape (m,), or a stack of them,
    shape (q, n_bs, k), giving shape (q, m) from one Cholesky factor.
    """
    factor = _phase_gram_factor(phases)
    a_b = array_response(s_q.shape[-2], psi_hat)
    projected = s_q.conj().swapaxes(-1, -2) @ a_b  # (k,) or (q, k)
    return scipy.linalg.cho_solve(factor, phases.T @ projected.T, check_finite=False).T


def predicted_mse(noise_var: float, t_symbols: int, phases: np.ndarray) -> float:
    """Schedule-dependent MSE of the stage-2 estimate.

    Equals ``(noise_var / T) trace((theta^H theta)^{-1})`` for the (k, m)
    schedule theta; the angle drops out because the steering vector has unit
    norm. Minimized exactly when ``theta^H theta = K I`` (e.g. the DFT
    schedule), where the value is ``noise_var m_ris / (K T)``. The trace is
    the squared Frobenius norm of the inverse Cholesky factor, which LAPACK
    ``trtri`` inverts in place of a solve against the identity. A
    ``t_symbols`` that is not a positive integer, or a negative or
    non-finite ``noise_var``, is a ``ValueError``.
    """
    if not _is_count(t_symbols):
        raise ValueError(f"t_symbols must be a positive integer, got {t_symbols!r}")
    if not (math.isfinite(noise_var) and noise_var >= 0.0):
        raise ValueError(f"noise_var must be finite and nonnegative, got {noise_var}")
    triangle, lower = _phase_gram_factor(phases)
    # cho_factor leaves Gram entries in the factor's unused triangle
    inverse, _ = _TRTRI(np.tril(triangle) if lower else np.triu(triangle), lower=lower)
    return float(noise_var / t_symbols * np.sum(np.abs(inverse) ** 2))


def estimate_multi_user(obs: ObservationSet, sched: UplinkSchedule) -> MultiUserEstimate:
    """Despread every user, estimate the shared angle, then solve per user.

    The stage-2 floor at a known angle is ``estimate_a_q(despread(obs, sched),
    sched.phases, psi)``, which :func:`predicted_mse` predicts.
    """
    despread_all = despread(obs, sched)
    psi_hat = estimate_psi_uplink(despread_all)
    a_bar_hats = estimate_a_q(despread_all, sched.phases, psi_hat)
    a_b = array_response(obs.values.shape[1], psi_hat)
    h_hats = a_b[None, :, None] * a_bar_hats.conj()[:, None, :]
    return MultiUserEstimate(psi_hat=psi_hat, a_bar_hats=a_bar_hats, h_hats=h_hats)
