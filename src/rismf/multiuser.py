"""Uplink multi-user estimator: shared angle search plus per-user LS.

After despreading, user q's data is ``S_q = a_b(psi) a_bar_q^H theta^T + N_q``
for the (k, m) phase schedule theta, with a common BS-side angle and per-user
RIS-side factors, so estimation splits into one 1-D search shared by all
users, the downlink's spectral search :func:`~rismf.mf.init_psi`, and one
linear solve for all Q users. That solve and :func:`predicted_mse` read the
phase-Gram factor the :class:`~rismf.signals.UplinkSchedule` caches. Any
full-rank schedule works; :func:`~rismf.signals.make_uplink_schedule` builds
the DFT schedule, which attains the floor of :func:`predicted_mse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import _check_variance, _require, array_response
from .mf import init_psi
from .signals import ObservationSet, UplinkSchedule, despread

__all__ = ["MultiUserEstimate", "estimate_a_q", "predicted_mse", "estimate_multi_user"]

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
    """Shared BS-side angle ``argmax_psi || a_b(psi)^H [S_1 ... S_Q] ||^2`` of the
    despread (n_bs, k) users in ``s_list``: :func:`~rismf.mf.init_psi` of their
    stacked conjugate transpose."""
    stacked = np.hstack([np.asarray(s) for s in s_list])
    # conjugated in place, so the call allocates no second (n_bs, Q k) array
    return init_psi(np.conjugate(stacked, out=stacked).T)


def estimate_a_q(s_q: np.ndarray, sched: UplinkSchedule, psi_hat: float) -> np.ndarray:
    """LS estimate of a user's RIS-side factor at the given angle.

    ``sched.phases`` is the (k, m) schedule theta. The textbook solution is
    the conjugated pseudoinverse of the (n k, m) matrix ``theta kron a_b``
    applied to vec(S_q). Because the left factor has unit norm, the Gram
    collapses to the (m, m) Gram of the phase schedule, so the same estimate is

        a_bar = (theta^T conj(theta))^{-1} theta^T S_q^H a_b(psi_hat),

    computed here without forming the Kronecker matrix, against the Cholesky
    factor the schedule caches (:attr:`~rismf.signals.UplinkSchedule.phase_gram_factor`).
    ``s_q`` is one despread user, shape (n_bs, k), giving shape (m,), or a
    stack of them, shape (q, n_bs, k), giving shape (q, m). To solve against
    a bare phase array, wrap it: ``UplinkSchedule(phases, orthogonal_user_pilots(1, 1))``.
    """
    _require("estimate_a_q", (s_q, np.ndarray), (sched, UplinkSchedule))
    k = sched.phases.shape[0]
    if s_q.ndim not in (2, 3) or s_q.shape[-1] != k:
        raise ValueError(
            f"estimate_a_q needs despread users (n_bs, k) or (q, n_bs, k) with k={k} "
            f"for this schedule, got {s_q.shape}"
        )
    a_b = array_response(s_q.shape[-2], psi_hat)
    projected = s_q.conj().swapaxes(-1, -2) @ a_b  # (k,) or (q, k)
    rhs = sched.phases.T @ projected.T
    a_bar = scipy.linalg.cho_solve(sched.phase_gram_factor, rhs, check_finite=False).T
    if not np.isfinite(a_bar).all():
        raise ValueError("estimate_a_q needs finite despread users")
    return a_bar


def predicted_mse(noise_var: float, sched: UplinkSchedule) -> float:
    """Schedule-dependent MSE of the stage-2 estimate.

    Equals ``(noise_var / T) trace((theta^H theta)^{-1})`` for the (k, m)
    phases theta and the block length T of ``sched``; the angle drops out
    because the steering vector has unit norm. Minimized exactly when
    ``theta^H theta = K I`` (e.g. the DFT schedule), where the value is
    ``noise_var m_ris / (K T)``. The trace is the squared Frobenius norm of
    the inverse of the schedule's cached Cholesky factor, which LAPACK
    ``trtri`` inverts in place of a solve against the identity. A negative
    or non-finite ``noise_var`` is a ``ValueError``, as in synthesis.
    """
    _require("predicted_mse", (sched, UplinkSchedule))
    _check_variance(noise_var, "noise_var")
    triangle, lower = sched.phase_gram_factor
    # cho_factor leaves Gram entries in the factor's unused triangle
    inverse, _ = _TRTRI(np.tril(triangle) if lower else np.triu(triangle), lower=lower)
    return float(noise_var / sched.t_symbols * np.sum(np.abs(inverse) ** 2))


def estimate_multi_user(obs: ObservationSet, sched: UplinkSchedule) -> MultiUserEstimate:
    """Despread every user, estimate the shared angle, then solve per user.

    Stage 2 is one ``estimate_a_q(despread(obs, sched), sched, psi_hat)`` for
    all users. The stage-2 floor at a known angle is the same solve at the
    true angle, which :func:`predicted_mse` predicts.
    """
    despread_all = despread(obs, sched)
    psi_hat = estimate_psi_uplink(despread_all)
    a_bar_hats = estimate_a_q(despread_all, sched, psi_hat)
    a_b = array_response(obs.values.shape[1], psi_hat)
    h_hats = a_b[None, :, None] * a_bar_hats.conj()[:, None, :]
    return MultiUserEstimate(psi_hat=psi_hat, a_bar_hats=a_bar_hats, h_hats=h_hats)
