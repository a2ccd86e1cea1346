"""Reference estimators: vectorized full LS and unstructured rank-one recovery."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .mf import EstimateResult, _misfit, _scaled_lstsq, _solve, spectral_matrix
from .signals import ObservationSet, PilotSchedule

__all__ = ["ls_full", "lr_rankone"]

# Alternating sweeps before the low-rank baseline gives up.
_LR_MAX_ITERS = 300


def ls_full(obs: ObservationSet, sched: PilotSchedule) -> np.ndarray:
    """Unstructured LS over the vectorized channel, shape (m_ris, n_bs).

    Solves ``r_k = (x_k^T kron theta_k^T) vec(h_e)`` over all slots; needs
    k >= m_ris * n_bs. Square and tall budgets alike go through the normal
    equations (Cholesky), cheap at these sizes and accurate enough for the
    noisy regime the baseline is used in. BLAS ``zherk`` forms one triangle
    of the Gram from the design's Fortran-ordered transpose, so the design is
    never copied; that triangle is the conjugate Gram, which is factored in
    place and solved against the conjugate right-hand side.

    Unlike the small solves of :func:`~rismf.channel._cholesky`, the factor gets
    no ``pocon`` condition check. That check needs the Gram's 1-norm, but
    ``zherk`` fills only one triangle, and the norm of the full (m n)^2
    Gram takes a real temporary of its size: about 20 MB per concurrent
    cell at N = 32, M = 50, on top of the Gram itself. A failed
    factorization still counts as rank deficient.
    """
    k, n_bs = sched.pilots.shape
    m_ris = sched.phases.shape[1]
    unknowns = m_ris * n_bs
    if k < unknowns:
        raise ValueError(f"full LS needs k >= m_ris*n_bs, got k={k}, unknowns={unknowns}")

    # row k = x_k kron theta_k, matching column-stacked vec(h_e)
    design = np.einsum("kn,km->knm", sched.pilots, sched.phases).reshape(k, unknowns)
    # lower triangle of design^T conj(design) = conj(design^H design)
    conj_gram = scipy.linalg.blas.zherk(1.0, design.T, lower=1)
    try:
        factor = scipy.linalg.cho_factor(
            conj_gram, lower=True, overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError as err:  # the Gram is not positive definite
        raise ValueError(f"full LS design is rank deficient: {err}") from err
    conj_rhs = obs.values.conj() @ design
    vec = scipy.linalg.cho_solve(factor, conj_rhs, check_finite=False).conj()
    return vec.reshape(n_bs, m_ris).T


def _svd_start(obs: ObservationSet, sched: PilotSchedule):
    """Top singular pair of the spectral matrix and its misfit."""
    left, sing, right_h = np.linalg.svd(spectral_matrix(obs, sched), full_matrices=False)
    u = left[:, 0] * sing[0]
    v = right_h[0, :].conj()
    return u, v, _misfit(u, v, obs, sched)


def _lr_sweep(u: np.ndarray, v: np.ndarray, value, obs: ObservationSet, sched: PilotSchedule):
    """Exact LS in ``u``, then in ``v``; ``v`` is rescaled to unit norm."""
    u = _scaled_lstsq(sched.pilots @ v.conj(), sched.phases, obs.values)
    v = _scaled_lstsq(sched.phases @ u, sched.pilots, obs.values).conj()
    norm_v = np.linalg.norm(v)
    u, v = u * norm_v, v / norm_v
    return u, v, _misfit(u, v, obs, sched)


def lr_rankone(obs: ObservationSet, sched: PilotSchedule) -> EstimateResult:
    """Alternating LS for ``r_k = theta_k^T u v^H x_k`` with free ``u`` and ``v``.

    Initialized from the top singular pair of the spectral matrix. Each half
    step is an exact LS solve (k >= m_ris for the u step, k >= n_bs for the v
    step), so the objective never increases. Unlike the structured estimator,
    ``v`` is not constrained to the steering manifold, and the result carries
    no angle. ``v`` is kept at unit norm, with the magnitude in ``u``. Sweeps
    run under the stop rule of :func:`~rismf.mf._solve`, at most 300 of them.
    """
    (u, v), history, converged = _solve(_svd_start, _lr_sweep, obs, sched, _LR_MAX_ITERS)
    return EstimateResult(
        a_bar_hat=u, a_b_hat=v, psi_hat=None, converged=converged, objective_history=history
    )
