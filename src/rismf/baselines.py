"""Reference estimators: vectorized full LS and unstructured rank-one recovery."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .mf import EstimateResult, _misfit, _scaled_lstsq, _solve, spectral_matrix
from .channel import _require
from .signals import (
    ObservationSet,
    PilotSchedule,
    _check_downlink_values,
    _downlink_adjoint,
    _downlink_forward,
)

__all__ = ["ls_full", "lr_rankone"]

# Alternating sweeps before the low-rank baseline gives up.
_LR_MAX_ITERS = 300

# ls_full's complex64 refinement: relative correction that stops it, the
# level at which a correction that fails to halve still counts as converged,
# and the number of steps before it gives up and solves in complex128.
_REFINE_TOL = 1e-14
_REFINE_FLAT_TOL = 1e-12
_REFINE_MAX_STEPS = 10

# Slots per block of design rows that ls_full adds to its Gram at a time: a
# block holds 256 m n entries, a third of the packed Gram at m n = 1600.
_GRAM_BLOCK = 256


def ls_full(obs: ObservationSet, sched: PilotSchedule) -> np.ndarray:
    """Unstructured LS over the vectorized channel, shape (m_ris, n_bs).

    Solves ``r_k = (x_k^T kron theta_k^T) vec(h_e)`` over all slots; needs
    k >= m_ris * n_bs. Both budgets go through the normal equations in
    :func:`_normal_solve`, which adds the design to one packed triangle of
    the Gram block by block and never holds the (k, m n) design, so a call
    holds about (m n)^2 / 2 Gram entries at any k. Above the square budget
    it first runs in mixed precision: a complex64 Cholesky factor, refined
    in float64 (Langou et al., SC 2006; Carson and Higham, SIAM J. Sci.
    Comput. 40(2), 2018). If that does not converge, and always at the
    square budget k = m_ris * n_bs, it runs with a complex128 factor; a
    failed complex128 factor is "rank deficient". The square budget skips
    complex64, where refinement mostly runs all its steps and still falls
    back.
    """
    _require("ls_full", (obs, ObservationSet), (sched, PilotSchedule))
    _check_downlink_values(sched, obs.values)
    k, n_bs = sched.pilots.shape
    m_ris = sched.phases.shape[1]
    unknowns = m_ris * n_bs
    if k < unknowns:
        raise ValueError(f"full LS needs k >= m_ris*n_bs, got k={k}, unknowns={unknowns}")
    dtypes = (np.complex64, np.complex128) if k > unknowns else (np.complex128,)
    for dtype in dtypes:
        h_t = _normal_solve(obs.values, sched, dtype)
        if h_t is not None:
            return h_t.T
    raise ValueError("full LS design is rank deficient")


def _normal_solve(values: np.ndarray, sched: PilotSchedule, dtype) -> np.ndarray | None:
    """``h_e^T`` from a Cholesky factor of the normal equations in ``dtype``.

    ``dtype`` is complex64 or complex128, and the LAPACK routines are looked
    up by their ``c`` or ``z`` prefix. ``h_e^T`` (n_bs, m_ris) in C order is
    the column-stacked ``vec(h_e)``. The (k, m n) design is never held:
    ``?hfrk`` adds the lower triangle of each block's conjugate Gram, over
    ``_GRAM_BLOCK`` slots whose rows are built in ``dtype``, into one
    (m n)(m n + 1)/2 array in rectangular full packed (RFP) storage
    (Gustavson et al., ACM TOMS 37(2), 2010). ``?pftrf`` factors it in
    place; a failed factor returns None. Unlike the small solves of
    :func:`~rismf.channel._cholesky`, the factor gets no ``pocon`` check:
    its 1-norm needs the full Gram.

    The solution is built in float64 from normal-equation residuals
    ``D^H (r - D vec)``, taken straight from the schedule by the downlink
    operator :func:`~rismf.signals._downlink_forward` and its adjoint,
    O(k m n) each, with no float64 design; one ``?pftrs`` turns a residual
    into a correction.

    A complex128 factor returns its first solve. A complex64 factor is
    refined until a correction is at most ``_REFINE_TOL`` of the solution's
    norm, or until it fails to halve the previous one but is already at most
    ``_REFINE_FLAT_TOL``: corrections level off near cond(Gram) * eps64,
    which can sit above ``_REFINE_TOL``. A stall above ``_REFINE_FLAT_TOL``
    or ``_REFINE_MAX_STEPS`` steps without stopping returns None.
    """
    prefix = "c" if dtype == np.complex64 else "z"
    pilots, phases = sched.pilots, sched.phases
    k, n_bs = pilots.shape
    unknowns = n_bs * phases.shape[1]
    hfrk = getattr(lapack, f"{prefix}hfrk")
    # lower triangle of design^T conj(design) = conj(design^H design), in RFP
    conj_gram = np.zeros(unknowns * (unknowns + 1) // 2, dtype=dtype)
    for start in range(0, k, _GRAM_BLOCK):
        rows = slice(start, start + _GRAM_BLOCK)
        x, theta = pilots[rows].astype(dtype), phases[rows].astype(dtype)
        # rows x_k kron theta_k of the design, matching column-stacked vec(h_e)
        block = (x[:, :, None] * theta[:, None, :]).reshape(len(x), unknowns)
        conj_gram = hfrk(unknowns, len(x), 1.0, block.T, 1.0, conj_gram, uplo="L", overwrite_c=1)
        del block  # freed before the next block is built
    factor, info = getattr(lapack, f"{prefix}pftrf")(unknowns, conj_gram, uplo="L", overwrite_a=1)
    if info != 0:
        return None
    h_t = np.zeros((n_bs, phases.shape[1]), dtype=complex)
    resid, last = values, np.inf
    for _ in range(_REFINE_MAX_STEPS):
        # conj(design^H resid) as an (n_bs, m_ris) matrix
        conj_rhs = _downlink_adjoint(sched, resid).T.conj()
        scale = np.abs(conj_rhs).max()
        if scale == 0.0:  # resid is orthogonal to the design: h_t solves it (zero data)
            return h_t
        # scaled so that complex64 neither underflows nor overflows
        conj_step = getattr(lapack, f"{prefix}pftrs")(
            unknowns, factor, (conj_rhs / scale).astype(dtype).reshape(-1, 1), uplo="L"
        )[0]
        step = scale * conj_step.conj().astype(complex).reshape(h_t.shape)
        h_t += step
        if prefix == "z":  # a complex128 factor solves to working precision at once
            return h_t
        size, norm = np.linalg.norm(step), np.linalg.norm(h_t)
        stalled = size > 0.5 * last
        if size <= _REFINE_TOL * norm or (stalled and size <= _REFINE_FLAT_TOL * norm):
            return h_t
        if stalled:
            return None
        last = size
        resid = values - _downlink_forward(sched, h_t.T)
    return None


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
