"""Single-user downlink estimator built on the rank-one factor model.

The cascaded channel is ``h_e = a_bar a_b(psi)^H`` with ``a_bar`` an arbitrary
complex vector (RIS side) and ``a_b`` a steering vector (BS side), so the
training data poses a structured rank-one recovery problem

    J(a_bar, psi) = sum_k | theta_k^T a_bar a_b(psi)^H x_k - r_k |^2.

Two solvers are provided: safeguarded alternating minimization (exact LS in
``a_bar`` alternated with the 1-D angle search of
:func:`maximize_over_manifold`, whose docstring says when it can miss the
global maximum) and gradient descent on (Re a_bar, Im a_bar, psi) whose steps
are scaled by each block's Gauss-Newton curvature (:func:`gd_iterate`). Both
start from a spectral initialization and sweep in :func:`_solve`, the one
solve loop, which the free rank-one baseline shares: one stop rule, one
``converged`` flag, and solves that run one at a time per process on one
numpy BLAS thread.

Because ``a_bar`` is the exact LS solution at each angle, AM is a
fixed-point iteration in the one scalar ``psi``, and it converges only
linearly. So every second AM sweep also tries an Aitken delta-squared jump
of the angle (Aitken, Proc. R. Soc. Edinburgh 46, 1926; :func:`_am_sweep`),
guarded and kept only if it does not raise the misfit.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .channel import _cholesky, _is_count, array_response
from .signals import ObservationSet, PilotSchedule, _downlink_adjoint, _require_schedule

__all__ = [
    "MfConfig",
    "EstimateResult",
    "objective",
    "spectral_matrix",
    "manifold_coefficients",
    "maximize_over_manifold",
    "init_psi",
    "ls_a_bar",
    "am_iterate",
    "gd_gradients",
    "gd_iterate",
    "estimate_single_user",
]

_DEFAULT_ITERS = {"am": 200, "gd": 2000}
# The angle search's grid has this many points per BS antenna. Its spacing
# also caps an extrapolated AM angle step.
_GRID_DENSITY = 8
# Stop once a sweep lowers the misfit by at most this fraction of its value.
_TOL_OBJECTIVE = 1e-10
# GD halves its unit trial step at most this many times.
_MAX_BACKTRACKS = 30


@dataclass
class MfConfig:
    """Solver choice, ``"am"`` or ``"gd"``, and its sweep cap.

    ``max_iters`` defaults to 200 for AM and 2000 for GD.
    """

    solver: str = "am"
    max_iters: int | None = None

    def __post_init__(self):
        if self.solver not in _DEFAULT_ITERS:
            raise ValueError(
                f"unknown solver {self.solver!r}, expected one of {sorted(_DEFAULT_ITERS)}"
            )
        if self.max_iters is not None and not _is_count(self.max_iters):
            raise ValueError(f"max_iters must be None or a positive integer: {self.max_iters!r}")

    def resolved_max_iters(self) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return _DEFAULT_ITERS[self.solver]


@dataclass
class EstimateResult:
    """Rank-one estimate ``h_e_hat = a_bar_hat a_b_hat^H`` with diagnostics.

    ``a_b_hat`` has unit norm, so the magnitude lives in ``a_bar_hat``. The
    structured estimator returns ``a_b_hat = a_b(psi_hat)``; the free
    low-rank baseline leaves ``a_b_hat`` off the steering manifold and
    ``psi_hat`` None.
    """

    a_bar_hat: np.ndarray
    a_b_hat: np.ndarray
    psi_hat: float | None
    converged: bool
    objective_history: list[float]

    @property
    def h_e_hat(self) -> np.ndarray:
        return np.outer(self.a_bar_hat, self.a_b_hat.conj())

    @property
    def objective_final(self) -> float:
        return self.objective_history[-1]

    @property
    def iters_used(self) -> int:
        return len(self.objective_history) - 1


def _predict(u: np.ndarray, v: np.ndarray, sched: PilotSchedule) -> np.ndarray:
    """Noiseless observations ``theta_k^T u v^H x_k`` of the rank-one channel ``u v^H``."""
    return (sched.phases @ u) * (sched.pilots @ v.conj())


def _misfit(u: np.ndarray, v: np.ndarray, obs: ObservationSet, sched: PilotSchedule) -> float:
    return float(np.sum(np.abs(_predict(u, v, sched) - obs.values) ** 2))


def _numpy_openblas_threads():
    """Getter and setter of the thread count of the OpenBLAS bundled with
    numpy's wheel in ``numpy.libs``; None when numpy links another BLAS."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                return (getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                        getattr(lib, f"scipy_openblas_set_num_threads{suffix}"))
    return None


_NUMPY_BLAS = _numpy_openblas_threads()
_solve_lock = threading.Lock()


def _solve(start, sweep, obs: ObservationSet, sched: PilotSchedule, max_iters: int):
    """The one solve loop: ``start(obs, sched) -> (*state, value)``, then
    ``sweep(*state, value, obs, sched) -> (*state, value)``, ``value`` being
    the misfit, until the stop rule holds or ``max_iters`` sweeps have run.
    Returns ``(state, history, converged)``; ``converged`` says the rule held.
    A schedule other than a :class:`~rismf.signals.PilotSchedule`, or
    identically zero observations, raise ``ValueError``.

    The rule: the last sweep lowered the misfit by at most a
    ``_TOL_OBJECTIVE`` fraction, or the misfit is at the rounding floor of
    the data energy, where exact fits stop (they contract geometrically).
    Solves that callers start from their own threads run one at a time per
    process, each on one numpy BLAS thread, and the caller's count is
    restored after: products on (k, m_ris) operands gain nothing from BLAS
    threads, which only add spread and core-dependent rounding.
    """
    _require_schedule(sched, PilotSchedule, "a downlink solve")
    if not np.any(obs.values):
        raise ValueError("observations are identically zero; nothing to estimate")
    energy = float(np.sum(np.abs(obs.values) ** 2))
    floor = np.finfo(float).eps ** 2 * 1e6 * max(energy, np.finfo(float).tiny)
    get_threads, set_threads = _NUMPY_BLAS or (lambda: None, lambda count: None)
    with _solve_lock:
        restore = get_threads()
        set_threads(1)
        try:
            *state, value = start(obs, sched)
            history = [value]
            for _ in range(max_iters):
                *state, value = sweep(*state, value, obs, sched)
                history.append(value)
                prev = history[-2]
                if value <= floor or prev - value <= _TOL_OBJECTIVE * prev:
                    return state, history, True
            return state, history, False
        finally:
            set_threads(restore)


def _scaled_lstsq(gains: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """LS solution of ``(gains[:, None] * rows) x = values``.

    This is a Cholesky solve (:func:`~rismf.channel._cholesky`) of the
    weighted normal equations
    ``rows^H diag(|gains|^2) rows x = rows^H (conj(gains) * values)``
    (Golub and Van Loan, *Matrix Computations*, sec. 5.3). The design must be
    tall. The normal equations square the design's condition number, which
    the well-conditioned designs of the paper's sizes can afford.
    """
    k, n = rows.shape
    if k < n:
        raise ValueError(f"LS step needs k >= unknowns, got k={k}, unknowns={n}")
    rows_h = rows.conj().T
    factor = _cholesky((rows_h * np.abs(gains) ** 2) @ rows)
    return scipy.linalg.cho_solve(factor, rows_h @ (gains.conj() * values), check_finite=False)


def objective(a_bar: np.ndarray, psi: float, obs: ObservationSet, sched: PilotSchedule) -> float:
    """Training-data misfit ``sum_k |theta_k^T a_bar a_b(psi)^H x_k - r_k|^2``."""
    return _misfit(a_bar, array_response(sched.pilots.shape[1], psi), obs, sched)


def spectral_matrix(obs: ObservationSet, sched: PilotSchedule) -> np.ndarray:
    """Initialization statistic ``S = (sqrt(n)/k) sum_k r_k conj(theta_k) x_k^H``,
    the scaled :func:`~rismf.signals._downlink_adjoint` of the data.

    Its expectation over random schedules is proportional to the true
    ``a_bar a_b(psi)^H``, shape (m_ris, n_bs).
    """
    n_bs = sched.pilots.shape[1]
    return (np.sqrt(n_bs) / sched.k_pilots) * _downlink_adjoint(sched, obs.values)


def manifold_coefficients(gram: np.ndarray) -> np.ndarray:
    """Coefficients of the score ``Re(a_b^H G a_b)``, ``a_b = a_b(psi)``.

    The score equals ``Re sum_d c[d] exp(2j pi psi d)`` for d = 0 .. n_bs - 1,
    a trigonometric polynomial whose coefficients are the diagonal sums of
    ``gram``; this returns ``c``, the input of :func:`maximize_over_manifold`.
    A linear term ``2 Re(a_b^H w)`` adds ``2 w / sqrt(n_bs)`` to ``c``.
    """
    n = gram.shape[0]
    lag = np.subtract.outer(np.arange(n), np.arange(n)).ravel()
    diag = np.zeros(2 * n - 1, dtype=complex)
    np.add.at(diag, lag, gram.ravel())  # diag[d] sums G_il over i - l = d
    coef = (diag[:n] + diag[-np.arange(n)].conj()) / n
    coef[0] /= 2.0  # the main diagonal was counted from both sides
    return coef


def _wrap_angle(x: float) -> float:
    """``x % 1.0`` in [0, 1): the 1.0 it rounds to just below 0 becomes 0.0."""
    x = x % 1.0
    return x if x < 1.0 else 0.0


def maximize_over_manifold(coef: np.ndarray) -> float:
    """Global maximizer over [0, 1) of ``score(psi) = Re sum_d coef[d] exp(2j pi psi d)``.

    ``coef`` has one entry per lag d = 0 .. n_bs - 1 (see
    :func:`manifold_coefficients`). One FFT evaluates the score on a grid of
    ``_GRID_DENSITY * n_bs`` points with spacing ``s``. Grid peaks are then
    polished by Newton steps on the closed-form derivatives, each clipped to
    one grid spacing and kept only if it raises the score, and the best
    polished point wins (the root-MUSIC / Newtonized-OMP idea: Barabell,
    ICASSP 1983; Mamandipoor, Ramasamy and Madhow, IEEE TSP 2016). Two
    maxima closer than about 1.5 grid spacings show as one grid peak, so
    the lower one can be returned (FOUND under cba75d8 in CHANGES.md).

    Only the peaks that could still beat the grid maximum are polished:
    those with ``grid >= max(grid) - s^2 C / 2``, where
    ``C = sum_d (2 pi d)^2 |coef[d]|`` bounds ``|score''|`` everywhere. A
    grid peak is at least as high as both grid neighbours, so the score's
    maximum between them lies within one spacing of the peak, where the
    slope is zero; by Taylor's bound that maximum exceeds the peak's grid
    value by at most ``s^2 C / 2``. A peak below the line therefore cannot
    polish above the grid maximum. The grid argmax is always kept.
    """
    n = coef.shape[0]
    n_grid = _GRID_DENSITY * n
    spacing = 1.0 / n_grid
    grid = n_grid * np.fft.ifft(coef, n_grid).real
    top = np.argmax(grid)
    slope = 2j * np.pi * np.arange(n)
    slope2 = slope**2
    curvature = np.abs(slope2) @ np.abs(coef)  # the bound C on |score''|
    near = np.flatnonzero(grid >= grid[top] - 0.5 * spacing**2 * curvature)
    peak = (grid[near] > grid[near - 1]) & (grid[near] >= grid[(near + 1) % n_grid])
    psi = near[peak | (near == top)] * spacing

    def derivatives(angles):
        terms = np.exp(np.outer(angles, slope)) * coef
        return terms.sum(axis=1).real, (terms @ slope).real, (terms @ slope2).real

    value, first, second = derivatives(psi)
    reach = np.full(psi.shape, spacing)
    rounding = np.finfo(float).eps * np.abs(coef).sum()
    # A rejected step halves the candidate's reach. A candidate is done once
    # the gain its step predicts is below the rounding of the score; the cap
    # on rounds is only a safeguard.
    for _ in range(100):
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(second < 0.0, -first / second, np.copysign(np.inf, first))
        step = np.clip(newton, -reach, reach)
        live = np.abs(first * step) > rounding
        if not live.any():
            break
        t_value, t_first, t_second = derivatives(psi + step)
        better = live & (t_value > value)
        psi = np.where(better, psi + step, psi)
        value = np.where(better, t_value, value)
        first = np.where(better, t_first, first)
        second = np.where(better, t_second, second)
        reach = np.where(better, reach, np.abs(step) / 2.0)
    return _wrap_angle(float(psi[np.argmax(value)]))


def init_psi(s_matrix: np.ndarray) -> float:
    """Angle ``argmax_psi || S a_b(psi) ||^2`` of any (rows, n_bs) matrix ``S``:
    the :func:`spectral_matrix`, or the uplink's stacked despread data
    conjugate-transposed. A zero ``S`` raises ``ValueError``."""
    if not np.any(s_matrix):
        raise ValueError("matrix is identically zero; no angle to estimate")
    return maximize_over_manifold(manifold_coefficients(s_matrix.conj().T @ s_matrix))


def ls_a_bar(psi: float, obs: ObservationSet, sched: PilotSchedule) -> np.ndarray:
    """Exact LS solve for ``a_bar`` at fixed ``psi``.

    The design matrix has rows ``(a_b(psi)^H x_k) theta_k^T`` and must be
    tall: k >= m_ris.
    """
    gains = sched.pilots @ array_response(sched.pilots.shape[1], psi).conj()
    return _scaled_lstsq(gains, sched.phases, obs.values)


def _angle_coefficients(
    a_bar: np.ndarray, obs: ObservationSet, sched: PilotSchedule
) -> np.ndarray:
    """Coefficients of the score ``Re(a_b^H G a_b) + 2 Re(a_b^H w)`` with
    ``G = -Y Y^H`` and ``w = Y conj(r)``, column k of Y equal to ``g_k x_k``,
    ``g_k = theta_k^T a_bar``, without forming ``Y Y^H``: its lag-d diagonal
    sum is ``sum_k |g_k|^2 rho[k, d]``, ``rho`` being the schedule's
    :attr:`~rismf.signals.PilotSchedule.autocorrelation`."""
    n_bs = sched.pilots.shape[1]
    gains = sched.phases @ a_bar
    coef = (-2.0 / n_bs) * (np.abs(gains) ** 2 @ sched.autocorrelation)
    coef[0] /= 2.0  # the main diagonal pairs with itself
    coef += (2.0 / np.sqrt(n_bs)) * (sched.pilots.T @ (gains * obs.values.conj()))
    return coef


def am_iterate(
    a_bar: np.ndarray, psi: float, value: float, obs: ObservationSet, sched: PilotSchedule
) -> tuple[np.ndarray, float, float]:
    """One alternating-minimization sweep from ``(a_bar, psi)``, whose
    objective is ``value``; returns the new ``(a_bar, psi, value)``.

    First the angle update: the minimizer of
    ``sum_k |theta_k^T a_bar x_k^T conj(a_b(psi)) - r_k|^2`` at the current
    ``a_bar``, i.e. :func:`maximize_over_manifold` of the score
    ``Re(a_b^H G a_b) + 2 Re(a_b^H w)`` with ``G = -Y Y^H``, ``w = Y conj(r)``
    and column k of Y equal to ``(theta_k^T a_bar) x_k``. The score's
    coefficients come from the schedule's pilot autocorrelation
    (:func:`_angle_coefficients`), so the angle step costs O(k n_bs) per
    sweep plus the search's one FFT. The candidate is accepted only if the
    directly evaluated objective does not increase, which guards against
    rounding in the polynomial form. Then the exact LS update of ``a_bar``
    at the accepted angle, which in exact arithmetic can only decrease the
    objective further. At the optimum the LS solve can round the misfit up
    by an ulp or so (seen after an Aitken jump of :func:`_am_sweep`); such a
    sweep returns its input unchanged, so the sweep is monotone.
    """
    angle = maximize_over_manifold(_angle_coefficients(a_bar, obs, sched))
    if objective(a_bar, angle, obs, sched) > value:
        angle = psi
    new_a_bar = ls_a_bar(angle, obs, sched)
    new_value = objective(new_a_bar, angle, obs, sched)
    if new_value > value:
        return a_bar, psi, value
    return new_a_bar, angle, new_value


def _gd_terms(
    a_bar: np.ndarray, psi: float, obs: ObservationSet, sched: PilotSchedule
) -> tuple[np.ndarray, float, float, float]:
    """Complex gradient over a_bar, gradient over psi, and the Gauss-Newton
    diagonal curvatures ``h_a`` of each a_bar coordinate and ``h_psi`` of psi
    (see :func:`gd_gradients` and :func:`gd_iterate`)."""
    n_bs = sched.pilots.shape[1]
    a_b = array_response(n_bs, psi)
    c = sched.pilots @ a_b.conj()
    g = sched.phases @ a_bar
    e = g * c - obs.values

    grad_a = 2.0 * (sched.phases.conj().T @ (c.conj() * e))
    grad_steer = 2.0 * (sched.pilots.T @ (g * e.conj()))

    z = 2.0 * np.pi * np.arange(n_bs)
    phase = 2.0 * np.pi * psi * np.arange(n_bs)
    d_re = -np.sin(phase) * z / np.sqrt(n_bs)
    d_im = -np.cos(phase) * z / np.sqrt(n_bs)
    grad_psi = float(grad_steer.real @ d_re + grad_steer.imag @ d_im)

    c_slope = sched.pilots @ (d_re - 1j * d_im)  # (d a_b / d psi)^H x_k
    h_a = 2.0 * float(np.sum(np.abs(c) ** 2))
    h_psi = 2.0 * float(np.abs(g) ** 2 @ np.abs(c_slope) ** 2)
    return grad_a, grad_psi, h_a, h_psi


def gd_gradients(
    a_bar: np.ndarray,
    psi: float,
    obs: ObservationSet,
    sched: PilotSchedule,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradients of the misfit w.r.t. (Re a_bar, Im a_bar, psi).

    With residual ``e_k = theta_k^T a_bar a_b^H x_k - r_k``, pilot gain
    ``c_k = a_b(psi)^H x_k`` and RIS gain ``g_k = theta_k^T a_bar``:

    * grad over a_bar: ``2 sum_k conj(c_k) conj(theta_k) e_k`` (real part is
      the Re-gradient, imaginary part the Im-gradient),
    * grad over the steering vector: ``2 sum_k g_k x_k conj(e_k)``, chained
      through ``d a_b / d psi`` with phase slopes ``z_i = 2 pi i``.
    """
    grad_a, grad_psi, _, _ = _gd_terms(a_bar, psi, obs, sched)
    return grad_a.real, grad_a.imag, grad_psi


def gd_iterate(
    a_bar: np.ndarray, psi: float, value: float, obs: ObservationSet, sched: PilotSchedule
) -> tuple[np.ndarray, float, float]:
    """One diagonally scaled gradient step on (Re a_bar, Im a_bar, psi) from
    ``(a_bar, psi)``, whose objective is ``value``; returns the new
    ``(a_bar, psi, value)``.

    Each block's gradient is divided by its Gauss-Newton diagonal curvature
    at the current iterate: ``h_a = 2 sum_k |c_k|^2`` for every a_bar
    coordinate (``|theta_k,i| = 1``), with ``c_k = a_b(psi)^H x_k``, and
    ``h_psi = 2 sum_k |g_k|^2 |c'_k|^2`` for psi, with ``g_k = theta_k^T a_bar``
    and ``c'_k = (d a_b / d psi)^H x_k``. A block with zero curvature does not
    move (``a_bar = 0`` gives ``h_psi = 0``). The step is then unit-free:
    scaling the data scales ``a_bar``'s step with it and leaves psi's alone.
    The trial step starts at 1 and is halved (up to ``_MAX_BACKTRACKS``
    times) until the objective does not increase; if that fails the iterate
    is left unchanged, so the trajectory stays monotone (Armijo, Pacific J.
    Math. 16(1), 1966; Bertsekas, *Nonlinear Programming*, 2nd ed., sec.
    1.3). The angle is wrapped back to [0, 1).
    """
    grad_a, grad_psi, h_a, h_psi = _gd_terms(a_bar, psi, obs, sched)
    dir_a = grad_a / h_a if h_a > 0.0 else np.zeros_like(grad_a)
    dir_psi = grad_psi / h_psi if h_psi > 0.0 else 0.0

    step = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        cand_a = a_bar - step * dir_a
        cand_psi = _wrap_angle(psi - step * dir_psi)
        cand_val = objective(cand_a, cand_psi, obs, sched)
        if cand_val <= value:
            return cand_a, cand_psi, cand_val
        step *= 0.5
    return a_bar, psi, value


def _spectral_start(obs: ObservationSet, sched: PilotSchedule):
    """Spectral angle, the LS ``a_bar`` at it and their objective."""
    psi = init_psi(spectral_matrix(obs, sched))
    a_bar = ls_a_bar(psi, obs, sched)
    return a_bar, psi, objective(a_bar, psi, obs, sched)


def _am_start(obs: ObservationSet, sched: PilotSchedule):
    """The spectral start, plus the trail of angles the extrapolation reads."""
    a_bar, psi, value = _spectral_start(obs, sched)
    return a_bar, psi, (psi,), value


def _am_sweep(a_bar, psi, trail, value, obs: ObservationSet, sched: PilotSchedule):
    """One :func:`am_iterate`; every second sweep then tries an Aitken jump.

    ``trail`` holds the angles since the last try. Once it holds two steps,
    the jump goes to their Aitken limit (:func:`_aitken_angle`), with the
    exact LS ``a_bar`` there, and is kept only if its misfit is no higher
    than the sweep's. A rank-deficient LS design at the jump skips it.
    """
    a_bar, psi, value = am_iterate(a_bar, psi, value, obs, sched)
    if len(trail) < 2:
        return a_bar, psi, trail + (psi,), value
    jump = _aitken_angle(*trail, psi, sched.pilots.shape[1])
    if jump is not None:
        try:
            jump_a_bar = ls_a_bar(jump, obs, sched)
        except ValueError:
            return a_bar, psi, (psi,), value
        jump_value = objective(jump_a_bar, jump, obs, sched)
        if jump_value <= value:
            a_bar, psi, value = jump_a_bar, jump, jump_value
    return a_bar, psi, (psi,), value


def _aitken_angle(psi0: float, psi1: float, psi2: float, n_bs: int) -> float | None:
    """Aitken's delta-squared limit ``psi2 + d2^2 / (d1 - d2)`` of three
    angles on the circle, or None when it should not be tried.

    ``d1`` and ``d2`` are the two steps, each wrapped into [-0.5, 0.5). The
    limit is tried only when the steps contract in one direction,
    ``0 < d2 / d1 < 1``, and its step is finite and at most one grid spacing
    of the angle search, ``1 / (_GRID_DENSITY * n_bs)``. The guards keep most
    jumps out of a worse minimum, but near the pilot floor, where minima lie
    closer than that, a jump can still land in one.
    """
    d1 = (psi1 - psi0 + 0.5) % 1.0 - 0.5
    d2 = (psi2 - psi1 + 0.5) % 1.0 - 0.5
    if d1 == 0.0 or not 0.0 < d2 / d1 < 1.0:
        return None
    step = d2 * d2 / (d1 - d2)
    if not abs(step) <= 1.0 / (_GRID_DENSITY * n_bs):  # also false for inf and nan
        return None
    return _wrap_angle(psi2 + step)


def estimate_single_user(
    obs: ObservationSet,
    sched: PilotSchedule,
    config: MfConfig | None = None,
) -> EstimateResult:
    """Full estimator: spectral init, then AM or GD sweeps until the shared
    stop rule holds or after ``max_iters`` sweeps (:func:`_solve`).

    An AM sweep is one :func:`am_iterate`; every second one also tries an
    Aitken jump of the angle (:func:`_am_sweep`), which costs a second LS
    solve. ``iters_used`` counts sweeps, a sweep with a jump once, and each
    sweep adds one entry to the non-increasing ``objective_history``.

    The estimator is deterministic in the data; only the (a_bar, psi)
    product is identifiable, and the returned ``h_e_hat`` is that product.
    """
    config = config or MfConfig()
    if config.solver == "am":
        start, sweep = _am_start, _am_sweep
    else:
        start, sweep = _spectral_start, gd_iterate
    (a_bar, psi, *_), history, converged = _solve(
        start, sweep, obs, sched, config.resolved_max_iters()
    )
    return EstimateResult(
        a_bar_hat=a_bar,
        a_b_hat=array_response(sched.pilots.shape[1], psi),
        psi_hat=psi,
        converged=converged,
        objective_history=history,
    )
