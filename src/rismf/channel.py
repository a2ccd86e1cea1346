"""System geometry, ULA array responses, and cascaded channel synthesis.

Conventions used throughout the package:

* Angles are normalized spatial frequencies in [0, 1) (element spacing times
  cos of the physical angle over the wavelength); every array response is
  1-periodic in its angle.
* The BS-RIS channel is a single line-of-sight path, hence rank one:
  ``g = beta * a_r(phi) a_b(psi)^H`` with ``a_b`` of length ``n_bs`` and
  ``a_r`` of length ``m_ris``.
* RIS-user channels are i.i.d. standard circularly symmetric complex Gaussian;
  the RIS-user path gain is absorbed into them, and the direct BS-user path is
  taken as zero.

The module also holds the numerical helpers every other module shares: the
complex Gaussian sampler, the one variance check and the checked Cholesky
factor of a small Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "SystemDims",
    "ChannelRealization",
    "CascadedChannel",
    "array_response",
    "complex_normal",
    "sample_channel",
    "cascaded_downlink",
    "cascaded_uplink",
]

# Largest condition number accepted for the Gram of a factor LS step or of
# the uplink phase schedule; above it the design counts as rank deficient.
_COND_LIMIT = 1e12
# LAPACK's reciprocal condition estimate from a Cholesky factor
_POCON = scipy.linalg.lapack.get_lapack_funcs("pocon", dtype=complex)


def array_response(n_elements: int, angle: float) -> np.ndarray:
    r"""Normalized ULA response, ``exp(-j 2 pi angle i) / sqrt(n)`` for i = 0..n-1.

    Parameters
    ----------
    n_elements : int
        Number of array elements.
    angle : float
        Normalized spatial frequency. The response is 1-periodic in it, so
        any finite real value is accepted; the canonical domain is [0, 1).
        An array of angles of shape (a, 1) gives the responses as rows.

    Returns
    -------
    np.ndarray
        Complex vector of shape (n_elements,) with unit 2-norm.
    """
    if not (_is_count(n_elements) and (_is_real(angle) and math.isfinite(angle) or (
            isinstance(angle, np.ndarray) and np.isfinite(angle).all()))):
        raise ValueError(f"array_response needs a positive integer count and finite real "
                         f"angles, got {n_elements!r} and {angle!r}")
    idx = np.arange(n_elements)
    return np.exp(-2j * np.pi * angle * idx) / np.sqrt(n_elements)


# Unused in the package: kept only while the benchmark counts the angles it evaluates.
def steering_matrix(n_elements: int, angles) -> np.ndarray:
    """Array responses for a grid of angles, stacked as columns (n, len(angles))."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    phase = np.outer(np.arange(n_elements), angles)
    return np.exp(-2j * np.pi * phase) / np.sqrt(n_elements)


def complex_normal(rng: np.random.Generator, shape=None, var: float = 1.0):
    """Circularly symmetric complex Gaussian draws with the given total variance.

    All real parts are drawn before all imaginary parts; both are scaled
    straight into one complex array, bit for bit ``scale * (re + 1j * im)``.
    A negative or non-finite ``var``, an ``rng`` other than a Generator, or a
    ``shape`` numpy cannot draw is a ``ValueError``, raised before any draw.
    """
    _check_variance(var, "var")
    _require("complex_normal", (rng, np.random.Generator))
    scale = np.sqrt(var / 2.0)
    try:
        re = rng.standard_normal(shape)
    except TypeError as err:
        raise ValueError(f"complex_normal needs an integer shape, got {shape!r}") from err
    im = rng.standard_normal(shape)
    out = np.empty(np.shape(re), dtype=complex)
    np.multiply(scale, re, out=out.real)
    np.multiply(scale, im, out=out.imag)
    return out if shape is not None else out[()]


def _check_variance(value: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite nonnegative real."""
    if not (_is_real(value) and math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _is_real(value) -> bool:
    """A Python or numpy real number that is not a bool. It tests concrete types:
    an isinstance check against a ``numbers`` ABC is about ten times slower."""
    return isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)


def _require(caller: str, *checks) -> None:
    """Raise ``ValueError`` naming ``caller`` unless each ``(value, kind)`` is an instance."""
    for value, kind in checks:
        if not isinstance(value, kind):
            name = kind.__name__
            article = "an" if name[0] in "AEIOU" else "a"
            raise ValueError(f"{caller} needs {article} {name}, got {type(value).__name__}")


def _cholesky(gram: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of a small Hermitian Gram, checked for full rank.

    The Gram counts as rank deficient (``ValueError``) when the
    factorization fails or LAPACK's ``pocon`` estimate of its condition
    number exceeds ``_COND_LIMIT``. Returns the factor in the form
    ``scipy.linalg.cho_solve`` takes.
    """
    try:
        factor = scipy.linalg.cho_factor(gram, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"LS design is rank deficient: {err}") from err
    rcond, _ = _POCON(factor[0], np.abs(gram).sum(axis=0).max())
    if rcond * _COND_LIMIT < 1.0:
        raise ValueError(f"LS design is rank deficient (reciprocal condition {rcond:.1e})")
    return factor


def _is_count(value) -> bool:
    """True for a positive Python or numpy integer; bools are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SystemDims:
    """Static problem dimensions.

    ``k_pilots`` counts training slots in the downlink and transmitted blocks
    in the uplink; ``q_users`` and ``t_symbols`` only matter in the uplink.
    """

    n_bs: int
    m_ris: int
    k_pilots: int = 1
    q_users: int = 1
    t_symbols: int = 1

    def __post_init__(self):
        for name in ("n_bs", "m_ris", "k_pilots", "q_users", "t_symbols"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass
class ChannelRealization:
    """One draw of the single-path BS-RIS channel and the RIS-user channels.

    ``g_matrix`` is stored in the downlink orientation (m_ris, n_bs) and
    equals ``beta_br a_r(phi) a_b(psi)^H``.
    """

    psi: float
    phi: float
    beta_br: complex
    g_matrix: np.ndarray
    h_users: np.ndarray

    @property
    def h_r(self) -> np.ndarray:
        """Single-user RIS-user channel (the first user's)."""
        return self.h_users[0]

    def g_uplink(self) -> np.ndarray:
        """BS-RIS channel in the uplink orientation, ``beta_br a_b(psi) a_r(phi)^H``.

        Shape (n_bs, m_ris). Built from the path parameters rather than by
        transposing ``g_matrix``: the two orientations are not transposes of
        each other, they share the path geometry.
        """
        m_ris, n_bs = self.g_matrix.shape
        return self.beta_br * np.outer(
            array_response(n_bs, self.psi), array_response(m_ris, self.phi).conj()
        )


@dataclass
class CascadedChannel:
    """Cascaded BS-RIS-user channel together with its rank-one factors.

    ``h_e`` is (m_ris, n_bs) in the downlink and (n_bs, m_ris) in the uplink.
    ``a_bar`` and ``psi`` are set when the BS-side angle is supplied, in
    which case ``h_e == a_bar a_b(psi)^H`` (downlink) or
    ``h_e == a_b(psi) a_bar^H`` (uplink). A non-finite ``h_e`` is a ``ValueError``.
    """

    h_e: np.ndarray
    a_bar: np.ndarray | None
    psi: float | None
    uplink: bool = False

    def __post_init__(self):
        if not np.isfinite(self.h_e).all():
            raise ValueError("a cascaded channel must be finite")


def sample_channel(dims: SystemDims, rng: np.random.Generator) -> ChannelRealization:
    """Draw a single-path realization.

    Angles are uniform on [0, 1) and each user's RIS-user channel has i.i.d.
    standard complex normal entries. The BS-RIS gain is complex normal with
    variance ``n_bs``, which compensates the unit-norm array responses and
    pilots: the mean receive power of a training sample is then exactly 1, so
    a nominal SNR of ``1 / noise_var`` is also the realized per-sample SNR.
    The draws are psi, phi, the gain, then ``h_users``, each as an array
    (``size=1`` for the scalars), so a seed fixes every bit of the channel.
    """
    _require("sample_channel", (dims, SystemDims), (rng, np.random.Generator))
    psi = rng.uniform(size=1)[0]
    phi = rng.uniform(size=1)[0]
    beta = complex_normal(rng, 1, var=float(dims.n_bs))[0]
    g = beta * np.outer(array_response(dims.m_ris, phi), array_response(dims.n_bs, psi).conj())
    h_users = complex_normal(rng, (dims.q_users, dims.m_ris))
    return ChannelRealization(
        psi=float(psi), phi=float(phi), beta_br=complex(beta), g_matrix=g, h_users=h_users
    )


def cascaded_downlink(h_r: np.ndarray, g: np.ndarray, psi: float | None = None) -> CascadedChannel:
    """Downlink cascaded channel ``h_e = diag(h_r^H) g``, shape (m_ris, n_bs).

    When ``psi`` (the BS-side angle of ``g``) is given, the compound RIS-side
    factor is recovered as ``a_bar = h_e a_b(psi)``, exact whenever ``h_e`` is
    rank one with right factor ``a_b(psi)``.
    """
    _require("cascaded_downlink", (h_r, np.ndarray), (g, np.ndarray))
    h_e = h_r.conj()[:, None] * g
    a_bar = None
    if psi is not None:
        a_bar = h_e @ array_response(g.shape[-1], psi)
    return CascadedChannel(h_e=h_e, a_bar=a_bar, psi=psi, uplink=False)


def cascaded_uplink(g: np.ndarray, h_q: np.ndarray, psi: float | None = None) -> CascadedChannel:
    """Uplink cascaded channel ``h_e = g diag(h_q)``, shape (n_bs, m_ris).

    ``g`` must be in the uplink orientation (n_bs, m_ris). With ``psi`` given,
    the RIS-side factor is ``a_bar = h_e^H a_b(psi)``, exact for rank-one ``g``.
    """
    _require("cascaded_uplink", (g, np.ndarray), (h_q, np.ndarray))
    h_e = g * h_q[None, :]
    a_bar = None
    if psi is not None:
        a_bar = h_e.conj().T @ array_response(g.shape[0], psi)
    return CascadedChannel(h_e=h_e, a_bar=a_bar, psi=psi, uplink=True)
