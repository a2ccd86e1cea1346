"""Metrics, Monte Carlo sweep runner, and result persistence.

Each scenario trains with its link's one phase design: random phases for
the single-user downlink, the DFT schedule for the multi-user uplink.
:data:`SCENARIOS` is the one estimator registry and :func:`_sweep_cell`
the one sweep cell of both scenarios.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .baselines import lr_rankone, ls_full
from .channel import SystemDims, _is_count, cascaded_downlink, cascaded_uplink, sample_channel
from .mf import MfConfig, estimate_single_user
from .multiuser import estimate_multi_user
from .signals import downlink_observe, make_pilot_schedule, make_uplink_schedule, uplink_observe

__all__ = [
    "ESTIMATORS",
    "ExperimentSpec",
    "ResultRecord",
    "CSV_HEADER",
    "nmse",
    "aggregate_nmse",
    "spectral_efficiency",
    "overhead_table",
    "simulate_downlink",
    "simulate_uplink",
    "trial_seed",
    "run_sweep",
    "write_results",
    "read_records",
]

CSV_HEADER = "scenario,estimator,snr_db,k,trial,seed,nmse,se"

# The paper's SNR grid (dB): the downlink sweep's default and se-ordering's points.
_SNR_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


@dataclass(frozen=True)
class Estimator:
    """A registered estimator.

    ``min_pilots(n_bs, m_ris)`` is the fewest training pilots it needs; a
    sweep cell below it is recorded as infeasible rather than run.
    ``estimate(obs, sched)`` returns the cascaded channel estimate.
    """

    min_pilots: Callable[[int, int], int]
    estimate: Callable[..., np.ndarray]


# The downlink estimators a single-user sweep may name, in default sweep
# order. The bodies look the solvers up by module-global name at call time,
# so rebinding those names (e.g. to instrument them) reaches every sweep.
ESTIMATORS = {
    "MF_AM": Estimator(
        lambda n, m: m,
        lambda obs, sched: estimate_single_user(obs, sched, MfConfig(solver="am")).h_e_hat,
    ),
    "MF_GD": Estimator(
        lambda n, m: m,
        lambda obs, sched: estimate_single_user(obs, sched, MfConfig(solver="gd")).h_e_hat,
    ),
    "LS": Estimator(lambda n, m: m * n, lambda obs, sched: ls_full(obs, sched)),
    "LR": Estimator(lambda n, m: m + n, lambda obs, sched: lr_rankone(obs, sched).h_e_hat),
}

# The estimators each scenario may name; a spec that names none runs them all.
# The uplink's two-stage method "MF" returns every user's cascade, (q_users, n_bs, m_ris).
SCENARIOS = {"single_user_downlink": ESTIMATORS, "multi_user_uplink": {
    "MF": Estimator(lambda n, m: m, lambda obs, sched: estimate_multi_user(obs, sched).h_hats),
}}


def nmse(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """Per-trial normalized error ``||h_true - h_hat||_F^2 / ||h_true||_F^2``."""
    if h_true.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h_true.shape} vs {h_hat.shape}")
    denom = np.linalg.norm(h_true) ** 2
    if denom == 0.0:
        raise ValueError("nmse is undefined for a zero reference channel")
    return float(np.linalg.norm(h_true - h_hat) ** 2 / denom)


def _rank_one_design(h_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-aligned RIS vector and matched BS beamformer from a channel matrix."""
    left, _, right_h = np.linalg.svd(h_e, full_matrices=False)
    theta = np.exp(-1j * np.angle(left[:, 0]))
    x = right_h[0, :].conj()
    return theta, x


def _rate(h_e: np.ndarray, theta: np.ndarray, x: np.ndarray, noise_var: float) -> float:
    """``log2(1 + |theta^T h_e x|^2 / noise_var)`` of the design (theta, x)."""
    gain = np.abs(theta @ h_e @ x) ** 2
    return float(np.log2(1.0 + gain / noise_var))


def spectral_efficiency(h_e_true: np.ndarray, h_e_hat: np.ndarray, noise_var: float) -> float:
    """Downlink rate of the rank-one design derived from ``h_e_hat``, on the true channel.

    The RIS phases are ``exp(-j arg)`` of the left singular vector of
    ``h_e_hat`` and the BS beamformer is its matched right vector. With
    ``h_e_hat = h_e_true`` this is the optimal rate: for rank-one channels
    the design then maximizes the received power exactly. Returns
    ``log2(1 + |theta^T h_e_true x|^2 / noise_var)``.
    """
    if not (math.isfinite(noise_var) and noise_var > 0.0):
        raise ValueError(
            f"spectral efficiency needs a positive finite noise variance, got {noise_var}"
        )
    return _rate(h_e_true, *_rank_one_design(h_e_hat), noise_var)


def overhead_table(dims: SystemDims) -> dict[str, int]:
    """Minimal training pilots per downlink estimator.

    KBF is included for reference only; it is not a runnable estimator here.
    """
    n, m = dims.n_bs, dims.m_ris
    table = {name: entry.min_pilots(n, m) for name, entry in ESTIMATORS.items()}
    table["KBF"] = m * n
    return table


def simulate_downlink(dims: SystemDims, noise_var: float, rng: np.random.Generator):
    """Synthesize one single-user downlink training block.

    Draws a single-path channel, then the random pilot schedule, then the
    noise, all from ``rng`` in that order, so a seed fixes every bit of the
    cell. Returns ``(cascade, sched, obs)``; the cascade is the truth.
    """
    chan = sample_channel(dims, rng)
    sched = make_pilot_schedule(dims, rng)
    cascade = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
    return cascade, sched, downlink_observe(cascade, sched, noise_var, rng)


def simulate_uplink(dims: SystemDims, noise_var: float, rng: np.random.Generator):
    """Synthesize one multi-user uplink training block on the DFT schedule.

    Draws the channel, then the noise, from ``rng``; the schedule and the
    truths draw nothing. Returns ``(cascades, sched, obs)``; ``cascades[q]``
    is user q's truth, ``cascaded_uplink(g_up, h_users[q], psi)``.
    """
    chan = sample_channel(dims, rng)
    g_up = chan.g_uplink()
    sched = make_uplink_schedule(dims)
    obs = uplink_observe(g_up, chan.h_users, sched, noise_var, rng)
    cascades = [cascaded_uplink(g_up, h_q, psi=chan.psi) for h_q in chan.h_users]
    return cascades, sched, obs


def _sweep_dims(scenario: str, dims) -> SystemDims:
    """A ``scenario`` sweep's :class:`SystemDims`, from itself or a mapping of its fields."""
    try:
        dims = SystemDims(**dims) if isinstance(dims, dict) else dims
    except (TypeError, ValueError) as err:
        raise ValueError(f"invalid dims {dims!r}: {err}") from err
    if not isinstance(dims, SystemDims):
        raise ValueError(f"dims must be a SystemDims or a mapping of its fields, got {dims!r}")
    read = ("q_users", "t_symbols") if scenario == "multi_user_uplink" else ()
    for name in ("k_pilots", "q_users", "t_symbols"):
        if name not in read and (value := getattr(dims, name)) != 1:
            why = "k_grid sets it" if name == "k_pilots" else "one user, no pilot block"
            raise ValueError(f"{scenario} cells do not read dims.{name}, got {value!r} "
                             f"({why}); leave it out")
    return dims


@dataclass
class ExperimentSpec:
    """Declarative description of one Monte Carlo sweep.

    ``estimators`` is a list of distinct names; left as None or empty it
    resolves to every estimator of the scenario, in registry order: the
    downlink :data:`ESTIMATORS`, or the uplink two-stage method ``("MF",)``.
    Every SNR must map to a positive finite noise variance ``10^(-SNR/10)``.
    ``dims`` may set only what the cells read, ``n_bs``, ``m_ris`` and in the
    uplink ``q_users`` and ``t_symbols`` (``k_grid`` sets ``k_pilots``); any
    other field away from 1 is a ``ValueError``, so a spec records the dims that ran.
    """

    scenario: str
    dims: SystemDims
    snr_grid_db: list[float]
    k_grid: list[int]
    estimators: tuple[str, ...] | None = None
    n_trials: int = 200
    master_seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        self.dims = _sweep_dims(self.scenario, self.dims)
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"master_seed must be an integer, got {seed!r}")
        if not _is_count(self.n_trials):
            raise ValueError(f"n_trials must be a positive integer, got {self.n_trials!r}")
        for name in ("snr_grid_db", "k_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, list) or not grid:
                raise ValueError(f"{name} must be a non-empty list, got {grid!r}")
        for snr_db in self.snr_grid_db:
            if not (_is_real(snr_db) and 0.0 < _noise_var(snr_db) < math.inf):
                raise ValueError(f"snr_grid_db holds {snr_db!r}; SNRs must be numbers whose "
                                 "noise variance 10^(-SNR/10) is a positive finite float")
        for k in self.k_grid:
            if not _is_count(k):
                raise ValueError(f"k_grid holds {k!r}; pilot counts must be positive integers")
        registry = SCENARIOS[self.scenario]
        if self.estimators is not None and not isinstance(self.estimators, (list, tuple)):
            raise ValueError(f"estimators must be a list of names, got {self.estimators!r}")
        self.estimators = tuple(self.estimators or registry)
        unknown = set(self.estimators) - set(registry)
        if unknown:
            raise ValueError(f"unknown estimators for {self.scenario}: {sorted(unknown)}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"estimators repeats a name: {list(self.estimators)}")
        self.snr_grid_db = [float(s) for s in self.snr_grid_db]
        self.k_grid = [int(k) for k in self.k_grid]
        self.master_seed = int(self.master_seed)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["estimators"] = list(self.estimators)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        try:
            return cls(**raw)
        except TypeError as err:
            raise ValueError(f"invalid experiment spec: {err}") from err


@dataclass
class ResultRecord:
    """One sweep cell. ``nmse`` is None exactly when the cell is infeasible
    (too few pilots for the estimator); ``se`` is None when no rate metric
    applies. The energies sum ``||h_hat - h||^2`` and ``||h||^2`` over the
    cell's users; they are None when infeasible, are not written to CSV and
    take no part in equality."""

    scenario: str
    estimator: str
    snr_db: float
    k: int
    trial: int
    seed: int
    nmse: float | None
    se: float | None
    error_energy: float | None = dataclasses.field(default=None, compare=False)
    reference_energy: float | None = dataclasses.field(default=None, compare=False)

    def validate(self):
        for name in ("scenario", "estimator"):
            value = getattr(self, name)
            if not isinstance(value, str) or any(c in value for c in ",\n\r"):
                raise ValueError(
                    f"{name} is {value!r}; records must carry a string without ',' or line breaks"
                )
        for name in ("k", "trial", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} is {value!r}; records must carry an integer")
        for name in ("k", "trial"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("snr_db", "nmse", "se", "error_energy", "reference_energy"):
            value = getattr(self, name)
            if (value is not None or name == "snr_db") \
                    and not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} is {value!r}; records must carry finite numbers")
        if self.nmse is not None and self.nmse < 0.0:
            raise ValueError("nmse must be nonnegative")
        if (self.error_energy is None) != (self.reference_energy is None):
            raise ValueError("error_energy and reference_energy must be both set or both None")
        if self.error_energy is not None \
                and (self.error_energy < 0.0 or self.reference_energy <= 0.0):
            raise ValueError("error_energy must be nonnegative and reference_energy positive")


def aggregate_nmse(records) -> float:
    """Summed error energy over summed reference energy of ``records``.

    Per-trial NMSE has no finite mean under the scalar fade (deep fades put
    1/|beta|^2 in it), so sweep-level averages use this ratio. No records,
    or one without energies (infeasible, or read from CSV), is a ValueError.
    """
    records = list(records)
    if not records or any(r.error_energy is None for r in records):
        raise ValueError("aggregate NMSE needs records that all carry their energies")
    return sum(r.error_energy for r in records) / sum(r.reference_energy for r in records)


def trial_seed(master_seed: int, estimator: str, snr_index: int, k_index: int, trial: int) -> int:
    """Deterministic 64-bit seed for one sweep cell.

    The mixing rule is the first 8 bytes (little endian) of the SHA-256 of
    the ASCII string ``"{master_seed}:{estimator}:{snr_index}:{k_index}:{trial}"``,
    so any subset of a sweep is reproducible in isolation.
    """
    key = f"{master_seed}:{estimator}:{snr_index}:{k_index}:{trial}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _noise_var(snr_db: float) -> float:
    """Per-sample noise variance at a nominal SNR (unit receive power); inf on overflow."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def _energies(truths, estimates) -> tuple[float, float]:
    """Summed ``||h_hat - h||^2`` and ``||h||^2`` over a cell's users."""
    error, reference = 0.0, 0.0
    for h, h_hat in zip(truths, estimates):
        error += float(np.sum(np.abs(h_hat - h) ** 2))
        reference += float(np.sum(np.abs(h) ** 2))
    return error, reference


def _sweep_cell(spec, estimator, snr_db, k, trial, snr_index, k_index) -> ResultRecord:
    """One sweep cell of either scenario; a cell below the estimator's pilot
    floor is recorded as infeasible without drawing anything. The scenario's
    body is looked up by module-global name at call time, so rebinding it
    (e.g. to instrument it) reaches every sweep."""
    seed = trial_seed(spec.master_seed, estimator, snr_index, k_index, trial)
    entry = SCENARIOS[spec.scenario][estimator]
    scores = (None, None)
    if k >= entry.min_pilots(spec.dims.n_bs, spec.dims.m_ris):
        body = _single_user_cell if spec.scenario == "single_user_downlink" else _multi_user_cell
        dims = dataclasses.replace(spec.dims, k_pilots=k)
        scores = body(dims, entry, _noise_var(snr_db), np.random.default_rng(seed))
    return ResultRecord(spec.scenario, estimator, snr_db, k, trial, seed, *scores)


def _single_user_cell(dims, entry, noise_var, rng):
    """NMSE, SE and energies of one downlink cell."""
    cascade, sched, obs = simulate_downlink(dims, noise_var, rng)
    h_hat = entry.estimate(obs, sched)
    return (nmse(cascade.h_e, h_hat), spectral_efficiency(cascade.h_e, h_hat, noise_var),
            *_energies([cascade.h_e], [h_hat]))


def _multi_user_cell(dims, entry, noise_var, rng):
    """Mean per-user NMSE, no SE, and energies of one uplink cell."""
    cascades, sched, obs = simulate_uplink(dims, noise_var, rng)
    truths = [cascade.h_e for cascade in cascades]
    h_hats = entry.estimate(obs, sched)
    per_user = [nmse(h, h_hat) for h, h_hat in zip(truths, h_hats)]
    return (float(np.mean(per_user)), None, *_energies(truths, h_hats))


def run_sweep(spec: ExperimentSpec, n_threads: int = 1) -> list[ResultRecord]:
    """Run every (estimator, snr, k, trial) cell of the sweep, in order.

    The cells run one after another on the calling thread, estimator-major,
    then SNR, then k, then trial, which is also the returned order. Each
    cell derives its own rng from the mixed trial seed. ``n_threads`` must
    be a positive integer; it is accepted and validated but selects nothing.
    """
    if not _is_count(n_threads):
        raise ValueError(f"n_threads must be a positive integer, got {n_threads!r}")
    records = [
        _sweep_cell(spec, estimator, snr_db, k, trial, snr_index, k_index)
        for estimator in spec.estimators
        for snr_index, snr_db in enumerate(spec.snr_grid_db)
        for k_index, k in enumerate(spec.k_grid)
        for trial in range(spec.n_trials)
    ]
    for record in records:
        record.validate()
    return records


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The environment variables that set the BLAS thread count, as a sidecar records them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_results(records, path, format: str = "csv", spec: ExperimentSpec | None = None):
    """Persist records as CSV or JSON plus a ``.meta.json`` sidecar.

    The CSV header is fixed; infeasible cells carry the literal token
    ``infeasible`` in the nmse column (null in JSON). A missing rate metric
    is an empty cell (null in JSON). Floats are written with full
    round-trip precision. The sidecar holds the package, numpy and scipy
    versions, the BLAS thread variables as found, and the spec if given.
    """
    path = str(path)
    for record in records:
        record.validate()

    if format == "csv":
        lines = [CSV_HEADER]
        for r in records:
            nmse_cell = "infeasible" if r.nmse is None else repr(float(r.nmse))
            row = [
                r.scenario, r.estimator, _format_value(float(r.snr_db)),
                str(r.k), str(r.trial), str(r.seed),
                nmse_cell, _format_value(r.se),
            ]
            lines.append(",".join(row))
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(payload)
    elif format == "json":
        body = [dataclasses.asdict(r) for r in records]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(body, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")

    meta = {
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # LS rows move with the BLAS thread count; null where a variable is unset
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }
    if spec is not None:
        meta["spec"] = spec.to_dict()
    with open(path + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def read_records(path, format: str = "csv") -> list[ResultRecord]:
    """Parse a results file written by :func:`write_results`.

    Records read from CSV carry no energies. A malformed row or a record
    that fails :meth:`ResultRecord.validate` raises ``ValueError``.
    """
    path = str(path)
    records = []
    if format == "csv":
        with open(path, encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            n_columns = len(CSV_HEADER.split(","))
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) != n_columns:
                    raise ValueError(
                        f"CSV row has {len(cells)} cells, expected {n_columns}: {line!r}"
                    )
                records.append(ResultRecord(
                    scenario=cells[0], estimator=cells[1],
                    snr_db=float(cells[2]), k=int(cells[3]),
                    trial=int(cells[4]), seed=int(cells[5]),
                    nmse=None if cells[6] == "infeasible" else float(cells[6]),
                    se=None if cells[7] == "" else float(cells[7]),
                ))
    elif format == "json":
        fields = [f.name for f in dataclasses.fields(ResultRecord)]
        columns = set(CSV_HEADER.split(","))
        with open(path, encoding="ascii") as fh:
            for raw in json.load(fh):
                # files written before the energies existed hold the CSV columns only
                if not isinstance(raw, dict) or raw.keys() not in (set(fields), columns):
                    raise ValueError(f"unexpected JSON record {raw!r}; keys must be {fields}")
                records.append(ResultRecord(**raw))
    else:
        raise ValueError(f"unknown format {format!r}")
    for record in records:
        record.validate()
    return records
