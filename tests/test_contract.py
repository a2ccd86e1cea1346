"""The public API's contract: one bad argument gives a ``ValueError`` or a
result of finite numbers, never another exception or a NaN.

``CALLS`` holds one valid call of every public callable of :mod:`rismf`, and
``NOT_CALLED`` names the rest of ``rismf.__all__`` with the reason. The test
replaces one argument of a valid call at a time with a bad value of each
kind: a wrong type, a wrong shape, NaN, an empty array, and a mapping or a
list in place of a dataclass or an array.
"""

import dataclasses
import numbers
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rismf
from rismf import (
    ExperimentSpec,
    MfConfig,
    SystemDims,
    run_sweep,
    sample_channel,
    simulate_downlink,
    simulate_uplink,
)
from rismf.signals import despread

DIMS = SystemDims(n_bs=2, m_ris=3, k_pilots=8)
UP_DIMS = SystemDims(n_bs=2, m_ris=3, k_pilots=4, q_users=2, t_symbols=2)
CASCADE, SCHED, OBS = simulate_downlink(DIMS, 0.1, np.random.default_rng(0))
_, UP_SCHED, UP_OBS = simulate_uplink(UP_DIMS, 0.1, np.random.default_rng(1))
CHAN = sample_channel(UP_DIMS, np.random.default_rng(2))
SPEC = ExperimentSpec("single_user_downlink", SystemDims(n_bs=2, m_ris=3), [10.0], [8],
                      ("MF_AM",), n_trials=1)
RECORDS = run_sweep(SPEC)


def rng():
    return np.random.default_rng(3)


# One valid call per public callable: a function of no arguments that returns
# the call's arguments, so that each call draws from a fresh generator.
CALLS = {
    "SystemDims": lambda: (2, 3, 8, 1, 1),
    "array_response": lambda: (4, 0.3),
    "complex_normal": lambda: (rng(), (2, 3), 0.5),
    "sample_channel": lambda: (DIMS, rng()),
    "cascaded_downlink": lambda: (CHAN.h_r, CHAN.g_matrix, CHAN.psi),
    "cascaded_uplink": lambda: (CHAN.g_uplink(), CHAN.h_r, CHAN.psi),
    "PilotSchedule": lambda: (SCHED.pilots, SCHED.phases),
    "UplinkSchedule": lambda: (UP_SCHED.phases, UP_SCHED.user_pilots),
    "ObservationSet": lambda: (OBS.values,),
    "random_pilots": lambda: (2, 8, rng()),
    "random_phase_schedule": lambda: (3, 8, rng()),
    "dft_phase_schedule": lambda: (3, 8),
    "orthogonal_user_pilots": lambda: (2, 2),
    "make_pilot_schedule": lambda: (DIMS, rng()),
    "make_uplink_schedule": lambda: (UP_DIMS,),
    "downlink_observe": lambda: (CASCADE, SCHED, 0.1, rng()),
    "uplink_observe": lambda: (CHAN.g_uplink(), CHAN.h_users, UP_SCHED, 0.1, rng()),
    "despread": lambda: (UP_OBS, UP_SCHED),
    "MfConfig": lambda: ("gd", 20),
    "objective": lambda: (CASCADE.a_bar, CASCADE.psi, OBS, SCHED),
    "estimate_single_user": lambda: (OBS, SCHED, MfConfig("gd", 20)),
    "estimate_a_q": lambda: (despread(UP_OBS, UP_SCHED)[0], UP_SCHED, 0.3),
    "predicted_mse": lambda: (0.1, UP_SCHED),
    "estimate_multi_user": lambda: (UP_OBS, UP_SCHED),
    "ls_full": lambda: (OBS, SCHED),
    "lr_rankone": lambda: (OBS, SCHED),
    "ExperimentSpec": lambda: ("single_user_downlink", SystemDims(n_bs=2, m_ris=3), [10.0],
                               [8], ("LS",), 1, 0),
    # a record is checked where it is written or read, by its validate()
    "ResultRecord": lambda: ("single_user_downlink", "LS", 10.0, 8, 0, 17, 0.5, 4.0, 1.0, 2.0),
    "nmse": lambda: (CASCADE.h_e, 0.5 * CASCADE.h_e),
    "aggregate_nmse": lambda: (RECORDS,),
    "spectral_efficiency": lambda: (CASCADE.h_e, 0.5 * CASCADE.h_e, 0.1),
    "overhead_table": lambda: (DIMS,),
    "simulate_downlink": lambda: (DIMS, 0.1, rng()),
    "simulate_uplink": lambda: (UP_DIMS, 0.1, rng()),
    "trial_seed": lambda: (0, "MF_AM", 0, 0, 0),
    "run_sweep": lambda: (SPEC, 1),
    "write_results": lambda: (RECORDS, "out.csv", "csv", SPEC),
    "read_records": lambda: ("in.csv", "csv"),
}

NOT_CALLED = {
    **{name: "module" for name in
       ("channel", "signals", "mf", "multiuser", "baselines", "experiments")},
    "ESTIMATORS": "constant",
    "CSV_HEADER": "constant",
    # returned by the package's own functions, which build them from checked data
    "ChannelRealization": "result type",
    "CascadedChannel": "result type",
    "EstimateResult": "result type",
    "MultiUserEstimate": "result type",
}


# File paths: any value names a file, and a missing one is an OSError, which
# the CLI reports as an I/O error, not as bad input.
PATHS = {("write_results", 1), ("read_records", 0)}


def call(name, args):
    if name == "ResultRecord":
        return rismf.ResultRecord(*args).validate()
    return getattr(rismf, name)(*args)


def is_finite(value) -> bool:
    """True unless ``value`` holds a NaN or infinite number anywhere."""
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return all(map(is_finite, value.ravel()))
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, numbers.Number):
        return bool(np.isfinite(value))
    if dataclasses.is_dataclass(value):
        return all(is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(is_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(is_finite, value))
    return True


def with_nan(value):
    """``value`` with one entry NaN: the entry a drawn index picks."""
    if isinstance(value, np.ndarray) and value.size and value.dtype.kind in "fc":
        return st.integers(0, value.size - 1).map(
            lambda i: np.where(np.arange(value.size) == i, np.nan, value.ravel())
            .reshape(value.shape))
    if isinstance(value, (list, tuple)) and value:
        return st.integers(0, len(value) - 1).map(
            lambda i: type(value)(np.nan if j == i else v for j, v in enumerate(value)))
    return st.just(np.nan)


def wrong_shape(value):
    """A finite array whose shape is not ``value``'s."""
    shape = np.shape(value) if isinstance(value, (np.ndarray, numbers.Number)) else None
    dtype = value.dtype if isinstance(value, np.ndarray) else float
    shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
    return shapes.filter(lambda s: s != shape).map(lambda s: np.ones(s, dtype=dtype))


def as_mapping(value):
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return {"value": value}


def as_list(value):
    if dataclasses.is_dataclass(value):
        return [getattr(value, f.name) for f in dataclasses.fields(value)]
    return value.tolist() if isinstance(value, np.ndarray) else [value]


def bad_values(value):
    """One strategy per kind of bad replacement for ``value``."""
    return {
        "wrong type": st.sampled_from(["abc", None, 1j, object()]),
        "wrong shape": wrong_shape(value),
        "NaN": with_nan(value),
        "empty array": st.just(np.array([])),
        "mapping": st.just(as_mapping(value)),
        "list": st.just(as_list(value)),
    }


def breach(name, position, bad):
    """How the call of ``name`` with argument ``position`` set to ``bad``
    breaks the contract, or None if it raises ``ValueError`` or returns
    finite numbers."""
    args = list(CALLS[name]())
    args[position] = bad
    try:
        result = call(name, args)
    except ValueError:
        return None
    except Exception as err:  # the contract allows only ValueError
        return f"{type(err).__name__}: {err}"
    return None if is_finite(result) else f"non-finite result {result!r}"


@pytest.fixture(scope="module", autouse=True)
def in_tmp_dir(tmp_path_factory):
    """Run in a fresh directory that holds ``in.csv``: a bad path is a file name."""
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("contract"))
    rismf.write_results(RECORDS, "in.csv")
    yield
    os.chdir(here)


def test_table_covers_the_public_api():
    assert not CALLS.keys() & NOT_CALLED.keys()
    assert sorted(CALLS.keys() | NOT_CALLED.keys()) == sorted(rismf.__all__)
    for name in CALLS:
        assert callable(getattr(rismf, name))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_call_is_finite(name):
    assert is_finite(call(name, CALLS[name]()))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_bad_argument_fails_with_value_error(name, data):
    for position, value in enumerate(CALLS[name]()):
        if (name, position) in PATHS:
            continue
        for kind, values in bad_values(value).items():
            bad = data.draw(values, label=f"argument {position}, {kind}")
            assert breach(name, position, bad) is None
