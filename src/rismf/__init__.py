"""Rank-one matrix-factorization channel estimation for RIS-aided MIMO.

The package covers the single-user downlink estimator (spectral
initialization plus alternating minimization or gradient descent), the
two-stage multi-user uplink estimator with the MSE-optimal DFT phase design,
unstructured LS and low-rank baselines, and a deterministic Monte Carlo
experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .channel import (
    CascadedChannel,
    ChannelRealization,
    SystemDims,
    array_response,
    cascaded_downlink,
    cascaded_uplink,
    complex_normal,
    sample_channel,
    steering_matrix,
)
from .signals import (
    ObservationSet,
    PilotSchedule,
    UplinkSchedule,
    despread,
    dft_phase_schedule,
    downlink_observe,
    make_pilot_schedule,
    make_uplink_schedule,
    orthogonal_user_pilots,
    random_phase_schedule,
    random_pilots,
    uplink_observe,
)
from .mf import (
    EstimateResult,
    MfConfig,
    am_iterate,
    estimate_single_user,
    gd_gradients,
    gd_iterate,
    init_psi,
    ls_a_bar,
    manifold_coefficients,
    maximize_over_manifold,
    objective,
    spectral_matrix,
)
from .multiuser import (
    MultiUserEstimate,
    estimate_a_q,
    estimate_multi_user,
    estimate_psi_uplink,
    predicted_mse,
)
from .baselines import lr_rankone, ls_full
from .experiments import (
    CSV_HEADER,
    ESTIMATORS,
    ExperimentSpec,
    ResultRecord,
    aggregate_nmse,
    nmse,
    overhead_table,
    read_records,
    run_sweep,
    simulate_downlink,
    simulate_uplink,
    spectral_efficiency,
    trial_seed,
    write_results,
)

__all__ = [name for name in dir() if not name.startswith("_")]
