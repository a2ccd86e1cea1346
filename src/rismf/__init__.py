"""Rank-one matrix-factorization channel estimation for RIS-aided MIMO.

The package covers the single-user downlink estimator (spectral
initialization plus alternating minimization or gradient descent), the
two-stage multi-user uplink estimator with the MSE-optimal DFT phase design,
unstructured LS and low-rank baselines, and a deterministic Monte Carlo
experiment harness with a CLI. Each module's ``__all__`` is its public API;
the package republishes them, plus the module names, as its own.
"""

__version__ = "0.1.0"

from .channel import *
from .signals import *
from .mf import *
from .multiuser import *
from .baselines import *
from .experiments import *

__all__ = [name for name in dir() if not name.startswith("_")]
