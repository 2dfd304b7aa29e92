"""Sharp bounds on the third moment from the first four moments.

Core facts implemented here, for a random variable X with E X <= 0:

    m3 <= sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4),

both sharp, with equality exactly for zero-mean two-point distributions.
The package computes moments of discrete distributions, checks Hankel
(moment matrix) feasibility, evaluates the bounds with tightness
certificates, and verifies sharpness with an independent LP oracle whose
optima carry dual certificates.

The oracle is imported on first use of one of its names, and numpy with
the oracle's first LP, pair block or falsifier chunk, so the scalar API
and the oracle's configuration and records load only the standard library.
"""

import importlib

from . import bounds, moments
from .bounds import *  # noqa: F403
from .moments import *  # noqa: F403
from .moments import CertificateError

__version__ = "0.1.0"

#: ``oracle.__all__``, listed here so that it is known before the import.
_ORACLE_NAMES = (
    "CertificateError",
    "OracleConfig",
    "OracleResult",
    "FalsifierReport",
    "ReplayedTrial",
    "oracle_max_m3",
    "oracle_extreme_m3_given",
    "random_falsifier",
    "replay_trial",
)

__all__ = ["__version__", *moments.__all__, *bounds.__all__, *_ORACLE_NAMES]


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = importlib.import_module(f"{__name__}.oracle")
    globals().update((n, getattr(oracle, n)) for n in _ORACLE_NAMES)
    return globals()[name]
