"""Sharp bounds on the third moment from the first four moments.

Core facts implemented here, for a random variable X with E X <= 0:

    m3 <= sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4),

both sharp, with equality exactly for zero-mean two-point distributions.
The package computes moments of discrete distributions, checks Hankel
(moment matrix) feasibility, evaluates the bounds with tightness
certificates, and verifies sharpness with an independent LP oracle whose
optima carry dual certificates.
"""

from . import bounds, moments, oracle
from .bounds import *  # noqa: F403
from .moments import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *moments.__all__, *bounds.__all__, *oracle.__all__]
