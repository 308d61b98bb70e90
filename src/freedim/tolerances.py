"""Central numerical thresholds.

All identity checks in the package use absolute residuals against these
defaults; matrices are exact complex doubles throughout.  FREEDIM_TOL
overrides the generic residual threshold for a CLI run.
"""

import math
import os

from .errors import ConfigError

SCALAR_TOL = 1e-12        # scalar identities (weights, traciality)
OPERATOR_TOL = 1e-10      # operator identities (homomorphism, conjugation)
RANK_TOL = 1e-9           # relative singular-value cutoff for numerical rank
INVARIANCE_TOL = 1e-8     # commutant-action invariance certificates
WELLDEF_TOL = 1e-8        # derivation well-definedness defect
RESIDUAL_TOL = 1e-9       # dual-operator residual gate
SUBSPACE_TOL = 1e-9       # subspace equality distance
DIAG_SWITCH = 1e-8        # difference quotient switches to the derivative
CENTER_RETRIES = 5        # random central element retries


def residual_tol() -> float:
    """Residual threshold honored by CLI-driven checks (env override).

    ConfigError unless FREEDIM_TOL parses as a finite positive float: NaN
    would switch the gate off, since no residual compares greater than it.
    """
    raw = os.environ.get("FREEDIM_TOL")
    if raw is None:
        return RESIDUAL_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"FREEDIM_TOL={raw!r} is not a number") from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"FREEDIM_TOL={raw!r} must be finite and positive")
    return value
