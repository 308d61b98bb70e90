"""Central numerical thresholds.

All identity checks in the package use absolute residuals against these
defaults; matrices are exact complex doubles throughout.
"""

SCALAR_TOL = 1e-12        # scalar identities (weights, traciality)
OPERATOR_TOL = 1e-10      # operator identities (homomorphism, conjugation)
RANK_TOL = 1e-9           # relative singular-value cutoff for numerical rank
INVARIANCE_TOL = 1e-8     # commutant-action invariance certificates
WELLDEF_TOL = 1e-8        # derivation well-definedness defect
RESIDUAL_TOL = 1e-9       # dual-operator residual gate
SUBSPACE_TOL = 1e-9       # subspace equality distance
DIAG_SWITCH = 1e-8        # difference quotient switches to the derivative
CENTER_RETRIES = 5        # random central element retries

