"""Central numerical thresholds.

Most identity checks in the package compare absolute residuals with these
defaults.  Three are relative: RANK_TOL to the largest singular value, the
zero cutoff of `wedderburn.commutant_basis` to the largest entry of its
matrices, and the frame gap of `algebra._verify_gns` (OPERATOR_TOL) to a
generator's largest entry when that exceeds 1.  Matrices are exact complex
doubles throughout.
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

