"""Central numerical thresholds.

Most identity checks compare absolute residuals with these defaults.  The
relative ones: RANK_TOL to the largest singular value, the zero cutoff of
`wedderburn.commutant_basis` to its matrices' largest entry, OPERATOR_TOL's
frame gap in `algebra._verify_gns` to a generator's largest entry above 1,
the WELLDEF_TOL verdict and the commutator gate of RESIDUAL_TOL to ||T||,
and RESIDUAL_TOL's other two gates to ||Y||.  Matrices are exact complex
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

