"""Central numerical thresholds.

Most identity checks compare absolute residuals with these defaults.  The
relative ones: RANK_TOL to the largest singular value, COMMUTANT_ZERO_TOL
to the largest entry of the commuting matrices, OPERATOR_TOL's frame gap in
`algebra._verify_gns` to a generator's largest entry above 1, the
WELLDEF_TOL verdict and the commutator gate of RESIDUAL_TOL to ||T||,
RESIDUAL_TOL's other two gates to ||Y||, WORD_GROWTH_TOL to max(1, |v|),
CLUSTER_GAP to max(1, eigenvalue spread) and FRACTION_TOL to the float
read.  Matrices are exact complex doubles throughout.  SUBSPACE_TOL and
CLAMP_SLACK are read only by the tests.
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
WORD_GROWTH_TOL = 1e-9    # a word's vector grows the derivation fit's span
COMMUTANT_ZERO_TOL = 1e-12  # every commutator counts as zero (commutant search)
CLUSTER_GAP = 1e-6        # eigenvalue gap between clusters of a random split
SUPPORT_TOL = 1e-6        # diagonal entries of a projection that fix block order
CENTER_WEIGHT_TOL = 1e-8  # tau(z_i) of a recovered block against its declared weight
FRACTION_TOL = 1e-12      # a float read as a nearby fraction of denominator <= 10^6
FRACTION_DENOMINATOR = 10**6  # largest denominator of that fraction
PROJECTION_DIGITS = 6     # decimals of a projection's entries in the block-order key
PROJECTION_SPLIT = 0.5    # eigenvalues of a projection above it count as 1
CLAMP_SLACK = 1e-12       # the clamp's sampled bounds |f_R| <= R + 1 and |g_R| <= 2
