"""Desk-scale workbench for commutator cocycle spaces over finite tracial
matrix algebras: trace representations, trace-weighted dimensions of
invariant Hilbert-Schmidt subspaces, dual operators for prescribed
derivations, spectral clamp experiments, and group-algebra inputs."""

__version__ = "0.1.0"

from .algebra import (
    GnsStructure,
    TracialAlgebra,
    build_algebra,
    gns_structure,
    numerical_span,
)
from .cocycles import (
    DeltaReport,
    compute_H0,
    compute_H1,
    delta_report,
)
from .cutoff import (
    CutoffFamily,
    apply_cutoff,
    commutator_identity_check,
    convergence_sweep,
    spectral_radius,
)
from .derivations import (
    DualOperatorReport,
    construct_dual_operator,
    derivation_well_defined,
    fdq_targets,
    fisher_report,
    inner_spec,
    phi_star,
)
from .errors import (
    CenterResolutionError,
    ChainViolation,
    ConfigError,
    FreedimError,
    IllDefined,
    IntegralityError,
    NotGenerating,
    NotGeneratingSet,
    NotInvariant,
    NotSelfAdjoint,
    ResidualTooLarge,
    ShapeMismatch,
    TooLarge,
    UnsupportedFormat,
    WeightError,
)
from .groups import (
    BettiInput,
    FiniteGroupTable,
    SchreierGraph,
    betti_delta_formula,
    counterexample_report,
    cyclic_group,
    direct_product,
    from_mult_table,
    permutation_from_cycles,
    regular_rep_algebra,
    schreier_graph,
    symmetric_element_index,
    symmetric_group,
    word_str,
)
from .vndim import (
    HsSubspace,
    VnDimensionReport,
    central_decomposition,
    hs_subspace,
    invariant_closure,
    subspace_distance,
    vn_dimension_report,
)
from .wedderburn import blockify_subalgebra

__all__ = [name for name in dir() if not name.startswith("_")]
