"""Transfer systems on finite lattices.

Construction and validation of finite bounded lattices, exhaustive
enumeration of transfer systems and their refinement lattice,
characteristic functions onto interior operators with their fiber
intervals, the matchstick bijection between saturated covers and
saturated transfer systems on modular lattices, the fusion counting
recursion, and pushforwards along lattice maps.
"""

from .characteristic import (
    ChiFiber,
    InteriorOperator,
    characteristic,
    chi_image_check,
    count_interior_operators,
    enumerate_interior_operators,
    fiber_decomposition,
    galois_F,
    galois_G,
)
from .counting import (
    BMTDecomposition,
    FusionCountBreakdown,
    bmt_decompose,
    catalan,
    chi_structure_rank_two,
    count_tr_chain_fusion,
    count_tr_fusion,
    tr_minimal_fibrant_count,
    tr_rank_two,
)
from .covers import (
    SaturatedCover,
    cover_to_system,
    covering_diamonds,
    enumerate_saturated_covers,
    find_cover_violation,
    system_to_cover,
)
from .errors import (
    AmbientMismatch,
    ClassificationGap,
    CycleDetected,
    InvalidCover,
    InvalidInput,
    InvalidTransferSystem,
    InvariantViolation,
    NotALattice,
    NotBounded,
    NotComposable,
    NotGraded,
    NotModular,
    NotMonotone,
    NotPrime,
    NotSaturated,
    SizeLimit,
    TrsysError,
)
from .functorial import (
    LatticeMap,
    check_functoriality,
    compose,
    composition_counterexample,
    identity_map,
    product_split,
    pushforward,
    sample_meet_preserving_pairs,
    split_to_factors,
)
from .lattice import (
    Lattice,
    all_lattices,
    boolean_cube,
    canonical_form,
    chain,
    from_order,
    fusion,
    is_isomorphic,
    iterated_fusion,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    product,
    sub_cp_cp,
)
from .transfer import (
    TransferSystem,
    TrLattice,
    complete_system,
    discrete_system,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
    find_violation,
    generate,
    saturated_hull,
)

__version__ = "0.1.0"
