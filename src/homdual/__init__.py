"""Structural sparsity invariants and restricted homomorphism dualities."""

from .graphs import (
    BallFamily,
    Graph,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    path_graph,
    quotient,
)
from .homs import (
    HomResult,
    VertexMap,
    check_homomorphism,
    core,
    find_homomorphism,
    forb_member,
    hom_equivalent,
    is_isomorphic,
)
from .sparsity import (
    GradResult,
    Orientation,
    RootedForest,
    TdCertificate,
    degeneracy,
    expansion_profile,
    grad_0_flow,
    grad_r,
    min_indegree_orientation,
    tree_depth,
    verify_td,
)
from .coloring import (
    Coloring,
    centered_from_td,
    find_low_td_coloring,
    make_coloring,
    product_centered,
    verify_low_td,
    verify_p_centered,
)
from .duality import (
    DualityReport,
    TruncatedPower,
    build_dual,
    lift_homomorphism,
    local_hom_check,
    locbound_equivalence,
    power_local_property,
    regular_partition_report,
    representatives,
    truncated_power,
    verify_duality,
)
from .powers import (
    chromatic_number,
    exact_distance_graph,
    exact_power,
    odd_girth,
    odd_power_experiment,
)

__version__ = "0.1.0"
