"""toughlab: an exact-arithmetic laboratory for graph toughness.

Everything is computed with exact rationals over immutable bitset graphs:
toughness, minimal-toughness verdicts (two independent deciders), local
connectivity via unit-capacity max-flow, class recognizers, canonical forms
with isomorph-free enumeration, and an exhaustive verification harness for
the classification results on small graphs.
"""
from .canon import are_isomorphic, canonical_code, canonical_form, enumerate_graphs
from .classes import (
    CLASS_PREDICATES,
    MultipartiteParts,
    SimplicialPairDecomposition,
    complete_multipartite_parts,
    contains_induced,
    find_induced_cycle,
    is_chordal,
    is_co_chordal,
    is_co_net_free,
    is_complement_of_forest,
    is_complete_multipartite,
    is_forest,
    is_hereditary_nbhd_helly,
    is_net_free,
    is_p4_free,
    is_split,
    is_weakly_chordal,
    simplicial_pair_decomposition,
    simplicial_vertices,
)
from .connectivity import (
    DistanceTable,
    Matching,
    co_diameter,
    components,
    diameter,
    distances,
    is_connected,
    local_connectivity,
    max_bipartite_matching,
    uv_extension,
)
from .families import (
    Family,
    FamilySpec,
    complete_multipartite,
    make_named,
    parse_family_spec,
    turan_parts,
)
from .graph6 import Graph6Error, iter_graph6, parse_graph6, write_graph6
from .graphs import (
    Graph,
    VertexSet,
    complement,
    delete_edge,
    delete_vertex,
    induced_subgraph,
    join,
    relabel,
)
from .mintough import (
    EdgeWitness,
    MinToughStatus,
    MinToughVerdict,
    cond2_candidates,
    is_minimally_tough_by_criterion,
    is_minimally_tough_by_definition,
    is_nontrivially_minimally_tough,
    universal_vertices,
    verdict_to_json,
)
from .toughness import (
    INFINITE_TOUGHNESS,
    Toughness,
    ToughWitness,
    format_toughness,
    iterate_separators,
    tough_separators,
    toughness_complete_multipartite,
)
from .verify import (
    KRIESELL_CLASS_FILTERS,
    THEOREM_IDS,
    CoDiamExclusionReport,
    KriesellReport,
    PerNCounts,
    ProbeHit,
    ProbeReport,
    TheoremReport,
    ValueReport,
    ValueRow,
    identify_family,
    kriesell_scan,
    probe_conjecture_cochordal_diam2,
    verify_codiam_exclusions,
    verify_table1,
    verify_theorem,
    verify_wheels,
)

__version__ = "0.1.0"
