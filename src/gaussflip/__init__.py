"""Gauss diagrams, cubic graphs with Hamiltonian cycles, and flips.

A Gauss diagram records the self-crossing pattern of a closed curve; the
same data is a cubic graph with a marked Hamiltonian cycle.  This package
parses and canonicalizes diagrams, moves between the diagram and graph
views, decides which diagrams are actually drawable as plane curves (by
three independent routes: one traced key of a spanning-forest colouring
of the interlacement graph, the planarity of a crossing gadget, and
exhaustive face tracing behind ``min_genus``; Rosenstiehl's criterion is
a test oracle), names the resulting curves canonically, and implements
the flip move together with an exhaustive check that flips preserve
realizability.
"""

from .cubic import (
    CensusEntry,
    CensusReport,
    CubicGraph,
    CycleMismatchError,
    GraphError,
    HamCycle,
    NotCubicError,
    UnsupportedOrderError,
    are_isomorphic,
    diagram_from_cycle,
    graph_from_diagram,
    ham_census,
    hamiltonian_cycles,
    moebius_ladder,
    parse_edge_list,
)
from .diagrams import (
    DiagramError,
    EmptyDiagramError,
    GaussDiagram,
    InterlacementGraph,
    MalformedWordError,
    SlotPartitionError,
    canonical_form,
    canonical_words,
    class_count,
    enumerate_diagrams,
    flip_site_count,
    from_chord_pairs,
    interlacement_graph,
    parity_check,
    parse_chord_pairs,
    parse_diagram_input,
    parse_word,
)
from .flips import (
    FlipCounterexample,
    FlipError,
    FlipOrbit,
    FlipSite,
    FlipTheoremReport,
    StaleSiteError,
    apply_flip,
    flip_orbit,
    flip_sites,
    verify_flip_theorem,
)
from .realize import (
    EmbeddingReport,
    NotAPlaneCurveError,
    RealizeError,
    curve_code,
    gadget_planarity,
    is_realizable,
    min_genus,
    realize_all,
    trace_faces,
    transverse_rotation_systems,
)

__version__ = "0.1.0"

__all__ = [
    "CensusEntry",
    "CensusReport",
    "CubicGraph",
    "CycleMismatchError",
    "DiagramError",
    "EmbeddingReport",
    "EmptyDiagramError",
    "FlipCounterexample",
    "FlipError",
    "FlipOrbit",
    "FlipSite",
    "FlipTheoremReport",
    "GaussDiagram",
    "GraphError",
    "HamCycle",
    "InterlacementGraph",
    "MalformedWordError",
    "NotAPlaneCurveError",
    "NotCubicError",
    "RealizeError",
    "SlotPartitionError",
    "StaleSiteError",
    "UnsupportedOrderError",
    "apply_flip",
    "are_isomorphic",
    "canonical_form",
    "canonical_words",
    "class_count",
    "curve_code",
    "diagram_from_cycle",
    "enumerate_diagrams",
    "flip_orbit",
    "flip_site_count",
    "flip_sites",
    "from_chord_pairs",
    "gadget_planarity",
    "graph_from_diagram",
    "ham_census",
    "hamiltonian_cycles",
    "interlacement_graph",
    "is_realizable",
    "min_genus",
    "moebius_ladder",
    "parity_check",
    "parse_chord_pairs",
    "parse_diagram_input",
    "parse_edge_list",
    "parse_word",
    "realize_all",
    "trace_faces",
    "transverse_rotation_systems",
    "verify_flip_theorem",
    "__version__",
]
