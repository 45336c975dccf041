"""Schubert classes in orthogonal Grassmannians.

Quadric-diagram calculus for restriction varieties: class expansion,
pushforward to ordinary Schubert classes, and the complete rigidity
classification of sub-indices and classes in G(k,n) and OG(k,n).
"""

from .classsum import ClassSum
from .degeneration import (
    BranchDecision,
    TraceNode,
    derive_and_fix_a,
    derive_and_fix_b,
    expand,
    kappa,
    merge_primes,
    pushforward,
    pushforward_diagram,
    step,
)
from .diagrams import (
    AdmissibilityReport,
    Bracket,
    Quadric,
    QuadricDiagram,
    check_conditions,
    diagram_dimension,
    digits,
    enumerate_diagrams,
    parse_diagram,
    print_diagram,
)
from .catalog import (
    CatalogRecord,
    build_record,
    enumerate_gr,
    enumerate_og,
    read_catalog,
    write_catalog,
)
from .grassmannian import (
    GrIndex,
    Verdict,
    gr_dimension,
    gr_dual,
    gr_envelope,
    gr_essential,
    gr_rigid_class,
    gr_rigid_index,
    validate_gr,
)
from .orthogonal import (
    OgIndex,
    canonical_index,
    diagram_to_og,
    og_dimension,
    og_essential,
    og_to_diagram,
    validate_og,
)
from .rigidity import (
    RigidityReport,
    classify_og,
    find_nonrigid_witness,
    og_rigid_a,
    og_rigid_b,
    og_rigid_class,
    x_counts,
    z_counts,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BranchDecision",
    "Bracket",
    "CatalogRecord",
    "ClassSum",
    "GrIndex",
    "OgIndex",
    "Quadric",
    "QuadricDiagram",
    "RigidityReport",
    "TraceNode",
    "Verdict",
    "build_record",
    "canonical_index",
    "check_conditions",
    "classify_og",
    "derive_and_fix_a",
    "derive_and_fix_b",
    "diagram_dimension",
    "diagram_to_og",
    "digits",
    "enumerate_diagrams",
    "enumerate_gr",
    "enumerate_og",
    "errors",
    "expand",
    "find_nonrigid_witness",
    "gr_dimension",
    "gr_dual",
    "gr_envelope",
    "gr_essential",
    "gr_rigid_class",
    "gr_rigid_index",
    "kappa",
    "merge_primes",
    "og_dimension",
    "og_essential",
    "og_rigid_a",
    "og_rigid_b",
    "og_rigid_class",
    "og_to_diagram",
    "parse_diagram",
    "print_diagram",
    "pushforward",
    "pushforward_diagram",
    "read_catalog",
    "step",
    "validate_gr",
    "validate_og",
    "write_catalog",
    "x_counts",
    "z_counts",
]
