"""Exact invariants of torus-bundle singularity links.

The package computes, in exact integer and rational arithmetic:

* SL(2,Z) monodromy classification and the cycle-word normal form,
* circular and genus-one plumbing graphs with their boundary homology,
* horizontal genus-one open books and the homology of their total spaces,
* enumerations of Legendrian handle diagrams of Stein fillings,
* the adjunction-realizing (canonical) diagrams, Euler classes and d3.
"""

from .families import Cusp, Elliptic, Family, InvalidParameter
from .invariants import (
    CohomologyClassRep,
    DimensionMismatch,
    HomologyAgreement,
    NonTorsionChernClass,
    UnsupportedPresentation,
    adjunction_defect,
    c1_evaluations,
    d3_invariant,
    euler_class,
    homology_cross_check,
    is_canonical,
)
from .legendrian import (
    ChainUnknot,
    ContactSurgeryComponent,
    ContactSurgeryDiagram,
    EllipticCore,
    FramingTooLarge,
    NodalDoublePass,
    PresentationKind,
    SteinHandleDiagram,
    TwoHandleSpec,
    canonical_filling,
    enumerate_stein_fillings,
    rotation_range,
    tb_max,
    to_contact_surgery,
)
from .linalg import AbelianGroup, SnfResult, smith_normal_form
from .openbook import (
    DeltaCurve,
    GammaCurve,
    OpenBookDescription,
    UnsupportedOpenBook,
    curve_homology_classes,
    cusp_openbook,
    elliptic_openbook,
    homological_monodromy_action,
    openbook_homology,
)
from .plumbing import (
    PlumbingGraph,
    PlumbingVertex,
    SurgeryDescription,
    boundary_homology,
    cusp_graph,
    elliptic_graph,
    intersection_matrix,
    smooth_surgery_description,
)
from .sl2z import (
    CycleWord,
    MonodromyClass,
    MonodromyType,
    NoFactorization,
    NotCuspClass,
    Sl2Matrix,
    classify,
    cycle_monodromy,
    cyclic_equal,
    factor_cycle,
)

__version__ = "0.1.0"
