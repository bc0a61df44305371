"""Homological statics of trusses over exact rational arithmetic.

Self-stresses, mechanisms and Maxwell counts of pin-jointed frames;
boundary-loaded equilibrium stresses through an exterior loop; and, in
the plane, reciprocal force diagrams with their obstructions.  All
linear algebra is exact (arbitrary-precision rationals), so homology
dimensions are computed, never estimated.
"""

from .complexes import (
    CellComplex,
    CellId,
    Embedding,
    build_complex,
    euler_char,
    planar_faces,
    poincare_dual,
)
from .cosheaves import (
    Cosheaf,
    CosheafMap,
    QuotientPresentation,
    Subcomplex,
    boundary_matrices,
    check_cosheaf_map,
    constant_cosheaf,
    force_cosheaf,
    quotient_by_subcomplex,
    restrict_to_subcomplex,
    spline_cosheaf,
)
from .duality import (
    ForceDiagram,
    FormDiagram,
    PositionCosheaf,
    RelativeForceDiagram,
    check_form_finding_safety,
    force_diagram_from_stress,
    force_diagrams_from_stresses,
    form_diagram,
    impossible_rotation_basis,
    motion_to_rotation_class,
    position_cosheaf,
    relative_force_diagram,
    stress_from_force_diagram,
    stresses_from_force_diagrams,
)
from .errors import InputError, InternalCheckError, PreconditionError, TrussHomError
from .homology import (
    ChainComplex,
    HomologySummary,
    betti_numbers,
    check_euler_identity,
    euler_characteristic,
    les_dimension_check,
)
from .sparse import (
    SparseMatrix,
    cokernel_reps,
    kernel_basis,
    rank,
    solve_particular,
)
from .statics import (
    BoundaryDecomposition,
    MaxwellReport,
    StaticsReport,
    Truss,
    analyze,
    decompose_boundary,
    equilibrium_stresses,
    force_chain_complex,
    maxwell_report,
)

__version__ = "0.1.0"
