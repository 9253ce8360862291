"""Nodal nonconforming quadrilateral finite elements and their exact sequence.

Two 12-DoF elements on arbitrary convex quadrilaterals: a scalar element
(vertex values and gradients) for fourth-order elliptic singular
perturbation problems and a vector element (edge normal integrals and vertex
values) for Brinkman-type flow, linked by rotated gradients and cellwise
divergence into a discrete de Rham sequence. Includes structured /
trapezoidal / randomly perturbed meshes of the unit square, sparse assembly
and direct solves, manufactured-solution convergence studies, and
verification tooling for the element identities and the sequence ranks.
"""

from .assembly import (
    SolverError,
    SparseSystem,
    assemble_brinkman,
    assemble_fourth_order,
    solve,
)
from .cases import (
    BrinkmanCase,
    ScalarCase,
    brinkman_sin_stream,
    scalar_poly2_case,
    scalar_sin_squared,
)
from .dofmap import ScalarDofMap, VectorDofMap
from .elements import (
    ElementConditioningError,
    ScalarElement,
    VectorElement,
    build_scalar_element,
    build_vector_element,
    det_oracles,
    numeric_dets,
)
from .geometry import DegenerateCellError, NonConvexCellError, QuadGeometry
from .mesh import Mesh, MeshGenerationError, make_mesh
from .norms import brinkman_error_norms, scalar_error_norms
from .quadrature import QuadratureRule
from .sequence import SequenceReport, inf_sup_constant, verify_exact_sequence
from .study import (
    StudyReport,
    run_brinkman_study,
    run_scalar_interpolation_study,
    run_scalar_study,
    run_vector_interpolation_study,
)
from .verify import ElementCertificate, element_certificate

__version__ = "0.1.0"
