"""Exact-arithmetic toolkit for indefinite unimodular lattices, their
isometry groups, and flat/hyperplane arrangements in the Grassmannian model
of the associated symmetric space."""

from .arrangement import (
    ArrangementSpec,
    BoostParams,
    IntersectionMatrix,
    RotationPair,
    arrangement_spec,
    boost_power,
    build_family,
    intersection_matrix,
    rotation_from_tangent,
    search_parameters,
    standard_flat,
)
from .grassmann import (
    Flat,
    GrPoint,
    Hyperplane,
    IntersectionVerdict,
    flat_new,
    general_position,
    gr_point,
    hyperplane_new,
    intersect_flat_hyperplane,
    stabilizer_sign_patterns,
    translate,
)
from .isometries import (
    Isometry,
    SquareClass,
    cartan_dieudonne,
    compose,
    in_congruence_subgroup,
    isometry_from_matrix,
    product_of_reflections,
    reflection,
    spinor_norm,
)
from .lattices import (
    LatticeClass,
    QuadLattice,
    classify,
    combine,
    eval_form,
    quad_lattice,
    standard_lattice,
)
from .linalg import (
    Subspace,
    det,
    frac,
    inertia,
    intersect,
    perp,
    restricted_definiteness,
    span,
    subspace_sum,
)
from .obstructions import (
    any_root_orthogonal,
    enumerate_roots,
    plane_orthogonal_to,
)
from .signs import (
    AdmissibleV,
    admissible_v,
    build_k,
    epsilon_general,
    pi_k_matrix,
    random_admissible_v,
)

__version__ = "0.1.0"
