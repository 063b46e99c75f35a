"""Exact intersection arithmetic and verification for bidouble-cover surface geometry.

The package works entirely over the integers: lattices of blown-up
planes, named curve configurations on them, a two-stage numerical
classification search, building-data verification for smooth covers
with three branch divisors, and Euler characteristic bookkeeping for
the associated deformation arguments. Results are reported as
certificates whose rows separate computed facts from recorded inputs.
"""

from .certificates import (
    Certificate,
    CheckRow,
    canonical_json,
    check,
    recorded,
)
from .classifier import (
    ClassifierError,
    NumericalCase,
    branch_genus,
    branch_matrix_determinant,
    candidate_k_triples,
    classify,
    classify_with_trace,
    eigenspace_dims,
    enumerate_m_triples,
    sign_elimination_check,
)
from .cohomology import (
    H2_BOUNDS,
    DeformationReport,
    chi_branch_restrictions,
    chi_rank2_twist,
    deformation_certificate,
    deformation_report,
)
from .covers import (
    CoverData,
    CoverError,
    CoverInvariants,
    compute_invariants,
    make_cover,
    permute_basis,
    run_verification,
)
from .curves import (
    ConfigurationError,
    CurveConfiguration,
    FiberDecomposition,
    NamedCurve,
    ROLES,
    enumerate_classes,
    filter_effective_against_nodal,
    verify_fiber_decomposition,
)
from .fixtures import FIXTURE_NAMES, FixtureError, expectations, fixture, verify_fixture
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceLattice,
    arithmetic_genus,
    format_class,
    halve,
    index_bound_holds,
    intersect,
    is_perfect_square,
    riemann_roch_chi,
    self_int,
)
from .surface_io import (
    SurfaceFile,
    SurfaceFileError,
    load_surface,
    save_surface,
    surface_from_dict,
    surface_to_dict,
)

__all__ = [
    "Certificate",
    "CheckRow",
    "ClassifierError",
    "ConfigurationError",
    "CoverData",
    "CoverError",
    "CoverInvariants",
    "CurveConfiguration",
    "DeformationReport",
    "DivisorClass",
    "FIXTURE_NAMES",
    "FiberDecomposition",
    "FixtureError",
    "H2_BOUNDS",
    "LatticeError",
    "NamedCurve",
    "NumericalCase",
    "ROLES",
    "SurfaceFile",
    "SurfaceFileError",
    "SurfaceLattice",
    "arithmetic_genus",
    "branch_genus",
    "branch_matrix_determinant",
    "candidate_k_triples",
    "canonical_json",
    "check",
    "chi_branch_restrictions",
    "chi_rank2_twist",
    "classify",
    "classify_with_trace",
    "compute_invariants",
    "deformation_certificate",
    "deformation_report",
    "eigenspace_dims",
    "enumerate_classes",
    "enumerate_m_triples",
    "expectations",
    "filter_effective_against_nodal",
    "fixture",
    "format_class",
    "halve",
    "index_bound_holds",
    "intersect",
    "is_perfect_square",
    "load_surface",
    "make_cover",
    "permute_basis",
    "recorded",
    "riemann_roch_chi",
    "run_verification",
    "save_surface",
    "self_int",
    "sign_elimination_check",
    "surface_from_dict",
    "surface_to_dict",
    "verify_fiber_decomposition",
    "verify_fixture",
]

__version__ = "0.1.0"
