"""Exact intersection arithmetic and verification for bidouble-cover surface geometry.

The package works entirely over the integers: lattices of blown-up
planes, named curve configurations on them, a two-stage numerical
classification search, building-data verification for smooth covers
with three branch divisors, and Euler characteristic bookkeeping for
the associated deformation arguments. Results are reported as
certificates whose rows separate computed facts from recorded inputs.
"""

from importlib import import_module

# Each public name once, under the module that defines it. A name is
# imported on first access and never cached here, so ``bidouble.X`` is
# always what the owning module holds now (a monkeypatch, say).
_EXPORTS = {
    "certificates": ("Certificate", "CheckRow", "canonical_json", "check", "recorded"),
    "classifier": (
        "ClassifierError", "NumericalCase", "branch_matrix_determinant",
        "candidate_k_triples", "classification_certificate", "classify",
        "classify_with_trace", "eigenspace_dims", "enumerate_m_triples",
    ),
    "cohomology": ("chi_branch_restrictions", "chi_rank2_twist", "deformation_certificate"),
    "covers": (
        "CoverData", "CoverError", "CoverInvariants", "compute_invariants", "permute_basis",
        "run_verification",
    ),
    "curves": (
        "ConfigurationError", "CurveConfiguration", "FiberDecomposition", "NamedCurve",
        "ROLES", "enumerate_classes", "filter_effective_against_nodal",
        "verify_fiber_decomposition",
    ),
    "fixtures": ("FIXTURE_NAMES", "FixtureError", "expectations", "fixture"),
    "lattice": (
        "DivisorClass", "LatticeError", "SurfaceLattice", "arithmetic_genus", "format_class",
        "halve", "index_bound_holds", "intersect", "is_perfect_square", "riemann_roch_chi",
    ),
    "surface_io": (
        "SurfaceFile", "SurfaceFileError", "load_surface", "save_surface", "surface_from_dict",
        "surface_to_dict",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_OWNER[name]}", __name__), name)
