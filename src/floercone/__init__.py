"""Heegaard Floer homology of 0-surgery from a finite knot Floer model.

The package takes a finite chain-level model of a knot's Floer complex and
computes surgery invariants through mapping cones: untwisted and twisted
(Novikov) homology of the 0-surgered manifold, the genus bound, the mod-2
Alexander polynomial, and detection routines built on top of them (the
non-separating sphere obstruction and the unknotting verdict).

All arithmetic is exact: GF(2), GF(2)[T, T^-1] and rationals only.
"""

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    homology_dim_f2,
    kernel_basis_f2,
    rank_f2,
    smith_invariants_laurent,
)
from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    NoFlipFound,
    PlaneElement,
    ValidationError,
    ValidationReport,
    derive_flip,
    enumerate_flips,
    lattice_window,
    validate,
)
from floercone.subquotient import (
    SubquotientComplex,
    TruncationUnstable,
    build_A_hat,
    build_B_hat,
    hf_red_graded,
)
from floercone.cone import (
    ChainMapF2,
    ConeResult,
    FlipMissing,
    NotAChainMap,
    build_v_hat,
    cone_homology_hat,
    cone_homology_plus_truncated,
    project_A,
)
from floercone.twisted import (
    TwistedConeResult,
    build_twisted_cone,
    novikov_dim,
    twisted_homology_laurent,
)
from floercone.detect import (
    AlexanderResult,
    NotHomologySphere,
    Verdict,
    VerdictKind,
    alexander_polynomial,
    genus,
    hf_red_obstruction,
    sphere_necessary_conditions,
    sphere_obstruction,
    unknotting_verdict,
)

__all__ = [
    "AlexanderResult",
    "ChainMapF2",
    "CompositionNonzero",
    "ConeResult",
    "DiffTerm",
    "F2Matrix",
    "FlipMissing",
    "FlipTerm",
    "Generator",
    "InvariantViolated",
    "KnotComplex",
    "LaurentMatrix",
    "LaurentPoly",
    "NoFlipFound",
    "NotAChainMap",
    "NotHomologySphere",
    "PlaneElement",
    "SubquotientComplex",
    "TruncationUnstable",
    "TwistedConeResult",
    "ValidationError",
    "ValidationReport",
    "Verdict",
    "VerdictKind",
    "alexander_polynomial",
    "build_A_hat",
    "build_B_hat",
    "build_twisted_cone",
    "build_v_hat",
    "cone_homology_hat",
    "cone_homology_plus_truncated",
    "derive_flip",
    "enumerate_flips",
    "genus",
    "hf_red_graded",
    "hf_red_obstruction",
    "homology_dim_f2",
    "kernel_basis_f2",
    "lattice_window",
    "novikov_dim",
    "project_A",
    "rank_f2",
    "smith_invariants_laurent",
    "sphere_necessary_conditions",
    "sphere_obstruction",
    "twisted_homology_laurent",
    "unknotting_verdict",
    "validate",
]

__version__ = "0.1.0"
