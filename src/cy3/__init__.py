"""Exact-arithmetic analysis of integral cubic forms, linear forms and their
unimodular symmetries on a rank-3 lattice."""

__version__ = "0.1.0"

from .core_arith import (
    QuadSurd,
    solve_unit_quadratic,
)
from .cubic_geometry import (
    QuadricLine,
    RelationReport,
    ThreeLines,
    UnipotentSplit,
    check_hyperbolic_relations,
    check_unipotent_relations,
    hyperbolic_factorization,
    quadric_signature,
    singular_locus,
    unipotent_factorization,
)
from .element_classify import (
    FiniteOrder,
    Hyperbolic,
    Identity,
    OutOfTheory,
    UnipotentDeficient,
    UnipotentFull,
    classify,
    finite_order,
)
from .group_structure import (
    CharacterWitness,
    GroupVerdict,
    TauWitness,
    analyze_group,
    certify_discrete_cyclic,
    enumerate_symmetries,
    unipotent_shear,
)
from .lattice_forms import (
    LatticeMap,
    LinearForm,
    TrilinearForm,
    cubic_eval,
    preserves_pair,
    primitive_part,
    transform_cubic,
    trilinear_eval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
