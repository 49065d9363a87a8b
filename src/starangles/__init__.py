"""Watatani indices, quasi-bases, basic constructions and angles between
intermediate subalgebras of finite-dimensional matrix *-algebras."""

from .angle import (
    AngleContext,
    AngleMatrix,
    AngleReport,
    angle_matrix,
    exterior_angle,
    group_oracle_cosine,
    interior_angle,
)
from .algebra import (
    CrossedProduct,
    GroupAction,
    GroupAlgebra,
    Inclusion,
    StarAlgebra,
    action_from_generators,
    crossed_product,
    fixed_point,
    from_generators,
    from_span,
    group_algebra,
    relative_commutant,
    same_span,
    tensor_by_factor,
)
from .basic import BasicConstruction, build, dual_expectation
from .errors import (
    ArgumentError,
    ConstructionError,
    ContainmentError,
    DegenerateDenominatorError,
    DimensionError,
    ExteriorAngleUndefinedError,
    IncompatibilityError,
    InvariantError,
    NumericalError,
    ParseError,
    ShapeError,
    SingularityError,
    SizeError,
    StarAnglesError,
    ValidationError,
)
from .expectation import (
    CompatibleIntermediate,
    CondExpectation,
    ExpectationReport,
    expectation_from_values,
    ind_p_estimate,
    make_compatible,
    trace_preserving,
    verify,
)
from .groups import (
    Perm,
    PermGroup,
    closure,
    conjugacy_classes,
    cyclic,
    dihedral,
    format_cycles,
    index,
    intermediate_subgroups,
    intersect,
    klein_four,
    parse_cycles,
    symmetric,
    trivial,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint,
    kron,
    op_norm,
    orthonormal_span,
    psd_calculus,
)
from .pimsner import (
    ModuleBasis,
    WatataniIndex,
    orthonormal_basis,
    verify_quasi_basis,
    watatani_index,
)

__version__ = "0.1.0"
