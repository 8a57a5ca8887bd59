"""Nearest matrices and critical-point censuses over classical matrix groups.

The distance is always the (real) Frobenius metric.  Closed-form solvers
cover the orthogonal, special orthogonal, and unitary groups; a polynomial
elimination pipeline covers the determinant-one groups; a multistart solver
gives census lower bounds for everything with a Lie algebra, symplectic
included; and lattice-polytope volumes bound critical counts on tori.
"""

from .critsearch import (
    CensusResult,
    CriticalPoint,
    GroupSpec,
    critical_point_from,
    critical_residual,
    lie_basis,
    membership_violation,
    multistart_census,
    random_group_element,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegeneracyError,
    GroupnearError,
    InputError,
    SingularityError,
    UnsupportedError,
)
from .matcore import matrix_from_json, matrix_to_json, random_general
from .orthonear import (
    enumerate_orthogonal_critical,
    enumerate_special_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_special_orthogonal,
    nearest_unitary,
)
from .slnear import (
    nearest_sl,
    nearest_sl_plus,
    sl_critical_points,
    sl_ed_degree,
    sl_plus_critical_points,
)
from .torused import (
    WeightSet,
    bkk_bound,
    torus_critical_count_rank1,
    validate_weightset,
    weightset_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "CensusResult",
    "ConditioningError",
    "ConvergenceError",
    "CriticalPoint",
    "DegeneracyError",
    "GroupSpec",
    "GroupnearError",
    "InputError",
    "SingularityError",
    "UnsupportedError",
    "WeightSet",
    "bkk_bound",
    "critical_point_from",
    "critical_residual",
    "enumerate_orthogonal_critical",
    "enumerate_special_orthogonal_critical",
    "enumerate_unitary_critical",
    "lie_basis",
    "matrix_from_json",
    "matrix_to_json",
    "membership_violation",
    "multistart_census",
    "nearest_orthogonal",
    "nearest_sl",
    "nearest_sl_plus",
    "nearest_special_orthogonal",
    "nearest_unitary",
    "random_general",
    "random_group_element",
    "sl_critical_points",
    "sl_ed_degree",
    "sl_plus_critical_points",
    "torus_critical_count_rank1",
    "validate_weightset",
    "weightset_from_json",
]
