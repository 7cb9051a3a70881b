"""Numeric toolkit for Lie groups given as coordinate charts.

Measure operator fields of a composition law by finite differences,
extract structure constants, integrate invariant flows, and verify the
differential identities that tie them together, for the built-in catalog
of groups or any user-supplied chart.
"""

from .errors import (
    LeftChart,
    LieChartError,
    NoConvergence,
    NonFiniteEvaluation,
    NotIntegrable,
    SingularMatrix,
    UnknownEntry,
    ZeroPsi,
)
from .group import (
    BasicOperators,
    GroupChart,
    ShiftJacobians,
    basic_operators,
    check_chart_axioms,
    inverse,
    sample_points,
    shift_jacobians,
    verify_shift_identities,
)
from .numdiff import (
    CBRT_EPS,
    DiffConfig,
    invert,
    jacobian,
    mixed_second,
    numeric_rank,
    rowwise,
    vf_commutator,
)
from .report import CheckRecord, CheckReport

__all__ = [
    "BasicOperators",
    "CBRT_EPS",
    "CheckRecord",
    "CheckReport",
    "DiffConfig",
    "GroupChart",
    "LeftChart",
    "LieChartError",
    "NoConvergence",
    "NonFiniteEvaluation",
    "NotIntegrable",
    "ShiftJacobians",
    "SingularMatrix",
    "UnknownEntry",
    "ZeroPsi",
    "basic_operators",
    "check_chart_axioms",
    "inverse",
    "invert",
    "jacobian",
    "mixed_second",
    "numeric_rank",
    "rowwise",
    "sample_points",
    "shift_jacobians",
    "vf_commutator",
    "verify_shift_identities",
]
