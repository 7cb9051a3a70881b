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
    GroupChart,
    check_chart_axioms,
    inverse,
    psi_flavored,
    sample_points,
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
    "SingularMatrix",
    "UnknownEntry",
    "ZeroPsi",
    "check_chart_axioms",
    "inverse",
    "invert",
    "jacobian",
    "mixed_second",
    "numeric_rank",
    "psi_flavored",
    "rowwise",
    "sample_points",
    "vf_commutator",
    "verify_shift_identities",
]
