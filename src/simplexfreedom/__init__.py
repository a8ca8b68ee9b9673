"""Freedom/nonspecificity measures for interval probability assignments.

The central object is an :class:`IntervalAssignment`: necessity/possibility
bounds on the probabilities of M options.  The freedom measure is the
fraction of the probability simplex compatible with those bounds, computed
in closed form (``freedom``) and independently by seeded rejection sampling
(``mc_freedom``) and, for M = 3, by exact polygon clipping
(``region_polygon``).
"""

from .core import (
    TOLERANCE,
    AssignmentClass,
    IntervalAssignment,
    classify,
    tighten,
    validate,
)
from .crosstab import (
    CELL_CAP,
    CellBounds,
    CellCase,
    CrossTable,
    case1_census,
    cell_bounds,
    cell_width_vs_dependency,
    classify_cell,
    dependency,
    mc_joint_freedom,
)
from .errors import (
    CapExceeded,
    DegenerateCell,
    DomainError,
    FreedomError,
    FrechetViolation,
    IndexOutOfRange,
    InvalidPerturbation,
    LowAcceptanceWarning,
    NotVacuous,
    ParseError,
    TooManyCells,
    ValidationError,
    Violation,
    WrongDimension,
)
from .measures import (
    MeasureReport,
    SubsetEntry,
    SubsetScan,
    freedom,
    freedom_conditional,
    hartley_nonspecificity,
    measure_report,
    normed_freedom,
    subset_scan,
    yager_ambiguity,
)
from .oracle import (
    MCEstimate,
    RegionPolygon,
    SplitMix64,
    mc_freedom,
    mc_freedom_conditional,
    region_polygon,
)
from .sensitivity import (
    NE_DOMINATES,
    PO_DOMINATES,
    TIE,
    SensitivityReport,
    dominance_condition,
    impact_compare,
    imposition_compare,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentClass",
    "CapExceeded",
    "CELL_CAP",
    "CellBounds",
    "CellCase",
    "CrossTable",
    "DegenerateCell",
    "DomainError",
    "FreedomError",
    "FrechetViolation",
    "IndexOutOfRange",
    "IntervalAssignment",
    "InvalidPerturbation",
    "LowAcceptanceWarning",
    "MCEstimate",
    "MeasureReport",
    "NE_DOMINATES",
    "NotVacuous",
    "ParseError",
    "PO_DOMINATES",
    "RegionPolygon",
    "SensitivityReport",
    "SplitMix64",
    "SubsetEntry",
    "SubsetScan",
    "TIE",
    "TOLERANCE",
    "TooManyCells",
    "ValidationError",
    "Violation",
    "WrongDimension",
    "case1_census",
    "cell_bounds",
    "cell_width_vs_dependency",
    "classify",
    "classify_cell",
    "dependency",
    "dominance_condition",
    "freedom",
    "freedom_conditional",
    "hartley_nonspecificity",
    "impact_compare",
    "imposition_compare",
    "mc_freedom",
    "mc_freedom_conditional",
    "mc_joint_freedom",
    "measure_report",
    "normed_freedom",
    "region_polygon",
    "subset_scan",
    "tighten",
    "validate",
    "yager_ambiguity",
]
