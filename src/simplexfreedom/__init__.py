"""Freedom/nonspecificity measures for interval probability assignments.

The central object is an :class:`IntervalAssignment`: necessity/possibility
bounds on the probabilities of M options.  The freedom measure is the
fraction of the probability simplex compatible with those bounds, computed
in closed form (``freedom``) and independently by seeded rejection sampling
(``mc_freedom``) and, for M = 3, by exact polygon clipping
(``region_polygon``).

The four modules that the closed form never runs -- ``helper``, ``oracle``,
``crosstab`` and ``sensitivity`` -- are registered with
:class:`importlib.util.LazyLoader`: each sits in ``sys.modules`` at once, and
is compiled and run only when one of its attributes is first read, so a
``measure`` call compiles five of the nine modules.  That first read takes
no import lock, so a threaded caller should load the modules its threads
use (read any attribute of each) before starting them.  Each public name is
looked up in its home module on first use (``_EXPORTS``).
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("helper", "oracle", "crosstab", "sensitivity"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    # bound here as well: ``from . import oracle`` finds it on the package,
    # where an unbound one would go through the import system, whose read of
    # the module's __spec__ would load it at once
    globals()[_name] = _module
del _name, _spec, _module

# run by every command, and imported after the lazy ones so that measures'
# own ``from . import helper`` finds the lazy helper
from . import core, errors, measures

# public name -> home module, each name listed once
_EXPORTS = {
    name: module
    for module, names in {
        "core": "TOLERANCE AssignmentClass IntervalAssignment classify tighten "
                "validate",
        "crosstab": "CELL_CAP CellBounds CellCase CrossTable case1_census "
                    "cell_bounds cell_width_vs_dependency classify_cell "
                    "dependency mc_joint_freedom",
        "errors": "CapExceeded DegenerateCell DomainError FreedomError "
                  "FrechetViolation IndexOutOfRange InvalidPerturbation "
                  "LowAcceptanceWarning NotVacuous ParseError TooManyCells "
                  "ValidationError Violation WrongDimension",
        "measures": "MeasureReport SubsetEntry SubsetScan freedom "
                    "freedom_conditional hartley_nonspecificity measure_report "
                    "normed_freedom subset_scan yager_ambiguity",
        "oracle": "MCEstimate RegionPolygon SplitMix64 mc_freedom "
                  "mc_freedom_conditional region_polygon",
        "sensitivity": "NE_DOMINATES PO_DOMINATES TIE SensitivityReport "
                       "dominance_condition impact_compare imposition_compare",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
