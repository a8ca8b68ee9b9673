"""Freedom/nonspecificity measures for interval probability assignments.

The central object is an :class:`IntervalAssignment`: necessity/possibility
bounds on the probabilities of M options.  The freedom measure is the
fraction of the probability simplex compatible with those bounds, computed
in closed form (``freedom``) and independently by seeded rejection sampling
(``mc_freedom``) and, for M = 3, by exact polygon clipping
(``region_polygon``).

Every submodule but ``cli`` is loaded by one rule: it is lazy (``_Lazy``),
sits in ``sys.modules`` from the package import on, and is compiled and run
only when a name it lacks is first read.  So a bare import runs none of
them, and a ``validate`` call compiles four of the nine modules
(``__init__``, ``cli``, ``core``, ``errors``).  One lock covers every first
load, so threads may share the modules from the start.  Each public name is
looked up in its home module on first use (``_EXPORTS``).
"""

import _thread
import importlib.util
import sys
import types

__version__ = "0.1.0"

# reentrant: a module's first load runs the first loads of those it imports
_loading = _thread.RLock()


class _Lazy(types.ModuleType):
    """A module run, under _loading, on the first read of a name it lacks
    (not of __spec__, which the import system reads) or its first set, so
    that a name set before it runs is kept; then a plain module."""

    def __getattr__(self, name: str):
        with _loading:
            if type(self) is _Lazy:
                self.__spec__.loader.exec_module(self)
                object.__setattr__(self, "__class__", types.ModuleType)
        return getattr(self, name)

    def __setattr__(self, name: str, value) -> None:
        self.__getattr__("__name__")  # runs the module first
        setattr(self, name, value)


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

for _name in sorted({"helper", *_EXPORTS.values()}):
    _module = importlib.util.module_from_spec(
        importlib.util.find_spec(f"{__name__}.{_name}")
    )
    _module.__class__ = _Lazy
    # bound on the package as well, where ``from . import oracle`` finds it;
    # not cli, which runpy warns about if ``python -m`` finds it in sys.modules
    globals()[_name] = sys.modules[_module.__name__] = _module
del _name, _module

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
