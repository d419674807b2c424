"""Folner averaging on the duals of compact groups.

Fusion combinatorics of dual objects, exact Peter-Weyl matrix coefficients
for concrete models (circle, torus, SU(2), small finite groups), measures as
atoms plus densities, Wiener-type atom detection along Folner schedules, and
mean ergodic Cesaro operator averages converging to invariant projections.
"""

import importlib

__version__ = "0.1.0"

# the public names by the submodule that defines them; a submodule is
# imported when one of its names is first used, so `import peterweyl` alone
# loads none of them
_EXPORTS = {
    "errors": ("ConsistencyError", "InvalidInputError"),
    "fusion": ("FiniteDualRing", "FolnerSchedule", "FusionRing", "LatticeRing", "SU2Ring",
               "boundary", "fuse", "get_ring"),
    "groups": ("CompactGroupModel", "FiniteGroupModel", "SU2Model", "TorusModel",
               "finite_group_model", "get_model", "resolve"),
    "measures": ("MeasureSpec", "atom_list", "atom_weight_at", "dirac", "fourier_matrix", "haar",
                 "measure_from_json", "measure_to_json", "total_mass"),
    "wiener": ("AverageSeries", "run_series"),
    "ergodic": ("ErgodicReport", "FiniteDimRep", "ergodic_limit_check", "gns_rep", "group_rep",
                "point_rep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
