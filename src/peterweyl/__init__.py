"""Folner averaging on the duals of compact groups.

Fusion combinatorics of dual objects, exact Peter-Weyl matrix coefficients
for concrete models (circle, torus, SU(2), small finite groups), measures as
atoms plus densities, Wiener-type atom detection along Folner schedules, and
mean ergodic Cesaro operator averages converging to invariant projections.
"""

from .errors import ConsistencyError, InvalidInputError
from .fusion import (
    FiniteDualRing,
    FolnerSchedule,
    FusionRing,
    LatticeRing,
    SU2Ring,
    boundary,
    folner_ratio,
    folner_series,
    fuse,
    weighted_cardinality,
)
from .groups import (
    CompactGroupModel,
    FiniteGroupModel,
    SU2Model,
    TorusModel,
    finite_group_model,
    get_model,
    get_ring,
    resolve,
)
from .measures import (
    MeasureSpec,
    atom_list,
    atom_weight_at,
    conjugate_measure,
    convolve,
    density_eval,
    dirac,
    fourier_matrix,
    haar,
    measure_from_json,
    measure_to_json,
    total_mass,
)
from .wiener import (
    AverageSeries,
    ContinuityVerdict,
    atom_average,
    char_average,
    continuity_test,
    energy_average,
    run_series,
)
from .ergodic import (
    ErgodicReport,
    FiniteDimRep,
    cesaro_operator,
    ergodic_limit_check,
    gns_rep,
    group_rep,
    invariant_projection,
    point_rep,
)

__version__ = "0.1.0"

__all__ = [
    "AverageSeries",
    "CompactGroupModel",
    "ConsistencyError",
    "ContinuityVerdict",
    "ErgodicReport",
    "FiniteDimRep",
    "FiniteDualRing",
    "FiniteGroupModel",
    "FolnerSchedule",
    "FusionRing",
    "InvalidInputError",
    "LatticeRing",
    "MeasureSpec",
    "SU2Model",
    "SU2Ring",
    "TorusModel",
    "atom_average",
    "atom_list",
    "atom_weight_at",
    "boundary",
    "cesaro_operator",
    "char_average",
    "conjugate_measure",
    "continuity_test",
    "convolve",
    "density_eval",
    "dirac",
    "energy_average",
    "ergodic_limit_check",
    "finite_group_model",
    "folner_ratio",
    "folner_series",
    "fourier_matrix",
    "fuse",
    "get_model",
    "get_ring",
    "gns_rep",
    "group_rep",
    "haar",
    "invariant_projection",
    "measure_from_json",
    "measure_to_json",
    "point_rep",
    "resolve",
    "run_series",
    "total_mass",
    "weighted_cardinality",
]
