"""Exact finite laboratory for coded index sets, their duals, and shifts.

The package materializes truncations of a recursively coded index set in
exact rational arithmetic, exposes the triangular change of basis between
pointwise and biorthogonal coordinates, models the rank-preserving shift
with its combinatorial table, and evaluates sequence-level certificates
(rapid increase, calibrated pairs, linked chains) with every check exact.
"""
from .config import (
    ConfigError,
    ConstructionConfig,
    desk_relaxed,
    desk_strict,
    load_config_file,
)
from .elements import BFunctional, base_candidate, t1_candidate, t2_candidate
from .universe import (
    InadmissibleElement,
    InvariantFault,
    Universe,
    UniverseError,
    build_universe,
)

__all__ = [
    "BFunctional",
    "ConfigError",
    "ConstructionConfig",
    "InadmissibleElement",
    "InvariantFault",
    "Universe",
    "UniverseError",
    "base_candidate",
    "build_universe",
    "desk_relaxed",
    "desk_strict",
    "load_config_file",
    "t1_candidate",
    "t2_candidate",
]

__version__ = "0.1.0"
