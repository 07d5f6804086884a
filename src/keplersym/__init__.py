"""Kepler orbit geometry, its Minkowski orbit space, and the
7-parameter orbital symmetry group, with seeded numeric verification.
"""

from .minkowski import (
    CausalType,
    MinkPlane,
    MinkVec,
    PlaneType,
    classify_plane,
    classify_vector,
    norm2,
    pencil_classify,
    point_plane,
)
from .orbit import (
    ConicClass,
    KeplerOrbit,
    Membership,
    OrbitGeometry,
    PlanePoint,
    conserved,
    contains,
    fit,
    from_abc,
    geometry,
    newton_flow,
    sample,
)
from .symmetry import (
    AlgebraElement,
    GroupElement,
    act_dual,
    act_plane,
    algebra,
    bracket,
    exp_map,
    fixed_energy_algebra,
    flow,
    vf_dual,
    vf_plane,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CausalType",
    "ConicClass",
    "GroupElement",
    "KeplerOrbit",
    "Membership",
    "MinkPlane",
    "MinkVec",
    "OrbitGeometry",
    "PlanePoint",
    "PlaneType",
    "act_dual",
    "act_plane",
    "algebra",
    "bracket",
    "classify_plane",
    "classify_vector",
    "conserved",
    "contains",
    "exp_map",
    "fit",
    "fixed_energy_algebra",
    "flow",
    "from_abc",
    "geometry",
    "newton_flow",
    "norm2",
    "pencil_classify",
    "point_plane",
    "sample",
]
