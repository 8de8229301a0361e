"""Centroaffine geometry of closed polygons in 3-space.

Invariants of framed polygons, the dual pair construction, planar pedal
transforms, reproducible instance generation, and a verification harness
for the discrete four-flattening-points theorem.
"""

from .cyclic import (
    DEFAULT_TOL,
    EdgeSeq,
    NodeSeq,
    ToleranceConfig,
    area2,
    cross3,
    cyclic_sign_changes,
    det3,
    edge_diff,
    node_diff,
    second_diff,
)
from .duality import (
    CoplanarityReport,
    DualPair,
    DualReport,
    coplanarity_concurrency_check,
    dual_invariants,
    dual_of_dual,
    dual_pair,
    dual_vertex_edges,
)
from .invariants import (
    FocalPoint,
    FramedPolygon,
    alpha,
    beta,
    curvature_b,
    delta,
    flattening_nodes,
    focal_points,
    is_constant_curvature,
    is_equal_volume,
    is_generic,
    is_unimodular,
    delta_identity_residual,
    lambda_coeff,
    reframe,
    vertex_edges,
)
from .pedal import (
    PedalResult,
    PlanarPair,
    co_normal,
    constant_field_frame,
    cylindrical_pedal,
    dual_planar_parts,
    is_convex,
    lift,
    planar_curvature,
    planar_vertices,
    unpedal,
    vertical_field,
)
from .generators import (
    GenConfig,
    RadialInstance,
    fixtures,
    perturb_to_generic,
    planted_coplanar_instance,
    random_equal_area_polygon,
    random_equal_volume_polygon,
    random_framed_polygon,
    random_planar_pair,
    random_radial_instance,
    random_unimodular_matrix,
)

__version__ = "0.1.0"
