"""Asymmetric Minkowski gauges on convex polygonal unit balls in the plane.

The package measures polygon perimeters with an offset gauge, evaluates the
closed forms for the self-measured half-perimeter of regular and offset
polygons, classifies Radon norms through Birkhoff orthogonality, and
certifies the universal lower bound of 3 with an inscribed hexagon.
"""

from .errors import (
    CenterNotInterior,
    DegenerateChord,
    DegenerateInput,
    EmptyIntersection,
    InvalidOffset,
    InvalidParameter,
    MinkpiError,
    NoConvergence,
    NoSharedAxis,
    NotConvex,
    NotSymmetricBall,
    Unreachable,
    ZeroVector,
)
from .geom2d import (
    Axis,
    ConvexPolygon,
    Vec2,
    convex_hull,
    intersect_convex,
    negate,
    reflect,
    regular_polygon,
    symmetry_axes,
)
from .gauge import (
    Ball,
    boundary_point,
    gauge,
    symmetrize_hull,
    symmetrize_intersection,
)
from .perimeter import (
    HexBound,
    PerimeterReport,
    WidthProfile,
    inscribed_hexagon_bound,
    measure_perimeters,
    pi_ball,
    rectify,
    shared_axis,
    width_profile,
)
from .regular_pi import (
    FamilyKind,
    PiFamily,
    beraha,
    classify_family,
    pi_n_beraha,
    pi_n_circle,
    pi_n_closed,
    pi_n_max_form,
    pi_n_piecewise,
    pi_n_side_relation,
    subtended_sides,
    viete_pi,
)
from .offset_shapes import (
    AxisConfig,
    OffsetPiResult,
    OffsetShapeSpec,
    ShapeKind,
    build_offset_ball,
    hexagon_minimum,
    isosceles_minimum,
    pi_hexagon,
    pi_isosceles,
    pi_square,
    solve_offset_for_pi,
    square_minimum,
)
from .birkhoff import OrthoPair, birkhoff_orthogonal, is_radon, radon_witness

__version__ = "1.0.0"
