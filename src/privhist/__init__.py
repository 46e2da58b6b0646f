"""Privacy-preserving spatial histograms with empirical privacy/utility checks."""

__version__ = "0.1.0"

from .adversary import IsolationParams, IsolationReport, attack, isolates
from .datagen import (
    DistributionSpec,
    TruncatedGaussian,
    UniformBall,
    UniformCube,
    sample,
    single,
)
from .geometry import (
    Ball,
    Box,
    Dataset,
    VoronoiClip,
    count_in_region,
    distance,
    intersection_volume_ratio,
    t_radius,
)
from .metrics import (
    DiameterStats,
    MstComparison,
    cut_probability,
    hist_distance,
    measure_diameters,
    mst_compare,
)
from .roundness import (
    PrivacyConditionReport,
    RoundnessCertificate,
    certify_roundness,
    check_privacy_condition,
    cover_check,
    well_spread_check,
)
from .sanitizer import (
    HistogramNode,
    MeshSplit,
    SanitizedHistogram,
    VoronoiSplit,
    build_recursive_cube,
    build_shifted_grid,
    build_voronoi,
    pick_centers_greedy,
    pick_centers_uniform,
    sanitize,
    strip_to_sanitized,
)

__all__ = [
    "__version__",
    "IsolationParams", "IsolationReport", "attack", "isolates",
    "DistributionSpec", "TruncatedGaussian", "UniformBall", "UniformCube",
    "sample", "single",
    "Ball", "Box", "Dataset", "VoronoiClip", "count_in_region", "distance",
    "intersection_volume_ratio", "t_radius",
    "DiameterStats", "MstComparison", "cut_probability", "hist_distance",
    "measure_diameters", "mst_compare",
    "PrivacyConditionReport", "RoundnessCertificate", "certify_roundness",
    "check_privacy_condition", "cover_check", "well_spread_check",
    "HistogramNode", "MeshSplit", "SanitizedHistogram", "VoronoiSplit", "build_recursive_cube",
    "build_shifted_grid", "build_voronoi", "pick_centers_greedy",
    "pick_centers_uniform", "sanitize", "strip_to_sanitized",
]
