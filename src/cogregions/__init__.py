"""Rate-region bounds for the two-user Gaussian cognitive interference channel.

The package computes inner bounds, outer bounds, and — where the two are
known to meet — exact capacity regions, all exchanged as Pareto frontiers
in bits.  Independent Monte Carlo and brute-force oracles double-check the
closed forms.  See the ``cogregions`` command-line tool for the same
functionality from a shell.
"""

from .channel import ChannelParams, RegimeReport, classify, gaussian_rate
from .inner_bounds import (
    FAMILIES,
    CapacityResult,
    beta_of_alpha,
    capacity_region,
    scheme_e_region,
)
from .oracles import (
    degradedness_check,
    mc_rate_check,
    verify_condition5,
    verify_condition6,
    verify_th3_capacity,
)
from .outer_bounds import (
    CovarianceSplit,
    bc_dms_region,
    bc_pr_bound,
    bergmans_frontier,
    cor2_region,
    th1_bound,
    unifying_region,
)
from .region_geometry import (
    Frontier,
    Pentagon,
    VerificationReport,
    concavify,
    contains,
    corner_cloud,
    hull_frontier,
    intersect_frontiers,
    pentagon_corners,
    sweep_grid,
    union_frontier_arrays,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "RegimeReport",
    "classify",
    "gaussian_rate",
    "FAMILIES",
    "CapacityResult",
    "beta_of_alpha",
    "capacity_region",
    "scheme_e_region",
    "degradedness_check",
    "mc_rate_check",
    "verify_condition5",
    "verify_condition6",
    "verify_th3_capacity",
    "CovarianceSplit",
    "bc_dms_region",
    "bc_pr_bound",
    "bergmans_frontier",
    "cor2_region",
    "th1_bound",
    "unifying_region",
    "Frontier",
    "Pentagon",
    "VerificationReport",
    "concavify",
    "corner_cloud",
    "hull_frontier",
    "contains",
    "intersect_frontiers",
    "pentagon_corners",
    "sweep_grid",
    "union_frontier_arrays",
    "__version__",
]
