"""Achievable regions and exact capacity results.

The workhorse is a superposition scheme: the cognitive transmitter spends a
fraction ``beta`` of its power on a private codeword and the remainder on a
scaled copy of the primary codeword, so receiver 2 collects its own signal
coherently reinforced while receiver 1 decodes the private layer.  Where a
matching outer bound is known to coincide, :func:`capacity_region` returns
the exact frontier; elsewhere it returns the best inner/outer pair.
This module sees every family, so it also holds :data:`FAMILIES`, the
table of their :class:`~cogregions.outer_bounds.Family` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import outer_bounds
from .channel import ChannelParams, classify, gaussian_rate
from .outer_bounds import (
    DEFAULT_ALPHA_POINTS,
    DEFAULT_SPLIT_POINTS,
    Family,
    _coherent_rate,
    _cooperative_rate,
    bc_pr_bound,
    cor2_region,
    th1_bound,
    unifying_region,
)
from .region_geometry import Frontier, GridAxis

__all__ = [
    "DEFAULT_BETA_POINTS",
    "FAMILIES",
    "CapacityResult",
    "scheme_e_region",
    "beta_of_alpha",
    "capacity_region",
]

# Default resolution of the private-power-fraction grid.
DEFAULT_BETA_POINTS = 1001


def _scheme_e_caps(params: ChannelParams, beta):
    """``(r1, r2, sum)`` caps of scheme E.

    Broadcasts over ``beta``.  With ``a = 0`` receiver 1 sees only the copy
    of the primary codeword as noise; otherwise the cross gain adds to the
    copy coefficient.
    """
    p1, p2 = params.p1, params.p2
    bbar = 1.0 - beta
    if params.a == 0.0:
        r1_cap = gaussian_rate(beta * p1 / (1.0 + bbar * p1))
    else:
        safe_p2 = p2 if p2 > 0.0 else 1.0
        # With a subnormal p2 the ratio overflows; there the division-free
        # form of the same noise power takes over.  It rounds differently,
        # so it is used only where the quotient form is not finite.
        with np.errstate(over="ignore"):
            copy_gain = np.sqrt(bbar * p1 / safe_p2) + params.a
            copy_noise = copy_gain * copy_gain * p2
        copy_noise = np.where(
            np.isfinite(copy_noise),
            copy_noise,
            (np.sqrt(bbar * p1) + params.a * np.sqrt(p2)) ** 2,
        )
        r1_cap = gaussian_rate(beta * p1 / (1.0 + copy_noise))
    r2_cap = _coherent_rate(p2, bbar * (params.b * params.b) * p1)
    return r1_cap, r2_cap, _cooperative_rate(params, bbar)


# Scheme E, the superposition inner bound: ``beta`` is the fraction of
# cognitive power on the private layer; the rest rides on a copy of the
# primary codeword scaled to the primary's power.  Receiver 1 decodes its
# layer against the copy as noise, so at ``a = 0`` the r1 cap is
# ``log2(1 + beta*p1 / (1 + (1-beta)*p1))``; with ``a > 0`` it also hears
# the primary signal through the cross gain, which simply adds to the copy
# coefficient, while receiver-2 statistics are unchanged.  Receiver 2 sees
# the copy coherently, giving the amplitude-sum r2 cap.  The copy scaling
# divides by ``p2``, so at ``p2 = 0`` the scheme has the single split
# ``beta = 1``.  At ``a = 0`` the r1 and r2 caps meet Cor. 2's under
# :func:`beta_of_alpha`; its pentagons and unions evaluate the same caps,
# so the identity holds to float precision on matched grids.
_SCHEME_E = Family(
    "inner",
    "inner_bounds.scheme_e_region",
    ("beta_grid",),
    _scheme_e_caps,
    single_split=lambda params: params.p2 == 0.0,
    error="degenerate superposition: set beta=1",
    axis="beta",
    matched="cor2",
)

# The bound families by command-line name, in the order ``--bound`` lists them.
FAMILIES = {
    "unifying": outer_bounds._UNIFYING,
    "cor2": outer_bounds._COR2,
    "bcdms": outer_bounds._BC_DMS,
    "th1": outer_bounds._TH1,
    "bcpr": outer_bounds._BC_PR,
    "bergmans": outer_bounds._BERGMANS,
    "schemeE": _SCHEME_E,
}


def scheme_e_region(
    params: ChannelParams, beta_grid: GridAxis = DEFAULT_BETA_POINTS
) -> Frontier:
    """Corner hull of scheme E over a ``beta`` grid (see :meth:`Family.union`).

    Each corner is achievable and time sharing achieves the chords between
    them, so the hull is an inner bound.
    """
    return _SCHEME_E.union(params, beta_grid)


def beta_of_alpha(alpha, p1: float):
    """Power-split change of variable linking the superposition scheme to the
    Z-channel outer bound.

    Solves ``beta / (1 + (1-beta)*p1) = alpha`` for ``beta``, giving
    ``beta = alpha*(1+p1)/(1+alpha*p1)`` — strictly increasing with fixed
    endpoints, hence a bijection of [0, 1] onto itself.  Under this map the
    scheme's r1 and r2 caps coincide with the Z outer bound's.  Accepts
    scalars or arrays.

    Evaluated as ``1 - (1-alpha)/(1+alpha*p1)`` so that the complement
    ``1-beta`` (what the rate expressions actually consume) round-trips
    without cancellation as ``alpha`` approaches 1.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)) or np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    beta = 1.0 - (1.0 - alpha) / (1.0 + alpha * p1)
    if beta.ndim == 0:
        return float(beta)
    return beta


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity computation.

    ``regime`` is the label :func:`~cogregions.classify` gave the
    parameters, and ``status`` follows from it.  It is ``"open"`` for the
    ``open_*`` labels: capacity is unknown, ``frontier`` is the best
    computed inner (achievable) frontier and ``outer`` the tightest
    computed outer frontier.  Else it is ``"exact"`` and ``frontier`` is
    the boundary of the capacity region.
    """

    regime: str
    frontier: Frontier
    outer: Optional[Frontier] = None

    @property
    def status(self) -> str:
        return "open" if self.regime.startswith("open_") else "exact"


def capacity_region(
    params: ChannelParams,
    alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS,
    beta_grid: GridAxis = DEFAULT_BETA_POINTS,
    split_grid=DEFAULT_SPLIT_POINTS,
) -> CapacityResult:
    """Exact capacity frontier when known, else the best inner/outer pair.

    Dispatches on ``classify(params).regime``, the one regime decision of
    the package.  Exact regimes: ``b_zero`` (receiver 2 interference-free,
    capacity is a rectangle); ``pdc_exact`` (the unifying hull is
    achievable); ``th3_exact`` (the Z outer bound is achievable).  The open
    regimes carry the superposition inner bound and the tightest valid
    outer bound: for ``open_weak`` the private-rates bound, which needs no
    interference assumption; for ``open_strong`` Theorem 1, save on the
    Z channel (``a = 0``, between the two thresholds), where it is Cor. 2.
    There Cor. 2 is a closed-form family with no covariance split to
    sample, and Theorem 1 on the default 21^4 split mesh is Cor. 2 minus
    its sampling error, which leaves it up to 0.141 bits per rate below
    the inner frontier.  Every frontier is a concave hull, as capacity
    regions are convex.
    """
    report = classify(params)
    regime = report.regime
    if regime == "b_zero":
        top = float(gaussian_rate(params.p1))
        r2 = float(gaussian_rate(params.p2))
        if top == 0.0:
            frontier = Frontier(np.array([0.0]), np.array([r2]))
        else:
            frontier = Frontier(np.array([0.0, top]), np.array([r2, r2]))
        return CapacityResult(regime, frontier)
    if regime == "pdc_exact":
        return CapacityResult(regime, unifying_region(params, alpha_grid=alpha_grid))
    if regime == "th3_exact":
        return CapacityResult(regime, cor2_region(params, alpha_grid=alpha_grid))

    inner = scheme_e_region(params, beta_grid=beta_grid)
    if regime == "open_weak":
        outer = bc_pr_bound(params, split_grid=split_grid, alpha_grid=alpha_grid)
    elif report.z_channel == "a_zero":
        outer = cor2_region(params, alpha_grid=alpha_grid)
    else:
        outer = th1_bound(params, split_grid=split_grid, alpha_grid=alpha_grid)
    return CapacityResult(regime, inner, outer)
