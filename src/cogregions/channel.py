"""Channel model and interference-regime classification.

The channel is the two-user Gaussian cognitive interference channel in
canonical form: receiver 1 observes ``Y1 = X1 + a*X2 + Z1`` and receiver 2
observes ``Y2 = |b|*X1 + X2 + Z2`` with unit-variance noises and per-user
power constraints ``P1``, ``P2``.  All rates produced by this package are in
bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["ChannelParams", "RegimeReport", "classify", "gaussian_rate"]

_LN2 = math.log(2.0)


def gaussian_rate(snr, out=None):
    """Rate in bits of a unit-noise Gaussian channel at the given SNR.

    ``log2(1 + snr)`` evaluated through ``log1p`` so small SNRs keep full
    relative precision.  Accepts scalars or arrays; ``out``, an array,
    receives the rate (it may be ``snr`` itself).
    """
    rate = np.log1p(snr, out=out)
    rate /= _LN2  # in place for arrays: one temporary fewer
    return rate


@dataclass(frozen=True)
class ChannelParams:
    """A channel instance ``(a, b, p1, p2)``.

    ``a`` is the cross gain at receiver 1 and ``b`` the cross gain at
    receiver 2 (stored as a magnitude; only ``|b|`` enters any rate
    expression).  ``p1`` and ``p2`` are linear transmit powers.  Noise
    variances are fixed at 1 by the canonical form and are not fields.

    The rate expressions multiply a squared gain by both powers (the cross
    term ``b^2 p1 p2`` under a square root, for one) and add such terms, so
    an instance is rejected with ``ValueError`` unless ``16 max(1, a^2, b^2)
    max(1, p1) max(1, p2)`` is finite: about ``1.1e307`` is the limit.
    """

    a: float
    b: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "p1", "p2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "b", abs(self.b))
        if self.a < 0:
            raise ValueError("cross gain a must be nonnegative (real-valued model)")
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("powers p1, p2 must be nonnegative")
        gain2 = max(1.0, self.a * self.a, self.b * self.b)
        if not math.isfinite(16.0 * gain2 * max(1.0, self.p1) * max(1.0, self.p2)):
            raise ValueError(
                "gains and powers too large: 16 max(1, a^2, b^2) max(1, p1) "
                "max(1, p2) must be finite"
            )


@dataclass(frozen=True)
class RegimeReport:
    """Classification flags for one channel instance.

    ``regime`` is the one regime decision of the package: ``b_zero``
    (receiver 2 interference-free), ``pdc_exact`` (``a = 0``, ``b`` at or
    below the primary-decoding threshold), ``th3_exact`` (``a = 0``, ``b``
    at or above the superposition threshold), else ``open_strong`` for
    ``b > 1`` and ``open_weak`` otherwise.
    :func:`~cogregions.capacity_region` dispatches on it, and its result is
    open exactly when the label starts with ``open_``.

    ``interference_class`` is ``"weak"`` for ``b <= 1`` and ``"strong"``
    otherwise.  ``z_channel`` marks degenerate instances with a vanished
    cross gain.  The two capacity flags record which known-capacity
    thresholds the instance satisfies, whatever ``a`` is; ``thresholds``
    carries the numeric threshold values used for the comparisons so they
    can be displayed alongside the booleans.
    """

    interference_class: str
    z_channel: str
    pdc_capacity_known: bool
    th3_capacity: bool
    regime: str
    thresholds: dict

    def as_dict(self) -> dict:
        return asdict(self)


def pdc_threshold(p1: float, p2: float) -> float:
    """Largest ``b`` for which capacity is known via the weak/primary-decoding regime."""
    return math.sqrt(1.0 + p2 / (p1 + 1.0))


def th3_threshold(p1: float, p2: float) -> float:
    """Threshold ``sqrt(1 + P2*(1 + P1)) + sqrt(P1*P2)`` above which the
    superposition inner bound meets the Z outer bound (capacity known)."""
    return math.sqrt(1.0 + p2 * (1.0 + p1)) + math.sqrt(p1 * p2)


def classify(params: ChannelParams) -> RegimeReport:
    """Classify the interference regime of ``params``.

    Pure threshold arithmetic; all boundary comparisons are closed (``>=``
    or ``<=``).  This is the only place that compares ``b`` with the
    thresholds to pick a regime; everything that branches on the regime
    reads the report.  Where both thresholds meet at ``b`` the label is
    ``pdc_exact``.
    """
    thr_pdc = pdc_threshold(params.p1, params.p2)
    thr_th3 = th3_threshold(params.p1, params.p2)
    pdc_known = params.b <= thr_pdc
    th3_known = params.b >= thr_th3
    strong = params.b > 1.0

    if params.b == 0.0:
        z_channel = "b_zero"
    elif params.a == 0.0:
        z_channel = "a_zero"
    else:
        z_channel = "none"

    if z_channel == "b_zero":
        regime = "b_zero"
    elif z_channel == "a_zero" and pdc_known:
        regime = "pdc_exact"
    elif z_channel == "a_zero" and th3_known:
        regime = "th3_exact"
    else:
        regime = "open_strong" if strong else "open_weak"

    return RegimeReport(
        interference_class="strong" if strong else "weak",
        z_channel=z_channel,
        pdc_capacity_known=pdc_known,
        th3_capacity=th3_known,
        regime=regime,
        thresholds={
            "pdc_capacity": thr_pdc,
            "th3_capacity": thr_th3,
        },
    )
