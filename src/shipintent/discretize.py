"""Binning of real-valued quantities and the default intention priors.

Every real-valued node lives on a channel: a [0, upper] range split into
equal-width bins where the last bin doubles as the saturation bucket for
anything at or beyond the upper edge (including the ``inf`` sentinel the
geometry layer emits).  A measurement channel and the intention threshold it
is compared against must share a channel so "greater" reduces to a strict
bin-index comparison.  :data:`CHANNEL_REGISTRY` is the one place that pairs
each threshold with its channel and its measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm


class DiscretizationError(ValueError):
    """Bad channel settings or a degenerate truncation window."""


@dataclass(frozen=True)
class ChannelRow:
    """A threshold root, the channel it is binned on, and the measurement
    nodes (slice-local bases) compared against it on that channel."""

    threshold: str
    channel: str
    measurements: tuple[str, ...]


CHANNEL_REGISTRY = (
    ChannelRow("safe_cpa", "cpa", ("meas_dcpa",)),
    ChannelRow("safe_front_cross", "front_cross", ("meas_front_cross",)),
    ChannelRow("safe_midpoint", "midpoint", ("meas_midpoint_dist",)),
    ChannelRow("ample_time", "time_to_cpa", ("meas_tcpa",)),
    ChannelRow("safe_ground_side", "ground_side", ("meas_ground_sb", "meas_ground_ps")),
    ChannelRow("safe_ground_front", "ground_front", ("meas_ground_front",)),
)
THRESHOLDS = tuple(row.threshold for row in CHANNEL_REGISTRY)
INTENTION_BINARY = ("colregs_compliant", "good_seamanship", "ground_intent", "unmodeled")

_CHANNEL_OF = {
    node: row.channel for row in CHANNEL_REGISTRY for node in (row.threshold, *row.measurements)
}


@dataclass(frozen=True)
class TruncNorm:
    """A normal distribution truncated to [lo, hi]."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mu, self.sigma, self.lo, self.hi)):
            raise DiscretizationError("truncated normal parameters must be finite")
        if not self.sigma > 0.0:
            raise DiscretizationError("sigma must be positive")
        if not self.hi > self.lo:
            raise DiscretizationError("truncation window must have hi > lo")


@dataclass(frozen=True)
class Channel:
    """Equal-width bins over [0, upper]; the last bin saturates."""

    upper: float
    bins: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.upper) and self.upper > 0.0) or self.bins < 2:
            raise DiscretizationError("channel needs a finite upper > 0 and >= 2 bins")

    @property
    def width(self) -> float:
        return self.upper / self.bins

    def edges(self) -> np.ndarray:
        return np.linspace(0.0, self.upper, self.bins + 1)


def real_to_bin(value: float, channel: Channel) -> int:
    """Bin index for a value; saturating at the last bin, erroring below 0."""
    if math.isnan(value):
        raise DiscretizationError("cannot bin NaN")
    if value < 0.0:
        raise DiscretizationError(f"negative value {value} outside channel range")
    if math.isinf(value):
        return channel.bins - 1
    return min(int(value / channel.width), channel.bins - 1)


def discretize_truncnorm(mu: float, sigma: float, lo: float, hi: float, bins: int) -> np.ndarray:
    """Per-bin probability mass of a truncated normal on equal-width bins.

    Masses are normal CDF differences over the bin edges divided by the
    window mass, so they telescope to exactly 1.0.
    """
    if bins < 1:
        raise DiscretizationError("need at least one bin")
    if not hi > lo:
        raise DiscretizationError("truncation window must have hi > lo")
    if not sigma > 0.0:
        raise DiscretizationError("sigma must be positive")
    edges = np.linspace(lo, hi, bins + 1)
    cdf = norm.cdf((edges - mu) / sigma)
    window = cdf[-1] - cdf[0]
    if window < 1e-300:
        raise DiscretizationError(
            f"truncation window [{lo}, {hi}] carries no mass for N({mu}, {sigma}^2)"
        )
    return np.diff(cdf) / window


@dataclass(frozen=True)
class Discretization:
    """Shared channels for the measurement/intention pairs."""

    cpa: Channel = Channel(1500.0)
    front_cross: Channel = Channel(2000.0)
    midpoint: Channel = Channel(600.0)
    time_to_cpa: Channel = Channel(5000.0)
    ground_side: Channel = Channel(700.0)
    ground_front: Channel = Channel(800.0)

    def channel(self, node: str) -> Channel:
        """The channel a threshold root or a measurement base is binned on."""
        return getattr(self, _CHANNEL_OF[node])

    def with_bins(self, bins: int) -> "Discretization":
        """Same ranges, different resolution (handy for fast exact tests)."""
        channels = (row.channel for row in CHANNEL_REGISTRY)
        return Discretization(**{c: replace(getattr(self, c), bins=bins) for c in channels})


@dataclass(frozen=True)
class IntentionPriors:
    """Root distributions of the intention nodes.

    Bernoulli fields hold P(true); ``priority`` is (higher, similar, lower);
    ``situation_concentration`` is the prior mass put on the situation
    measured when the session starts, the rest spread evenly.
    """

    safe_cpa: TruncNorm = TruncNorm(808.0, 430.0, 0.0, 1500.0)
    safe_front_cross: TruncNorm = TruncNorm(1411.0, 472.0, 0.0, 2000.0)
    safe_midpoint: TruncNorm = TruncNorm(249.0, 148.0, 0.0, 600.0)
    ample_time: TruncNorm = TruncNorm(2527.0, 1120.0, 0.0, 5000.0)
    safe_ground_side: TruncNorm = TruncNorm(436.0, 124.0, 0.0, 700.0)
    safe_ground_front: TruncNorm = TruncNorm(535.0, 120.0, 0.0, 800.0)
    colregs_compliant: float = 0.98
    good_seamanship: float = 0.99
    ground_intent: float = 0.01
    unmodeled: float = 0.01
    priority: tuple[float, float, float] = (0.05, 0.90, 0.05)
    situation_concentration: float = 0.92

    def __post_init__(self) -> None:
        for name in INTENTION_BINARY:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DiscretizationError(f"{name} must be a probability, got {p}")
        if len(self.priority) != 3 or not all(math.isfinite(p) and p >= 0.0 for p in self.priority):
            raise DiscretizationError(
                f"priority needs three finite entries >= 0, got {self.priority}"
            )
        if abs(sum(self.priority) - 1.0) > 1e-9:
            raise DiscretizationError("priority distribution must sum to 1")
        if not 0.0 < self.situation_concentration <= 1.0:
            raise DiscretizationError("situation_concentration must be in (0, 1]")


def situation_prior(measured_index: int, n_states: int = 5, concentration: float = 0.92) -> np.ndarray:
    """Prior over the situation view, anchored at the measured situation."""
    if not 0 <= measured_index < n_states:
        raise DiscretizationError("measured situation index out of range")
    rest = (1.0 - concentration) / (n_states - 1)
    vec = np.full(n_states, rest)
    vec[measured_index] = concentration
    return vec


def threshold_prior_masses(priors: IntentionPriors, disc: Discretization, name: str) -> np.ndarray:
    """Discretized prior for one real-valued intention threshold.

    The truncation window must coincide with the channel range, otherwise the
    bin-index comparison against measurements would be meaningless.
    """
    channel = disc.channel(name)
    spec: TruncNorm = getattr(priors, name)
    if spec.lo != 0.0 or spec.hi != channel.upper:
        raise DiscretizationError(
            f"{name}: truncation window [{spec.lo}, {spec.hi}] must match "
            f"channel range [0, {channel.upper}]"
        )
    return discretize_truncnorm(spec.mu, spec.sigma, spec.lo, spec.hi, channel.bins)
