"""Candidate maneuver fans: a rate-limited turn onto an offset course, then
line-of-sight pursuit back onto the track parallel to the original course.

Offsets are signed course deltas in radians added to the start course; in the
local east-north frame a positive delta turns to port and a negative one to
starboard.  The zero-offset candidate reproduces dead-ahead sailing exactly,
bit for bit, so it doubles as the "keep doing what you're doing" probe.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import ShipState, angle_diff, wrap_angle

__all__ = [
    "DEFAULT_OFFSETS",
    "CandidateTrajectory",
    "LosParams",
    "candidate_label",
    "los_candidates",
]

DEFAULT_OFFSETS = tuple(
    math.radians(d) for d in (-90.0, -45.0, -20.0, 0.0, 20.0, 45.0)
)


@dataclass(frozen=True)
class LosParams:
    """Fan shape and guidance constants for candidate generation."""

    offsets: tuple[float, ...] = DEFAULT_OFFSETS
    turn_rate: float = math.radians(2.0)
    horizon: float = 600.0
    dt: float = 5.0
    pursuit_lookahead: float = 200.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "offsets", tuple(float(o) for o in self.offsets))
        if not self.offsets:
            raise ValueError("need at least one course offset")
        if any(abs(o) > math.pi for o in self.offsets):
            raise ValueError("course offsets must lie within [-pi, pi]")
        if self.turn_rate <= 0.0:
            raise ValueError("turn_rate must be positive")
        if self.dt <= 0.0 or self.horizon < self.dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        if self.pursuit_lookahead <= 0.0:
            raise ValueError("pursuit_lookahead must be positive")


def candidate_label(offset: float) -> str:
    """Human-readable id for a course offset, e.g. ``starboard_45``."""
    if offset == 0.0:
        return "straight"
    side = "port" if offset > 0.0 else "starboard"
    return f"{side}_{abs(math.degrees(offset)):g}"


@dataclass(frozen=True)
class CandidateTrajectory:
    """A sampled candidate path with its generating course offset (radians)."""

    label: str
    offset: float
    states: tuple[ShipState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("candidate trajectory needs at least one state")

    @property
    def t_start(self) -> float:
        return self.states[0].t

    @property
    def t_end(self) -> float:
        return self.states[-1].t

    @cached_property
    def _times(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.states)

    def state_at(self, t: float) -> ShipState:
        """Pose at time ``t``: linear between samples, held at the endpoints.

        Queries beyond the sampled horizon return the final pose re-stamped,
        so a short candidate is judged at the last point it actually reaches.
        """
        if t <= self.t_start:
            return replace(self.states[0], t=t)
        if t >= self.t_end:
            return replace(self.states[-1], t=t)
        hi = bisect_right(self._times, t)
        a, b = self.states[hi - 1], self.states[hi]
        frac = (t - a.t) / (b.t - a.t)
        pos = a.position + frac * (b.position - a.position)
        cog = wrap_angle(a.cog + frac * angle_diff(b.cog, a.cog))
        sog = a.sog + frac * (b.sog - a.sog)
        return ShipState(t, float(pos[0]), float(pos[1]), sog, cog)


def _steer_toward(course: float, desired: float, max_step: float) -> float:
    """One rate-limited steering increment, landing exactly on ``desired``
    once it is within reach."""
    delta = angle_diff(desired, course)
    if abs(delta) <= max_step:
        return desired
    return wrap_angle(course + math.copysign(max_step, delta))


def _integrate(start: ShipState, offset: float, p: LosParams) -> tuple[ShipState, ...]:
    """The sampled path, in plain floats.

    Every coordinate operation is the one a 2-vector form would do, in the
    same order, so the states are the same bit for bit.  The along-track
    distance stays a NumPy dot, whose summation the floats would not repeat.
    """
    base = start.cog
    target = base if offset == 0.0 else wrap_angle(base + offset)
    bx, by = math.cos(base), math.sin(base)
    base_dir = np.array((bx, by))
    max_step = p.turn_rate * p.dt
    n_steps = int(round(p.horizon / p.dt))
    stride = start.sog * p.dt
    states = [start]
    course = start.cog
    x, y = float(start.x), float(start.y)
    anchor: tuple[float, float] | None = None
    turning = course != target
    for k in range(1, n_steps + 1):
        if turning:
            course = _steer_toward(course, target, max_step)
            if course == target:
                turning = False
                anchor = x, y  # the turn completed here; track this line
        elif offset != 0.0:
            # A zero offset is already on the planned track: hold course
            # rather than let pursuit chase sub-ulp cross-track residue.
            if anchor is None:
                anchor = x, y
            ax, ay = anchor
            reach = float(np.array((x - ax, y - ay)) @ base_dir) + p.pursuit_lookahead
            desired = math.atan2(ay + reach * by - y, ax + reach * bx - x)
            course = _steer_toward(course, desired, max_step)
        x, y = x + stride * math.cos(course), y + stride * math.sin(course)
        states.append(ShipState(start.t + k * p.dt, x, y, start.sog, course))
    return tuple(states)


def los_candidates(
    start: ShipState, params: LosParams = LosParams()
) -> list[CandidateTrajectory]:
    """The candidate fan from ``start``, one trajectory per course offset."""
    return [
        CandidateTrajectory(candidate_label(o), o, _integrate(start, o, params))
        for o in params.offsets
    ]
