"""Planar vessel kinematics and grounding-hazard geometry.

Coordinates are local east/north meters from an equirectangular projection.
Course angles are radians counter-clockwise from east in [0, 2*pi), so a
starboard turn decreases the angle.  Port is the positive-cross-product side
of the heading vector; ties on a boundary resolve to starboard.

Distances that depend on an event that never happens (no front crossing, no
hazard vertex in a sector) come back as ``math.inf`` so the discretization
layer can clamp them into its saturation bin.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
TWO_PI = 2.0 * math.pi
FRONT_HALF_ANGLE = math.pi / 8.0


class Side(Enum):
    STARBOARD = "starboard"
    PORT = "port"


class Turn(Enum):
    STARBOARD = "starboard"
    PORT = "port"
    STRAIGHT = "straight"


class SpeedTrend(Enum):
    HIGHER = "higher"
    LOWER = "lower"
    NONE = "none"


class Trend(Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    NEITHER = "neither"


class Situation(Enum):
    """COLREGS encounter situation seen from the reference vessel."""

    OVERTAKING = "overtaking"
    OVERTAKEN = "overtaken"
    HEAD_ON = "head_on"
    CROSSING_PORT = "crossing_port"
    CROSSING_STARBOARD = "crossing_starboard"


def wrap_angle(angle: float) -> float:
    """Smallest equivalent angle in (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def norm_course(angle: float) -> float:
    """Equivalent angle in [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def angle_diff(a: float, b: float) -> float:
    """Signed smallest rotation from ``b`` to ``a``, in (-pi, pi]."""
    return wrap_angle(a - b)


def cross2(a: np.ndarray, b: np.ndarray) -> float:
    """z-component of the planar cross product a x b."""
    return float(a[0] * b[1] - a[1] * b[0])


def local_frame(origin: tuple[float, float]) -> str:
    """Name of the east/north frame about a lat/lon ``origin``, written exactly."""
    return f"local-equirect({float(origin[0])!r},{float(origin[1])!r})"


def project_local(lat: float, lon: float, origin: tuple[float, float]) -> tuple[float, float]:
    """Equirectangular degrees -> east/north meters about ``origin``."""
    lat0, lon0 = origin
    x = EARTH_RADIUS_M * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_M * math.radians(lat - lat0)
    return x, y


def project_rings(
    geo_rings: Sequence[np.ndarray], origin: tuple[float, float]
) -> tuple[np.ndarray, ...]:
    """:func:`project_local` over (lat, lon) rings, one numpy pass per ring.

    Each element takes the same operations in the same order as the scalar
    version (``np.radians`` multiplies by the same pi/180), so the meters are
    bit-identical to projecting vertex by vertex.
    """
    lat0, lon0 = origin
    scale = math.cos(math.radians(lat0))
    out = []
    for ring in geo_rings:
        xy = np.empty(ring.shape)
        xy[:, 0] = EARTH_RADIUS_M * np.radians(ring[:, 1] - lon0) * scale
        xy[:, 1] = EARTH_RADIUS_M * np.radians(ring[:, 0] - lat0)
        out.append(xy)
    return tuple(out)


def local_to_geo(x: float, y: float, origin: tuple[float, float]) -> tuple[float, float]:
    """Inverse of :func:`project_local`."""
    lat0, lon0 = origin
    lat = lat0 + math.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


@dataclass(frozen=True)
class ShipState:
    """Kinematic snapshot: time [s], position [m], speed [m/s], course [rad]."""

    t: float
    x: float
    y: float
    sog: float
    cog: float

    def __post_init__(self) -> None:
        if self.sog < 0.0:
            raise ValueError("sog must be non-negative")
        object.__setattr__(self, "cog", norm_course(self.cog))

    @property
    def position(self) -> np.ndarray:
        return np.array((self.x, self.y))

    @property
    def heading(self) -> np.ndarray:
        return np.array((math.cos(self.cog), math.sin(self.cog)))

    @property
    def velocity(self) -> np.ndarray:
        return self.sog * self.heading

    def advanced(self, dt: float) -> "ShipState":
        """Dead-reckoned state ``dt`` seconds ahead on constant course/speed."""
        vx, vy = self.velocity
        return replace(self, t=self.t + dt, x=self.x + vx * dt, y=self.y + vy * dt)


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float

    @property
    def position(self) -> np.ndarray:
        return np.array((self.x, self.y))


def _axis_sorted(verts: np.ndarray) -> tuple[int, np.ndarray]:
    """(axis, cols): the longer bounding-box axis of ``verts`` and a (2, n)
    copy of their x and y rows, sorted along that axis."""
    axis = 0
    if verts.shape[0]:
        span = verts.max(axis=0) - verts.min(axis=0)
        axis = int(span[1] > span[0])
    return axis, np.ascontiguousarray(verts[np.argsort(verts[:, axis])].T)


@dataclass(frozen=True)
class PolygonMap:
    """Hazard polygons as closed exterior rings of (x, y) vertices."""

    rings: tuple[np.ndarray, ...] = ()
    crs: str = "local"
    geo_rings: tuple[np.ndarray, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.rings

    def vertices(self) -> np.ndarray:
        """All ring vertices stacked (duplicate closing points dropped)."""
        if not self.rings:
            return np.empty((0, 2))
        return np.vstack([ring[:-1] for ring in self.rings])

    def densified(self, spacing: float) -> "PolygonMap":
        """Insert vertices so no edge is longer than ``spacing`` meters.

        Edge ``a -> b`` is cut into ``steps = max(1, ceil(|b - a| / spacing))``
        pieces at ``a + (b - a) * (k / steps)``, ``k < steps`` (a zero-length
        edge keeps its start point); the ring's last point closes it.  One
        numpy pass per ring.
        """
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        out = []
        for ring in self.rings:
            start = ring[:-1]
            seg = ring[1:] - start
            steps = np.maximum(1.0, np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / spacing))
            steps = steps.astype(np.int64)
            edge = np.repeat(np.arange(len(start)), steps)
            k = np.arange(edge.size) - np.repeat(np.cumsum(steps) - steps, steps)
            pts = start[edge] + seg[edge] * (k / steps[edge])[:, None]
            out.append(np.vstack((pts, ring[-1:])))
        return PolygonMap(rings=tuple(out), crs=self.crs, geo_rings=self.geo_rings)

    def to_origin(self, origin: tuple[float, float]) -> "PolygonMap":
        """Re-project the stored geographic rings about a new origin."""
        if not self.geo_rings:
            raise ValueError("map carries no geographic rings to re-project")
        return PolygonMap(
            rings=project_rings(self.geo_rings, origin),
            crs=local_frame(origin),
            geo_rings=self.geo_rings,
        )

    def framed(
        self, origin: tuple[float, float] | None, spacing: float | None = None
    ) -> "PolygonMap":
        """This map measured in the frame about ``origin``, then densified.

        Geographic rings are re-projected with :meth:`to_origin` unless the map
        is already in that frame; both paths project through
        :func:`project_rings`, so skipping is bit-identical, and a map returned
        as is keeps its :meth:`near` index.  A map without geographic rings, or
        a ``None`` origin, keeps its frame.
        """
        pmap = self
        if origin is not None and self.geo_rings and self.crs != local_frame(origin):
            pmap = self.to_origin(origin)
        if spacing is not None and not pmap.is_empty:
            pmap = pmap.densified(spacing)
        return pmap

    def near(self, x: float, y: float, r: float) -> np.ndarray:
        """Vertices inside the box ``|vx - x| <= r``, ``|vy - y| <= r``, in no
        particular order.

        The first call sorts one copy of :meth:`vertices` along the map's
        longer bounding-box axis and keeps it on the instance (a map's rings
        are not modified after it is built), so a query is two binary
        searches for the band plus one cross-axis filter.
        """
        index = self.__dict__.get("_box_index")
        if index is None:
            # The dataclass is frozen, so the cache goes into the instance dict.
            index = self.__dict__["_box_index"] = _axis_sorted(self.vertices())
        axis, cols = index
        centre = (x, y)
        lo = np.searchsorted(cols[axis], centre[axis] - r, side="left")
        hi = np.searchsorted(cols[axis], centre[axis] + r, side="right")
        band = cols[:, lo:hi]
        keep = np.abs(band[1 - axis] - centre[1 - axis]) <= r
        return np.ascontiguousarray(band[:, keep].T)


@dataclass(frozen=True)
class GeometryParams:
    """Thresholds for the measurement classifiers (angles in radians)."""

    front_half_angle: float = FRONT_HALF_ANGLE
    head_on_half_angle: float = math.radians(22.5)
    stern_half_angle: float = math.radians(67.5)
    wp_window: float = 30.0
    wp_ahead_half_angle: float = math.radians(15.0)
    wp_bearing_deadband: float = math.radians(1.0)
    wp_distance_deadband: float = 10.0
    course_change_threshold: float = math.radians(5.0)
    course_changing_window: float = 60.0
    speed_change_threshold: float = 0.5


def cpa_linear(a: ShipState, b: ShipState) -> tuple[float, float]:
    """(tcpa, dcpa) for two constant-velocity tracks; tcpa clamped to >= 0."""
    d = b.position - a.position
    w = b.velocity - a.velocity
    ww = float(w @ w)
    if ww <= 0.0:
        return 0.0, float(np.hypot(*d))
    t = max(0.0, -float(d @ w) / ww)
    return t, float(np.hypot(*(d + w * t)))


def has_passed(a: ShipState, b: ShipState) -> bool:
    """True once the range rate is strictly opening (CPA is behind us)."""
    d = b.position - a.position
    w = b.velocity - a.velocity
    return float(d @ w) > 0.0


def passing_side(ref: ShipState, obs: ShipState) -> Side:
    """Side of the reference ship on which ``obs`` sits at (clamped) CPA."""
    tcpa, _ = cpa_linear(ref, obs)
    rel = (obs.position + obs.velocity * tcpa) - (ref.position + ref.velocity * tcpa)
    cross = cross2(ref.heading, rel)
    return Side.PORT if cross > 0.0 else Side.STARBOARD


def midpoint_cpa(ref: ShipState, obs: ShipState) -> tuple[float, Side]:
    """Closest approach of the reference track to the current midpoint.

    Returns (distance, side of the reference track the midpoint lies on).
    """
    mid = 0.5 * (ref.position + obs.position)
    rel = mid - ref.position
    cross = cross2(ref.heading, rel)
    side = Side.PORT if cross > 0.0 else Side.STARBOARD
    if ref.sog <= 0.0:
        return float(np.hypot(*rel)), side
    along = max(0.0, float(rel @ ref.heading))
    closest = ref.position + along * ref.heading
    return float(np.hypot(*(mid - closest))), side


def cross_front_distance(ref: ShipState, obs: ShipState) -> float:
    """Separation at the moment ``ref`` crosses dead ahead of ``obs``.

    Both tracks are extrapolated at constant velocity.  Returns ``inf`` when
    the reference never reaches the obstacle's projected track line forward of
    the obstacle (no crossing, crossing astern, or parallel motion).
    """
    e = obs.heading
    n = np.array((-e[1], e[0]))
    d = ref.position - obs.position
    w = ref.velocity - obs.velocity
    lateral_rate = float(w @ n)
    if abs(lateral_rate) < 1e-12:
        return math.inf
    t = -float(d @ n) / lateral_rate
    if t < 0.0:
        return math.inf
    ahead = float((d + w * t) @ e)
    return ahead if ahead > 0.0 else math.inf


def segment_cpa(
    a_curr: ShipState,
    a_next: ShipState,
    b_curr: ShipState,
    b_next: ShipState,
) -> tuple[float, float]:
    """Closest approach while both vessels run their recorded segments.

    Course comes from the position delta (falling back to the state's cog for
    zero displacement), speed from the current state's sog.  Returns
    (t_opt, d_opt) with t_opt clamped to [0, shortest segment duration].
    """

    def track(curr: ShipState, nxt: ShipState) -> np.ndarray:
        delta = nxt.position - curr.position
        if float(np.hypot(*delta)) < 1e-9:
            chi = curr.cog
        else:
            chi = math.atan2(float(delta[1]), float(delta[0]))
        return curr.sog * np.array((math.cos(chi), math.sin(chi)))

    dur_a = a_next.t - a_curr.t
    dur_b = b_next.t - b_curr.t
    if dur_a <= 0.0 or dur_b <= 0.0:
        raise ValueError("next states must be strictly later than current states")
    duration = min(dur_a, dur_b)
    d = b_curr.position - a_curr.position
    w = track(b_curr, b_next) - track(a_curr, a_next)
    ww = float(w @ w)
    t = 0.0 if ww <= 0.0 else -float(d @ w) / ww
    t_opt = min(max(t, 0.0), duration)
    return t_opt, float(np.hypot(*(d + w * t_opt)))


def classify_colregs(
    ref: ShipState, obs: ShipState, params: GeometryParams = GeometryParams()
) -> Situation:
    """COLREGS situation from bearing sectors and relative speed.

    Stationary pairs fall through to a crossing classified by bearing alone.
    """
    rel = obs.position - ref.position
    bearing_ro = angle_diff(math.atan2(float(rel[1]), float(rel[0])), ref.cog)
    if ref.sog > 0.0 and obs.sog > 0.0:
        reciprocal = abs(angle_diff(obs.cog, ref.cog + math.pi)) < params.head_on_half_angle
        if reciprocal and abs(bearing_ro) <= params.head_on_half_angle:
            return Situation.HEAD_ON
        bearing_or = angle_diff(math.atan2(float(-rel[1]), float(-rel[0])), obs.cog)
        if abs(angle_diff(bearing_ro, math.pi)) <= params.stern_half_angle and ref.sog < obs.sog:
            return Situation.OVERTAKEN
        if abs(angle_diff(bearing_or, math.pi)) <= params.stern_half_angle and ref.sog > obs.sog:
            return Situation.OVERTAKING
    cross = cross2(ref.heading, rel)
    return Situation.CROSSING_PORT if cross > 0.0 else Situation.CROSSING_STARBOARD


def _nearest_in_sectors(
    rel: np.ndarray, chi: float, sectors: Sequence[tuple[float, float]]
) -> list[float]:
    """Per sector, the distance to the nearest offset in ``rel`` whose bearing
    lies in the closed sector [alpha_start, alpha_end] (absolute angles
    bracketing ``chi``); ``inf`` for a sector without one.  Bearings and
    distances are computed once for all sectors."""
    bounds = [(alpha_start - chi, alpha_end - chi) for alpha_start, alpha_end in sectors]
    if any(lo >= hi for lo, hi in bounds):
        raise ValueError("alpha_start must be below alpha_end after unwrapping")
    if rel.shape[0] == 0:
        return [math.inf] * len(bounds)
    angles = np.arctan2(rel[:, 1], rel[:, 0]) - chi
    offsets = np.remainder(angles + math.pi, TWO_PI) - math.pi  # (-pi, pi]-ish
    dists = np.hypot(rel[:, 0], rel[:, 1])
    out = []
    for lo, hi in bounds:
        in_sector = np.zeros(len(rel), dtype=bool)
        for shift in (-TWO_PI, 0.0, TWO_PI):
            shifted = offsets + shift
            in_sector |= (shifted >= lo - 1e-12) & (shifted <= hi + 1e-12)
        out.append(float(dists[in_sector].min()) if in_sector.any() else math.inf)
    return out


def sector_ground_distance(
    x: float,
    y: float,
    chi: float,
    pmap: PolygonMap,
    alpha_start: float,
    alpha_end: float,
) -> float:
    """Distance to the nearest map vertex whose bearing from (x, y) lies in
    the closed sector [alpha_start, alpha_end] (absolute angles bracketing
    ``chi``); ``inf`` when the sector is empty of vertices."""
    rel = pmap.vertices() - np.array((x, y))
    return _nearest_in_sectors(rel, chi, [(alpha_start, alpha_end)])[0]


def grounding_measurements(
    state: ShipState,
    pmap: PolygonMap,
    params: GeometryParams = GeometryParams(),
    reach: float = math.inf,
) -> tuple[float, float, float]:
    """(starboard, port, front) sector distances to the nearest hazard vertex.

    Starboard spans from dead astern to the front cone's starboard edge, port
    mirrors it, and the front cone straddles the course.  With a finite
    ``reach`` only the vertices in the +-reach box around the ship are
    scanned (:meth:`PolygonMap.near`): a distance below ``reach`` is exactly
    the full scan's, and a sector whose nearest vertex lies farther reads
    some value >= ``reach`` or ``inf``.
    """
    if math.isinf(reach):
        verts = pmap.vertices()
    else:
        verts = pmap.near(state.x, state.y, reach)
    half = params.front_half_angle
    chi = state.cog
    sb, ps, fr = _nearest_in_sectors(
        verts - np.array((state.x, state.y)),
        chi,
        [(chi - math.pi, chi - half), (chi + half, chi + math.pi), (chi - half, chi + half)],
    )
    return sb, ps, fr


def _state_at_or_before(history: Sequence[ShipState], t: float) -> ShipState | None:
    best = None
    for s in history:
        if s.t <= t and (best is None or s.t > best.t):
            best = s
    return best


def waypoint_measurements(
    history: Sequence[ShipState],
    wp: Waypoint,
    params: GeometryParams = GeometryParams(),
) -> tuple[Trend, Trend, bool]:
    """(bearing trend, distance trend, waypoint-ahead flag) for the reference.

    Trends compare now against the newest sample at least ``wp_window``
    seconds old; histories too short to span the window report ``NEITHER``.
    """
    if not history:
        raise ValueError("history must contain at least the current state")
    now = history[-1]
    rel_now = wp.position - now.position
    bearing_now = math.atan2(float(rel_now[1]), float(rel_now[0]))
    ahead = abs(angle_diff(bearing_now, now.cog)) <= params.wp_ahead_half_angle
    past = _state_at_or_before(history, now.t - params.wp_window)
    if past is None:
        return Trend.NEITHER, Trend.NEITHER, ahead

    def rel_bearing(s: ShipState) -> float:
        rel = wp.position - s.position
        return abs(angle_diff(math.atan2(float(rel[1]), float(rel[0])), s.cog))

    db = rel_bearing(past) - rel_bearing(now)
    if db > params.wp_bearing_deadband:
        wprb = Trend.DECREASING
    elif db < -params.wp_bearing_deadband:
        wprb = Trend.INCREASING
    else:
        wprb = Trend.NEITHER
    dd = float(np.hypot(*(wp.position - past.position))) - float(np.hypot(*rel_now))
    if dd > params.wp_distance_deadband:
        wprd = Trend.DECREASING
    elif dd < -params.wp_distance_deadband:
        wprd = Trend.INCREASING
    else:
        wprd = Trend.NEITHER
    return wprb, wprd, ahead


def classify_turn(course: float, reference: float, threshold: float) -> Turn:
    """Turn from ``reference`` to ``course``; within ``threshold`` is straight."""
    delta = angle_diff(course, reference)
    if delta < -threshold:
        return Turn.STARBOARD
    if delta > threshold:
        return Turn.PORT
    return Turn.STRAIGHT


def classify_speed(sog: float, reference: float, threshold: float) -> SpeedTrend:
    """Speed change from ``reference`` to ``sog``; within ``threshold`` is none."""
    delta = sog - reference
    if delta > threshold:
        return SpeedTrend.HIGHER
    if delta < -threshold:
        return SpeedTrend.LOWER
    return SpeedTrend.NONE


def course_speed_changes(
    history: Sequence[ShipState],
    params: GeometryParams = GeometryParams(),
) -> tuple[Turn, SpeedTrend, bool]:
    """(course change, speed change, still-turning flag) since situation start.

    The course/speed deltas compare the newest state against the first one;
    the still-turning flag compares against the newest sample at least
    ``course_changing_window`` seconds old (or the first, early on).
    """
    if not history:
        raise ValueError("history must contain at least the current state")
    start, now = history[0], history[-1]
    recent = _state_at_or_before(history, now.t - params.course_changing_window) or start
    return (
        classify_turn(now.cog, start.cog, params.course_change_threshold),
        classify_speed(now.sog, start.sog, params.speed_change_threshold),
        abs(angle_diff(now.cog, recent.cog)) > params.course_change_threshold,
    )
