"""Kinematics and geospatial measurements against numeric oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from shipintent.geometry import (
    GeometryParams,
    PolygonMap,
    ShipState,
    Side,
    Situation,
    SpeedTrend,
    Trend,
    Turn,
    Waypoint,
    angle_diff,
    classify_colregs,
    classify_speed,
    classify_turn,
    course_speed_changes,
    cpa_linear,
    cross_front_distance,
    grounding_measurements,
    has_passed,
    local_to_geo,
    midpoint_cpa,
    norm_course,
    passing_side,
    project_local,
    sector_ground_distance,
    segment_cpa,
    waypoint_measurements,
    wrap_angle,
)
from helpers import square_ring, straight_track

EAST, NORTH, WEST, SOUTH = 0.0, math.pi / 2, math.pi, -math.pi / 2


def ship(x, y, sog, cog, t=0.0):
    return ShipState(t=t, x=x, y=y, sog=sog, cog=cog)


# -- angles and projection ---------------------------------------------------


def test_wrap_angle_range_and_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    for a in np.linspace(-20.0, 20.0, 401):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-15
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)


def test_norm_course_wraps_into_circle():
    assert norm_course(math.radians(-60.0)) == pytest.approx(math.radians(300.0))
    assert norm_course(2 * math.pi) == 0.0


def test_angle_diff_takes_smallest_signed_arc():
    # compass 355 -> 5 is a 10 degree starboard turn; in the math frame the
    # same maneuver is a -10 degree change
    a, b = math.radians(95.0), math.radians(85.0)
    assert angle_diff(b, a) == pytest.approx(math.radians(-10.0))
    assert angle_diff(a, b) == pytest.approx(math.radians(10.0))


def test_project_local_identity_and_scales():
    origin = (60.0, 5.0)
    assert project_local(60.0, 5.0, origin) == (0.0, 0.0)
    _, y = project_local(60.001, 5.0, origin)
    assert y == pytest.approx(111.19, abs=0.01)
    x, _ = project_local(60.0, 5.001, origin)
    assert x == pytest.approx(55.60, abs=0.01)


def test_projection_round_trip():
    origin = (59.5, 4.25)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = rng.uniform(-20_000, 20_000, size=2)
        lat, lon = local_to_geo(x, y, origin)
        x2, y2 = project_local(lat, lon, origin)
        assert abs(x2 - x) < 1e-6 and abs(y2 - y) < 1e-6


# -- linear CPA ---------------------------------------------------------------


def test_cpa_linear_head_on():
    a = ship(0.0, 0.0, 5.0, EAST)
    b = ship(1000.0, 0.0, 5.0, WEST)
    tcpa, dcpa = cpa_linear(a, b)
    assert tcpa == pytest.approx(100.0)
    assert dcpa == pytest.approx(0.0, abs=1e-9)


def test_cpa_linear_identical_velocities():
    a = ship(0.0, 0.0, 4.0, NORTH)
    b = ship(300.0, 400.0, 4.0, NORTH)
    tcpa, dcpa = cpa_linear(a, b)
    assert tcpa == 0.0
    assert dcpa == pytest.approx(500.0)


def test_cpa_linear_is_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = ship(*rng.uniform(-5000, 5000, 2), rng.uniform(0, 10), rng.uniform(0, 2 * math.pi))
        b = ship(*rng.uniform(-5000, 5000, 2), rng.uniform(0, 10), rng.uniform(0, 2 * math.pi))
        assert cpa_linear(a, b) == cpa_linear(b, a)


def test_cpa_linear_matches_dense_time_sampling():
    rng = np.random.default_rng(17)
    ts = np.arange(0.0, 600.0, 0.01)
    for _ in range(50):
        a = ship(*rng.uniform(-2000, 2000, 2), rng.uniform(0.5, 8), rng.uniform(0, 2 * math.pi))
        b = ship(*rng.uniform(-2000, 2000, 2), rng.uniform(0.5, 8), rng.uniform(0, 2 * math.pi))
        tcpa, dcpa = cpa_linear(a, b)
        if tcpa >= 590.0:  # keep the numeric oracle's window authoritative
            continue
        dx = (b.x - a.x) + (b.velocity[0] - a.velocity[0]) * ts
        dy = (b.y - a.y) + (b.velocity[1] - a.velocity[1]) * ts
        dense = np.hypot(dx, dy).min()
        assert abs(dcpa - dense) < 0.1


# -- segment CPA ---------------------------------------------------------------


def test_segment_cpa_symmetric_meeting():
    a0, a1 = ship(0.0, 0.0, 1.0, EAST, t=0.0), ship(10.0, 0.0, 1.0, EAST, t=10.0)
    b0, b1 = ship(10.0, 0.0, 1.0, WEST, t=0.0), ship(0.0, 0.0, 1.0, WEST, t=10.0)
    t_opt, d_opt = segment_cpa(a0, a1, b0, b1)
    assert t_opt == pytest.approx(5.0)
    assert d_opt == pytest.approx(0.0, abs=1e-12)


def test_segment_cpa_parallel_tracks_tie_at_zero():
    a0, a1 = ship(0.0, 0.0, 2.0, EAST, t=0.0), ship(20.0, 0.0, 2.0, EAST, t=10.0)
    b0, b1 = ship(0.0, 70.0, 2.0, EAST, t=0.0), ship(20.0, 70.0, 2.0, EAST, t=10.0)
    t_opt, d_opt = segment_cpa(a0, a1, b0, b1)
    assert t_opt == 0.0
    assert d_opt == pytest.approx(70.0)


def test_segment_cpa_stationary_vessel_uses_cog_fallback():
    # zero displacement: course comes from the cog field, speed stays zero
    a0, a1 = ship(0.0, 0.0, 0.0, EAST, t=0.0), ship(0.0, 0.0, 0.0, EAST, t=10.0)
    b0, b1 = ship(50.0, -40.0, 4.0, NORTH, t=0.0), ship(50.0, 0.0, 4.0, NORTH, t=10.0)
    t_opt, d_opt = segment_cpa(a0, a1, b0, b1)
    assert d_opt == pytest.approx(50.0)
    assert t_opt == pytest.approx(10.0)


def random_segment_pair(rng):
    dt = rng.uniform(2.0, 30.0)
    out = []
    for _ in range(2):
        x, y = rng.uniform(-500, 500, 2)
        sog = rng.uniform(0.0, 10.0)
        cog = rng.uniform(0, 2 * math.pi)
        s0 = ship(x, y, sog, cog, t=0.0)
        s1 = ship(x + sog * math.cos(cog) * dt, y + sog * math.sin(cog) * dt, sog, cog, t=dt)
        out.append((s0, s1))
    return out[0][0], out[0][1], out[1][0], out[1][1]


def test_segment_cpa_never_beats_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a0, a1, b0, b1 = random_segment_pair(rng)
        _, d_opt = segment_cpa(a0, a1, b0, b1)
        d_start = math.hypot(b0.x - a0.x, b0.y - a0.y)
        d_end = math.hypot(b1.x - a1.x, b1.y - a1.y)
        assert d_opt <= d_start + 1e-9
        assert d_opt <= d_end + 1e-9


def test_segment_cpa_matches_bounded_scalar_minimization():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a0, a1, b0, b1 = random_segment_pair(rng)
        dur = a1.t - a0.t
        t_opt, d_opt = segment_cpa(a0, a1, b0, b1)

        def dist(t):
            ax = a0.x + (a1.x - a0.x) * t / dur
            ay = a0.y + (a1.y - a0.y) * t / dur
            bx = b0.x + (b1.x - b0.x) * t / dur
            by = b0.y + (b1.y - b0.y) * t / dur
            return math.hypot(bx - ax, by - ay)

        res = minimize_scalar(dist, bounds=(0.0, dur), method="bounded",
                              options={"xatol": 1e-10})
        best = min(res.fun, dist(0.0), dist(dur))
        assert abs(d_opt - best) < 1e-6
        assert 0.0 <= t_opt <= dur


# -- front crossing, midpoint, sides ------------------------------------------


def test_cross_front_distance_perpendicular_crossing():
    # ref cuts north across the obstacle's eastbound track 600 m ahead of it
    ref = ship(600.0, -300.0, 3.0, NORTH)
    obs = ship(0.0, 0.0, 2.0, EAST)
    d = cross_front_distance(ref, obs)
    # ref reaches y=0 after 100 s; obstacle has advanced 200 m -> gap 400 m
    assert d == pytest.approx(400.0)


def test_cross_front_distance_astern_is_saturated():
    ref = ship(-100.0, -50.0, 1.0, NORTH)  # crosses 100 m behind the obstacle
    obs = ship(0.0, 0.0, 5.0, EAST)
    assert cross_front_distance(ref, obs) == math.inf


def test_cross_front_distance_parallel_never_crosses():
    ref = ship(0.0, 100.0, 5.0, EAST)
    obs = ship(0.0, 0.0, 5.0, EAST)
    assert cross_front_distance(ref, obs) == math.inf


def test_cross_front_distance_matches_dense_simulation():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(300):
        ref = ship(*rng.uniform(-1500, 1500, 2), rng.uniform(0.5, 8), rng.uniform(0, 2 * math.pi))
        obs = ship(*rng.uniform(-1500, 1500, 2), rng.uniform(0.5, 8), rng.uniform(0, 2 * math.pi))
        d = cross_front_distance(ref, obs)
        if not math.isfinite(d) or d > 5000.0:
            continue
        ts = np.arange(0.0, 3000.0, 0.02)
        rel = (ref.position - obs.position) + np.outer(ts, ref.velocity - obs.velocity)
        lateral = rel @ np.array((-obs.heading[1], obs.heading[0]))
        signs = np.sign(lateral)
        flips = np.nonzero(np.diff(signs))[0]
        if len(flips) == 0:
            continue
        k = flips[0]
        ahead = float(rel[k] @ obs.heading)
        if ahead <= 0.0:
            continue
        assert abs(d - ahead) < 1.0
        checked += 1
    assert checked > 30


def test_midpoint_dead_ahead_breaks_tie_starboard():
    ref = ship(0.0, 0.0, 5.0, EAST)
    obs = ship(800.0, 0.0, 5.0, WEST)
    dm, side = midpoint_cpa(ref, obs)
    assert dm == pytest.approx(0.0, abs=1e-12)
    assert side is Side.STARBOARD


def test_midpoint_east_of_northbound_ref_is_starboard():
    ref = ship(0.0, 0.0, 5.0, NORTH)
    obs = ship(500.0, 0.0, 5.0, SOUTH)
    dm, side = midpoint_cpa(ref, obs)
    assert dm == pytest.approx(250.0)
    assert side is Side.STARBOARD


def test_midpoint_distance_matches_point_to_ray_formula():
    rng = np.random.default_rng(37)
    for _ in range(200):
        ref = ship(*rng.uniform(-1000, 1000, 2), rng.uniform(0.1, 8), rng.uniform(0, 2 * math.pi))
        obs = ship(*rng.uniform(-1000, 1000, 2), rng.uniform(0.1, 8), rng.uniform(0, 2 * math.pi))
        dm, _ = midpoint_cpa(ref, obs)
        mid = 0.5 * (ref.position + obs.position)
        rel = mid - ref.position
        along = max(0.0, float(rel @ ref.heading))
        want = float(np.hypot(*(rel - along * ref.heading)))
        assert dm == pytest.approx(want, abs=1e-9)


def test_passing_side_parallel_abeam():
    ref = ship(0.0, 0.0, 5.0, NORTH)
    obs = ship(200.0, 0.0, 5.0, NORTH)
    assert passing_side(ref, obs) is Side.STARBOARD
    mirrored = ship(-200.0, 0.0, 5.0, NORTH)
    assert passing_side(ref, mirrored) is Side.PORT


def test_has_passed_conventions():
    closing = ship(1000.0, 0.0, 5.0, WEST)
    assert not has_passed(ship(0.0, 0.0, 5.0, EAST), closing)
    receding = ship(-1000.0, 0.0, 5.0, WEST)
    assert has_passed(ship(0.0, 0.0, 5.0, EAST), receding)
    # exactly at CPA the range rate is zero: not yet passed
    abeam = ship(0.0, 300.0, 5.0, EAST)
    assert not has_passed(ship(0.0, 0.0, 5.0, EAST), abeam)
    # zero relative speed keeps the range constant: never passed
    assert not has_passed(ship(0.0, 0.0, 5.0, EAST), ship(500.0, 0.0, 5.0, EAST))


# -- COLREGS classification -----------------------------------------------------


def test_classify_head_on():
    ref = ship(0.0, 0.0, 5.0, EAST)
    obs = ship(2000.0, 30.0, 5.0, WEST)
    assert classify_colregs(ref, obs) is Situation.HEAD_ON
    assert classify_colregs(obs, ref) is Situation.HEAD_ON


def test_classify_overtaking_pair_is_reciprocal():
    fast = ship(0.0, 0.0, 6.0, EAST)
    slow = ship(500.0, 20.0, 2.0, EAST)
    assert classify_colregs(fast, slow) is Situation.OVERTAKING
    assert classify_colregs(slow, fast) is Situation.OVERTAKEN


def test_classify_crossing_starboard():
    ref = ship(0.0, 0.0, 5.0, EAST)
    obs = ship(1000.0, -1000.0, 5.0, NORTH)  # approaching from starboard
    assert classify_colregs(ref, obs) is Situation.CROSSING_STARBOARD
    obs_port = ship(1000.0, 1000.0, 5.0, SOUTH)
    assert classify_colregs(ref, obs_port) is Situation.CROSSING_PORT


def test_classify_stationary_falls_back_to_bearing():
    ref = ship(0.0, 0.0, 0.0, EAST)
    obs = ship(100.0, -50.0, 0.0, NORTH)
    assert classify_colregs(ref, obs) is Situation.CROSSING_STARBOARD


# -- sector ground distances -----------------------------------------------------


def test_sector_single_vertex_dead_ahead():
    ring = np.array([(500.0, 0.0), (501.0, 0.5), (501.0, -0.5), (500.0, 0.0)])
    pmap = PolygonMap(rings=(ring,))
    d = sector_ground_distance(0.0, 0.0, EAST, pmap, EAST - math.pi / 8, EAST + math.pi / 8)
    assert d == pytest.approx(500.0)


def test_sector_boundary_vertex_is_included():
    half = math.pi / 8
    r = 400.0
    vx, vy = r * math.cos(half), r * math.sin(half)  # exactly on the sector edge
    ring = np.array([(vx, vy), (vx + 1, vy), (vx + 1, vy + 1), (vx, vy)])
    pmap = PolygonMap(rings=(ring,))
    d = sector_ground_distance(0.0, 0.0, EAST, pmap, EAST - half, EAST + half)
    assert d == pytest.approx(r)


def test_sector_empty_map_saturates():
    assert sector_ground_distance(0.0, 0.0, EAST, PolygonMap(rings=()), -0.1, 0.1) == math.inf


def _densified_by_edge(ring: np.ndarray, spacing: float) -> np.ndarray:
    """Reference densification: one edge, one step at a time."""
    pts = []
    for a, b in zip(ring[:-1], ring[1:]):
        seg = b - a
        steps = max(1, int(math.ceil(float(np.hypot(*seg)) / spacing)))
        for k in range(steps):
            pts.append(a + seg * (k / steps))
    pts.append(ring[-1])
    return np.asarray(pts)


def test_densified_is_bit_identical_to_the_per_edge_loop():
    rng = np.random.default_rng(47)
    rings = []
    for n in (1, 2, 3, 7, 60):
        ring = rng.uniform(-500.0, 500.0, (n, 2)) * rng.uniform(0.01, 1.0)
        if n > 2:  # zero-length edges: repeated points, inside and at the closure
            ring[3 % n] = ring[2 % n]
            ring[-1] = ring[-2]
        rings.append(ring)
    rings.append(square_ring(300.0, -200.0, 350.0))
    pmap = PolygonMap(rings=tuple(rings))
    for spacing in (3.0, 25.0, 333.3, 1e4):
        dense = pmap.densified(spacing)
        assert len(dense.rings) == len(rings)
        for got, ring in zip(dense.rings, rings):
            want = _densified_by_edge(ring, spacing)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(got[-1], ring[-1])
    assert pmap.densified(1.0).crs == pmap.crs


def test_grounding_sectors_match_brute_force_scan():
    rng = np.random.default_rng(41)
    ring = square_ring(300.0, -200.0, 350.0)
    dense = PolygonMap(rings=(ring,)).densified(20.0)
    half = math.pi / 8
    for _ in range(60):
        x, y = rng.uniform(-900, 900, 2)
        chi = rng.uniform(0, 2 * math.pi)
        state = ship(x, y, 5.0, chi)
        sb, ps, fr = grounding_measurements(state, dense)
        verts = dense.vertices()
        rel = verts - np.array((x, y))
        dists = np.hypot(rel[:, 0], rel[:, 1])
        bearings = np.array([angle_diff(math.atan2(ry, rx), chi) for rx, ry in rel])
        eps = 1e-12
        want_fr = dists[(bearings >= -half - eps) & (bearings <= half + eps)]
        want_sb = dists[(bearings >= -math.pi - eps) & (bearings <= -half + eps)]
        want_ps = dists[(bearings >= half - eps) & (bearings <= math.pi + eps)]
        for got, want in ((fr, want_fr), (sb, want_sb), (ps, want_ps)):
            expect = float(want.min()) if len(want) else math.inf
            assert got == pytest.approx(expect, abs=1e-9)
        finites = [v for v in (sb, ps, fr) if math.isfinite(v)]
        assert min(finites) == pytest.approx(float(dists.min()), abs=1e-9)


def test_grounding_hazard_on_starboard_beam_only():
    state = ship(0.0, 0.0, 5.0, EAST)
    ring = square_ring(0.0, -600.0, 100.0)  # due south = starboard for eastbound
    sb, ps, fr = grounding_measurements(state, PolygonMap(rings=(ring,)))
    assert math.isfinite(sb)
    assert ps == math.inf
    assert fr == math.inf


def test_grounding_rotation_and_translation_invariance():
    ring = square_ring(800.0, 300.0, 250.0)
    state = ship(100.0, -50.0, 5.0, math.radians(20.0))
    base = grounding_measurements(state, PolygonMap(rings=(ring,)))
    for phi, shift in ((0.7, (1234.0, -987.0)), (-2.1, (-40.0, 4000.0))):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        moved_ring = ring @ rot.T + shift
        sx, sy = rot @ np.array((state.x, state.y)) + shift
        moved = ShipState(0.0, float(sx), float(sy), state.sog, state.cog + phi)
        got = grounding_measurements(moved, PolygonMap(rings=(moved_ring,)))
        np.testing.assert_allclose(got, base, atol=1e-6)


# -- waypoint and course-change measurements --------------------------------------


def test_waypoint_straight_approach():
    track = straight_track((0.0, 0.0), EAST, 5.0, n=10, dt=10.0)
    wprb, wprd, ahead = waypoint_measurements(track, Waypoint(2000.0, 0.0))
    assert wprd is Trend.DECREASING
    assert ahead is True


def test_waypoint_circling_keeps_distance_neither():
    params = GeometryParams()
    r, omega = 500.0, 0.01
    track = [
        ShipState(t, r * math.cos(omega * t), r * math.sin(omega * t), r * omega,
                  norm_course(omega * t + math.pi / 2))
        for t in np.arange(0.0, 100.0, 5.0)
    ]
    _, wprd, _ = waypoint_measurements(track, Waypoint(0.0, 0.0), params)
    assert wprd is Trend.NEITHER


def test_waypoint_short_history_is_neither():
    track = straight_track((0.0, 0.0), EAST, 5.0, n=2, dt=5.0)  # 5 s < window
    wprb, wprd, _ = waypoint_measurements(track, Waypoint(1000.0, 0.0))
    assert wprb is Trend.NEITHER
    assert wprd is Trend.NEITHER


def test_course_speed_changes_constant_history():
    track = straight_track((0.0, 0.0), NORTH, 5.0, n=8, dt=10.0)
    assert course_speed_changes(track) == (Turn.STRAIGHT, SpeedTrend.NONE, False)


def test_course_change_to_starboard():
    # -20 degrees in the math frame = +20 degrees compass = starboard turn
    a = ShipState(0.0, 0.0, 0.0, 5.0, NORTH)
    b = ShipState(30.0, 10.0, 10.0, 5.0, NORTH - math.radians(20.0))
    cic, cis, ccc = course_speed_changes([a, b])
    assert cic is Turn.STARBOARD
    assert ccc is True


def test_course_change_wraps_across_north():
    # compass 355 -> 5: ten degrees starboard, not a 350 degree port swing
    a = ShipState(0.0, 0.0, 0.0, 5.0, norm_course(math.radians(90.0 - 355.0)))
    b = ShipState(30.0, 10.0, 10.0, 5.0, norm_course(math.radians(90.0 - 5.0)))
    cic, _, _ = course_speed_changes([a, b])
    assert cic is Turn.STARBOARD


def test_speed_change_classification():
    a = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    b = ShipState(30.0, 150.0, 0.0, 5.8, EAST)
    _, cis, _ = course_speed_changes([a, b])
    assert cis is SpeedTrend.HIGHER
    c = ShipState(30.0, 150.0, 0.0, 4.1, EAST)
    _, cis, _ = course_speed_changes([a, c])
    assert cis is SpeedTrend.LOWER


def test_ccc_clears_after_settling():
    # turn finished early; the trailing 60 s window sees a steady course
    states = [ShipState(0.0, 0.0, 0.0, 5.0, EAST),
              ShipState(10.0, 50.0, 0.0, 5.0, EAST - math.radians(30.0))]
    states += [
        ShipState(10.0 + k * 10.0, 100.0 + k, 0.0, 5.0, EAST - math.radians(30.0))
        for k in range(1, 10)
    ]
    cic, _, ccc = course_speed_changes(states)
    assert cic is Turn.STARBOARD
    assert ccc is False


def test_turn_and_speed_ladders_are_open_at_the_threshold():
    thr = math.radians(5.0)
    assert classify_turn(EAST + 0.9 * thr, EAST, thr) is Turn.STRAIGHT
    assert classify_turn(EAST + 1.1 * thr, EAST, thr) is Turn.PORT
    assert classify_turn(norm_course(EAST - 1.1 * thr), EAST, thr) is Turn.STARBOARD
    assert classify_speed(5.4, 5.0, 0.5) is SpeedTrend.NONE
    assert classify_speed(5.6, 5.0, 0.5) is SpeedTrend.HIGHER
    assert classify_speed(4.4, 5.0, 0.5) is SpeedTrend.LOWER
