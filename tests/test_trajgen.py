"""Candidate-fan generation: guidance geometry, symmetry, sampling."""

import hashlib
import math

import numpy as np
import pytest

from shipintent.geometry import ShipState, angle_diff, wrap_angle
from shipintent.trajgen import (
    DEFAULT_OFFSETS,
    CandidateTrajectory,
    LosParams,
    _steer_toward,
    candidate_label,
    los_candidates,
)

EAST = 0.0


def fan(sog=6.0, cog=EAST, params=LosParams()):
    return los_candidates(ShipState(0.0, 0.0, 0.0, sog, cog), params)


def by_label(cands):
    return {c.label: c for c in cands}


# -- labels and parameters -----------------------------------------------------


def test_default_fan_labels_in_offset_order():
    assert [c.label for c in fan()] == [
        "starboard_90", "starboard_45", "starboard_20", "straight", "port_20", "port_45",
    ]


def test_candidate_label_formatting():
    assert candidate_label(0.0) == "straight"
    assert candidate_label(math.radians(-90.0)) == "starboard_90"
    assert candidate_label(math.radians(7.5)) == "port_7.5"


def test_params_validation():
    with pytest.raises(ValueError):
        LosParams(offsets=())
    with pytest.raises(ValueError):
        LosParams(offsets=(4.0,))
    with pytest.raises(ValueError):
        LosParams(turn_rate=0.0)
    with pytest.raises(ValueError):
        LosParams(dt=0.0)
    with pytest.raises(ValueError):
        LosParams(horizon=3.0, dt=5.0)
    with pytest.raises(ValueError):
        LosParams(pursuit_lookahead=-1.0)


def test_trajectory_needs_states():
    with pytest.raises(ValueError):
        CandidateTrajectory("empty", 0.0, ())


# -- the straight candidate is the nominal ray, exactly -------------------------


def test_straight_candidate_holds_course_bit_exact():
    start = ShipState(0.0, 10.0, -20.0, 5.0, math.radians(30.0))
    straight = by_label(los_candidates(start))["straight"]
    assert all(s.cog == start.cog for s in straight.states)
    assert all(s.sog == start.sog for s in straight.states)
    step = start.sog * 5.0 * np.array((math.cos(start.cog), math.sin(start.cog)))
    pos = start.position.astype(float)
    for s in straight.states[1:]:
        pos = pos + step
        assert s.x == pos[0] and s.y == pos[1]


def test_straight_candidate_stays_on_axis():
    straight = by_label(fan(cog=EAST))["straight"]
    assert all(s.y == 0.0 for s in straight.states)
    xs = [s.x for s in straight.states]
    assert xs == sorted(xs)


# -- frozen endpoints of the default fan (eastbound, 6 m/s) ---------------------


def test_frozen_terminal_positions():
    want = {
        "starboard_90": (3366.389375, -156.450804),
        "starboard_45": (3563.910451, -49.753679),
        "starboard_20": (3596.956161, -5.209445),
        "straight": (3600.0, 0.0),
        "port_20": (3596.956161, 5.209445),
        "port_45": (3563.910451, 49.753679),
    }
    for label, (x, y) in want.items():
        term = by_label(fan())[label].states[-1]
        assert term.x == pytest.approx(x, abs=1e-5)
        assert term.y == pytest.approx(y, abs=1e-5)


def test_frozen_mid_turn_state():
    # 60 s into the hardest starboard candidate: three pursuit steps past the
    # completed 90-degree turn, already steering back toward the track
    s60 = by_label(fan())["starboard_90"].state_at(60.0)
    assert s60.x == pytest.approx(186.920834, abs=1e-5)
    assert s60.y == pytest.approx(-270.166558, abs=1e-5)
    assert angle_diff(s60.cog, math.radians(-60.0)) == pytest.approx(0.0, abs=1e-12)


# -- guidance properties ----------------------------------------------------------


def test_terminal_course_realigns_with_the_nominal():
    for cog in (EAST, math.radians(75.0), math.radians(-140.0)):
        for c in fan(cog=cog):
            err = abs(angle_diff(c.states[-1].cog, cog))
            assert err < math.radians(0.5)


def test_terminal_cross_track_settles():
    for c in fan(cog=math.radians(20.0)):
        normal = np.array((-math.sin(math.radians(20.0)), math.cos(math.radians(20.0))))
        tail = c.states[-len(c.states) // 10:]
        crosses = [float(s.position @ normal) for s in tail]
        assert max(crosses) - min(crosses) < 0.01


def test_mirror_symmetry_of_opposite_offsets():
    params = LosParams(offsets=(math.radians(30.0), math.radians(-30.0)))
    cog = math.radians(40.0)
    port, starboard = los_candidates(ShipState(0.0, 0.0, 0.0, 5.0, cog), params)
    axis = np.array((math.cos(cog), math.sin(cog)))
    normal = np.array((-axis[1], axis[0]))
    for sp, ss in zip(port.states, starboard.states):
        assert abs(float(sp.position @ axis) - float(ss.position @ axis)) < 1e-6
        assert abs(float(sp.position @ normal) + float(ss.position @ normal)) < 1e-6


def test_constant_speed_and_arc_length():
    for c in fan(sog=4.2, cog=math.radians(110.0)):
        for a, b in zip(c.states, c.states[1:]):
            assert b.sog == 4.2
            step = float(np.hypot(b.x - a.x, b.y - a.y))
            assert step == pytest.approx(4.2 * 5.0, rel=0.01)


def test_course_rate_limit():
    params = LosParams()
    max_step = params.turn_rate * params.dt
    for c in fan(cog=math.radians(-60.0), params=params):
        for a, b in zip(c.states, c.states[1:]):
            assert abs(angle_diff(b.cog, a.cog)) <= max_step + 1e-12


def test_samples_time_monotonic_on_grid():
    for c in fan():
        times = [s.t for s in c.states]
        assert times == [5.0 * k for k in range(len(times))]
        assert c.t_start == 0.0 and c.t_end == 600.0


# -- interpolation ------------------------------------------------------------------


def test_state_at_interpolates_between_samples():
    c = by_label(fan())["starboard_45"]
    a, b = c.states[3], c.states[4]
    mid = c.state_at((a.t + b.t) / 2.0)
    assert mid.x == pytest.approx((a.x + b.x) / 2.0, abs=1e-9)
    assert mid.y == pytest.approx((a.y + b.y) / 2.0, abs=1e-9)
    assert angle_diff(mid.cog, a.cog) == pytest.approx(0.5 * angle_diff(b.cog, a.cog), abs=1e-12)


def test_state_at_clamps_to_endpoints():
    c = by_label(fan())["port_45"]
    before = c.state_at(-30.0)
    assert (before.x, before.y) == (c.states[0].x, c.states[0].y)
    assert before.t == -30.0
    after = c.state_at(10_000.0)
    assert (after.x, after.y) == (c.states[-1].x, c.states[-1].y)
    assert after.t == 10_000.0


def test_state_at_exact_sample_times():
    c = by_label(fan())["starboard_90"]
    for k in (0, 7, 60):
        s = c.state_at(c.states[k].t)
        assert (s.x, s.y, s.cog) == (c.states[k].x, c.states[k].y, c.states[k].cog)


def test_default_offsets_are_the_documented_fan():
    assert DEFAULT_OFFSETS == tuple(
        math.radians(d) for d in (-90.0, -45.0, -20.0, 0.0, 20.0, 45.0)
    )


# -- bit-equality with the 2-vector integrator ---------------------------------


def vector_integrate(start, offset, p):
    """The integrator as it was written on NumPy 2-vectors, kept as the reference."""
    base = start.cog
    target = base if offset == 0.0 else wrap_angle(base + offset)
    base_dir = np.array((math.cos(base), math.sin(base)))
    max_step = p.turn_rate * p.dt
    n_steps = int(round(p.horizon / p.dt))
    states = [start]
    course = start.cog
    pos = start.position.astype(float)
    anchor = None
    turning = course != target
    for k in range(1, n_steps + 1):
        if turning:
            course = _steer_toward(course, target, max_step)
            if course == target:
                turning = False
                anchor = pos.copy()
        elif offset != 0.0:
            if anchor is None:
                anchor = pos.copy()
            along = float((pos - anchor) @ base_dir)
            carrot = anchor + (along + p.pursuit_lookahead) * base_dir
            desired = math.atan2(carrot[1] - pos[1], carrot[0] - pos[0])
            course = _steer_toward(course, desired, max_step)
        pos = pos + start.sog * p.dt * np.array((math.cos(course), math.sin(course)))
        states.append(
            ShipState(start.t + k * p.dt, float(pos[0]), float(pos[1]), start.sog, course)
        )
    return tuple(states)


def digest(paths):
    h = hashlib.sha256()
    for states in paths:
        h.update(np.array([(s.t, s.x, s.y, s.sog, s.cog) for s in states]).tobytes())
    return h.hexdigest()


def test_float_integrator_matches_the_vector_one_bit_for_bit():
    rng = np.random.default_rng(0)
    got, want = [], []
    for _ in range(300):
        start = ShipState(
            float(rng.uniform(0.0, 1e3)),
            float(rng.uniform(-5e4, 5e4)),
            float(rng.uniform(-5e4, 5e4)),
            float(rng.uniform(0.0, 15.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        params = LosParams(
            offsets=(*DEFAULT_OFFSETS, float(rng.uniform(-math.pi, math.pi))),
            turn_rate=math.radians(float(rng.uniform(0.5, 5.0))),
            dt=float(rng.choice([1.0, 2.5, 5.0])),
            horizon=300.0,
            pursuit_lookahead=float(rng.uniform(50.0, 500.0)),
        )
        got += [c.states for c in los_candidates(start, params)]
        want += [vector_integrate(start, o, params) for o in params.offsets]
    assert digest(got) == digest(want)
