"""The session kernel against the dense reference in ``dense_oracle``.

Marginals, live-node probabilities and raw candidate scores must agree to
1e-12 at every checked step: the kernel contracts a boolean joint over
lumped roots against each class's summed weight and spreads the masses
back over the members, the reference reduces a dense ``weight * joint``
over every value, so only the summation order differs.
"""

import math

import numpy as np
from dense_oracle import candidate_raws, session_beliefs
from helpers import coupled_count, square_ring

from shipintent.discretize import Discretization
from shipintent.geometry import PolygonMap, ShipState, Waypoint
from shipintent.runtime import SlicePolicy, init_session, score_candidates, step_update
from shipintent.trajgen import los_candidates

EAST, NORTH, WEST = 0.0, math.pi / 2, math.pi
TOL = 1e-12
# Candidates are scored at each of these lookaheads [s]; between them the
# fan's course-held and turning branches are both taken.
LOOKAHEADS = (30.0, 60.0, 120.0)


def assert_matches_dense(session, *, score=False):
    record = session.last_record
    marginals, node_probs = session_beliefs(session)
    assert set(record.posterior.marginals) == set(marginals)
    for name, want in marginals.items():
        got = np.asarray(record.posterior.marginals[name])
        assert np.abs(got - np.asarray(want)).max() <= TOL, name
    assert set(record.node_probs) == set(node_probs)
    for name, want in node_probs.items():
        assert abs(record.node_probs[name] - want) <= TOL, name
    if score:
        candidates = los_candidates(session.own_state)
        for lookahead in LOOKAHEADS:
            result = score_candidates(session, candidates, lookahead=lookahead)
            got = [s.raw for s in result.scores]
            want = candidate_raws(session, candidates, lookahead=lookahead)
            assert np.abs(np.asarray(got) - np.asarray(want)).max() <= TOL, lookahead


def test_one_ship_replay_beside_a_hazard_matches_dense():
    # Default bins; a slowly starboard-turning transit past a square hazard
    # towards a waypoint, with an oncoming ship.  Slices open by age and on
    # the turn, so frozen messages accumulate.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    oncoming = ShipState(0.0, 2500.0, 120.0, 4.0, WEST)
    hazard = PolygonMap(rings=(square_ring(600.0, 450.0, 250.0),)).densified(25.0)
    session = init_session(
        own0, [oncoming], hazard=hazard, waypoint=Waypoint(3000.0, -1500.0),
        policy=SlicePolicy(max_age=30.0, min_age=10.0),
    )
    assert_matches_dense(session)
    for k in range(1, 11):
        t = 10.0 * k
        own = ShipState(t, 5.0 * t, -2.0 * k * k, 5.0, -math.radians(3.0 * k))
        step_update(session, own, [oncoming.advanced(t)])
        assert_matches_dense(session, score=k in (4, 10))
    assert session.slice_count >= 3


def test_two_ship_replay_that_opens_a_slice_matches_dense():
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 2500.0, 120.0, 4.0, WEST),
        ShipState(0.0, 1500.0, -2000.0, 5.0, NORTH),
    ]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t in (10.0, 20.0):
        step_update(session, own0.advanced(t), [o.advanced(t) for o in obstacles])
    assert session.slice_count == 2
    assert_matches_dense(session, score=True)


def test_three_ship_session_runs_and_matches_dense():
    # Three bins per threshold: 3**4 * 4 * 15**3, about 1.1e6 joint cells.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 2500.0, 120.0, 4.0, WEST),
        ShipState(0.0, 1500.0, -2000.0, 5.0, NORTH),
        ShipState(0.0, -1500.0, 300.0, 7.0, EAST),
    ]
    session = init_session(
        own0, obstacles, disc=Discretization().with_bins(3),
        policy=SlicePolicy(max_age=15.0, min_age=5.0),
    )
    assert math.prod(session.layout.cards) == 1_093_500
    assert_matches_dense(session, score=True)
    for k in range(1, 4):
        t = 10.0 * k
        own = ShipState(t, 5.0 * t, 0.0, 5.0, EAST + math.radians(4.0 * k))
        step_update(session, own, [o.advanced(t) for o in obstacles])
        assert_matches_dense(session, score=k == 3)
    assert session.slice_count >= 2


def turning_replay(session, obstacles, steps):
    """Turn the own ship 8 degrees more at every 10 s step.

    Each step then opens a slice (the course moved past the 5 degree
    threshold since the last one) whose course is not held, so every step
    adds one more slice that couples the ships.
    """
    ks = [coupled_count(session)]
    for k in range(1, steps + 1):
        t = 10.0 * k
        own = ShipState(t, 5.0 * t, -0.5 * k * k, 5.0, EAST - math.radians(8.0 * k))
        step_update(session, own, [o.advanced(t) for o in obstacles])
        ks.append(coupled_count(session))
        yield ks


def test_two_ship_replay_turning_over_slices_matches_dense():
    # Default bins, against the 9e6-cell joint, over eight slices that
    # couple the ships: every slice refines the lumped partition further.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 2500.0, 120.0, 4.0, WEST),
        ShipState(0.0, 1500.0, -2000.0, 5.0, NORTH),
    ]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=60.0, min_age=5.0))
    assert_matches_dense(session)
    for ks in turning_replay(session, obstacles, 8):
        assert_matches_dense(session, score=ks[-1] == 1)
    assert ks == list(range(9))


def test_three_ship_replay_turning_over_slices_matches_dense():
    # Three bins per threshold, over six slices that couple the ships.  At
    # default bins three ships need about 1 GB per float64 array over the
    # 1.35e8-cell joint, more than the reference should take; the step's
    # memory at default bins is pinned in test_step_kernel.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 2500.0, 120.0, 4.0, WEST),
        ShipState(0.0, 1500.0, -2000.0, 5.0, NORTH),
        ShipState(0.0, -1500.0, 300.0, 7.0, EAST),
    ]
    session = init_session(
        own0, obstacles, disc=Discretization().with_bins(3),
        policy=SlicePolicy(max_age=60.0, min_age=5.0),
    )
    assert_matches_dense(session, score=True)
    for ks in turning_replay(session, obstacles, 6):
        assert_matches_dense(session, score=ks[-1] in (1, 3, 6))
    assert ks == list(range(7))
