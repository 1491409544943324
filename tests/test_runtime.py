"""Session inference: dual routes against the monolithic network, scoring,
slice policy, and retraction."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from dense_oracle import session_beliefs

from shipintent.bn import ContradictionError, posterior, set_evidence, set_virtual_evidence
from shipintent.discretize import IntentionPriors, TruncNorm
from shipintent.geometry import PolygonMap, ShipState, Waypoint
from shipintent.netbuild import (
    apply_measurement_evidence,
    assert_compatible,
    build_intention_dbn,
    intention_prior_vector,
)
from shipintent.nodes import at, intention_ids
from shipintent.runtime import (
    SlicePolicy,
    init_session,
    measure_candidate,
    score_candidates,
    should_add_slice,
    step_update,
)
from shipintent.trajgen import LosParams, los_candidates
from helpers import DISC3, OBSTACLES, coupled_count, square_ring

EAST, NORTH, WEST = 0.0, math.pi / 2, math.pi


def own_at(t, x=None, sog=5.0, cog=EAST):
    return ShipState(t, sog * t * math.cos(cog) if x is None else x,
                     sog * t * math.sin(cog), sog, cog)


class LinearTrack:
    """Constant-velocity candidate track for scoring tests."""

    def __init__(self, state, label="probe"):
        self.state = state
        self.label = label

    def state_at(self, t):
        return self.state.advanced(t - self.state.t)


def benign_session(**kw):
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)
    return init_session(own, [obstacle], **kw)


# -- construction and validation ---------------------------------------------


def test_session_requires_obstacles_and_synchronized_clocks():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    with pytest.raises(ValueError):
        init_session(own, [])
    with pytest.raises(ValueError):
        init_session(own, [ShipState(1.0, 500.0, 0.0, 5.0, WEST)])
    with pytest.raises(ValueError):
        init_session(own, [ShipState(0.0, 500.0, 0.0, 5.0, WEST)], lookahead=-1.0)


def test_step_update_validation():
    session = benign_session()
    with pytest.raises(ValueError):
        step_update(session, own_at(10.0), [])
    with pytest.raises(ValueError):
        step_update(session, own_at(0.0), [session.obstacle_states[0]])
    with pytest.raises(ValueError):
        step_update(session, own_at(10.0), [session.obstacle_states[0]])  # stale obstacle clock


def test_posterior_marginals_are_normalized_distributions():
    session = benign_session()
    record = session.last_record
    assert sorted(record.posterior.marginals) == sorted(intention_ids(1))
    for probs in record.posterior.marginals.values():
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in probs)
    with pytest.raises(ValueError):
        record.posterior.p_true("priority_1")


def test_step_records_accumulate():
    session = benign_session()
    obs = session.obstacle_states[0]
    for t in (10.0, 20.0):
        record = step_update(session, own_at(t), [obs.advanced(t - obs.t)])
    assert record.step_index == 2
    assert [r.t for r in session.records] == [0.0, 10.0, 20.0]
    assert session.now == 20.0


# -- an unremarkable encounter barely moves the priors -------------------------


def test_distant_compliant_traffic_keeps_priors():
    session = benign_session()
    obs = session.obstacle_states[0]
    for t in (30.0, 60.0, 90.0):
        step_update(session, own_at(t), [obs.advanced(t - obs.t)])
    record = session.last_record
    for name in intention_ids(1):
        prior = intention_prior_vector(name, session.priors, session.disc, session.anchors)
        got = np.asarray(record.posterior.marginals[name])
        assert np.abs(got - prior).max() < 0.05, name


def test_unmodeled_certainty_scores_everything_one():
    priors = IntentionPriors(unmodeled=1.0)
    session = benign_session(priors=priors)
    assert session.last_record.posterior.p_true("unmodeled") == pytest.approx(1.0)
    result = score_candidates(session, los_candidates(session.own_state))
    for s in result.scores:
        assert s.raw == pytest.approx(1.0, abs=1e-12)


# -- slice policy ----------------------------------------------------------------


def test_slice_policy_validation():
    with pytest.raises(ValueError):
        SlicePolicy(max_age=0.0)
    with pytest.raises(ValueError):
        SlicePolicy(course_delta=0.0)


def test_slice_policy_decisions():
    session = benign_session()
    obs = session.obstacle_states[0]

    def probe(t, own_cog=EAST, own_sog=5.0):
        own = ShipState(t, 0.0, 0.0, own_sog, own_cog)
        return should_add_slice(session, own, [obs.advanced(t - obs.t)])

    turn8 = EAST + math.radians(8.0)
    assert not probe(5.0, own_cog=turn8)          # too young, despite the turn
    assert probe(11.0, own_cog=turn8)             # old enough and turned
    assert not probe(11.0)                        # no change: wait for max age
    assert probe(61.0)                            # max age forces a cut
    assert probe(11.0, own_sog=5.6)               # speed jump
    assert not probe(11.0, own_sog=5.4)           # inside the speed deadband


def test_obstacle_maneuver_also_opens_a_slice():
    session = benign_session()
    obs = session.obstacle_states[0].advanced(11.0)
    turned = ShipState(obs.t, obs.x, obs.y, obs.sog, obs.cog + math.radians(8.0))
    assert should_add_slice(session, own_at(11.0), [turned])


def test_slice_count_tracks_policy():
    session = benign_session(policy=SlicePolicy(max_age=15.0, min_age=5.0))
    obs = session.obstacle_states[0]
    for t in (10.0, 20.0, 30.0):
        step_update(session, own_at(t), [obs.advanced(t - obs.t)])
    assert session.slice_count == 2
    assert session.records[-2].added_slice or session.records[-1].added_slice


# -- dual route: session decomposition vs the monolithic network -------------------


def intention_posterior_via_network(session):
    """Independent route: build the sliced network, observe, run elimination."""
    slices = session.slice_count
    net = build_intention_dbn(
        session.n_ships, session.priors, session.disc, slices, situations=session.anchors
    )
    sa0, pa0 = session.slice_carries()[0]
    set_evidence(net, "turned_starboard_carry", sa0)
    set_evidence(net, "turned_port_carry", pa0)
    for k, meas in enumerate(session.slice_measurements()):
        apply_measurement_evidence(net, k, meas)
        assert_compatible(net, k)
    return {name: posterior(net, name).as_tuple() for name in intention_ids(session.n_ships)}


def test_single_slice_matches_network():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 2500.0, 120.0, 4.0, WEST)
    session = init_session(own, [obstacle], disc=DISC3)
    want = intention_posterior_via_network(session)
    got = session.last_record.posterior.marginals
    for name, vec in want.items():
        np.testing.assert_allclose(got[name], vec, atol=1e-9, err_msg=name)


def test_multi_slice_matches_network():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 3500.0, 300.0, 4.5, WEST)
    session = init_session(
        own, [obstacle], disc=DISC3, policy=SlicePolicy(max_age=15.0, min_age=5.0)
    )
    obs0 = obstacle
    for t, cog in ((10.0, EAST), (20.0, EAST + math.radians(20.0)), (30.0, EAST)):
        own_t = ShipState(t, 5.0 * t, 0.0, 5.0, cog)
        step_update(session, own_t, [obs0.advanced(t)])
    assert session.slice_count >= 2
    want = intention_posterior_via_network(session)
    got = session.last_record.posterior.marginals
    for name, vec in want.items():
        np.testing.assert_allclose(got[name], vec, atol=1e-9, err_msg=name)


def test_two_ship_session_matches_network():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 2500.0, 120.0, 4.0, WEST),
        ShipState(0.0, 1500.0, -2000.0, 5.0, NORTH),
    ]
    session = init_session(own, obstacles, disc=DISC3)
    want = intention_posterior_via_network(session)
    got = session.last_record.posterior.marginals
    for name, vec in want.items():
        np.testing.assert_allclose(got[name], vec, atol=1e-12, err_msg=name)


def turning_two_ship_steps(turns, steps):
    """A ``DISC3`` session with ``OBSTACLES[:2]``, yielded after each of
    ``steps`` 15 s steps of an own ship eastbound at 5 m/s that turns
    +0.5 rad (to port) at each step in ``turns``; each turn opens a slice."""
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own, obstacles, disc=DISC3)
    x, y, cog = 0.0, 0.0, EAST
    for k in range(1, steps + 1):
        if k in turns:
            cog += 0.5
        x, y = x + 75.0 * math.cos(cog), y + 75.0 * math.sin(cog)
        step_update(session, ShipState(15.0 * k, x, y, 5.0, cog),
                    [obs.advanced(15.0 * k) for obs in obstacles])
        yield session


@pytest.mark.parametrize("turns, steps, every_step", [
    ((2, 4), 4, True),         # one coupling slice frozen, checked at every step
    ((2, 4, 6, 8), 8, False),  # three frozen, checked at the last step
], ids=["K1", "K3"])
def test_turning_two_ship_session_matches_network(turns, steps, every_step):
    for session in turning_two_ship_steps(turns, steps):
        if not every_step and session.now < 15.0 * steps:
            continue
        want = intention_posterior_via_network(session)
        got = session.last_record.posterior.marginals
        for name, vec in want.items():
            np.testing.assert_allclose(got[name], vec, atol=1e-12, err_msg=name)
    assert session.slice_count == len(turns) + 1


def assert_scores_match_network_virtual_evidence(session):
    """Each candidate's raw score against the one-slice network with the step
    posteriors as virtual evidence and the turn latches carried in."""
    n = session.n_ships
    record = session.last_record
    candidates = los_candidates(session.own_state)
    result = score_candidates(session, candidates)
    for cand, scored in zip(candidates, result.scores):
        net = build_intention_dbn(n, session.priors, session.disc, 1,
                                  situations=session.anchors)
        for name in intention_ids(n):
            set_virtual_evidence(net, name, record.posterior.marginals[name])
        set_evidence(net, "turned_starboard_carry", int(record.node_probs["turned_starboard"]))
        set_evidence(net, "turned_port_carry", int(record.node_probs["turned_port"]))
        apply_measurement_evidence(net, 0, measure_candidate(session, cand))
        want = posterior(net, at("compatible", 0)).p_true
        assert scored.raw == pytest.approx(want, abs=1e-12), cand.label


def test_candidate_score_matches_network_virtual_evidence():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 2500.0, 120.0, 4.0, WEST)
    assert_scores_match_network_virtual_evidence(init_session(own, [obstacle], disc=DISC3))


def test_two_ship_candidate_score_matches_network_virtual_evidence():
    # After the port turns, most of the fan's slices couple the two ships
    # through stands_on_ok.
    *_, session = turning_two_ship_steps((2, 4), 4)
    assert session.last_record.node_probs["turned_port"] == 1.0
    assert_scores_match_network_virtual_evidence(session)


# -- candidate measurement ------------------------------------------------------------


def test_measure_candidate_course_and_speed_classes():
    session = benign_session()
    cands = {c.label: c for c in los_candidates(session.own_state)}
    straight = measure_candidate(session, cands["straight"])
    assert straight.course_change.value == "straight"
    assert straight.speed_change.value == "none"
    assert straight.course_changing is False
    sb90 = measure_candidate(session, cands["starboard_90"])
    assert sb90.course_change.value == "starboard"
    assert sb90.course_changing is True  # 90 degrees at 2 deg/s: still turning at 60 s
    sb20 = measure_candidate(session, cands["starboard_20"])
    assert sb20.course_changing is False  # that turn finished after 10 s


def test_measure_candidate_slow_track_reads_lower_speed():
    session = benign_session()
    slow = LinearTrack(ShipState(0.0, 0.0, 0.0, 3.5, EAST), "slow")
    meas = measure_candidate(session, slow)
    assert meas.speed_change.value == "lower"
    assert meas.course_change.value == "straight"


def test_measure_candidate_extrapolates_obstacles():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    # head-on, 1200 m off: meets the straight candidate in 120 s
    obstacle = ShipState(0.0, 1200.0, 0.0, 5.0, WEST)
    session = init_session(own, [obstacle])
    straight = next(c for c in los_candidates(own) if c.label == "straight")
    now = measure_candidate(session, straight, lookahead=0.0)
    later = measure_candidate(session, straight, lookahead=60.0)
    assert now.ships[0].tcpa_bin == 0 and later.ships[0].tcpa_bin == 0
    assert now.ships[0].dcpa_bin == 0 and later.ships[0].dcpa_bin == 0
    assert later.ships[0].passed is False
    past = measure_candidate(session, straight, lookahead=200.0)
    assert past.ships[0].passed is True
    with pytest.raises(ValueError):
        measure_candidate(session, straight, lookahead=-5.0)


# -- scoring ---------------------------------------------------------------------------


def test_score_requires_candidates():
    with pytest.raises(ValueError):
        score_candidates(benign_session(), [])


def test_single_compatible_candidate_normalizes_to_one():
    session = benign_session()
    straight = next(c for c in los_candidates(session.own_state) if c.label == "straight")
    result = score_candidates(session, [straight])
    assert not result.all_incompatible
    assert result.scores[0].raw > 0.5
    assert result.scores[0].score == 1.0


def test_scores_are_order_independent_and_normalized():
    session = benign_session()
    cands = los_candidates(session.own_state)
    fwd = score_candidates(session, cands)
    rev = score_candidates(session, list(reversed(cands)))
    assert sum(s.score for s in fwd.scores) == pytest.approx(1.0, abs=1e-12)
    fwd_by_label = {s.label: s.raw for s in fwd.scores}
    rev_by_label = {s.label: s.raw for s in rev.scores}
    assert fwd_by_label == rev_by_label
    assert [s.index for s in fwd.scores] == list(range(len(cands)))


def test_identical_candidates_share_the_score():
    session = benign_session()
    straight = next(c for c in los_candidates(session.own_state) if c.label == "straight")
    result = score_candidates(session, [straight, straight])
    assert result.scores[0].raw == result.scores[1].raw
    assert result.scores[0].score == pytest.approx(0.5, abs=1e-12)


def test_all_incompatible_falls_back_to_uniform():
    priors = IntentionPriors(
        unmodeled=0.0, ground_intent=0.0, colregs_compliant=1.0,
        good_seamanship=1.0, priority=(0.0, 0.0, 1.0),
    )
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 48_000.0, 0.0, 5.0, WEST)  # dead-centre, far away
    session = init_session(own, [obstacle], priors=priors)
    slow = LinearTrack(ShipState(0.0, 0.0, 0.0, 3.5, EAST), "slow")
    result = score_candidates(session, [slow])
    assert result.all_incompatible
    assert result.scores[0].raw == 0.0
    assert result.scores[0].score == pytest.approx(1.0)


def test_hazard_bound_candidate_scores_near_the_escape_floor():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)
    hazard = PolygonMap(rings=(square_ring(1000.0, 1100.0, 900.0),)).densified(25.0)
    session = init_session(own, [obstacle], hazard=hazard)
    result = score_candidates(session, los_candidates(own), lookahead=20.0)
    by_label = {s.label: s for s in result.scores}
    assert by_label["port_45"].raw < 0.05
    assert by_label["straight"].raw > 0.5
    assert min(result.scores, key=lambda s: s.raw).label == "port_45"
    record = session.last_record
    floor = record.posterior.p_true("unmodeled") + record.posterior.p_true("ground_intent")
    assert by_label["port_45"].raw < floor + 0.05


# -- contradiction and retraction ---------------------------------------------------


STRICT = IntentionPriors(
    unmodeled=0.0, ground_intent=0.0, colregs_compliant=1.0,
    good_seamanship=1.0, priority=(0.0, 0.0, 1.0),
)


def test_inexplicable_behaviour_raises_contradiction():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 2000.0, 0.0, 5.0, WEST)  # dead-centre collision course
    with pytest.raises(ContradictionError) as err:
        init_session(own, [obstacle], priors=STRICT)
    # The one ship's cap (colav_ok_1 or nav_maneuver_ok_1) holds nowhere.
    assert err.value.diagnosis == "ship_compatible_1"


def test_contradiction_names_the_ship_whose_cap_holds_nowhere():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    distant = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)
    head_on = ShipState(0.0, 2000.0, 0.0, 5.0, WEST)
    for obstacles, blamed in (([distant, head_on], "ship_compatible_2"),
                              ([head_on, distant], "ship_compatible_1")):
        with pytest.raises(ContradictionError) as err:
            init_session(own, obstacles, priors=STRICT)
        assert err.value.diagnosis == blamed


def test_scoring_leaves_the_session_untouched():
    session = benign_session()
    obs = session.obstacle_states[0]
    for t in (20.0, 40.0):
        step_update(session, own_at(t), [obs.advanced(t - obs.t)])
    before = session.state_hash()
    cands = los_candidates(session.own_state)
    score_candidates(session, cands)
    measure_candidate(session, cands[0])
    assert session.state_hash() == before
    # ...and stepping does change it
    step_update(session, own_at(60.0), [obs.advanced(60.0)])
    assert session.state_hash() != before


def test_node_probability_channels_present():
    record = benign_session().last_record
    for name in ("colav_ok_1", "nav_maneuver_ok_1", "evasive_ok_1",
                 "ground_safe_side", "ground_safe_front", "nav_maneuver",
                 "turned_starboard", "turned_port"):
        assert name in record.node_probs
        assert 0.0 <= record.node_probs[name] <= 1.0


# -- bad input and atomic updates ------------------------------------------------------


def test_non_finite_states_are_rejected_before_any_mutation():
    own = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacle = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)
    with pytest.raises(ValueError):
        init_session(ShipState(0.0, math.nan, 0.0, 5.0, EAST), [obstacle])
    with pytest.raises(ValueError):
        init_session(own, [ShipState(0.0, 40_000.0, math.inf, 5.0, EAST)])
    session = init_session(own, [obstacle])
    before = session.state_hash()
    for bad_own, bad_obs in (
        (ShipState(10.0, 50.0, 0.0, math.inf, EAST), obstacle.advanced(10.0)),
        (own_at(10.0), ShipState(10.0, 40_050.0, 10_000.0, 5.0, math.nan)),
        (ShipState(math.inf, 50.0, 0.0, 5.0, EAST), obstacle.advanced(10.0)),
    ):
        with pytest.raises(ValueError):
            step_update(session, bad_own, [bad_obs])
        assert session.state_hash() == before
    assert len(session.records) == 1


def test_rejected_update_leaves_the_session_unchanged():
    # Strict priors leave a dead-centre approach unexplained.  The bad update
    # also opens a slice (the obstacle "turned"), so a half-applied update
    # would have frozen the live slice and appended the states.
    priors = IntentionPriors(
        unmodeled=0.0, ground_intent=0.0, colregs_compliant=1.0,
        good_seamanship=1.0, priority=(0.0, 0.0, 1.0),
    )
    policy = SlicePolicy(max_age=30.0, min_age=5.0)
    benign = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)
    session = benign_session(priors=priors, policy=policy)
    control = benign_session(priors=priors, policy=policy)
    for s in (session, control):
        step_update(s, own_at(10.0), [benign.advanced(10.0)])
    before = session.state_hash()
    assert before == control.state_hash()

    head_on = ShipState(20.0, 2100.0, 0.0, 5.0, WEST)
    assert should_add_slice(session, own_at(20.0), [head_on])
    with pytest.raises(ContradictionError):
        step_update(session, own_at(20.0), [head_on])
    assert session.state_hash() == before
    assert session.slice_count == control.slice_count
    assert len(session.records) == len(control.records)

    got = step_update(session, own_at(20.0), [benign.advanced(20.0)])
    want = step_update(control, own_at(20.0), [benign.advanced(20.0)])
    assert got == want
    assert session.state_hash() == control.state_hash()


def slowing_two_ship_session(**kw):
    """Two distant ships; the own ship slows at 10 s, so its slice couples them."""
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    far = [ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST),
           ShipState(0.0, -40_000.0, 12_000.0, 5.0, WEST)]
    session = init_session(own0, far, policy=SlicePolicy(max_age=15.0, min_age=5.0), **kw)
    step_update(session, own0.advanced(10.0), [o.advanced(10.0) for o in far])
    step_update(session, ShipState(20.0, 100.0, 0.0, 2.0, EAST), [o.advanced(20.0) for o in far])
    assert session.slice_count == 2
    assert coupled_count(session) == 1
    return session, far


def test_rejected_update_at_a_coupled_two_ship_step_leaves_the_hash():
    session, far = slowing_two_ship_session(priors=STRICT)
    before = session.state_hash()
    own = ShipState(30.0, 120.0, 0.0, 2.0, EAST)
    head_on = ShipState(30.0, 2220.0, 0.0, 5.0, WEST)  # no slice opens: K stays 1
    assert not should_add_slice(session, own, [far[0].advanced(30.0), head_on])
    with pytest.raises(ContradictionError) as err:
        step_update(session, own, [far[0].advanced(30.0), head_on])
    assert err.value.diagnosis == "ship_compatible_2"
    assert session.state_hash() == before
    step_update(session, own, [o.advanced(30.0) for o in far])
    assert session.state_hash() != before


def slowing_session(far, coupled, **kw):
    """Distant ships; the own ship slows to 2 m/s at 20 s and holds it.

    Its speed differs from the start in every later slice, so each couples
    the ships; a slice opens every 20 s until ``coupled`` of them do.
    Returns the session and the own ship's last state.
    """
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    session = init_session(own0, far, policy=SlicePolicy(max_age=15.0, min_age=5.0), **kw)
    step_update(session, own0.advanced(10.0), [o.advanced(10.0) for o in far])
    t = 20.0
    while t == 20.0 or coupled_count(session) < coupled:
        own = ShipState(t, 100.0 + 2.0 * (t - 20.0), 0.0, 2.0, EAST)
        step_update(session, own, [o.advanced(t) for o in far])
        t += 20.0
    assert coupled_count(session) == coupled
    return session, own


@pytest.mark.parametrize("n_ships, coupled", [(2, 2), (3, 3)])
def test_contradiction_over_several_coupling_slices_names_the_ship(n_ships, coupled):
    # The evidence mass is a weighted sum over the lumped joint of every
    # slice's AND, which must come to exactly zero.  The last ship turns up
    # head-on without opening a slice: the update raises, names that ship
    # and leaves the hash.
    far = [ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST),
           ShipState(0.0, 60_000.0, 20_000.0, 5.0, EAST),
           ShipState(0.0, -40_000.0, 12_000.0, 5.0, WEST)]
    if n_ships == 2:
        far = [far[0], far[2]]
    session, own = slowing_session(far, coupled, priors=STRICT)
    before = session.state_hash()
    own = own.advanced(10.0)
    fixes = [o.advanced(own.t) for o in far[:-1]]
    fixes.append(ShipState(own.t, own.x + 2100.0, 0.0, 5.0, WEST))
    assert not should_add_slice(session, own, fixes)
    with pytest.raises(ContradictionError) as err:
        step_update(session, own, fixes)
    assert err.value.diagnosis == f"ship_compatible_{n_ships}"
    assert session.state_hash() == before


def test_sessions_fed_identical_fixes_hash_equal():
    (a, _), (b, far) = slowing_two_ship_session(), slowing_two_ship_session()
    assert a.state_hash() == b.state_hash()
    for s in (a, b):
        step_update(s, ShipState(30.0, 120.0, 0.0, 2.0, EAST), [o.advanced(30.0) for o in far])
    assert a.state_hash() == b.state_hash()


def test_probabilities_stay_in_the_unit_interval():
    # Sixty seeded n=1 encounters, twelve steps each at steady turn rates,
    # half with a waypoint and half beside a hazard: every node probability
    # and every marginal entry lies in [0, 1] exactly (rounding once pushed
    # colav_ok_1 to 1.0000000000000002).
    rng = np.random.default_rng(2)
    hazard = PolygonMap(rings=(square_ring(1500.0, 1500.0, 400.0),)).densified(50.0)
    checked = 0
    for _ in range(60):
        own = ShipState(0.0, 0.0, 0.0, rng.uniform(3.0, 8.0), rng.uniform(-math.pi, math.pi))
        r, ang = rng.uniform(800.0, 5000.0), rng.uniform(-math.pi, math.pi)
        obs0 = ShipState(0.0, r * math.cos(ang), r * math.sin(ang),
                         rng.uniform(1.0, 8.0), rng.uniform(-math.pi, math.pi))
        kwargs = {}
        if rng.random() < 0.5:
            kwargs["waypoint"] = Waypoint(*rng.uniform(-4000.0, 4000.0, 2))
        if rng.random() < 0.5:
            kwargs["hazard"] = hazard
        session = init_session(own, [obs0], policy=SlicePolicy(max_age=30.0, min_age=10.0),
                               **kwargs)
        records = [session.last_record]
        rate = math.radians(rng.uniform(-2.0, 2.0))
        for k in range(1, 13):
            t = 10.0 * k
            cog = own.cog + rate * 10.0
            own = ShipState(t, own.x + own.sog * 10.0 * math.cos(cog),
                            own.y + own.sog * 10.0 * math.sin(cog), own.sog, cog)
            try:
                records.append(step_update(session, own, [obs0.advanced(t)]))
            except ContradictionError:
                break
        for record in records:
            values = list(record.node_probs.values())
            values += [p for probs in record.posterior.marginals.values() for p in probs]
            assert all(0.0 <= v <= 1.0 for v in values)
            checked += 1
    assert checked > 600


def test_a_class_that_weighs_nothing_gets_no_mass_and_no_nan():
    # Certain compliance, a certain priority and a safe_cpa prior whose
    # far bins underflow to exactly zero: whole classes of the lumped roots
    # weigh nothing.  Their members keep a zero posterior, nothing turns
    # NaN, and the beliefs still match the dense reference.
    priors = IntentionPriors(
        colregs_compliant=1.0, good_seamanship=1.0, priority=(0.0, 1.0, 0.0),
        safe_cpa=TruncNorm(750.0, 1e-3, 0.0, 1500.0),
    )
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(
        own0, obstacles, priors=priors, disc=DISC3, policy=SlicePolicy(max_age=15.0, min_age=5.0)
    )
    zero = {
        name: np.flatnonzero(intention_prior_vector(name, priors, DISC3, session.anchors) == 0.0)
        for name in session.last_record.posterior.marginals
    }
    assert zero["safe_cpa"].size and zero["priority_1"].size and zero["colregs_compliant"].size
    for t, course in ((10.0, EAST), (20.0, EAST - 0.35), (30.0, EAST - 0.7)):
        record = step_update(session, own_at(t, cog=course), [o.advanced(t) for o in obstacles])
        marginals, node_probs = session_beliefs(session)
        for name, probs in record.posterior.marginals.items():
            assert np.all(np.isfinite(probs)), name
            assert not np.any(np.asarray(probs)[zero[name]]), name
            assert np.abs(np.subtract(probs, marginals[name])).max() <= 1e-12, name
        for name, p in record.node_probs.items():
            assert math.isfinite(p) and abs(p - node_probs[name]) <= 1e-12, name


def test_two_threads_scoring_one_session_get_the_serial_raws():
    # Scoring keeps no scratch in the session or its layout, so two threads
    # may score one session at once and get what one thread gets.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t, course in ((10.0, EAST), (20.0, EAST - 0.35)):
        step_update(session, own_at(t, cog=course), [o.advanced(t) for o in obstacles])
    before = session.state_hash()
    fan = los_candidates(session.own_state)
    lookaheads = (30.0, 60.0, 90.0, 120.0)

    def raws(lookahead):
        return [s.raw for s in score_candidates(session, fan, lookahead=lookahead).scores]

    serial = [raws(lookahead) for lookahead in lookaheads]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(raws, lookaheads * 4))
    assert threaded == serial * 4
    assert session.state_hash() == before
