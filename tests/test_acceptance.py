"""End-to-end acceptance checks, one behavior per test, at pinned tolerances.

Each test exercises a headline guarantee of the package as a whole:
exact inference against brute-force enumeration, compiled factors against
the predicate registry, belief decay on hazard approaches, candidate
ranking in scripted encounters, closest-approach search against a
golden-section oracle, prior recovery from planted corpora, bin masses
against adaptive quadrature, latency budgets at one and two obstacle
ships and for grounding on a large coast, the memory floor of importing
the CLI, and scoring side-effect freedom.  Fixtures are frozen; every
tolerance is stated inline.
"""

import math
import sys
import time
import warnings

import numpy as np
import pytest
from helpers import random_network, run_python
from scipy import integrate
from scipy.stats import norm

from shipintent.bn import joint_enumerate_oracle, posterior
from shipintent.discretize import Discretization, IntentionPriors, TruncNorm, discretize_truncnorm
from shipintent.extract import Encounter, ExtractionWarning, build_prior_config, find_cpa
from shipintent.geometry import (
    PolygonMap,
    ShipState,
    Turn,
    Waypoint,
    grounding_measurements,
    segment_cpa,
)
from shipintent.netbuild import build_intention_dbn
from shipintent.nodes import at, model_node_specs, model_node_truth
from shipintent.runtime import SlicePolicy, init_session, score_candidates, step_update
from shipintent.trajgen import LosParams, los_candidates

EAST = 0.0
NORTH = math.pi / 2


def block(cx, cy, hx, hy):
    """Axis-aligned rectangle ring around (cx, cy) with half-extents hx, hy."""
    pts = [
        (cx - hx, cy - hy),
        (cx + hx, cy - hy),
        (cx + hx, cy + hy),
        (cx - hx, cy + hy),
        (cx - hx, cy - hy),
    ]
    return np.asarray(pts, float)


def test_posteriors_match_joint_enumeration_on_random_networks():
    # 1000 random networks (up to 12 vars, cardinality up to 5, one hard and
    # one virtual evidence assignment each): every queryable marginal must
    # agree with brute-force joint enumeration to 1e-9, in under 60 s total.
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        net, queryable = random_network(rng, max_vars=12, max_card=5, joint_cap=200_000)
        for var in queryable:
            err = np.max(np.abs(posterior(net, var).probs - joint_enumerate_oracle(net, var).probs))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_compiled_factor_tables_reproduce_the_node_predicates():
    # Every deterministic model node, 10_000 random parent assignments each:
    # the compiled factor row must equal the predicate's truth value exactly.
    net = build_intention_dbn(1, IntentionPriors(), Discretization(), 1)
    rng = np.random.default_rng(97)
    mismatches = 0
    for spec in model_node_specs(1):
        factor = net.cpts[at(spec.node_id, 0)]
        cards = factor.cards[:-1]
        for _ in range(10_000):
            states = tuple(int(rng.integers(c)) for c in cards)
            want = model_node_truth(spec, dict(zip(spec.parents, states)))
            row = factor.table[states]
            if row[1] != (1.0 if want else 0.0) or row[0] != (0.0 if want else 1.0):
                mismatches += 1
    assert mismatches == 0


def test_front_hazard_belief_decays_monotonically_on_direct_approach():
    # Dead-ahead square hazard, straight transit onto its near face.  The
    # front-clearance belief starts above 0.95 with > 800 m of open water,
    # never increases, and ends below 0.05 with the bow on the boundary.
    hazard = PolygonMap(rings=(block(3500.0, 0.0, 400.0, 400.0),)).densified(10.0)
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    far = ShipState(0.0, 40_000.0, 10_000.0, 5.0, EAST)  # co-moving, never relevant
    session = init_session(own0, [far], hazard=hazard)
    probs = [session.last_record.node_probs["ground_safe_front"]]
    for k in range(1, 63):
        t = 10.0 * k
        rec = step_update(session, ShipState(t, 5.0 * t, 0.0, 5.0, EAST), [far.advanced(t)])
        probs.append(rec.node_probs["ground_safe_front"])
    assert session.own_state.x == pytest.approx(3100.0)  # the hazard's west face
    assert rec.measurements.ground_front_bin == 0
    assert probs[0] > 0.95
    assert probs[-1] < 0.05
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_side_hazard_belief_decays_only_while_turning_toward_it():
    # A long wall 600 m to starboard.  Turning toward it: the side-clearance
    # belief is non-increasing while the turn classifier is engaged and the
    # lateral distance shrinks.  Holding course: the belief stays at 1.0.
    wall = PolygonMap(rings=(block(650.0, 3000.0, 50.0, 6000.0),)).densified(25.0)
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, NORTH)
    far = ShipState(0.0, 0.0, -50_000.0, 5.0, -math.pi / 2)

    session = init_session(own0, [far], hazard=wall)
    theta, x, y = NORTH, 0.0, 0.0
    turning = []
    for k in range(1, 13):
        t = 10.0 * k
        theta -= math.radians(0.7) * 10.0
        x += 50.0 * math.cos(theta)
        y += 50.0 * math.sin(theta)
        turning.append(step_update(session, ShipState(t, x, y, 5.0, theta), [far.advanced(t)]))

    window = [r for r in turning if r.measurements.course_change is not Turn.STRAIGHT]
    assert len(window) >= 8
    laterals = [r.measurements.ground_sb_bin for r in window]
    assert all(b <= a for a, b in zip(laterals, laterals[1:]))  # closing on the wall
    probs = [r.node_probs["ground_safe_side"] for r in window]
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    control = init_session(own0, [far], hazard=wall)
    held = [control.last_record.node_probs["ground_safe_side"]]
    for k in range(1, 13):
        t = 10.0 * k
        rec = step_update(control, ShipState(t, 0.0, 5.0 * t, 5.0, NORTH), [far.advanced(t)])
        held.append(rec.node_probs["ground_safe_side"])
    assert all(p == pytest.approx(1.0, abs=1e-12) for p in held)


def test_waypoint_bound_turn_scores_navigation_over_collision_avoidance():
    # Scripted head-on approach, then a hard port turn onto a waypoint track.
    # After the turn the collision-avoidance explanation must be dead
    # (< 0.01), the navigation explanation alive (> 0.5), and the
    # waypoint-directed candidates must carry the top normalized confidence.
    priors = IntentionPriors(priority=(0.0, 1.0, 0.0))
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    oncoming = ShipState(0.0, 3600.0, 800.0, 5.0, math.pi)
    wp = Waypoint(2700.0, 400.0)
    session = init_session(own0, [oncoming], priors=priors, waypoint=wp)
    x, y, theta = 0.0, 0.0, EAST
    slew = math.radians(12.0)
    for k in range(1, 48):
        t = 10.0 * k
        if t > 60.0:  # turn to the waypoint after a straight approach leg
            target = math.atan2(wp.y - y, wp.x - x)
            delta = math.atan2(math.sin(target - theta), math.cos(target - theta))
            theta += max(-slew, min(slew, delta))
        x += 50.0 * math.cos(theta)
        y += 50.0 * math.sin(theta)
        rec = step_update(session, ShipState(t, x, y, 5.0, theta), [oncoming.advanced(t)])

    assert rec.node_probs["colav_ok_1"] < 0.01
    assert rec.node_probs["nav_maneuver_ok_1"] > 0.5

    result = score_candidates(session, los_candidates(session.own_state))
    assert not result.all_incompatible
    by_label = {c.label: c.score for c in result.scores}
    toward_wp = {"straight", "port_20", "starboard_20"}
    assert set(by_label) > toward_wp
    lowest_toward = min(by_label[lbl] for lbl in toward_wp)
    highest_other = max(v for lbl, v in by_label.items() if lbl not in toward_wp)
    assert lowest_toward > highest_other


def test_hazard_crossing_candidates_rank_below_compliant_starboard_turn():
    # Two hazard blocks flank the port-side escape lanes of a near head-on
    # meeting.  Candidates whose lookahead pose lands inside a block must
    # score below 0.02 normalized; a compliant starboard turn must clear 0.5.
    priors = IntentionPriors(
        safe_cpa=TruncNorm(180.0, 90.0, 0.0, 1500.0),  # small-craft clearance scale
        priority=(0.0, 1.0, 0.0),
    )
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    oncoming = ShipState(0.0, 2100.0, 30.0, 5.0, math.pi)
    hazard = PolygonMap(
        rings=(block(625.0, 625.0, 275.0, 175.0), block(0.0, 525.0, 300.0, 275.0))
    ).densified(25.0)
    session = init_session(own0, [oncoming], priors=priors, hazard=hazard)
    for k in (1, 2):
        t = 10.0 * k
        step_update(session, ShipState(t, 5.0 * t, 0.0, 5.0, EAST), [oncoming.advanced(t)])

    params = LosParams(
        offsets=tuple(math.radians(d) for d in (120.0, 90.0, 45.0, 0.0, -90.0)),
        turn_rate=math.radians(0.55),
    )
    result = score_candidates(session, los_candidates(session.own_state, params), lookahead=160.0)
    assert not result.all_incompatible
    by_label = {c.label: c for c in result.scores}
    for crosser in ("port_120", "port_90"):
        assert by_label[crosser].measurements.ground_ps_bin == 0  # pose inside a block
        assert by_label[crosser].score < 0.02
    assert by_label["starboard_90"].score > 0.5


def _random_segment_pair(rng):
    out = []
    for _ in range(2):
        x, y = rng.uniform(-2000.0, 2000.0, 2)
        s0 = ShipState(0.0, x, y, rng.uniform(0.05, 12.0), rng.uniform(-math.pi, math.pi))
        out.append((s0, s0.advanced(rng.uniform(2.0, 60.0))))
    return out[0][0], out[0][1], out[1][0], out[1][1]


def _golden_section_cpa(a0, b0, duration):
    """Golden-section minimum of the inter-vessel distance over [0, duration]."""
    d0 = b0.position - a0.position
    w = b0.velocity - a0.velocity

    def f(t):
        return float(np.hypot(*(d0 + w * t)))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, duration
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return min(f(lo), fc, fd, f(hi))


def test_segment_cpa_matches_golden_section_search():
    # 1000 random segment pairs: the closed-form closest approach must agree
    # with a golden-section search over the overlap window to 1e-6 m.
    rng = np.random.default_rng(555)
    for _ in range(1000):
        a0, a1, b0, b1 = _random_segment_pair(rng)
        _, d_opt = segment_cpa(a0, a1, b0, b1)
        d_gold = _golden_section_cpa(a0, b0, min(a1.t - a0.t, b1.t - b0.t))
        assert abs(d_opt - d_gold) <= 1e-6


def test_cpa_search_recovers_planted_closest_approaches():
    # 100 constant-velocity encounters with a planted closest approach at an
    # interior time: the recovered distance must land within
    # relative-speed x sample-interval and the time within one interval.
    rng = np.random.default_rng(808)
    dt, duration = 10.0, 300.0
    ts = [dt * k for k in range(int(duration / dt) + 1)]
    encounters, planted = [], []
    for i in range(100):
        ref0 = ShipState(
            0.0,
            rng.uniform(-500.0, 500.0),
            rng.uniform(-500.0, 500.0),
            rng.uniform(2.0, 10.0),
            rng.uniform(-math.pi, math.pi),
        )
        t_star = rng.uniform(30.0, 270.0)
        d_star = rng.uniform(5.0, 900.0)
        rel_speed = rng.uniform(0.5, 8.0)
        phi = rng.uniform(-math.pi, math.pi)
        w = rel_speed * np.array((math.cos(phi), math.sin(phi)))
        side = 1.0 if rng.random() < 0.5 else -1.0
        offset = d_star * side * np.array((-math.sin(phi), math.cos(phi)))
        # obstacle(t) = reference(t) + offset + w * (t - t_star): the planted
        # miss distance d_star occurs exactly at t_star.
        v_obs = ref0.velocity + w
        p_obs = ref0.position + offset - w * t_star
        obs0 = ShipState(
            0.0,
            float(p_obs[0]),
            float(p_obs[1]),
            float(np.hypot(*v_obs)),
            math.atan2(float(v_obs[1]), float(v_obs[0])),
        )
        encounters.append(
            Encounter(
                reference=tuple(ref0.advanced(t) for t in ts),
                obstacle=tuple(obs0.advanced(t) for t in ts),
                name=f"planted_{i}",
            )
        )
        planted.append((d_star, t_star, rel_speed))

    dcpa, tcpa = find_cpa(encounters)
    assert len(dcpa) == len(tcpa) == 100
    for (d_star, t_star, rel_speed), d_got, t_got in zip(planted, dcpa, tcpa):
        assert abs(d_got - d_star) <= rel_speed * dt
        assert abs(t_got - t_star) <= dt


def test_prior_fit_recovers_planted_clearance_distribution():
    # 258 synthetic overtaking encounters with lateral separations drawn
    # around 808 +/- 430 m: the fitted passing-clearance threshold must come
    # back within 60 m on both the mean and the spread.
    rng = np.random.default_rng(0)
    separations = np.abs(rng.normal(808.0, 430.0, size=258))
    ts = range(0, 330, 10)
    encounters = [
        Encounter(
            reference=tuple(ShipState(float(t), 8.0 * t, 0.0, 8.0, EAST) for t in ts),
            obstacle=tuple(ShipState(float(t), 800.0 + 3.0 * t, float(sep), 3.0, EAST) for t in ts),
            label="overtaking",
            name=f"overtake_{i}",
        )
        for i, sep in enumerate(separations)
    ]
    with warnings.catch_warnings():
        # channels with no samples in this corpus keep their defaults
        warnings.simplefilter("ignore", ExtractionWarning)
        fitted = build_prior_config(encounters, PolygonMap())
    assert fitted.safe_cpa.lo == 0.0 and fitted.safe_cpa.hi == 1500.0
    assert abs(fitted.safe_cpa.mu - 808.0) <= 60.0
    assert abs(fitted.safe_cpa.sigma - 430.0) <= 60.0


def test_threshold_bin_masses_match_adaptive_quadrature():
    # Every threshold distribution on its own channel: masses sum to one
    # within 1e-12 and match adaptive quadrature of the truncated density
    # bin by bin within 1e-9.
    priors = IntentionPriors()
    disc = Discretization()
    channels = [
        (priors.safe_cpa, disc.cpa.bins),
        (priors.safe_front_cross, disc.front_cross.bins),
        (priors.safe_midpoint, disc.midpoint.bins),
        (priors.ample_time, disc.time_to_cpa.bins),
        (priors.safe_ground_side, disc.ground_side.bins),
        (priors.safe_ground_front, disc.ground_front.bins),
    ]
    for tn, bins in channels:
        masses = discretize_truncnorm(tn.mu, tn.sigma, tn.lo, tn.hi, bins)
        assert abs(float(masses.sum()) - 1.0) <= 1e-12
        window = norm.cdf((tn.hi - tn.mu) / tn.sigma) - norm.cdf((tn.lo - tn.mu) / tn.sigma)
        edges = np.linspace(tn.lo, tn.hi, bins + 1)
        for k in range(bins):
            want, _ = integrate.quad(
                lambda x: norm.pdf((x - tn.mu) / tn.sigma) / (tn.sigma * window),
                edges[k],
                edges[k + 1],
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert abs(float(masses[k]) - want) <= 1e-9


def test_step_and_replay_meet_latency_budgets():
    # One update plus scoring the default six-candidate fan must finish in
    # under a second; a 600 s encounter replayed at 5 s steps in under 2 min.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    oncoming = ShipState(0.0, 4000.0, 600.0, 4.0, math.pi)

    session = init_session(own0, [oncoming])
    start = time.perf_counter()
    step_update(session, own0.advanced(5.0), [oncoming.advanced(5.0)])
    result = score_candidates(session, los_candidates(session.own_state))
    single = time.perf_counter() - start
    assert len(result.scores) == 6
    assert single < 1.0

    start = time.perf_counter()
    replay = init_session(own0, [oncoming])
    for k in range(1, 121):
        t = 5.0 * k
        step_update(replay, own0.advanced(t), [oncoming.advanced(t)])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_two_ship_step_meets_latency_budget():
    # Two obstacles at default bins (a 9e6-cell joint): one update plus
    # scoring the default six-candidate fan must finish in under 1.0 s.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 4000.0, 600.0, 4.0, math.pi),
        ShipState(0.0, 2500.0, -3000.0, 5.0, NORTH),
    ]
    session = init_session(own0, obstacles)
    start = time.perf_counter()
    step_update(session, own0.advanced(5.0), [o.advanced(5.0) for o in obstacles])
    result = score_candidates(session, los_candidates(session.own_state))
    single = time.perf_counter() - start
    assert len(result.scores) == 6
    assert single < 1.0


def test_three_ship_step_meets_latency_budget():
    # Three obstacles at default bins (a 1.35e8-cell joint): one update plus
    # scoring the default six-candidate fan must finish in under 1.0 s, both
    # with the course held (K = 0 coupling slices) and on the step after a
    # turn that opens a slice coupling the ships over a frozen held one (K = 1).
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = [
        ShipState(0.0, 4000.0, 600.0, 4.0, math.pi),
        ShipState(0.0, 2500.0, -3000.0, 5.0, NORTH),
        ShipState(0.0, -1500.0, 300.0, 7.0, 0.0),
    ]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t, course in ((5.0, EAST), (20.0, EAST - 0.35)):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, course)
        start = time.perf_counter()
        step_update(session, own, [o.advanced(t) for o in obstacles])
        result = score_candidates(session, los_candidates(session.own_state))
        single = time.perf_counter() - start
        assert len(result.scores) == 6
        assert single < 1.0, (t, single)
    assert session.slice_count == 2


def test_grounding_on_a_warm_coast_index_meets_latency_budget():
    # One pose's grounding on a jagged 1e5-vertex coast, with the map's index
    # already built, must take under 2 ms (the median of 21 poses).
    rng = np.random.default_rng(5)
    xs = np.linspace(-30_000.0, 30_000.0, 100_000)
    shore = 700.0 + 200.0 * np.sin(xs / 1_100.0) + rng.normal(0.0, 6.0, xs.size)
    coast = np.column_stack((xs, shore))
    hazard = PolygonMap(rings=(np.vstack((coast, coast[:1])),))
    reach = max(Discretization().ground_side.upper, Discretization().ground_front.upper)
    grounding_measurements(ShipState(0.0, 0.0, 0.0, 5.0, EAST), hazard, reach=reach)
    times = []
    for x in np.linspace(-25_000.0, 25_000.0, 21):
        pose = ShipState(0.0, float(x), 0.0, 5.0, EAST)
        start = time.perf_counter()
        grounding_measurements(pose, hazard, reach=reach)
        times.append(time.perf_counter() - start)
    assert float(np.median(times)) < 2e-3


def test_importing_the_cli_stays_under_64_mb():
    # The resident high-water mark of a fresh interpreter right after
    # `import shipintent.cli` must stay under 64 MB (numpy alone is most of
    # it).  Linux keeps the larger of a process's own peak and the peak of
    # the image it replaced at exec, so the measured interpreter is started
    # from a bare launcher, not from this test process.
    measure = (
        "import resource, shipintent.cli; "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = run_python("-c", launch, sys.executable, "-c", measure)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout) / 1024.0  # ru_maxrss is in KiB on Linux
    assert peak_mb < 64.0, peak_mb


def test_candidate_scoring_leaves_session_state_untouched():
    # Scoring is a pure query: on 100 random fixtures the session state hash
    # is identical before and after ranking a full candidate fan.
    rng = np.random.default_rng(99)
    hazard = PolygonMap(rings=(block(2500.0, 2500.0, 300.0, 300.0),)).densified(50.0)
    for _ in range(100):
        own0 = ShipState(0.0, 0.0, 0.0, rng.uniform(3.0, 8.0), rng.uniform(-math.pi, math.pi))
        r, ang = rng.uniform(1500.0, 6000.0), rng.uniform(-math.pi, math.pi)
        obs0 = ShipState(
            0.0,
            r * math.cos(ang),
            r * math.sin(ang),
            rng.uniform(1.0, 8.0),
            rng.uniform(-math.pi, math.pi),
        )
        kwargs = {}
        if rng.random() < 0.5:
            yaw = rng.uniform(-math.pi, math.pi)
            radius = rng.uniform(2000.0, 5000.0)
            kwargs["waypoint"] = Waypoint(radius * math.cos(yaw), radius * math.sin(yaw))
        if rng.random() < 0.5:
            kwargs["hazard"] = hazard
        session = init_session(own0, [obs0], **kwargs)
        step_update(session, own0.advanced(10.0), [obs0.advanced(10.0)])
        before = session.state_hash()
        score_candidates(session, los_candidates(session.own_state))
        assert session.state_hash() == before
