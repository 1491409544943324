"""Corpus extraction: clearance scans, CPA refinement, and prior fitting."""

import math
import warnings

import numpy as np
import pytest

from shipintent.discretize import Discretization
from shipintent.extract import (
    Encounter,
    ExtractionError,
    ExtractionWarning,
    build_prior_config,
    collect_samples,
    extract_corpus,
    find_cpa,
    find_dist2grd_cpa,
    find_isdf_vals,
    fit_truncnorm,
    priors_from_result,
    result_from_samples,
)
from shipintent.geometry import PolygonMap, ShipState, segment_cpa
from helpers import square_ring, straight_track

EAST, NORTH, WEST, SOUTH = 0.0, math.pi / 2, math.pi, -math.pi / 2
EMPTY_MAP = PolygonMap()


def encounter(ref, obs, label=None, name="enc"):
    return Encounter(reference=tuple(ref), obstacle=tuple(obs), label=label, name=name)


def crossing_ahead(closest=800.0, n=41, dt=10.0):
    """Obstacle cuts south-to-north ``closest`` m ahead of a holding vessel."""
    ref = straight_track((0.0, 0.0), EAST, 0.0, n=n, dt=dt)
    mid = (n // 2) * dt
    obs = [
        ShipState(t, closest, 4.0 * (t - mid), 4.0, NORTH)
        for t in np.arange(0.0, n * dt, dt)
    ]
    return encounter(ref, obs, label="crossing")


# -- Encounter validation ------------------------------------------------------


def test_encounter_needs_two_samples_per_track():
    track = straight_track((0.0, 0.0), EAST, 5.0, n=5)
    with pytest.raises(ExtractionError, match="2 samples"):
        encounter(track[:1], track)


def test_encounter_timestamps_must_increase():
    track = straight_track((0.0, 0.0), EAST, 5.0, n=4)
    jumbled = (track[0], track[2], track[1], track[3])
    with pytest.raises(ExtractionError, match="strictly increase"):
        encounter(jumbled, track)


def test_encounter_tracks_must_overlap_in_time():
    a = straight_track((0.0, 0.0), EAST, 5.0, n=4, dt=10.0)
    b = straight_track((0.0, 500.0), EAST, 5.0, t0=1000.0, n=4, dt=10.0)
    with pytest.raises(ExtractionError, match="overlap"):
        encounter(a, b)


def test_encounter_label_vocabulary():
    track = straight_track((0.0, 0.0), EAST, 5.0, n=4)
    other = straight_track((0.0, 300.0), EAST, 5.0, n=4)
    with pytest.raises(ExtractionError, match="label"):
        encounter(track, other, label="meeting")
    assert encounter(track, other, label="head-on").duration == 30.0


# -- front-sector clearances (crossing corpus) ----------------------------------


def test_isdf_dead_ahead_crossing():
    vals = find_isdf_vals([crossing_ahead(closest=800.0)])
    assert len(vals) == 1
    assert vals[0] == pytest.approx(800.0, abs=1e-9)


def test_isdf_abeam_obstacle_contributes_nothing():
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=20)
    obs = [ShipState(s.t, s.x, s.y + 300.0, 5.0, EAST) for s in ref]  # locked abeam
    vals = find_isdf_vals([encounter(ref, obs, label="crossing")])
    assert vals == []


def test_isdf_requires_crossing_label():
    enc = crossing_ahead()
    bad = Encounter(enc.reference, enc.obstacle, label="head-on")
    with pytest.raises(ExtractionError, match="crossing"):
        find_isdf_vals([bad])


def test_isdf_matches_brute_force_scan():
    rng = np.random.default_rng(53)
    gate = math.cos(math.pi / 8.0)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        ref = straight_track(tuple(rng.uniform(-2000, 2000, 2)), rng.uniform(0, 2 * math.pi),
                             rng.uniform(1, 8), n=n, dt=10.0)
        obs = straight_track(tuple(rng.uniform(-2000, 2000, 2)), rng.uniform(0, 2 * math.pi),
                             rng.uniform(1, 8), n=n, dt=10.0)
        got = find_isdf_vals([encounter(ref, obs, label="crossing")])
        best = math.inf
        for r, o in zip(ref, obs):
            rel = o.position - r.position
            dist = float(np.hypot(*rel))
            if dist > 0.0 and float(r.heading @ rel) / dist > gate:
                best = min(best, dist)
        want = [best] if math.isfinite(best) else []
        assert got == pytest.approx(want)


# -- closest approach ---------------------------------------------------------------


def test_cpa_parallel_constant_separation():
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=10)
    obs = straight_track((0.0, 700.0), EAST, 5.0, n=10)
    dcpa, tcpa = find_cpa([encounter(ref, obs)])
    assert dcpa == [pytest.approx(700.0)]
    assert tcpa == [pytest.approx(0.0)]


def test_cpa_planted_meeting_point():
    # both tracks pass through (600, 0); reference arrives at t = 120
    dt = 10.0
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=30, dt=dt)
    obs = [ShipState(t, 600.0, 4.0 * (t - 120.0), 4.0, NORTH) for t in np.arange(0.0, 300.0, dt)]
    dcpa, tcpa = find_cpa([encounter(ref, obs)])
    rel_speed = math.hypot(5.0, 4.0)
    assert dcpa[0] <= rel_speed * dt
    assert abs(tcpa[0] - 120.0) <= dt


def test_cpa_planted_meetings_across_geometries():
    rng = np.random.default_rng(59)
    dt = 10.0
    for _ in range(25):
        meet = rng.uniform(-1000.0, 1000.0, size=2)
        t_meet = float(rng.uniform(40.0, 260.0))
        n = 31
        courses = rng.uniform(0.0, 2 * math.pi, size=2)
        sogs = rng.uniform(2.0, 8.0, size=2)
        tracks = []
        for cog, sog in zip(courses, sogs):
            head = np.array((math.cos(cog), math.sin(cog)))
            start = meet - head * sog * t_meet
            tracks.append([
                ShipState(k * dt, *(start + head * sog * k * dt), sog, cog)
                for k in range(n)
            ])
        rel_speed = float(np.hypot(*(
            sogs[0] * np.array((math.cos(courses[0]), math.sin(courses[0])))
            - sogs[1] * np.array((math.cos(courses[1]), math.sin(courses[1])))
        )))
        if rel_speed < 0.5:
            continue
        dcpa, tcpa = find_cpa([encounter(tracks[0], tracks[1])])
        assert dcpa[0] <= rel_speed * dt + 1e-9
        assert abs(tcpa[0] - t_meet) <= dt + 1e-9


def running_minimum_cpa(encounters):
    """Reference scan: refine every new running minimum, keep the last."""
    dcpa_vals, tcpa_vals = [], []
    for enc in encounters:
        pairs = enc.pairs
        t0 = pairs[0][0].t
        min_dist = math.inf
        dcpa = math.inf
        tcpa = math.inf
        for i, (ref, obs) in enumerate(pairs):
            dist = float(np.hypot(*(obs.position - ref.position)))
            if dist >= min_dist:
                continue
            min_dist = dist
            if i + 1 < len(pairs):
                ref_next, obs_next = pairs[i + 1]
                t_opt, d_opt = segment_cpa(ref, ref_next, obs, obs_next)
            else:
                t_opt, d_opt = 0.0, dist
            if d_opt < dist:
                dcpa = d_opt
                tcpa = ref.t - t0 + t_opt
            else:
                dcpa = min_dist
                tcpa = ref.t - t0
        if math.isfinite(dcpa):
            dcpa_vals.append(dcpa)
            tcpa_vals.append(tcpa)
    return dcpa_vals, tcpa_vals


def test_cpa_is_bit_identical_to_the_running_minimum_scan():
    rng = np.random.default_rng(71)

    def jittered(ts):
        start = rng.uniform(-3000.0, 3000.0, 2)
        cog, sog = float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(0.5, 9.0))
        head = np.array((math.cos(cog), math.sin(cog)))
        return [ShipState(float(t), *(start + head * sog * t + rng.normal(0.0, 30.0, 2)), sog, cog)
                for t in ts]

    def sampled_distances(enc):
        return [math.hypot(o.x - r.x, o.y - r.y) for r, o in enc.pairs]

    jitter = []
    for k in range(40):
        ts = np.cumsum(rng.uniform(1.0, 20.0, size=int(rng.integers(2, 30))))
        jitter.append(encounter(jittered(ts), jittered(ts), name=f"jitter{k}"))
    # integer offsets of length exactly 500 at two or more fixes tie the minimum
    offsets = np.array([(300, 400), (-400, 300), (0, -500), (500, 0), (700, 240), (-1200, 500)])
    ties = []
    for k in range(20):
        n = int(rng.integers(3, 15))
        ref_xy = np.cumsum(rng.integers(-80, 80, size=(n, 2)), axis=0)
        off = offsets[rng.integers(0, len(offsets), size=n)]
        off[rng.choice(n, size=2, replace=False)] = offsets[k % 4]
        ref = [ShipState(10.0 * i, float(x), float(y), 5.0, EAST) for i, (x, y) in enumerate(ref_xy)]
        obs = [ShipState(10.0 * i, float(x), float(y), 4.0, NORTH)
               for i, (x, y) in enumerate(ref_xy + off)]
        ties.append(encounter(ref, obs, name=f"tie{k}"))
    # converging tracks cut off before they meet: the last fix is the closest
    last = []
    for k in range(10):
        n = int(rng.integers(2, 12))
        ref = straight_track((0.0, 0.0), EAST, float(rng.uniform(1.0, 8.0)), n=n)
        obs = straight_track((3000.0, float(rng.uniform(-500.0, 500.0))), WEST,
                             float(rng.uniform(1.0, 8.0)), n=n)
        last.append(encounter(ref, obs, name=f"last{k}"))
    assert all(sampled_distances(enc).count(500.0) >= 2 for enc in ties)
    assert all(np.argmin(sampled_distances(enc)) == len(enc.pairs) - 1 for enc in last)

    corpus = jitter + ties + last
    assert find_cpa(corpus) == running_minimum_cpa(corpus)
    for enc in corpus:
        assert find_cpa([enc]) == running_minimum_cpa([enc]), enc.name


def test_cpa_refinement_never_exceeds_discrete_minimum():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        ref = straight_track(tuple(rng.uniform(-3000, 3000, 2)), rng.uniform(0, 2 * math.pi),
                             rng.uniform(0.5, 9), n=n, dt=10.0)
        obs = straight_track(tuple(rng.uniform(-3000, 3000, 2)), rng.uniform(0, 2 * math.pi),
                             rng.uniform(0.5, 9), n=n, dt=10.0)
        enc = encounter(ref, obs)
        dcpa, tcpa = find_cpa([enc])
        discrete = min(
            float(np.hypot(*(o.position - r.position))) for r, o in zip(ref, obs)
        )
        assert dcpa[0] <= discrete + 1e-9
        assert 0.0 <= tcpa[0] <= enc.duration + 10.0


# -- hazard clearances at CPA -----------------------------------------------------


def test_dist2grd_port_hazard_at_cpa():
    # closest approach happens at t=100 near x=500; a hazard vertex sits 400 m
    # to port (north) of the reference ship there
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=21, dt=10.0)
    obs = [ShipState(t, 500.0, 4.0 * (t - 100.0) + 30.0, 4.0, NORTH)
           for t in np.arange(0.0, 210.0, 10.0)]
    ring = square_ring(550.0, 450.0, 50.0)  # nearest corner (500, 400): 400 m north
    pmap = PolygonMap(rings=(ring,))
    sdgs, sdgf = find_dist2grd_cpa([encounter(ref, obs)], pmap, 2000.0)
    assert sdgs == [pytest.approx(400.0)]
    assert sdgf == []


def test_dist2grd_open_water_excluded():
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=10)
    obs = straight_track((0.0, 600.0), EAST, 5.0, n=10)
    far = PolygonMap(rings=(square_ring(0.0, 9000.0, 200.0),))
    sdgs, sdgf = find_dist2grd_cpa([encounter(ref, obs)], far, 2000.0)
    assert sdgs == [] and sdgf == []
    assert find_dist2grd_cpa([encounter(ref, obs)], EMPTY_MAP, 2000.0) == ([], [])


def test_dist2grd_box_follows_dist_thresh():
    # Parallel tracks 600 m apart: the first fix is the closest, at (0, 0).
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=10)
    obs = straight_track((0.0, 600.0), EAST, 5.0, n=10)
    enc = encounter(ref, obs)

    def lone_vertex(x, y):
        return PolygonMap(rings=(np.array([(x, y), (x, y)]),))

    # 12 km to starboard: outside a 10 km box, inside a 15 km threshold
    abeam = lone_vertex(0.0, -12_000.0)
    assert find_dist2grd_cpa([enc], abeam, 15_000.0) == ([12_000.0], [])
    assert find_dist2grd_cpa([enc], abeam, 2000.0) == ([], [])
    beyond = lone_vertex(30_000.0, 0.0)
    assert find_dist2grd_cpa([enc], beyond, 20_000.0) == ([], [])
    assert find_dist2grd_cpa([enc], beyond, 40_000.0) == ([], [30_000.0])


def test_dist2grd_infinite_thresh_skips_empty_sectors():
    # With no limit, a lone vertex 30 km dead ahead still leaves both side
    # sectors empty: they count as no clearance, not as an infinite one,
    # and the samples still fit.
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=10)
    obs = straight_track((0.0, 600.0), EAST, 5.0, n=10)
    beyond = PolygonMap(rings=(np.array([(30_000.0, 0.0), (30_000.0, 0.0)]),))
    assert find_dist2grd_cpa([encounter(ref, obs)], beyond, math.inf) == ([], [30_000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        samples = collect_samples(small_corpus(), beyond, dist_thresh=math.inf)
        result = result_from_samples(samples)
    assert all(math.isfinite(v) for v in result.sdgs_vals + result.sdgf_vals)
    assert result.sample_counts["safe_ground_front"] == len(samples["safe_ground_front"])


def test_dist2grd_front_sector_hazard():
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=5, dt=10.0)
    obs = straight_track((0.0, 100.0), EAST, 5.0, n=5, dt=10.0)  # CPA at t=0, x=0
    ring = square_ring(900.0, 50.0, 50.0)  # corner (850, 0) sits dead ahead
    sdgs, sdgf = find_dist2grd_cpa([encounter(ref, obs)], PolygonMap(rings=(ring,)), 2000.0)
    assert sdgf == [pytest.approx(850.0)]


# -- fitting -------------------------------------------------------------------------


def test_fit_two_samples_hand_computed():
    mu, sigma = fit_truncnorm([100.0, 300.0], 0.0, 1500.0)
    assert mu == pytest.approx(200.0)
    assert sigma == pytest.approx(math.sqrt(2.0) * 100.0, abs=1e-9)


def test_fit_clamps_into_window():
    mu, _ = fit_truncnorm([-50.0, 2000.0], 0.0, 1500.0)
    assert mu == pytest.approx((0.0 + 1500.0) / 2.0)


def test_fit_degenerate_samples_floor_sigma():
    with pytest.warns(ExtractionWarning, match="degenerate"):
        mu, sigma = fit_truncnorm([400.0, 400.0, 400.0], 0.0, 1000.0)
    assert mu == 400.0
    assert sigma == pytest.approx(10.0)


def test_fit_needs_two_samples():
    with pytest.raises(ExtractionError):
        fit_truncnorm([5.0], 0.0, 100.0)
    with pytest.raises(ExtractionError):
        fit_truncnorm([1.0, 2.0], 10.0, 10.0)


def test_fit_recovers_planted_parameters():
    rng = np.random.default_rng(67)
    draws = np.clip(rng.normal(700.0, 180.0, size=4000), 0.0, 1500.0)
    mu, sigma = fit_truncnorm(draws, 0.0, 1500.0)
    assert mu == pytest.approx(700.0, abs=15.0)
    assert sigma == pytest.approx(180.0, abs=15.0)


# -- corpus assembly ------------------------------------------------------------------


def head_on_pair(sep, name):
    ref = straight_track((0.0, -1000.0), NORTH, 5.0, n=41, dt=10.0)
    obs = [ShipState(t, sep, 1000.0 - 5.0 * t, 5.0, SOUTH) for t in np.arange(0.0, 410.0, 10.0)]
    return encounter(ref, obs, label="head-on", name=name)


def overtaking_pair(sep, name):
    ref = straight_track((0.0, 0.0), EAST, 8.0, n=41, dt=10.0)
    obs = straight_track((800.0, sep), EAST, 3.0, n=41, dt=10.0)
    return encounter(ref, obs, label="overtaking", name=name)


def small_corpus():
    return [
        head_on_pair(60.0, "ho1"),
        head_on_pair(140.0, "ho2"),
        overtaking_pair(200.0, "ot1"),
        overtaking_pair(380.0, "ot2"),
        crossing_ahead(closest=700.0),
        crossing_ahead(closest=1100.0),
    ]


def test_collect_samples_routes_by_label():
    samples = collect_samples(small_corpus(), EMPTY_MAP)
    assert samples["safe_cpa"] == pytest.approx([200.0, 380.0], abs=1.0)
    # head-on midpoint clearances are half the meeting distance
    assert samples["safe_midpoint"] == pytest.approx([30.0, 70.0], abs=1.0)
    assert samples["safe_front_cross"] == pytest.approx([700.0, 1100.0], abs=1e-6)
    assert len(samples["ample_time"]) == 6
    assert samples["safe_ground_side"] == []


def test_midpoint_halving_commutes_with_fitting():
    dcpa, _ = find_cpa([head_on_pair(60.0, "a"), head_on_pair(140.0, "b")])
    mu_full, sd_full = fit_truncnorm(dcpa, 0.0, 1200.0)
    mu_half, sd_half = fit_truncnorm([d / 2.0 for d in dcpa], 0.0, 600.0)
    assert mu_half == pytest.approx(mu_full / 2.0, abs=1e-9)
    assert sd_half == pytest.approx(sd_full / 2.0, abs=1e-9)


def test_unlabeled_encounters_warn_but_feed_timing():
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=10)
    obs = straight_track((0.0, 900.0), EAST, 5.0, n=10)
    with pytest.warns(ExtractionWarning, match="unlabeled"):
        samples = collect_samples([encounter(ref, obs)], EMPTY_MAP)
    assert len(samples["ample_time"]) == 1
    assert samples["safe_cpa"] == []


def test_collect_samples_takes_labelled_values_from_one_cpa_pass():
    unlabeled = encounter(straight_track((0.0, 0.0), EAST, 5.0, n=10),
                          straight_track((0.0, 900.0), EAST, 5.0, n=10), name="u")
    corpus = [overtaking_pair(380.0, "ot1"), head_on_pair(140.0, "ho1"),
              crossing_ahead(closest=700.0), unlabeled, head_on_pair(60.0, "ho2"),
              overtaking_pair(200.0, "ot2")]
    with pytest.warns(ExtractionWarning, match="unlabeled"):
        samples = collect_samples(corpus, EMPTY_MAP)
    overtaking = [enc for enc in corpus if enc.label == "overtaking"]
    head_on = [enc for enc in corpus if enc.label == "head-on"]
    assert samples["safe_cpa"] == find_cpa(overtaking)[0]
    assert samples["safe_midpoint"] == [d / 2.0 for d in find_cpa(head_on)[0]]
    assert (samples["dcpa"], samples["ample_time"]) == find_cpa(corpus)


def test_extraction_is_deterministic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        a = extract_corpus(small_corpus(), EMPTY_MAP)
        b = extract_corpus(small_corpus(), EMPTY_MAP)
    assert a == b


def test_priors_fall_back_per_node_with_warning():
    corpus = [head_on_pair(60.0, "a"), head_on_pair(140.0, "b")]
    with pytest.warns(ExtractionWarning, match="safe_cpa"):
        priors = build_prior_config(corpus, EMPTY_MAP)
    # no overtaking data: the stock closest-approach prior survives
    assert priors.safe_cpa.mu == 808.0 and priors.safe_cpa.sigma == 430.0
    # but the head-on corpora re-fit the midpoint threshold
    assert priors.safe_midpoint.mu == pytest.approx(50.0, abs=1.0)
    assert priors.safe_midpoint.hi == Discretization().midpoint.upper


def test_result_validation_rejects_bad_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        samples = collect_samples(small_corpus(), EMPTY_MAP)
    samples["dcpa"] = [-1.0, 5.0]
    with pytest.raises(ExtractionError, match="finite and non-negative"):
        result_from_samples(samples)


def test_report_mentions_counts_and_fallbacks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        result = extract_corpus(small_corpus(), EMPTY_MAP)
    text = result.report()
    assert "safe_midpoint" in text
    assert "2 samples" in text
    assert "kept default prior" in text  # the hazard clearances had no land


def test_priors_from_result_keeps_base_binaries():
    from shipintent.discretize import IntentionPriors

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        result = extract_corpus(small_corpus(), EMPTY_MAP)
        base = IntentionPriors(unmodeled=0.07)
        priors = priors_from_result(result, base=base)
    assert priors.unmodeled == 0.07


# -- timestamp pairing -----------------------------------------------------------------


def head_on_reporting_every(obs_dt, obs_t0=0.0):
    """Head-on pass 100 m abeam at t = 300; the obstacle reports every ``obs_dt`` s."""
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=61, dt=10.0)
    obs = [
        ShipState(t, 3000.0 - 5.0 * t, 100.0, 5.0, WEST)
        for t in np.arange(obs_t0, 601.0, obs_dt)
    ]
    return ref, obs


def test_cpa_pairs_fixes_by_timestamp_not_sample_index():
    ref, obs = head_on_reporting_every(2.0)
    enc = encounter(ref, obs)
    dcpa, tcpa = find_cpa([enc])
    assert dcpa == [pytest.approx(100.0)]
    assert tcpa == [pytest.approx(300.0)]
    assert len(enc.pairs) == len(ref)
    assert all(r.t == o.t for r, o in enc.pairs)


def test_encounter_needs_two_shared_timestamps():
    ref, obs = head_on_reporting_every(10.0, obs_t0=5.0)
    with pytest.raises(ExtractionError, match="share only 0 timestamps"):
        encounter(ref, obs)


def test_cpa_time_counts_from_the_first_shared_fix():
    # The reference is tracked from t = 0, the obstacle only from t = 300 s;
    # they pass 100 m apart at t = 400 s, 100 s into the encounter.
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=61, dt=10.0)
    obs = [
        ShipState(t, 2000.0 + 5.0 * (400.0 - t), 100.0, 5.0, WEST)
        for t in np.arange(300.0, 601.0, 10.0)
    ]
    enc = encounter(ref, obs)
    assert enc.pairs[0][0].t == 300.0
    dcpa, tcpa = find_cpa([enc])
    assert dcpa == [pytest.approx(100.0)]
    assert tcpa == [pytest.approx(100.0)]
