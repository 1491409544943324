"""The hazard-map index: radius-bounded grounding bins equal a full scan's.

A session scans only the vertices within ``reach`` of a pose, the larger of
its two grounding channels' upper edges.  Every distance at or beyond a
channel's upper edge lands in the last bin, so the bins must equal those of
the brute-force ``sector_ground_distance`` scan over every vertex, whatever
the map, the pose and the discretization.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shipintent.discretize import Channel, Discretization, IntentionPriors, TruncNorm, real_to_bin
from shipintent.geometry import (
    GeometryParams,
    PolygonMap,
    ShipState,
    grounding_measurements,
    project_local,
    project_rings,
    sector_ground_distance,
)
from shipintent.runtime import init_session

GEOM = GeometryParams()
DISC = Discretization()
WIDE = replace(DISC, ground_side=Channel(3000.0), ground_front=Channel(3000.0))
PRIORS = {
    DISC: IntentionPriors(),
    WIDE: IntentionPriors(
        safe_ground_side=TruncNorm(1800.0, 500.0, 0.0, 3000.0),
        safe_ground_front=TruncNorm(2000.0, 500.0, 0.0, 3000.0),
    ),
}
SECTOR_NODES = ("meas_ground_sb", "meas_ground_ps", "meas_ground_front")


def reach_of(disc):
    return max(disc.ground_side.upper, disc.ground_front.upper)


def closed(pts):
    return np.vstack((pts, pts[:1]))


def jagged_ring(rng, n, cx, cy, radius, jitter):
    """A star-shaped ring of ``n`` vertices whose radius wanders by ``jitter``."""
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = radius + rng.uniform(-jitter, jitter, n)
    return closed(np.column_stack((cx + r * np.cos(theta), cy + r * np.sin(theta))))


def sectors(pose):
    chi, half = pose.cog, GEOM.front_half_angle
    return ((chi - math.pi, chi - half), (chi + half, chi + math.pi), (chi - half, chi + half))


def brute_bins(pose, pmap, disc):
    return tuple(
        real_to_bin(sector_ground_distance(pose.x, pose.y, pose.cog, pmap, lo, hi), disc.channel(node))
        for (lo, hi), node in zip(sectors(pose), SECTOR_NODES)
    )


def session_bins(pose, pmap, disc):
    far = ShipState(pose.t, pose.x + 9000.0, pose.y + 9000.0, 4.0, 1.0)
    session = init_session(pose, [far], priors=PRIORS[disc], disc=disc, hazard=pmap)
    meas = session.last_record.measurements
    return meas.ground_sb_bin, meas.ground_ps_bin, meas.ground_front_bin


# -- the box query ---------------------------------------------------------------


def test_near_returns_exactly_the_vertices_in_the_box():
    rng = np.random.default_rng(3)
    pmap = PolygonMap(rings=(jagged_ring(rng, 3000, 0.0, 0.0, 2000.0, 600.0),
                             jagged_ring(rng, 500, 500.0, -4000.0, 300.0, 50.0)))
    verts = pmap.vertices()
    for r in (0.0, 1.0, 250.0, 800.0, 3000.0, 1e9):
        for _ in range(20):
            x, y = rng.uniform(-5000.0, 3000.0, 2)
            want = verts[(np.abs(verts[:, 0] - x) <= r) & (np.abs(verts[:, 1] - y) <= r)]
            got = pmap.near(x, y, r)
            assert got.shape == want.shape
            assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])
    assert PolygonMap().near(0.0, 0.0, 1e9).shape == (0, 2)


def test_index_is_built_once_per_map(monkeypatch):
    pmap = PolygonMap(rings=(jagged_ring(np.random.default_rng(4), 200, 0.0, 0.0, 900.0, 100.0),))
    calls = []
    original = PolygonMap.vertices

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PolygonMap, "vertices", counting)
    for k in range(25):
        state = ShipState(0.0, 10.0 * k, -50.0, 5.0, 0.3 * k)
        grounding_measurements(state, pmap, GEOM, reach_of(DISC))
    assert calls == [pmap]


# -- exactness -------------------------------------------------------------------


def test_indexed_grounding_equals_the_full_scan_on_seeded_poses():
    # 10 000 poses over four maps: every distance below reach is the full
    # scan's to the bit, every other one is at least reach, so the bins of
    # both discretizations agree.
    rng = np.random.default_rng(2024)
    maps = [
        PolygonMap(rings=(jagged_ring(rng, 2000, 0.0, 0.0, 1500.0, 400.0),)),
        PolygonMap(rings=(jagged_ring(rng, 800, 0.0, 0.0, 600.0, 300.0),
                          jagged_ring(rng, 800, 2500.0, 300.0, 700.0, 200.0))),
        PolygonMap(rings=(closed(np.array([(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)])),)),
        PolygonMap(rings=(jagged_ring(rng, 1500, 0.0, 0.0, 3000.0, 1500.0),)),
    ]
    checked = unsaturated = 0
    for pmap in maps:
        for _ in range(2500):
            x, y = rng.uniform(-3500.0, 4000.0, 2)
            pose = ShipState(0.0, float(x), float(y), 5.0, float(rng.uniform(0.0, 2.0 * math.pi)))
            full = grounding_measurements(pose, pmap, GEOM)
            for disc in (DISC, WIDE):
                reach = reach_of(disc)
                indexed = grounding_measurements(pose, pmap, GEOM, reach)
                for got, want, node in zip(indexed, full, SECTOR_NODES):
                    if want < reach:
                        assert got == want
                    else:
                        assert got >= reach
                    channel = disc.channel(node)
                    assert real_to_bin(got, channel) == real_to_bin(want, channel)
                    checked += 1
                    unsaturated += real_to_bin(want, channel) < channel.bins - 1
    assert checked == 60_000
    assert unsaturated > 10_000  # most poses see the coast inside the channels


@st.composite
def map_and_pose(draw):
    disc = draw(st.sampled_from((DISC, WIDE)))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("empty", "single", "jagged", "edges")))
    x = draw(st.floats(-5000.0, 5000.0))
    y = draw(st.floats(-5000.0, 5000.0))
    chi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    pose = ShipState(0.0, x, y, 5.0, chi)
    rng = np.random.default_rng(seed)
    if kind == "empty":
        rings = ()
    elif kind == "single":
        n = draw(st.integers(3, 8))
        cx, cy = np.array((x, y)) + rng.uniform(-2500.0, 2500.0, 2)
        rings = (jagged_ring(rng, n, cx, cy, rng.uniform(5.0, 400.0), 4.0),)
    elif kind == "jagged":
        n = draw(st.integers(1000, 10_000))
        cx, cy = np.array((x, y)) + rng.uniform(-2000.0, 2000.0, 2)
        rings = (jagged_ring(rng, n, cx, cy, rng.uniform(300.0, 2500.0), rng.uniform(0.0, 600.0)),)
    else:
        # vertices at exactly reach, each upper edge and each last-bin edge
        # from the pose, on the axes and at random bearings
        channels = (disc.ground_side, disc.ground_front)
        dists = sorted({reach_of(disc)} | {c.upper for c in channels} | {c.upper - c.width for c in channels})
        pts = []
        for d in dists:
            for ang in (0.0, math.pi / 2, math.pi, -math.pi / 2, *rng.uniform(-math.pi, math.pi, 6)):
                pts.append((x + d * math.cos(ang), y + d * math.sin(ang)))
            pts.extend([(x + d, y + d), (x - d, y + d)])
        rings = (closed(np.array(pts)),)
    return disc, pose, PolygonMap(rings=rings)


@settings(max_examples=80, deadline=None)
@given(map_and_pose())
def test_session_grounding_bins_equal_the_brute_scan(case):
    disc, pose, pmap = case
    assert session_bins(pose, pmap, disc) == brute_bins(pose, pmap, disc)


def test_reach_follows_the_discretization():
    # A vertex 1500 m dead ahead saturates the default 800 m front channel
    # but sits mid-channel on a 3000 m one: the session must still see it.
    pose = ShipState(0.0, 0.0, 0.0, 5.0, 0.0)
    pmap = PolygonMap(rings=(closed(np.array([(1500.0, 0.0), (1510.0, 1.0), (1510.0, -1.0)])),))
    assert session_bins(pose, pmap, DISC)[2] == DISC.ground_front.bins - 1
    assert session_bins(pose, pmap, WIDE)[2] == 5
    assert session_bins(pose, pmap, WIDE) == brute_bins(pose, pmap, WIDE)


# -- vectorized projection ----------------------------------------------------------


def test_projection_is_bitwise_the_per_vertex_projection():
    rng = np.random.default_rng(8)
    geo_rings = tuple(
        np.column_stack((rng.uniform(-70.0, 70.0, n), rng.uniform(-179.0, 179.0, n)))
        for n in (5, 37, 400)
    )
    for origin in ((59.0, 10.5), (-33.9, 151.2), (0.0, 0.0), (71.2, -179.9)):
        got = project_rings(geo_rings, origin)
        for ring, xy in zip(geo_rings, got):
            want = np.array([project_local(lat, lon, origin) for lat, lon in ring])
            assert np.array_equal(xy, want)
        moved = PolygonMap(rings=got, geo_rings=geo_rings).to_origin(origin)
        assert all(np.array_equal(a, b) for a, b in zip(moved.rings, got))
