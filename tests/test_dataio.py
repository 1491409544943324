"""File-format boundary: corpus CSV in, GeoJSON maps in, run records out."""

import json
import math
import warnings

import numpy as np
import pytest

from shipintent.dataio import (
    AisRecord,
    CORPUS_COLUMNS,
    DataError,
    DataWarning,
    RunRecord,
    SchemaError,
    compass_to_math,
    export_run,
    load_ais_csv,
    load_map_geojson,
    load_run,
    math_to_compass,
    run_columns,
)
from shipintent.geometry import PolygonMap, ShipState, angle_diff, local_to_geo, project_local
from shipintent.runtime import init_session, score_candidates, step_update
from helpers import CORPUS_HEADER, corpus_rows, square_ring, straight_track, write_corpus, write_labels

ORIGIN = (59.0, 10.5)


# -- angle frame conversions ---------------------------------------------------


def test_compass_to_math_cardinal_points():
    assert compass_to_math(0.0) == pytest.approx(math.pi / 2)  # north
    assert compass_to_math(90.0) == pytest.approx(0.0)  # east
    assert compass_to_math(180.0) == pytest.approx(3 * math.pi / 2)  # south
    assert compass_to_math(270.0) == pytest.approx(math.pi)  # west


def test_compass_math_round_trip():
    for deg in range(0, 360, 7):
        assert math_to_compass(compass_to_math(float(deg))) == pytest.approx(deg, abs=1e-9)
    for rad in np.linspace(0.0, 2 * math.pi, 37)[:-1]:
        back = compass_to_math(math_to_compass(float(rad)))
        assert abs(angle_diff(back, float(rad))) < 1e-9


def test_ais_record_validation():
    good = dict(vessel_id="123", timestamp=0.0, lat=59.0, lon=10.5, sog=5.0, cog=45.0)
    AisRecord(**good)
    for field, value in [
        ("vessel_id", ""),
        ("timestamp", math.nan),
        ("lat", 90.5),
        ("lon", -180.5),
        ("sog", -0.1),
        ("cog", 360.0),
    ]:
        with pytest.raises(DataError):
            AisRecord(**{**good, field: value})


# -- corpus CSV ingestion ------------------------------------------------------


def make_corpus(tmp_path, name="corpus.csv"):
    """One crossing encounter, reference starting exactly at the origin."""
    ref = straight_track((0.0, 0.0), math.radians(40.0), 6.2, n=6)
    obs = straight_track((1500.0, 800.0), math.radians(-100.0), 4.0, n=6)
    rows = corpus_rows("e1", "reference", "111", ORIGIN, ref)
    rows += corpus_rows("e1", "obstacle", "222", ORIGIN, obs)
    return write_corpus(tmp_path / name, rows), ref, obs


def test_corpus_round_trip(tmp_path):
    path, ref, obs = make_corpus(tmp_path)
    write_labels(tmp_path / "corpus.labels.csv", {"e1": "crossing"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        encounters = load_ais_csv(path)
    assert len(encounters) == 1
    enc = encounters[0]
    assert enc.name == "e1"
    assert enc.label == "crossing"
    assert enc.origin == pytest.approx(ORIGIN, abs=1e-7)
    for loaded, truth in zip(enc.reference + enc.obstacle, ref + obs, strict=True):
        assert loaded.t == truth.t
        assert loaded.x == pytest.approx(truth.x, abs=3e-3)
        assert loaded.y == pytest.approx(truth.y, abs=3e-3)
        assert loaded.sog == pytest.approx(truth.sog, abs=6e-4)
        assert abs(angle_diff(loaded.cog, truth.cog)) < 2e-6


def test_corpus_columns_match_helper_header():
    assert tuple(CORPUS_HEADER) == CORPUS_COLUMNS


def test_header_only_corpus_is_empty(tmp_path):
    path = write_corpus(tmp_path / "empty.csv", [])
    assert load_ais_csv(path) == []


def test_missing_columns_and_empty_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("encounter_id,role,mmsi,timestamp,lat,lon,sog_mps\n")
    with pytest.raises(SchemaError, match="missing columns"):
        load_ais_csv(bad)
    empty = tmp_path / "none.csv"
    empty.write_text("")
    with pytest.raises(SchemaError, match="header row required"):
        load_ais_csv(empty)


def test_out_of_order_rows_warn_and_resort(tmp_path):
    path, ref, _ = make_corpus(tmp_path)
    lines = path.read_text().splitlines()
    lines[1], lines[3] = lines[3], lines[1]  # shuffle two reference reports
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(DataWarning, match="reference: timestamps out of order"):
        [enc] = load_ais_csv(path)
    times = [s.t for s in enc.reference]
    assert times == sorted(times)
    assert len(times) == len(ref)


def test_duplicate_timestamps_dropped_with_warning(tmp_path):
    ref = straight_track((0.0, 0.0), 0.3, 5.0, n=5)
    obs = straight_track((900.0, 0.0), 2.0, 5.0, n=5)
    rows = corpus_rows("e1", "reference", "111", ORIGIN, ref)
    rows.insert(3, list(rows[2]))  # repeat one report in place
    rows += corpus_rows("e1", "obstacle", "222", ORIGIN, obs)
    path = write_corpus(tmp_path / "dup.csv", rows)
    with pytest.warns(DataWarning, match="dropped 1 duplicate-timestamp"):
        [enc] = load_ais_csv(path)
    assert len(enc.reference) == len(ref)


def test_malformed_rows_report_line_numbers(tmp_path):
    path, _, _ = make_corpus(tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[4] = "not-a-latitude"
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"\.csv:4: malformed row"):
        load_ais_csv(path)

    path2, _, _ = make_corpus(tmp_path, name="role.csv")
    lines = path2.read_text().splitlines()
    lines[1] = lines[1].replace("reference", "ownship")
    path2.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"role\.csv:2: malformed row: role must be"):
        load_ais_csv(path2)


def test_mixed_vessel_ids_in_one_role_rejected(tmp_path):
    path, _, _ = make_corpus(tmp_path)
    lines = path.read_text().splitlines()
    lines[8] = lines[8].replace(",222,", ",333,")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="2 distinct obstacle vessels"):
        load_ais_csv(path)


def test_encounter_without_obstacle_rows_skipped(tmp_path):
    ref = straight_track((0.0, 0.0), 0.0, 5.0, n=4)
    path = write_corpus(
        tmp_path / "half.csv", corpus_rows("lonely", "reference", "111", ORIGIN, ref)
    )
    with pytest.warns(DataWarning, match="no obstacle rows"):
        assert load_ais_csv(path) == []


def test_non_overlapping_tracks_skipped_but_good_ones_kept(tmp_path):
    rows = []
    for enc_id, t0 in [("good", 0.0), ("disjoint", 0.0)]:
        ref = straight_track((0.0, 0.0), 0.0, 5.0, t0=t0, n=4)
        obs_t0 = t0 if enc_id == "good" else 500.0
        obs = straight_track((800.0, 0.0), math.pi, 5.0, t0=obs_t0, n=4)
        rows += corpus_rows(enc_id, "reference", "1", ORIGIN, ref)
        rows += corpus_rows(enc_id, "obstacle", "2", ORIGIN, obs)
    path = write_corpus(tmp_path / "mixed.csv", rows)
    with pytest.warns(DataWarning, match="skipping encounter 'disjoint'"):
        encounters = load_ais_csv(path)
    assert [e.name for e in encounters] == ["good"]


def test_unsynchronized_tracks_skipped_but_good_ones_kept(tmp_path):
    rows = []
    for enc_id, obs_t0 in [("good", 0.0), ("shifted", 5.0)]:
        ref = straight_track((0.0, 0.0), 0.0, 5.0, n=4)
        obs = straight_track((800.0, 0.0), math.pi, 5.0, t0=obs_t0, n=4)
        rows += corpus_rows(enc_id, "reference", "1", ORIGIN, ref)
        rows += corpus_rows(enc_id, "obstacle", "2", ORIGIN, obs)
    path = write_corpus(tmp_path / "shifted.csv", rows)
    with pytest.warns(DataWarning, match="skipping encounter 'shifted'.*share only 0"):
        encounters = load_ais_csv(path)
    assert [e.name for e in encounters] == ["good"]


def test_single_sample_trajectory_skipped(tmp_path):
    ref = straight_track((0.0, 0.0), 0.0, 5.0, n=1)
    obs = straight_track((800.0, 0.0), math.pi, 5.0, n=4)
    rows = corpus_rows("stub", "reference", "1", ORIGIN, ref)
    rows += corpus_rows("stub", "obstacle", "2", ORIGIN, obs)
    path = write_corpus(tmp_path / "stub.csv", rows)
    with pytest.warns(DataWarning, match="skipping encounter 'stub'"):
        assert load_ais_csv(path) == []


def test_explicit_labels_path_and_missing_entries(tmp_path):
    path, _, _ = make_corpus(tmp_path)
    labels = write_labels(tmp_path / "elsewhere.csv", {"other": "head-on"})
    [enc] = load_ais_csv(path, labels_path=labels)
    assert enc.label is None


def test_label_vocabulary_enforced(tmp_path):
    path, _, _ = make_corpus(tmp_path)
    labels = write_labels(tmp_path / "corpus.labels.csv", {"e1": "meeting"})
    with pytest.raises(DataError, match="label must be one of"):
        load_ais_csv(path, labels_path=labels)


def test_label_sidecar_schema_checked(tmp_path):
    path, _, _ = make_corpus(tmp_path)
    sidecar = tmp_path / "labels.csv"
    sidecar.write_text("encounter,tag\ne1,crossing\n")
    with pytest.raises(SchemaError, match="label sidecar"):
        load_ais_csv(path, labels_path=sidecar)


# -- GeoJSON hazard maps -------------------------------------------------------


def write_geojson(path, features):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def geo_ring(cx, cy, half, *, closed=False, origin=ORIGIN):
    """A square's vertices as GeoJSON [lon, lat] pairs."""
    ring = square_ring(cx, cy, half, closed=closed)
    return [
        [lon, lat]
        for lat, lon in (local_to_geo(x, y, origin) for x, y in ring)
    ]


def polygon_feature(*rings):
    return {
        "type": "Feature",
        "properties": {},
        "geometry": {"type": "Polygon", "coordinates": list(rings)},
    }


def test_geojson_square_loads_and_projects(tmp_path):
    path = write_geojson(
        tmp_path / "map.json", [polygon_feature(geo_ring(1200.0, -300.0, 400.0))]
    )
    pm = load_map_geojson(path, origin=ORIGIN)
    assert len(pm.rings) == 1
    ring = pm.rings[0]
    assert np.allclose(ring[0], ring[-1])  # open input comes back closed
    assert np.allclose(ring, square_ring(1200.0, -300.0, 400.0), atol=1e-6)
    assert pm.crs.startswith("local-equirect(")
    assert len(pm.geo_rings) == 1 and pm.geo_rings[0].shape == (5, 2)


def test_geojson_default_origin_is_first_vertex(tmp_path):
    path = write_geojson(
        tmp_path / "map.json", [polygon_feature(geo_ring(5000.0, 2000.0, 250.0))]
    )
    pm = load_map_geojson(path)
    assert np.allclose(pm.rings[0][0], (0.0, 0.0), atol=1e-9)


def test_geojson_multipolygon_keeps_every_exterior(tmp_path):
    feature = {
        "type": "Feature",
        "geometry": {
            "type": "MultiPolygon",
            "coordinates": [
                [geo_ring(0.0, 1000.0, 100.0)],
                [geo_ring(3000.0, 0.0, 200.0), geo_ring(3000.0, 0.0, 50.0, closed=True)],
            ],
        },
    }
    pm = load_map_geojson(write_geojson(tmp_path / "multi.json", [feature]), origin=ORIGIN)
    assert len(pm.rings) == 2
    assert np.allclose(pm.rings[1], square_ring(3000.0, 0.0, 200.0), atol=1e-6)


def test_geojson_donut_interior_ignored(tmp_path):
    feature = polygon_feature(
        geo_ring(0.0, 0.0, 500.0), geo_ring(0.0, 0.0, 100.0, closed=True)
    )
    pm = load_map_geojson(write_geojson(tmp_path / "donut.json", [feature]), origin=ORIGIN)
    assert len(pm.rings) == 1
    assert np.allclose(pm.rings[0], square_ring(0.0, 0.0, 500.0), atol=1e-6)


def test_geojson_skips_non_polygon_features(tmp_path):
    features = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [10.5, 59.0]}},
        {"type": "Feature"},  # no geometry at all
        polygon_feature(geo_ring(0.0, 0.0, 300.0)),
    ]
    with pytest.warns(DataWarning) as caught:
        pm = load_map_geojson(write_geojson(tmp_path / "m.json", features), origin=ORIGIN)
    assert len(caught) == 2
    assert len(pm.rings) == 1


def test_geojson_with_no_usable_features_is_empty(tmp_path):
    features = [{"type": "Feature", "geometry": {"type": "LineString", "coordinates": []}}]
    with pytest.warns(DataWarning):
        pm = load_map_geojson(write_geojson(tmp_path / "m.json", features))
    assert pm.is_empty
    assert pm.crs == "local"


def test_geojson_degenerate_ring_rejected(tmp_path):
    feature = polygon_feature([[10.5, 59.0], [10.6, 59.0]])
    with pytest.raises(DataError, match="degenerate ring"):
        load_map_geojson(write_geojson(tmp_path / "m.json", [feature]))


def test_geojson_requires_feature_collection(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "Feature"}))
    with pytest.raises(SchemaError, match="FeatureCollection"):
        load_map_geojson(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(SchemaError):
        load_map_geojson(path)


def test_geojson_reprojects_about_new_origin(tmp_path):
    path = write_geojson(
        tmp_path / "map.json", [polygon_feature(geo_ring(700.0, 900.0, 150.0))]
    )
    other = (58.95, 10.42)
    moved = load_map_geojson(path, origin=ORIGIN).to_origin(other)
    direct = load_map_geojson(path, origin=other)
    assert np.allclose(moved.rings[0], direct.rings[0], atol=1e-12)
    assert moved.crs == direct.crs


def test_framed_reprojects_only_out_of_frame_maps_then_densifies(tmp_path):
    path = write_geojson(
        tmp_path / "map.json", [polygon_feature(geo_ring(700.0, 900.0, 150.0))]
    )
    pmap = load_map_geojson(path, origin=ORIGIN)
    pmap.near(700.0, 900.0, 500.0)  # builds the map's index

    def same_rings(a, b):
        return len(a.rings) == len(b.rings) and all(
            np.array_equal(x, y) for x, y in zip(a.rings, b.rings)
        )

    # already in the frame: the very object, index included
    assert pmap.framed(ORIGIN) is pmap
    assert "_box_index" in pmap.framed(ORIGIN).__dict__
    assert pmap.framed(None) is pmap

    # another frame, even one a 1e-10 degree shift away: to_origin's rings
    other = (58.95, 10.42)
    for origin in (other, (ORIGIN[0] + 1e-10, ORIGIN[1])):
        moved = pmap.framed(origin)
        assert moved is not pmap
        assert same_rings(moved, pmap.to_origin(origin))
        assert moved.crs == pmap.to_origin(origin).crs

    # densified after projecting, in or out of the frame
    dense = pmap.framed(other, spacing=10.0)
    assert same_rings(dense, pmap.to_origin(other).densified(10.0))
    assert dense.rings[0].shape[0] > pmap.rings[0].shape[0]
    assert same_rings(pmap.framed(ORIGIN, spacing=10.0), pmap.densified(10.0))

    # empty and local maps keep what they are
    empty = PolygonMap()
    assert empty.framed(other) is empty
    assert empty.framed(other, spacing=10.0) is empty
    local = PolygonMap(rings=(square_ring(0.0, 0.0, 100.0),))
    assert local.framed(other) is local


def test_geojson_projection_is_bitwise_the_scalar_projection(tmp_path):
    rng = np.random.default_rng(17)
    rings = []
    for _ in range(3):
        lat = 59.0 + rng.uniform(-0.05, 0.05, 40)
        lon = 10.5 + rng.uniform(-0.08, 0.08, 40)
        rings.append(np.column_stack((lon, lat)).tolist())
    path = write_geojson(tmp_path / "m.json", [polygon_feature(ring) for ring in rings])
    pm = load_map_geojson(path)
    origin = (rings[0][0][1], rings[0][0][0])
    for ring, got in zip(rings, pm.rings):
        closed = ring + ring[:1]
        want = np.array([project_local(lat, lon, origin) for lon, lat in closed])
        assert np.array_equal(got, want)


def test_geojson_altitude_is_ignored(tmp_path):
    flat = geo_ring(1200.0, -300.0, 400.0)
    raised = [[lon, lat, 12.5] for lon, lat in flat]
    plain = load_map_geojson(write_geojson(tmp_path / "a.json", [polygon_feature(flat)]))
    with_alt = load_map_geojson(write_geojson(tmp_path / "b.json", [polygon_feature(raised)]))
    assert np.array_equal(plain.rings[0], with_alt.rings[0])
    assert np.array_equal(plain.geo_rings[0], with_alt.geo_rings[0])


def test_geojson_ragged_positions_rejected(tmp_path):
    ring = geo_ring(0.0, 0.0, 300.0)
    ring[2] = ring[2] + [4.0]  # one position with an altitude, the rest without
    features = [polygon_feature(geo_ring(0.0, 2000.0, 100.0)), polygon_feature(ring)]
    with pytest.raises(DataError, match="feature 1 has positions of unequal length"):
        load_map_geojson(write_geojson(tmp_path / "m.json", features))


@pytest.mark.parametrize("bad", ["10.5", None, True, "lonlat-only"])
def test_geojson_non_numeric_positions_rejected(tmp_path, bad):
    ring = geo_ring(0.0, 0.0, 300.0)
    if bad == "lonlat-only":
        ring = [[lon] for lon, _ in ring]  # positions without a latitude
    else:
        ring[1] = [bad, ring[1][1]]
    with pytest.raises(DataError, match="feature 0 has a ring that is not a list of numeric"):
        load_map_geojson(write_geojson(tmp_path / "m.json", [polygon_feature(ring)]))


def test_geojson_non_finite_position_rejected(tmp_path):
    ring = geo_ring(0.0, 0.0, 300.0)
    ring[1][0] = float("nan")
    with pytest.raises(DataError, match="feature 0 has a non-finite position"):
        load_map_geojson(write_geojson(tmp_path / "m.json", [polygon_feature(ring)]))


# -- run-record export ---------------------------------------------------------


class _Track:
    def __init__(self, state, label):
        self.state = state
        self.label = label

    def state_at(self, t):
        return self.state.advanced(t - self.state.t)


@pytest.fixture(scope="module")
def replay():
    own = ShipState(0.0, 0.0, 0.0, 5.0, 0.0)
    obstacle = ShipState(0.0, 40_000.0, 10_000.0, 5.0, 0.0)
    session = init_session(own, [obstacle])
    for t in (10.0, 20.0):
        step_update(
            session,
            ShipState(t, 5.0 * t, 0.0, 5.0, 0.0),
            [obstacle.advanced(t)],
        )
    candidates = [
        _Track(ShipState(20.0, 100.0, 0.0, 5.0, 0.0), "hold"),
        _Track(ShipState(20.0, 100.0, 0.0, 5.0, math.radians(40.0)), "swing"),
    ]
    scores = score_candidates(session, candidates)
    return list(session.records), scores


def test_run_columns_layout(replay):
    records, scores = replay
    recs = [RunRecord(step=r, scores=scores) for r in records]
    cols = run_columns(recs)
    assert cols[:6] == [
        "timestamp",
        "p_ground_safe_front",
        "p_ground_safe_side",
        "p_nav_maneuver_ok_1",
        "p_colav_ok_1",
        "p_compatible",
    ]
    expected_post = [
        f"post_{node}_{k}"
        for node, probs in records[0].posterior.marginals.items()
        for k in range(len(probs))
    ]
    assert cols[6 : 6 + len(expected_post)] == expected_post
    assert cols[-3:] == ["cand_hold", "cand_swing", "all_incompatible"]
    assert run_columns([]) == ["timestamp"]


def test_export_csv_round_trip(replay, tmp_path):
    records, scores = replay
    recs = [RunRecord(step=r, scores=scores) for r in records]
    path = tmp_path / "run.csv"
    export_run(recs, path)
    rows = load_run(path)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records, strict=True):
        assert row["timestamp"] == pytest.approx(rec.t, abs=1e-9)
        assert row["p_compatible"] == 1.0
        assert row["p_ground_safe_front"] == pytest.approx(
            rec.node_probs["ground_safe_front"], abs=1e-9
        )
        assert row["p_colav_ok_1"] == pytest.approx(
            rec.node_probs["colav_ok_1"], abs=1e-9
        )
        for node, probs in rec.posterior.marginals.items():
            for k, p in enumerate(probs):
                assert row[f"post_{node}_{k}"] == pytest.approx(p, abs=1e-9)
        for s in scores.scores:
            assert row[f"cand_{s.label}"] == pytest.approx(s.score, abs=1e-9)
        assert row["all_incompatible"] == 0.0


def test_export_jsonl_is_lossless(replay, tmp_path):
    records, _ = replay
    recs = [RunRecord(step=r) for r in records]
    path = tmp_path / "run.jsonl"
    export_run(recs, path, format="jsonl")
    rows = load_run(path)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records, strict=True):
        for node, probs in rec.posterior.marginals.items():
            for k, p in enumerate(probs):
                assert row[f"post_{node}_{k}"] == p  # exact, not approximate
    assert "all_incompatible" not in rows[0]


def test_export_writes_schema_sidecar(replay, tmp_path):
    records, scores = replay
    recs = [RunRecord(step=r, scores=scores) for r in records]
    path = tmp_path / "run.csv"
    export_run(recs, path)
    with open(f"{path}.schema.json") as fh:
        schema = json.load(fh)
    assert schema == {"format": "csv", "columns": run_columns(recs)}


def test_export_zero_steps_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_run([], path)
    assert path.read_text().strip() == "timestamp"
    assert load_run(path) == []
    jpath = tmp_path / "empty.jsonl"
    export_run([], jpath, format="jsonl")
    assert load_run(jpath) == []


def test_export_rejects_mismatched_record_shapes(replay, tmp_path):
    records, scores = replay
    recs = [RunRecord(step=records[0], scores=scores), RunRecord(step=records[1])]
    with pytest.raises(DataError, match="records disagree on shape"):
        export_run(recs, tmp_path / "bad.csv")


def test_export_rejects_unknown_format(replay, tmp_path):
    records, _ = replay
    with pytest.raises(ValueError, match="csv or jsonl"):
        export_run([RunRecord(step=records[0])], tmp_path / "x.dat", format="parquet")
