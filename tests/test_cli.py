"""End-to-end command-line runs: exit codes, outputs, env handling."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shipintent.cli import main
from shipintent.config import default_config, load_config, save_config
from shipintent.dataio import load_ais_csv, load_map_geojson, load_run
from shipintent.extract import (
    build_prior_config,
    collect_samples,
    extract_corpus,
    priors_from_result,
    result_from_samples,
)
from shipintent.geometry import ShipState, local_to_geo
from helpers import corpus_rows, straight_track, write_corpus, write_labels

EAST, NORTH, SOUTH, WEST = 0.0, math.pi / 2, -math.pi / 2, math.pi
ORIGIN = (59.0, 10.5)


def write_encounters(path, tracks, labels=None):
    rows = []
    for enc_id, (ref, obs) in tracks.items():
        rows += corpus_rows(enc_id, "reference", f"{enc_id}-r", ORIGIN, ref)
        rows += corpus_rows(enc_id, "obstacle", f"{enc_id}-o", ORIGIN, obs)
    write_corpus(path, rows)
    if labels:
        write_labels(path.with_suffix(".labels.csv"), labels)
    return path


def head_on_tracks(sep):
    ref = straight_track((0.0, -1000.0), NORTH, 5.0, n=41)
    obs = [
        ShipState(t, sep, 1000.0 - 5.0 * t, 5.0, SOUTH)
        for t in np.arange(0.0, 410.0, 10.0)
    ]
    return ref, obs


def crossing_tracks(closest):
    ref = straight_track((0.0, 0.0), EAST, 0.0, n=41)
    obs = [
        ShipState(t, closest, 4.0 * (t - 200.0), 4.0, NORTH)
        for t in np.arange(0.0, 410.0, 10.0)
    ]
    return ref, obs


def benign_tracks(n=5):
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=n)
    obs = straight_track((40_000.0, 10_000.0), EAST, 5.0, n=n)
    return ref, obs


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    write_encounters(
        root / "corpus.csv",
        {
            "ho1": head_on_tracks(60.0),
            "ho2": head_on_tracks(140.0),
            "ot1": (
                straight_track((0.0, 0.0), EAST, 8.0, n=41),
                straight_track((800.0, 200.0), EAST, 3.0, n=41),
            ),
            "ot2": (
                straight_track((0.0, 0.0), EAST, 8.0, n=41),
                straight_track((800.0, 380.0), EAST, 3.0, n=41),
            ),
            "cr1": crossing_tracks(700.0),
            "cr2": crossing_tracks(1100.0),
        },
        labels={
            "ho1": "head-on",
            "ho2": "head-on",
            "ot1": "overtaking",
            "ot2": "overtaking",
            "cr1": "crossing",
            "cr2": "crossing",
        },
    )
    write_encounters(root / "run.csv", {"run": benign_tracks()})
    write_encounters(root / "pair.csv", {"run": benign_tracks(), "alt": benign_tracks()})
    write_encounters(
        root / "clash.csv",
        {
            "clash": (
                straight_track((0.0, 0.0), EAST, 5.0, n=4),
                straight_track((2000.0, 0.0), WEST, 5.0, n=4),
            )
        },
    )

    (root / "map.json").write_text(
        json.dumps({"type": "FeatureCollection", "features": []})
    )
    save_config(default_config(), root / "config.json")
    (root / "clash.json").write_text(
        json.dumps(
            {
                "priors": {
                    "unmodeled": 0.0,
                    "ground_intent": 0.0,
                    "colregs_compliant": 1.0,
                    "good_seamanship": 1.0,
                    "priority": [0.0, 0.0, 1.0],
                }
            }
        )
    )
    return root


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SHIPINTENT_OUT", raising=False)


# -- argument and input errors exit 1 -------------------------------------------


def test_usage_errors_exit_1(cli_dir):
    for argv in (
        [],
        ["bogus"],
        ["score", str(cli_dir / "run.csv"), str(cli_dir / "config.json")],  # no --at
        ["replay", str(cli_dir / "run.csv")],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1


def test_missing_input_files_exit_1(cli_dir, capsys):
    rc = main(
        ["replay", str(cli_dir / "run.csv"), str(cli_dir / "map.json"),
         str(cli_dir / "nope.json"), "-o", str(cli_dir / "x.csv")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(
        ["score", str(cli_dir / "missing.csv"), str(cli_dir / "config.json"),
         "--at", "10"]
    )
    assert rc == 1


def test_negative_at_exits_1(cli_dir, capsys):
    rc = main(
        ["score", str(cli_dir / "run.csv"), str(cli_dir / "config.json"),
         "--at", "-5"]
    )
    assert rc == 1
    assert "before the first sample" in capsys.readouterr().err


@pytest.mark.parametrize("at", ["nan", "inf"])
def test_non_finite_at_exits_1(cli_dir, capsys, at):
    rc = main(["score", str(cli_dir / "run.csv"), str(cli_dir / "config.json"), "--at", at])
    assert rc == 1
    assert "not a finite number of seconds" in capsys.readouterr().err


def test_encounter_selection_errors(cli_dir, capsys):
    args = ["score", str(cli_dir / "pair.csv"), str(cli_dir / "config.json"), "--at", "10"]
    assert main(args) == 1
    assert "pick one with --encounter-id" in capsys.readouterr().err
    assert main(args + ["--encounter-id", "zzz"]) == 1
    assert "no encounter 'zzz'" in capsys.readouterr().err
    assert main(args + ["--encounter-id", "alt"]) == 0


def test_waypoint_parse_error(cli_dir, capsys):
    rc = main(
        ["score", str(cli_dir / "run.csv"), str(cli_dir / "config.json"),
         "--at", "10", "--waypoint", "oops"]
    )
    assert rc == 1
    assert "expected LAT,LON" in capsys.readouterr().err


# -- contradictory observations exit 2 ------------------------------------------


def test_contradictory_observations_exit_2(cli_dir, capsys):
    rc = main(
        ["score", str(cli_dir / "clash.csv"), str(cli_dir / "clash.json"),
         "--at", "0"]
    )
    assert rc == 2
    assert "contradiction:" in capsys.readouterr().err


# -- replay and score happy paths -----------------------------------------------


def test_replay_exports_one_row_per_step(cli_dir, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(
        ["replay", str(cli_dir / "run.csv"), str(cli_dir / "map.json"),
         str(cli_dir / "config.json"), "-o", str(out)]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "replayed 'run': 5 steps" in captured
    assert str(out) in captured
    rows = load_run(out)
    assert len(rows) == 5
    assert all(0.0 <= row["cand_straight"] <= 1.0 for row in rows)
    with open(f"{out}.schema.json") as fh:
        assert json.load(fh)["format"] == "csv"


def test_score_prints_candidate_table(cli_dir, capsys):
    rc = main(
        ["score", str(cli_dir / "run.csv"), str(cli_dir / "config.json"),
         "--at", "20"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidate" in out and "best:" in out
    for label in ("straight", "starboard_90", "starboard_45", "starboard_20",
                  "port_20", "port_45"):
        assert label in out


def test_out_env_prefixes_relative_paths(cli_dir, tmp_path, monkeypatch):
    routed = tmp_path / "routed"
    monkeypatch.setenv("SHIPINTENT_OUT", str(routed))
    rc = main(
        ["replay", str(cli_dir / "run.csv"), str(cli_dir / "map.json"),
         str(cli_dir / "config.json"), "-o", "runs/table.csv"]
    )
    assert rc == 0
    assert (routed / "runs" / "table.csv").exists()
    assert (routed / "runs" / "table.csv.schema.json").exists()


# -- prior extraction -------------------------------------------------------------


def extract(cli_dir, out):
    return main(
        ["extract-priors", str(cli_dir / "corpus.csv"), str(cli_dir / "map.json"),
         "-o", str(out)]
    )


def test_extract_priors_fits_and_reports(cli_dir, tmp_path, capsys):
    out = tmp_path / "fitted.json"
    assert extract(cli_dir, out) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "warning:" in captured.err  # no grounding samples -> fallback
    assert (tmp_path / "fitted.json.report.txt").exists()

    fitted = load_config(out)
    base = default_config()
    for name in ("safe_cpa", "safe_midpoint", "safe_front_cross", "ample_time"):
        assert getattr(fitted.priors, name) != getattr(base.priors, name)
    assert fitted.priors.safe_ground_side == base.priors.safe_ground_side
    assert fitted.priors.safe_ground_front == base.priors.safe_ground_front
    assert fitted.priors.colregs_compliant == base.priors.colregs_compliant


# -- selftest ----------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 7
    assert "FAIL" not in out


# -- hazard frames ------------------------------------------------------------------


def test_library_and_cli_extraction_agree_on_a_geographic_map(tmp_path, capsys):
    # Encounters start at different places, so each has its own projection
    # origin; the map's default origin is its first vertex, far from all of them.
    tracks = {}
    for k, start in enumerate([(0.0, 0.0), (-300.0, 150.0), (200.0, -100.0)]):
        ref = straight_track(start, EAST, 5.0, n=21)
        obs = straight_track((start[0], start[1] + 1500.0), EAST, 5.0, n=21)
        tracks[f"enc{k}"] = (ref, obs)
    corpus = write_encounters(
        tmp_path / "corpus.csv", tracks, labels={name: "overtaking" for name in tracks}
    )

    def geo_polygon(cx, cy, half):
        corners = [(cx - half, cy - half), (cx + half, cy - half),
                   (cx + half, cy + half), (cx - half, cy + half), (cx - half, cy - half)]
        ring = [[lon, lat] for lat, lon in (local_to_geo(x, y, ORIGIN) for x, y in corners)]
        return {"type": "Feature", "properties": {},
                "geometry": {"type": "Polygon", "coordinates": [ring]}}

    # an island to starboard and a rock dead ahead of every reference start,
    # and a wide shoal to starboard whose nearest points lie mid-edge, so
    # densifying the map moves the side clearances
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [geo_polygon(600.0, -400.0, 100.0), geo_polygon(900.0, 0.0, 50.0),
                     geo_polygon(0.0, -1500.0, 1000.0)],
    }))

    out = tmp_path / "fitted.json"
    assert main(["extract-priors", str(corpus), str(map_path), "-o", str(out)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        encounters = load_ais_csv(corpus)
        pmap = load_map_geojson(map_path)
        library = extract_corpus(encounters, pmap)
        priors = build_prior_config(encounters, pmap)

    assert library.sample_counts["safe_ground_side"] == 3
    assert library.sample_counts["safe_ground_front"] == 3
    assert (tmp_path / "fitted.json.report.txt").read_text() == library.report() + "\n"
    fitted = load_config(out).priors
    assert fitted.safe_ground_side == priors.safe_ground_side
    assert fitted.safe_ground_front == priors.safe_ground_front

    # a densified map: extract-priors passes the configured spacing through
    dense_cfg = tmp_path / "dense.json"
    save_config(replace(default_config(), map_densify_spacing=25.0), dense_cfg)
    dense_out = tmp_path / "dense-fitted.json"
    argv = ["extract-priors", str(corpus), str(map_path), "-o", str(dense_out),
            "--config", str(dense_cfg)]
    assert main(argv) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dense = result_from_samples(collect_samples(encounters, pmap, spacing=25.0))
        dense_priors = priors_from_result(dense)

    assert (tmp_path / "dense-fitted.json.report.txt").read_text() == dense.report() + "\n"
    dense_fitted = load_config(dense_out).priors
    assert dense_fitted.safe_ground_side == dense_priors.safe_ground_side
    assert dense_fitted.safe_ground_front == dense_priors.safe_ground_front
    assert dense.fitted["safe_ground_side"] != library.fitted["safe_ground_side"]


def test_score_with_map_ranks_the_fan_like_replay(tmp_path, capsys):
    # A shoal strip to starboard of an eastbound reference: with the map,
    # `score --at t` must print exactly the scores of `replay`'s row at t.
    ref = straight_track((0.0, 0.0), EAST, 5.0, n=31)
    obs = [ShipState(t, 3000.0 - 5.0 * t, 150.0, 5.0, WEST) for t in np.arange(0.0, 310.0, 10.0)]
    encounter = write_encounters(tmp_path / "coast.csv", {"coast": (ref, obs)})
    strip = [(200.0, -250.0), (3000.0, -250.0), (3000.0, -600.0), (200.0, -600.0), (200.0, -250.0)]
    ring = [[lon, lat] for lat, lon in (local_to_geo(x, y, ORIGIN) for x, y in strip)]
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]}))
    config = tmp_path / "config.json"
    save_config(default_config(), config)
    table = tmp_path / "run.csv"
    assert main(["replay", str(encounter), str(map_path), str(config), "-o", str(table)]) == 0
    row = load_run(table)[6]  # fixes every 10 s: row 6 is t+60 s

    def printed_scores(*extra):
        capsys.readouterr()
        assert main(["score", str(encounter), str(config), "--at", "60", *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("candidate")) + 1
        rows = [ln.split() for ln in lines[start:] if not ln.startswith(("best", "note"))]
        return {label: score for label, _, score in rows}

    with_map = printed_scores("--map", str(map_path))
    assert with_map == {label: f"{row[f'cand_{label}']:.6f}" for label in with_map}
    assert len(with_map) == 6

    def ranking(scores):
        return sorted(scores, key=lambda label: -float(scores[label]))

    assert ranking(with_map) == sorted(with_map, key=lambda label: -row[f"cand_{label}"])
    assert ranking(printed_scores())[0] != ranking(with_map)[0]  # the map matters here
