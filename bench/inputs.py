"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload name and the seed: the
jagged synthetic coastline, the scripted encounters that are replayed tick
by tick, and the labelled corpus CSV (with its labels sidecar) plus the
coastline GeoJSON that ``shipintent extract-priors`` reads.  The library only
ever sees these generated inputs.

Run it on its own to look at what a workload feeds the library::

    PYTHONPATH=src python3 bench/inputs.py --workload coastal_n1 --seed 0 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shipintent.dataio import math_to_compass
from shipintent.geometry import EARTH_RADIUS_M, PolygonMap, ShipState, Waypoint, local_to_geo

WORKLOADS = ("coastal_n1", "open_sea_n2", "corpus_extract")

#: Geographic anchor of the local frame every workload is drawn in.
GEO_ORIGIN = (59.0, 10.5)
#: Seconds between AIS fixes in every scripted track.
FIX_DT = 10.0
#: Vertices of the synthetic coast: the mainland ring plus the islands.
COAST_VERTICES = 100_000
#: Corpus encounters per ``extract-priors`` call on ``corpus_extract``; a
#: multiple of three so the COLREGS labels stay balanced.
CORPUS_SIZE = 6
#: Corpus encounters per call on ``open_sea_n2``, which has no map: enough
#: that fitting, not the command's fixed start-up, fills most of a call.
OPEN_SEA_CORPUS_SIZE = 60
LABELS = ("head-on", "overtaking", "crossing")


@dataclass(frozen=True)
class ScriptedEncounter:
    """One encounter replayed fix by fix: own track, obstacle tracks, labels."""

    name: str
    own: tuple[ShipState, ...]
    obstacles: tuple[tuple[ShipState, ...], ...]
    labels: tuple[str, ...]
    waypoint: Waypoint | None
    hazard: PolygonMap | None = None


@dataclass(frozen=True)
class Corpus:
    """Files for one ``extract-priors`` call."""

    csv: Path
    labels: Path
    map: Path
    encounters: int


@dataclass(frozen=True)
class Inputs:
    workload: str
    #: Encounters replayed tick by tick; empty for ``corpus_extract``,
    #: whose replays are read back from the corpus once it is fitted.
    encounters: tuple[ScriptedEncounter, ...]
    corpus: Corpus


# --------------------------------------------------------------------------
# Coastline


def _coast_rings(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """A jagged mainland north of the shipping lane plus islands south of it.

    The shoreline sits about 700 m north of the lane centre (y = 0) and
    wanders by a few hundred metres, so tracks near the lane pass inside
    and beyond the 700 m and 800 m saturation edges of the grounding
    channels.  Islands south of the lane give the starboard sector vertices.
    """
    half_len = 30_000.0
    n_islands = 30
    island_verts = 160
    n_main = COAST_VERTICES - n_islands * island_verts - 3
    xs = np.linspace(-half_len, half_len, n_main)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
    walk = np.cumsum(rng.normal(0.0, 2.0, n_main))
    walk -= np.linspace(walk[0], walk[-1], n_main)  # pin both ends
    shore = (
        700.0
        + 200.0 * np.sin(2.0 * math.pi * xs / 7_000.0 + phase[0])
        + 90.0 * np.sin(2.0 * math.pi * xs / 1_300.0 + phase[1])
        + 25.0 * np.sin(2.0 * math.pi * xs / 170.0 + phase[2])
        + np.clip(walk, -150.0, 150.0)
        + rng.normal(0.0, 6.0, n_main)
    )
    shore = np.maximum(shore, 380.0)
    main = np.vstack(
        [
            np.column_stack([xs, shore]),
            [[half_len, 15_000.0], [-half_len, 15_000.0]],
            [[xs[0], shore[0]]],
        ]
    )
    rings = [main]
    for cx in np.linspace(-half_len + 2_500.0, half_len - 2_500.0, n_islands):
        cx += rng.uniform(-800.0, 800.0)
        cy = rng.uniform(-1_100.0, -800.0)
        radius = rng.uniform(120.0, 300.0)
        ang = np.linspace(0.0, 2.0 * math.pi, island_verts, endpoint=False)
        r = radius * (1.0 + 0.25 * rng.uniform(-1.0, 1.0, island_verts))
        ring = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
        rings.append(np.vstack([ring, ring[:1]]))
    return tuple(rings)


def _write_geojson(rings: tuple[np.ndarray, ...], path: Path) -> None:
    features = []
    for ring in rings:
        lat, lon = _to_geo(ring[:, 0], ring[:, 1])
        coords = np.column_stack([lon, lat]).tolist()
        features.append(
            {
                "type": "Feature",
                "properties": {},
                "geometry": {"type": "Polygon", "coordinates": [coords]},
            }
        )
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def _to_geo(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`shipintent.geometry.local_to_geo` about GEO_ORIGIN."""
    lat0, lon0 = GEO_ORIGIN
    lat = lat0 + np.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


# --------------------------------------------------------------------------
# Tracks


def _track(
    x0: float,
    y0: float,
    sog: float,
    legs: list[tuple[int, float]],
) -> tuple[ShipState, ...]:
    """Fixes every FIX_DT seconds along legs of (fix count, course)."""
    states = []
    x, y, t = x0, y0, 0.0
    for count, cog in legs:
        for _ in range(count):
            states.append(ShipState(t, x, y, sog, cog))
            x += sog * FIX_DT * math.cos(cog)
            y += sog * FIX_DT * math.sin(cog)
            t += FIX_DT
    return tuple(states)


def _lane_legs(rng: np.random.Generator, n_fixes: int, y0: float, sog: float) -> list[tuple[int, float]]:
    """Own-ship waypoint legs that weave across the lane.

    Each leg changes course by 10-25 degrees, so the slice policy opens a
    slice at every leg boundary, and the lateral offset swings the ship
    towards and away from the shore.
    """
    legs: list[tuple[int, float]] = []
    y, left = y0, n_fixes
    toward_shore = bool(rng.integers(2))
    while left > 0:
        count = min(left, int(rng.integers(6, 11)))
        turn = math.radians(rng.uniform(10.0, 25.0))
        cog = turn if toward_shore else -turn
        y_end = y + sog * FIX_DT * count * math.sin(cog)
        if not -350.0 <= y_end <= 300.0:
            cog = -cog
            y_end = y + sog * FIX_DT * count * math.sin(cog)
        legs.append((count, cog))
        y, left = y_end, left - count
        toward_shore = not toward_shore
    return legs


def _obstacle(
    rng: np.random.Generator,
    label: str,
    own0: ShipState,
    n_fixes: int,
    alter_at: int | None = None,
) -> tuple[ShipState, ...]:
    """An obstacle presenting ``label`` to the own ship at the first fix."""
    if label == "head-on":
        x = own0.x + rng.uniform(2_800.0, 3_600.0)
        y = own0.y + rng.uniform(-150.0, 150.0)
        cog, sog = math.pi + math.radians(rng.uniform(-8.0, 8.0)), rng.uniform(4.0, 6.0)
    elif label == "crossing":
        x = own0.x + rng.uniform(1_800.0, 2_400.0)
        y = own0.y - rng.uniform(1_600.0, 2_200.0)
        cog, sog = math.radians(rng.uniform(100.0, 125.0)), rng.uniform(4.0, 6.0)
    elif label == "overtaking":
        x = own0.x + rng.uniform(500.0, 900.0)
        y = own0.y + rng.uniform(-120.0, 120.0)
        cog, sog = own0.cog + math.radians(rng.uniform(-4.0, 4.0)), rng.uniform(2.0, 3.0)
    else:
        raise ValueError(f"unknown label {label!r}")
    if alter_at is None:
        legs = [(n_fixes, cog)]
    else:
        delta = math.radians(rng.uniform(25.0, 40.0)) * (1 if rng.integers(2) else -1)
        legs = [(alter_at, cog), (n_fixes - alter_at, cog + delta)]
    return _track(x, y, sog, legs)


def _coastal_encounters(
    rng: np.random.Generator, hazard: PolygonMap
) -> tuple[ScriptedEncounter, ...]:
    """Four encounters along the lane, at least one of each COLREGS type."""
    n_fixes = 30
    labels = list(LABELS) + [LABELS[int(rng.integers(3))]]
    out = []
    for k, label in enumerate(labels):
        x0 = -22_000.0 + 11_000.0 * k + rng.uniform(-1_000.0, 1_000.0)
        y0 = rng.uniform(-200.0, 200.0)
        sog = rng.uniform(5.0, 6.5)
        own = _track(x0, y0, sog, _lane_legs(rng, n_fixes, y0, sog))
        last = own[-1]
        wp = Waypoint(last.x + 800.0 * math.cos(last.cog), last.y + 800.0 * math.sin(last.cog))
        obs = _obstacle(rng, label, own[0], n_fixes)
        out.append(ScriptedEncounter(f"coastal{k}", own, (obs,), (label,), wp, hazard))
    return tuple(out)


def _open_sea_encounters(rng: np.random.Generator) -> tuple[ScriptedEncounter, ...]:
    """Three short two-obstacle encounters; the crossing ship alters course
    after the first fix and the own ship after the third, so slices open."""
    n_fixes = 4
    out = []
    for k in range(3):
        sog = rng.uniform(5.0, 6.5)
        own_turn = math.radians(rng.uniform(10.0, 20.0)) * (1 if rng.integers(2) else -1)
        own = _track(0.0, 0.0, sog, [(3, 0.0), (n_fixes - 3, own_turn)])
        first = "head-on" if k != 1 else "overtaking"
        obs_a = _obstacle(rng, first, own[0], n_fixes)
        obs_b = _obstacle(rng, "crossing", own[0], n_fixes, alter_at=1)
        wp = Waypoint(6_000.0, rng.uniform(-300.0, 300.0))
        out.append(ScriptedEncounter(f"open{k}", own, (obs_a, obs_b), (first, "crossing"), wp))
    return tuple(out)


def _corpus_encounters(rng: np.random.Generator, count: int) -> tuple[ScriptedEncounter, ...]:
    """Balanced-label corpus encounters spread along the coast, each at its
    own geographic origin, some close enough to shore to give clearances."""
    n_fixes = 30
    out = []
    for k in range(count):
        label = LABELS[k % 3]
        x0 = -26_000.0 + 50_000.0 * (k + rng.uniform(0.1, 0.9)) / count
        y0 = rng.uniform(-600.0, 300.0)
        sog = rng.uniform(4.5, 7.0)
        own = _track(x0, y0, sog, [(n_fixes, math.radians(rng.uniform(-6.0, 6.0)))])
        obs = _obstacle(rng, label, own[0], n_fixes)
        out.append(ScriptedEncounter(f"corpus{k}", own, (obs,), (label,), None))
    return tuple(out)


# --------------------------------------------------------------------------
# Corpus files


def _write_corpus(encounters: tuple[ScriptedEncounter, ...], stem: Path) -> tuple[Path, Path, int]:
    """One corpus row per fix, one corpus encounter per (own, obstacle) pair."""
    csv_path = stem.with_suffix(".csv")
    labels_path = stem.with_suffix(".labels.csv")
    pairs = 0
    with open(csv_path, "w", newline="") as fh, open(labels_path, "w", newline="") as lh:
        rows = csv.writer(fh)
        rows.writerow(
            ["encounter_id", "role", "mmsi", "timestamp", "lat", "lon", "sog_mps", "cog_deg"]
        )
        labels = csv.writer(lh)
        labels.writerow(["encounter_id", "label"])
        for enc in encounters:
            for j, (track, label) in enumerate(zip(enc.obstacles, enc.labels)):
                enc_id = f"{enc.name}_{j}"
                pairs += 1
                labels.writerow([enc_id, label])
                for role, mmsi, states in (
                    ("reference", "257000001", enc.own),
                    ("obstacle", f"2570{j + 1:05d}", track),
                ):
                    for s in states:
                        lat, lon = local_to_geo(s.x, s.y, GEO_ORIGIN)
                        rows.writerow(
                            [enc_id, role, mmsi, f"{s.t:.1f}", repr(lat), repr(lon),
                             repr(s.sog), repr(math_to_compass(s.cog))]
                        )
    return csv_path, labels_path, pairs


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Build one workload's inputs for ``seed``, writing its files to ``out_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each workload draws from its own stream so adding one never shifts another.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    map_path = out_dir / "coast.geojson"
    if workload == "open_sea_n2":
        encounters = _open_sea_encounters(rng)
        corpus_encounters = _corpus_encounters(rng, OPEN_SEA_CORPUS_SIZE)
        map_path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    else:
        rings = _coast_rings(rng)
        _write_geojson(rings, map_path)
        if workload == "coastal_n1":
            encounters = _coastal_encounters(rng, PolygonMap(rings=rings))
            corpus_encounters = encounters
        else:
            encounters = ()
            corpus_encounters = _corpus_encounters(rng, CORPUS_SIZE)
    csv_path, labels_path, pairs = _write_corpus(corpus_encounters, out_dir / "corpus")
    return Inputs(
        workload=workload,
        encounters=encounters,
        corpus=Corpus(csv_path, labels_path, map_path, pairs),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, Path(args.out))
    ticks = sum(len(e.own) - 1 for e in inputs.encounters)
    print(
        f"{args.workload} seed {args.seed}: {len(inputs.encounters)} scripted encounters,"
        f" {ticks} ticks; corpus of {inputs.corpus.encounters} encounters in {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
