"""Corpus CSV / map GeoJSON ingestion and run-record export.

All angles cross this file-format boundary in degrees, with courses in the
compass convention (clockwise from true north); everything inside the package
uses radians counterclockwise from east.  Positions cross as lat/lon degrees
and live internally as planar east/north meters about a per-encounter origin.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .extract import COLREGS_LABELS, Encounter, ExtractionError
from .geometry import (
    PolygonMap,
    ShipState,
    local_frame,
    norm_course,
    project_local,
    project_rings,
)
from .runtime import ScoreResult, StepRecord

__all__ = [
    "AisRecord",
    "CORPUS_COLUMNS",
    "DataError",
    "DataWarning",
    "RunRecord",
    "SchemaError",
    "compass_to_math",
    "export_run",
    "load_ais_csv",
    "load_map_geojson",
    "load_run",
    "math_to_compass",
    "run_columns",
]


class DataError(ValueError):
    """A file's contents don't satisfy the corpus/map contracts."""


class SchemaError(DataError):
    """The file shape itself is wrong: missing columns, bad top-level type."""


class DataWarning(UserWarning):
    """Recoverable ingestion oddities: re-sorting, dropped duplicates."""


def compass_to_math(cog_deg: float) -> float:
    """Compass course (degrees clockwise from north) to radians CCW from east."""
    return norm_course(math.radians(90.0 - cog_deg))


def math_to_compass(cog_rad: float) -> float:
    """Radians CCW from east back to compass degrees in [0, 360)."""
    return (90.0 - math.degrees(cog_rad)) % 360.0


@dataclass(frozen=True)
class AisRecord:
    """One position report: who, when, where, how fast, which way."""

    vessel_id: str
    timestamp: float
    lat: float
    lon: float
    sog: float
    cog: float

    def __post_init__(self) -> None:
        if not self.vessel_id:
            raise DataError("vessel_id must be non-empty")
        if not math.isfinite(self.timestamp):
            raise DataError(f"timestamp must be finite, got {self.timestamp}")
        if not abs(self.lat) <= 90.0:
            raise DataError(f"latitude {self.lat} outside [-90, 90]")
        if not abs(self.lon) <= 180.0:
            raise DataError(f"longitude {self.lon} outside [-180, 180]")
        if not self.sog >= 0.0:
            raise DataError(f"speed over ground {self.sog} must be >= 0")
        if not 0.0 <= self.cog < 360.0:
            raise DataError(f"course over ground {self.cog} outside [0, 360)")


CORPUS_COLUMNS = (
    "encounter_id",
    "role",
    "mmsi",
    "timestamp",
    "lat",
    "lon",
    "sog_mps",
    "cog_deg",
)

_ROLES = ("reference", "obstacle")


def _load_labels(path: Path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "encounter_id" not in fields or "label" not in fields:
            raise SchemaError(f"{path}: label sidecar needs encounter_id,label columns")
        for line_no, row in enumerate(reader, start=2):
            label = (row["label"] or "").strip()
            if label not in COLREGS_LABELS:
                raise DataError(
                    f"{path}:{line_no}: label must be one of {COLREGS_LABELS}, "
                    f"got {label!r}"
                )
            labels[row["encounter_id"].strip()] = label
    return labels


def _clean_trajectory(
    rows: list[tuple[int, AisRecord]], where: str
) -> list[AisRecord]:
    """Time-sort and de-duplicate one vessel's reports, warning on both."""
    ordered = sorted(rows, key=lambda item: item[1].timestamp)
    if [r.timestamp for _, r in ordered] != [r.timestamp for _, r in rows]:
        warnings.warn(f"{where}: timestamps out of order, re-sorted", DataWarning)
    out: list[AisRecord] = []
    dropped = 0
    for _, rec in ordered:
        if out and rec.timestamp == out[-1].timestamp:
            dropped += 1
            continue
        out.append(rec)
    if dropped:
        warnings.warn(
            f"{where}: dropped {dropped} duplicate-timestamp reports", DataWarning
        )
    return out


def load_ais_csv(path: str | Path, labels_path: str | Path | None = None) -> list[Encounter]:
    """Parse a corpus CSV into per-encounter vessel pairs.

    Rows group by encounter id and role; each encounter is projected onto a
    local east/north plane about its first reference-vessel position.  COLREGS
    labels come from a ``<stem>.labels.csv`` sidecar when present.  Encounters
    that can't form two >= 2-sample trajectories are skipped with a warning.
    """
    path = Path(path)
    if labels_path is None:
        candidate = path.with_suffix(".labels.csv")
        labels = _load_labels(candidate) if candidate.exists() else {}
    else:
        labels = _load_labels(Path(labels_path))

    groups: dict[str, dict[str, list[tuple[int, AisRecord]]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        missing = [c for c in CORPUS_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        for line_no, row in enumerate(reader, start=2):
            try:
                enc_id = row["encounter_id"].strip()
                role = row["role"].strip()
                if role not in _ROLES:
                    raise DataError(f"role must be one of {_ROLES}, got {role!r}")
                rec = AisRecord(
                    vessel_id=row["mmsi"].strip(),
                    timestamp=float(row["timestamp"]),
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                    sog=float(row["sog_mps"]),
                    cog=float(row["cog_deg"]),
                )
            except (DataError, TypeError, ValueError, AttributeError) as exc:
                raise DataError(f"{path}:{line_no}: malformed row: {exc}") from exc
            groups.setdefault(enc_id, {r: [] for r in _ROLES})[role].append(
                (line_no, rec)
            )

    encounters: list[Encounter] = []
    for enc_id, by_role in groups.items():
        ok = True
        for role in _ROLES:
            rows = by_role[role]
            if not rows:
                warnings.warn(
                    f"{path}: encounter {enc_id!r} has no {role} rows, skipped",
                    DataWarning,
                )
                ok = False
                continue
            ids = {rec.vessel_id for _, rec in rows}
            if len(ids) > 1:
                raise DataError(
                    f"{path}: encounter {enc_id!r} has {len(ids)} distinct "
                    f"{role} vessels {sorted(ids)}"
                )
        if not ok:
            continue
        ref_rows = _clean_trajectory(by_role["reference"], f"{path} {enc_id} reference")
        obs_rows = _clean_trajectory(by_role["obstacle"], f"{path} {enc_id} obstacle")
        origin = (ref_rows[0].lat, ref_rows[0].lon)
        try:
            encounters.append(
                Encounter(
                    reference=tuple(_to_state(r, origin) for r in ref_rows),
                    obstacle=tuple(_to_state(r, origin) for r in obs_rows),
                    label=labels.get(enc_id),
                    name=enc_id,
                    origin=origin,
                )
            )
        except ExtractionError as exc:
            warnings.warn(f"{path}: skipping encounter {enc_id!r}: {exc}", DataWarning)
    return encounters


def _to_state(rec: AisRecord, origin: tuple[float, float]) -> ShipState:
    x, y = project_local(rec.lat, rec.lon, origin)
    return ShipState(rec.timestamp, x, y, rec.sog, compass_to_math(rec.cog))


def load_map_geojson(
    path: str | Path, origin: tuple[float, float] | None = None
) -> PolygonMap:
    """Hazard polygons from a GeoJSON FeatureCollection.

    Keeps exterior rings only (interior holes are water surrounded by the
    hazard anyway), normalizes them closed, and projects about ``origin`` —
    defaulting to the first ring's first vertex.  Re-project about an
    encounter's own origin later with :meth:`PolygonMap.framed`.
    """
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("type") != "FeatureCollection":
        raise SchemaError(f"{path}: expected a GeoJSON FeatureCollection")
    geo_rings: list[np.ndarray] = []
    for idx, feature in enumerate(data.get("features", [])):
        geom = feature.get("geometry") if isinstance(feature, dict) else None
        if not isinstance(geom, dict):
            warnings.warn(f"{path}: feature {idx} has no geometry, skipped", DataWarning)
            continue
        gtype = geom.get("type")
        if gtype == "Polygon":
            exteriors = [geom["coordinates"][0]]
        elif gtype == "MultiPolygon":
            exteriors = [poly[0] for poly in geom["coordinates"]]
        else:
            warnings.warn(
                f"{path}: feature {idx} is {gtype!r}, not a polygon, skipped",
                DataWarning,
            )
            continue
        for ring in exteriors:
            latlon = _ring_positions(ring, f"{path}: feature {idx}")
            if len(latlon) and not np.array_equal(latlon[0], latlon[-1]):
                latlon = np.vstack((latlon, latlon[:1]))
            if len(latlon) < 4:  # a closed triangle needs 4 points
                raise DataError(
                    f"{path}: feature {idx} has a degenerate ring of "
                    f"{max(0, len(latlon) - 1)} distinct vertices"
                )
            geo_rings.append(latlon)
    if not geo_rings:
        return PolygonMap()
    if origin is None:
        origin = (float(geo_rings[0][0][0]), float(geo_rings[0][0][1]))
    return PolygonMap(
        rings=project_rings(geo_rings, origin),
        crs=local_frame(origin),
        geo_rings=tuple(geo_rings),
    )


def _ring_positions(ring: object, where: str) -> np.ndarray:
    """A GeoJSON ring of [lon, lat] positions as an (n, 2) array of (lat, lon).

    Positions may carry an altitude (RFC 7946), which is dropped; ragged,
    non-numeric or non-finite positions are a :class:`DataError`.
    """
    try:
        arr = np.asarray(ring)
    except ValueError as exc:  # ragged nesting
        raise DataError(f"{where} has positions of unequal length") from exc
    if arr.size == 0:
        return np.empty((0, 2))
    numeric = arr.ndim == 2 and arr.shape[1] >= 2 and arr.dtype.kind in "iuf"
    if numeric:
        # numpy reads JSON true/false as 1/0; only positions holding a 0 or a 1
        # can hide one, so only those are inspected element by element.
        suspects = np.flatnonzero(((arr == 0) | (arr == 1)).any(axis=1))
        numeric = not any(isinstance(v, bool) for i in suspects for v in ring[i])
    if not numeric:
        raise DataError(f"{where} has a ring that is not a list of numeric [lon, lat] positions")
    latlon = np.array(arr[:, 1::-1], dtype=float, order="C")
    if not np.isfinite(latlon).all():
        raise DataError(f"{where} has a non-finite position")
    return latlon


# --------------------------------------------------------------------------
# Run export


@dataclass(frozen=True)
class RunRecord:
    """One replay step ready for export: posteriors plus candidate scores."""

    step: StepRecord
    scores: ScoreResult | None = None


def _record_values(rec: RunRecord) -> dict[str, float]:
    """One step's export values, keyed by column in export order."""
    step = rec.step
    out: dict[str, float] = {
        "timestamp": step.t,
        "p_ground_safe_front": step.node_probs["ground_safe_front"],
        "p_ground_safe_side": step.node_probs["ground_safe_side"],
    }
    for i in range(1, len(step.measurements.ships) + 1):
        out[f"p_nav_maneuver_ok_{i}"] = step.node_probs[f"nav_maneuver_ok_{i}"]
        out[f"p_colav_ok_{i}"] = step.node_probs[f"colav_ok_{i}"]
    # the live slice is conditioned on overall compatibility, so its
    # posterior probability is 1 by construction
    out["p_compatible"] = 1.0
    for node, probs in step.posterior.marginals.items():
        for k, p in enumerate(probs):
            out[f"post_{node}_{k}"] = p
    if rec.scores is not None:
        for s in rec.scores.scores:
            out[f"cand_{s.label}"] = s.score
        out["all_incompatible"] = float(rec.scores.all_incompatible)
    return out


def run_columns(records: Sequence[RunRecord]) -> list[str]:
    """The stable column order for an export, derived from the first record."""
    return list(_record_values(records[0])) if records else ["timestamp"]


def _rows(records: Sequence[RunRecord], columns: Sequence[str]) -> Iterator[dict[str, float]]:
    """Each record's values, checked against the export's columns."""
    for rec in records:
        vals = _record_values(rec)
        if set(vals) != set(columns):
            raise DataError(
                "records disagree on shape; all steps must share ships, intention "
                "nodes, and candidate labels"
            )
        yield vals


def export_run(
    records: Sequence[RunRecord], path: str | Path, format: str = "csv"
) -> None:
    """Write one row per step, plus a ``<path>.schema.json`` naming the columns.

    csv prints 12 significant digits; jsonl keeps full float precision.
    """
    path = Path(path)
    columns = run_columns(records)
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for vals in _rows(records, columns):
                writer.writerow(f"{vals[c]:.12g}" for c in columns)
    elif format == "jsonl":
        with open(path, "w") as fh:
            for vals in _rows(records, columns):
                fh.write(json.dumps({c: vals[c] for c in columns}) + "\n")
    else:
        raise ValueError(f"format must be csv or jsonl, got {format!r}")
    schema = {"format": format, "columns": columns}
    with open(f"{path}.schema.json", "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(path: str | Path) -> list[dict[str, float]]:
    """Parse an exported run (csv or jsonl by suffix) back into dicts."""
    path = Path(path)
    if path.suffix == ".jsonl":
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {key: float(val) for key, val in row.items()} for row in reader
        ]
