"""Shared builders for the test suite: random networks, tracks, corpora."""

from __future__ import annotations

import csv
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from shipintent import nodes
from shipintent.bn import random_network  # noqa: F401  (re-exported for the tests)
from shipintent.cli import DISC3, OBSTACLES  # noqa: F401  (re-exported for the tests)
from shipintent.dataio import math_to_compass
from shipintent.discretize import Discretization, IntentionPriors
from shipintent.extract import Encounter
from shipintent.geometry import ShipState, local_to_geo
from shipintent.netbuild import measurement_variables
from shipintent.runtime import _Layout


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing this checkout's ``src``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.lru_cache(maxsize=None)
def layout3(n_ships: int) -> _Layout:
    """The ``DISC3`` layout at ``n_ships`` with default priors, built once per count."""
    return _Layout(n_ships, IntentionPriors(), DISC3, None)


def coupled_count(session) -> int:
    """K: the slices, frozen and live, that couple the obstacle ships.

    With more than one ship, a slice whose course is not held (straight and
    speed unchanged) leaves every ``stands_on_ok_i = C or OR_{j!=i} g_j``
    reading the other ships.
    """
    if session.n_ships == 1:
        return 0
    return sum(
        not nodes.course_held(states["meas_course_change"], states["meas_speed_change"])
        for states in (meas.as_states() for meas in session.slice_measurements())
    )


def at_values(arr: np.ndarray, labels) -> np.ndarray:
    """An array over lumped classes, read at each value's class on every axis it spans."""
    for j, label in enumerate(labels):
        if arr.shape[j] > 1:
            arr = np.take(arr, label, axis=j)
    return arr


def draw_slice(
    data, n_ships: int, held: bool | None = None, disc: Discretization = DISC3
) -> tuple[dict[str, int], int, int]:
    """A hypothesis-drawn measurement vector and latch carries, ``DISC3`` by default.

    Unless ``held`` fixes it, course held (straight, speed unchanged) is
    drawn half the time, so both branches of ``stands_on_ok_i = C or
    OR_{j!=i} g_j`` come up.
    """
    states = {
        v.id: data.draw(st.integers(0, v.cardinality - 1), label=v.id)
        for v in measurement_variables(n_ships, disc)
    }
    if held is None:
        held = data.draw(st.booleans(), label="course_held")
    if held:
        cic, cis = nodes.STRAIGHT, nodes.NONE
    else:
        changes = [(c, s) for c in range(3) for s in range(3) if not nodes.course_held(c, s)]
        cic, cis = data.draw(st.sampled_from(changes), label="course_change")
    states.update(meas_course_change=cic, meas_speed_change=cis)
    sa, pa = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)), label="latches")
    return states, sa, pa


def straight_track(
    start_xy: tuple[float, float],
    cog: float,
    sog: float,
    *,
    t0: float = 0.0,
    n: int = 10,
    dt: float = 10.0,
) -> list[ShipState]:
    """Constant course/speed samples, the workhorse fixture track."""
    x0, y0 = start_xy
    vx, vy = sog * math.cos(cog), sog * math.sin(cog)
    return [
        ShipState(t0 + k * dt, x0 + vx * k * dt, y0 + vy * k * dt, sog, cog)
        for k in range(n)
    ]


def straight_encounter(
    ref_start: tuple[float, float],
    ref_cog: float,
    ref_sog: float,
    obs_start: tuple[float, float],
    obs_cog: float,
    obs_sog: float,
    *,
    label: str | None = None,
    name: str = "enc",
    n: int = 61,
    dt: float = 10.0,
    origin: tuple[float, float] | None = None,
) -> Encounter:
    return Encounter(
        reference=tuple(straight_track(ref_start, ref_cog, ref_sog, n=n, dt=dt)),
        obstacle=tuple(straight_track(obs_start, obs_cog, obs_sog, n=n, dt=dt)),
        label=label,
        name=name,
        origin=origin,
    )


def corpus_rows(
    enc_id: str,
    role: str,
    mmsi: str,
    origin: tuple[float, float],
    states: list[ShipState],
) -> list[list[str]]:
    """CSV rows (geographic, compass degrees) for one trajectory."""
    rows = []
    for s in states:
        lat, lon = local_to_geo(s.x, s.y, origin)
        rows.append(
            [
                enc_id,
                role,
                mmsi,
                f"{s.t:.1f}",
                f"{lat:.8f}",
                f"{lon:.8f}",
                f"{s.sog:.3f}",
                f"{math_to_compass(s.cog):.4f}",
            ]
        )
    return rows


CORPUS_HEADER = [
    "encounter_id",
    "role",
    "mmsi",
    "timestamp",
    "lat",
    "lon",
    "sog_mps",
    "cog_deg",
]


def write_corpus(path: Path, rows: list[list[str]]) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORPUS_HEADER)
        writer.writerows(rows)
    return path


def write_labels(path: Path, labels: dict[str, str]) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["encounter_id", "label"])
        writer.writerows(sorted(labels.items()))
    return path


def square_ring(
    cx: float, cy: float, half: float, *, closed: bool = True
) -> np.ndarray:
    pts = [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
    ]
    if closed:
        pts.append(pts[0])
    return np.asarray(pts, dtype=float)
