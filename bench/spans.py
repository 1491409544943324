"""In-memory span tracing built only from the benchmark's side of the API.

:class:`Tracer` replaces public functions where the calling module looks
them up (``shipintent.runtime.grounding_measurements``,
``shipintent.cli.collect_samples``, methods on ``PolygonMap``), records one
span per call and restores every original on :meth:`Tracer.uninstall`.
Spans carry (name, start, end, parent, op): ``op`` names the top-level
operation (a session open, a tick, an extraction call) the benchmark was
running, so spans of one operation share it.  Nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import shipintent.cli
import shipintent.extract
import shipintent.runtime
import shipintent.trajgen
from shipintent.discretize import Discretization
from shipintent.geometry import PolygonMap

#: Span names of the top-level runtime calls; tracemalloc runs inside them.
RUNTIME_CALLS = ("runtime.init_session", "runtime.step_update", "runtime.score_candidates")
KINEMATICS = "geometry.kinematics"
GROUNDING = "geometry.grounding_measurements"

# (owner, attribute, span name).  Owners are the modules (or the class) the
# caller resolves the name in, so the wrapper sees exactly the calls that
# the library makes through that name.
_TARGETS: tuple[tuple[Any, str, str], ...] = (
    (shipintent.runtime, "init_session", "runtime.init_session"),
    (shipintent.runtime, "step_update", "runtime.step_update"),
    (shipintent.runtime, "score_candidates", "runtime.score_candidates"),
    (shipintent.runtime, "measure_candidate", "runtime.measure_candidate"),
    (shipintent.runtime, "grounding_measurements", GROUNDING),
    (shipintent.extract, "grounding_measurements", GROUNDING),
    *(
        (shipintent.runtime, fn, KINEMATICS)
        for fn in (
            "cpa_linear",
            "cross_front_distance",
            "midpoint_cpa",
            "has_passed",
            "passing_side",
            "classify_colregs",
            "course_speed_changes",
            "waypoint_measurements",
        )
    ),
    (shipintent.trajgen, "los_candidates", "trajgen.los_candidates"),
    (shipintent.cli, "load_ais_csv", "dataio.load_ais_csv"),
    (shipintent.cli, "load_map_geojson", "dataio.load_map_geojson"),
    (shipintent.cli, "collect_samples", "extract.collect_samples"),
    (shipintent.extract, "find_cpa", "extract.find_cpa"),
    (shipintent.extract, "find_dist2grd_cpa", "extract.find_dist2grd_cpa"),
    (PolygonMap, "to_origin", "geometry.PolygonMap.to_origin"),
    (PolygonMap, "vertices", "geometry.PolygonMap.vertices"),
)


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        # Sector distances at or beyond these saturate the grounding bins.
        disc = Discretization()
        self._side_upper = disc.ground_side.upper
        self._front_upper = disc.ground_front.upper
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op_kinds: list[str] = []
        self.sector_distances = 0
        self.sector_saturated = 0
        self.runtime_peak_bytes = 0
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # -- operations ----------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Start a top-level operation; later spans belong to it."""
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        memory = name in RUNTIME_CALLS
        grounding = name == GROUNDING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self._op))
            self._stack.append(idx)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.runtime_peak_bytes = max(self.runtime_peak_bytes, peak)
                self._stack.pop()
                self.spans[idx] = (name, start - self._t0, end - self._t0, parent, self._op)
            if grounding:
                self._count_saturation(result)
            return result

        return wrapper

    def _count_saturation(self, distances: tuple[float, float, float]) -> None:
        sb, ps, fr = distances
        self.sector_distances += 3
        self.sector_saturated += (
            (sb >= self._side_upper) + (ps >= self._side_upper) + (fr >= self._front_upper)
        )

    # -- analysis --------------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Seconds per call, by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def _child_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per call minus the direct child spans it contains."""
        child = self._child_times()
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out

    def per_op_totals(self, name: str, kind: str, self_time: bool = False) -> list[float]:
        """Seconds spent in ``name`` spans within each op of ``kind``; with
        ``self_time``, less the direct child spans they contain."""
        totals = {op: 0.0 for op, k in enumerate(self.op_kinds) if k == kind}
        child = self._child_times() if self_time else None
        for i, (span, start, end, _, op) in enumerate(self.spans):
            if span == name and op in totals:
                totals[op] += end - start - (child[i] if child else 0.0)
        return list(totals.values())

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "run": op}
            for n, s, e, p, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**meta, "ops": self.op_kinds, "spans": spans}, fh)
