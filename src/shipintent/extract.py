"""Fitting intention-threshold priors from a labeled encounter corpus.

Each recorded two-vessel encounter contributes one sample per threshold it
exercised: the tightest front-sector clearance during a crossing, the refined
closest-approach distance of an overtaking, half of it for a head-on (the
midpoint clearance), the time still to run until closest approach, and the
hazard clearances at the closest-approach state when land was near enough to
have mattered.  Clamped truncated-normal fits over those samples become the
:class:`~shipintent.discretize.IntentionPriors` a session runs with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .discretize import Discretization, IntentionPriors, TruncNorm
from .geometry import (
    FRONT_HALF_ANGLE,
    GeometryParams,
    PolygonMap,
    ShipState,
    grounding_measurements,
    segment_cpa,
)

__all__ = [
    "COLREGS_LABELS",
    "Encounter",
    "ExtractionError",
    "ExtractionResult",
    "ExtractionWarning",
    "build_prior_config",
    "collect_samples",
    "extract_corpus",
    "find_cpa",
    "find_dist2grd_cpa",
    "find_isdf_vals",
    "fit_truncnorm",
    "priors_from_result",
    "result_from_samples",
]

COLREGS_LABELS = ("head-on", "overtaking", "crossing")

#: Hazard clearances beyond this many meters are treated as "land did not
#: constrain the encounter" and contribute no sample.
DEFAULT_GROUND_THRESHOLD = 2_000.0


class ExtractionError(ValueError):
    """Invalid encounter data or an impossible fit request."""


class ExtractionWarning(UserWarning):
    """Recoverable extraction oddities: skipped tracks, fallback priors."""


@dataclass(frozen=True)
class Encounter:
    """One reference/obstacle vessel pair with a COLREGS situation label.

    ``origin`` records the lat/lon the planar coordinates were projected
    about, when the encounter came from geographic data.  ``pairs`` holds
    the (reference, obstacle) fixes that share a timestamp; every pass that
    compares the two vessels reads them, and an encounter needs at least two.
    """

    reference: tuple[ShipState, ...]
    obstacle: tuple[ShipState, ...]
    label: str | None = None
    name: str = ""
    origin: tuple[float, float] | None = None
    pairs: tuple[tuple[ShipState, ShipState], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "reference", tuple(self.reference))
        object.__setattr__(self, "obstacle", tuple(self.obstacle))
        for role, traj in (("reference", self.reference), ("obstacle", self.obstacle)):
            if len(traj) < 2:
                raise ExtractionError(
                    f"encounter {self.name!r}: {role} trajectory needs >= 2 samples"
                )
            ts = [s.t for s in traj]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ExtractionError(
                    f"encounter {self.name!r}: {role} timestamps must strictly increase"
                )
        if (
            self.reference[-1].t < self.obstacle[0].t
            or self.obstacle[-1].t < self.reference[0].t
        ):
            raise ExtractionError(
                f"encounter {self.name!r}: trajectories never overlap in time"
            )
        by_t = {obs.t: obs for obs in self.obstacle}
        pairs = tuple((ref, by_t[ref.t]) for ref in self.reference if ref.t in by_t)
        if len(pairs) < 2:
            raise ExtractionError(
                f"encounter {self.name!r}: the vessels share only {len(pairs)}"
                " timestamps, need >= 2"
            )
        object.__setattr__(self, "pairs", pairs)
        if self.label is not None and self.label not in COLREGS_LABELS:
            raise ExtractionError(
                f"encounter {self.name!r}: label must be one of {COLREGS_LABELS}, "
                f"got {self.label!r}"
            )

    @property
    def duration(self) -> float:
        return self.reference[-1].t - self.reference[0].t


def find_isdf_vals(encounters: Iterable[Encounter]) -> list[float]:
    """Per crossing encounter, the closest the obstacle ever got while inside
    the reference ship's front cone.

    The gate is the normalized dot product of the reference heading and the
    relative position exceeding cos(FRONT_HALF_ANGLE), i.e. the obstacle
    bearing within 22.5 degrees of dead ahead.  Encounters where the obstacle
    never enters the cone contribute nothing.
    """
    vals: list[float] = []
    for enc in encounters:
        if enc.label != "crossing":
            raise ExtractionError(
                f"encounter {enc.name!r}: front-crossing clearances are only "
                f"defined for crossing encounters, got label {enc.label!r}"
            )
        best = math.inf
        for ref, obs in enc.pairs:
            rel = obs.position - ref.position
            dist = float(np.hypot(*rel))
            if dist <= 0.0:
                continue
            if float(ref.heading @ rel) / dist > math.cos(FRONT_HALF_ANGLE):
                best = min(best, dist)
        if math.isfinite(best):
            vals.append(best)
    return vals


def _closest_fix(enc: Encounter) -> tuple[int, float]:
    """Index and distance of the encounter's first closest sampled fix."""
    rel = np.array([(obs.x - ref.x, obs.y - ref.y) for ref, obs in enc.pairs])
    dist = np.hypot(rel[:, 0], rel[:, 1])
    i = int(np.argmin(dist))
    return i, float(dist[i])


def find_cpa(encounters: Iterable[Encounter]) -> tuple[list[float], list[float]]:
    """Refined distance and time of closest approach, one value per encounter.

    The first closest sampled fix is refined with :func:`segment_cpa` over it
    and the next fix, so a closest approach that happens between two fixes is
    not missed.  Times count from the first fix the two vessels share, where
    the encounter begins.
    """
    dcpa_vals: list[float] = []
    tcpa_vals: list[float] = []
    for enc in encounters:
        pairs = enc.pairs
        i, dcpa = _closest_fix(enc)
        ref, obs = pairs[i]
        tcpa = ref.t - pairs[0][0].t
        if i + 1 < len(pairs):
            t_opt, d_opt = segment_cpa(ref, pairs[i + 1][0], obs, pairs[i + 1][1])
            if d_opt < dcpa:
                dcpa, tcpa = d_opt, tcpa + t_opt
        dcpa_vals.append(dcpa)
        tcpa_vals.append(tcpa)
    return dcpa_vals, tcpa_vals


def _clip_roi(pmap: PolygonMap, x: float, y: float, half: float) -> PolygonMap:
    """Vertex subset of the map within a +-half box around (x, y).

    Only vertex distances matter downstream, so the survivors are packed into
    a single pseudo-ring rather than preserving polygon topology.
    """
    verts = pmap.vertices()
    if verts.shape[0] == 0:
        return PolygonMap()
    keep = (np.abs(verts[:, 0] - x) <= half) & (np.abs(verts[:, 1] - y) <= half)
    pts = verts[keep]
    if pts.shape[0] == 0:
        return PolygonMap()
    return PolygonMap(rings=(np.vstack([pts, pts[:1]]),))


def find_dist2grd_cpa(
    encounters: Iterable[Encounter],
    pmap: PolygonMap,
    dist_thresh: float = DEFAULT_GROUND_THRESHOLD,
    params: GeometryParams = GeometryParams(),
    spacing: float | None = None,
) -> tuple[list[float], list[float]]:
    """Hazard clearances at each encounter's closest-approach state.

    The map is measured in each encounter's own frame and densified to
    ``spacing`` (see :meth:`PolygonMap.framed`), then clipped to the
    +-``dist_thresh`` square around the reference ship's first closest
    sampled fix, and the nearest hazard vertex is found in the starboard,
    port, and front sectors of the ship domain.  min(starboard, port) feeds
    the side list, front feeds the front list, and either only counts when
    finite and at or below ``dist_thresh`` so open-water encounters don't
    masquerade as tight clearances, an infinite ``dist_thresh`` included; a
    vertex that close always lies inside the square.
    """
    sdgs_vals: list[float] = []
    sdgf_vals: list[float] = []
    for enc in encounters:
        state = enc.pairs[_closest_fix(enc)[0]][0]
        roi = _clip_roi(pmap.framed(enc.origin, spacing), state.x, state.y, dist_thresh)
        if roi.is_empty:
            continue
        sb, ps, fr = grounding_measurements(state, roi, params)
        side = min(sb, ps)
        if math.isfinite(side) and side <= dist_thresh:
            sdgs_vals.append(side)
        if math.isfinite(fr) and fr <= dist_thresh:
            sdgf_vals.append(fr)
    return sdgs_vals, sdgf_vals


def fit_truncnorm(samples: Sequence[float], lo: float, hi: float) -> tuple[float, float]:
    """Sample mean and n-1 standard deviation after clamping into [lo, hi].

    A degenerate spread (all samples equal) is floored at 1% of the window so
    the resulting distribution stays usable, with a warning.
    """
    if not hi > lo:
        raise ExtractionError(f"truncation window must have hi > lo, got [{lo}, {hi}]")
    vals = np.clip(np.asarray(list(samples), dtype=float), lo, hi)
    if vals.size < 2:
        raise ExtractionError(f"need at least 2 samples to fit, got {vals.size}")
    mu = float(vals.mean())
    sigma = float(vals.std(ddof=1))
    if sigma == 0.0:
        sigma = 0.01 * (hi - lo)
        warnings.warn(
            f"degenerate fit: all {vals.size} samples equal {mu}; "
            f"flooring sigma to {sigma}",
            ExtractionWarning,
            stacklevel=2,
        )
    return mu, sigma


#: threshold name -> short description for reports, in report order
_DESCRIPTIONS = {
    "safe_front_cross": "front clearance while crossing",
    "safe_cpa": "closest approach while overtaking",
    "safe_midpoint": "midpoint clearance while head-on",
    "ample_time": "time to closest approach",
    "safe_ground_side": "side hazard clearance",
    "safe_ground_front": "front hazard clearance",
}


@dataclass(frozen=True)
class ExtractionResult:
    """Raw per-encounter samples plus the fits they produced.

    ``fitted`` maps intention names to (mu, sigma), or None where the corpus
    had too few samples and the stock prior was kept.
    """

    isdf_vals: tuple[float, ...]
    dcpa_vals: tuple[float, ...]
    tcpa_vals: tuple[float, ...]
    sdgs_vals: tuple[float, ...]
    sdgf_vals: tuple[float, ...]
    fitted: Mapping[str, tuple[float, float] | None]
    sample_counts: Mapping[str, int]

    def __post_init__(self) -> None:
        for name in ("isdf_vals", "dcpa_vals", "tcpa_vals", "sdgs_vals", "sdgf_vals"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if any(not math.isfinite(v) or v < 0.0 for v in vals):
                raise ExtractionError(f"{name} must be finite and non-negative")
        object.__setattr__(self, "fitted", dict(self.fitted))
        object.__setattr__(self, "sample_counts", dict(self.sample_counts))

    def report(self) -> str:
        """Human-readable summary: sample counts, fits, fallbacks."""
        lines = ["extraction report", "=================="]
        for name, desc in _DESCRIPTIONS.items():
            count = self.sample_counts.get(name, 0)
            fit = self.fitted.get(name)
            if fit is None:
                lines.append(
                    f"{name:<18} {desc}: {count} samples, kept default prior"
                )
            else:
                mu, sigma = fit
                lines.append(
                    f"{name:<18} {desc}: {count} samples, "
                    f"mean {mu:.1f} sd {sigma:.1f}"
                )
        return "\n".join(lines)


def collect_samples(
    encounters: Sequence[Encounter],
    pmap: PolygonMap,
    *,
    dist_thresh: float = DEFAULT_GROUND_THRESHOLD,
    params: GeometryParams = GeometryParams(),
    spacing: float | None = None,
) -> dict[str, list[float]]:
    """Per-threshold sample lists from a corpus, in corpus order.

    Keys are the six threshold names plus ``dcpa`` (closest approach for
    every encounter, label aside).  :func:`find_cpa` runs once over the
    corpus; the overtaking and head-on thresholds take their encounters'
    values from it.  ``spacing`` densifies the map in each encounter's frame
    (see :func:`find_dist2grd_cpa`), as ``extract-priors`` does with the
    configured ``map_densify_spacing``.
    """
    encounters = list(encounters)
    for enc in encounters:
        if enc.label is None:
            warnings.warn(
                f"encounter {enc.name!r}: unlabeled, only usable for timing "
                f"and hazard clearances",
                ExtractionWarning,
                stacklevel=2,
            )
    labels = [enc.label for enc in encounters]
    dcpa_all, tcpa_all = find_cpa(encounters)
    sdgs, sdgf = find_dist2grd_cpa(encounters, pmap, dist_thresh, params, spacing)
    return {
        "safe_front_cross": find_isdf_vals(
            [enc for enc in encounters if enc.label == "crossing"]
        ),
        "safe_cpa": [d for d, label in zip(dcpa_all, labels) if label == "overtaking"],
        "safe_midpoint": [d / 2.0 for d, label in zip(dcpa_all, labels) if label == "head-on"],
        "ample_time": tcpa_all,
        "safe_ground_side": sdgs,
        "safe_ground_front": sdgf,
        "dcpa": dcpa_all,
    }


def result_from_samples(
    samples: Mapping[str, list[float]], disc: Discretization = Discretization()
) -> ExtractionResult:
    """Fit whatever the collected samples support (>= 2 values per target)."""
    fitted: dict[str, tuple[float, float] | None] = {}
    counts: dict[str, int] = {}
    for name in _DESCRIPTIONS:
        vals = samples[name]
        counts[name] = len(vals)
        fitted[name] = (
            fit_truncnorm(vals, 0.0, disc.channel(name).upper) if len(vals) >= 2 else None
        )
    return ExtractionResult(
        isdf_vals=tuple(samples["safe_front_cross"]),
        dcpa_vals=tuple(samples["dcpa"]),
        tcpa_vals=tuple(samples["ample_time"]),
        sdgs_vals=tuple(samples["safe_ground_side"]),
        sdgf_vals=tuple(samples["safe_ground_front"]),
        fitted=fitted,
        sample_counts=counts,
    )


def extract_corpus(
    encounters: Sequence[Encounter],
    pmap: PolygonMap,
    disc: Discretization = Discretization(),
    *,
    dist_thresh: float = DEFAULT_GROUND_THRESHOLD,
    params: GeometryParams = GeometryParams(),
) -> ExtractionResult:
    """Run every extraction pass over the corpus and fit what it supports."""
    return result_from_samples(
        collect_samples(encounters, pmap, dist_thresh=dist_thresh, params=params),
        disc,
    )


def priors_from_result(
    result: ExtractionResult,
    disc: Discretization = Discretization(),
    base: IntentionPriors | None = None,
) -> IntentionPriors:
    """Swap fitted thresholds into ``base``, warning where the fit fell back."""
    base = IntentionPriors() if base is None else base
    updates: dict[str, TruncNorm] = {}
    for name, desc in _DESCRIPTIONS.items():
        fit = result.fitted[name]
        if fit is None:
            stock: TruncNorm = getattr(base, name)
            warnings.warn(
                f"{name} ({desc}): {result.sample_counts[name]} samples in "
                f"corpus, keeping default N({stock.mu}, {stock.sigma})",
                ExtractionWarning,
                stacklevel=2,
            )
            continue
        updates[name] = TruncNorm(fit[0], fit[1], 0.0, disc.channel(name).upper)
    return replace(base, **updates)


def build_prior_config(
    encounters: Sequence[Encounter],
    pmap: PolygonMap,
    disc: Discretization = Discretization(),
    *,
    dist_thresh: float = DEFAULT_GROUND_THRESHOLD,
    base: IntentionPriors | None = None,
    params: GeometryParams = GeometryParams(),
) -> IntentionPriors:
    """Fitted priors for the six real-valued thresholds, defaults elsewhere.

    Binary and categorical priors pass through from ``base`` untouched; any
    threshold whose sample list came up short keeps its ``base`` distribution,
    with a warning naming it.
    """
    result = extract_corpus(
        encounters, pmap, disc, dist_thresh=dist_thresh, params=params
    )
    return priors_from_result(result, disc, base)
