"""Online intention inference and candidate-maneuver scoring for one encounter.

A :class:`Session` tracks one reference vessel against a fixed set of obstacle
ships.  Every update appends the latest kinematic states, derives the binned
measurement vector, keeps the time-slice bookkeeping, and produces exact
posteriors over the intention roots together with the probabilities of the
interesting per-slice model nodes.

Exactness without the full sliced network
-----------------------------------------
Running variable elimination over the monolithic sliced network is exact but
becomes intractable as slices accumulate: every slice's compatibility finding
couples all intention roots at once.  The session exploits the structure of
the model instead:

* measurement roots are observed, and the course-change latches and the
  waypoint-maneuver node are deterministic functions of observed values, so
  every per-slice model node collapses to a boolean function of the intention
  roots alone;
* conditioning a slice's ``compatible`` node on ``true`` splits, once we
  branch on ``unmodeled`` and ``ground_intent``, into (a) a constraint on the
  collision-avoidance side (the roots feeding ``colav_ok``/``nav_maneuver_ok``)
  and (b) two independent unary constraints on the grounding thresholds;
* slices are conditionally independent given the roots, so the AND of the
  frozen slices' boolean constraints, kept between steps, is enough to
  answer every query.

Posterior masses combine the three branches (``unmodeled``; modelled with
ground intent; modelled without) in closed form.  The per-node truth tables
come from :func:`~shipintent.bn.truth_table`, the one compiler that also
generates the monolithic network's predicate CPTs, so the two routes read
the same tables and cannot disagree about the logic.

Scoring candidate maneuvers clones the current belief into a detached
single-slice view: the step posteriors enter as virtual evidence on the
intention roots, the candidate's measurements (taken at a configurable
lookahead along its trajectory) act as the slice observation, and the score
is the probability that the slice's ``compatible`` node is true.  Scoring
never mutates the session.

Lumped roots
------------
Each obstacle ship adds a priority and a situation-view root, so the joint
over the collision-avoidance roots grows by a factor of 15 per ship: 6e5
cells at one obstacle, 9e6 at two and 1.35e8 at three with the default ten
bins per threshold.  No step and no score builds an array over it.

A slice observes every measurement, so a node reads a threshold only
through ``meas_bin > thr``, and most values of a root look alike to it.  Two
values share a class when every node that reads the root directly has the
same truth-table slice at both (:meth:`_Layout.lumps`); then, node by node,
every node takes the same value at both (context-specific independence,
Boutilier, Friedman, Goldszmidt & Koller, UAI 1996).  A threshold splits
into at most ``n + 1`` classes per slice; in the encounters measured, the
priority, situation-view and compliance roots never merged.

A step's partition of each root is the common refinement of every slice's
classes, frozen and live (:func:`_refine`).  The session keeps the frozen
slices' evidence as one boolean array over their partition
(:class:`_Frozen`), and every slice's as of the last step, which a new
slice starts from.  When the live slice splits a class, the kept array is
re-indexed along that axis with ``np.take``, which is exact because each
new class lies inside one old class.  The live slice is folded through
every node on one value per class, ``stands_on_ok_i = C or OR_{j!=i} g_j``
(the one node that reads another ship's) included, and its constraint is
ANDed in (:func:`_add_slice`).  The AND is contracted against each class's
weight, the sum of its members' prior weights.  A class's posterior mass is
spread back over its members in proportion to their prior weights, exact
because the likelihood is constant on a class; a class that weighs nothing
gets nothing.  The exported nodes are read on the same array.  The
partition tends back to the full joint as slices pile up, but slowly: at
default bins, a turning two-ship replay holds 4e4 cells at its first slice
that couples the ships and 2e5 at its eighth, a three-ship one 2e6 and 8e6.
The largest array a step builds is one float64 weight per cell of that
joint, so a three-ship step at the eighth such slice peaks near 110 MB.

A candidate is one slice: its constraint is folded on its own classes and
contracted against its virtual evidence, lumped the same way
(:func:`_lumped`).  A boolean AND is exact and every weight non-negative, so
the evidence mass of a contradiction is exactly zero, and only then is the
slice history refolded to name the ship (:func:`_blame`).

Grounding is measured for the live pose and for every candidate's lookahead
pose, so a step on a large hazard map measures seven poses.  Each pose scans
only the vertices within ``reach`` of it, the larger of the two grounding
channels' upper edges: any sector distance at or beyond a channel's upper
edge lands in its last bin, exactly as ``inf`` does, so the bins equal a
full scan's.  The map sorts its vertices once, on the first such query
(:meth:`~shipintent.geometry.PolygonMap.near`), and every session sharing
the map object reuses that index.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import ChainMap
from collections.abc import Iterable, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from . import nodes
from .bn import ContradictionError, truth_table
from .discretize import THRESHOLDS, Discretization, IntentionPriors, real_to_bin
from .geometry import (
    GeometryParams,
    PolygonMap,
    ShipState,
    SpeedTrend,
    Trend,
    Turn,
    Waypoint,
    angle_diff,
    classify_colregs,
    classify_speed,
    classify_turn,
    course_speed_changes,
    cpa_linear,
    cross_front_distance,
    grounding_measurements,
    has_passed,
    midpoint_cpa,
    passing_side,
    waypoint_measurements,
)
from .netbuild import intention_prior_vector, measurement_variables
from .nodes import MeasurementVector, ShipMeasurements, ship

__all__ = [
    "SlicePolicy",
    "IntentionPosterior",
    "StepRecord",
    "CandidateScore",
    "ScoreResult",
    "Session",
    "init_session",
    "should_add_slice",
    "step_update",
    "measure_candidate",
    "score_candidates",
]

# Raw candidate scores below this are treated as flat zero.
SCORE_FLOOR = 1e-12
# A candidate counts as "still turning" at the lookahead point when its course
# changes faster than this (rad/s), probed over the preceding few seconds.
CANDIDATE_TURN_RATE = math.radians(1.0)
CANDIDATE_TURN_PROBE = 5.0

_GROUND_ROOTS = ("safe_ground_side", "safe_ground_front", "ground_intent", "unmodeled")


class CandidateTrack(Protocol):
    """Anything that can report a ship state along a hypothetical track."""

    def state_at(self, t: float) -> ShipState: ...


@dataclass(frozen=True)
class SlicePolicy:
    """When the live time slice freezes and a new one starts.

    A new slice opens once the live one is older than ``max_age`` seconds, or
    earlier (but not before ``min_age``) as soon as any tracked vessel has
    changed course or speed by more than the thresholds since the slice was
    created.
    """

    max_age: float = 60.0
    min_age: float = 10.0
    course_delta: float = math.radians(5.0)
    speed_delta: float = 0.5

    def __post_init__(self) -> None:
        # Each check passes only in range, so NaN and infinity fail it.
        if not (0.0 < self.max_age < math.inf and 0.0 <= self.min_age < math.inf):
            raise ValueError("slice ages must be positive")
        if not (0.0 < self.course_delta < math.inf and 0.0 < self.speed_delta < math.inf):
            raise ValueError("change thresholds must be positive")


@dataclass(frozen=True)
class IntentionPosterior:
    """Posterior marginals over every intention root, keyed by node id."""

    marginals: Mapping[str, tuple[float, ...]]

    def probs(self, node: str) -> tuple[float, ...]:
        return self.marginals[node]

    def p_true(self, node: str) -> float:
        probs = self.marginals[node]
        if len(probs) != 2:
            raise ValueError(f"{node!r} is not a binary intention node")
        return probs[1]


@dataclass(frozen=True)
class StepRecord:
    """One update's outputs: posteriors plus live-slice node probabilities."""

    t: float
    step_index: int
    slice_index: int
    added_slice: bool
    measurements: MeasurementVector
    posterior: IntentionPosterior
    node_probs: Mapping[str, float]


@dataclass(frozen=True)
class CandidateScore:
    index: int
    label: str
    raw: float
    score: float
    measurements: MeasurementVector


@dataclass(frozen=True)
class ScoreResult:
    """Normalized candidate scores; flags the all-incompatible fallback."""

    scores: tuple[CandidateScore, ...]
    all_incompatible: bool


# --------------------------------------------------------------------------
# Root-axis layout and lumped slices
# --------------------------------------------------------------------------


class _Layout:
    """Axis bookkeeping for the joint over the collision-avoidance roots.

    The four grounding/escape roots never mix with the rest (see the module
    docstring), so the joint spans only the thresholds, compliance switches
    and per-ship priority/situation views, one layout axis per root.
    """

    def __init__(
        self,
        n_ships: int,
        priors: IntentionPriors,
        disc: Discretization,
        situations: Sequence | None,
    ) -> None:
        self.n_ships = n_ships
        self.prior_vec: dict[str, np.ndarray] = {
            name: np.asarray(intention_prior_vector(name, priors, disc, situations), dtype=float)
            for name in nodes.intention_ids(n_ships)
        }
        roots = [r for r in nodes.intention_ids(n_ships) if r not in _GROUND_ROOTS]
        # Thresholds go last, ample_time first among them: every large node
        # spans safe_cpa, safe_front_cross and safe_midpoint, and keeping those
        # innermost gives numpy long contiguous runs when it broadcasts.
        self.f_roots = tuple(
            sorted(roots, key=lambda r: (r in THRESHOLDS, r != "ample_time"))
        )
        self.cards = tuple(len(self.prior_vec[r]) for r in self.f_roots)

        self.specs = nodes.model_node_specs(n_ships)
        cards = {v.id: v.cardinality for v in measurement_variables(n_ships, disc)}
        cards.update((r, len(vec)) for r, vec in self.prior_vec.items())
        # Every other parent is a model node or a latch carry: boolean.
        self.tables = {
            spec.node_id: truth_table(spec.predicate, tuple(cards.get(p, 2) for p in spec.parents))
            for spec in self.specs
        }
        # The nodes a slice's constraint and exported nodes read, in
        # registry order; tails[i-1] are those that read ship i's
        # stands_on_ok, which a contradiction's diagnosis refolds.
        self.folded = tuple(
            spec for spec in self.specs
            if spec.node_id not in _SKIP_NODES and not spec.node_id.startswith("ship_compatible_")
        )
        self.stands_on = tuple(ship("stands_on_ok", i) for i in range(1, n_ships + 1))
        self.tails = tuple(_reading(self.folded, (s,)) for s in self.stands_on)
        # The nodes that read each root directly, for lumping its values.
        self.readers = {
            r: tuple(spec for spec in self.specs if r in spec.parents) for r in self.f_roots
        }
        # The live fold's nodes a step reads: the exported ones, the
        # grounding indicators, and the rest read off as they are.
        self.exported = tuple(ship(b, i) for i in range(1, n_ships + 1) for b in _EXPORT_BASES)
        self.live_reads = (*self.exported, "ground_safe_side", "ground_safe_front", *_READ_OFF)

    def lumps(self, observed: Mapping[str, int]) -> tuple[np.ndarray, ...]:
        """Each root's values lumped into the classes one slice cannot tell apart.

        ``observed`` fixes the slice's measurement states and latch carries
        (:func:`_observed`).  Two values of a root share a class when every
        node that reads the root directly has the same truth-table slice at
        both, every parent not observed left free.  Then, node by node in
        registry order, every node takes the same value at both, so a fold
        on one member per class loses nothing (context-specific
        independence, Boutilier et al. UAI 1996).  A threshold is read only
        through ``meas_bin > thr``, so it splits into at most ``n + 1``
        classes.  Returns each value's class per layout axis, the classes
        numbered in the order of their first members.
        """
        labels = []
        for root, card in zip(self.f_roots, self.cards):
            # Per reader, its table with the observed parents fixed and the
            # others free, one row per value of the root.
            rows = []
            for spec in self.readers[root]:
                free = [p for p in spec.parents if p not in observed]
                table = self.tables[spec.node_id][
                    tuple(observed.get(p, slice(None)) for p in spec.parents)
                ]
                rows.append(table.swapaxes(0, free.index(root)).reshape(card, -1))
            keys = np.concatenate(rows, axis=1)
            labels.append(_number(key.tobytes() for key in keys))
        return tuple(labels)


def _number(keys: Iterable) -> np.ndarray:
    """Each key's class, equal keys sharing one, numbered in order of first occurrence."""
    classes: dict = {}
    return np.array([classes.setdefault(key, len(classes)) for key in keys], dtype=np.intp)


def _refine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The common refinement of two labellings of one root's values.

    Two values share a class when they share one in both; the classes are
    numbered in the order of their first members, as :meth:`_Layout.lumps`
    numbers them, so refining by a coarser labelling changes nothing.
    """
    return _number(zip(a.tolist(), b.tolist()))


def _firsts(labels: np.ndarray) -> np.ndarray:
    """Each class's first member, in class order: the value a fold takes for it."""
    return np.unique(labels, return_index=True)[1]


def _weights(
    layout: _Layout, labels: Sequence[np.ndarray], dists: Mapping[str, np.ndarray]
) -> list[np.ndarray]:
    """Per layout axis, each class's weight: the sum of its members' weights in ``dists``."""
    return [np.bincount(label, weights=dists[r]) for r, label in zip(layout.f_roots, labels)]


def _lookup(table: np.ndarray, args: Sequence) -> np.ndarray | int:
    """``table[args]`` for parents that are scalars or broadcast index arrays.

    Scalar parents index the table first.  The array parents, smallest
    first, fold into one small-integer code, so the only operation at the
    broadcast result's size is a single lookup in the flat table.
    """
    sub = table[tuple(slice(None) if isinstance(a, np.ndarray) else a for a in args)]
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if not arrays:
        return int(sub)
    order = sorted(range(len(arrays)), key=lambda k: arrays[k].size)
    sub = sub.transpose(order)
    code_type = np.min_scalar_type(sub.size - 1).type
    code = arrays[order[0]].astype(code_type)
    for k, card in zip(order[1:], sub.shape[1:]):
        code = code * code_type(card) + arrays[k]
    return sub.ravel()[code]


@dataclass(frozen=True)
class _Frozen:
    """Slices' evidence on their common partition of the roots.

    ``labels[j]`` gives each value of layout axis j its class, and ``joint``
    is the AND of the slices' constraints, one cell per class on every
    axis.  ``v_side`` and ``v_front`` are the AND of their grounding
    indicators, one entry per threshold bin.
    """

    labels: tuple[np.ndarray, ...]
    joint: np.ndarray
    v_side: np.ndarray
    v_front: np.ndarray

    @classmethod
    def empty(cls, layout: _Layout) -> _Frozen:
        """No slice's evidence: one class per root, true everywhere."""
        return cls(
            tuple(np.zeros(card, dtype=np.intp) for card in layout.cards),
            np.ones((1,) * len(layout.cards), dtype=bool),
            np.ones(len(layout.prior_vec["safe_ground_side"]), dtype=bool),
            np.ones(len(layout.prior_vec["safe_ground_front"]), dtype=bool),
        )


_SKIP_NODES = {"ground_safe", "compatible"}
_EXPORT_BASES = ("colav_ok", "nav_maneuver_ok", "evasive_ok")
_READ_OFF = ("nav_maneuver", "turned_starboard", "turned_port")


def _reading(
    specs: Sequence[nodes.ModelNodeSpec], seeds: Sequence[str]
) -> tuple[nodes.ModelNodeSpec, ...]:
    """The specs, in order, that read one of ``seeds`` directly or through one another."""
    reached = set(seeds)
    out = []
    for spec in specs:
        if reached.intersection(spec.parents):
            reached.add(spec.node_id)
            out.append(spec)
    return tuple(out)


def _evaluate(
    layout: _Layout,
    specs: Sequence[nodes.ModelNodeSpec],
    values: MutableMapping[str, object],
) -> None:
    """Look each spec up in its truth table on the parent values, in order."""
    for spec in specs:
        values[spec.node_id] = _lookup(
            layout.tables[spec.node_id], [values[p] for p in spec.parents]
        )


def _observed(meas_states: Mapping[str, int], sa_in: int, pa_in: int) -> dict[str, int]:
    """A slice's observed parents: its measurement states and latch carries."""
    return {**meas_states, "turned_starboard_prev": sa_in, "turned_port_prev": pa_in}


def _fold(
    layout: _Layout, observed: Mapping[str, int], reps: Sequence[np.ndarray]
) -> dict[str, object]:
    """Fold one slice's observations through every node its constraint reads.

    Walks the model registry in dependency order, looking each node up in
    its truth table: observed measurements and latch carries
    (:func:`_observed`) enter as integers, the root on layout axis j as the
    values ``reps[j]`` along that axis (one per class, or every value), and
    previously folded nodes as boolean arrays that span only the axes they
    depend on.  The grounding thresholds are not layout axes; they fold as
    vectors of their own.
    """
    values: dict[str, object] = dict(observed)
    rank = len(layout.f_roots)
    for j, (root, vals) in enumerate(zip(layout.f_roots, reps)):
        shape = (1,) * j + (-1,) + (1,) * (rank - 1 - j)
        values[root] = np.asarray(vals, dtype=np.uint8).reshape(shape)
    for root in ("safe_ground_side", "safe_ground_front"):
        values[root] = np.arange(len(layout.prior_vec[root]), dtype=np.uint8)
    _evaluate(layout, layout.folded, values)
    return values


_CAP_BASES = ("colav_ok", "nav_maneuver_ok")


def _cap(values: Mapping[str, object], i: int) -> np.ndarray:
    """Ship ``i``'s cap: its collision-avoidance rules or the planned route explain the slice."""
    return np.logical_or(*(values[ship(b, i)] for b in _CAP_BASES))


def _constraint(layout: _Layout, values: Mapping[str, object]) -> np.ndarray:
    """A folded slice's collision-avoidance constraint: every ship's cap."""
    return functools.reduce(np.logical_and, (_cap(values, i) for i in range(1, layout.n_ships + 1)))


def _ship_tail(
    layout: _Layout,
    values: Mapping[str, object],
    i: int,
    s: int,
) -> Mapping[str, object]:
    """Ship ``i``'s tail nodes with ``stands_on_ok_i`` fixed to ``s``, over ``values``.

    The tail is ``layout.tails[i - 1]``: ``gives_way_ok_i`` and
    ``colav_ok_i``.  Its values go into a scope of their own, so ``values``
    is left as it was.
    """
    scope = ChainMap({layout.stands_on[i - 1]: s}, values)
    _evaluate(layout, layout.tails[i - 1], scope)
    return scope


def _add_slice(
    layout: _Layout, frozen: _Frozen, observed: Mapping[str, int]
) -> tuple[_Frozen, dict[str, object]]:
    """``frozen`` and one more slice's evidence, on their common partition.

    The slice's lumps refine the frozen partition, and the kept array is
    re-indexed along each axis whose classes split.  The slice is folded on
    each class's first member and its constraint ANDed in.  Returns that
    evidence and the slice's fold; ``frozen`` is left as it was.
    """
    labels = tuple(map(_refine, frozen.labels, layout.lumps(observed)))
    reps = [_firsts(label) for label in labels]
    kept = frozen.joint
    for j, (old, first) in enumerate(zip(frozen.labels, reps)):
        if len(first) > kept.shape[j]:
            kept = np.take(kept, old[first], axis=j)
    values = _fold(layout, observed, reps)
    joint = np.empty(tuple(map(len, reps)), dtype=bool)
    np.logical_and(kept, _constraint(layout, values), out=joint)
    v_side = frozen.v_side & np.asarray(values["ground_safe_side"], dtype=bool)
    v_front = frozen.v_front & np.asarray(values["ground_safe_front"], dtype=bool)
    return _Frozen(labels, joint, v_side, v_front), values


def _lumped(
    layout: _Layout, dists: Mapping[str, np.ndarray], observed: Mapping[str, int]
) -> tuple[float, dict[str, object]]:
    """A candidate slice's constraint weight under ``dists``, and its fold.

    The slice is folded on its own lumped roots, one value per class
    (:meth:`_Layout.lumps`), and each class weighs its members' summed
    weights in ``dists``.
    """
    labels = layout.lumps(observed)
    values = _fold(layout, observed, [_firsts(label) for label in labels])
    return _weigh(_constraint(layout, values), _weights(layout, labels, dists)), values


def _weigh(arr: np.ndarray, weights: Sequence[np.ndarray]) -> float:
    """Weighted sum of a boolean array over the layout axes, one weight vector per axis.

    Axes of length one are those the array does not span; they are summed
    out of the weight instead of being broadcast.
    """
    out = np.asarray(arr, dtype=np.float64)
    for vec in reversed(weights):
        out = out @ vec if out.shape[-1] > 1 else out[..., 0] * vec.sum()
    return float(out)


def _weighted(joint: np.ndarray, weights: Sequence[np.ndarray]) -> np.ndarray:
    """``joint`` in float64, each cell times its classes' weights."""
    out = joint.astype(np.float64)
    for j, vec in enumerate(weights):
        out *= vec.reshape((1,) * j + (-1,) + (1,) * (out.ndim - 1 - j))
    return out


def _within(weighted: np.ndarray, arr: np.ndarray) -> float:
    """The weight of ``arr`` within a :func:`_weighted` joint.

    The joint is first summed over the axes ``arr`` does not span, then
    over the cells where ``arr`` holds, with no temporary of its size.
    """
    unit = tuple(j for j, n in enumerate(arr.shape) if n < weighted.shape[j])
    part = weighted.sum(axis=unit, keepdims=True) if unit else weighted
    return float(part.sum(where=arr))


def _spread(
    masses: np.ndarray, weights: np.ndarray, labels: np.ndarray, prior: np.ndarray
) -> np.ndarray:
    """Class masses spread over their members in proportion to ``prior``.

    A class that weighs nothing gets nothing.
    """
    per_weight = np.divide(masses, weights, out=np.zeros_like(masses), where=weights > 0.0)
    return prior * per_weight[labels]


def _loose(layout: _Layout, values: Mapping[str, object], i: int) -> np.ndarray:
    """Ship ``i``'s cap at any value of ``stands_on_ok_i`` the slice leaves open.

    ``stands_on_ok_i = C or OR_{j!=i} g_j`` is the observed ``C`` (course
    straight and speed unchanged, :func:`~shipintent.nodes.course_held`)
    when ``C`` holds or with one ship; otherwise both values are open.
    """
    held = nodes.course_held(*(values[p] for p in nodes.COURSE_HELD_PARENTS))
    if held or layout.n_ships == 1:
        return _cap(values, i)
    return np.logical_or(*(_cap(_ship_tail(layout, values, i, s), i) for s in (0, 1)))


def _blame(
    layout: _Layout,
    labels: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
    history: Iterable[Mapping[str, int]],
) -> str:
    """The node a contradiction names.

    ``history`` holds every slice's observed parents, frozen and live; each
    is refolded on the step's partition (``labels``).  The node is
    ``ship_compatible_i`` (ship i's cap) if ship i's caps over every slice,
    each at any value of ``stands_on_ok_i`` the slice leaves open
    (:func:`_loose`), hold together nowhere the prior weighs: then nothing
    explains the slices, whatever the other ships do.  Else ``compatible``.
    """
    reps = [_firsts(label) for label in labels]
    folds = [_fold(layout, observed, reps) for observed in history]
    for i in range(1, layout.n_ships + 1):
        caps = functools.reduce(np.logical_and, (_loose(layout, v, i) for v in folds))
        if _weigh(caps, weights) == 0.0:
            return ship("ship_compatible", i)
    return "compatible"


def _branch_masses(
    p_u: float, p_g: float, z_f: float, z_s: float, z_fr: float
) -> tuple[float, float, float]:
    """Evidence mass of the three branches: unmodeled / ground / modelled."""
    a_u = p_u
    a_g = (1.0 - p_u) * z_f * p_g
    a_s = (1.0 - p_u) * z_f * (1.0 - p_g) * z_s * z_fr
    return a_u, a_g, a_s


def _distribution(masses: np.ndarray) -> tuple[float, ...]:
    """Normalise non-negative masses by their own sum, so every entry is in [0, 1]."""
    masses = np.asarray(masses, dtype=float)
    return tuple((masses / masses.sum()).tolist())


def _unit(p: float) -> float:
    """A probability formed from separately rounded sums, clipped back into [0, 1]."""
    return min(1.0, max(0.0, p))


def _posterior_bundle(
    layout: _Layout,
    evidence: _Frozen,
    values: Mapping[str, object],
    history: Iterable[Mapping[str, int]],
) -> tuple[IntentionPosterior, dict[str, float]]:
    """Exact posteriors and live-node probabilities of one step.

    ``evidence`` holds every slice, the live one included, and ``values``
    is the live slice's fold on the same partition (:func:`_add_slice`),
    read only at ``layout.live_reads``.  ``history`` is read only to name a
    contradiction (:func:`_blame`).
    """
    weights = _weights(layout, evidence.labels, layout.prior_vec)
    # The exported nodes' prior weights first: each converts its node to
    # float64 for a moment, and no such copy then meets the weighted joint.
    e_prior = {name: _weigh(values[name], weights) for name in layout.exported}
    weighted = _weighted(evidence.joint, weights)
    z_f = float(weighted.sum())

    pi_s = layout.prior_vec["safe_ground_side"]
    pi_f = layout.prior_vec["safe_ground_front"]
    u_s = pi_s * evidence.v_side
    u_f = pi_f * evidence.v_front
    z_s, z_fr = float(u_s.sum()), float(u_f.sum())

    p_u = float(layout.prior_vec["unmodeled"][1])
    p_g = float(layout.prior_vec["ground_intent"][1])
    a_u, a_g, a_s = _branch_masses(p_u, p_g, z_f, z_s, z_fr)
    total = a_u + a_g + a_s
    if total <= 0.0:
        blamed = _blame(layout, evidence.labels, weights, history) if z_f <= 0.0 else "compatible"
        raise ContradictionError(
            "no intention assignment explains the observed behaviour", diagnosis=blamed
        )

    rest = 1.0 - p_u
    marg: dict[str, tuple[float, ...]] = {}
    f_weight = rest * (p_g + (1.0 - p_g) * z_s * z_fr)
    axes = range(weighted.ndim)
    for j, (root, labels, w) in enumerate(zip(layout.f_roots, evidence.labels, weights)):
        prior = layout.prior_vec[root]
        m_root = _spread(weighted.sum(axis=tuple(k for k in axes if k != j)), w, labels, prior)
        marg[root] = _distribution(a_u * prior + f_weight * m_root)
    no_ground_intent = rest * z_f * (1.0 - p_g)
    marg["safe_ground_side"] = _distribution((a_u + a_g) * pi_s + no_ground_intent * z_fr * u_s)
    marg["safe_ground_front"] = _distribution((a_u + a_g) * pi_f + no_ground_intent * z_s * u_f)
    g_true = p_g * (p_u + rest * z_f)
    g_false = (1.0 - p_g) * (p_u + rest * z_f * z_s * z_fr)
    marg["ground_intent"] = _distribution([g_false, g_true])
    marg["unmodeled"] = _distribution([a_g + a_s, a_u])
    ordered = {name: marg[name] for name in nodes.intention_ids(layout.n_ships)}

    node_probs: dict[str, float] = {}
    post_weight = a_g + a_s
    for name in layout.exported:
        e_post = _within(weighted, values[name]) / z_f if z_f > 0.0 else 0.0
        node_probs[name] = _unit((a_u * e_prior[name] + post_weight * e_post) / total)
    s_live = float((pi_s * values["ground_safe_side"]).sum())
    f_live = float((pi_f * values["ground_safe_front"]).sum())
    node_probs["ground_safe_side"] = _unit(((a_u + a_g) * s_live + a_s) / total)
    node_probs["ground_safe_front"] = _unit(((a_u + a_g) * f_live + a_s) / total)
    for name in _READ_OFF:
        node_probs[name] = float(values[name])
    return IntentionPosterior(ordered), node_probs


# --------------------------------------------------------------------------
# Session state
# --------------------------------------------------------------------------


@dataclass
class _SliceState:
    created_t: float
    # The own ship's and every obstacle's state when the slice opened.
    base: tuple[ShipState, ...]
    sa_in: int
    pa_in: int
    meas: MeasurementVector | None = None


class Session:
    """Belief state over one encounter; build with :func:`init_session`."""

    def __init__(
        self,
        own: ShipState,
        obstacles: Sequence[ShipState],
        *,
        priors: IntentionPriors,
        disc: Discretization,
        geom: GeometryParams,
        policy: SlicePolicy,
        lookahead: float,
        hazard: PolygonMap | None,
        waypoint: Waypoint | None,
    ) -> None:
        if not obstacles:
            raise ValueError("a session needs at least one obstacle ship")
        _check_states(own, obstacles)
        if not 0.0 <= lookahead < math.inf:
            raise ValueError("lookahead must be finite and non-negative")
        self.priors = priors
        self.disc = disc
        self.geom = geom
        self.policy = policy
        self.lookahead = lookahead
        self.hazard = hazard
        self.waypoint = waypoint
        self.n_ships = len(obstacles)
        self.anchors = tuple(classify_colregs(own, obs, geom) for obs in obstacles)
        self.layout = _Layout(self.n_ships, priors, disc, self.anchors)

        self._own: list[ShipState] = []
        self._obstacles: list[list[ShipState]] = [[] for _ in obstacles]
        self._slices: list[_SliceState] = []
        # The frozen slices' evidence, every slice's as of the last step,
        # and the latches the live slice carries out.
        self._frozen = self._evidence = _Frozen.empty(self.layout)
        self._latches = (nodes.FALSE, nodes.FALSE)
        self.records: list[StepRecord] = []
        self._advance(own, obstacles, added_slice=False)

    # -- read-only views ---------------------------------------------------

    @property
    def now(self) -> float:
        return self._own[-1].t

    @property
    def own_state(self) -> ShipState:
        return self._own[-1]

    @property
    def obstacle_states(self) -> tuple[ShipState, ...]:
        return tuple(track[-1] for track in self._obstacles)

    @property
    def start_course(self) -> float:
        return self._own[0].cog

    @property
    def start_sog(self) -> float:
        return self._own[0].sog

    @property
    def slice_count(self) -> int:
        return len(self._slices)

    @property
    def last_record(self) -> StepRecord:
        return self.records[-1]

    def slice_measurements(self) -> tuple[MeasurementVector, ...]:
        """Final (frozen) or current (live) measurement vector per slice."""
        return tuple(s.meas for s in self._slices if s.meas is not None)

    def slice_carries(self) -> tuple[tuple[int, int], ...]:
        """Latch carry-in states (turned starboard/port) per slice."""
        return tuple((s.sa_in, s.pa_in) for s in self._slices)

    # -- measurement assembly ----------------------------------------------

    def _ship_block(self, ref: ShipState, obs: ShipState) -> ShipMeasurements:
        tcpa, dcpa = cpa_linear(ref, obs)
        front = cross_front_distance(ref, obs)
        mid_dist, mid_side = midpoint_cpa(ref, obs)
        return ShipMeasurements(
            dcpa_bin=real_to_bin(dcpa, self.disc.channel("meas_dcpa")),
            front_cross_bin=real_to_bin(front, self.disc.channel("meas_front_cross")),
            midpoint_bin=real_to_bin(mid_dist, self.disc.channel("meas_midpoint_dist")),
            tcpa_bin=real_to_bin(tcpa, self.disc.channel("meas_tcpa")),
            passed=has_passed(ref, obs),
            pass_side=passing_side(ref, obs),
            midpoint_side=mid_side,
            situation=classify_colregs(ref, obs, self.geom),
        )

    def _ground_bins(self, state: ShipState) -> tuple[int, int, int]:
        if self.hazard is None or self.hazard.is_empty:
            sb = ps = fr = math.inf
        else:
            reach = max(self.disc.ground_side.upper, self.disc.ground_front.upper)
            sb, ps, fr = grounding_measurements(state, self.hazard, self.geom, reach)
        return (
            real_to_bin(sb, self.disc.channel("meas_ground_sb")),
            real_to_bin(ps, self.disc.channel("meas_ground_ps")),
            real_to_bin(fr, self.disc.channel("meas_ground_front")),
        )

    def _assemble(
        self,
        pose: ShipState,
        obstacles: Sequence[ShipState],
        changes: tuple[Turn, SpeedTrend, bool],
        wp_history: Sequence[ShipState],
        wp_geom: GeometryParams,
    ) -> MeasurementVector:
        """One slice's evidence, observed from ``pose``.

        ``changes`` is the (course change, speed change, still-turning)
        triple; the waypoint trends read ``wp_history`` with ``wp_geom``'s
        window.  Live steps and candidate maneuvers both measure through here.
        """
        cic, cis, ccc = changes
        sb_bin, ps_bin, fr_bin = self._ground_bins(pose)
        if self.waypoint is None:
            wprb = wprd = Trend.NEITHER
            ahead = False
        else:
            wprb, wprd, ahead = waypoint_measurements(wp_history, self.waypoint, wp_geom)
        return MeasurementVector(
            ships=tuple(self._ship_block(pose, obs) for obs in obstacles),
            course_change=cic,
            speed_change=cis,
            course_changing=ccc,
            ground_sb_bin=sb_bin,
            ground_ps_bin=ps_bin,
            ground_front_bin=fr_bin,
            wp_bearing=wprb,
            wp_distance=wprd,
            wp_ahead=ahead,
        )

    # -- slice lifecycle and posteriors --------------------------------------

    def _advance(
        self, own: ShipState, obstacles: Sequence[ShipState], added_slice: bool
    ) -> StepRecord:
        """Compute the step for the incoming states, then commit it.

        Everything that can fail (measurement, folding, a contradiction in
        the posterior bundle) runs before the first write to the session, so
        a rejected update leaves it exactly as it was.
        """
        new_slice = added_slice or not self._slices
        if new_slice:  # the live slice, if any, freezes
            frozen, frozen_slices = self._evidence, self._slices
            live = _SliceState(own.t, (own, *obstacles), *self._latches)
        else:
            frozen, frozen_slices = self._frozen, self._slices[:-1]
            live = self._slices[-1]
        own_track = [*self._own, own]
        changes = course_speed_changes(own_track, self.geom)
        meas = self._assemble(own, obstacles, changes, own_track, self.geom)
        observed = _observed(meas.as_states(), live.sa_in, live.pa_in)
        evidence, values = _add_slice(self.layout, frozen, observed)
        # Only the nodes the bundle and the latches read stay alive while the
        # bundle builds its float64 joint.
        values = {name: values[name] for name in self.layout.live_reads}
        # Every slice's observed parents, built only if a contradiction is named.
        history = itertools.chain(
            (_observed(s.meas.as_states(), s.sa_in, s.pa_in) for s in frozen_slices), [observed]
        )
        posterior, node_probs = _posterior_bundle(self.layout, evidence, values, history)

        if new_slice:
            self._slices.append(live)
        live.meas = meas
        self._frozen, self._evidence = frozen, evidence
        self._latches = int(values["turned_starboard"]), int(values["turned_port"])
        self._own = own_track
        for track, obs in zip(self._obstacles, obstacles):
            track.append(obs)
        record = StepRecord(
            t=own.t,
            step_index=len(self.records),
            slice_index=len(self._slices) - 1,
            added_slice=added_slice,
            measurements=meas,
            posterior=posterior,
            node_probs=node_probs,
        )
        self.records.append(record)
        return record

    def state_hash(self) -> str:
        """Digest of the full belief state; scoring must leave it unchanged."""
        h = hashlib.sha256()
        h.update(f"{self.n_ships},{self.disc.cpa.bins},{len(self.records) - 1}".encode())
        for track in [self._own, *self._obstacles]:
            arr = np.array([(s.t, s.x, s.y, s.sog, s.cog) for s in track], dtype=np.float64)
            h.update(arr.tobytes())
        for s in self._slices:
            h.update(f"{s.created_t},{s.sa_in},{s.pa_in}".encode())
            if s.meas is not None:
                h.update(repr(sorted(s.meas.as_states().items())).encode())
        frozen = self._frozen
        for arr in (*frozen.labels, frozen.joint, frozen.v_side, frozen.v_front):
            h.update(f"{arr.shape}".encode() + arr.tobytes())
        record = self.last_record
        for name, probs in record.posterior.marginals.items():
            h.update(name.encode())
            h.update(np.asarray(probs, dtype=np.float64).tobytes())
        for name in sorted(record.node_probs):
            h.update(name.encode())
            h.update(np.float64(record.node_probs[name]).tobytes())
        return h.hexdigest()


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


def init_session(
    own: ShipState,
    obstacles: Sequence[ShipState],
    *,
    priors: IntentionPriors | None = None,
    disc: Discretization | None = None,
    geom: GeometryParams | None = None,
    policy: SlicePolicy | None = None,
    lookahead: float = 60.0,
    hazard: PolygonMap | None = None,
    waypoint: Waypoint | None = None,
) -> Session:
    """Open a session at the first observation of an encounter.

    The situation each obstacle presents right now anchors that ship's
    situation-view prior for the whole session; the initial states also pin
    the course/speed baselines that the turn and speed-change measurements
    are judged against.
    """
    return Session(
        own,
        obstacles,
        priors=priors or IntentionPriors(),
        disc=disc or Discretization(),
        geom=geom or GeometryParams(),
        policy=policy or SlicePolicy(),
        lookahead=lookahead,
        hazard=hazard,
        waypoint=waypoint,
    )


def should_add_slice(session: Session, own: ShipState, obstacles: Sequence[ShipState]) -> bool:
    """Apply the slice policy to the incoming states."""
    live = session._slices[-1]
    age = own.t - live.created_t
    policy = session.policy
    if age > policy.max_age:
        return True
    if age < policy.min_age:
        return False
    for base, state in zip(live.base, (own, *obstacles)):
        if abs(angle_diff(state.cog, base.cog)) > policy.course_delta:
            return True
        if abs(state.sog - base.sog) > policy.speed_delta:
            return True
    return False


def _check_states(own: ShipState, obstacles: Sequence[ShipState]) -> None:
    """Reject non-finite states and obstacle clocks off the reference timestamp."""
    for state in (own, *obstacles):
        if not all(math.isfinite(v) for v in (state.t, state.x, state.y, state.sog, state.cog)):
            raise ValueError(f"ship states must be finite, got {state}")
        if state.t != own.t:
            raise ValueError("obstacle states must carry the reference timestamp")


def step_update(session: Session, own: ShipState, obstacles: Sequence[ShipState]) -> StepRecord:
    """Ingest one synchronized set of states and return the updated beliefs.

    The update is atomic: if it raises, the session is left unchanged.
    """
    if len(obstacles) != session.n_ships:
        raise ValueError(
            f"expected {session.n_ships} obstacle states, got {len(obstacles)}"
        )
    _check_states(own, obstacles)
    if own.t <= session.now:
        raise ValueError("updates must move strictly forward in time")
    added = should_add_slice(session, own, obstacles)
    return session._advance(own, obstacles, added_slice=added)


def measure_candidate(
    session: Session, candidate: CandidateTrack, *, lookahead: float | None = None
) -> MeasurementVector:
    """Measurement vector a candidate maneuver would produce.

    The candidate is evaluated at ``lookahead`` seconds from now: obstacle
    ships are extrapolated at constant velocity to that instant, the
    relative-motion measurements are taken there, the course/speed
    classifications compare the candidate's lookahead state against the
    session's initial baselines, and the waypoint trends compare it against
    the candidate's state now.
    """
    horizon = session.lookahead if lookahead is None else lookahead
    if not 0.0 <= horizon < math.inf:
        raise ValueError("lookahead must be finite and non-negative")
    t_now = session.now
    t_la = t_now + horizon
    cand_now = candidate.state_at(t_now)
    cand_la = candidate.state_at(t_la)
    obstacles_la = [obs.advanced(t_la - obs.t) for obs in session.obstacle_states]

    geom = session.geom
    probe_dt = min(CANDIDATE_TURN_PROBE, horizon)
    if probe_dt > 0.0:
        probe = candidate.state_at(t_la - probe_dt)
        ccc = abs(angle_diff(cand_la.cog, probe.cog)) / probe_dt > CANDIDATE_TURN_RATE
    else:
        ccc = False
    changes = (
        classify_turn(cand_la.cog, session.start_course, geom.course_change_threshold),
        classify_speed(cand_la.sog, session.start_sog, geom.speed_change_threshold),
        ccc,
    )
    return session._assemble(
        cand_la, obstacles_la, changes, [cand_now, cand_la], replace(geom, wp_window=horizon)
    )


def _virtual_root_dists(layout: _Layout, posterior: IntentionPosterior) -> dict[str, np.ndarray]:
    """Per-root distributions after posteriors re-enter as virtual evidence."""
    out: dict[str, np.ndarray] = {}
    for name, prior in layout.prior_vec.items():
        weighted = prior * np.asarray(posterior.marginals[name], dtype=float)
        total = weighted.sum()
        if total <= 0.0:
            raise ContradictionError(
                f"virtual evidence on {name!r} has no overlap with its prior", diagnosis=name
            )
        out[name] = weighted / total
    return out


def score_candidates(
    session: Session,
    candidates: Sequence[CandidateTrack],
    *,
    lookahead: float | None = None,
) -> ScoreResult:
    """Rank candidate maneuvers by compatibility with the inferred intentions.

    Each candidate's raw score is the probability that a detached, single
    time slice observing the candidate's lookahead measurements (with the
    current turn latches carried in and the step posteriors applied as
    virtual evidence on the intention roots) finds the maneuver compatible.
    It is contracted on the candidate's lumped roots: one value per class of
    values its truth tables cannot tell apart, weighted by the class's summed
    virtual evidence (:func:`_lumped`), which regroups the same non-negative
    sums.  Raw scores below :data:`SCORE_FLOOR` clamp to zero; if every
    candidate clamps, the normalized scores fall back to uniform and the
    result is flagged ``all_incompatible``.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate to score")
    layout = session.layout
    dists = _virtual_root_dists(layout, session.last_record.posterior)
    rho_u = float(dists["unmodeled"][1])
    rho_g = float(dists["ground_intent"][1])
    latches = session._latches

    raw_by_states: dict[tuple[int, ...], float] = {}
    raws: list[float] = []
    vectors: list[MeasurementVector] = []
    for cand in candidates:
        meas = measure_candidate(session, cand, lookahead=lookahead)
        states = meas.as_states()
        key = tuple(states.values())
        if key not in raw_by_states:
            z_f, values = _lumped(layout, dists, _observed(states, *latches))
            z_s = float((dists["safe_ground_side"] * values["ground_safe_side"]).sum())
            z_fr = float((dists["safe_ground_front"] * values["ground_safe_front"]).sum())
            raw = sum(_branch_masses(rho_u, rho_g, z_f, z_s, z_fr))
            raw_by_states[key] = 0.0 if raw < SCORE_FLOOR else raw
        raws.append(raw_by_states[key])
        vectors.append(meas)

    total = sum(raws)
    all_incompatible = total <= 0.0
    scores = tuple(
        CandidateScore(
            index=i,
            label=str(getattr(cand, "label", None) or i),
            raw=raw,
            score=(1.0 / len(raws)) if all_incompatible else raw / total,
            measurements=meas,
        )
        for i, (cand, raw, meas) in enumerate(zip(candidates, raws, vectors))
    )
    return ScoreResult(scores=scores, all_incompatible=all_incompatible)
