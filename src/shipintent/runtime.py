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
* slices are conditionally independent given the roots, so each frozen
  slice contributes one cached boolean message and the running products are
  enough to answer every query.

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

Cost and memory
---------------
Each obstacle ship adds a priority and a situation-view root, so the joint
over the collision-avoidance roots grows by a factor of 15 per ship: 6e5
cells at one obstacle, 9e6 at two and 1.35e8 at three with the default ten
bins per threshold.  A step keeps booleans dense over it (the frozen
constraint and the live slice's constraint, one byte a cell: 0.6 MB, 9 MB
and 135 MB); the prior stays one vector per root.  Every marginal and node
expectation contracts a boolean joint against those vectors, which is
variable elimination over a product-form prior (Koller & Friedman 2009,
ch. 9-10): the joint is read as a matrix, ship views and compliance switches
by thresholds, and multiplied by the vectors of each block.  A step reads
the frozen and live constraints once (:meth:`_Product.joint_sums`): block by
block of whole rows, it ANDs them, converts the result to float64 once and
takes from it the evidence mass, every root marginal and each exported
node's posterior weight.  A node that spans the whole joint (``colav_ok``)
is multiplied with the float block; one that does not span ``ample_time``
(``nav_maneuver_ok``, ``evasive_ok``) meets the block after ``ample_time``
is summed out, a tenth of the cells.  Each block of an operand is a view of
it, so the pass builds no array over the joint: its scratch is a few
block-sized buffers, about 1.2 MB whatever the ship count (see
:data:`_CHUNK_CELLS`), plus one float per row for each sum it keeps.

Nodes are looked up in their truth tables on the axes they actually depend
on, and no lookup spans the joint.  ``stands_on_ok_i = C or OR_{j!=i} g_j``
is the only node that reads another ship's nodes (``C``: course straight
and speed unchanged, observed; ``g_j``: giving way to ship j).  Fixed to 0
or 1, it leaves its readers, ``gives_way_ok_i`` and ``colav_ok_i``, and so
ship i's cap (``colav_ok_i or nav_maneuver_ok_i``) on the shared axes
(compliance switches and thresholds, 4e4 cells) and ship i's own two, 6e5
cells: context-specific independence (Boutilier, Friedman, Goldszmidt &
Koller, UAI 1996).  As ``g_i`` makes ship i's tail ignore it, every ship
reads one shared switch, ``C or G`` with ``G = OR_j g_j``.  When ``C``
holds, or with one ship, the switch is ``C``, and the one array over the
joint is ``f_side``, the AND of the caps.  Otherwise each ship's tail is
evaluated at ``s = 0`` and ``s = 1`` and the joint-sized ``colav_ok_i``
and cap take one or the other cell by cell, by ``G``, in logical
operations on one buffer; that adds one boolean joint per ship (9 MB each
at two ships).  See :func:`_slice_message`.

Scoring builds no array over more than one ship's axes: ``not G = AND_i
not g_i`` splits ship by ship, so a candidate's weight is a closed form in
per-ship sums.  A candidate costs about ``n * 6e5`` cells instead of
``4e4 * 15**n``: when ``C`` holds, or with one ship, one cap and one sum
over its axes per ship; otherwise both caps and three sums.  At two ships
the scratch stays under 6 MB, where one boolean joint alone is 9 MB.  See
:func:`_factored_z_f`.

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
import math
from collections import ChainMap
from collections.abc import Iterator, Mapping, MutableMapping, Sequence
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
        if self.max_age <= 0.0 or self.min_age < 0.0:
            raise ValueError("slice ages must be positive")
        if self.course_delta <= 0.0 or self.speed_delta <= 0.0:
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
# Root-axis layout and per-slice messages
# --------------------------------------------------------------------------

# Joint cells per block that a contraction converts to float64 (and per
# chunk that a packed table lookup shifts).  A block holds whole rows, at
# least one: the bins**4 cells of the threshold block, so it has at most
# max(_CHUNK_CELLS, bins**4) cells.  The one-pass step sums hold three
# buffers of that size, the boolean AND (one byte a cell), its float64 copy
# and one float64 buffer the whole-joint nodes share, plus two float64
# blocks with ample_time summed out (a bins-th of the cells each).  That is
# about 1.2 MB whatever the ship count, up to 16 bins per threshold.
_CHUNK_CELLS = 1 << 16


class _Product:
    """A product-form weight over the layout joint, kept as one vector per axis.

    A dense boolean array over the joint is contracted against it as a
    matrix whose rows are the cells of the first ``split`` axes and whose
    columns are the cells of the rest.  The rows are cut into blocks of about
    :data:`_CHUNK_CELLS` cells, each converted to float64 on its own, so no
    dense float joint is ever built.  A block fixes the leading row axes,
    takes a run of the ``cut`` axis and every later axis whole, so the block
    of an array that broadcasts over some axes is a view of it, never a copy.
    """

    def __init__(self, vecs: Sequence[np.ndarray], split: int) -> None:
        self.vecs = tuple(np.asarray(v, dtype=float) for v in vecs)
        self.shape = tuple(len(v) for v in self.vecs)
        self.split = split
        self.rows = functools.reduce(np.multiply.outer, self.vecs[:split], np.ones(())).ravel()
        self.cols = functools.reduce(np.multiply.outer, self.vecs[split:], np.ones(())).ravel()
        self.cut = next(
            (j for j in range(split) if math.prod(self.shape[j + 1 :]) <= _CHUNK_CELLS), split - 1
        )
        tail = self.shape[self.cut + 1 :]
        step = min(self.shape[self.cut], max(1, _CHUNK_CELLS // math.prod(tail)))
        self.block_shape = (step, *tail)

    def blocks(self) -> Iterator[tuple[tuple, slice]]:
        """Each block's index (see :func:`_block`) and its span of :attr:`rows`, in row order."""
        step = self.block_shape[0]
        per_run = math.prod(self.shape[self.cut + 1 : self.split])
        r0 = 0
        for lead in np.ndindex(self.shape[: self.cut]):
            for s in range(0, self.shape[self.cut], step):
                run = slice(s, min(s + step, self.shape[self.cut]))
                r1 = r0 + (run.stop - s) * per_run
                yield (*lead, run), slice(r0, r1)
                r0 = r1

    def expect(self, arr: np.ndarray) -> float:
        """Weighted sum of a boolean array laid out on the joint's axes.

        Axes of length one are those the array does not touch; they are
        summed out of the weight instead of being broadcast.  A large array
        is contracted a block at a time, as the joint ``arr & arr``.
        """
        if arr.size > _CHUNK_CELLS:
            return self.joint_sums(arr, arr, {})[0]
        out = np.asarray(arr, dtype=np.float64)
        for vec in reversed(self.vecs):
            out = out @ vec if out.shape[-1] > 1 else out[..., 0] * vec.sum()
        return float(out)

    def joint_sums(
        self, a: np.ndarray, b: np.ndarray, arrays: Mapping[str, np.ndarray]
    ) -> tuple[float, list[np.ndarray], dict[str, float], dict[str, float]]:
        """Weights of the joint ``a & b`` and of every array in it, in one pass.

        Returns the joint's total weight, its marginal weight on every axis,
        and per array the weight of ``a & b & arr`` (posterior) and of
        ``arr`` alone (prior).  Each block of ``a & b`` is ANDed into one
        boolean scratch and converted to float64 once.  An array that spans
        the first column axis is converted a block at a time too and
        multiplied with the float block.  One that does not meets the block
        after that axis is summed out, a tenth of the cells at ten bins; its
        prior weight is a small contraction of its own (:meth:`expect`).
        """
        n_cols, n_first = len(self.cols), self.shape[self.split]
        rest = functools.reduce(np.multiply.outer, self.vecs[self.split + 1 :], np.ones(())).ravel()
        wide = [name for name, arr in arrays.items() if arr.shape[self.split] > 1]
        narrow = [name for name in arrays if name not in wide]
        reduced_shape = list(self.block_shape)
        reduced_shape[self.split - self.cut] = 1
        mask = np.empty(self.block_shape, dtype=bool)
        buf, scratch = np.empty(self.block_shape), np.empty(self.block_shape)
        reduced_scratch = np.empty(reduced_shape)
        # Unweighted sums per row, weighted by the rows after the pass.
        left, right = np.empty(len(self.rows)), np.zeros(n_cols)
        prior = {name: np.empty(len(self.rows)) for name in wide}
        post = {name: np.empty(len(self.rows)) for name in arrays}
        for index, rows in self.blocks():
            m = index[-1].stop - index[-1].start
            np.logical_and(_block(a, index), _block(b, index), out=mask[:m])
            block, tmp = buf[:m], scratch[:m]
            np.copyto(block, mask[:m])
            mat = block.reshape(-1, n_cols)
            left[rows] = mat @ self.cols
            right += self.rows[rows] @ mat
            for name in wide:
                np.copyto(tmp, _block(arrays[name], index))
                prior[name][rows] = tmp.reshape(-1, n_cols) @ self.cols
                np.multiply(tmp, block, out=tmp)
                post[name][rows] = tmp.reshape(-1, n_cols) @ self.cols
            if narrow:
                summed = self.vecs[self.split] @ mat.reshape(-1, n_first, len(rest))
                summed = summed.reshape(m, *reduced_shape[1:])
                tmp = reduced_scratch[:m]
                for name in narrow:
                    np.multiply(summed, _block(arrays[name], index), out=tmp)
                    post[name][rows] = tmp.reshape(-1, len(rest)) @ rest

        marginals: list[np.ndarray] = []
        for weights in (
            (self.rows * left).reshape(self.shape[: self.split]),
            (self.cols * right).reshape(self.shape[self.split :]),
        ):
            for j in range(weights.ndim):
                marginals.append(weights.sum(axis=tuple(k for k in range(weights.ndim) if k != j)))
        prior_sums = {name: float(self.rows @ prior[name]) for name in wide}
        prior_sums.update((name, self.expect(arrays[name])) for name in narrow)
        post_sums = {name: float(self.rows @ per_row) for name, per_row in post.items()}
        return float(self.rows @ left), marginals, post_sums, prior_sums


def _block(arr: np.ndarray, index: tuple) -> np.ndarray:
    """The view of ``arr`` at a :meth:`_Product.blocks` index.

    ``arr`` has the joint's rank and broadcasts to it; its axes of length
    one stay length one, so the view still broadcasts to the block.
    """
    *lead, run = index
    pick = tuple(j if n > 1 else 0 for j, n in zip(lead, arr.shape))
    return arr[(*pick, run if arr.shape[len(lead)] > 1 else slice(None))]


class _Layout:
    """Axis bookkeeping for the joint over the collision-avoidance roots.

    The four grounding/escape roots never mix with the rest (see the module
    docstring), so the joint spans only the thresholds, compliance switches
    and per-ship priority/situation views.  The compliance switches and ship
    views form the row block of every contraction, the thresholds the columns.
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
        rank = len(self.f_roots)
        self.axis_arrays = {
            r: np.arange(card, dtype=np.uint8).reshape((1,) * j + (-1,) + (1,) * (rank - 1 - j))
            for j, (r, card) in enumerate(zip(self.f_roots, self.cards))
        }
        split = sum(r not in THRESHOLDS for r in self.f_roots)
        self.prior = _Product([self.prior_vec[r] for r in self.f_roots], split)

        self.specs = nodes.model_node_specs(n_ships)
        cards = {v.id: v.cardinality for v in measurement_variables(n_ships, disc)}
        cards.update((r, len(vec)) for r, vec in self.prior_vec.items())
        # Every other parent is a model node or a latch carry: boolean.
        self.tables = {
            spec.node_id: truth_table(spec.predicate, tuple(cards.get(p, 2) for p in spec.parents))
            for spec in self.specs
        }
        self.gives_way_table = truth_table(nodes.gives_way_to, (2,) * len(nodes.GIVES_WAY_BASES))

        # stands_on_ok_i couples the ships: it and the nodes that read it are
        # evaluated after the fold that steps and scoring share.  tails[i-1]
        # are the nodes that read ship i's stands_on_ok.
        folded = [
            spec for spec in self.specs
            if spec.node_id not in _SKIP_NODES and not spec.node_id.startswith("ship_compatible_")
        ]
        self.stands_on = tuple(ship("stands_on_ok", i) for i in range(1, n_ships + 1))
        coupled = set(self.stands_on).union(s.node_id for s in _reading(folded, self.stands_on))
        self.shared_specs = tuple(s for s in folded if s.node_id not in coupled)
        self.coupled_specs = tuple(s for s in folded if s.node_id in coupled)
        self.tails = tuple(_reading(self.coupled_specs, (s,)) for s in self.stands_on)

        # Ship i's two axes sit together in the row block, after the shared
        # compliance switches and before the thresholds; dropping the other
        # ships' axes leaves a (switch cells, 15, threshold cells) matrix.
        self.ship_axes = tuple(
            tuple(self.f_roots.index(ship(base, i)) for base in nodes.SHIP_INTENTIONS)
            for i in range(1, n_ships + 1)
        )
        owned = {ax for axes in self.ship_axes for ax in axes}
        self.switch_axes = tuple(j for j in range(split) if j not in owned)
        self.threshold_axes = tuple(range(split, rank))

    def factor_weight(
        self, dists: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """A product weight as flat (switch, per-ship, threshold) block vectors."""

        def block(axes: Sequence[int]) -> np.ndarray:
            vecs = [dists[self.f_roots[j]] for j in axes]
            return functools.reduce(np.multiply.outer, vecs, np.ones(())).ravel()

        return (
            block(self.switch_axes),
            tuple(block(axes) for axes in self.ship_axes),
            block(self.threshold_axes),
        )

    def ship_sums(self, arr: np.ndarray, i: int, w_ship: np.ndarray) -> np.ndarray:
        """Sum of a boolean array over ship ``i``'s two axes against ``w_ship``.

        The array spans the shared axes and ship ``i``'s own (a reshape
        raises if it spans another ship's).  Returns the float64 (switch
        cells, threshold cells) matrix, one ``(15,) @ (15, thresholds)``
        product per switch row, so the float scratch is one row.
        """
        keep = (*self.switch_axes, *self.ship_axes[i - 1], *self.threshold_axes)
        arr = arr.reshape(tuple(arr.shape[j] for j in keep))
        mat = np.broadcast_to(arr, tuple(self.cards[j] for j in keep))
        mat = mat.reshape(-1, len(w_ship), math.prod(self.cards[j] for j in self.threshold_axes))
        out = np.empty((mat.shape[0], mat.shape[2]))
        for row, block in enumerate(mat):
            out[row] = w_ship @ block.astype(np.float64)
        return out


def _lookup(table: np.ndarray, args: Sequence) -> np.ndarray | int:
    """``table[args]`` for parents that are scalars or broadcast index arrays.

    Scalar parents index the table first.  The array parents, smallest
    first, fold into one small-integer code, so the only operation at the
    broadcast result's size is a single lookup in the flat table.
    """
    sub = table[tuple(slice(None) if np.ndim(a) else int(a) for a in args)]
    arrays = [a for a in args if np.ndim(a)]
    if not arrays:
        return int(sub)
    order = sorted(range(len(arrays)), key=lambda k: arrays[k].size)
    sub = sub.transpose(order)
    code_type = np.min_scalar_type(sub.size - 1).type
    code = arrays[order[0]].astype(code_type)
    for k, card in zip(order[1:], sub.shape[1:]):
        code = code * code_type(card) + arrays[k]
    flat = sub.ravel()
    if flat.size > 64:
        return flat[code]
    # Up to 64 entries pack into one machine word: a shift and a mask look the
    # codes up without numpy first widening them to intp indices.  The shift
    # runs a chunk at a time, so its word-wide scratch stays small.
    word_type = np.min_scalar_type((1 << flat.size) - 1).type
    word = word_type(sum(1 << int(k) for k in np.flatnonzero(flat)))
    codes = code.reshape(-1)
    out = np.empty(codes.size, dtype=bool)
    for s in range(0, codes.size, _CHUNK_CELLS):
        out[s : s + _CHUNK_CELLS] = (word >> codes[s : s + _CHUNK_CELLS]) & word_type(1)
    return out.reshape(code.shape)


@dataclass
class _SliceMessage:
    """One slice's evidence, folded down to functions of the intention roots."""

    f_side: np.ndarray  # bool on the layout axes: all ships' caps hold
    v_side: np.ndarray  # bool per safe_ground_side bin
    v_front: np.ndarray  # bool per safe_ground_front bin
    nav_maneuver: bool
    turned_sb: int
    turned_port: int


_SKIP_NODES = {"ground_safe", "compatible"}
_EXPORT_BASES = ("colav_ok", "nav_maneuver_ok", "evasive_ok")


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
    layout: _Layout, specs: Sequence[nodes.ModelNodeSpec], values: MutableMapping[str, object]
) -> None:
    """Look each spec up in its truth table on the parent values, in order."""
    for spec in specs:
        values[spec.node_id] = _lookup(
            layout.tables[spec.node_id], [values[p] for p in spec.parents]
        )


def _fold(
    layout: _Layout, meas_states: Mapping[str, int], sa_in: int, pa_in: int
) -> dict[str, object]:
    """Fold one slice's observations through every node that does not couple ships.

    Walks the model registry in dependency order, looking each node up in
    its truth table: observed measurements and latch carries enter as
    integers, intention roots as axis arrays, and previously folded nodes as
    boolean arrays that span only the axes they depend on.  The grounding
    thresholds are not layout axes; they fold as vectors of their own.
    Steps and candidate scoring both start from this fold.
    """
    values: dict[str, object] = dict(meas_states)
    values.update(layout.axis_arrays)
    values["turned_starboard_prev"] = sa_in
    values["turned_port_prev"] = pa_in
    for root in ("safe_ground_side", "safe_ground_front"):
        values[root] = np.arange(len(layout.prior_vec[root]), dtype=np.uint8)
    _evaluate(layout, layout.shared_specs, values)
    return values


def _cap(values: Mapping[str, object], i: int) -> np.ndarray:
    """Ship ``i``'s cap: its collision-avoidance rules or the planned route explain the slice."""
    return np.logical_or(values[ship("colav_ok", i)], values[ship("nav_maneuver_ok", i)])


def _ship_tail(
    layout: _Layout, values: Mapping[str, object], i: int, s: int
) -> Mapping[str, object]:
    """Ship ``i``'s tail nodes with ``stands_on_ok_i`` fixed to ``s``, over ``values``.

    The tail (``layout.tails[i - 1]``: ``gives_way_ok_i``, ``colav_ok_i``)
    then spans the shared axes and ship ``i``'s own only.  Its values go
    into a scope of their own, so ``values`` is left as it was.
    """
    scope = ChainMap({layout.stands_on[i - 1]: s}, values)
    _evaluate(layout, layout.tails[i - 1], scope)
    return scope


def _ship_cap(layout: _Layout, values: Mapping[str, object], i: int, s: int) -> np.ndarray:
    """Ship ``i``'s cap with ``stands_on_ok_i`` fixed to ``s``, on ship ``i``'s axes."""
    return _cap(_ship_tail(layout, values, i, s), i)


def _gives_way(layout: _Layout, values: Mapping[str, object], i: int) -> np.ndarray:
    """``g_i``: ship ``i`` is giving way (:func:`~shipintent.nodes.gives_way_to`)."""
    return _lookup(layout.gives_way_table, [values[ship(b, i)] for b in nodes.GIVES_WAY_BASES])


def _switch(s: np.ndarray, a0: np.ndarray, a1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a0`` where ``s`` is false and ``a1`` where it holds, written into ``out``.

    As ``a0 ^ (s & (a0 ^ a1))``: logical operations, which broadcast the
    operands cell by cell into ``out`` with no temporary of its size.
    """
    np.logical_and(s, np.logical_xor(a0, a1), out=out)
    return np.logical_xor(out, a0, out=out)


def _slice_message(
    layout: _Layout, meas_states: Mapping[str, int], sa_in: int, pa_in: int
) -> tuple[_SliceMessage, dict[str, np.ndarray]]:
    """Fold one slice's observations into boolean root-space indicators.

    The shared fold, then each ship's tail with ``stands_on_ok_i`` fixed to
    a scalar (:func:`_ship_tail`).  When ``C`` holds, or with one ship,
    every ``stands_on_ok_i`` is ``C``, so ``colav_ok_i`` stays on ship i's
    axes.  Otherwise ``colav_ok_i`` and ship i's cap take their ``s = 0``
    value where ``G = OR_j g_j`` is false and their ``s = 1`` value where it
    holds (:func:`_switch`), in one buffer over the joint.  ``G`` differs
    from ``OR_{j!=i} g_j`` only where ``g_i`` holds, which ship i's tail
    ignores.  No truth table is looked up on the joint.  Returns the message
    a slice keeps and the exported per-ship node indicators, which only the
    step's posterior bundle reads.
    """
    values = _fold(layout, meas_states, sa_in, pa_in)
    n = layout.n_ships
    held = nodes.course_held(*(values[p] for p in nodes.COURSE_HELD_PARENTS))
    if held or n == 1:
        for i in range(1, n + 1):
            colav = ship("colav_ok", i)
            values[colav] = _ship_tail(layout, values, i, held)[colav]
        f_side = functools.reduce(np.logical_and, (_cap(values, i) for i in range(1, n + 1)))
    else:
        g = (_gives_way(layout, values, i) for i in range(1, n + 1))
        s = functools.reduce(np.logical_or, g)
        f_side = np.ones(layout.cards, dtype=bool)
        for i in range(1, n + 1):
            tails = [_ship_tail(layout, values, i, fixed) for fixed in (0, 1)]
            # cap_i, then colav_i in the same buffer: no temporary over the joint.
            out = np.empty(layout.cards, dtype=bool)
            f_side &= _switch(s, *(_cap(t, i) for t in tails), out=out)
            colav = ship("colav_ok", i)
            values[colav] = _switch(s, *(t[colav] for t in tails), out=out)
    node_arrays = {
        ship(base, i): np.asarray(values[ship(base, i)], dtype=bool)
        for i in range(1, n + 1)
        for base in _EXPORT_BASES
    }
    message = _SliceMessage(
        f_side=f_side,
        v_side=np.asarray(values["ground_safe_side"], dtype=bool),
        v_front=np.asarray(values["ground_safe_front"], dtype=bool),
        nav_maneuver=bool(values["nav_maneuver"]),
        turned_sb=int(values["turned_starboard"]),
        turned_port=int(values["turned_port"]),
    )
    return message, node_arrays


def _factored_z_f(
    layout: _Layout,
    weight: tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray],
    values: Mapping[str, object],
) -> float:
    """Weight of one slice's ``f_side`` under a product weight, ship by ship.

    ``values`` is the slice's shared fold.  ``stands_on_ok_i = C or OR_{j!=i}
    g_j`` is the only node that couples ships, with ``C`` =
    :func:`~shipintent.nodes.course_held` and ``g_j`` =
    :func:`~shipintent.nodes.gives_way_to` of ship j's nodes.  With it fixed
    to a value ``s``, ship i's ``cap_i(s)`` spans the shared axes and ship
    i's own only.  When ``C`` holds, or with one ship, ``s = C`` for every
    ship and the weight is the shared-block contraction of ``prod_i`` of
    ship i's sum of ``cap_i(C)``.  Otherwise every ship reads one switch,
    ``G = OR_j g_j`` (see :func:`_slice_message`), and ``f_side`` is
    ``AND_i cap_i(1)`` where ``G`` holds and ``AND_i cap_i(0)`` where it
    fails.  ``not G = AND_i not g_i`` splits ship by ship, so per shared
    cell the weight is ``prod_i C_i - prod_i N_i(1) + prod_i N_i(0)``, with
    ``C_i`` ship i's sum of ``cap_i(1)`` and ``N_i(s)`` its sum of
    ``cap_i(s) and not g_i``: three sums per ship.
    """
    w_switch, w_ships, w_thr = weight
    n = layout.n_ships
    held = nodes.course_held(*(values[p] for p in nodes.COURSE_HELD_PARENTS))
    cap = functools.partial(_ship_cap, layout, values)
    if held or n == 1:
        block = functools.reduce(
            np.multiply,
            (layout.ship_sums(cap(i, held), i, w_ships[i - 1]) for i in range(1, n + 1)),
        )
    else:
        sums = []  # per ship: C_i, N_i(1), N_i(0)
        for i in range(1, n + 1):
            not_g = np.logical_not(_gives_way(layout, values, i))
            c1 = cap(i, True)
            caps = (c1, c1 & not_g, cap(i, False) & not_g)
            sums.append([layout.ship_sums(c, i, w_ships[i - 1]) for c in caps])
        every, none1, none0 = (functools.reduce(np.multiply, col) for col in zip(*sums))
        block = every - none1 + none0
    return float(w_switch @ block @ w_thr)


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
    frozen_f: np.ndarray,
    frozen_vs: np.ndarray,
    frozen_vf: np.ndarray,
    live: _SliceMessage,
    node_arrays: Mapping[str, np.ndarray],
) -> tuple[IntentionPosterior, dict[str, float]]:
    """Exact posteriors and live-node probabilities from the slice messages."""
    z_f, f_masses, post_sums, prior_sums = layout.prior.joint_sums(
        frozen_f, live.f_side, node_arrays
    )

    pi_s = layout.prior_vec["safe_ground_side"]
    pi_f = layout.prior_vec["safe_ground_front"]
    u_s = pi_s * (frozen_vs & live.v_side)
    u_f = pi_f * (frozen_vf & live.v_front)
    z_s, z_fr = float(u_s.sum()), float(u_f.sum())

    p_u = float(layout.prior_vec["unmodeled"][1])
    p_g = float(layout.prior_vec["ground_intent"][1])
    a_u, a_g, a_s = _branch_masses(p_u, p_g, z_f, z_s, z_fr)
    total = a_u + a_g + a_s
    if total <= 0.0:
        raise ContradictionError(
            "no intention assignment explains the observed behaviour", diagnosis="compatible"
        )

    rest = 1.0 - p_u
    marg: dict[str, tuple[float, ...]] = {}
    f_weight = rest * (p_g + (1.0 - p_g) * z_s * z_fr)
    for root, m_root in zip(layout.f_roots, f_masses):
        marg[root] = _distribution(a_u * layout.prior_vec[root] + f_weight * m_root)
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
    for name in node_arrays:
        e_post = post_sums[name] / z_f if z_f > 0.0 else 0.0
        node_probs[name] = _unit((a_u * prior_sums[name] + post_weight * e_post) / total)
    s_live = float((pi_s * live.v_side).sum())
    f_live = float((pi_f * live.v_front).sum())
    node_probs["ground_safe_side"] = _unit(((a_u + a_g) * s_live + a_s) / total)
    node_probs["ground_safe_front"] = _unit(((a_u + a_g) * f_live + a_s) / total)
    node_probs["nav_maneuver"] = float(live.nav_maneuver)
    node_probs["turned_starboard"] = float(live.turned_sb)
    node_probs["turned_port"] = float(live.turned_port)
    return IntentionPosterior(ordered), node_probs


# --------------------------------------------------------------------------
# Session state
# --------------------------------------------------------------------------


@dataclass
class _SliceState:
    created_t: float
    base_courses: tuple[float, ...]
    base_sogs: tuple[float, ...]
    sa_in: int
    pa_in: int
    meas: MeasurementVector | None = None
    message: _SliceMessage | None = None


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
        if lookahead < 0.0:
            raise ValueError("lookahead must be non-negative")
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
        self._frozen_f = np.ones(self.layout.cards, dtype=bool)
        self._frozen_vs = np.ones(disc.ground_side.bins, dtype=bool)
        self._frozen_vf = np.ones(disc.ground_front.bins, dtype=bool)
        self._step_index = -1
        self.records: list[StepRecord] = []
        self._advance(own, obstacles, added_slice=False)

    @staticmethod
    def _courses(own: ShipState, obstacles: Sequence[ShipState]) -> tuple[float, ...]:
        return (own.cog,) + tuple(o.cog for o in obstacles)

    @staticmethod
    def _sogs(own: ShipState, obstacles: Sequence[ShipState]) -> tuple[float, ...]:
        return (own.sog,) + tuple(o.sog for o in obstacles)

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

    def _live(self) -> _SliceState:
        return self._slices[-1]

    def _advance(
        self, own: ShipState, obstacles: Sequence[ShipState], added_slice: bool
    ) -> StepRecord:
        """Compute the step for the incoming states, then commit it.

        Everything that can fail (measurement, folding, a contradiction in
        the posterior bundle) runs before the first write to the session, so
        a rejected update leaves it exactly as it was.
        """
        frozen = (self._frozen_f, self._frozen_vs, self._frozen_vf)
        new_slice = added_slice or not self._slices
        if not new_slice:
            live = self._live()
        else:
            sa = pa = nodes.FALSE
            if self._slices:  # freeze the live slice into the running products
                msg = self._live().message
                assert msg is not None
                frozen = (frozen[0] & msg.f_side, frozen[1] & msg.v_side, frozen[2] & msg.v_front)
                sa, pa = msg.turned_sb, msg.turned_port
            live = _SliceState(
                created_t=own.t,
                base_courses=self._courses(own, obstacles),
                base_sogs=self._sogs(own, obstacles),
                sa_in=sa,
                pa_in=pa,
            )
        own_track = [*self._own, own]
        changes = course_speed_changes(own_track, self.geom)
        meas = self._assemble(own, obstacles, changes, own_track, self.geom)
        message, node_arrays = _slice_message(
            self.layout, meas.as_states(), live.sa_in, live.pa_in
        )
        posterior, node_probs = _posterior_bundle(self.layout, *frozen, message, node_arrays)

        if new_slice:
            if self._slices:
                self._live().message = None
            self._slices.append(live)
        live.meas, live.message = meas, message
        self._frozen_f, self._frozen_vs, self._frozen_vf = frozen
        self._own = own_track
        for track, obs in zip(self._obstacles, obstacles):
            track.append(obs)
        self._step_index += 1
        record = StepRecord(
            t=own.t,
            step_index=self._step_index,
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
        h.update(f"{self.n_ships},{self.disc.cpa.bins},{self._step_index}".encode())
        for track in [self._own, *self._obstacles]:
            arr = np.array([(s.t, s.x, s.y, s.sog, s.cog) for s in track], dtype=np.float64)
            h.update(arr.tobytes())
        for s in self._slices:
            h.update(f"{s.created_t},{s.sa_in},{s.pa_in}".encode())
            if s.meas is not None:
                h.update(repr(sorted(s.meas.as_states().items())).encode())
        h.update(self._frozen_f.tobytes())
        h.update(self._frozen_vs.tobytes())
        h.update(self._frozen_vf.tobytes())
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
    live = session._live()
    age = own.t - live.created_t
    policy = session.policy
    if age > policy.max_age:
        return True
    if age < policy.min_age:
        return False
    courses = Session._courses(own, obstacles)
    sogs = Session._sogs(own, obstacles)
    for base_c, base_s, cog, sog in zip(live.base_courses, live.base_sogs, courses, sogs):
        if abs(angle_diff(cog, base_c)) > policy.course_delta:
            return True
        if abs(sog - base_s) > policy.speed_delta:
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
    if horizon < 0.0:
        raise ValueError("lookahead must be non-negative")
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
    Raw scores below :data:`SCORE_FLOOR` clamp to zero; if every candidate
    clamps, the normalized scores fall back to uniform and the result is
    flagged ``all_incompatible``.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate to score")
    layout = session.layout
    dists = _virtual_root_dists(layout, session.last_record.posterior)
    weight = layout.factor_weight(dists)
    rho_u = float(dists["unmodeled"][1])
    rho_g = float(dists["ground_intent"][1])
    carry = session._live().message
    latches = carry.turned_sb, carry.turned_port

    raw_by_states: dict[tuple[int, ...], float] = {}
    raws: list[float] = []
    vectors: list[MeasurementVector] = []
    for cand in candidates:
        meas = measure_candidate(session, cand, lookahead=lookahead)
        states = meas.as_states()
        key = tuple(states.values())
        if key not in raw_by_states:
            values = _fold(layout, states, *latches)
            z_f = _factored_z_f(layout, weight, values)
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
