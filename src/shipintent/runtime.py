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
bins per threshold.  The prior stays one vector per root, and while few
slices couple the ships no step builds an array over the joint.

Nodes are looked up in their truth tables on the axes they actually depend
on.  ``stands_on_ok_i = C or OR_{j!=i} g_j`` is the only node that reads
another ship's nodes (``C``: course straight and speed unchanged, observed;
``g_j``: giving way to ship j).  Fixed to 0 or 1, it leaves its readers,
``gives_way_ok_i`` and ``colav_ok_i``, and so ship i's cap (``colav_ok_i or
nav_maneuver_ok_i``) on the shared axes (compliance switches and
thresholds, 4e4 cells) and ship i's own two, 6e5 cells: context-specific
independence (Boutilier, Friedman, Goldszmidt & Koller, UAI 1996).  As
``g_i`` makes ship i's tail ignore it, every ship reads one shared switch,
``C or G`` with ``G = OR_j g_j``.

So a slice is kept as per-ship pieces (:class:`_SliceMessage`).  When ``C``
holds, or with one ship, its constraint is the product ``AND_i cap_i(C)``,
and once frozen it is folded into ``F_i``, the AND of ship i's caps over
such slices.  Otherwise it is ``AND_i cap_i(1)`` where ``G`` holds and
``AND_i cap_i(0)`` where it fails, kept as ``cap_i(1)``, ``cap_i(0)`` and
``g_i`` per ship.  Split by the first ship that gives way, ``[G] = sum_m g_m
prod_{j<m} not g_j``, that is ``n + 1`` disjoint products (:func:`_options`).
With K such slices among the frozen and live ones, a step's constraint
multiplies out into ``(n + 1)**K`` disjoint terms, each a product over ships
and none negative, so the evidence mass is exactly zero only where nothing
explains the slices.  Each term is contracted ship by ship against the
prior: variable elimination on the star-shaped factor graph of the shared
and per-ship axes (Koller & Friedman 2009, ch. 9-10).  Per shared cell a
term weighs the product of the ships' sums over their own axes.  Ship i's
pass over one of its factors weighs it by the other ships' sums, added up
over the terms that share it, which gives its root marginals and its
exported nodes' weights (:func:`_factored_masses`).  A pass reads its
operands a block of whole rows at a time and ANDs them per block
(:meth:`_Product.joint_sums`); one that only sums a factor per shared cell
ANDs it into one array over the ship's axes (:meth:`_Product.column_sums`).
So no array larger than one ship's 6e5 cells is built: a two-ship step with
K <= 1 peaks under one boolean joint's 9 MB under ``tracemalloc``.  With one
ship the single term is the whole joint, and a step is one pass over it.

The terms read ``(n + 1)**K * n`` ship-local arrays, which passes the cells
of one joint at K = 2 with two ships and K = 4 with three
(:meth:`_Layout.factored`).  Timed at default bins, that is where a pass
over the joint turns faster: at two ships both take about 0.1 s at K = 2
and the factored step 0.26-0.32 s at K = 3 against 0.09-0.13 s; at three
ships the factored step takes 0.7 s at K = 3 and 2.5-2.9 s at K = 4 against
1.5-1.8 s.  From there the session ANDs the frozen pieces into one boolean
array over the joint (9 MB at two ships, 135 MB at three) and ANDs each
later frozen slice into it.  A step builds the live slice's constraint, and
a coupling slice's ``colav_ok_i`` switched on ``G``, over the joint and
streams them through one pass (:func:`_dense_masses`); the message keeps
its constraint, so freezing the slice is one AND into a new array and a
rejected update leaves the kept one as it was.  At three ships a step
then holds about seven arrays of 135 MB.

Scoring never builds an array over more than one ship's axes: a candidate
is one slice, so its weight is the same contraction over its one or ``n +
1`` terms (:func:`_factored_z_f`).  A candidate also observes every
measurement, so a node reads a threshold only through ``meas_bin > thr``.
The same context-specific independence, applied to values, lumps each
root's values into the classes its readers' truth tables tell apart (at
most ``n + 1`` per threshold), and the candidate folds one value per class,
weighted by its members' summed weights (:meth:`_Layout.lumps`).  At
default bins with two ships a threshold keeps 1-3 classes, so a ship's
local axes hold hundreds of cells where they hold 6e5 in a step, and a fan
peaks near 0.1 MB under ``tracemalloc``.  A candidate's arrays die with its
score, and only the step's passes keep block buffers in the layout
(:func:`_buffer`).  The step is not lumped: its frozen slices' pieces sit at
full resolution.

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
from collections.abc import Collection, Iterable, Iterator, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple, Protocol

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

# Cells per block that a contraction converts to float64 (and per chunk that
# a packed table lookup shifts).  A block holds whole rows of one switch
# cell, at least one row: the bins**4 cells of the threshold block, so it has
# at most max(_CHUNK_CELLS, bins**4) cells.  A pass holds three buffers of
# that size, the boolean AND of its operands (one byte a cell), its float64
# copy and one float64 buffer the arrays that span ample_time share, plus a
# float64 block with ample_time summed out (a bins-th of the cells).  That is
# about 1.2 MB whatever the ship count, up to 16 bins per threshold.  A pass
# over one ship's axes reads 6e5 cells at default bins, a dozen blocks.  One
# that keeps only the per-shared-cell sums (_Product.column_sums) ANDs its
# operands into one boolean array over the ship's axes (6e5 cells at default
# bins) and converts a run of at most _CHUNK_CELLS cells at a time.  The
# layout keeps every such buffer for its next pass (_buffer): about 2.5 MB at
# default bins.
_CHUNK_CELLS = 1 << 16


def _outer(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """The flat outer product of ``vecs`` (one cell, weight one, if there are none)."""
    return functools.reduce(np.multiply.outer, vecs, np.ones(())).ravel()


class _Sums(NamedTuple):
    """What one :meth:`_Product.joint_sums` pass returns."""

    right: np.ndarray  # per switch cell, column sums weighted by the other row axes
    left: np.ndarray  # per row, its sum against the column weights
    post: dict[str, float]  # per array, the weight of the AND with it
    prior: dict[str, float]  # per array named in priors, its weight alone


class _Product:
    """A product-form weight over some of the layout axes, one vector per axis.

    ``axes`` are layout axes: the compliance switches first, then the other
    row axes (ship views), then from ``split`` on the columns (thresholds).
    A dense boolean array over them is contracted against the weight as a
    matrix of rows and columns.  The rows are cut into blocks of about
    :data:`_CHUNK_CELLS` cells, each converted to float64 on its own, so no
    dense float array over the axes is ever built.  A block fixes the leading
    row axes, the switches among them, and takes a run of the ``cut`` axis
    and every later axis whole.  So it lies within one switch cell, and the
    block of an array that broadcasts over some axes is a view of it, never
    a copy.  The block buffers come from ``buffers``, which the products of
    one per-ship weight share, so a pass allocates none once the first has
    run.
    """

    def __init__(
        self,
        vecs: Sequence[np.ndarray],
        axes: Sequence[int],
        split: int,
        n_switch: int,
        buffers: dict,
    ) -> None:
        self.vecs = tuple(np.asarray(v, dtype=float) for v in vecs)
        self.axes = tuple(axes)
        self.shape = tuple(len(v) for v in self.vecs)
        self.split = split
        self.n_switch = n_switch
        self.switch = _outer(self.vecs[:n_switch])
        self.inner = _outer(self.vecs[n_switch:split])
        self.rows = np.multiply.outer(self.switch, self.inner).ravel()
        self.cols = _outer(self.vecs[split:])
        self.cut = next(
            (j for j in range(n_switch, split) if math.prod(self.shape[j + 1 :]) <= _CHUNK_CELLS),
            split - 1,
        )
        tail = self.shape[self.cut + 1 :]
        step = min(self.shape[self.cut], max(1, _CHUNK_CELLS // math.prod(tail)))
        self.block_shape = (step, *tail)
        self.buffers = buffers

    def view(self, arr: np.ndarray) -> np.ndarray:
        """``arr``, laid out on the layout axes and constant off these, on these alone."""
        return arr.reshape(tuple(arr.shape[j] for j in self.axes))

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
        """Weighted sum of a boolean array laid out on these axes.

        Axes of length one are those the array does not touch; they are
        summed out of the weight instead of being broadcast.
        """
        out = np.asarray(arr, dtype=np.float64)
        for vec in reversed(self.vecs):
            out = out @ vec if out.shape[-1] > 1 else out[..., 0] * vec.sum()
        return float(out)

    def column_sums(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Per switch cell, the column sums of the AND of ``operands``, row-weighted.

        Operands are laid out on these axes.  Several are ANDed into one
        boolean buffer over them; a lone one is read as it is, on its own
        axes.  Each switch cell's rows are converted to float64 and
        contracted against the other row axes' weights, a run of columns at
        a time (:data:`_CHUNK_CELLS`); the sums of a lone operand are then
        broadcast over the switch and column axes it lacks.
        """
        if len(operands) == 1:
            anded = operands[0]
        else:
            anded = _buffer(self.buffers, "anded", self.shape, bool)
            np.logical_and(operands[0], operands[-1], out=anded)
            for op in operands[1:-1]:
                np.logical_and(anded, op, out=anded)
        shape, ns = anded.shape, self.n_switch
        own = zip(self.vecs[ns : self.split], shape[ns : self.split])
        inner = _outer([v if n > 1 else v.sum(keepdims=True) for v, n in own])
        cells = anded.reshape(math.prod(shape[:ns]), len(inner), -1)
        n_cols = cells.shape[2]
        step = max(1, _CHUNK_CELLS // len(self.inner))
        buf = _buffer(self.buffers, "rows", (len(self.inner), min(step, len(self.cols))), float)
        out = np.empty((len(cells), n_cols))
        for k, rows in enumerate(cells):
            for c in range(0, n_cols, step):
                block = buf[: len(inner), : n_cols - c]
                np.copyto(block, rows[:, c : c + step])
                np.matmul(inner, block, out=out[k, c : c + step])
        if shape == self.shape:
            return out
        out = out.reshape(shape[:ns] + shape[self.split :])
        out = np.broadcast_to(out, self.shape[:ns] + self.shape[self.split :])
        return out.reshape(len(self.switch), len(self.cols))

    def joint_sums(
        self,
        operands: Sequence[np.ndarray],
        arrays: Mapping[str, np.ndarray],
        cols: np.ndarray | None = None,
        priors: Collection[str] = (),
    ) -> _Sums:
        """Weights of the AND of ``operands`` and of every array in it, in one pass.

        Operands and arrays are laid out on these axes.  ``cols``, if given,
        holds each switch cell's own column weights (switch cells x column
        cells) in place of :attr:`cols`.  The pass returns, per switch cell,
        the column sums of the AND weighted by the other row axes (as
        :meth:`column_sums`), each row's sum against its column weights and,
        per array, the weight of ``AND & arr`` (posterior) and, for those
        named in ``priors``, the weight of ``arr`` alone under this product.
        Each block of the AND is converted to float64 once.  An array that
        spans the first column axis is converted a block at a time too and
        multiplied with the float block.  One that does not meets the block
        after that axis is summed out, a tenth of the cells at ten bins; its
        prior weight is a small contraction of its own (:meth:`expect`).
        """
        n_cols, n_inner = len(self.cols), len(self.inner)
        mask = _buffer(self.buffers, "and", self.block_shape, bool)
        buf = _buffer(self.buffers, "block", self.block_shape, float)
        right = np.zeros((len(self.switch), n_cols))
        n_first = self.shape[self.split]
        rest = _outer(self.vecs[self.split + 1 :])
        if cols is not None:  # the column weights already hold these
            rest = np.ones(len(rest))
        wide = [name for name, arr in arrays.items() if arr.shape[self.split] > 1]
        narrow = [name for name in arrays if name not in wide]
        reduced_shape = list(self.block_shape)
        reduced_shape[self.split - self.cut] = 1
        scratch = _buffer(self.buffers, "node", self.block_shape, float)
        reduced_scratch = _buffer(self.buffers, "reduced", reduced_shape, float)
        # Unweighted sums per row, weighted by the rows after the pass.
        left = np.empty(len(self.rows))
        post = {name: np.empty(len(self.rows)) for name in arrays}
        prior = {name: np.empty(len(self.rows)) for name in wide if name in priors}
        for index, rows in self.blocks():
            m = index[-1].stop - index[-1].start
            switch, r0 = divmod(rows.start, n_inner)
            views = [_block(op, index) for op in operands]
            block = buf[:m]
            if len(views) == 1:
                np.copyto(block, views[0])
            else:
                anded = mask[:m]
                np.logical_and(*views[:2], out=anded)
                for view in views[2:]:
                    np.logical_and(anded, view, out=anded)
                np.copyto(block, anded)
            mat = block.reshape(-1, n_cols)
            right[switch] += self.inner[r0 : r0 + len(mat)] @ mat
            col = self.cols if cols is None else cols[switch]
            left[rows] = mat @ col
            tmp = scratch[:m]
            for name in wide:
                np.copyto(tmp, _block(arrays[name], index))
                if name in prior:
                    prior[name][rows] = tmp.reshape(-1, n_cols) @ self.cols
                np.multiply(tmp, block, out=tmp)
                post[name][rows] = tmp.reshape(-1, n_cols) @ col
            if narrow:
                mat3 = mat.reshape(-1, n_first, len(rest))
                if cols is None:
                    summed = self.vecs[self.split] @ mat3
                else:
                    summed = np.einsum("ras,as->rs", mat3, col.reshape(n_first, -1))
                summed = summed.reshape(m, *reduced_shape[1:])
                tmp = reduced_scratch[:m]
                for name in narrow:
                    np.multiply(summed, _block(arrays[name], index), out=tmp)
                    post[name][rows] = tmp.reshape(-1, len(rest)) @ rest
        prior_sums = {name: float(self.rows @ per_row) for name, per_row in prior.items()}
        prior_sums.update((name, self.expect(arrays[name])) for name in narrow if name in priors)
        post_sums = {name: float(self.rows @ per_row) for name, per_row in post.items()}
        return _Sums(right, left, post_sums, prior_sums)


def _buffer(buffers: dict, key: object, shape: Sequence[int], dtype: type) -> np.ndarray:
    """The array ``buffers`` keeps for ``key``, ``shape`` and ``dtype``, made on first use.

    It holds whatever its last user wrote, so two arrays that are live at
    once must differ in ``key``.
    """
    full = (key, tuple(shape), np.dtype(dtype))
    if full not in buffers:
        buffers[full] = np.empty(shape, dtype=dtype)
    return buffers[full]


def _block(arr: np.ndarray, index: tuple) -> np.ndarray:
    """The view of ``arr`` at a :meth:`_Product.blocks` index.

    ``arr`` has the product's rank and broadcasts to it; its axes of length
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
            r: self._axis(r, range(card)) for r, card in zip(self.f_roots, self.cards)
        }

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
        # ships' axes leaves a (switch cells, 15, threshold cells) array.
        self.ship_axes = tuple(
            tuple(self.f_roots.index(ship(base, i)) for base in nodes.SHIP_INTENTIONS)
            for i in range(1, n_ships + 1)
        )
        owned = {ax for axes in self.ship_axes for ax in axes}
        split = sum(r not in THRESHOLDS for r in self.f_roots)
        self.switch_axes = tuple(j for j in range(split) if j not in owned)
        self.threshold_axes = tuple(range(split, rank))
        vecs = [self.prior_vec[r] for r in self.f_roots]
        self.local = self.factor_weight(self.prior_vec)
        # The step's products share their block buffers (see _CHUNK_CELLS).
        self.prior = _Product(
            vecs, range(rank), split, len(self.switch_axes), self.local[0].buffers
        )
        # The nodes that read each root directly, for lumping its values.
        self.readers = {
            r: tuple(spec for spec in self.specs if r in spec.parents) for r in self.f_roots
        }

    def _axis(self, root: str, values: Iterable[int]) -> np.ndarray:
        """``values`` of ``root`` as an index array along its layout axis."""
        j = self.f_roots.index(root)
        shape = (1,) * j + (-1,) + (1,) * (len(self.f_roots) - 1 - j)
        return np.asarray(list(values), dtype=np.uint8).reshape(shape)

    def factor_weight(self, dists: Mapping[str, np.ndarray]) -> tuple[_Product, ...]:
        """A product weight as one :class:`_Product` per ship, on its local axes.

        Ship i's local axes are the shared ones (compliance switches and
        thresholds) and its own two; with one ship they are the whole joint.
        The ships' products share one set of block buffers, which lives as
        long as they do.
        """
        n_switch = len(self.switch_axes)
        buffers: dict = {}
        return tuple(
            _Product([dists[self.f_roots[j]] for j in axes], axes, n_switch + 2, n_switch, buffers)
            for axes in (
                (*self.switch_axes, *own, *self.threshold_axes) for own in self.ship_axes
            )
        )

    def lumps(
        self, observed: Mapping[str, int]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Each root's values lumped into the classes one slice cannot tell apart.

        ``observed`` fixes the slice's measurement states and latch carries
        (:func:`_observed`).  Two values of a root share a class when every
        node that reads the root directly has the same truth-table slice at
        both, every parent not observed left free.  Then, node by node in
        registry order, every node takes the same value at both, so a fold
        on one member per class loses nothing (context-specific
        independence, Boutilier et al. UAI 1996).  A threshold is read only
        through ``meas_bin > thr``, so it splits into at most ``n + 1``
        classes.  Returns each class's first member as an axis array, as
        :attr:`axis_arrays` lays out every value, and each value's class.
        """
        axes: dict[str, np.ndarray] = {}
        labels: dict[str, np.ndarray] = {}
        for root, card in zip(self.f_roots, self.cards):
            # Per reader: its table, an index with the observed parents fixed
            # and the others free, and the root's place in it.
            readers = [
                (
                    self.tables[spec.node_id],
                    [observed.get(p, slice(None)) for p in spec.parents],
                    spec.parents.index(root),
                )
                for spec in self.readers[root]
            ]
            classes: dict[bytes, int] = {}
            first: list[int] = []  # each class's first member
            labels[root] = np.empty(card, dtype=np.intp)
            for v in range(card):
                for _, index, k in readers:
                    index[k] = v
                key = b"".join(table[tuple(index)].tobytes() for table, index, _ in readers)
                labels[root][v] = classes.setdefault(key, len(classes))
                if labels[root][v] == len(first):
                    first.append(v)
            axes[root] = self._axis(root, first)
        return axes, labels

    def factored(self, k: int) -> bool:
        """Whether a constraint with ``k`` coupled slices is contracted ship by ship.

        Its ``(n + 1)**k`` terms read ``n`` ship-local arrays each; past the
        cells of one joint, ANDing the pieces into the joint reads fewer.
        Step timings agree (module docstring): the pass over the joint is as
        fast at the first K past that line with two ships and faster with
        three, and faster at every K after it.
        """
        n = self.n_ships
        return (n + 1) ** k * n * math.prod(self.local[0].shape) <= math.prod(self.cards)


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
    if flat.size > 64 or code.size <= _CHUNK_CELLS:
        return flat[code]
    out = np.empty(code.shape, dtype=bool)
    # Past a chunk of cells, a table of up to 64 entries packs into one
    # machine word: a shift and a mask look the codes up without numpy first
    # widening them to intp indices.  The shift runs a chunk at a time, so
    # its word-wide scratch stays small.
    word_type = np.min_scalar_type((1 << flat.size) - 1).type
    word = word_type(sum(1 << int(k) for k in np.flatnonzero(flat)))
    codes, cells = code.reshape(-1), out.reshape(-1)
    shifted = np.empty(min(codes.size, _CHUNK_CELLS), dtype=word_type)
    for s in range(0, codes.size, _CHUNK_CELLS):
        chunk = shifted[: len(codes[s : s + _CHUNK_CELLS])]
        np.right_shift(word, codes[s : s + _CHUNK_CELLS], out=chunk)
        np.bitwise_and(chunk, word_type(1), out=chunk)
        cells[s : s + _CHUNK_CELLS] = chunk
    return out


@dataclass
class _SliceMessage:
    """One slice's evidence, folded down to functions of the intention roots.

    ``caps[i - 1]`` is ship i's piece of the slice's collision-avoidance
    constraint, on the shared axes and ship i's own: ``(cap_i(C),)`` when
    every ``stands_on_ok`` is the observed ``C`` (the course is held, or one
    ship), else ``(cap_i(1), cap_i(0), g_i)``, and the slice couples the
    ships (see :func:`_options`).
    """

    caps: tuple[tuple[np.ndarray, ...], ...]
    v_side: np.ndarray  # bool per safe_ground_side bin
    v_front: np.ndarray  # bool per safe_ground_front bin
    nav_maneuver: bool
    turned_sb: int
    turned_port: int
    dense: np.ndarray | None = None  # the constraint over the joint, past the cutover

    @property
    def coupled(self) -> bool:
        return len(self.caps[0]) > 1


@dataclass(frozen=True)
class _Frozen:
    """The frozen slices' evidence, kept per ship.

    ``held[i - 1]`` is ``F_i``, the AND of ship i's caps over the frozen
    slices that do not couple the ships (None before the first), and
    ``coupled`` holds each coupling slice's per-ship pieces.  Once a step's
    terms would cost more than a pass over the joint (:meth:`settled`), all
    of it is ANDed into ``dense``, one boolean array over the joint, and
    later slices are ANDed into that.  ``k`` counts the coupling slices
    either way.  ``loose[i - 1]`` is the AND over every frozen slice of
    ship i's cap at any value of ``stands_on_ok_i``, which names the ship in
    a contradiction (:func:`_blame`).
    """

    held: tuple[np.ndarray | None, ...]
    coupled: tuple[tuple[tuple[np.ndarray, ...], ...], ...]
    loose: tuple[np.ndarray | None, ...]
    v_side: np.ndarray
    v_front: np.ndarray
    dense: np.ndarray | None = None
    k: int = 0

    def add(self, layout: _Layout, msg: _SliceMessage) -> _Frozen:
        """This evidence and one more slice's, without touching this one's arrays."""
        held, coupled, dense = self.held, self.coupled, self.dense
        if dense is not None:
            dense = dense & (_dense(layout, msg.caps) if msg.dense is None else msg.dense)
        elif msg.coupled:
            coupled = (*coupled, msg.caps)
        else:
            held = tuple(_and(f, cap) for f, (cap,) in zip(held, msg.caps))
        loose = tuple(_and(f, _loose(pieces)) for f, pieces in zip(self.loose, msg.caps))
        v_side, v_front = self.v_side & msg.v_side, self.v_front & msg.v_front
        return _Frozen(held, coupled, loose, v_side, v_front, dense, self.k + msg.coupled)

    def settled(self, layout: _Layout, live: _SliceMessage) -> _Frozen:
        """This evidence, as one dense joint once a step with ``live`` is past the cutover."""
        if self.dense is not None or layout.factored(self.k + live.coupled):
            return self
        dense = np.ones(layout.cards, dtype=bool)
        for f in self.held:
            if f is not None:
                dense &= f
        for caps in self.coupled:
            dense &= _dense(layout, caps)
        return replace(self, held=(None,) * layout.n_ships, coupled=(), dense=dense)

    def arrays(self) -> Iterator[np.ndarray | None]:
        """Every array this evidence keeps, in a fixed order."""
        yield from self.held
        for caps in self.coupled:
            for pieces in caps:
                yield from pieces
        yield from self.loose
        yield from (self.dense, self.v_side, self.v_front)


def _and(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """``a & b``, where None is true everywhere."""
    return b if a is None else a if b is None else a & b


def _loose(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """A ship's cap at any value of ``stands_on_ok``: ``cap_i(1) or cap_i(0)``."""
    return pieces[0] if len(pieces) == 1 else pieces[0] | pieces[1]


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
    layout: _Layout,
    meas_states: Mapping[str, int],
    sa_in: int,
    pa_in: int,
    axis_arrays: Mapping[str, np.ndarray] | None = None,
) -> dict[str, object]:
    """Fold one slice's observations through every node that does not couple ships.

    Walks the model registry in dependency order, looking each node up in
    its truth table: observed measurements and latch carries enter as
    integers, intention roots as axis arrays, and previously folded nodes as
    boolean arrays that span only the axes they depend on.  The roots take
    every value (``layout.axis_arrays``) unless ``axis_arrays`` gives one
    per class (:meth:`_Layout.lumps`).  The grounding thresholds are not
    layout axes; they fold as vectors of their own.  Steps and candidate
    scoring both start from this fold.
    """
    values: dict[str, object] = _observed(meas_states, sa_in, pa_in)
    values.update(layout.axis_arrays if axis_arrays is None else axis_arrays)
    for root in ("safe_ground_side", "safe_ground_front"):
        values[root] = np.arange(len(layout.prior_vec[root]), dtype=np.uint8)
    _evaluate(layout, layout.shared_specs, values)
    return values


def _lumped(
    layout: _Layout,
    dists: Mapping[str, np.ndarray],
    meas_states: Mapping[str, int],
    sa_in: int,
    pa_in: int,
) -> tuple[tuple[_Product, ...], dict[str, object]]:
    """A candidate slice's per-ship weight and shared fold on its lumped roots.

    Each root takes one value per class (:meth:`_Layout.lumps`), weighted by
    the sum of its members' weights in ``dists``, so ``_factored_z_f`` on
    the pair gives the slice's weight under ``dists``.
    """
    axes, labels = layout.lumps(_observed(meas_states, sa_in, pa_in))
    values = _fold(layout, meas_states, sa_in, pa_in, axes)
    lumped = {r: np.bincount(labels[r], weights=dists[r]) for r in layout.f_roots}
    return layout.factor_weight(lumped), values


_CAP_BASES = ("colav_ok", "nav_maneuver_ok")


def _cap(values: Mapping[str, object], i: int) -> np.ndarray:
    """Ship ``i``'s cap: its collision-avoidance rules or the planned route explain the slice."""
    return np.logical_or(*(values[ship(b, i)] for b in _CAP_BASES))


def _ship_tail(
    layout: _Layout,
    values: Mapping[str, object],
    i: int,
    s: int,
) -> Mapping[str, object]:
    """Ship ``i``'s tail nodes with ``stands_on_ok_i`` fixed to ``s``, over ``values``.

    The tail (``layout.tails[i - 1]``: ``gives_way_ok_i``, ``colav_ok_i``)
    then spans the shared axes and ship ``i``'s own only.  Its values go
    into a scope of their own, so ``values`` is left as it was.
    """
    scope = ChainMap({layout.stands_on[i - 1]: s}, values)
    _evaluate(layout, layout.tails[i - 1], scope)
    return scope


def _gives_way(layout: _Layout, values: Mapping[str, object], i: int) -> np.ndarray:
    """``g_i``: ship ``i`` is giving way (:func:`~shipintent.nodes.gives_way_to`)."""
    return _lookup(layout.gives_way_table, [values[ship(b, i)] for b in nodes.GIVES_WAY_BASES])


def _standing(layout: _Layout, values: Mapping[str, object]) -> bool | None:
    """The value of every ``stands_on_ok_i`` when it is observed, else None.

    ``stands_on_ok_i = C or OR_{j!=i} g_j``: it is ``C`` (course straight and
    speed unchanged, :func:`~shipintent.nodes.course_held`) when ``C`` holds
    or with one ship; otherwise it depends on the other ships' ``g_j``.
    """
    held = nodes.course_held(*(values[p] for p in nodes.COURSE_HELD_PARENTS))
    return held if held or layout.n_ships == 1 else None


def _ship_pieces(
    layout: _Layout,
    values: Mapping[str, object],
    i: int,
    standing: bool | None,
) -> tuple[tuple[np.ndarray, ...], np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Ship ``i``'s piece of a slice's constraint and its ``colav_ok_i``.

    The piece is as :class:`_SliceMessage` keeps it.  With
    ``stands_on_ok_i`` observed (``standing``), ``colav_ok_i`` is one array;
    otherwise it is the pair at ``stands_on_ok_i`` = 0 and 1.
    """
    colav = ship("colav_ok", i)

    def cap(s: int) -> tuple[np.ndarray, np.ndarray]:
        tail = _ship_tail(layout, values, i, s)
        return _cap(tail, i), tail[colav]

    if standing is not None:
        piece, colav_s = cap(standing)
        return (piece,), colav_s
    (c0, colav0), (c1, colav1) = cap(0), cap(1)
    return (c1, c0, _gives_way(layout, values, i)), (colav0, colav1)


def _slice_message(
    layout: _Layout, meas_states: Mapping[str, int], sa_in: int, pa_in: int
) -> tuple[_SliceMessage, dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]]:
    """Fold one slice's observations into per-ship boolean root-space indicators.

    The shared fold, then each ship's tail with ``stands_on_ok_i`` fixed to
    a scalar (:func:`_ship_tail`), so every array spans the shared axes and
    one ship's own: no array spans the joint.  Returns the message a slice
    keeps and the exported per-ship node indicators, which only the step's
    posterior bundle reads; ``colav_ok_i`` of a coupling slice comes as its
    pair at ``stands_on_ok_i`` = 0 and 1.
    """
    values = _fold(layout, meas_states, sa_in, pa_in)
    standing = _standing(layout, values)
    caps = []
    node_arrays: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]] = {}
    for i in range(1, layout.n_ships + 1):
        cap, node_arrays[ship("colav_ok", i)] = _ship_pieces(layout, values, i, standing)
        caps.append(cap)
        for base in _EXPORT_BASES[1:]:
            node_arrays[ship(base, i)] = np.asarray(values[ship(base, i)], dtype=bool)
    message = _SliceMessage(
        caps=tuple(caps),
        v_side=np.asarray(values["ground_safe_side"], dtype=bool),
        v_front=np.asarray(values["ground_safe_front"], dtype=bool),
        nav_maneuver=bool(values["nav_maneuver"]),
        turned_sb=int(values["turned_starboard"]),
        turned_port=int(values["turned_port"]),
    )
    return message, node_arrays


_Term = tuple[int | None, tuple[tuple[np.ndarray, ...], ...]]


def _options(caps: Sequence[Sequence[np.ndarray | None]]) -> tuple[_Term, ...]:
    """One slice's constraint as disjoint terms, each a product over ships.

    A term is ``(s, ops)``: ship i's factor is the AND of ``ops[i - 1]`` and
    ``s`` is the value ``stands_on_ok`` takes in it (None when the slice
    does not couple).  A slice that does not couple is one product, ``AND_i
    cap_i(C)``.  One that does is ``AND_i cap_i(1)`` where ``G = OR_j g_j``
    holds and ``AND_i cap_i(0)`` where it fails: every ship reads the one
    switch ``G``, as ``g_i`` makes ship i's tail ignore ``stands_on_ok_i``.
    Split by the first ship that gives way, ``[G] = sum_m g_m prod_{j<m} not
    g_j``, that is ``n + 1`` disjoint products: in term m, ship j's factor
    is ``cap_j(1)`` with ``not g_j`` before m, with ``g_j`` at m and alone
    after m; in the last, every ship's is ``cap_j(0)`` with ``not g_j``.  No
    term is negative, so a weight summed from them is exactly zero only
    where the constraint holds nowhere.  A None piece is true everywhere.
    """
    if len(caps[0]) == 1:
        return ((None, tuple(tuple(c) for c in caps)),)
    factors = []  # per ship: cap(1) alone, with g, with not g; cap(0) with not g
    for c1, c0, g in caps:
        not_g = np.logical_not(g)
        factors.append((_ops(c1), _ops(c1, g), _ops(c1, not_g), _ops(c0, not_g)))
    terms = [
        (1, tuple(f[2] if j < m else f[1] if j == m else f[0] for j, f in enumerate(factors)))
        for m in range(len(caps))
    ]
    return (*terms, (0, tuple(f[3] for f in factors)))


def _ops(*pieces: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """A factor's operands, leaving out the pieces that are true everywhere."""
    return tuple(p for p in pieces if p is not None)


def _terms(
    base: Sequence[Sequence[np.ndarray]], slices: Sequence[Sequence[Sequence[np.ndarray]]]
) -> list[_Term]:
    """``AND_i base[i - 1]`` times every slice's constraint, multiplied out.

    With K coupling slices that is ``(n + 1)**K`` disjoint terms, each a
    product over ships; ``s`` is the last slice's.
    """
    terms: list[_Term] = [(None, tuple(tuple(b) for b in base))]
    for caps in slices:
        options = _options(caps)
        terms = [
            (s, tuple(a + b for a, b in zip(ops, o_ops)))
            for _, ops in terms
            for s, o_ops in options
        ]
    return terms


def _ship_sums(
    product: _Product, ops: Sequence[np.ndarray], cache: dict | None = None
) -> np.ndarray | float:
    """Ship sums of the AND of ``ops`` per shared cell (:meth:`_Product.column_sums`).

    With no ops, the ship's factor is true everywhere and its sum is the
    total weight of the ship's own axes.  ``cache`` keeps the sums by the
    operands' identities, so a factor that several terms share is summed
    once.
    """
    key = tuple(map(id, ops))
    if cache is not None and key in cache:
        return cache[key]
    arrays = [product.view(a) for a in ops]
    sums = product.column_sums(arrays) if arrays else float(product.inner.sum())
    if cache is not None:
        cache[key] = sums
    return sums


def _shared_weight(product: _Product, per_cell: np.ndarray | float) -> float:
    """``per_cell`` (switch x threshold cells, or one for all) against the shared weight."""
    cells = np.broadcast_to(per_cell, (len(product.switch), len(product.cols)))
    return float(product.switch @ cells @ product.cols)


def _z(weight: Sequence[_Product], terms: Sequence[_Term]) -> float:
    """Weight of a sum of product terms under a per-ship product weight.

    Per shared cell, a term weighs the product of the ships' sums of their
    factors (variable elimination on the star of shared and per-ship axes,
    Koller & Friedman 2009, ch. 9-10); each term is contracted against the
    shared axes' weight and the weights are summed.
    """
    caches: list[dict] = [{} for _ in weight]
    return sum(
        _shared_weight(weight[0], _product(map(_ship_sums, weight, ops, caches)))
        for _, ops in terms
    )


def _product(factors: Iterable) -> np.ndarray | float:
    """The product of per-shared-cell sums: a lone one itself, uncopied, and 1.0 for none."""
    factors = list(factors)
    return functools.reduce(np.multiply, factors) if factors else 1.0


def _factored_z_f(
    layout: _Layout, weight: Sequence[_Product], values: Mapping[str, object]
) -> float:
    """Weight of one slice's constraint under a product weight, ship by ship.

    ``values`` is the slice's shared fold.  The one-slice case of the step's
    contraction: the slice's terms (:func:`_options`) through :func:`_z`.
    """
    standing = _standing(layout, values)
    caps = [_ship_pieces(layout, values, i, standing)[0] for i in range(1, layout.n_ships + 1)]
    return _z(weight, _options(caps))


def _dense(
    layout: _Layout, caps: Sequence[Sequence[np.ndarray]], g: np.ndarray | None = None
) -> np.ndarray:
    """One slice's constraint as a boolean array over the whole joint.

    A coupling slice's ANDs, ship by ship, ``cap_i(1)`` where ``G = OR_j
    g_j`` holds and ``cap_i(0)`` where it fails (:func:`_switch`); ``g`` is
    ``G`` if the caller has it.
    """
    if len(caps[0]) == 1:
        out = np.ones(layout.cards, dtype=bool)
        for (cap,) in caps:
            out &= cap
        return out
    g = _any_gives_way(caps) if g is None else g
    out = _switch(g, caps[0][0], caps[0][1])
    switched = np.empty_like(out)
    for cap1, cap0, _ in caps[1:]:
        out &= _switch(g, cap1, cap0, switched)
    return out


def _any_gives_way(caps: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """``G = OR_j g_j`` of a coupling slice, on the shared axes and every ship's own."""
    return functools.reduce(np.logical_or, (pieces[2] for pieces in caps))


def _switch(
    g: np.ndarray, on: np.ndarray, off: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``on`` where ``g`` holds and ``off`` elsewhere, into ``out`` (a new array by default).

    As ``off ^ (g & (on ^ off))``: logical operations, which broadcast the
    operands cell by cell into ``out`` with no temporary of its size.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(g.shape, on.shape, off.shape), dtype=bool)
    np.logical_and(g, np.logical_xor(on, off), out=out)
    return np.logical_xor(out, off, out=out)


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


class _Masses(NamedTuple):
    """A step's constraint contracted against the prior."""

    switch: np.ndarray  # weight per switch cell
    thresholds: np.ndarray  # weight per threshold cell
    rows: list[tuple[_Product, np.ndarray]]  # weight per row of each product passed over
    post: dict[str, float]  # per exported node, its weight within the constraint
    prior: dict[str, float]  # per exported node, its weight alone


def _factored_masses(
    layout: _Layout,
    terms: Sequence[_Term],
    node_arrays: Mapping[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    live: _SliceMessage,
) -> _Masses:
    """The step's masses ship by ship, from the constraint's disjoint terms.

    Every ship's sums per shared cell, once per distinct factor.  Ship i's
    pass over one of its factors weighs it by the other ships' sums, added
    up over the terms that share the factor, which gives its root marginals
    and its exported nodes' weights.  A pass also yields its own ship's
    sums, so ship 1 needs no separate one, and with one ship a step is a
    single pass.  A ship's exported node weighs ``AND & node``; as ``cap_i``
    contains ``colav_ok_i``, a coupling slice's ``colav_ok_i`` in a term is
    the array at that term's ``s``.
    """
    n = layout.n_ships
    weight = layout.local
    ship_nodes = [
        {ship(base, i): node_arrays[ship(base, i)] for base in _EXPORT_BASES}
        for i in range(1, n + 1)
    ]
    totals = [float(p.inner.sum()) for p in weight]
    prior: dict[str, float] = {}
    for i in range(1, n + 1):
        pair = node_arrays[ship("colav_ok", i)]
        if isinstance(pair, tuple):
            # The prior of [G] colav(1) + [not G] colav(0): the slice's
            # terms with colav in ship i's cap and true in the others'.
            pieces = [(None, None, c[2]) for c in live.caps]
            pieces[i - 1] = (pair[1], pair[0], live.caps[i - 1][2])
            prior[ship("colav_ok", i)] = _z(weight, _options(pieces))
    caches: list[dict] = [{} for _ in weight]
    keys = [tuple(tuple(map(id, o)) for o in ops) for _, ops in terms]
    for _, ops in terms:
        for p, o, cache in zip(weight[1:], ops[1:], caches[1:]):
            _ship_sums(p, o, cache)
    rows: list[np.ndarray | float] = [0.0] * n
    post = dict.fromkeys(node_arrays, 0.0)
    per_cell = 0.0  # per shared cell, the terms' sum of their products
    for i, p in enumerate(weight):
        if n > 1 and i == n - 1:  # no later pass reads the last ship's sums
            caches[i].clear()
        groups: dict = {}  # (factor, s) -> [ops, s, the other ships' summed weight]
        for (s, ops), key in zip(terms, keys):
            others = _product(caches[j][key[j]] for j in range(n) if j != i)
            group = groups.setdefault((key[i], s), [ops[i], s, None])
            group[2] = others if group[2] is None else group[2] + others
        scale = math.prod(totals[:i] + totals[i + 1 :])
        for first, ((key, _), (ops, s, others)) in enumerate(groups.items()):
            arrays = {
                name: p.view(a[s] if isinstance(a, tuple) else a)
                for name, a in ship_nodes[i].items()
            }
            # Priors once, from the first pass; a coupling colav_ok_i's above.
            fixed = [nm for nm, a in ship_nodes[i].items() if not isinstance(a, tuple)]
            ops = [p.view(a) for a in ops]
            cols = p.cols * others if n > 1 else None
            r = p.joint_sums(ops, arrays, cols, [] if first else fixed)
            if i == 0:
                caches[0][key] = r.right
                per_cell = per_cell + r.right * others
            rows[i] = rows[i] + p.rows * r.left
            for name, v in r.post.items():
                post[name] += v
            prior.update((name, scale * v) for name, v in r.prior.items())
    return _Masses(*_shared_masses(weight[0], per_cell), list(zip(weight, rows)), post, prior)


def _dense_masses(
    layout: _Layout,
    frozen: np.ndarray,
    live: _SliceMessage,
    node_arrays: Mapping[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
) -> _Masses:
    """The step's masses from one pass over the whole joint, past the cutover.

    ``frozen`` is the frozen slices' dense joint.  The live slice's
    constraint, and a coupling slice's ``colav_ok_i`` switched on ``G``, are
    built over the joint once; the message keeps its constraint, so freezing
    the slice is one AND (:meth:`_Frozen.add`).
    """
    p = layout.prior
    g = _any_gives_way(live.caps) if live.coupled else None
    live.dense = _dense(layout, live.caps, g)
    arrays = {
        name: _switch(g, a[1], a[0]) if isinstance(a, tuple) else a
        for name, a in node_arrays.items()
    }
    r = p.joint_sums((frozen, live.dense), arrays, None, arrays)
    return _Masses(*_shared_masses(p, r.right), [(p, p.rows * r.left)], r.post, r.prior)


def _shared_masses(product: _Product, per_cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights per switch cell and per threshold cell of per-shared-cell sums."""
    return product.switch * (per_cell @ product.cols), (product.switch @ per_cell) * product.cols


def _root_masses(layout: _Layout, masses: _Masses) -> list[np.ndarray]:
    """The constraint's weight marginal on every layout axis, in layout order."""
    blocks = [(layout.switch_axes, masses.switch), (layout.threshold_axes, masses.thresholds)]
    blocks += [(p.axes[: p.split], per_row) for p, per_row in masses.rows]
    out: dict[int, np.ndarray] = {}
    for axes, flat in blocks:
        weights = flat.reshape(tuple(layout.cards[j] for j in axes))
        for k, j in enumerate(axes):
            if j not in out:
                out[j] = weights.sum(axis=tuple(x for x in range(len(axes)) if x != k))
    return [out[j] for j in range(len(layout.cards))]


def _blame(layout: _Layout, frozen: _Frozen, live: _SliceMessage) -> str:
    """The node a contradiction names.

    That is ``ship_compatible_i`` (ship i's cap) if ship i's caps over every
    slice, each at any value of ``stands_on_ok_i``, hold together nowhere
    the prior weighs: then no term weighs anything, whatever the other
    ships do.  Else ``compatible``.
    """
    for i, (p, f, pieces) in enumerate(zip(layout.local, frozen.loose, live.caps)):
        if _shared_weight(p, _ship_sums(p, (_and(f, _loose(pieces)),))) == 0.0:
            return ship("ship_compatible", i + 1)
    return "compatible"


def _posterior_bundle(
    layout: _Layout,
    frozen: _Frozen,
    live: _SliceMessage,
    node_arrays: Mapping[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
) -> tuple[IntentionPosterior, dict[str, float]]:
    """Exact posteriors and live-node probabilities from the slice messages.

    ``frozen`` is settled for this step (:meth:`_Frozen.settled`): ship by
    ship while it keeps pieces, one pass over its dense joint once it does
    not.
    """
    if frozen.dense is None:
        base = [[] if f is None else [f] for f in frozen.held]
        terms = _terms(base, [*frozen.coupled, live.caps])
        masses = _factored_masses(layout, terms, node_arrays, live)
    else:
        masses = _dense_masses(layout, frozen.dense, live, node_arrays)
    z_f = float(masses.switch.sum())

    pi_s = layout.prior_vec["safe_ground_side"]
    pi_f = layout.prior_vec["safe_ground_front"]
    u_s = pi_s * (frozen.v_side & live.v_side)
    u_f = pi_f * (frozen.v_front & live.v_front)
    z_s, z_fr = float(u_s.sum()), float(u_f.sum())

    p_u = float(layout.prior_vec["unmodeled"][1])
    p_g = float(layout.prior_vec["ground_intent"][1])
    a_u, a_g, a_s = _branch_masses(p_u, p_g, z_f, z_s, z_fr)
    total = a_u + a_g + a_s
    if total <= 0.0:
        blamed = _blame(layout, frozen, live) if z_f <= 0.0 else "compatible"
        raise ContradictionError(
            "no intention assignment explains the observed behaviour", diagnosis=blamed
        )

    rest = 1.0 - p_u
    marg: dict[str, tuple[float, ...]] = {}
    f_weight = rest * (p_g + (1.0 - p_g) * z_s * z_fr)
    for root, m_root in zip(layout.f_roots, _root_masses(layout, masses)):
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
        e_post = masses.post[name] / z_f if z_f > 0.0 else 0.0
        node_probs[name] = _unit((a_u * masses.prior[name] + post_weight * e_post) / total)
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
        self._frozen = _Frozen(
            held=(None,) * self.n_ships,
            coupled=(),
            loose=(None,) * self.n_ships,
            v_side=np.ones(disc.ground_side.bins, dtype=bool),
            v_front=np.ones(disc.ground_front.bins, dtype=bool),
        )
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
        frozen = self._frozen
        new_slice = added_slice or not self._slices
        if not new_slice:
            live = self._live()
        else:
            sa = pa = nodes.FALSE
            if self._slices:  # freeze the live slice into the running products
                msg = self._live().message
                assert msg is not None
                frozen = frozen.add(self.layout, msg)
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
        frozen = frozen.settled(self.layout, message)
        posterior, node_probs = _posterior_bundle(self.layout, frozen, message, node_arrays)

        if new_slice:
            if self._slices:
                self._live().message = None
            self._slices.append(live)
        live.meas, live.message = meas, message
        self._frozen = frozen
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
        for arr in self._frozen.arrays():
            h.update(b"-" if arr is None else f"{arr.shape}".encode() + arr.tobytes())
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
    It is contracted ship by ship on the candidate's lumped roots: one value
    per class of values its truth tables cannot tell apart, weighted by the
    class's summed virtual evidence (:meth:`_Layout.lumps`), which regroups
    the same non-negative sums.  Raw scores below :data:`SCORE_FLOOR` clamp to zero; if every candidate
    clamps, the normalized scores fall back to uniform and the result is
    flagged ``all_incompatible``.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate to score")
    layout = session.layout
    dists = _virtual_root_dists(layout, session.last_record.posterior)
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
            weight, values = _lumped(layout, dists, states, *latches)
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
