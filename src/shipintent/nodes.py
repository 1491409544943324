"""Node vocabulary and deterministic logic of the intention network.

The network has three layers:

* intention roots - what the observed vessel is presumed to want (safety
  thresholds, compliance switches, its view of the encounter);
* per-slice measurement roots - binned/classified geometry snapshots;
* per-slice model nodes - binary, fully deterministic consequences of their
  parents, each backed by one predicate in this module.

Per-ship nodes get a ``_<i>`` suffix (1-based obstacle index); slice copies
get ``@<k>``.  ``turned_starboard``/``turned_port`` latch across slices: they
OR the current course-change state with their previous-slice value, and slice
0 reads the ``*_carry`` roots so a session can seed earlier history.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum

from .bn import BOOL_STATES
from .discretize import INTENTION_BINARY, THRESHOLDS
from .geometry import Side, Situation, SpeedTrend, Trend, Turn

# State tuples (index order is part of the network contract).
SIDE_STATES = tuple(m.value for m in Side)            # starboard, port
TURN_STATES = tuple(m.value for m in Turn)            # starboard, port, straight
SPEED_STATES = tuple(m.value for m in SpeedTrend)     # higher, lower, none
TREND_STATES = tuple(m.value for m in Trend)          # decreasing, increasing, neither
SITUATION_STATES = tuple(m.value for m in Situation)
PRIORITY_STATES = ("higher", "similar", "lower")

FALSE, TRUE = 0, 1
SB, PORT, STRAIGHT = 0, 1, 2
HIGHER, LOWER, NONE = 0, 1, 2
DECREASING, INCREASING, NEITHER = 0, 1, 2
OVERTAKING, OVERTAKEN, HEAD_ON, CROSSING_PORT, CROSSING_STARBOARD = range(5)
PRI_HIGHER, PRI_SIMILAR, PRI_LOWER = range(3)

# Measurement roots by slice-local base (per-ship ones get the ``_<i>``
# suffix): the :class:`MeasurementVector` (shared) or :class:`ShipMeasurements`
# (per-ship) attribute each one reads, and its state labels; None marks a
# distance binned on the channel that ``discretize.CHANNEL_REGISTRY`` pairs
# with it.
SHARED_MEASUREMENTS: dict[str, tuple[str, tuple[str, ...] | None]] = {
    "meas_course_change": ("course_change", TURN_STATES),
    "meas_speed_change": ("speed_change", SPEED_STATES),
    "meas_course_changing": ("course_changing", BOOL_STATES),
    "meas_ground_sb": ("ground_sb_bin", None),
    "meas_ground_ps": ("ground_ps_bin", None),
    "meas_ground_front": ("ground_front_bin", None),
    "meas_wp_bearing": ("wp_bearing", TREND_STATES),
    "meas_wp_distance": ("wp_distance", TREND_STATES),
    "meas_wp_ahead": ("wp_ahead", BOOL_STATES),
}
SHIP_MEASUREMENTS: dict[str, tuple[str, tuple[str, ...] | None]] = {
    "meas_dcpa": ("dcpa_bin", None),
    "meas_front_cross": ("front_cross_bin", None),
    "meas_midpoint_dist": ("midpoint_bin", None),
    "meas_tcpa": ("tcpa_bin", None),
    "meas_passed": ("passed", BOOL_STATES),
    "meas_pass_side": ("pass_side", SIDE_STATES),
    "meas_midpoint_side": ("midpoint_side", SIDE_STATES),
    "meas_situation": ("situation", SITUATION_STATES),
}


def ship(base: str, i: int) -> str:
    return f"{base}_{i}"


def at(node: str, k: int) -> str:
    return f"{node}@{k}"


# The intention roots each obstacle ship adds, by base.
SHIP_INTENTIONS = ("priority", "situation_view")


def intention_ids(n_ships: int) -> list[str]:
    ids = list(THRESHOLDS) + list(INTENTION_BINARY)
    for i in range(1, n_ships + 1):
        ids += [ship(base, i) for base in SHIP_INTENTIONS]
    return ids


def measurement_bases(n_ships: int) -> dict[str, str]:
    """Slice-local id -> base of every measurement root, shared ones first."""
    out = {base: base for base in SHARED_MEASUREMENTS}
    for i in range(1, n_ships + 1):
        out.update({ship(base, i): base for base in SHIP_MEASUREMENTS})
    return out


def measurement_ids(n_ships: int) -> list[str]:
    return list(measurement_bases(n_ships))


@dataclass(frozen=True)
class ModelNodeSpec:
    """One deterministic binary node: id, ordered parents, truth predicate."""

    node_id: str
    parents: tuple[str, ...]
    predicate: Callable[..., bool]
    temporal: bool = False  # last parent refers to the previous slice


def model_node_truth(spec: ModelNodeSpec, assignment: Mapping[str, int]) -> bool:
    """Evaluate a node's predicate on a parent-state assignment."""
    try:
        states = tuple(assignment[p] for p in spec.parents)
    except KeyError as missing:
        raise ValueError(f"assignment is missing parent {missing.args[0]!r}") from None
    return bool(spec.predicate(*states))


# ``stands_on_ok_i`` is the only node that reads another ship's nodes, and it
# reads them only through these two predicates: it holds when the course is
# held or when the vessel is giving way to some other ship j.
COURSE_HELD_PARENTS = ("meas_course_change", "meas_speed_change")
GIVES_WAY_BASES = ("gives_way_role", "evasive_ok", "passed_safely")


def course_held(cic: int, cis: int) -> bool:
    """Course straight and speed unchanged: standing on towards every ship."""
    return cic == STRAIGHT and cis == NONE


def gives_way_to(role: int, evasive: int, passed_safely: int) -> bool:
    """Giving way to a ship: the give-way role, evading, and not yet safely past."""
    return role == TRUE and evasive == TRUE and passed_safely == FALSE


@functools.lru_cache(maxsize=None)
def model_node_specs(n_ships: int) -> tuple[ModelNodeSpec, ...]:
    """Registry of every model node for one time slice, dependency-ordered.

    The specs of a ship count are built once and shared, so the truth
    tables compiled from their predicates are compiled once too.
    """
    if n_ships < 1:
        raise ValueError("the network needs at least one obstacle ship")
    specs: list[ModelNodeSpec] = []

    specs.append(
        ModelNodeSpec(
            "turned_starboard",
            ("meas_course_change", "turned_starboard_prev"),
            lambda cic, prev: cic == SB or prev == TRUE,
            temporal=True,
        )
    )
    specs.append(
        ModelNodeSpec(
            "turned_port",
            ("meas_course_change", "turned_port_prev"),
            lambda cic, prev: cic == PORT or prev == TRUE,
            temporal=True,
        )
    )
    specs.append(
        ModelNodeSpec(
            "nav_maneuver",
            ("meas_wp_distance", "meas_wp_bearing", "meas_wp_ahead"),
            lambda wprd, wprb, wpah: wprd == DECREASING
            and (wprb == DECREASING or wpah == TRUE),
        )
    )
    specs.append(
        ModelNodeSpec(
            "ground_safe_side",
            ("meas_ground_sb", "meas_ground_ps", "safe_ground_side", "meas_course_change"),
            lambda sb, ps, thr, cic: (sb > thr and cic == SB)
            or (ps > thr and cic == PORT)
            or cic == STRAIGHT,
        )
    )
    specs.append(
        ModelNodeSpec(
            "ground_safe_front",
            ("meas_ground_front", "safe_ground_front", "meas_course_change"),
            lambda front, thr, cic: front > thr or cic != STRAIGHT,
        )
    )
    specs.append(
        ModelNodeSpec(
            "ground_safe",
            ("ground_safe_side", "ground_safe_front"),
            lambda side, front: side == TRUE and front == TRUE,
        )
    )

    for i in range(1, n_ships + 1):
        specs.append(
            ModelNodeSpec(
                ship("safe_distance", i),
                (ship("meas_dcpa", i), "safe_cpa", ship("meas_front_cross", i), "safe_front_cross"),
                lambda dcpa, thr_cpa, front, thr_front: dcpa > thr_cpa and front > thr_front,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("passed_safely", i),
                (ship("meas_passed", i), ship("safe_distance", i)),
                lambda passed, sd: passed == TRUE and sd == TRUE,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("overtaken_ok", i),
                (ship("safe_distance", i),),
                lambda sd: sd == TRUE,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("overtaking_ok", i),
                (ship("safe_distance", i),),
                lambda sd: sd == TRUE,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("head_on_ok", i),
                (ship("meas_midpoint_dist", i), "safe_midpoint", ship("meas_midpoint_side", i)),
                lambda dm, thr, side: dm > thr and side == PORT,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("cross_starboard_ok", i),
                (ship("safe_distance", i), ship("meas_pass_side", i)),
                lambda sd, side: sd == TRUE and side == PORT,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("cross_port_ok", i),
                (ship("safe_distance", i), "meas_course_change"),
                lambda sd, cic: sd == TRUE and cic != PORT,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("nav_maneuver_ok", i),
                (
                    "nav_maneuver",
                    ship("safe_distance", i),
                    ship("situation_view", i),
                    ship("meas_passed", i),
                    ship("meas_midpoint_dist", i),
                    "safe_midpoint",
                ),
                lambda nav, sd, sit, passed, dm, thr: nav == TRUE
                and (
                    (sd == TRUE and sit != HEAD_ON)
                    or passed == TRUE
                    or (dm > thr and sit == HEAD_ON)
                ),
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("gives_way_role", i),
                (ship("priority", i), ship("situation_view", i)),
                lambda pri, sit: pri == PRI_LOWER
                or (pri == PRI_SIMILAR and sit in (HEAD_ON, CROSSING_STARBOARD, OVERTAKING)),
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("seamanlike_turn", i),
                ("turned_starboard", "turned_port", "meas_course_change", ship("meas_pass_side", i)),
                lambda sa, pa, cic, side: not (sa == TRUE and pa == TRUE) and cic != side,
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("evasive_ok", i),
                (
                    "good_seamanship",
                    ship("seamanlike_turn", i),
                    "colregs_compliant",
                    ship("situation_view", i),
                    ship("overtaking_ok", i),
                    ship("overtaken_ok", i),
                    ship("head_on_ok", i),
                    ship("cross_starboard_ok", i),
                    ship("cross_port_ok", i),
                ),
                lambda i_gs, gs, i_cc, sit, oting, oten, ho, crss, crps: (
                    i_gs == FALSE or gs == TRUE
                )
                and (
                    i_cc == FALSE
                    or (sit == OVERTAKING and oting == TRUE)
                    or (sit == OVERTAKEN and oten == TRUE)
                    or (sit == HEAD_ON and ho == TRUE)
                    or (sit == CROSSING_STARBOARD and crss == TRUE)
                    or (sit == CROSSING_PORT and crps == TRUE)
                ),
            )
        )

    for i in range(1, n_ships + 1):
        others = [j for j in range(1, n_ships + 1) if j != i]
        parents = list(COURSE_HELD_PARENTS)
        for j in others:
            parents += [ship(base, j) for base in GIVES_WAY_BASES]

        def stands_on(cic: int, cis: int, *rest: int, _n: int = len(others)) -> bool:
            return course_held(cic, cis) or any(
                gives_way_to(*rest[3 * k : 3 * k + 3]) for k in range(_n)
            )

        specs.append(ModelNodeSpec(ship("stands_on_ok", i), tuple(parents), stands_on))

    for i in range(1, n_ships + 1):
        specs.append(
            ModelNodeSpec(
                ship("gives_way_ok", i),
                (
                    ship("evasive_ok", i),
                    "meas_course_changing",
                    ship("meas_tcpa", i),
                    "ample_time",
                    ship("stands_on_ok", i),
                ),
                lambda cem, ccc, tcpa, thr, soc: cem == TRUE
                or ccc == TRUE
                or (tcpa > thr and soc == TRUE),
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("colav_ok", i),
                (
                    ship("passed_safely", i),
                    ship("gives_way_role", i),
                    ship("stands_on_ok", i),
                    ship("gives_way_ok", i),
                ),
                lambda p, role, soc, gwc: (p == FALSE and role == FALSE and soc == TRUE)
                or (p == FALSE and role == TRUE and gwc == TRUE),
            )
        )
        specs.append(
            ModelNodeSpec(
                ship("ship_compatible", i),
                (ship("colav_ok", i), ship("nav_maneuver_ok", i), "ground_safe", "ground_intent"),
                lambda colav, nav, sdg, ig: (colav == TRUE or nav == TRUE)
                and (sdg == TRUE or ig == TRUE),
            )
        )

    compat_parents = tuple(ship("ship_compatible", i) for i in range(1, n_ships + 1)) + ("unmodeled",)

    def compatible(*states: int) -> bool:
        return all(s == TRUE for s in states[:-1]) or states[-1] == TRUE

    specs.append(ModelNodeSpec("compatible", compat_parents, compatible))
    return tuple(specs)


@dataclass(frozen=True)
class ShipMeasurements:
    """Binned/classified geometry of the reference vessel against one ship."""

    dcpa_bin: int
    front_cross_bin: int
    midpoint_bin: int
    tcpa_bin: int
    passed: bool
    pass_side: Side
    midpoint_side: Side
    situation: Situation


@dataclass(frozen=True)
class MeasurementVector:
    """Evidence for one time slice: per-ship blocks plus shared channels."""

    ships: tuple[ShipMeasurements, ...]
    course_change: Turn
    speed_change: SpeedTrend
    course_changing: bool
    ground_sb_bin: int
    ground_ps_bin: int
    ground_front_bin: int
    wp_bearing: Trend
    wp_distance: Trend
    wp_ahead: bool

    def as_states(self) -> dict[str, int]:
        """Slice-local node id -> state index, for every measurement node."""
        out = {
            node: _state_index(getattr(self, attr), labels)
            for node, (attr, labels) in SHARED_MEASUREMENTS.items()
        }
        for i, m in enumerate(self.ships, start=1):
            for node, (attr, labels) in SHIP_MEASUREMENTS.items():
                out[ship(node, i)] = _state_index(getattr(m, attr), labels)
        return out


def _state_index(value: object, labels: tuple[str, ...] | None) -> int:
    """A measured value's state: an enum by its label, a bin or flag as an int."""
    return labels.index(value.value) if isinstance(value, Enum) else int(value)
