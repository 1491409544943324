"""Candidate scoring folds the lumped roots, and that is exact.

``stands_on_ok_i = C or OR_{j!=i} g_j`` is the only node that couples the
obstacle ships (``C``: course straight and speed unchanged; ``g_j``: giving
way to ship j).  ``g_i`` makes ship i's tail ignore ``stands_on_ok_i``.  A
candidate lumps each root's values into the classes its truth tables can
tell apart, folds one value per class through every node, ``stands_on_ok_i``
included, and contracts its constraint against each class's summed virtual
evidence.  These tests pin the coupling structure in the compiled tables,
the lumped fold against the full one, the candidate's weight against the
full-joint contraction, and the memory that the lumping saves.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import DISC3, OBSTACLES, at_values, draw_slice, layout3
from shipintent.discretize import Discretization, IntentionPriors
from shipintent.geometry import ShipState
from shipintent.netbuild import measurement_variables
from shipintent.nodes import (
    GIVES_WAY_BASES,
    SHIP_INTENTIONS,
    SHIP_MEASUREMENTS,
    model_node_specs,
    ship,
)
from shipintent.runtime import (
    SlicePolicy,
    _cap,
    _firsts,
    _fold,
    _Layout,
    _lumped,
    _observed,
    _ship_tail,
    init_session,
    score_candidates,
    step_update,
)
from shipintent.trajgen import los_candidates

EAST = 0.0


def every_value(layout):
    """Each root's values, all of them, per layout axis: the full fold's."""
    return [np.arange(card) for card in layout.cards]


def gives_way(values, i):
    """``g_i``: ship ``i`` is giving way (:func:`~shipintent.nodes.gives_way_to`)."""
    role, evasive, passed = (np.asarray(values[ship(b, i)]) for b in GIVES_WAY_BASES)
    return (role == 1) & (evasive == 1) & (passed == 0)


def owners(n_ships):
    """Per-ship node id -> the obstacle it belongs to."""
    bases = {s.node_id[:-2] for s in model_node_specs(1) if s.node_id.endswith("_1")}
    bases |= set(SHIP_MEASUREMENTS) | set(SHIP_INTENTIONS)
    return {ship(base, j): j for base in bases for j in range(1, n_ships + 1)}


@pytest.mark.parametrize("n_ships", [1, 2, 3])
def test_stands_on_ok_is_the_only_node_that_reads_another_ship(n_ships):
    owner = owners(n_ships)
    for spec in model_node_specs(n_ships):
        readers = {owner[p] for p in spec.parents if p in owner}
        if spec.node_id == "compatible":  # the conjunction over every ship
            continue
        if spec.node_id not in owner:
            assert not readers, spec.node_id
            continue
        i = owner[spec.node_id]
        if spec.node_id == ship("stands_on_ok", i):
            assert readers == set(range(1, n_ships + 1)) - {i}
        else:
            assert readers <= {i}, spec.node_id


@pytest.mark.parametrize("n_ships", [1, 2, 3])
def test_stands_on_ok_table_is_course_held_or_giving_way_to_another(n_ships):
    layout = layout3(n_ships)
    for i in range(1, n_ships + 1):
        others = [j for j in range(1, n_ships + 1) if j != i]
        spec = next(s for s in layout.specs if s.node_id == ship("stands_on_ok", i))
        assert spec.parents == ("meas_course_change", "meas_speed_change") + tuple(
            ship(base, j) for j in others for base in ("gives_way_role", "evasive_ok", "passed_safely")
        )
        table = layout.tables[spec.node_id]
        held = table[(slice(None), slice(None)) + (0,) * (3 * len(others))]  # every g false
        assert held.any() and not held.all()
        for idx in np.ndindex(table.shape):
            cic, cis, *rest = idx
            gives_way = [
                rest[3 * k] == 1 and rest[3 * k + 1] == 1 and rest[3 * k + 2] == 0
                for k in range(len(others))
            ]
            assert table[idx] == (held[cic, cis] or any(gives_way)), idx


@pytest.mark.parametrize(
    "n_ships, disc, n_vectors",
    [(1, DISC3, 40), (2, DISC3, 40), (3, DISC3, 40), (2, Discretization(), 4)],
    ids=["1", "2", "3", "2-default-bins"],
)
def test_giving_way_makes_the_cap_ignore_stands_on_ok(n_ships, disc, n_vectors):
    # g_i forces evasive_ok_i, hence colav_ok_i, so colav_ok_i and cap_i
    # agree at stands_on_ok_i = 0 and 1 wherever g_i holds: every ship may
    # read the one switch C or OR_j g_j, ship i's own g_i included.
    layout = _Layout(n_ships, IntentionPriors(), disc, None)
    rng = np.random.default_rng(n_ships)
    variables = measurement_variables(n_ships, disc)
    giving_way = 0
    for _ in range(n_vectors):
        states = {v.id: int(rng.integers(v.cardinality)) for v in variables}
        for sa, pa in itertools.product((0, 1), repeat=2):
            values = _fold(layout, _observed(states, sa, pa), every_value(layout))
            for i in range(1, n_ships + 1):
                g = gives_way(values, i)
                caps = [_cap(_ship_tail(layout, values, i, s), i) & g for s in (0, 1)]
                assert not np.any(caps[0] != caps[1]), (states, sa, pa, i)
                colav = [_ship_tail(layout, values, i, s)[ship("colav_ok", i)] & g for s in (0, 1)]
                assert not np.any(colav[0] != colav[1]), (states, sa, pa, i)
                giving_way += bool(np.any(caps[0]))
    assert giving_way > 0


def full_joint_z_f(layout, dists, states, sa, pa):
    f_side = dense_oracle.fold(layout, states, sa, pa)["f_side"]
    return float((dense_oracle.dense_weight(layout, dists) * f_side).sum())


@pytest.mark.parametrize("n_ships", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factored_z_f_matches_the_full_joint_contraction(n_ships, data):
    # The candidate's z_f on its lumped roots against the full joint's.
    layout = layout3(n_ships)
    states, sa, pa = draw_slice(data, n_ships)
    # Each root's weights sum to one, as virtual evidence does in scoring:
    # z_f then stays in [0, 1], where 1e-12 is thousands of ulps.
    dists = {}
    for root, card in zip(layout.f_roots, layout.cards):
        vec = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=card, max_size=card).filter(any), label=root
        )
        dists[root] = np.asarray(vec) / math.fsum(vec)

    want = full_joint_z_f(layout, dists, states, sa, pa)
    got, _ = _lumped(layout, dists, _observed(states, sa, pa))
    assert abs(got - want) <= 1e-12


@functools.lru_cache(maxsize=None)
def default_layout(n_ships):
    return _Layout(n_ships, IntentionPriors(), Discretization(), None)


def folded_nodes(layout, values):
    """Every node a candidate reads, by name: the fold, each ship's g_i and
    its tail at both values of its stands_on_ok."""
    out = dict(values)
    for i in range(1, layout.n_ships + 1):
        out[ship("gives_way", i)] = gives_way(values, i)
        for s in (0, 1):
            tail = _ship_tail(layout, values, i, s)
            out.update((f"{node}@{s}", tail[node]) for node in tail.maps[0])
            out[f"{ship('cap', i)}@{s}"] = _cap(tail, i)
    return out


@pytest.mark.parametrize(
    "n_ships, default_bins",
    [(1, False), (2, False), (3, False), (2, True)],
    ids=["1", "2", "3", "2-default-bins"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lumped_fold_equals_the_full_fold_at_every_class_member(n_ships, default_bins, data):
    layout = default_layout(n_ships) if default_bins else layout3(n_ships)
    disc = Discretization() if default_bins else DISC3
    states, sa, pa = draw_slice(data, n_ships, disc=disc)
    observed = _observed(states, sa, pa)
    labels = layout.lumps(observed)
    reps = [_firsts(label) for label in labels]
    full = folded_nodes(layout, _fold(layout, observed, every_value(layout)))
    lumped = folded_nodes(layout, _fold(layout, observed, reps))
    assert full.keys() == lumped.keys()
    for label, first, card in zip(labels, reps, layout.cards):
        # The classes are numbered by their first members, which a fold takes.
        assert label.shape == (card,)
        assert np.array_equal(label[first], np.arange(len(first)))
        assert np.all(np.diff(first) > 0)
    for name, want in full.items():
        got = lumped[name]
        if name in layout.f_roots:
            continue  # the axis arrays themselves
        if np.ndim(want) < len(layout.f_roots):  # a scalar, or a grounding vector
            assert np.array_equal(got, want), name
            continue
        # The lumped array at each value's class, on every axis the full one spans.
        assert np.array_equal(np.broadcast_to(at_values(got, labels), want.shape), want), name


def two_ship_fan_peaks():
    """Traced peak bytes of a default-bins, two-ship fan at three lookaheads."""
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t in (10.0, 20.0):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, EAST + math.radians(0.4 * t))
        step_update(session, own, [o.advanced(t) for o in obstacles])
    assert math.prod(session.layout.cards) == 9_000_000
    fan = los_candidates(session.own_state)
    peaks = {}
    for lookahead in (30.0, 60.0, 120.0):
        tracemalloc.start()
        try:
            score_candidates(session, fan, lookahead=lookahead)
            peaks[lookahead] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_scoring_builds_no_full_joint_array():
    # Default bins, two ships: the joint has 9e6 cells, so one boolean array
    # over it alone would take 9e6 bytes.
    for lookahead, peak in two_ship_fan_peaks().items():
        assert peak < 9_000_000, (lookahead, peak)


def test_lumped_scoring_builds_no_ship_local_array():
    # One ship's own and the shared axes hold 6e5 cells at default bins (4
    # switch cells, 15 views, 1e4 threshold cells), so one boolean array over
    # them would take 6e5 bytes; a lumped fan stays under it.
    for lookahead, peak in two_ship_fan_peaks().items():
        assert peak < 600_000, (lookahead, peak)
