"""A step keeps the slices' evidence as one boolean array over lumped roots.

``_add_slice`` refines the frozen partition of each root by the live
slice's lumps, re-indexes the kept array along each axis whose classes
split, folds the live slice on one value per class and ANDs its
constraint in.  ``_posterior_bundle`` contracts that array against the
classes' prior weights and spreads each class's mass back over its
members.  These tests pin the fold against the dense fold, the kept array
and the bundle against the dense oracle for every K, and the memory a step
takes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import DISC3, OBSTACLES, at_values, coupled_count, draw_slice, layout3
from shipintent import nodes
from shipintent.discretize import THRESHOLDS
from shipintent.geometry import ShipState
from shipintent.runtime import (
    SlicePolicy,
    _add_slice,
    _Frozen,
    _observed,
    _posterior_bundle,
    _refine,
    init_session,
    step_update,
)

EAST = 0.0
TOL = 1e-12
# One boolean array over the default-bins joint: 4 switch cells, 15 views
# per ship and 1e4 threshold cells.
TWO_SHIP_JOINT = 9_000_000
THREE_SHIP_JOINT = 135_000_000


def over_values(layout, arr, labels):
    """An array over lumped classes as the same array over every root value."""
    return np.broadcast_to(at_values(arr, labels), layout.cards)


def assert_bundle_matches(got, want):
    got_post, got_probs = got
    want_marg, want_probs = want
    assert set(got_post.marginals) == set(want_marg)
    for name, marg in want_marg.items():
        assert np.abs(np.subtract(got_post.marginals[name], marg)).max() <= TOL, name
    assert list(got_probs) == list(want_probs)
    for name, p in want_probs.items():
        assert abs(got_probs[name] - p) <= TOL, name


@pytest.mark.parametrize("n_ships", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_slice_message_matches_the_dense_fold(n_ships, data):
    layout = layout3(n_ships)
    states, sa, pa = draw_slice(data, n_ships)
    evidence, values = _add_slice(layout, _Frozen.empty(layout), _observed(states, sa, pa))
    want = dense_oracle.fold(layout, states, sa, pa)

    labels = evidence.labels
    assert np.array_equal(over_values(layout, evidence.joint, labels), want["f_side"])
    for name, arr in want["node_arrays"].items():
        got = over_values(layout, values[name], labels)
        assert np.array_equal(got, np.broadcast_to(arr, layout.cards)), name
    assert np.array_equal(evidence.v_side, want["v_side"])
    assert np.array_equal(evidence.v_front, want["v_front"])
    assert (values["nav_maneuver"], values["turned_starboard"], values["turned_port"]) == (
        want["nav_maneuver"],
        want["turned_sb"],
        want["turned_port"],
    )
    # A slice observes every measurement, so a threshold is read only
    # through n comparisons and splits into at most n + 1 classes.
    for root, label in zip(layout.f_roots, labels):
        if root in THRESHOLDS:
            assert label.max() + 1 <= n_ships + 1, root


def test_course_held_message_builds_one_full_joint_array():
    # Default bins, two ships, course held: the slice's fold and its
    # constraint span its lumped roots, 1e4-1e5 cells, far under one boolean
    # array over the 9e6-cell joint.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    session = init_session(own0, OBSTACLES[:2])
    layout = session.layout
    assert math.prod(layout.cards) == TWO_SHIP_JOINT
    states = session.last_record.measurements.as_states()
    states.update(meas_course_change=nodes.STRAIGHT, meas_speed_change=nodes.NONE)
    tracemalloc.start()
    try:
        evidence, _ = _add_slice(layout, _Frozen.empty(layout), _observed(states, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evidence.joint.any()
    assert peak < TWO_SHIP_JOINT // 10, peak


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_pass_bundle_matches_the_separate_contractions(data):
    # A random frozen partition and a random kept array over it: the live
    # slice re-indexes the array onto the common refinement, and the bundle
    # takes every sum from one weighted array, the dense oracle each marginal
    # and node weight from a reduction of its own over the weighted joint.
    n_ships = data.draw(st.integers(1, 3), label="n_ships")
    layout = layout3(n_ships)
    states, sa, pa = draw_slice(data, n_ships)
    seed = data.draw(st.integers(0, 2**32 - 1), label="frozen_seed")
    density = data.draw(st.sampled_from([0.05, 0.5, 0.95, 1.0]), label="frozen_density")
    rng = np.random.default_rng(seed)
    labels = tuple(
        _refine(np.zeros(card, dtype=np.intp), rng.integers(0, card, card))
        for card in layout.cards
    )
    frozen = _Frozen(
        labels,
        rng.random([label.max() + 1 for label in labels]) < density,
        rng.random(DISC3.ground_side.bins) < 0.7,
        rng.random(DISC3.ground_front.bins) < 0.7,
    )
    observed = _observed(states, sa, pa)
    evidence, values = _add_slice(layout, frozen, observed)
    frozen_f = over_values(layout, frozen.joint, labels)
    live = dense_oracle.fold(layout, states, sa, pa)
    both = over_values(layout, evidence.joint, evidence.labels)
    assert np.array_equal(both, frozen_f & live["f_side"])

    got = _posterior_bundle(layout, evidence, values, [observed])
    want = dense_oracle.bundle(layout, frozen_f, frozen.v_side, frozen.v_front, live)
    assert_bundle_matches(got, want)


def test_step_bundle_builds_no_full_joint_array():
    # Default bins, two ships, one frozen slice: the bundle's one float64
    # array over the lumped joint stays far under one boolean array over the
    # 9e6-cell joint.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t in (10.0, 20.0):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, EAST + math.radians(0.4 * t))
        step_update(session, own, [o.advanced(t) for o in obstacles])
    assert session.slice_count == 2
    layout = session.layout
    assert math.prod(layout.cards) == TWO_SHIP_JOINT
    (sa, pa), live = session.slice_carries()[-1], session.slice_measurements()[-1]
    observed = _observed(live.as_states(), sa, pa)
    frozen = session._frozen
    assert not frozen.joint.all()
    evidence, values = _add_slice(layout, frozen, observed)
    tracemalloc.start()
    try:
        _, node_probs = _posterior_bundle(layout, evidence, values, [observed])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert node_probs == session.last_record.node_probs
    assert peak < TWO_SHIP_JOINT // 10, peak


CASES = [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("n_ships, k", CASES, ids=[f"n{n}-K{k}" for n, k in CASES])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_bundle_with_k_coupling_slices_matches_the_dense_oracle(n_ships, k, data):
    # K slices whose course is not held (they couple the ships) and up to two
    # held ones, in a drawn order, each with random latch carries; the last
    # is live.  Each frozen slice refines the kept partition.
    layout = layout3(n_ships)
    n_held = data.draw(st.integers(0 if k else 1, 2), label="held_slices")
    kinds = data.draw(st.permutations([False] * k + [True] * n_held), label="order")
    history, folds = [], []
    for held in kinds:
        states, sa, pa = draw_slice(data, n_ships, held=held)
        history.append(_observed(states, sa, pa))
        folds.append(dense_oracle.fold(layout, states, sa, pa))
    frozen = _Frozen.empty(layout)
    frozen_f = np.ones(layout.cards, dtype=bool)
    for observed, fold in zip(history[:-1], folds[:-1]):
        frozen, _ = _add_slice(layout, frozen, observed)
        frozen_f = frozen_f & fold["f_side"]
        assert np.array_equal(over_values(layout, frozen.joint, frozen.labels), frozen_f)
    evidence, values = _add_slice(layout, frozen, history[-1])
    assert sum(not held for held in kinds) == k

    got = _posterior_bundle(layout, evidence, values, history)
    want = dense_oracle.bundle(layout, frozen_f, frozen.v_side, frozen.v_front, folds[-1])
    assert_bundle_matches(got, want)


def test_two_ship_step_stays_under_one_boolean_joint():
    # Default bins, two ships: the joint has 9e6 cells, so one boolean array
    # over it alone would take 9e6 bytes.  A whole step, measurement, fold
    # and bundle, peaks under a tenth of that with the course held
    # (K = 0) and after a turn that opens a coupling slice over a frozen
    # held one (K = 1).
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    assert math.prod(session.layout.cards) == TWO_SHIP_JOINT
    seen = []
    for t, course in ((10.0, EAST), (20.0, EAST - 0.35), (30.0, EAST - 0.35)):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, course)
        tracemalloc.start()
        try:
            step_update(session, own, [o.advanced(t) for o in obstacles])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TWO_SHIP_JOINT // 10, (t, peak)
        seen.append(coupled_count(session))
    assert seen == [0, 1, 1]


def test_three_ship_step_past_four_coupling_slices_stays_under_one_boolean_joint():
    # Default bins, three ships: one boolean array over the 1.35e8-cell
    # joint would take 1.35e8 bytes.  The own ship turns 8 degrees more every
    # 10 s, so each step opens a slice that couples the ships; the steps at
    # K = 4 and 5 peak under that one array, their lumped joints 5e6-7e6
    # cells.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=60.0, min_age=5.0))
    assert math.prod(session.layout.cards) == THREE_SHIP_JOINT
    for k in range(1, 6):
        t = 10.0 * k
        own = ShipState(t, 5.0 * t, -0.5 * k * k, 5.0, EAST - math.radians(8.0 * k))
        traced = k >= 4
        if traced:
            tracemalloc.start()
        try:
            step_update(session, own, [o.advanced(t) for o in obstacles])
            peak = tracemalloc.get_traced_memory()[1] if traced else 0
        finally:
            if traced:
                tracemalloc.stop()
        assert coupled_count(session) == k
        assert peak < THREE_SHIP_JOINT, (k, peak)


def lumped_cells(session) -> int:
    """Cells of the step's lumped joint, refined from the public slice history."""
    layout = session.layout
    labels = [np.zeros(card, dtype=np.intp) for card in layout.cards]
    for meas, (sa, pa) in zip(session.slice_measurements(), session.slice_carries()):
        labels = list(map(_refine, labels, layout.lumps(_observed(meas.as_states(), sa, pa))))
    return math.prod(int(label.max()) + 1 for label in labels)


def test_three_ship_step_drops_the_unread_fold_before_the_bundle():
    # Default bins, three ships, the own ship turning 8 degrees more every
    # 10 s.  Past K = 2 a step peaks in the bundle: its float64 joint takes
    # 8 bytes a lumped cell, the kept boolean joints and the exported nodes
    # about 5 more.  The live fold's other nodes (gives_way_ok_i,
    # stands_on_ok_i) would add over one more byte a cell; they are dropped
    # before the bundle, so the peak stays under 13.8.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    session = init_session(own0, OBSTACLES, policy=SlicePolicy(max_age=60.0, min_age=5.0))
    for k in range(1, 6):
        t = 10.0 * k
        own = ShipState(t, 5.0 * t, -0.5 * k * k, 5.0, EAST - math.radians(8.0 * k))
        tracemalloc.start()
        try:
            step_update(session, own, [o.advanced(t) for o in OBSTACLES])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coupled_count(session) == k
        if k >= 3:
            cells = lumped_cells(session)
            assert peak < 13.8 * cells, (k, cells, peak / cells)
