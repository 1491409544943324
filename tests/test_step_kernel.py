"""A step keeps every slice as per-ship pieces and contracts them ship by ship.

``_slice_message`` evaluates each ship's coupled nodes with
``stands_on_ok_i`` fixed to a scalar, so every piece it keeps spans the
shared axes and one ship's own.  ``_posterior_bundle`` multiplies the
frozen and live pieces out into disjoint product terms, ``(n + 1)**K`` of
them for K coupling slices, and contracts each term per ship over the
shared block; past a cutover derived from array sizes it ANDs the pieces
into one dense joint instead.  These tests pin the pieces against the
dense fold, the bundle against the dense oracle for every K, and the
memory a step saves.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import DISC3, OBSTACLES, draw_slice, layout3
from shipintent import nodes
from shipintent.discretize import Discretization, IntentionPriors
from shipintent.geometry import ShipState
from shipintent.runtime import (
    SlicePolicy,
    _dense,
    _Frozen,
    _Layout,
    _posterior_bundle,
    _slice_message,
    init_session,
    step_update,
)

EAST = 0.0
TOL = 1e-12


def dense_node(layout, message, arr):
    """An exported node over the whole joint; a coupling slice's colav_ok switches on G."""
    if isinstance(arr, tuple):
        g = functools.reduce(np.logical_or, (pieces[2] for pieces in message.caps))
        arr = np.where(g, arr[1], arr[0])
    return np.broadcast_to(arr, layout.cards)


def coupled_count(session):
    """K: the coupling slices among the frozen and the live one."""
    return session._frozen.k + session._live().message.coupled


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
    message, arrays = _slice_message(layout, states, sa, pa)
    want = dense_oracle.fold(layout, states, sa, pa)

    assert np.array_equal(_dense(layout, message.caps), want["f_side"])
    assert list(arrays) == list(want["node_arrays"])
    for name, arr in want["node_arrays"].items():
        got = dense_node(layout, message, arrays[name])
        assert np.array_equal(got, np.broadcast_to(arr, layout.cards)), name
    assert np.array_equal(message.v_side, want["v_side"])
    assert np.array_equal(message.v_front, want["v_front"])
    assert (message.nav_maneuver, message.turned_sb, message.turned_port) == (
        want["nav_maneuver"],
        want["turned_sb"],
        want["turned_port"],
    )
    # Every piece and exported node stays on the shared axes and one ship's own.
    for i, own in enumerate(layout.ship_axes, start=1):
        others = [j for axes in layout.ship_axes if axes != own for j in axes]
        pieces = [*message.caps[i - 1]]
        for name, arr in arrays.items():
            if name.endswith(f"_{i}"):
                pieces += arr if isinstance(arr, tuple) else [arr]
        for piece in pieces:
            assert all(piece.shape[j] == 1 for j in others)


def test_course_held_message_builds_one_full_joint_array():
    # Default bins, two ships, course held: every stands_on_ok_i is C, so
    # each ship keeps one piece on the shared axes and its own, and the
    # message stays well under two boolean arrays over the 9e6-cell joint.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    session = init_session(own0, OBSTACLES[:2])
    layout = session.layout
    cells = math.prod(layout.cards)
    assert cells == 9_000_000
    states = session.last_record.measurements.as_states()
    states.update(meas_course_change=nodes.STRAIGHT, meas_speed_change=nodes.NONE)
    tracemalloc.start()
    try:
        message, _ = _slice_message(layout, states, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not message.coupled
    assert _dense(layout, message.caps).any()
    assert peak < 2 * cells, peak


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_pass_bundle_matches_the_separate_contractions(data):
    # Random frozen per-ship pieces F_i: the bundle takes every sum from
    # per-ship passes, the dense oracle each marginal and node weight from a
    # reduction of its own over the weighted joint.
    n_ships = data.draw(st.integers(1, 3), label="n_ships")
    layout = layout3(n_ships)
    states, sa, pa = draw_slice(data, n_ships)
    seed = data.draw(st.integers(0, 2**32 - 1), label="frozen_seed")
    density = data.draw(st.sampled_from([0.05, 0.5, 0.95, 1.0]), label="frozen_density")
    rng = np.random.default_rng(seed)
    held = []
    for own in layout.ship_axes:
        others = {j for axes in layout.ship_axes if axes != own for j in axes}
        shape = [1 if j in others else card for j, card in enumerate(layout.cards)]
        held.append(rng.random(shape) < density)
    frozen = _Frozen(
        tuple(held),
        (),
        tuple(held),
        rng.random(DISC3.ground_side.bins) < 0.7,
        rng.random(DISC3.ground_front.bins) < 0.7,
    )
    message, arrays = _slice_message(layout, states, sa, pa)
    frozen_f = np.ones(layout.cards, dtype=bool)
    for f in held:
        frozen_f &= f

    got = _posterior_bundle(layout, frozen, message, arrays)
    want = dense_oracle.bundle(
        layout, frozen_f, frozen.v_side, frozen.v_front, dense_oracle.fold(layout, states, sa, pa)
    )
    assert_bundle_matches(got, want)


def test_step_bundle_builds_no_full_joint_array():
    # Default bins, two ships, one frozen slice: the joint has 9e6 cells, so
    # one boolean array over it alone would take 9e6 bytes.
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    for t in (10.0, 20.0):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, EAST + math.radians(0.4 * t))
        step_update(session, own, [o.advanced(t) for o in obstacles])
    assert session.slice_count == 2
    layout = session.layout
    cells = math.prod(layout.cards)
    assert cells == 9_000_000
    live = session._live()
    message, arrays = _slice_message(layout, live.meas.as_states(), live.sa_in, live.pa_in)
    frozen = session._frozen
    pieces = [f for f in frozen.held if f is not None]
    pieces += [p for caps in frozen.coupled for ship_pieces in caps for p in ship_pieces]
    assert frozen.dense is None
    assert not all(p.all() for p in pieces)
    tracemalloc.start()
    try:
        _, node_probs = _posterior_bundle(layout, frozen, message, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert node_probs == session.last_record.node_probs
    assert peak < cells, peak


CASES = [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("n_ships, k", CASES, ids=[f"n{n}-K{k}" for n, k in CASES])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_bundle_with_k_coupling_slices_matches_the_dense_oracle(n_ships, k, data):
    # K slices whose course is not held (they couple the ships) and up to two
    # held ones, in a drawn order, each with random latch carries; the last
    # is live.  With DISC3, two ships take the dense path from K = 2 on.
    layout = layout3(n_ships)
    n_held = data.draw(st.integers(0 if k else 1, 2), label="held_slices")
    kinds = data.draw(st.permutations([False] * k + [True] * n_held), label="order")
    folds, messages = [], []
    for held in kinds:
        states, sa, pa = draw_slice(data, n_ships, held=held)
        folds.append(dense_oracle.fold(layout, states, sa, pa))
        messages.append(_slice_message(layout, states, sa, pa))
    frozen = _Frozen(
        (None,) * n_ships,
        (),
        (None,) * n_ships,
        np.ones(DISC3.ground_side.bins, dtype=bool),
        np.ones(DISC3.ground_front.bins, dtype=bool),
    )
    frozen_f = np.ones(layout.cards, dtype=bool)
    for (message, _), fold in zip(messages[:-1], folds[:-1]):
        frozen = frozen.add(layout, message)
        frozen_f = frozen_f & fold["f_side"]
    live, arrays = messages[-1]
    assert frozen.k + live.coupled == k
    assert layout.factored(k) == (n_ships == 3 or k < 2)

    got = _posterior_bundle(layout, frozen.settled(layout, live), live, arrays)
    want = dense_oracle.bundle(layout, frozen_f, frozen.v_side, frozen.v_front, folds[-1])
    assert_bundle_matches(got, want)


def test_cutover_follows_the_array_sizes():
    # (n + 1)**K terms of n ship-local arrays against one joint: two ships
    # at default bins turn dense at K = 2, three at K = 4.
    for n_ships, first_dense in ((2, 2), (3, 4)):
        layout = _Layout(n_ships, IntentionPriors(), Discretization(), None)
        want = [True] * first_dense + [False]
        assert [layout.factored(k) for k in range(first_dense + 1)] == want
    # One ship never couples, and its single term reads the joint once.
    assert _Layout(1, IntentionPriors(), Discretization(), None).factored(0)


def test_two_ship_step_stays_under_one_boolean_joint():
    # Default bins, two ships: the joint has 9e6 cells, so one boolean array
    # over it alone would take 9e6 bytes.  A whole step, measurement, fold
    # and bundle, peaks below that with the course held (K = 0) and after a
    # turn that opens a coupling slice over a frozen held one (K = 1).
    own0 = ShipState(0.0, 0.0, 0.0, 5.0, EAST)
    obstacles = OBSTACLES[:2]
    session = init_session(own0, obstacles, policy=SlicePolicy(max_age=15.0, min_age=5.0))
    cells = math.prod(session.layout.cards)
    assert cells == 9_000_000
    seen = []
    for t, course in ((10.0, EAST), (20.0, EAST - 0.35), (30.0, EAST - 0.35)):
        own = ShipState(t, 5.0 * t, 0.0, 5.0, course)
        tracemalloc.start()
        try:
            step_update(session, own, [o.advanced(t) for o in obstacles])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cells, (t, peak)
        seen.append(coupled_count(session))
    assert seen == [0, 1, 1]
