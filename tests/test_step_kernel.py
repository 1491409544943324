"""A step folds the live slice ship by ship and reads the joint once, exactly.

``_slice_message`` evaluates each ship's coupled nodes with
``stands_on_ok_i`` fixed to a scalar and builds only ``colav_ok_i`` and
``f_side`` over the joint.  ``_posterior_bundle`` takes every root marginal
and exported node probability from one blocked pass over ``frozen & live``
(see ``_Product.joint_sums``).  These tests pin the message against the
dense fold, the pass against the separate contractions it replaced, and
the memory both save.
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
from shipintent.geometry import ShipState
from shipintent.netbuild import measurement_variables
from shipintent.runtime import (
    SlicePolicy,
    _posterior_bundle,
    _slice_message,
    init_session,
    step_update,
)

EAST = 0.0


@pytest.mark.parametrize("n_ships", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_slice_message_matches_the_dense_fold(n_ships, data):
    layout = layout3(n_ships)
    states, sa, pa = draw_slice(data, n_ships)
    message, arrays = _slice_message(layout, states, sa, pa)
    want = dense_oracle.fold(layout, states, sa, pa)

    assert np.array_equal(np.broadcast_to(message.f_side, layout.cards), want["f_side"])
    assert list(arrays) == list(want["node_arrays"])
    for name, arr in want["node_arrays"].items():
        got = np.broadcast_to(arrays[name], layout.cards)
        assert np.array_equal(got, np.broadcast_to(arr, layout.cards)), name
    assert np.array_equal(message.v_side, want["v_side"])
    assert np.array_equal(message.v_front, want["v_front"])
    assert (message.nav_maneuver, message.turned_sb, message.turned_port) == (
        want["nav_maneuver"],
        want["turned_sb"],
        want["turned_port"],
    )


def test_course_held_message_builds_one_full_joint_array():
    # Default bins, two ships, course held: every stands_on_ok_i is C, so
    # only f_side spans the 9e6-cell joint.
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
    assert message.f_side.any()
    assert peak < 2 * cells, peak


def separate_sums(prior, a, b, arrays):
    """The contractions one at a time, each over the whole joint.

    The evidence mass and root marginals as the dense weight of ``a & b``
    summed over the other axes, then ``expect(arr)`` and ``expect(a & b &
    arr)`` per node.
    """
    joint = a & b
    mat = joint.reshape(len(prior.rows), len(prior.cols)).astype(np.float64)
    left, right = mat @ prior.cols, prior.rows @ mat
    marginals = []
    for block in (
        (prior.rows * left).reshape(prior.shape[: prior.split]),
        (prior.cols * right).reshape(prior.shape[prior.split :]),
    ):
        for j in range(block.ndim):
            marginals.append(block.sum(axis=tuple(k for k in range(block.ndim) if k != j)))
    post = {name: prior.expect(joint & arr) for name, arr in arrays.items()}
    prior_sums = {name: prior.expect(arr) for name, arr in arrays.items()}
    return float(prior.rows @ left), marginals, post, prior_sums


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_pass_bundle_matches_the_separate_contractions(data):
    n_ships = data.draw(st.integers(1, 3), label="n_ships")
    layout = layout3(n_ships)
    states = {
        v.id: data.draw(st.integers(0, v.cardinality - 1), label=v.id)
        for v in measurement_variables(n_ships, DISC3)
    }
    sa, pa = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)), label="latches")
    seed = data.draw(st.integers(0, 2**32 - 1), label="frozen_seed")
    density = data.draw(st.sampled_from([0.05, 0.5, 0.95, 1.0]), label="frozen_density")
    rng = np.random.default_rng(seed)
    frozen_f = rng.random(layout.cards) < density
    frozen_vs = rng.random(DISC3.ground_side.bins) < 0.7
    frozen_vf = rng.random(DISC3.ground_front.bins) < 0.7
    message, arrays = _slice_message(layout, states, sa, pa)
    args = (layout, frozen_f, frozen_vs, frozen_vf, message, arrays)

    got_post, got_probs = _posterior_bundle(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layout.prior, "joint_sums", functools.partial(separate_sums, layout.prior))
        want_post, want_probs = _posterior_bundle(*args)

    assert list(got_post.marginals) == list(want_post.marginals)
    for name, want in want_post.marginals.items():
        assert np.abs(np.subtract(got_post.marginals[name], want)).max() <= 1e-12, name
    assert list(got_probs) == list(want_probs)
    for name, want in want_probs.items():
        assert abs(got_probs[name] - want) <= 1e-12, name


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
    frozen = (session._frozen_f, session._frozen_vs, session._frozen_vf)
    assert not frozen[0].all()
    tracemalloc.start()
    try:
        _, node_probs = _posterior_bundle(layout, *frozen, message, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert node_probs == session.last_record.node_probs
    assert peak < cells, peak
