"""A step reads the two-ship joint once, and that pass is exact.

``_posterior_bundle`` takes every root marginal and exported node
probability from one blocked pass over ``frozen & live`` (see
``_Product.joint_sums``).  These tests pin that pass against the separate
contractions it replaced, and pin the memory it saves.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DISC3, OBSTACLES, layout3
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
